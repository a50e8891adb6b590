"""Polynomials as coefficient rows (lowest degree first): the functional and
operator actions of series on them, checked against naive row arithmetic."""

import math
import random
from fractions import Fraction as F

from umbral import Series, apply_operator, pairing

from oracles import poly_product


def random_row(rng, length):
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(length))


def random_series(rng, trunc):
    return Series([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(trunc)])


def exp_at(a, trunc):
    return Series([F(a) ** k / math.factorial(k) for k in range(trunc)])


def evaluate(row, x):
    acc = F(0)
    for coeff in reversed(row):
        acc = acc * x + coeff
    return acc


def derivative(row):
    return tuple(j * row[j] for j in range(1, len(row))) + (F(0),)


def test_trailing_zeros_are_not_degree():
    f = Series.from_text("2,3")
    assert pairing(f, (1, 2, 0, 0)) == pairing(f, (1, 2)) == 8
    assert pairing(f, ()) == 0
    assert apply_operator(f, ()) == ()
    assert apply_operator(f, [F(1, 2), 0, 0]) == (1, 0, 0)


def test_pairing_and_operator_are_linear():
    rng = random.Random(11)
    for _ in range(20):
        h = random_series(rng, 6)
        p, q = random_row(rng, 6), random_row(rng, 6)
        a, b = F(rng.randint(-5, 5), 3), F(rng.randint(-5, 5), 7)
        combo = tuple(a * x + b * y for x, y in zip(p, q))
        assert pairing(h, combo) == a * pairing(h, p) + b * pairing(h, q)
        hp, hq = apply_operator(h, p), apply_operator(h, q)
        assert apply_operator(h, combo) == tuple(a * x + b * y for x, y in zip(hp, hq))


def test_operator_powers_of_t_are_derivatives():
    rng = random.Random(12)
    p = random_row(rng, 6)
    expected = p
    for k in range(7):
        assert apply_operator(Series([0] * k + [1], trunc=7), p) == expected
        expected = derivative(expected)


def test_pairing_with_exp_at_a_evaluates():
    rng = random.Random(13)
    for a in (0, 1, -2, F(1, 2), F(-5, 3)):
        p = random_row(rng, 5)
        assert pairing(exp_at(a, 5), p) == evaluate(p, a)


def test_operator_exp_at_a_shifts():
    # e^{a d/dx} p(x) = p(x + a); the right side expands sum p_n (x + a)^n
    rng = random.Random(14)
    for a in (1, -1, F(2, 3)):
        p = random_row(rng, 5)
        shifted = [F(0)] * len(p)
        power = [F(1)]
        for coeff in p:
            for j, c in enumerate(power):
                shifted[j] += coeff * c
            power = poly_product(power, [a, 1])
        assert apply_operator(exp_at(a, 5), p) == tuple(shifted)


def test_operator_product_is_composition():
    rng = random.Random(15)
    for _ in range(10):
        g, h = random_series(rng, 6), random_series(rng, 6)
        p = random_row(rng, 6)
        assert apply_operator(g * h, p) == apply_operator(g, apply_operator(h, p))


def test_pairing_a_product_moves_one_factor_onto_the_row():
    # <g h | p> = <g | h p>: the pairing of the umbral algebra
    rng = random.Random(16)
    for _ in range(10):
        g, h = random_series(rng, 6), random_series(rng, 6)
        p = random_row(rng, 6)
        assert pairing(g * h, p) == pairing(g, apply_operator(h, p))
