"""Series arithmetic: worked examples pinned by oracles, plus algebraic laws."""

from __future__ import annotations

import math
from fractions import Fraction as F

import umbral.series

import pytest
from hypothesis import example, given, settings, strategies as st

from umbral import ClassMismatchError, InvalidParameterError, OutOfRangeError, Series
from umbral.rationals import scaled_to_integers

from oracles import (brute_compose, classical_bernoulli, conv_inverse, conv_power, conv_product,
                     exp_sum, lagrange_revert)


def exp_series(trunc: int) -> Series:
    return Series([F(1, math.factorial(k)) for k in range(trunc)])


# -- order ---------------------------------------------------------------------


def test_order_of_invertible_series():
    assert Series.from_text("1,-1", trunc=8).order() == 0


def test_order_of_delta_series():
    assert Series.from_text("0,1,-1/2", trunc=8).order() == 1


def test_order_of_zero_series_is_beyond_truncation():
    assert Series.zero(4).order() is None


# -- linear operations ------------------------------------------------------------


def test_add_cancels():
    assert Series.from_text("1,1") + Series.from_text("1,-1") == Series.from_text("2,0")


def test_scale():
    assert Series.from_text("0,0,1") * F(3, 2) == Series.from_text("0,0,3/2")


def test_add_takes_min_truncation():
    a = Series.from_text("1,1", trunc=8)
    b = Series.from_text("1,0,1", trunc=4)
    out = a + b
    assert out.trunc == 4
    assert out == Series.from_text("2,1,1,0")


def test_scalar_add_and_sub():
    s = Series.from_text("0,1,1")
    assert (1 + s).coeffs[0] == 1
    assert (1 - s) == Series.from_text("1,-1,-1")
    # a scalar over another denominator than the series'
    s = Series.from_text("1/3,1,1/5")
    assert s - F(2, 7) == Series.from_text("1/21,1,1/5")
    assert F(2, 7) - s == Series.from_text("-1/21,-1,-1/5")
    assert s + True == Series.from_text("4/3,1,1/5")


# -- multiplication -----------------------------------------------------------------


def test_mul_difference_of_squares():
    a = Series.from_text("1,1", trunc=4)
    b = Series.from_text("1,-1", trunc=4)
    assert a * b == Series.from_text("1,0,-1,0")


def test_mul_monomials():
    t = Series.t(4)
    assert t * t == Series.from_text("0,0,1,0")


def test_mul_exponentials_cancel():
    # e^t * e^{-t} = 1; expected values from the schoolbook convolution oracle
    pos = exp_series(6)
    neg = Series([F((-1) ** k, math.factorial(k)) for k in range(6)])
    expected = conv_product(pos.coeffs, neg.coeffs, 6)
    assert expected == [1, 0, 0, 0, 0, 0]
    assert (pos * neg).coeffs == tuple(expected)


# -- inversion -----------------------------------------------------------------------


def test_inv_geometric():
    assert Series.from_text("1,-1", trunc=4).inv() == Series.from_text("1,1,1,1")


def test_inv_constant():
    assert Series.constant(2, 3).inv() == Series.from_text("1/2,0,0")


def test_inv_bernoulli_generating_coefficients():
    # (e^t-1)/t inverted termwise; oracle solves the convolution recurrence
    base = [F(1, math.factorial(k + 1)) for k in range(5)]
    expected = conv_inverse(base, 5)
    assert expected == [F(1), F(-1, 2), F(1, 12), F(0), F(-1, 720)]
    assert Series(base).inv().coeffs == tuple(expected)


def test_inv_rejects_delta_series():
    with pytest.raises(ClassMismatchError):
        Series.t(4).inv()


# -- integer powers --------------------------------------------------------------------


def test_negative_power_rejects_delta():
    with pytest.raises(ClassMismatchError, match="invertible series"):
        Series.t(4) ** -2


# -- exp -------------------------------------------------------------------------------


def test_exp_of_mercator_series():
    # log(1 + t) = t - t^2/2 + t^3/3 - ...
    assert Series.from_text("0,1,-1/2,1/3").exp() == Series.from_text("1,1,0,0")


def test_exp_of_t():
    assert Series.t(4).exp() == Series.from_text("1,1,1/2,1/6")


def test_exp_of_a_sum_is_the_product():
    x = Series.from_text("0,1,0,-1/3,2", trunc=6)
    y = Series.from_text("0,-2,1/2,0,5/7", trunc=6)
    assert (x + y).exp() == x.exp() * y.exp()


def test_exp_of_a_multiple_is_the_power():
    x = Series.from_text("0,1,0,-1/3", trunc=6)
    for p in (F(3), F(-2), F(1, 2), F(-5, 3)):
        assert (p * x).exp() == x.exp() ** p


def test_exp_requires_positive_order():
    with pytest.raises(ClassMismatchError):
        Series.from_text("1,1").exp()


# -- rational powers -----------------------------------------------------------------------


def test_rat_pow_zero_exponent():
    assert Series.from_text("1,2,3").rat_pow(0) == Series.constant(1, 3)


def test_rat_pow_square_root():
    root = Series.from_text("1,2,1").rat_pow(F(1, 2))
    assert root == Series.from_text("1,1,0")
    assert root * root == Series.from_text("1,2,1")


def test_rat_pow_requires_unit_constant_term():
    with pytest.raises(ClassMismatchError):
        Series.from_text("2,1").rat_pow(F(1, 2))


# -- composition --------------------------------------------------------------------------


def test_compose_square_into_shift():
    # (t + t^2)^2 = t^2 + 2t^3 + O(t^4), expanded by the brute-force oracle
    outer = Series.from_text("0,0,1", trunc=4)
    inner = Series.from_text("0,1,1", trunc=4)
    expected = brute_compose(outer.coeffs, inner.coeffs, 4)
    assert expected == [0, 0, 1, 2]
    assert outer.compose(inner).coeffs == tuple(expected)


def test_compose_with_identity():
    s = Series.from_text("1,2,3,4")
    assert s.compose(Series.t(4)) == s


def test_compose_known_inverse_pair():
    em1 = exp_series(6) - 1
    log1p = Series([F(0)] + [F((-1) ** (k + 1), k) for k in range(1, 6)])
    assert em1.compose(log1p) == Series.t(6)


def test_compose_rejects_invertible_inner():
    with pytest.raises(ClassMismatchError):
        Series.t(4).compose(Series.from_text("1,1", trunc=4))


def test_compose_horner_products_narrow_with_their_block(monkeypatch):
    # the block starting at s reaches the result through inner^s, so the
    # Horner products run below the full width n; at full width each of the
    # products would cost n(n+1)/2 coefficient products
    n = 128
    widths = []
    mul = Series.__mul__

    def recording_mul(a, b):
        if isinstance(b, Series):
            widths.append(min(a.trunc, b.trunc))
        return mul(a, b)

    monkeypatch.setattr(Series, "__mul__", recording_mul)
    inner = Series.from_text("0,1,-1/2,1/3", trunc=n)
    Series([F(1, k + 1) for k in range(n)]).compose(inner)
    assert min(widths) < n
    assert sum(w * (w + 1) // 2 for w in widths) <= 0.75 * len(widths) * n * (n + 1) // 2


# -- reversion ----------------------------------------------------------------------------


def test_revert_one_minus_exp_neg():
    f = Series.from_text("0,1,-1/2,1/6,-1/24,1/120")
    fbar = f.revert()
    assert fbar == Series.from_text("0,1,1/2,1/3,1/4,1/5")
    assert f.compose(fbar) == Series.t(6)
    assert fbar.compose(f) == Series.t(6)


def test_revert_identity():
    assert Series.t(5).revert() == Series.t(5)


def test_revert_self_inverse_series():
    f = Series([F(0)] + [F(-1)] * 7)  # t/(t-1)
    assert f.revert() == f
    assert f.compose(f) == Series.t(8)


def test_revert_rejects_non_delta():
    with pytest.raises(ClassMismatchError):
        Series.from_text("1,1").revert()
    with pytest.raises(ClassMismatchError):
        Series.from_text("0,0,1").revert()


# -- derivative and coefficient access ---------------------------------------------------------


def test_derivative_of_square():
    assert Series.from_text("0,0,1", trunc=4).derivative() == Series.from_text("0,2,0")


def test_derivative_of_constant():
    assert Series.constant(7, 5).derivative() == Series.zero(4)


def test_derivative_of_exp_is_exp():
    assert exp_series(5).derivative() == exp_series(4)


def test_derivative_needs_two_coefficients():
    with pytest.raises(OutOfRangeError):
        Series.constant(1, 1).derivative()


def test_egf_coefficient_of_exp():
    assert exp_series(5).egf_coefficient(3) == 1


def test_egf_coefficient_first_bernoulli():
    base = [F(1, math.factorial(k + 1)) for k in range(4)]
    assert Series(base).inv().egf_coefficient(1) == F(-1, 2)


def test_egf_coefficient_of_zero_series():
    assert Series.zero(4).egf_coefficient(2) == 0


def test_egf_coefficient_out_of_range():
    with pytest.raises(OutOfRangeError):
        Series.zero(4).egf_coefficient(4)


# -- text format ---------------------------------------------------------------------------------


def test_text_round_trip():
    s = Series.from_text("0,1,-1/2,1/6")
    assert s.to_text() == "0,1,-1/2,1/6"


def test_parse_rejects_nonpositive_denominator():
    with pytest.raises(InvalidParameterError):
        Series.from_text("1/-2,0")
    with pytest.raises(InvalidParameterError):
        Series.from_text("1/0")


def test_parse_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        Series.from_text("1,x,2")
    with pytest.raises(InvalidParameterError):
        Series.from_text("")


def test_truncated_never_extends():
    s = Series.from_text("1,2,3")
    assert s.truncated(2) == Series.from_text("1,2")
    with pytest.raises(OutOfRangeError):
        s.truncated(4)


# -- algebraic laws on random series --------------------------------------------------------------

COEFF_POOL = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(1, 3)]
NONZERO_POOL = [c for c in COEFF_POOL if c]
DELTA_LEAD_POOL = [F(1), F(-1), F(1, 2), F(-1, 2), F(2)]

coeff = st.sampled_from(COEFF_POOL)


def series_triple(trunc):
    one = st.lists(coeff, min_size=trunc, max_size=trunc).map(Series)
    return st.tuples(one, one, one)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(series_triple))
def test_ring_laws(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(NONZERO_POOL),
    st.lists(coeff, min_size=1, max_size=11),
)
def test_inverse_is_unit(lead, tail):
    s = Series([lead] + tail)
    assert s * s.inv() == Series.constant(1, s.trunc)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 8).flatmap(
        lambda n: st.tuples(
            st.lists(coeff, min_size=n, max_size=n),
            st.lists(coeff, min_size=n - 1, max_size=n - 1),
            st.lists(coeff, min_size=n - 1, max_size=n - 1),
        )
    ),
    st.sampled_from(DELTA_LEAD_POOL),
    st.sampled_from(DELTA_LEAD_POOL),
)
def test_compose_associativity_on_delta_inners(data, lead_b, lead_c):
    raw_a, raw_b, raw_c = data
    a = Series(raw_a)
    b = Series([F(0), lead_b] + raw_b[2:])
    c = Series([F(0), lead_c] + raw_c[2:])
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(DELTA_LEAD_POOL),
    st.lists(coeff, min_size=2, max_size=10),
)
def test_revert_round_trip(lead, tail):
    f = Series([F(0), lead] + tail)
    fbar = f.revert()
    t = Series.t(f.trunc)
    assert f.compose(fbar) == t
    assert fbar.compose(f) == t


# -- exactness against the naive oracles -------------------------------------------------------------
# compose and revert are exact, so equality with an independent algorithm on
# random inputs is a complete check of every retained coefficient


def inner_series(trunc, order, lead, tail):
    """An inner series of the given order (None: every coefficient zero)."""
    if order is None:
        return Series.zero(trunc)
    return Series([F(0)] * order + [lead] + tail, trunc=trunc)


def coeff_lists(low, high):
    """A list of drawn coefficients whose length is uniform in low..high."""
    return st.integers(low, high).flatmap(lambda n: st.lists(coeff, min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(
    coeff_lists(1, 40),
    st.integers(1, 40),
    st.sampled_from([1, 1, 2, 3, None]),
    st.sampled_from(NONZERO_POOL),
    coeff_lists(0, 40),
)
@example([F(2)], 1, 1, F(1), [])  # n = 1 and n = 2: a single block
@example([F(2), F(3)], 2, 1, F(1), [])
# constant outer series: zero, trunc 1, longer than the inner series, and
# constant only below the shared truncation
@example([F(0), F(0), F(0)], 5, 1, F(2), [F(1)])
@example([F(-3, 2)], 6, 1, F(1), [F(1)])
@example([F(5)] + [F(0)] * 7, 3, 1, F(1, 2), [F(-1)])
@example([F(7), F(0), F(0), F(1)], 3, 2, F(1), [])
@example([F(7), F(0), F(0)], 9, None, F(1), [])
# block size k = isqrt(n - 1) + 1: at n = 16 k = 4 divides n; at n = 17 and
# n = 21 k = 5, so the last block holds two and one coefficients
@example([F(1, k + 1) for k in range(16)], 16, 1, F(1), [F(-1), F(2)])
@example([F(k % 3 - 1) for k in range(17)], 17, 1, F(-1, 2), [F(1)])
@example([F(k % 3 - 1) for k in range(21)], 30, 1, F(2), [F(1, 2)])
# inners of order 2 and 3: inner^k has order 2k or 3k, past the block width
# k = 4, and at n = 12 and order 3 it vanishes below n
@example([F(1)] * 10, 10, 2, F(1), [F(1)])
@example([F(k, k + 1) for k in range(12)], 12, 3, F(-2), [F(1, 3), F(1)])
def test_compose_matches_brute_force(outer, inner_trunc, order, lead, tail):
    f = Series(outer)
    g = inner_series(inner_trunc, order, lead, tail)
    n = min(f.trunc, g.trunc)
    assert f.compose(g).coeffs == tuple(brute_compose(f.coeffs, g.coeffs, n))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DELTA_LEAD_POOL), coeff_lists(0, 38))
def test_revert_matches_lagrange_inversion(lead, tail):
    f = Series([F(0), lead] + tail)
    assert f.revert().coeffs == tuple(lagrange_revert(f.coeffs, f.trunc))


@pytest.mark.parametrize("n", [3, 5, 64, 100, 128, 129])
def test_revert_round_trip_across_newton_steps(n):
    # precision doubles 2, 4, ..., so 129 ends with a one-coefficient step
    f = Series.from_text("0,1,-1/2,1/3", trunc=n)
    fbar = f.revert()
    assert fbar.trunc == n
    assert f.compose(fbar) == Series.t(n)
    assert fbar.compose(f) == Series.t(n)


EXPONENT_POOL = [F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 2), F(1, 3), F(-2, 3)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(coeff, min_size=1, max_size=9),
    st.sampled_from(EXPONENT_POOL),
    st.sampled_from(EXPONENT_POOL),
)
def test_rat_pow_additivity(tail, p, q):
    s = Series([F(1)] + tail)
    assert s.rat_pow(p) * s.rat_pow(q) == s.rat_pow(p + q)


# inv, exp and rat_pow share one integer recurrence (Miller's); each is
# checked against a schoolbook oracle on coefficients with zeros, signs and
# denominators up to 10^9, which make the running lcm denominator grow
wide = st.one_of(coeff, st.builds(F, st.integers(-10**9, 10**9), st.integers(1, 10**9)))
wide_nonzero = wide.filter(bool)


def wide_lists(low, high):
    return st.integers(low, high).flatmap(lambda n: st.lists(wide, min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(wide_lists(0, 39), st.integers(-6, 6), st.integers(1, 6))
@example([], 3, 2)  # trunc 1
@example([F(2), F(-1, 3)], 0, 5)  # alpha = 0
@example([F(1, 7), F(0), F(-2)], -4, 1)  # integer alpha
@example([F(0)] * 9, -5, 3)  # all-zero tail
def test_rat_pow_matches_power_oracle(tail, p, q):
    # (s^(p/q))^q == s^p, both sides by schoolbook products
    s = Series([F(1)] + tail)
    n = s.trunc
    root = s.rat_pow(F(p, q))
    assert conv_power(root.coeffs, q, n) == conv_power(s.coeffs, p, n)


def zero_led(zeros, lead, tail, trunc):
    """A series that opens with ``zeros`` zeros; all zero when ``zeros >= trunc``."""
    return Series([F(0)] * zeros + [lead] + tail, trunc=trunc)


zero_led_series = st.builds(zero_led, st.integers(0, 12), wide_nonzero, wide_lists(0, 12),
                            st.integers(1, 14))


@settings(max_examples=60, deadline=None)
@given(zero_led_series, zero_led_series)
@example(zero_led(3, F(1), [], 2), zero_led(0, F(1, 3), [F(2)], 6))  # a run past trunc
@example(zero_led(4, F(1), [], 8), zero_led(4, F(-1, 2), [F(3)], 8))  # runs summing to trunc
@example(zero_led(2, F(-1), [F(1, 2)], 9), zero_led(4, F(5), [], 7))  # one coefficient left
@example(zero_led(0, F(0), [], 5), zero_led(1, F(2), [F(1)], 5))  # the zero series
def test_mul_past_zero_prefixes_matches_conv_product(a, b):
    n = min(a.trunc, b.trunc)
    assert (a * b).coeffs == tuple(conv_product(a.coeffs, b.coeffs, n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.one_of(wide_nonzero, st.just(F(0))), wide_lists(0, 12),
       st.integers(-4, 6))
@example(0, F(1), [F(1), F(0), F(0)], 2)  # (1 + t)^2 = 1 + 2t + t^2
@example(1, F(5), [F(-3)], 0)  # any power 0 is the constant 1
@example(0, F(1), [F(1, 2), F(1, 6)], -1)  # inverse of (e^t - 1)/t
@example(0, F(-2, 3), [F(1), F(0), F(4)], -3)  # c_0 other than 1
@example(2, F(1), [F(0), F(7)], 2)  # (t^2 + 7t^4)^2 at trunc 5
@example(1, F(3), [F(1), F(2)], 4)  # (3t + t^2 + 2t^3)^4 at trunc 4: all zeros
@example(4, F(0), [F(0)] * 3, 0)  # all-zero series
@example(4, F(0), [F(0)] * 3, 2)
@example(0, F(-2), [F(1), F(-1, 3), F(0), F(5, 2)], -3)  # negative constant term
@example(0, F(-2), [F(1, 2), F(3)], 3)
@example(0, F(4), [F(2), F(6)], -3)  # numerators with a common factor
@example(0, F(-3, 2), [F(1), F(5, 7)], 6)  # a negative rational constant term
@example(0, F(-3, 2), [F(1), F(5, 7)], -6)
def test_integer_power_matches_conv_power(zeros, lead, tail, m):
    # any c_0 at order 0, order >= 1 and all-zero series; a negative power
    # needs order 0
    s = Series([F(0)] * zeros + [lead] + tail)
    if m < 0 and s.order() != 0:
        with pytest.raises(ClassMismatchError, match="invertible series"):
            s ** m
    else:
        assert (s ** m).coeffs == tuple(conv_power(s.coeffs, m, s.trunc))


@settings(max_examples=40, deadline=None)
@given(wide_nonzero, wide_lists(0, 29))
@example(F(-3), [F(1), F(0), F(2)])
@example(F(5, 7), [])
@example(F(-2), [F(1), F(-1, 3), F(0), F(5, 2)])  # a negative constant term
@example(F(-4), [F(2), F(6)])  # numerators with a common factor
def test_inv_matches_conv_inverse(lead, tail):
    s = Series([lead] + tail)
    assert s.inv().coeffs == tuple(conv_inverse(s.coeffs, s.trunc))


@settings(max_examples=30, deadline=None)
@given(wide_lists(0, 19))
@example([])
@example([F(0), F(0), F(1, 2)])
def test_exp_matches_power_sum_oracle(tail):
    s = Series([F(0)] + tail)
    assert s.exp().coeffs == tuple(exp_sum(s.coeffs, s.trunc))


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=10))
def test_egf_ordinary_bijection(coeffs):
    s = Series(coeffs)
    for n in range(s.trunc):
        assert s.egf_coefficient(n) / math.factorial(n) == s.coeffs[n]


def test_first_bernoulli_numbers_match_classical_recurrence():
    # classical values from the independent recurrence oracle
    expected = classical_bernoulli(6)
    base = [F(1, math.factorial(k + 1)) for k in range(7)]
    inverted = Series(base).inv()
    assert [inverted.egf_coefficient(n) for n in range(7)] == expected


# -- one canonical form: equality, hashing and the integer kernels -------------------------------

def built_by(route, s, other):
    """A series made from the drawn ``s`` (and ``other``) along one route."""
    if route == "ctor":
        return Series(s.coeffs)
    if route == "text":
        return Series.from_text(s.to_text())
    if route == "mul":
        return s * other
    if route == "compose":
        return s.compose(Series([F(0), F(-1, 2)] + list(other.coeffs[2:])))
    if route == "revert":
        return Series([F(0), F(-2)] + list(s.coeffs[1:]), trunc=s.trunc + 1).revert()
    if route == "truncated":
        return s.truncated(max(1, s.trunc - 2))
    assert route == "rat_pow"
    return Series([F(1)] + list(s.coeffs[1:])).rat_pow(F(-2, 3))


ROUTES = ["ctor", "text", "mul", "compose", "revert", "truncated", "rat_pow"]
canonical_series = wide_lists(1, 12).map(Series)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ROUTES), canonical_series, canonical_series, canonical_series)
@example("truncated", Series([F(1), F(0), F(1, 6)]), Series([F(1)]), Series([F(1)]))
@example("mul", Series([F(-2), F(1, 2)]), Series([F(1, 2), F(2)]), Series([F(-1), F(1)]))
def test_equality_and_hash_follow_the_coefficients(route, s, other, third):
    made = built_by(route, s, other)
    for again in (Series(made.coeffs), Series.from_text(made.to_text())):
        assert made == again and hash(made) == hash(again)
    for probe in (s, other, third, Series(third.coeffs[:made.trunc])):
        assert (made == probe) == (made.coeffs == probe.coeffs)
        if made == probe:
            assert hash(made) == hash(probe)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ROUTES), canonical_series, canonical_series)
@example("rat_pow", Series([F(-2), F(1, 3)]), Series([F(1)]))
@example("truncated", Series([F(1), F(0), F(1, 6)]), Series([F(1)]))
def test_every_series_is_kept_over_its_least_positive_denominator(route, s, other):
    # numerators over one denominator d > 0 with gcd(d, *numerators) == 1:
    # exactly the least-denominator form of the coefficients
    made = built_by(route, s, other)
    for series in (made, -made, made * F(-3, 4), made + F(1, 6), made.derivative()
                   if made.trunc > 1 else made, Series([F(-2)] + list(s.coeffs[1:])) ** -1):
        nums, den = series._nums, series._den
        assert den > 0 and math.gcd(den, *nums) == 1
        assert (list(nums), den) == scaled_to_integers(series.coeffs)


def test_kernels_scale_no_rationals_once_their_operands_are_built(monkeypatch):
    n = 24
    a = Series([F((-1) ** k, k + 1) for k in range(n)])
    b = Series([F(-2)] + [F(k, 3) for k in range(1, n)])
    delta = Series([F(0), F(-2, 3)] + [F(1, k) for k in range(2, n)])
    expected = (a * b, a.compose(delta), delta.revert(), b.rat_pow(-2), a.rat_pow(F(1, 3)))

    def refuse(values):
        raise AssertionError("scaled_to_integers called inside a kernel")

    monkeypatch.setattr(umbral.series, "scaled_to_integers", refuse)
    made = (a * b, a.compose(delta), delta.revert(), b.rat_pow(-2), a.rat_pow(F(1, 3)))
    monkeypatch.undo()
    assert made == expected
