"""The identities' right sides, as ``verify`` reports them, against a plain
reference sum.

``oracles.composition_sum`` lists compositions with ``itertools.product``,
takes higher-order Bernoulli/Euler numbers from integer powers of their
generating functions and adds ``Fraction`` terms one by one, so it shares
no code with the package's per-call integer tables or its prefix
recurrence.  The recurrence is also checked against the package's own
enumerating walk, which lists the terms of a failing case.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from umbral import verify
from umbral.identities import INTERPRETATIONS, REMARK, T1, T2, T3, _readings, _side

from oracles import composition_sum, composition_terms, higher_order_number


def grid_point(n_max, m_max):
    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(1, m_max)))


def suffix_chain(n, factor):
    # prod_j factor(k_j, n - (k_{j+1} + ... + k_m))
    def product(parts):
        value = F(1)
        suffix = 0
        for part in reversed(parts):
            value *= factor(part, n - suffix)
            suffix += part
        return value
    return product


def remark_blocks(n, indexed):
    # prod_i E_e^{(S - n)} B_b^{(n - S)} 2^{n - S}, S the sum of the first 2i parts
    def product(parts):
        value = F(1)
        prefix = 0
        for i in range(len(parts) // 2):
            e, b = (parts[2 * i], parts[2 * i + 1]) if indexed else (2 * i + 1, 2 * i + 2)
            value *= (higher_order_number("euler", e, prefix - n)
                      * higher_order_number("bernoulli", b, n - prefix) * F(2) ** (n - prefix))
            prefix += parts[2 * i] + parts[2 * i + 1]
        return value
    return product


def rhs(identity, n, k, m, a=None, interpretation=None):
    # the right side of the case (n, m, k) of verify's grid up to n and m
    return next(c.rhs for c in verify(identity, n, m, a=a).cases
                if (c.n, c.m, c.k, c.interpretation) == (n, m, k, interpretation))


def side(identity, n, m_max, a=None, interpretation=None):
    # ``case(k, m) -> (value, terms)`` of one n, as verify builds it
    return _side(n, m_max, *_readings(identity, m_max, a)[interpretation])


def assert_reversed_terms(identity, n, k, m, expected, a=None):
    # the package sums the prefix form of the paper's suffix-form sum, so each
    # of its terms is the reference term of the reversed composition
    terms = side(identity, n, m, a)(k, m)[1]()
    assert sorted((parts[::-1], term) for parts, term in terms) == sorted(expected)


NONZERO = st.integers(-10**9, 10**9).filter(bool)
ABEL_A = st.one_of(st.builds(F, NONZERO, st.integers(1, 10**9)),
                   st.builds(F, st.integers(-10**9, -1), st.integers(1, 10**9)))


@settings(max_examples=60, deadline=None)
@given(grid_point(7, 4))
def test_t1_rhs_is_the_reference_sum(point):
    n, k, m = point
    sign = -1 if (n - k) % 2 else 1
    chain = suffix_chain(n, lambda p, order: higher_order_number("bernoulli", p, order))
    assert rhs("t1", n, k, m) == sign * composition_sum(n, k, m, chain)
    assert_reversed_terms(T1, n, k, m, [(parts, sign * term)
                                        for parts, term in composition_terms(n, k, m, chain)])


@settings(max_examples=60, deadline=None)
@given(grid_point(7, 4))
def test_t2_rhs_is_the_reference_sum(point):
    n, k, m = point

    def sign(parts):
        # (-1)^{k + sum_j (n - (k_{j+1} + ... + k_m))}, j = 1 .. m - 1
        return F(-1) ** (k + sum(n - sum(parts[j:]) for j in range(1, m)))

    base = F(1)
    for j in range(k + 1, n + 1):
        base *= j
    assert rhs("t2", n, k, m) == base * composition_sum(n, k, m, sign)
    assert_reversed_terms(T2, n, k, m, [(parts, base * term)
                                        for parts, term in composition_terms(n, k, m, sign)])


@settings(max_examples=80, deadline=None)
@given(grid_point(7, 4), ABEL_A)
def test_t3_rhs_is_the_reference_sum(point, a):
    n, k, m = point
    chain = suffix_chain(n, lambda p, order: (-a * order) ** p)
    assert rhs("t3", n, k, m, a) == composition_sum(n, k, m, chain)
    assert_reversed_terms(T3, n, k, m, composition_terms(n, k, m, chain), a)


@settings(max_examples=60, deadline=None)
@given(grid_point(5, 3), st.sampled_from(INTERPRETATIONS))
def test_remark_terms_are_the_reference_terms(point, interpretation):
    n, k, m = point
    expected = composition_terms(n, k, 2 * m, remark_blocks(n, interpretation == "indexed"))
    assert list(side(REMARK, n, m, interpretation=interpretation)(k, m)[1]()) == expected
    total = sum((t for _, t in expected), F(0))
    assert rhs("remark", n, k, m, interpretation=interpretation) == total


@settings(max_examples=80, deadline=None)
@given(grid_point(8, 4), st.sampled_from([(T1, None), (T2, None), (T3, None),
                                          (REMARK, "literal"), (REMARK, "indexed")]), ABEL_A)
def test_recurrence_value_is_the_sum_of_its_terms(point, reading, a):
    # the prefix recurrence against the enumerating walk over the same factors
    n, k, m = point
    identity, interpretation = reading
    value, terms = side(identity, n, m, a if identity == T3 else None, interpretation)(k, m)
    listed = terms()
    assert len(listed) == math.comb(n - k + len(listed[0][0]) - 1, n - k)
    assert value == sum((term for _, term in listed), F(0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["t1", "t2", "t3", "remark"]), st.integers(1, 5), st.integers(1, 3),
       ABEL_A)
def test_verify_right_sides_are_the_single_case_values(identity, n_max, m_max, a):
    # every case of a grid, m < m_max included, against a side built for its
    # own n and m alone
    a = a if identity == "t3" else None
    report = verify(identity, n_max, m_max, a=a)
    for case in report.cases:
        n, k, m = case.n, case.k, case.m
        value, terms = side(identity.upper(), n, m, a, case.interpretation)(k, m)
        assert case.rhs == value
        # a passing case lists no terms; a failing case of any identity lists
        # them all, and only the literal remark fails unforced
        if case.equal:
            assert case.diagnostics is None
        else:
            assert case.diagnostics == terms()
