"""The identities' right sides against a plain reference sum.

``oracles.composition_sum`` lists compositions with ``itertools.product``,
takes higher-order Bernoulli/Euler numbers from integer powers of their
generating functions and adds ``Fraction`` terms one by one, so it shares
no code with the package's per-call integer tables.
"""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from umbral import remark_rhs, remark_rhs_terms, t1_rhs, t2_rhs, t3_rhs, verify
from umbral.identities import INTERPRETATIONS, T1, T2, T3, _rhs_case

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


def assert_reversed_terms(identity, n, k, m, expected, *a):
    # the package sums the prefix form of the paper's suffix-form sum, so each
    # of its terms is the reference term of the reversed composition
    terms = _rhs_case(identity, n, k, m, *a)[1]()
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
    assert t1_rhs(n, k, m) == sign * composition_sum(n, k, m, chain)
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
    assert t2_rhs(n, k, m) == base * composition_sum(n, k, m, sign)
    assert_reversed_terms(T2, n, k, m, [(parts, base * term)
                                        for parts, term in composition_terms(n, k, m, sign)])


@settings(max_examples=80, deadline=None)
@given(grid_point(7, 4), ABEL_A)
def test_t3_rhs_is_the_reference_sum(point, a):
    n, k, m = point
    chain = suffix_chain(n, lambda p, order: (-a * order) ** p)
    assert t3_rhs(n, k, m, a) == composition_sum(n, k, m, chain)
    assert_reversed_terms(T3, n, k, m, composition_terms(n, k, m, chain), a)


@settings(max_examples=60, deadline=None)
@given(grid_point(5, 3), st.sampled_from(INTERPRETATIONS))
def test_remark_terms_are_the_reference_terms(point, interpretation):
    n, k, m = point
    expected = composition_terms(n, k, 2 * m, remark_blocks(n, interpretation == "indexed"))
    assert list(remark_rhs_terms(n, k, m, interpretation)) == expected
    assert remark_rhs(n, k, m, interpretation) == sum((t for _, t in expected), F(0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["t1", "t2", "t3", "remark"]), st.integers(1, 5), st.integers(1, 3),
       ABEL_A)
def test_verify_right_sides_are_the_single_case_values(identity, n_max, m_max, a):
    report = verify(identity, n_max, m_max, a=a if identity == "t3" else None)
    for case in report.cases:
        n, k, m = case.n, case.k, case.m
        if identity == "remark":
            assert case.rhs == remark_rhs(n, k, m, case.interpretation)
        else:
            single = {"t1": t1_rhs, "t2": t2_rhs, "t3": t3_rhs}[identity]
            assert case.rhs == single(n, k, m, *((a,) if identity == "t3" else ()))
        # a passing case lists no terms; a failing case of any identity lists
        # them all, and only the literal remark fails unforced
        if case.equal:
            assert case.diagnostics is None
        else:
            assert case.diagnostics == remark_rhs_terms(n, k, m, case.interpretation)
