"""Identity evaluators: worked cases, the naive-chain cross-check of every
left side, m = 1 reductions, and the verification driver."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from umbral import (
    InvalidParameterError,
    abel_triangle,
    family,
    lah,
    mittag_leffler_triangle,
    multinomial,
    remark_lhs,
    remark_rhs,
    remark_rhs_terms,
    stirling1_unsigned,
    t1_lhs,
    t1_rhs,
    t2_lhs,
    t2_rhs,
    t3_lhs,
    t3_rhs,
    verify,
)
from umbral import identities, special
from umbral.identities import INTERPRETATIONS

from oracles import lagrange_interpolate, naive_chain_sum


def signed_lah_entry(n, k):
    return -lah(n, k) if k % 2 else lah(n, k)


def abel_entry(a):
    tri = {}

    def entry(n, k):
        if n not in tri:
            tri[n] = abel_triangle(n, a)
        return tri[n].entry(n, k)

    return entry


def ml_entry(n, k):
    return mittag_leffler_triangle(n).entry(n, k)


# -- worked cases -----------------------------------------------------------------


def test_t1_base_cases():
    assert t1_lhs(2, 2, 1) == 1
    assert t1_rhs(2, 2, 1) == multinomial(1, (0, 1)) * 1
    assert t1_lhs(2, 1, 1) == 1
    assert t1_rhs(2, 1, 1) == 1  # -B_1 of order 2 = 1
    for m in range(1, 5):
        assert t1_lhs(1, 1, m) == 1
        assert t1_rhs(1, 1, m) == 1


def test_t2_base_cases():
    assert t2_lhs(2, 1, 1) == -2
    assert t2_rhs(2, 1, 1) == -2
    assert t2_lhs(1, 1, 2) == 1
    assert t2_rhs(1, 1, 2) == 1
    # the diagonal chain is the only surviving term: ((-1)^4 L(4,4))^m = 1
    for m in (1, 2, 3):
        assert t2_lhs(4, 4, m) == t2_rhs(4, 4, m) == 1


def test_t3_base_cases():
    assert t3_lhs(2, 1, 1, 1) == -2
    assert t3_rhs(2, 1, 1, 1) == -2
    for n in (1, 2, 3):
        for m in (1, 2):
            for a in (F(1), F(-1), F(1, 2)):
                assert t3_lhs(n, n, m, a) == 1
                assert t3_rhs(n, n, m, a) == 1
    assert t3_lhs(3, 1, 2, 1) == t3_rhs(3, 1, 2, 1) == 30


def test_remark_base_cases():
    assert remark_lhs(1, 1, 1) == 2
    assert remark_rhs(1, 1, 1, "indexed") == 2
    assert remark_lhs(2, 2, 1) == 4
    assert remark_rhs(2, 2, 1, "indexed") == 4
    assert remark_lhs(2, 1, 1) == 0
    assert remark_rhs(2, 1, 1, "indexed") == 0


def test_remark_literal_reading_differs():
    assert remark_rhs(1, 1, 1, "literal") == F(1, 6)
    assert remark_rhs(1, 1, 1, "literal") != remark_lhs(1, 1, 1)


# -- naive chain sums against the matrix powers -----------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_t1_lhs_matches_naive_chain(m):
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert t1_lhs(n, k, m) == naive_chain_sum(stirling1_unsigned, n, k, m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_t2_lhs_matches_naive_chain(m):
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert t2_lhs(n, k, m) == naive_chain_sum(signed_lah_entry, n, k, m)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("a", [F(1), F(-1), F(1, 2)])
def test_t3_lhs_matches_naive_chain(m, a):
    entry = abel_entry(a)
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert t3_lhs(n, k, m, a) == naive_chain_sum(entry, n, k, m)


@pytest.mark.parametrize("m", [1, 2])
def test_remark_lhs_matches_naive_chain(m):
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert remark_lhs(n, k, m) == naive_chain_sum(ml_entry, n, k, m)


# -- m = 1 reduction to the closed forms -----------------------------------------------------


def test_t1_rhs_reduces_to_unsigned_stirling_at_m1():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert t1_rhs(n, k, 1) == stirling1_unsigned(n, k)


def test_t2_rhs_reduces_to_signed_lah_at_m1():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert t2_rhs(n, k, 1) == signed_lah_entry(n, k)


def test_t3_rhs_reduces_to_abel_at_m1():
    a = F(-2, 3)
    tri = abel_triangle(10, a)
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert t3_rhs(n, k, 1, a) == tri.entry(n, k)


# -- structural properties of the right sides ---------------------------------------------------


def test_rhs_sums_are_order_independent():
    terms = remark_rhs_terms(6, 2, 2, "indexed")
    forward = sum((v for _, v in terms), F(0))
    backward = sum((v for _, v in reversed(terms)), F(0))
    shuffled = sum((v for _, v in sorted(terms, key=lambda tv: tv[0][::-1])), F(0))
    assert forward == backward == shuffled == remark_rhs(6, 2, 2, "indexed")


def test_t3_sides_are_polynomial_in_parameter():
    # both sides have degree n - k in the parameter; reconstruct the
    # coefficient vectors by interpolation and compare them
    for n in range(1, 7):
        for m in (1, 2):
            for k in range(1, n + 1):
                points = [F(j + 1) for j in range(n - k + 1)]
                lhs_poly = lagrange_interpolate([(x, t3_lhs(n, k, m, x)) for x in points])
                rhs_poly = lagrange_interpolate([(x, t3_rhs(n, k, m, x)) for x in points])
                assert lhs_poly == rhs_poly


# -- argument validation -------------------------------------------------------------------------


def test_grid_point_validation():
    with pytest.raises(InvalidParameterError):
        t1_lhs(0, 1, 1)
    with pytest.raises(InvalidParameterError):
        t1_lhs(3, 4, 1)
    with pytest.raises(InvalidParameterError):
        t1_lhs(3, 0, 1)
    with pytest.raises(InvalidParameterError):
        t2_rhs(3, 1, 0)
    with pytest.raises(InvalidParameterError):
        t3_lhs(3, 1, 1, 0)
    with pytest.raises(InvalidParameterError):
        remark_rhs(2, 1, 1, "mystery")


def test_t3_rhs_rejects_a_zero_parameter_as_verify_does():
    with pytest.raises(InvalidParameterError) as single:
        t3_rhs(3, 1, 2, 0)
    with pytest.raises(InvalidParameterError) as grid:
        verify("t3", 3, 2, a=0)
    assert str(single.value) == str(grid.value) == "abel family needs a nonzero parameter"


# -- verification driver -----------------------------------------------------------------------------


def test_verify_t1_holds():
    report = verify("t1", 6, 3)
    assert report.all_equal
    assert len(report.cases) == sum(n for n in range(1, 7)) * 3


def test_verify_t3_with_rational_parameter():
    report = verify("t3", 6, 3, a=F(1, 2))
    assert report.all_equal
    assert report.params["a"] == "1/2"


def test_verify_case_order_is_n_m_k():
    report = verify("t2", 4, 2)
    keys = [(c.n, c.m, c.k) for c in report.cases]
    assert keys == sorted(keys)


def test_verify_remark_reports_both_interpretations():
    report = verify("remark", 4, 2)
    seen = {c.interpretation for c in report.cases}
    assert seen == set(INTERPRETATIONS)
    indexed = [c for c in report.cases if c.interpretation == "indexed"]
    literal = [c for c in report.cases if c.interpretation == "literal"]
    assert all(c.equal for c in indexed)
    assert not all(c.equal for c in literal)
    assert not report.all_equal


def test_verify_remark_diagnostics_on_mismatch():
    report = verify("remark", 3, 1)
    for case in report.cases:
        if case.equal:
            assert case.diagnostics is None
        else:
            assert case.diagnostics
            total = sum((v for _, v in case.diagnostics), F(0))
            assert total == case.rhs
            assert all(len(parts) == 2 * case.m for parts, _ in case.diagnostics)


def test_verify_xcheck_families():
    for name, a in (("rising-factorial", None), ("lah-signed", None),
                    ("abel", F(1)), ("mittag-leffler", None)):
        report = verify("xcheck", 6, 3, family_name=name, a=a)
        assert report.all_equal, name


def test_verify_lhs_equals_point_evaluators():
    # verify reads each left side from one power list built at n_max; the
    # point evaluators build the triangle of size n for every case
    for identity, point, extra in (("t1", t1_lhs, ()), ("t2", t2_lhs, ()),
                                   ("t3", t3_lhs, (F(-3, 2),)), ("remark", remark_lhs, ())):
        for case in verify(identity, 5, 3, a=extra[0] if extra else None).cases:
            assert case.lhs == point(case.n, case.k, case.m, *extra), (identity, case)
    for name, a in (("rising-factorial", None), ("lah-signed", None),
                    ("abel", F(2, 3)), ("mittag-leffler", None)):
        fam = family(name, a)
        for case in verify("xcheck", 5, 3, family_name=name, a=a).cases:
            point = fam.closed_triangle(case.n).powers(case.m)[-1]
            assert case.lhs == point.entry(case.n, case.k), (name, case)


def test_identities_at_thousands_of_powers():
    # one composition of 0 into m parts: no recursion depth grows with m
    assert t1_rhs(1, 1, 1100) == t1_lhs(1, 1, 1100) == 1


def clear_series_caches():
    for cached in (special._bernoulli_series, special._euler_series):
        cached.cache_clear()


def test_literal_remark_builds_one_series_per_order():
    # indices 1 .. 2m of orders 1 and -1: one series each at the padded
    # truncation of 2 m_max, and one each at trunc 8 for the indexed reading
    clear_series_caches()
    verify("remark", 1, 40)
    assert special._bernoulli_series.cache_info().misses <= 2
    assert special._euler_series.cache_info().misses <= 2


def test_remark_size_limit_counts_the_largest_case(monkeypatch):
    # n_max = 9, m_max = 3: compositions of 8 into 6 parts, C(13, 5) = 1287
    assert identities.REMARK_MAX_COMPOSITIONS >= 500 * 1287
    monkeypatch.setattr(identities, "REMARK_MAX_COMPOSITIONS", 1286)
    with pytest.raises(InvalidParameterError, match="1286 compositions"):
        verify("remark", 9, 3)
    monkeypatch.setattr(identities, "REMARK_MAX_COMPOSITIONS", 1287)
    assert len(verify("remark", 9, 3).cases) == 2 * 3 * 45


def test_remark_size_limit_comes_before_any_series():
    clear_series_caches()
    for n_max, m_max in ((30, 10), (10**6, 10**6), (2, 10**7)):
        with pytest.raises(InvalidParameterError, match="compositions"):
            verify("remark", n_max, m_max)
    assert special._bernoulli_series.cache_info().misses == 0
    assert special._euler_series.cache_info().misses == 0


def test_verify_validation():
    with pytest.raises(InvalidParameterError):
        verify("t9", 4, 2)
    with pytest.raises(InvalidParameterError):
        verify("t1", 0, 2)
    with pytest.raises(InvalidParameterError):
        verify("t1", 4, 0)
    with pytest.raises(InvalidParameterError):
        verify("xcheck", 4, 2)
    with pytest.raises(InvalidParameterError):
        verify("t3", 4, 2, a=0)
    with pytest.raises(InvalidParameterError, match="takes no parameter a"):
        verify("t1", 4, 2, a=2)
    with pytest.raises(InvalidParameterError, match="takes no family"):
        verify("t2", 4, 2, family_name="abel")


def test_report_serialisation_shapes():
    report = verify("t1", 3, 2)
    obj = report.to_json_obj()
    assert obj["identity"] == "t1"
    assert obj["all_equal"] is True
    assert obj["cases"][0] == {"n": 1, "m": 1, "k": 1, "lhs": "1", "rhs": "1", "equal": True}
    lines = list(report.csv_lines())
    assert lines[0] == "identity,n,m,k,lhs,rhs,equal"
    assert lines[1] == "t1,1,1,1,1,1,true"
    plain = list(report.plain_lines())
    assert plain[0] == "identity: t1"
    assert plain[-1] == "all_equal: true"


def test_remark_csv_rows_carry_interpretation():
    report = verify("remark", 2, 1)
    rows = list(report.csv_lines())[1:]
    assert any(row.startswith("remark:literal,") for row in rows)
    assert any(row.startswith("remark:indexed,") for row in rows)
