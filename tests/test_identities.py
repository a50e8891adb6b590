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
    stirling1_unsigned,
    verify,
)
from umbral import identities, special
from umbral.identities import INTERPRETATIONS, LHS_FAMILY, T3

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


def case(identity, n, k, m, a=None, interpretation=None):
    # the case (n, m, k) of verify's grid up to n and m
    return next(c for c in verify(identity, n, m, a=a).cases
                if (c.n, c.m, c.k, c.interpretation) == (n, m, k, interpretation))


def sides(identity, n, k, m, a=None, interpretation=None):
    c = case(identity, n, k, m, a, interpretation)
    return c.lhs, c.rhs


def power_cases(identity, n_max, m, a=None):
    # the cases of the m-th power, one per (n, k): the left side is the same
    # under both remark readings
    return [c for c in verify(identity, n_max, m, a=a).cases
            if c.m == m and c.interpretation in (None, "indexed")]


# -- worked cases -----------------------------------------------------------------


def test_t1_base_cases():
    assert sides("t1", 2, 2, 1) == (1, multinomial(1, (0, 1)) * 1)
    assert sides("t1", 2, 1, 1) == (1, 1)  # -B_1 of order 2 = 1
    for m in range(1, 5):
        assert sides("t1", 1, 1, m) == (1, 1)


def test_t2_base_cases():
    assert sides("t2", 2, 1, 1) == (-2, -2)
    assert sides("t2", 1, 1, 2) == (1, 1)
    # the diagonal chain is the only surviving term: ((-1)^4 L(4,4))^m = 1
    for m in (1, 2, 3):
        assert sides("t2", 4, 4, m) == (1, 1)


def test_t3_base_cases():
    assert sides("t3", 2, 1, 1, a=1) == (-2, -2)
    for n in (1, 2, 3):
        for m in (1, 2):
            for a in (F(1), F(-1), F(1, 2)):
                assert sides("t3", n, n, m, a=a) == (1, 1)
    assert sides("t3", 3, 1, 2, a=1) == (30, 30)


def test_remark_base_cases():
    assert sides("remark", 1, 1, 1, interpretation="indexed") == (2, 2)
    assert sides("remark", 2, 2, 1, interpretation="indexed") == (4, 4)
    assert sides("remark", 2, 1, 1, interpretation="indexed") == (0, 0)


def test_remark_literal_reading_differs():
    lhs, rhs = sides("remark", 1, 1, 1, interpretation="literal")
    assert rhs == F(1, 6)
    assert rhs != lhs


# -- naive chain sums against the matrix powers -----------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_t1_lhs_matches_naive_chain(m):
    for c in power_cases("t1", 6, m):
        assert c.lhs == naive_chain_sum(stirling1_unsigned, c.n, c.k, m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_t2_lhs_matches_naive_chain(m):
    for c in power_cases("t2", 6, m):
        assert c.lhs == naive_chain_sum(signed_lah_entry, c.n, c.k, m)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("a", [F(1), F(-1), F(1, 2)])
def test_t3_lhs_matches_naive_chain(m, a):
    entry = abel_entry(a)
    for c in power_cases("t3", 6, m, a):
        assert c.lhs == naive_chain_sum(entry, c.n, c.k, m)


@pytest.mark.parametrize("m", [1, 2])
def test_remark_lhs_matches_naive_chain(m):
    for c in power_cases("remark", 8, m):
        assert c.lhs == naive_chain_sum(ml_entry, c.n, c.k, m)


# -- m = 1 reduction to the closed forms -----------------------------------------------------


def test_t1_rhs_reduces_to_unsigned_stirling_at_m1():
    for c in verify("t1", 10, 1).cases:
        assert c.rhs == stirling1_unsigned(c.n, c.k)


def test_t2_rhs_reduces_to_signed_lah_at_m1():
    for c in verify("t2", 10, 1).cases:
        assert c.rhs == signed_lah_entry(c.n, c.k)


def test_t3_rhs_reduces_to_abel_at_m1():
    a = F(-2, 3)
    tri = abel_triangle(10, a)
    for c in verify("t3", 10, 1, a=a).cases:
        assert c.rhs == tri.entry(c.n, c.k)


# -- structural properties of the right sides ---------------------------------------------------


def test_rhs_sums_are_order_independent():
    reading = identities._readings(identities.REMARK, 2, None)["indexed"]
    terms = identities._side(6, 2, *reading)(2, 2)[1]()
    forward = sum((v for _, v in terms), F(0))
    backward = sum((v for _, v in reversed(terms)), F(0))
    shuffled = sum((v for _, v in sorted(terms, key=lambda tv: tv[0][::-1])), F(0))
    assert forward == backward == shuffled == case("remark", 6, 2, 2, interpretation="indexed").rhs


def test_t3_sides_are_polynomial_in_parameter():
    # both sides have degree n - k in the parameter; reconstruct the
    # coefficient vectors by interpolation and compare them
    reports = {x: verify("t3", 6, 2, a=x).cases for x in map(F, range(1, 7))}
    for i, c in enumerate(reports[1]):
        points = [F(j + 1) for j in range(c.n - c.k + 1)]
        lhs_poly = lagrange_interpolate([(x, reports[x][i].lhs) for x in points])
        rhs_poly = lagrange_interpolate([(x, reports[x][i].rhs) for x in points])
        assert lhs_poly == rhs_poly


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


@pytest.mark.parametrize("identity", ["t1", "t2", "t3"])
def test_verify_diagnostics_on_a_forced_mismatch(monkeypatch, identity):
    # the factor raised by 1 at a part of 1: cases whose compositions reach one
    # fail, and the recurrence and the diagnostics walk read the same fault
    real = identities._readings

    def faulty(*args):
        return {key: ([lambda p, order, f=first: f(p, order) + (p == 1), *rest], literal)
                for key, ((first, *rest), literal) in real(*args).items()}

    monkeypatch.setattr(identities, "_readings", faulty)
    report = verify(identity, 4, 2)
    failing = [case for case in report.cases if not case.equal]
    assert failing and len(failing) < len(report.cases)
    for case in report.cases:
        if case.equal:
            assert case.diagnostics is None
        else:
            assert sum((v for _, v in case.diagnostics), F(0)) == case.rhs
            assert all(len(parts) == case.m for parts, _ in case.diagnostics)
    lines = list(report.plain_lines())
    assert sum(line.startswith("diagnostics for ") for line in lines) == len(failing)
    assert not any("[None]" in line for line in lines)


def test_verify_xcheck_families():
    for name, a in (("rising-factorial", None), ("lah-signed", None),
                    ("abel", F(1)), ("mittag-leffler", None)):
        report = verify("xcheck", 6, 3, family_name=name, a=a)
        assert report.all_equal, name


def test_verify_lhs_equals_point_evaluators():
    # verify reads each left side from one power list built at n_max; here
    # the triangle of size n and its m-th power are built for every case
    runs = [(identity, name, F(-3, 2) if identity == T3 else None, None)
            for identity, name in LHS_FAMILY.items()]
    runs += [("xcheck", name, a, name) for name, a in (("rising-factorial", None),
                                                      ("lah-signed", None),
                                                      ("abel", F(2, 3)),
                                                      ("mittag-leffler", None))]
    for identity, name, a, family_name in runs:
        fam = family(name, a)
        for c in verify(identity, 5, 3, a=a, family_name=family_name).cases:
            point = fam.closed_triangle(c.n).powers(c.m)[-1]
            assert c.lhs == point.entry(c.n, c.k), (identity, name, c)


def test_identities_at_thousands_of_powers():
    # one composition of 0 into m parts: no recursion depth grows with m
    report = verify("t1", 1, 1100)
    assert len(report.cases) == 1100
    assert all(c.lhs == c.rhs == 1 for c in report.cases)


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


def counted(monkeypatch, name):
    # count the calls of one of identities' module-level bindings
    real, calls = getattr(identities, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(identities, name, spy)
    return calls


def test_passing_cases_enumerate_no_composition_of_the_case(monkeypatch):
    # the compositions of n - k are listed only for diagnostics: never on a
    # grid that passes, and once per n for the failing literal remark
    walks = counted(monkeypatch, "_chain_side")
    for identity, a in (("t1", None), ("t2", None), ("t3", F(-2, 5))):
        assert verify(identity, 8, 3, a=a).all_equal
    assert walks == []
    report = verify("remark", 6, 3)
    assert len(walks) == len({c.n for c in report.cases if not c.equal}) == 6


def test_m_max_one_reads_one_prefix_row(monkeypatch):
    # at m_max = 1 every case starts its only block at prefix 0: n factors per n
    calls = counted(monkeypatch, "bernoulli_high")
    verify("t1", 40, 1)
    assert len(calls) == 820


@pytest.mark.parametrize("identity, reader", [("t1", "bernoulli_high"), ("remark", "euler_high")])
def test_each_n_reads_every_reachable_prefix_once(monkeypatch, identity, reader):
    # at m_max > 1 a block can start at every prefix s < n and reach columns
    # c < n - s: n(n + 1)/2 factors per n, the same for every m_max
    calls = counted(monkeypatch, reader)
    for m_max in (2, 5):
        calls.clear()
        verify(identity, 6, m_max)
        assert len(calls) == sum(n * (n + 1) // 2 for n in range(1, 7)) == 56


@pytest.mark.parametrize("identity", ["t1", "t2", "t3", "remark"])
def test_m_one_cases_do_not_depend_on_m_max(identity):
    one = verify(identity, 8, 1).cases
    three = {(c.n, c.k, c.interpretation): c for c in verify(identity, 8, 3).cases if c.m == 1}
    assert len(one) == len(three)
    for case in one:
        assert case == three[case.n, case.k, case.interpretation]


def factor_products(width, readings, n_max, m_max):
    # over every n, m, k and reading: C(n - k + wm - 1, wm - 1) compositions of
    # wm factors each, w = 2 for the remark (two readings) and 1 otherwise
    return sum(readings * width * m * math.comb(n - k + width * m - 1, width * m - 1)
               for n in range(1, n_max + 1) for m in range(1, m_max + 1)
               for k in range(1, n + 1))


def test_walk_size_limit_totals():
    assert [factor_products(1, 1, 16, 4), factor_products(2, 2, 9, 3)] == [75412, 88176]
    assert identities.MAX_FACTOR_PRODUCTS >= 10 * 88176


@pytest.mark.parametrize("identity, width, readings, n_max, m_max",
                         [("t1", 1, 1, 16, 4), ("remark", 2, 2, 9, 3),
                          ("t2", 1, 1, 7, 3), ("t3", 1, 1, 6, 4),
                          ("remark", 2, 2, 5, 2), ("t1", 1, 1, 1, 40)])
def test_walk_size_limit_sums_every_factor_product(monkeypatch, identity, width, readings,
                                                   n_max, m_max):
    # the guard's closed form per n and m refuses exactly at the case-by-case total
    total = factor_products(width, readings, n_max, m_max)
    monkeypatch.setattr(identities, "MAX_FACTOR_PRODUCTS", total - 1)
    with pytest.raises(InvalidParameterError,
                       match=f"{identity} with n_max={n_max}, m_max={m_max} walks compositions"
                             f" with more than {total - 1} factor products"):
        verify(identity, n_max, m_max)
    monkeypatch.setattr(identities, "MAX_FACTOR_PRODUCTS", total)
    assert verify(identity, n_max, m_max).cases


def test_walk_size_limit_comes_before_any_series():
    clear_series_caches()
    for identity, n_max, m_max in (("remark", 30, 10), ("remark", 10**6, 10**6),
                                   ("remark", 2, 10**7), ("remark", 1, 10**6),
                                   ("t1", 30, 8), ("t2", 10**6, 1), ("t3", 10**6, 10**6)):
        with pytest.raises(InvalidParameterError, match="compositions"):
            verify(identity, n_max, m_max)
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
    with pytest.raises(InvalidParameterError, match="abel family needs a nonzero parameter"):
        verify("t3", 4, 2, a=0)
    with pytest.raises(InvalidParameterError, match="abel family needs a nonzero parameter"):
        verify("xcheck", 4, 2, a=0, family_name="abel")
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
