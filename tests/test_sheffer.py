"""The umbral engine: pairing, operator action, triangle generation,
transfer, and the two routes to powers under umbral composition."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from umbral import (
    ClassMismatchError,
    CoeffTriangle,
    InvalidInputError,
    InvalidParameterError,
    OutOfRangeError,
    Series,
    ShefferPair,
    abel_triangle,
    apply_operator,
    family,
    lah_triangle,
    pair_power,
    pairing,
    sheffer_triangle,
    stirling1_triangle,
    transfer,
    umbral_power_gf,
    verify_orthogonality,
)
from umbral.sheffer import FAMILIES

from oracles import brute_compose, conv_inverse, conv_product, naive_matmul


def exp_series(trunc):
    return Series([F(1, math.factorial(k)) for k in range(trunc)])


def identity_pair(trunc):
    """The pair (1, t), whose sequence is x^n."""
    return ShefferPair(Series.constant(1, trunc), Series.t(trunc))


def monomial(n):
    return (0,) * n + (1,)


# -- pair construction -----------------------------------------------------------


def test_pair_validates_orders():
    with pytest.raises(ClassMismatchError):
        ShefferPair(Series.t(5), Series.t(5))
    with pytest.raises(ClassMismatchError):
        ShefferPair(Series.constant(1, 5), Series.from_text("1,1", trunc=5))


def test_pair_truncation_is_shared_minimum():
    pair = ShefferPair(Series.from_text("1,1", trunc=9), Series.t(5))
    assert pair.trunc == 5
    assert pair.describe() == "g=1,1,0,0,0; f=0,1,0,0,0; N=5"


# -- pairing ------------------------------------------------------------------------


def test_pairing_monomials_gives_factorial_delta():
    for k in range(5):
        functional = Series([0] * k + [1], trunc=6)
        for n in range(5):
            expected = math.factorial(n) if n == k else 0
            assert pairing(functional, monomial(n)) == expected


def test_pairing_exp_reads_egf_coefficient():
    assert pairing(exp_series(6), monomial(2)) == 1


def test_pairing_bernoulli_functional():
    base = [F(1, math.factorial(k + 1)) for k in range(6)]
    functional = Series(base).inv()
    assert conv_inverse(base, 2)[1] == F(-1, 2)
    assert pairing(functional, monomial(1)) == F(-1, 2)


def test_pairing_degree_bound():
    with pytest.raises(OutOfRangeError):
        pairing(Series.t(3), monomial(3))


# -- operator action ------------------------------------------------------------------


def test_operator_t_differentiates():
    assert apply_operator(Series.t(5), monomial(3)) == (0, 0, 3, 0)


def test_operator_one_is_identity():
    p = (1, F(1, 2), 0, 5)
    assert apply_operator(Series.constant(1, 6), p) == p


def test_operator_degree_bound():
    # (1 + d/dx) x^3 = x^3 + 3x^2 needs c_0..c_3; "1,1" leaves c_2 and c_3 unknown
    assert apply_operator(Series.from_text("1,1", trunc=4), monomial(3)) == (0, 0, 3, 1)
    with pytest.raises(OutOfRangeError):
        apply_operator(Series.from_text("1,1"), monomial(3))
    # trailing zeros are not degree: (1 + d/dx)(1 + 2x) = 3 + 2x
    assert apply_operator(Series.from_text("1,1"), (1, 2, 0, 0)) == (3, 2, 0, 0)


def test_operator_squared_bernoulli_shift():
    # (t/(1-e^{-t}))^2 sends x to x + 1
    base = Series([F(0)] + [F(-((-1) ** k), math.factorial(k)) for k in range(1, 6)])
    op = Series(base.coeffs[1:]) ** -2
    assert apply_operator(op, monomial(1)) == (1, 1)


# -- triangle generation -----------------------------------------------------------------


def test_identity_pair_triangle():
    assert sheffer_triangle(identity_pair(6), 5) == CoeffTriangle.identity(5)


def test_rising_factorial_triangle_row3():
    tri = sheffer_triangle(family("rising-factorial").pair(5), 3)
    assert tri.rows[3] == (0, 2, 3, 1)
    assert tri == stirling1_triangle(3)


def test_lah_triangle_row2_signs():
    tri = sheffer_triangle(family("lah").pair(4), 2)
    assert tri.rows[2] == (0, -2, 1)


def test_triangle_needs_truncation_headroom():
    with pytest.raises(OutOfRangeError):
        sheffer_triangle(identity_pair(4), 4)


def test_associated_sequence_structure():
    # with g = 1: no constant terms, and the diagonal is c_1(fbar)^n
    f = Series.from_text("0,2,1,1,-1/2", trunc=9)
    pair = ShefferPair(Series.constant(1, 9), f)
    tri = sheffer_triangle(pair, 7)
    lead = f.revert().coeffs[1]
    for n in range(1, 8):
        assert tri.entry(n, 0) == 0
        assert tri.entry(n, n) == lead ** n


# -- orthogonality --------------------------------------------------------------------------


def test_orthogonality_identity_pair():
    report = verify_orthogonality(identity_pair(6), CoeffTriangle.identity(5), 5)
    assert report.all_ok


def test_orthogonality_rising_factorial():
    pair = family("rising-factorial").pair(8)
    report = verify_orthogonality(pair, stirling1_triangle(6), 6)
    assert report.all_ok


def test_orthogonality_flags_corrupted_entry():
    rows = [list(r) for r in CoeffTriangle.identity(4).rows]
    rows[2][1] += 1
    report = verify_orthogonality(identity_pair(6), CoeffTriangle(rows), 4)
    assert not report.all_ok
    failing = {(c.n, c.k) for c in report.cases if not c.ok}
    assert failing == {(2, 1)}


# -- transfer ----------------------------------------------------------------------------------


def test_transfer_identity_to_rising_factorial():
    out = transfer(CoeffTriangle.identity(3), Series.t(6),
                   family("rising-factorial").delta(6), 3)
    assert out == stirling1_triangle(3)


def test_transfer_is_identity_when_series_match():
    tri = stirling1_triangle(4)
    f = family("rising-factorial").delta(7)
    assert transfer(tri, f, f, 4) == tri


def test_transfer_identity_to_abel():
    out = transfer(CoeffTriangle.identity(2), Series.t(5),
                   family("abel", 1).delta(5), 2)
    assert out.rows[2] == (0, -2, 1)


def test_transfer_rejects_constant_terms():
    rows = [[1], [1, 1]]
    with pytest.raises(InvalidInputError):
        transfer(CoeffTriangle(rows), Series.t(5), Series.t(5), 1)


# -- pair powers -----------------------------------------------------------------------------------


def test_pair_power_of_associated_family():
    pair = family("lah").pair(7)
    powered = pair_power(pair, 3)
    assert powered.g == Series.constant(1, 7)
    f_cubed = pair.f.coeffs
    for _ in range(2):
        f_cubed = brute_compose(pair.f.coeffs, f_cubed, 7)
    assert powered.f == Series(f_cubed)


def test_pair_power_of_lah_is_an_involution():
    # t/(t-1) is its own compositional inverse
    assert pair_power(family("lah").pair(8), 2).f == Series.t(8)


def test_pair_power_one_is_same_pair():
    pair = family("abel", 1).pair(6)
    assert pair_power(pair, 1) == pair


def test_pair_power_general_pair():
    g = Series.from_text("1,1", trunc=8)                  # 1 + t
    f = Series([F(0)] + [F(1)] * 7)                        # t/(1-t)
    powered = pair_power(ShefferPair(g, f), 2)
    # f o f = t/(1-2t), g-part = (1+t)(1 + t/(1-t)) = (1+t)/(1-t)
    assert powered.f == Series([F(0)] + [F(2) ** (k - 1) for k in range(1, 8)])
    assert powered.g == Series([F(1)] + [F(2)] * 7)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pair_power_general_pair_matches_oracle_chain(m):
    # g != 1, so the g-product and the 1/g(fbar) factor both take part
    n = 9
    g = [F(1), F(1, 2), F(-2), F(0), F(3, 5)] + [F(0)] * (n - 5)
    f = [F(0), F(2), F(-1), F(1, 3), F(0), F(-1, 7)] + [F(0)] * (n - 6)
    g_total, f_i = g, f
    for _ in range(m - 1):
        g_total = conv_product(g_total, brute_compose(g, f_i, n), n)
        f_i = brute_compose(f, f_i, n)
    pair = ShefferPair(Series(g), Series(f))
    powered = pair_power(pair, m)
    assert powered.g.coeffs == tuple(g_total)
    assert powered.f.coeffs == tuple(f_i)
    # and the gf side of the power agrees with the matrix side
    assert umbral_power_gf(pair, m, n - 1) == sheffer_triangle(pair, n - 1).powers(m)[-1]


def test_pair_power_rejects_nonpositive_m():
    with pytest.raises(InvalidParameterError):
        pair_power(identity_pair(5), 0)


# -- umbral composition and matrix powers ------------------------------------------------------------


def test_umbral_compose_identity_laws():
    q = stirling1_triangle(5)
    ident = CoeffTriangle.identity(5)
    assert q.matmul(ident) == q
    assert ident.matmul(q) == q


def test_signed_lah_is_an_involution():
    signed = lah_triangle(5, signed=True)
    assert signed.matmul(signed) == CoeffTriangle.identity(5)
    assert signed.powers(2)[-1] == CoeffTriangle.identity(5)


def test_umbral_power_matrix_basics():
    tri = stirling1_triangle(4)
    assert tri.powers(1)[-1] == tri
    assert CoeffTriangle.identity(4).powers(3)[-1] == CoeffTriangle.identity(4)
    with pytest.raises(InvalidParameterError):
        tri.powers(0)


def test_power_leading_block_is_power_of_leading_block():
    # verify reads every n <= n_max from one power list built at n_max
    for row in FAMILIES:
        params = (F(2, 3),) if row.takes_a else ()
        big = row.closed_triangle(7, *params).powers(3)
        for n in range(8):
            small = row.closed_triangle(n, *params).powers(3)
            for m in (1, 2, 3):
                assert big[m - 1].rows[:n + 1] == small[m - 1].rows, (row.table, n, m)


# zeros, negatives, small and large mixed denominators in one triangle
entry = st.one_of(st.just(F(0)), st.fractions(-20, 20, max_denominator=12),
                  st.fractions(max_denominator=10 ** 9))


def triangle_rows(n_max):
    return st.tuples(*(st.lists(entry, min_size=n + 1, max_size=n + 1)
                       for n in range(n_max + 1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(triangle_rows(n), triangle_rows(n))))
def test_matmul_matches_naive_product(factors):
    a, b = factors
    product = CoeffTriangle(a).matmul(CoeffTriangle(b))
    assert [list(row) for row in product.rows] == naive_matmul(a, b)


def test_abel_powers_match_naive_chain():
    tri = abel_triangle(30, F(2, 3))
    rows = [list(row) for row in tri.rows]
    chain = rows
    for power in tri.powers(4)[1:]:
        chain = naive_matmul(chain, rows)
        for n in range(31):
            for k in range(n + 1):
                assert power.entry(n, k) == chain[n][k], (n, k)


def test_umbral_compose_requires_matching_sizes():
    with pytest.raises(InvalidInputError):
        CoeffTriangle.identity(3).matmul(CoeffTriangle.identity(4))


# -- cross-path agreement -------------------------------------------------------------------------------


def test_power_paths_agree_rising_factorial():
    fam = family("rising-factorial")
    tri = fam.closed_triangle(4)
    assert umbral_power_gf(fam.pair(5), 1, 4) == tri
    assert umbral_power_gf(fam.pair(5), 2, 4) == tri.powers(2)[-1]


def test_power_paths_agree_abel():
    fam = family("abel", 1)
    tri = fam.closed_triangle(4)
    assert umbral_power_gf(fam.pair(5), 2, 4) == tri.powers(2)[-1]


# -- composition and inverse laws on random pairs ----------------------------------------------------------

COEFF_POOL = [F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 2)]
LEAD_POOL = [F(1), F(-1), F(2), F(1, 2)]


def random_pair(rng, trunc):
    g = Series([rng.choice(LEAD_POOL)] + [rng.choice(COEFF_POOL) for _ in range(trunc - 1)])
    f = Series([F(0), rng.choice(LEAD_POOL)] + [rng.choice(COEFF_POOL) for _ in range(trunc - 2)])
    return ShefferPair(g, f)


def test_composition_law_on_random_pairs():
    # sequence of (h, l) composed with sequence of (g, f) has pair
    # (g * h(f), l(f)) and triangle R @ S
    rng = random.Random(2024)
    n_max = 8
    for _ in range(12):
        s_pair = random_pair(rng, n_max + 2)
        r_pair = random_pair(rng, n_max + 2)
        g, f = s_pair.g, s_pair.f
        h, l = r_pair.g, r_pair.f
        composed = ShefferPair(g * h.compose(f), l.compose(f))
        lhs = sheffer_triangle(composed, n_max)
        rhs = sheffer_triangle(r_pair, n_max).matmul(sheffer_triangle(s_pair, n_max))
        assert lhs == rhs


def test_inverse_law_on_random_pairs():
    # the sequence of (g(fbar)^{-1}, fbar) inverts the triangle
    rng = random.Random(77)
    n_max = 8
    ident = CoeffTriangle.identity(n_max)
    for _ in range(12):
        pair = random_pair(rng, n_max + 2)
        fbar = pair.f.revert()
        inverse_pair = ShefferPair(pair.g.compose(fbar).inv(), fbar)
        t = sheffer_triangle(pair, n_max)
        t_inv = sheffer_triangle(inverse_pair, n_max)
        assert t_inv.matmul(t) == ident
        assert t.matmul(t_inv) == ident


# -- family registry ------------------------------------------------------------------------------------------


def test_family_aliases_and_validation():
    assert family("lah-signed").name == "lah"
    assert family("abel", F(1, 2)).a == F(1, 2)
    with pytest.raises(InvalidParameterError):
        family("abel", 0)
    with pytest.raises(InvalidParameterError):
        family("abel")
    with pytest.raises(InvalidParameterError):
        family("nope")
    with pytest.raises(InvalidParameterError):
        family("lah", a=2)


def test_family_deltas_have_expected_leading_coefficients():
    assert family("rising-factorial").delta(4) == Series.from_text("0,1,-1/2,1/6")
    assert family("lah").delta(4) == Series.from_text("0,-1,-1,-1")
    assert family("abel", 2).delta(4) == Series.from_text("0,1,2,2")
    assert family("mittag-leffler").delta(4) == Series.from_text("0,1/2,0,-1/24")
