"""Named number and polynomial families against their defining products,
recurrences and convolution laws."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from umbral import special
from umbral import (
    CoeffTriangle,
    InvalidParameterError,
    abel_triangle,
    bernoulli_high,
    bernoulli_series,
    compositions,
    euler_high,
    euler_series,
    lah,
    lah_triangle,
    mittag_leffler_triangle,
    multinomial,
    stirling1_signed,
    stirling1_triangle,
    stirling1_unsigned,
)

from oracles import (classical_bernoulli, conv_inverse, conv_power, higher_order_number,
                     mittag_leffler_row, poly_product)


# -- Stirling numbers of the first kind ----------------------------------------


def test_signed_values_from_direct_expansion():
    # x(x-1) = x^2 - x
    assert poly_product([0, 1], [-1, 1]) == [0, -1, 1]
    assert stirling1_signed(2, 1) == -1
    assert stirling1_signed(2, 2) == 1


def test_unsigned_values_from_direct_expansion():
    # x(x+1)(x+2) = x^3 + 3x^2 + 2x
    assert poly_product(poly_product([0, 1], [1, 1]), [2, 1]) == [0, 2, 3, 1]
    assert stirling1_unsigned(3, 1) == 2
    assert stirling1_unsigned(3, 2) == 3
    assert stirling1_unsigned(3, 3) == 1


def test_diagonal_is_one():
    for n in range(7):
        assert stirling1_signed(n, n) == 1
        assert stirling1_unsigned(n, n) == 1


def test_large_row_is_built_without_recursion():
    # s(n, 1) = (-1)^(n-1) (n-1)!, far past the interpreter's recursion limit
    n = 1200
    assert stirling1_signed(n, 1) == (-1) ** (n - 1) * math.factorial(n - 1)


def test_out_of_triangle_indices_are_zero():
    assert stirling1_signed(3, 5) == 0
    assert stirling1_signed(-1, 0) == 0
    assert stirling1_unsigned(2, -1) == 0


def linear_factor_product(roots):
    """Coefficients of prod (x - r) over ``roots``, lowest degree first."""
    out = [F(1)]
    for r in roots:
        out = poly_product(out, [-r, 1])
    return out


@pytest.mark.parametrize("n", range(16))
def test_signed_triangle_matches_falling_factorial(n):
    # x(x-1)...(x-n+1)
    expected = linear_factor_product(range(n))
    assert [stirling1_signed(n, k) for k in range(n + 1)] == expected


@pytest.mark.parametrize("n", range(16))
def test_unsigned_triangle_matches_rising_factorial(n):
    # x(x+1)...(x+n-1)
    expected = linear_factor_product(range(0, -n, -1))
    assert [stirling1_unsigned(n, k) for k in range(n + 1)] == expected


def test_stirling_triangle_rows():
    tri = stirling1_triangle(3)
    assert tri.rows[3] == (0, 2, 3, 1)
    signed = stirling1_triangle(3, signed=True)
    assert signed.rows[3] == (0, 2, -3, 1)


def test_stirling_rows_are_not_retained():
    # umbral is imported before tracing starts, so only what the calls keep counts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        triangle = stirling1_triangle(400, signed=True)
        del triangle
        assert stirling1_signed(1200, 1) == -math.factorial(1199)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_series_caches_stay_bounded():
    # a session sweeping 1000 distinct orders must not keep them all
    for cached, public in ((special._bernoulli_series, bernoulli_series),
                           (special._euler_series, euler_series)):
        bound = cached.cache_info().maxsize
        assert bound is not None
        for i in range(1000):
            public(F(i, 7), 4)
        assert cached.cache_info().currsize <= bound


# -- factorial polynomials ---------------------------------------------------------


def test_factorials_at_zero_and_small_orders():
    # the empty product is 1; x(x-1) and x(x+1)(x+2) as Stirling rows
    assert linear_factor_product([]) == [1]
    assert [stirling1_signed(0, 0)] == [stirling1_unsigned(0, 0)] == [1]
    assert [stirling1_signed(2, k) for k in range(3)] == [0, -1, 1]
    assert [stirling1_unsigned(3, k) for k in range(4)] == [0, 2, 3, 1]


# -- Lah numbers ---------------------------------------------------------------------


def test_lah_edge_rows():
    assert lah(0, 0) == 1
    for n in range(1, 6):
        assert lah(n, 0) == 0


def test_lah_closed_form_values():
    # C(2, 0) * 3!/1! = 6, C(2, 1) * 3!/2! = 6, C(2, 2) * 3!/3! = 1
    assert lah(3, 1) == 6
    assert lah(3, 2) == 6
    assert lah(3, 3) == 1


def test_lah_above_diagonal():
    assert lah(2, 3) == 0


def test_lah_triangles():
    unsigned = lah_triangle(3)
    signed = lah_triangle(3, signed=True)
    assert unsigned.rows[3] == (0, 6, 6, 1)
    assert signed.rows[3] == (0, -6, 6, -1)
    assert signed.rows[0] == (1,)


# -- higher-order Bernoulli numbers -----------------------------------------------------


def test_order_zero_is_the_unit_series():
    assert bernoulli_high(0, 0) == 1
    for n in range(1, 6):
        assert bernoulli_high(n, 0) == 0


def test_order_one_matches_classical_recurrence():
    expected = classical_bernoulli(8)
    for n in range(9):
        assert bernoulli_high(n, 1) == expected[n]


def test_second_order_value_from_convolution():
    # B_1 of order 2 via sum_j C(1,j) B_j B_{1-j} with order-1 values
    b = classical_bernoulli(1)
    expected = math.comb(1, 0) * b[0] * b[1] + math.comb(1, 1) * b[1] * b[0]
    assert expected == -1
    assert bernoulli_high(1, 2) == -1


def test_negative_order_one_gives_harmonic_like_values():
    for n in range(13):
        assert bernoulli_high(n, -1) == F(1, n + 1)


def test_integer_order_agrees_with_repeated_products():
    base = conv_inverse([F(1, math.factorial(k + 1)) for k in range(8)], 8)
    for alpha in (2, 3, -2):
        powered = conv_power(base, alpha, 8)
        for n in range(8):
            assert bernoulli_high(n, alpha) == math.factorial(n) * powered[n]


ORDER_POOL = [F(1), F(-1), F(2), F(1, 2), F(-1, 2), F(3), F(-5, 3), F(0)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ORDER_POOL), st.sampled_from(ORDER_POOL), st.integers(0, 12))
def test_bernoulli_convolution_law(alpha, beta, n):
    total = sum(
        math.comb(n, j) * bernoulli_high(j, alpha) * bernoulli_high(n - j, beta)
        for j in range(n + 1)
    )
    assert bernoulli_high(n, alpha + beta) == total


# -- higher-order Euler numbers ------------------------------------------------------------


def test_euler_order_zero_and_constant_term():
    assert euler_high(0, 0) == 1
    for n in range(1, 5):
        assert euler_high(n, 0) == 0
    for alpha in (F(1), F(-3), F(1, 2)):
        assert euler_high(0, alpha) == 1


def test_first_euler_number_from_inversion_oracle():
    base = [F(1)] + [F(1, 2 * math.factorial(k)) for k in range(1, 4)]
    inverted = conv_inverse(base, 4)
    assert inverted[1] == F(-1, 2)
    assert euler_high(1, 1) == F(-1, 2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ORDER_POOL), st.sampled_from(ORDER_POOL), st.integers(0, 12))
def test_euler_convolution_law(alpha, beta, n):
    total = sum(
        math.comb(n, j) * euler_high(j, alpha) * euler_high(n - j, beta)
        for j in range(n + 1)
    )
    assert euler_high(n, alpha + beta) == total


SERIES_BUILDERS = (("bernoulli", bernoulli_series), ("euler", euler_series))


@pytest.mark.parametrize("kind, builder", SERIES_BUILDERS)
@pytest.mark.parametrize("order", range(-4, 5))
def test_integer_orders_match_schoolbook_powers(kind, builder, order):
    trunc = 14
    series = builder(order, trunc)
    for p in range(trunc):
        assert series.egf_coefficient(p) == higher_order_number(kind, p, order)


@pytest.mark.parametrize("kind, builder", SERIES_BUILDERS)
@pytest.mark.parametrize("p, q", [(1, 2), (-1, 2), (2, 3), (-5, 3), (3, 4), (-1, 6)])
def test_rational_order_to_the_q_is_the_integer_order(kind, builder, p, q):
    trunc = 12
    powered = conv_power(builder(F(p, q), trunc).coeffs, q, trunc)
    assert powered == list(builder(p, trunc).coeffs)
    assert [math.factorial(k) * c for k, c in enumerate(powered)] == [
        higher_order_number(kind, k, p) for k in range(trunc)]


def test_series_builders_match_number_accessors():
    assert bernoulli_series(F(1, 2), 6).egf_coefficient(3) == bernoulli_high(3, F(1, 2))
    assert euler_series(F(-2), 6).egf_coefficient(4) == euler_high(4, -2)


# -- Abel triangle ------------------------------------------------------------------------------


def test_abel_rows_from_closed_form():
    tri = abel_triangle(3, 1)
    assert tri.rows[0] == (1,)
    assert tri.rows[1] == (0, 1)
    assert tri.rows[2] == (0, -2, 1)           # x(x-2)
    assert tri.rows[3] == (0, 9, -6, 1)        # x(x-3)^2


def test_abel_rational_parameter():
    tri = abel_triangle(2, F(1, 2))
    assert tri.rows[2] == (0, -1, 1)           # x(x-1)


def test_abel_structure_invariants():
    tri = abel_triangle(8, F(-2, 3))
    for n in range(1, 9):
        assert tri.entry(n, n) == 1
        assert tri.entry(n, 0) == 0


def test_abel_rejects_zero_parameter():
    with pytest.raises(InvalidParameterError):
        abel_triangle(3, 0)


# -- Mittag-Leffler triangle ----------------------------------------------------------------------


def test_mittag_leffler_small_rows():
    tri = mittag_leffler_triangle(2)
    assert tri.rows[0] == (1,)
    assert tri.rows[1] == (0, 2)
    assert tri.rows[2] == (0, 0, 4)


def test_mittag_leffler_rows_match_falling_factorial_oracle():
    tri = mittag_leffler_triangle(30)
    for n in range(31):
        assert list(tri.rows[n]) == mittag_leffler_row(n), n


def test_mittag_leffler_structure_invariants():
    tri = mittag_leffler_triangle(9)
    for n in range(1, 10):
        assert tri.entry(n, 0) == 0
        assert tri.entry(n, n) == F(2) ** n


# -- multinomials and compositions ---------------------------------------------------------------


def test_multinomial_values():
    assert multinomial(1, [1, 0]) == 1
    assert multinomial(4, [2, 1, 1]) == 12
    for n in range(5):
        assert multinomial(n, [n]) == 1


def test_multinomial_validation():
    with pytest.raises(InvalidParameterError):
        multinomial(3, [1, 1])
    with pytest.raises(InvalidParameterError):
        multinomial(2, [3, -1])


def test_compositions_exhaustive_listings():
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 0)) == [()]
    for total in range(5):
        for parts in range(1, 5):
            brute = [c for c in itertools.product(range(total + 1), repeat=parts)
                     if sum(c) == total]
            assert list(compositions(total, parts)) == brute


def test_compositions_count_is_stars_and_bars():
    listed = list(compositions(5, 3))
    assert len(listed) == math.comb(7, 2) == 21
    assert len(set(listed)) == 21
    assert all(sum(c) == 5 for c in listed)
    assert listed == sorted(listed)


def test_compositions_with_thousands_of_parts():
    # the enumeration is iterative: no recursion depth grows with the parts
    count, previous = 0, None
    for c in compositions(1, 3000):
        assert len(c) == 3000 and sum(c) == 1 and c[2999 - count] == 1
        assert previous is None or previous < c
        count, previous = count + 1, c
    assert count == 3000


def test_compositions_validation():
    with pytest.raises(InvalidParameterError):
        compositions(2, 0)
    with pytest.raises(InvalidParameterError):
        compositions(-1, 2)


# -- triangle container ------------------------------------------------------------------------


def test_triangle_shape_validation():
    with pytest.raises(Exception):
        CoeffTriangle([[1], [0, 1, 0]])


def test_triangle_powers_are_repeated_matmuls():
    tri = mittag_leffler_triangle(5)
    powers = tri.powers(4)
    assert len(powers) == 4 and powers[0] == tri
    expected = tri
    for power in powers[1:]:
        expected = expected.matmul(tri)
        assert power == expected
    with pytest.raises(InvalidParameterError):
        tri.powers(0)


def test_triangle_csv_lines():
    lines = list(lah_triangle(2).csv_lines())
    assert lines[0] == "n,k,value"
    assert "2,1,2" in lines
