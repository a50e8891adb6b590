"""Exact generators for the named number and polynomial families.

Covers Stirling numbers of the first kind, Lah numbers, higher-order
Bernoulli and Euler numbers (any rational order, including negative),
Abel and Mittag-Leffler coefficient triangles, multinomial coefficients
and composition enumeration.  The Stirling and Mittag-Leffler triangles are
built in integers from one Stirling row recurrence that keeps no state.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import InvalidParameterError
from .rationals import RationalLike
from .series import Series
from .triangles import CoeffTriangle

# -- Stirling numbers of the first kind ---------------------------------------


def _stirling1_rows(n_max: int) -> Iterator[tuple]:
    # signed rows 0..n_max as integer tuples, one alive at a time, by
    # s(m, k) = s(m-1, k-1) - (m-1) s(m-1, k) (Comtet, ch. V)
    if n_max < 0:
        raise InvalidParameterError("n_max must be nonnegative")
    row = (1,)
    yield row
    for m in range(1, n_max + 1):
        row = tuple(left - (m - 1) * right for left, right in zip((0,) + row, row + (0,)))
        yield row


def stirling1_signed(n: int, k: int) -> Fraction:
    """Signed first-kind Stirling number: coefficient of x^k in x(x-1)...(x-n+1).
    O(n^2) per call with nothing kept; for many entries use :func:`stirling1_triangle`."""
    if n < 0 or k < 0 or k > n:
        return Fraction(0)
    for row in _stirling1_rows(n):
        pass
    return Fraction(row[k])


def stirling1_unsigned(n: int, k: int) -> Fraction:
    """Unsigned first-kind Stirling number: coefficient of x^k in x(x+1)...(x+n-1).
    O(n^2) per call with nothing kept; for many entries use :func:`stirling1_triangle`."""
    return abs(stirling1_signed(n, k))


def stirling1_triangle(n_max: int, signed: bool = False) -> CoeffTriangle:
    """Rows 0..n_max of the first-kind Stirling numbers, unsigned unless ``signed``."""
    rows = _stirling1_rows(n_max)
    return CoeffTriangle(rows if signed else (map(abs, row) for row in rows))


# -- Lah numbers ----------------------------------------------------------------


def lah(n: int, k: int) -> Fraction:
    """Lah number C(n-1, k-1) * n!/k! for 1 <= k <= n, with L(0,0) = 1."""
    if n < 0 or k < 0:
        return Fraction(0)
    if n == 0 and k == 0:
        return Fraction(1)
    if k == 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n - 1, k - 1) * (math.factorial(n) // math.factorial(k)))


def lah_triangle(n_max: int, signed: bool = False) -> CoeffTriangle:
    """Lah values, or with ``signed`` the coefficient triangle (-1)^k L(n,k)."""
    if signed:
        return CoeffTriangle.from_entries(
            n_max, lambda n, k: -lah(n, k) if k % 2 else lah(n, k))
    return CoeffTriangle.from_entries(n_max, lah)


# -- higher-order Bernoulli and Euler numbers ------------------------------------


# Entries kept per series cache.  Every benchmark workload stays far below it
# (at most 32 Bernoulli and 12 Euler keys in one process).  A t1 grid reads
# one key per order and padded truncation, measured 120 keys at n_max = 40,
# 182 at 50 and 256 at 60, so grids past n_max = 40 evict: at n_max = 60 the
# cache is full and m_max = 1 misses 256 times, m_max = 2 3,748 times.  At
# trunc 64 a full cache holds about 1.3 MB.  A miss costs one O(trunc^2)
# integer pass of Series.rat_pow (Miller's recurrence), for integer orders as
# for others.
_SERIES_CACHE_SIZE = 128


def _padded_trunc(trunc: int) -> int:
    # round up so nearby requests share one cached series
    return max(8, -(-trunc // 8) * 8)


@lru_cache(maxsize=_SERIES_CACHE_SIZE)
def _bernoulli_series(alpha: Fraction, trunc: int) -> Series:
    # (t/(e^t - 1))^alpha as ((e^t - 1)/t)^(-alpha), whose base has ordinary
    # coefficients 1/(k+1)!: one power, no inverse
    base = Series([Fraction(1, math.factorial(k + 1)) for k in range(trunc)])
    return base.rat_pow(-alpha)


@lru_cache(maxsize=_SERIES_CACHE_SIZE)
def _euler_series(alpha: Fraction, trunc: int) -> Series:
    # (2/(e^t + 1))^alpha as ((e^t + 1)/2)^(-alpha), whose base has constant
    # term 1 and ordinary coefficients 1/(2 k!)
    base = Series([Fraction(1)] + [Fraction(1, 2 * math.factorial(k)) for k in range(1, trunc)])
    return base.rat_pow(-alpha)


def bernoulli_series(alpha: RationalLike, trunc: int) -> Series:
    """The series (t/(e^t - 1))^alpha truncated to ``trunc`` coefficients."""
    if trunc < 1:
        raise InvalidParameterError("truncation must be a positive integer")
    return _bernoulli_series(Fraction(alpha), trunc)


def euler_series(alpha: RationalLike, trunc: int) -> Series:
    """The series (2/(e^t + 1))^alpha truncated to ``trunc`` coefficients."""
    if trunc < 1:
        raise InvalidParameterError("truncation must be a positive integer")
    return _euler_series(Fraction(alpha), trunc)


def bernoulli_high(n: int, alpha: RationalLike) -> Fraction:
    """n-th Bernoulli number of rational order alpha (exponential coefficient)."""
    if n < 0:
        raise InvalidParameterError("index must be nonnegative")
    return _bernoulli_series(Fraction(alpha), _padded_trunc(n + 1)).egf_coefficient(n)


def euler_high(n: int, alpha: RationalLike) -> Fraction:
    """n-th Euler number of rational order alpha (exponential coefficient)."""
    if n < 0:
        raise InvalidParameterError("index must be nonnegative")
    return _euler_series(Fraction(alpha), _padded_trunc(n + 1)).egf_coefficient(n)


# -- Abel and Mittag-Leffler triangles ----------------------------------------------


def abel_triangle(n_max: int, a: RationalLike) -> CoeffTriangle:
    """Coefficients of x(x - an)^{n-1}: entry C(n-1, k-1) (-an)^{n-k}, row 0 = [1]."""
    a = Fraction(a)
    if a == 0:
        raise InvalidParameterError("abel parameter must be nonzero")

    def entry(n: int, k: int) -> Fraction:
        if n == 0:
            return Fraction(1)
        if k == 0:
            return Fraction(0)
        return math.comb(n - 1, k - 1) * (-a * n) ** (n - k)

    return CoeffTriangle.from_entries(n_max, entry)


def mittag_leffler_triangle(n_max: int) -> CoeffTriangle:
    """Coefficient triangle of sum_r C(n,r) (n-1)!/(r-1)! 2^r x(x-1)...(x-r+1).

    Each row is an integer sum of weighted signed Stirling rows s(r, .),
    r = 1..n.  The reciprocal factorial 1/(-1)! is taken as 0, killing the
    r = 0 term for n >= 1; row 0 is [1] by convention.
    """
    stirling = list(_stirling1_rows(n_max))
    rows = [(1,)]
    for n in range(1, n_max + 1):
        row = [0] * (n + 1)
        for r in range(1, n + 1):
            weight = math.comb(n, r) * (math.factorial(n - 1) // math.factorial(r - 1)) * 2**r
            for k, s in enumerate(stirling[r]):
                row[k] += weight * s
        rows.append(row)
    return CoeffTriangle(rows)


# -- multinomials and compositions ----------------------------------------------------


def multinomial(top: int, parts: Sequence[int]) -> Fraction:
    """top! / prod(parts_i!) for nonnegative parts summing to top."""
    parts = tuple(parts)
    if top < 0 or any(p < 0 for p in parts):
        raise InvalidParameterError("multinomial arguments must be nonnegative")
    if sum(parts) != top:
        raise InvalidParameterError(f"parts {parts} do not sum to {top}")
    value = math.factorial(top)
    for p in parts:
        value //= math.factorial(p)
    return Fraction(value)


def compositions(total: int, parts: int) -> Iterator[tuple]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``,
    exactly once each, in lexicographic order."""
    if total < 0 or parts < 0:
        raise InvalidParameterError("composition arguments must be nonnegative")
    if parts == 0 and total > 0:
        raise InvalidParameterError("cannot split a positive total into zero parts")
    return _compositions(total, parts)


def _compositions(total: int, parts: int) -> Iterator[tuple]:
    # lexicographic successor: one unit of the last nonzero entry q moves to
    # entry q - 1 and the rest of it to the final entry; q == 0 ends the list
    if parts == 0:
        yield ()
        return
    current = [0] * (parts - 1) + [total]
    q = parts - 1 if total else 0
    while True:
        yield tuple(current)
        if q == 0:
            return
        rest = current[q] - 1
        current[q] = 0
        current[q - 1] += 1
        current[-1] = rest
        q = parts - 1 if rest else q - 1
