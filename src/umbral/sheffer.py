"""The umbral algebra engine.

A Sheffer pair couples an invertible series ``g`` (order 0) with a delta
series ``f`` (order 1) and determines a polynomial sequence ``s_n`` by the
biorthogonality ``<g f^k | s_n> = n! delta_{n,k}``.  This module builds
those sequences as coefficient triangles, applies series as differential
operators and linear functionals, transfers sequences between delta
series, and realises m-th powers under umbral composition through two
independent routes: matrix powers of the triangle and the powered pair
``(prod g(f^i), f^m)``.  Sequences, the polynomials functionals act on
and operator images are all coefficient rows, lowest degree first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    ClassMismatchError,
    InvalidInputError,
    InvalidParameterError,
    OutOfRangeError,
)
from .rationals import RationalLike
from .series import Series
from .special import abel_triangle, lah_triangle, mittag_leffler_triangle, stirling1_triangle
from .triangles import CoeffTriangle


class ShefferPair:
    """An (invertible, delta) pair of series at a shared working truncation."""

    __slots__ = ("_g", "_f")

    def __init__(self, g: Series, f: Series):
        if g.order() != 0:
            raise ClassMismatchError("the invertible part must have order 0")
        if f.order() != 1:
            raise ClassMismatchError("the delta part must have order exactly 1")
        n = min(g.trunc, f.trunc)
        self._g = g.truncated(n)
        self._f = f.truncated(n)

    @property
    def g(self) -> Series:
        return self._g

    @property
    def f(self) -> Series:
        return self._f

    @property
    def trunc(self) -> int:
        return self._g.trunc

    def describe(self) -> str:
        """Text form ``g=<literal>; f=<literal>; N=<trunc>``."""
        return f"g={self._g.to_text()}; f={self._f.to_text()}; N={self.trunc}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShefferPair):
            return NotImplemented
        return self._g == other._g and self._f == other._f

    def __hash__(self) -> int:
        return hash((self._g, self._f))

    def __repr__(self) -> str:
        return f"ShefferPair({self.describe()!r})"


# -- functional and operator actions -------------------------------------------


def _check_degree(p: Sequence[RationalLike], trunc: int) -> None:
    degree = max((n for n, coeff in enumerate(p) if coeff), default=-1)
    if degree >= trunc:
        raise OutOfRangeError(f"polynomial degree {degree} reaches past truncation {trunc}")


def pairing(functional: Series, p: Sequence[RationalLike]) -> Fraction:
    """Apply the linear functional of a series to a polynomial ``p``.

    The value is ``sum_n p_n * n! * c_n``; in particular t^k pairs with
    x^n to ``n! delta_{n,k}``.
    """
    _check_degree(p, functional.trunc)
    acc = Fraction(0)
    for n, coeff in enumerate(p):
        if coeff:
            acc += coeff * functional.coeffs[n] * math.factorial(n)
    return acc


def apply_operator(h: Series, p: Sequence[RationalLike]) -> tuple:
    """Act on a polynomial ``p`` with ``sum_k c_k (d/dx)^k`` (ordinary coefficients).

    Entry j of the result, which has ``len(p)`` entries, is
    ``sum_k c_k (j+k)!/j! p_{j+k}``.
    """
    _check_degree(p, h.trunc)
    c = h.coeffs
    return tuple(
        sum((c[k] * math.perm(j + k, k) * p[j + k] for k in range(len(p) - j) if p[j + k]),
            Fraction(0))
        for j in range(len(p)))


# -- sequence generation ----------------------------------------------------------


def sheffer_triangle(pair: ShefferPair, n_max: int) -> CoeffTriangle:
    """Coefficient triangle of the sequence determined by the pair.

    Row extraction from the generating function: with fbar the
    compositional inverse of f,

        s_{n,k} = (n!/k!) [t^n] fbar^k / g(fbar).

    The columns 1/g(fbar) * fbar^k, k = 0..n_max, come from one chain of
    n_max products.
    """
    if n_max < 0:
        raise InvalidParameterError("n_max must be nonnegative")
    if pair.trunc <= n_max:
        raise OutOfRangeError(
            f"working truncation {pair.trunc} must exceed n_max={n_max}")
    fbar = pair.f.revert()
    columns = [pair.g.compose(fbar).inv()]
    for _ in range(n_max):
        columns.append(columns[-1] * fbar)
    # each entry is one Fraction from the column's integer numerator and
    # denominator (Series keeps its coefficients as nums / den)
    rows = []
    for n in range(n_max + 1):
        rows.append([
            Fraction(math.factorial(n) // math.factorial(k) * columns[k]._nums[n], columns[k]._den)
            for k in range(n + 1)
        ])
    return CoeffTriangle(rows)


class OrthogonalityCase(NamedTuple):
    n: int
    k: int
    value: Fraction
    expected: Fraction
    ok: bool


class OrthogonalityReport(NamedTuple):
    cases: Tuple[OrthogonalityCase, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.cases)


def verify_orthogonality(pair: ShefferPair, triangle: CoeffTriangle, n_max: int) -> OrthogonalityReport:
    """Check ``<g f^k | s_n> = n! delta_{n,k}`` on the full (n, k) grid."""
    if triangle.n_max < n_max:
        raise OutOfRangeError("triangle has fewer rows than requested")
    if pair.trunc <= n_max:
        raise OutOfRangeError(
            f"working truncation {pair.trunc} must exceed n_max={n_max}")
    functionals = []
    power = Series.constant(1, pair.trunc)
    for _ in range(n_max + 1):
        functionals.append(pair.g * power)
        power = power * pair.f
    cases = []
    for n in range(n_max + 1):
        row = triangle.row(n)
        for k in range(n_max + 1):
            value = pairing(functionals[k], row)
            expected = Fraction(math.factorial(n)) if n == k else Fraction(0)
            cases.append(OrthogonalityCase(n, k, value, expected, value == expected))
    return OrthogonalityReport(tuple(cases))


def transfer(p_triangle: CoeffTriangle, f: Series, g: Series, n_max: int) -> CoeffTriangle:
    """Map the associated sequence of delta series f to that of delta series g.

    Row n of the result is ``x * (f/g)^n`` applied to ``p_n(x)/x``, where
    ``(f/g)^n`` is computed as ``((f/t) * (t/g))^n`` so every intermediate
    stays inside the truncated-series ring.
    """
    if f.order() != 1 or g.order() != 1:
        raise ClassMismatchError("transfer needs delta series on both sides")
    if p_triangle.n_max < n_max:
        raise OutOfRangeError("source triangle has fewer rows than requested")
    trunc = min(f.trunc, g.trunc)
    if trunc <= n_max:
        raise OutOfRangeError(f"working truncation {trunc} must exceed n_max={n_max}")
    for n in range(1, n_max + 1):
        if p_triangle.entry(n, 0) != 0:
            raise InvalidInputError(
                f"source row {n} has a nonzero constant term; not an associated sequence")
    base = Series(f.coeffs[1:]) * Series(g.coeffs[1:]).inv()
    rows = [p_triangle.row(0)]
    ratio = Series.constant(1, trunc - 1)
    for n in range(1, n_max + 1):
        ratio = ratio * base
        rows.append((0,) + apply_operator(ratio, p_triangle.row(n)[1:]))
    return CoeffTriangle(rows)


# -- powers under composition ---------------------------------------------------------


def pair_power(pair: ShefferPair, m: int) -> ShefferPair:
    """The pair of the m-th umbral power: ``(prod_{i<m} g(f^i), f^m)``, m >= 1.

    ``f^i`` is the i-fold composition, built as the chain ``f^(i+1) = f(f^i)``
    from ``f^1 = f``: 2(m - 1) compositions in all.
    """
    if m < 1:
        raise InvalidParameterError("pair power needs m >= 1")
    g_total = pair.g
    current = pair.f
    for _ in range(m - 1):
        g_total = g_total * pair.g.compose(current)
        current = pair.f.compose(current)
    return ShefferPair(g_total, current)


def umbral_power_gf(pair: ShefferPair, m: int, n_max: int) -> CoeffTriangle:
    """m-th umbral power through the generating function of the powered pair."""
    return sheffer_triangle(pair_power(pair, m), n_max)


# -- the four worked families ---------------------------------------------------------


def rising_factorial_delta(trunc: int) -> Series:
    """1 - e^{-t}, the delta series of the rising factorials."""
    return Series([Fraction(0)] + [
        Fraction(-((-1) ** k), math.factorial(k)) for k in range(1, trunc)])


def lah_delta(trunc: int) -> Series:
    """t/(t-1) = -t - t^2 - ..., the self-inverse delta series of the Lah sequence."""
    return Series([Fraction(0)] + [Fraction(-1)] * (trunc - 1))


def abel_delta(trunc: int, a: RationalLike) -> Series:
    """t e^{at}, the delta series of the Abel sequence (a nonzero)."""
    a = Fraction(a)
    if a == 0:
        raise InvalidParameterError("abel parameter must be nonzero")
    return Series([Fraction(0)] + [
        a ** (k - 1) / math.factorial(k - 1) for k in range(1, trunc)])


def mittag_leffler_delta(trunc: int) -> Series:
    """(e^t - 1)/(e^t + 1), the delta series of the Mittag-Leffler sequence."""
    em1 = Series([Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(1, trunc)])
    ep1 = Series([Fraction(2)] + [Fraction(1, math.factorial(k)) for k in range(1, trunc)])
    return em1 * ep1.inv()


class FamilyRow(NamedTuple):
    """One family: its ``umbral table`` name, the names :func:`family` accepts
    (canonical first; none without a delta series) and its builders, which
    take ``a`` as a trailing argument exactly when ``takes_a``."""

    table: str
    names: Tuple[str, ...]
    closed_triangle: Callable[..., CoeffTriangle]
    delta: Optional[Callable[..., Series]]
    takes_a: bool = False


# ``table lah`` is unsigned Lah; the family ``lah`` (alias ``lah-signed``) is
# signed.  Calling the triangles through this module's names lets a wrapper
# rebound onto them (as benchmarks/tracer.py does) see every call.
FAMILIES = (
    FamilyRow("stirling1u", ("rising-factorial",),
              lambda n: stirling1_triangle(n, signed=False), rising_factorial_delta),
    FamilyRow("stirling1s", (), lambda n: stirling1_triangle(n, signed=True), None),
    FamilyRow("lah", (), lambda n: lah_triangle(n, signed=False), None),
    FamilyRow("lah-signed", ("lah", "lah-signed"),
              lambda n: lah_triangle(n, signed=True), lah_delta),
    FamilyRow("abel", ("abel",), lambda n, a: abel_triangle(n, a), abel_delta, takes_a=True),
    FamilyRow("mittag-leffler", ("mittag-leffler",),
              lambda n: mittag_leffler_triangle(n), mittag_leffler_delta),
)
_BY_NAME = {name: row for row in FAMILIES for name in row.names}


class SequenceFamily:
    """One of the worked associated sequences (g = 1), with closed triangle.
    Immutable; equal when name and parameter are."""

    __slots__ = ("name", "a")
    name: str
    a: Optional[Fraction]

    def __init__(self, name: str, a: Optional[Fraction] = None):
        row = _BY_NAME.get(name)
        if row is None or row.names[0] != name:
            raise InvalidParameterError(f"unknown family {name!r}")
        if row.takes_a:
            if a is None or a == 0:
                raise InvalidParameterError(f"{name} family needs a nonzero parameter")
        elif a is not None:
            raise InvalidParameterError(f"family {name!r} takes no parameter")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self.a) == (other.name, other.a)

    def __hash__(self):
        return hash((self.name, self.a))

    def __reduce__(self):
        return type(self), (self.name, self.a)

    def __repr__(self):
        return f"SequenceFamily(name={self.name!r}, a={self.a!r})"

    def _params(self) -> tuple:
        return () if self.a is None else (self.a,)

    def delta(self, trunc: int) -> Series:
        return _BY_NAME[self.name].delta(trunc, *self._params())

    def pair(self, trunc: int) -> ShefferPair:
        return ShefferPair(Series.constant(1, trunc), self.delta(trunc))

    def closed_triangle(self, n_max: int) -> CoeffTriangle:
        return _BY_NAME[self.name].closed_triangle(n_max, *self._params())


def family(name: str, a: Optional[RationalLike] = None) -> SequenceFamily:
    """Look up a family by any of its names (``lah-signed`` is an alias of ``lah``)."""
    row = _BY_NAME.get(name)
    canonical = row.names[0] if row is not None else name
    return SequenceFamily(canonical, Fraction(a) if a is not None else None)
