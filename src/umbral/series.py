"""Exact truncated formal power series over the rationals.

A :class:`Series` keeps the first ``trunc`` ordinary coefficients
``c_0 .. c_{trunc-1}`` of a formal power series ``sum c_k t^k + O(t^trunc)``.
Everything is exact rational arithmetic.  Binary operations truncate to the
shorter operand and no operation ever extends precision, so a coefficient
that is present is always correct.

Every power, integer or rational, the inverse and the exponential are one
integer kernel, J. C. P. Miller's power recurrence over a running lcm
denominator (:func:`_miller`); there is no second powering algorithm.
Composition is Brent–Kung baby-step/giant-step and reversion is Newton
iteration on ``f(h) = t`` (Brent & Kung, "Fast algorithms for manipulating
formal power series", J. ACM 25(4), 1978).  All are exact, so
``f.compose(f.revert()) == t`` holds at every retained truncation.

Exponential-generating-function coefficients ``a_n = n! * c_n`` are exposed
only through :meth:`Series.egf_coefficient`; all internal arithmetic stays
on ordinary coefficients.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import ClassMismatchError, InvalidParameterError, OutOfRangeError
from .rationals import RationalLike, format_rational, parse_rational, scaled_to_integers

ScalarOrSeries = Union["Series", Fraction, int]


class Series:
    """Immutable truncated power series with :class:`Fraction` coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike], trunc: Optional[int] = None):
        # a Fraction is immutable and kept as is; Fraction(Fraction) costs an abc check
        items = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if trunc is not None:
            if trunc < 1:
                raise InvalidParameterError("truncation must be a positive integer")
            if len(items) < trunc:
                items.extend([Fraction(0)] * (trunc - len(items)))
            else:
                del items[trunc:]
        if not items:
            raise InvalidParameterError("a series needs at least one retained coefficient")
        self._coeffs = tuple(items)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: RationalLike, trunc: int) -> "Series":
        return cls([Fraction(value)], trunc=trunc)

    @classmethod
    def t(cls, trunc: int) -> "Series":
        """The identity delta series ``t`` (trunc must be at least 2 to see it)."""
        return cls([0, 1], trunc=trunc)

    @classmethod
    def zero(cls, trunc: int) -> "Series":
        return cls([0], trunc=trunc)

    @classmethod
    def from_text(cls, text: str, trunc: Optional[int] = None) -> "Series":
        """Parse the literal format ``"c0,c1,c2,..."`` of canonical rationals."""
        parts = [p.strip() for p in text.split(",")]
        if parts == [""]:
            raise InvalidParameterError("empty series literal")
        return cls([parse_rational(p) for p in parts], trunc=trunc)

    # -- basic accessors ------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def trunc(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k < len(self._coeffs):
            raise OutOfRangeError(f"coefficient index {k} outside truncation {self.trunc}")
        return self._coeffs[k]

    def order(self) -> Optional[int]:
        """Index of the first nonzero coefficient, or None when every
        retained coefficient vanishes (order beyond truncation)."""
        for k, c in enumerate(self._coeffs):
            if c:
                return k
        return None

    def truncated(self, trunc: int) -> "Series":
        """A copy with fewer retained coefficients; never extends."""
        if not 1 <= trunc <= self.trunc:
            raise OutOfRangeError(f"cannot truncate length-{self.trunc} series to {trunc}")
        return Series(self._coeffs[:trunc])

    def egf_coefficient(self, n: int) -> Fraction:
        """The exponential coefficient ``a_n = n! * c_n``."""
        if not 0 <= n < self.trunc:
            raise OutOfRangeError(f"coefficient index {n} outside truncation {self.trunc}")
        return math.factorial(n) * self._coeffs[n]

    # -- ring operations (result truncation = min of operands) ----------

    def __add__(self, other: ScalarOrSeries) -> "Series":
        if isinstance(other, Series):
            n = min(self.trunc, other.trunc)
            return Series([self._coeffs[k] + other._coeffs[k] for k in range(n)])
        c = list(self._coeffs)
        c[0] += Fraction(other)
        return Series(c)

    __radd__ = __add__

    def __sub__(self, other: ScalarOrSeries) -> "Series":
        return self + (-other if isinstance(other, Series) else -Fraction(other))

    def __rsub__(self, other: RationalLike) -> "Series":
        return (-self) + other

    def __neg__(self) -> "Series":
        return Series([-c for c in self._coeffs])

    def __mul__(self, other: ScalarOrSeries) -> "Series":
        if isinstance(other, Series):
            n = min(self.trunc, other.trunc)
            # convolve over a common denominator: one reduction per output
            # coefficient instead of one per partial sum
            a, da = scaled_to_integers(self._coeffs[:n])
            b, db = scaled_to_integers(other._coeffs[:n])
            d = da * db
            out = []
            for k in range(n):
                acc = 0
                for i in range(k + 1):
                    if a[i] and b[k - i]:
                        acc += a[i] * b[k - i]
                out.append(Fraction(acc, d))
            return Series(out)
        scalar = Fraction(other)
        return Series([c * scalar for c in self._coeffs])

    __rmul__ = __mul__

    def inv(self) -> "Series":
        """Multiplicative inverse, the power ``-1``; requires order 0."""
        return self.rat_pow(-1)

    def rat_pow(self, alpha: RationalLike) -> "Series":
        """``self ** alpha`` for every exponent, by the one power kernel
        :func:`_miller`.

        A non-integer ``alpha`` needs ``c_0 = 1``.  An integer ``m`` takes any
        series of order 0, as ``c_0^m (self/c_0)^m``, and for ``m >= 0`` any
        series of order ``v >= 1``, as ``t^(vm) (self/t^v)^m``.
        """
        alpha = Fraction(alpha)
        p, q = alpha.numerator, alpha.denominator
        a, n = self._coeffs, len(self._coeffs)
        if a[0] == 1:
            return Series(_miller(a, p + q, -q, q))
        if q != 1:
            raise ClassMismatchError("rational power needs constant term 1")
        if a[0]:
            scale = a[0] ** p
            return Series([c * scale for c in _miller([c / a[0] for c in a], p + 1, -1, 1)])
        if p < 0:
            raise ClassMismatchError("multiplicative inverse needs an invertible series (order 0)")
        v = self.order()
        if p == 0 or v is None or v * p >= n:
            return Series.constant(1 if p == 0 else 0, n)
        shift = v * p
        return Series([0] * shift + list(Series(a[v:v + n - shift]).rat_pow(p)._coeffs))

    __pow__ = rat_pow

    # -- transcendental operations ---------------------------------------

    def exp(self) -> "Series":
        """Series exponential by :func:`_miller` (``E' = E s'``); requires
        order >= 1 (zero constant term)."""
        if self._coeffs[0] != 0:
            raise ClassMismatchError("series exponential needs order >= 1")
        return Series(_miller(self._coeffs, 1, 0, 1))

    # -- calculus helpers -------------------------------------------------

    def derivative(self) -> "Series":
        """Termwise derivative; the truncation shrinks by one."""
        if self.trunc < 2:
            raise OutOfRangeError("derivative of a single-coefficient series is undetermined")
        return Series([(k + 1) * c for k, c in enumerate(self._coeffs[1:])])

    # -- composition -----------------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (order >= 1) into this series.

        Brent–Kung baby-step/giant-step: with ``n`` the shorter truncation
        and ``k = isqrt(n - 1) + 1``, the outer coefficients split into
        blocks of ``k``; each block is an exact linear combination of the
        baby powers ``inner^0 .. inner^(k-1)``, and Horner in the giant
        power ``inner^k`` sums the blocks.  That is about ``2 sqrt(n)``
        products instead of ``n``.  A constant outer series (every
        coefficient above index 0 zero below ``n``) is returned as that
        constant at once, with no products.
        """
        if not isinstance(inner, Series):
            raise TypeError("compose expects a Series")
        if inner.order() == 0:
            raise ClassMismatchError("composition needs an inner series of order >= 1")
        n = min(self.trunc, inner.trunc)
        if not any(self._coeffs[1:n]):
            return Series.constant(self._coeffs[0], n)
        k = math.isqrt(n - 1) + 1
        g = inner.truncated(n)
        powers = [Series.constant(1, n), g]
        while len(powers) <= k:
            powers.append(powers[-1] * g)
        giant = powers.pop()
        # baby powers as integer rows over one common denominator, so each
        # block coefficient is one integer sum and one Fraction
        flat, d = scaled_to_integers(c for p in powers for c in p._coeffs)
        rows = [flat[i:i + n] for i in range(0, len(flat), n)]
        outer = self._coeffs[:n]
        acc = None
        for start in reversed(range(0, n, k)):
            block = outer[start:start + k]
            ints, da = scaled_to_integers(block)
            scaled = [(a, row) for a, row in zip(ints, rows) if a]
            part = Series([Fraction(sum(a * row[j] for a, row in scaled), da * d)
                           for j in range(n)])
            acc = part if acc is None else acc * giant + part
        return acc

    __call__ = compose

    def revert(self) -> "Series":
        """Compositional inverse of a delta series (order exactly 1).

        Newton iteration on ``f(h) = t``, doubling the precision of ``h``
        each step (the last step is clipped to the truncation).  A step
        needs one composition ``f(h)``; ``f'(h)`` comes from the chain rule
        as ``f(h)' / h'``.  The round trip ``compose(f, revert(f)) = t`` is
        exact at the retained truncation.
        """
        if self.order() != 1:
            raise ClassMismatchError("compositional inverse needs a delta series (order exactly 1)")
        n = self.trunc
        h = [Fraction(0), 1 / self._coeffs[1]]
        while len(h) < n:
            old = len(h)
            prec = min(2 * old, n)
            # h is exact below old; the zeros above it are placeholders that
            # this step overwrites with the correction
            padded = Series(h, trunc=prec)
            fh = self.compose(padded)
            # f(h) - t vanishes below old, so the correction (f(h) - t) / f'(h),
            # with f'(h) = f(h)' / h', only touches coefficients old .. prec-1
            m = prec - old
            err = Series(fh._coeffs[old:])
            dh = padded.derivative().truncated(m)
            dfh = fh.derivative().truncated(m)
            h.extend(-c for c in (err * dh * dfh.inv())._coeffs)
        return Series(h)

    # -- text form and dunders --------------------------------------------

    def to_text(self) -> str:
        """Literal format ``"c0,c1,c2,..."`` with canonical rational entries."""
        return ",".join(format_rational(c) for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Series({self.to_text()!r})"


def _miller(a, u: int, v: int, q: int) -> list:
    """Coefficients ``P_0 .. P_{n-1}`` (``n = len(a)``) of the series with
    ``P_0 = 1`` and, for ``k >= 1``,

        q k P_k = sum_{i=1..k} (u i + v k) a_i P_{k-i}.

    This is J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7):
    for ``a_0 = 1`` the weights ``(p + q, -q, q)`` give ``a^(p/q)``, and
    ``(0, -1, 1)`` give ``1/a``; ``(1, 0, 1)`` give ``exp(a - a_0)``.
    ``a_0`` itself is never read.

    The sums run in integers: ``a`` is scaled once to numerators over its
    lcm denominator ``d``, and ``P_0 .. P_{k-1}`` are kept as numerators
    over the running lcm ``lcm`` of their reduced denominators, rescaled
    only when ``lcm`` grows.  Each coefficient is one integer sum and one
    :class:`Fraction`; no common denominator ``a_0^k d^k`` is ever built.
    """
    tail, d = scaled_to_integers(a[1:])
    ints = [0] + tail
    weighted = [u * i * x for i, x in enumerate(ints)]
    out, nums, lcm = [Fraction(1)], [1], 1  # P_j = nums[j] / lcm
    for k in range(1, len(a)):
        back = nums[::-1]
        acc = sum(map(operator.mul, weighted[1:k + 1], back))
        if v:
            acc += v * k * sum(map(operator.mul, ints[1:k + 1], back))
        c = Fraction(acc, q * k * d * lcm)
        out.append(c)
        if lcm % c.denominator:
            grow = c.denominator // math.gcd(lcm, c.denominator)
            nums = [x * grow for x in nums]
            lcm *= grow
        nums.append(c.numerator * (lcm // c.denominator))
    return out
