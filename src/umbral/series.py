"""Exact truncated formal power series over the rationals.

A :class:`Series` keeps the first ``trunc`` ordinary coefficients
``c_0 .. c_{trunc-1}`` of a formal power series ``sum c_k t^k + O(t^trunc)``.
Everything is exact rational arithmetic.  Binary operations truncate to the
shorter operand and no operation ever extends precision, so a coefficient
that is present is always correct.

A series is stored as integer numerators over one positive denominator,
``c_k = nums[k] / den``, in lowest terms over the whole tuple:
``gcd(den, *nums) == 1``, which is the least-common-denominator form of the
coefficients.  The form is canonical, so ``==`` and ``hash`` compare it
directly.  Every kernel reads and returns it and reduces its result by one
``gcd``; no kernel builds a :class:`Fraction` per coefficient only for the
next one to scale it back to integers.  The tuple of :class:`Fraction`
coefficients, :attr:`Series.coeffs`, is built on first read and kept (a
series built from rationals, or by :func:`_miller`, has it from the start).

Every power, integer or rational, the inverse and the exponential are one
integer kernel, J. C. P. Miller's power recurrence over a running lcm
denominator (:func:`_miller`); there is no second powering algorithm.  Every
power of a series of order 0 is one call of it, started from ``c_0^alpha``.
Composition is Brent–Kung baby-step/giant-step and reversion is Newton
iteration on ``f(h) = t`` (Brent & Kung, "Fast algorithms for manipulating
formal power series", J. ACM 25(4), 1978).  All are exact, so
``f.compose(f.revert()) == t`` holds at every retained truncation.

Work is cut by order, never by approximation: a product convolves only past
its operands' leading zeros, and each Horner step of a composition runs at
the width its block can still reach, so the ``n/k`` giant-step products
narrow by ``k`` each step and cost about a third of full-width ones.

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

    __slots__ = ("_nums", "_den", "_coeffs")

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
        nums, self._den = scaled_to_integers(items)
        self._nums = tuple(nums)
        self._coeffs = tuple(items)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: RationalLike, trunc: int) -> "Series":
        if trunc < 1:
            raise InvalidParameterError("truncation must be a positive integer")
        return _constant(Fraction(value), trunc)

    @classmethod
    def t(cls, trunc: int) -> "Series":
        """The identity delta series ``t`` (trunc must be at least 2 to see it)."""
        return cls([0, 1], trunc=trunc)

    @classmethod
    def zero(cls, trunc: int) -> "Series":
        return cls.constant(0, trunc)

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
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(Fraction(x, den) for x in self._nums)
        return self._coeffs

    @property
    def trunc(self) -> int:
        return len(self._nums)

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k < len(self._nums):
            raise OutOfRangeError(f"coefficient index {k} outside truncation {self.trunc}")
        return self.coeffs[k]

    def order(self) -> Optional[int]:
        """Index of the first nonzero coefficient, or None when every
        retained coefficient vanishes (order beyond truncation)."""
        v = _zero_prefix(self._nums, self.trunc)
        return None if v == self.trunc else v

    def truncated(self, trunc: int) -> "Series":
        """A copy with fewer retained coefficients; never extends."""
        if not 1 <= trunc <= self.trunc:
            raise OutOfRangeError(f"cannot truncate length-{self.trunc} series to {trunc}")
        return _reduced(self._nums[:trunc], self._den)

    def egf_coefficient(self, n: int) -> Fraction:
        """The exponential coefficient ``a_n = n! * c_n``."""
        if not 0 <= n < self.trunc:
            raise OutOfRangeError(f"coefficient index {n} outside truncation {self.trunc}")
        return math.factorial(n) * self.coeffs[n]

    # -- ring operations (result truncation = min of operands) ----------

    def __add__(self, other: ScalarOrSeries) -> "Series":
        if not isinstance(other, Series):
            other = _constant(Fraction(other), self.trunc)
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        return _reduced([x * sa + y * sb for x, y in zip(self._nums, other._nums)], den)

    __radd__ = __add__

    def __sub__(self, other: ScalarOrSeries) -> "Series":
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "Series":
        return (-self) + other

    def __neg__(self) -> "Series":
        return _series(tuple(-x for x in self._nums), self._den)

    def __mul__(self, other: ScalarOrSeries) -> "Series":
        if isinstance(other, Series):
            n = min(self.trunc, other.trunc)
            # t^(va+vb) (self/t^va) (other/t^vb): only the width past both
            # known zero prefixes is convolved
            va, vb = _zero_prefix(self._nums, n), _zero_prefix(other._nums, n)
            w = n - va - vb
            if w <= 0:
                return _constant(Fraction(0), n)
            # numerators convolve over the product of the denominators
            a, b = self._nums[va:va + w], other._nums[vb:vb + w]
            out = [0] * (va + vb)
            for k in range(w):
                acc = 0
                for i in range(k + 1):
                    if a[i] and b[k - i]:
                        acc += a[i] * b[k - i]
                out.append(acc)
            return _reduced(out, self._den * other._den)
        scalar = Fraction(other)
        return _reduced([x * scalar.numerator for x in self._nums],
                        self._den * scalar.denominator)

    __rmul__ = __mul__

    def inv(self) -> "Series":
        """Multiplicative inverse, the power ``-1``; requires order 0."""
        return self.rat_pow(-1)

    def rat_pow(self, alpha: RationalLike) -> "Series":
        """``self ** alpha`` for every exponent, by the one power kernel
        :func:`_miller`.

        A non-integer ``alpha`` needs ``c_0 = 1``.  An integer ``m`` takes any
        series of order 0, by Miller's recurrence from ``P_0 = c_0^m``, and
        for ``m >= 0`` any series of order ``v >= 1``, as
        ``t^(vm) (self/t^v)^m``.
        """
        alpha = Fraction(alpha)
        p, q = alpha.numerator, alpha.denominator
        a, den, n = self._nums, self._den, len(self._nums)
        lead = a[0]
        if lead == den or (q == 1 and lead):  # c_0 = 1, or an integer power of order 0
            return _series(*_miller(a, lead, p + q, -q, q, Fraction(lead, den) ** p))
        if q != 1:
            raise ClassMismatchError("rational power needs constant term 1")
        if p < 0:
            raise ClassMismatchError("multiplicative inverse needs an invertible series (order 0)")
        v = self.order()
        if p == 0 or v is None or v * p >= n:
            return _constant(Fraction(1 if p == 0 else 0), n)
        shift = v * p
        power = _reduced(a[v:v + n - shift], den).rat_pow(p)
        return _series((0,) * shift + power._nums, power._den)

    __pow__ = rat_pow

    # -- transcendental operations ---------------------------------------

    def exp(self) -> "Series":
        """Series exponential by :func:`_miller` (``E' = E s'``); requires
        order >= 1 (zero constant term)."""
        if self._nums[0] != 0:
            raise ClassMismatchError("series exponential needs order >= 1")
        return _series(*_miller(self._nums, self._den, 1, 0, 1, Fraction(1)))

    # -- calculus helpers -------------------------------------------------

    def derivative(self) -> "Series":
        """Termwise derivative; the truncation shrinks by one."""
        if self.trunc < 2:
            raise OutOfRangeError("derivative of a single-coefficient series is undetermined")
        return _reduced([k * x for k, x in enumerate(self._nums[1:], 1)], self._den)

    # -- composition -----------------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (order >= 1) into this series.

        Brent–Kung baby-step/giant-step: with ``n`` the shorter truncation
        and ``k = isqrt(n - 1) + 1``, the outer coefficients split into
        blocks of ``k``; each block is an exact linear combination of the
        baby powers ``inner^0 .. inner^(k-1)``, and Horner in the giant
        power ``inner^k`` sums the blocks.  The block starting at ``s``
        reaches the result through ``inner^s``, of order at least ``s``, so
        Horner keeps it only to width ``n - s`` and forms each step as
        ``t^k * acc * (inner^k / t^k)`` at width ``n - s - k``.  That is
        ``k - 1`` baby products at width ``n`` (less their zero prefixes)
        and about ``n/k`` Horner products whose widths fall by ``k`` a
        step, instead of ``n`` full-width products.  A constant outer
        series (every coefficient above index 0 zero below ``n``) is
        returned as that constant at once, with no products.

        The baby powers share one lcm denominator, each block sum is one
        integer vector over it, and a Horner step adds two integer vectors
        over the lcm of their denominators.
        """
        if not isinstance(inner, Series):
            raise TypeError("compose expects a Series")
        if inner.order() == 0:
            raise ClassMismatchError("composition needs an inner series of order >= 1")
        n = min(self.trunc, inner.trunc)
        outer, od = self._nums[:n], self._den
        if not any(outer[1:]):
            return _constant(Fraction(outer[0], od), n)
        k = math.isqrt(n - 1) + 1
        g = inner.truncated(n)
        powers = [_constant(Fraction(1), n), g]
        while len(powers) <= k:
            powers.append(powers[-1] * g)
        giant = powers.pop()
        # baby powers as integer rows over one common denominator d
        d = math.lcm(*(p._den for p in powers))
        rows = [[x * (d // p._den) for x in p._nums] for p in powers]
        acc = None
        for start in reversed(range(0, n, k)):
            # inner^start has order >= start: only n - start coefficients
            # of this block and of everything above it reach the result
            width = n - start
            block = outer[start:start + k]
            # the block over its own least denominator keeps the sums small
            e = math.gcd(od, *block)
            scaled = [(x // e, row) for x, row in zip(block, rows) if x]
            part = [sum(x * row[j] for x, row in scaled) for j in range(width)]
            den = od // e * d
            if acc is not None:
                # acc * inner^k = t^k acc (inner^k / t^k), acc of width - k;
                # inner^k has order >= k, so inner^k / t^k is a series
                step = acc * _reduced(giant._nums[k:width], giant._den)
                merged = math.lcm(den, step._den)
                sp, ss = merged // den, merged // step._den
                part = ([x * sp for x in part[:k]]
                        + [x * sp + y * ss for x, y in zip(part[k:], step._nums)])
                den = merged
            acc = _reduced(part, den)
        return acc

    __call__ = compose

    def revert(self) -> "Series":
        """Compositional inverse of a delta series (order exactly 1).

        Newton iteration on ``f(h) = t``, doubling the precision of ``h``
        each step (the last step is clipped to the truncation).  A step
        needs one composition ``f(h)``; ``f'(h)`` comes from the chain rule
        as ``f(h)' / h'``.  The round trip ``compose(f, revert(f)) = t`` is
        exact at the retained truncation.  ``h`` is kept as integer
        numerators over one denominator throughout.
        """
        if self.order() != 1:
            raise ClassMismatchError("compositional inverse needs a delta series (order exactly 1)")
        n = self.trunc
        lead = Fraction(self._den, self._nums[1])  # 1 / c_1
        h, hd = [0, lead.numerator], lead.denominator  # h_j = h[j] / hd
        while len(h) < n:
            old = len(h)
            prec = min(2 * old, n)
            # h is exact below old; the zeros above it are placeholders that
            # this step overwrites with the correction
            padded = _series(tuple(h) + (0,) * (prec - old), hd)
            fh = self.compose(padded)
            # f(h) - t vanishes below old, so the correction (f(h) - t) / f'(h),
            # with f'(h) = f(h)' / h', only touches coefficients old .. prec-1
            m = prec - old
            err = _reduced(fh._nums[old:], fh._den)
            dh = padded.derivative().truncated(m)
            dfh = fh.derivative().truncated(m)
            step = err * dh * dfh.inv()
            # h and the correction are each in lowest terms, so they are
            # over the lcm of their denominators too
            den = math.lcm(hd, step._den)
            sh, ss = den // hd, den // step._den
            h = [x * sh for x in h] + [-x * ss for x in step._nums]
            hd = den
        return _series(tuple(h), hd)

    # -- text form and dunders --------------------------------------------

    def to_text(self) -> str:
        """Literal format ``"c0,c1,c2,..."`` with canonical rational entries."""
        return ",".join(format_rational(c) for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, self._nums))

    def __repr__(self) -> str:
        return f"Series({self.to_text()!r})"


def _series(nums: tuple, den: int, coeffs: Optional[tuple] = None) -> Series:
    """The series ``nums / den``, which must already be in lowest terms."""
    s = object.__new__(Series)
    s._nums, s._den, s._coeffs = nums, den, coeffs
    return s


def _reduced(nums, den: int) -> Series:
    """The series ``nums / den`` (``den > 0``) in lowest terms, by one gcd."""
    g = math.gcd(den, *nums)
    if g == 1:
        return _series(tuple(nums), den)
    return _series(tuple(x // g for x in nums), den // g)


def _constant(value: Fraction, n: int) -> Series:
    return _series((value.numerator,) + (0,) * (n - 1), value.denominator)


def _zero_prefix(nums: tuple, n: int) -> int:
    """How many of ``nums[:n]`` lead as zeros (``n`` when all do)."""
    v = 0
    while v < n and not nums[v]:
        v += 1
    return v


def _miller(a, d: int, u: int, v: int, q: int, p0: Fraction) -> tuple:
    """The series with ``P_0 = p0`` and, for ``1 <= k < n = len(a)``,

        q k d P_k = sum_{i=1..k} (u i + v k) a[i] P_{k-i},

    for the integers ``a`` and the nonzero integer divisor ``d``, as the
    triple ``(nums, lcm, coeffs)``: its numerators over its lowest common
    denominator, which :func:`_series` takes as they are, and its
    :class:`Fraction` coefficients.

    This is J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7).
    For a series ``c_i = a[i] / den`` of order 0 the divisor is its integer
    lead ``a[0]``, as the common denominator cancels from
    ``q k c_0 P_k = sum (u i + v k) c_i P_{k-i}``; the weights
    ``(p + q, -q, q)`` from ``p0 = c_0^(p/q)`` give ``c^(p/q)``.  For
    ``exp`` the divisor is ``den`` and ``(1, 0, 1)`` from ``p0 = 1`` give
    ``exp(c - c_0)``.  ``a[0]`` itself is never read.

    The sums run in integers: ``P_0 .. P_{k-1}`` are kept as numerators
    over the running lcm ``lcm`` of their reduced denominators, rescaled
    only when ``lcm`` grows.  Each coefficient is one integer sum and one
    :class:`Fraction`; no common denominator ``d^k`` is ever built.
    """
    ints = [0, *a[1:]]
    weighted = [u * i * x for i, x in enumerate(ints)]
    out, nums, lcm = [p0], [p0.numerator], p0.denominator  # P_j = nums[j] / lcm
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
    return tuple(nums), lcm, tuple(out)
