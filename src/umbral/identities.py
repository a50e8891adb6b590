"""Both sides of the four combinatorial identities, compared exactly.

Each identity equates the (n, k) entry of the m-th umbral power of a
worked sequence (left side, evaluated as a triangle matrix power) with a
sum over integer compositions of n - k whose terms are built from
multinomials and higher-order Bernoulli/Euler numbers (right side).
The verification driver walks a full (n, m, k) grid and reports every
case with both values; comparison is exact rational equality.

One ``verify`` call builds one left side, the powers 1..m_max of its
family's closed triangle at n_max, and every case reads its entry from
that list.  ``t1_lhs`` .. ``remark_lhs`` are uncached point evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import InvalidParameterError
from .rationals import RationalLike, align_columns, format_rational
from .sheffer import family, umbral_power_gf
from .special import bernoulli_high, compositions, euler_high, multinomial

T1 = "T1"
T2 = "T2"
T3 = "T3"
REMARK = "REMARK"
XCHECK = "XCHECK"
IDENTITY_IDS = (T1, T2, T3, REMARK, XCHECK)

INTERPRETATIONS = ("literal", "indexed")

# the family whose closed triangle gives each identity's left side
LHS_FAMILY = {T1: "rising-factorial", T2: "lah", T3: "abel", REMARK: "mittag-leffler"}


def _check_grid_point(n: int, k: int, m: int) -> None:
    if n < 1 or m < 1:
        raise InvalidParameterError("identity grid needs n >= 1 and m >= 1")
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k={k} outside 1..{n}")


def _lhs_point(identity: str, n: int, k: int, m: int, a: Optional[RationalLike] = None) -> Fraction:
    _check_grid_point(n, k, m)
    return family(LHS_FAMILY[identity], a).closed_triangle(n).powers(m)[-1].entry(n, k)


def _suffix_chain_sum(n: int, k: int, m: int, factor) -> Fraction:
    """Sum over compositions (k_1 .. k_m) of n - k of
    multinomial(n-1; k_1..k_m, k-1) * prod_j factor(k_j, n - suffix_j),
    where suffix_j = k_{j+1} + ... + k_m is the part already consumed."""
    total = Fraction(0)
    for parts in compositions(n - k, m):
        prod = Fraction(1)
        suffix = 0
        for j in range(m - 1, -1, -1):
            prod *= factor(parts[j], n - suffix)
            suffix += parts[j]
        total += multinomial(n - 1, parts + (k - 1,)) * prod
    return total


# -- unsigned Stirling identity ------------------------------------------------


def t1_lhs(n: int, k: int, m: int) -> Fraction:
    """(n, k) entry of the m-th matrix power of the unsigned Stirling triangle."""
    return _lhs_point(T1, n, k, m)


def t1_rhs(n: int, k: int, m: int) -> Fraction:
    """Composition sum with chained higher-order Bernoulli numbers.

    Each composition (k_1 .. k_m) of n - k contributes
    (-1)^{n-k} multinomial(n-1; k_1..k_m, k-1) * prod_j B_{k_j} of order
    n minus the already-consumed suffix k_{j+1} + ... + k_m.
    """
    _check_grid_point(n, k, m)
    sign = -1 if (n - k) % 2 else 1
    return sign * _suffix_chain_sum(n, k, m, bernoulli_high)


# -- Lah identity ----------------------------------------------------------------


def t2_lhs(n: int, k: int, m: int) -> Fraction:
    """(n, k) entry of the m-th matrix power of the signed Lah triangle."""
    return _lhs_point(T2, n, k, m)


def t2_rhs(n: int, k: int, m: int) -> Fraction:
    """Composition sum (n!/k!) * multinomial with the alternating-sign exponent
    built from the m - 1 suffix partial sums of the composition, plus k."""
    _check_grid_point(n, k, m)
    base = Fraction(math.factorial(n) // math.factorial(k))
    total = Fraction(0)
    for parts in compositions(n - k, m):
        exponent = k
        suffix = 0
        for j in range(m - 1, 0, -1):
            suffix += parts[j]
            exponent += n - suffix
        term = multinomial(n - 1, parts + (k - 1,))
        total += -term if exponent % 2 else term
    return base * total


# -- Abel identity ------------------------------------------------------------------


def t3_lhs(n: int, k: int, m: int, a: RationalLike) -> Fraction:
    """(n, k) entry of the m-th matrix power of the Abel triangle."""
    return _lhs_point(T3, n, k, m, a)


def t3_rhs(n: int, k: int, m: int, a: RationalLike) -> Fraction:
    """Composition sum with factors (-a * remaining-order)^{k_i}."""
    _check_grid_point(n, k, m)
    a = Fraction(a)
    if a == 0:
        raise InvalidParameterError("abel parameter must be nonzero")
    return _suffix_chain_sum(n, k, m, lambda part, order: (-a * order) ** part)


# -- Mittag-Leffler identity (both printed readings) -----------------------------------


def remark_lhs(n: int, k: int, m: int) -> Fraction:
    """(n, k) entry of the m-th matrix power of the Mittag-Leffler triangle."""
    return _lhs_point(REMARK, n, k, m)


def remark_rhs_terms(n: int, k: int, m: int,
                     interpretation: str) -> Tuple[Tuple[tuple, Fraction], ...]:
    """Per-composition contributions to the right side, for diagnostics.

    Compositions run over 2m parts.  With prefix sums S_{2i} of the first
    2i parts, block i contributes an Euler number of order S_{2i} - n, a
    Bernoulli number of order n - S_{2i} and a factor 2^{n - S_{2i}}.
    Under the ``indexed`` reading the Euler/Bernoulli indices are the
    composition entries k_{2i+1}, k_{2i+2}; under ``literal`` they are the
    fixed integers 2i+1, 2i+2.
    """
    _check_grid_point(n, k, m)
    if interpretation not in INTERPRETATIONS:
        raise InvalidParameterError(f"unknown interpretation {interpretation!r}")
    indexed = interpretation == "indexed"
    terms = []
    for parts in compositions(n - k, 2 * m):
        mult = multinomial(n - 1, parts + (k - 1,))
        prod = Fraction(1)
        prefix = 0
        for i in range(m):
            e_index = parts[2 * i] if indexed else 2 * i + 1
            b_index = parts[2 * i + 1] if indexed else 2 * i + 2
            prod *= (euler_high(e_index, prefix - n)
                     * bernoulli_high(b_index, n - prefix)
                     * Fraction(2) ** (n - prefix))
            prefix += parts[2 * i] + parts[2 * i + 1]
        terms.append((parts, mult * prod))
    return tuple(terms)


def remark_rhs(n: int, k: int, m: int, interpretation: str) -> Fraction:
    return sum((value for _, value in remark_rhs_terms(n, k, m, interpretation)), Fraction(0))


# -- reports ------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCase:
    n: int
    m: int
    k: int
    lhs: Fraction
    rhs: Fraction
    equal: bool
    interpretation: Optional[str] = None
    diagnostics: Optional[Tuple[Tuple[tuple, Fraction], ...]] = None

    def csv_identity(self, identity: str) -> str:
        if self.interpretation is None:
            return identity.lower()
        return f"{identity.lower()}:{self.interpretation}"


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: Dict[str, object] = field(compare=False)
    cases: Tuple[IdentityCase, ...] = ()

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.cases)

    def to_json_obj(self) -> dict:
        case_objs = []
        for c in self.cases:
            obj = {
                "n": c.n, "m": c.m, "k": c.k,
                "lhs": format_rational(c.lhs),
                "rhs": format_rational(c.rhs),
                "equal": c.equal,
            }
            if c.interpretation is not None:
                obj["interpretation"] = c.interpretation
            if c.diagnostics is not None:
                obj["diagnostics"] = [
                    {"composition": list(parts), "term": format_rational(value)}
                    for parts, value in c.diagnostics
                ]
            case_objs.append(obj)
        return {
            "identity": self.identity.lower(),
            "params": {key: str(value) for key, value in self.params.items()},
            "cases": case_objs,
            "all_equal": self.all_equal,
        }

    def csv_lines(self):
        yield "identity,n,m,k,lhs,rhs,equal"
        for c in self.cases:
            yield ",".join([
                c.csv_identity(self.identity), str(c.n), str(c.m), str(c.k),
                format_rational(c.lhs), format_rational(c.rhs),
                "true" if c.equal else "false",
            ])

    def plain_lines(self):
        params = " ".join(f"{key}={value}" for key, value in self.params.items())
        yield f"identity: {self.identity.lower()}"
        if params:
            yield f"params: {params}"
        rows = [("n", "m", "k", "lhs", "rhs", "equal", "interp")]
        for c in self.cases:
            rows.append((str(c.n), str(c.m), str(c.k),
                         format_rational(c.lhs), format_rational(c.rhs),
                         "yes" if c.equal else "NO",
                         c.interpretation or "-"))
        yield from align_columns(rows)
        for c in self.cases:
            if c.diagnostics is not None and not c.equal:
                yield (f"diagnostics for n={c.n} m={c.m} k={c.k}"
                       f" [{c.interpretation}]: lhs={format_rational(c.lhs)}")
                for parts, value in c.diagnostics:
                    yield f"  composition {parts}: {format_rational(value)}"
        yield f"all_equal: {'true' if self.all_equal else 'false'}"


def _walk(n_max, m_max, powers, rhs, low=1, interpretation=None):
    """Compare entry (n, k) of ``powers[m - 1]`` with ``rhs(n, k, m)`` in
    (n, m, k) order over low <= k <= n <= n_max, 1 <= m <= m_max.  ``rhs``
    returns the value and its per-composition terms, or None; a mismatch
    keeps them as diagnostics.
    """
    cases = []
    for n in range(low, n_max + 1):
        for m in range(1, m_max + 1):
            for k in range(low, n + 1):
                left = powers[m - 1].entry(n, k)
                right, terms = rhs(n, k, m)
                equal = left == right
                cases.append(IdentityCase(
                    n, m, k, left, right, equal, interpretation,
                    diagnostics=None if equal else terms))
    return cases


def _remark_side(interpretation):
    def rhs(n, k, m):
        terms = remark_rhs_terms(n, k, m, interpretation)
        return sum((value for _, value in terms), Fraction(0)), terms
    return rhs


def verify(identity: str, n_max: int, m_max: int, *,
           a: Optional[RationalLike] = None,
           family_name: Optional[str] = None) -> IdentityReport:
    """Evaluate one identity on the full (n, m, k) grid and report each case.

    ``a`` applies only to t3 (default 1) and to xcheck of a family that takes
    it, and ``family_name`` only to xcheck; passing either elsewhere is an
    error.  The left side of every case comes from one list of matrix powers.
    """
    identity = identity.upper()
    if identity not in IDENTITY_IDS:
        raise InvalidParameterError(f"unknown identity {identity!r}")
    if n_max < 1 or m_max < 1:
        raise InvalidParameterError("verification needs n_max >= 1 and m_max >= 1")
    if family_name is not None and identity != XCHECK:
        raise InvalidParameterError(f"identity {identity.lower()} takes no family")
    if a is not None and identity in (T1, T2, REMARK):
        raise InvalidParameterError(f"identity {identity.lower()} takes no parameter a")

    params: Dict[str, object] = {"n_max": n_max, "m_max": m_max}
    if identity == XCHECK:
        if family_name is None:
            raise InvalidParameterError("xcheck needs a family")
        fam = family(family_name, a=a)
        params["family"] = fam.name
    else:
        fam = family(LHS_FAMILY[identity], 1 if identity == T3 and a is None else a)
    if fam.a is not None:
        params["a"] = format_rational(fam.a)
    powers = fam.closed_triangle(n_max).powers(m_max)

    # the right side per interpretation (None when the identity has one reading)
    if identity == REMARK:
        params["interpretations"] = ",".join(INTERPRETATIONS)
        sides = {i: _remark_side(i) for i in INTERPRETATIONS}
    elif identity == XCHECK:
        pair = fam.pair(n_max + 1)
        gf = [umbral_power_gf(pair, m, n_max) for m in range(1, m_max + 1)]
        sides = {None: lambda n, k, m: (gf[m - 1].entry(n, k), None)}
    else:
        rhs = {T1: t1_rhs, T2: t2_rhs, T3: lambda n, k, m: t3_rhs(n, k, m, fam.a)}[identity]
        sides = {None: lambda n, k, m: (rhs(n, k, m), None)}
    low = 0 if identity == XCHECK else 1
    cases = [case for interpretation, side in sides.items()
             for case in _walk(n_max, m_max, powers, side, low, interpretation)]
    return IdentityReport(identity, params, tuple(cases))
