"""Both sides of the four combinatorial identities, compared exactly.

Each identity equates the (n, k) entry of the m-th umbral power of a
worked sequence (left side, evaluated as a triangle matrix power) with a
sum over integer compositions of n - k whose terms are built from
multinomials and higher-order Bernoulli/Euler numbers (right side).
The verification driver walks a full (n, m, k) grid and reports every
case with both values; comparison is exact rational equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .errors import InvalidParameterError
from .rationals import RationalLike, align_columns, format_rational
from .sheffer import family, umbral_power_gf, umbral_power_matrix
from .special import bernoulli_high, compositions, euler_high, multinomial
from .triangles import CoeffTriangle

T1 = "T1"
T2 = "T2"
T3 = "T3"
REMARK = "REMARK"
XCHECK = "XCHECK"
IDENTITY_IDS = (T1, T2, T3, REMARK, XCHECK)

INTERPRETATIONS = ("literal", "indexed")


def _check_grid_point(n: int, k: int, m: int) -> None:
    if n < 1 or m < 1:
        raise InvalidParameterError("identity grid needs n >= 1 and m >= 1")
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k={k} outside 1..{n}")


@lru_cache(maxsize=None)
def _power_entry_table(name: str, a: Optional[Fraction], n_top: int, m: int) -> CoeffTriangle:
    return family(name, a).closed_triangle(n_top).matpow(m)


# -- unsigned Stirling identity ------------------------------------------------


def t1_lhs(n: int, k: int, m: int) -> Fraction:
    """(n, k) entry of the m-th matrix power of the unsigned Stirling triangle."""
    _check_grid_point(n, k, m)
    return _power_entry_table("rising-factorial", None, n, m).entry(n, k)


def t1_rhs(n: int, k: int, m: int) -> Fraction:
    """Composition sum with chained higher-order Bernoulli numbers.

    Each composition (k_1 .. k_m) of n - k contributes
    (-1)^{n-k} multinomial(n-1; k_1..k_m, k-1) * prod_j B_{k_j} of order
    n minus the already-consumed suffix k_{j+1} + ... + k_m.
    """
    _check_grid_point(n, k, m)
    sign = -1 if (n - k) % 2 else 1
    total = Fraction(0)
    for parts in compositions(n - k, m):
        prod = Fraction(1)
        suffix = 0
        for j in range(m - 1, -1, -1):
            prod *= bernoulli_high(parts[j], n - suffix)
            suffix += parts[j]
        total += multinomial(n - 1, parts + (k - 1,)) * prod
    return sign * total


# -- Lah identity ----------------------------------------------------------------


def t2_lhs(n: int, k: int, m: int) -> Fraction:
    """(n, k) entry of the m-th matrix power of the signed Lah triangle."""
    _check_grid_point(n, k, m)
    return _power_entry_table("lah", None, n, m).entry(n, k)


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
    _check_grid_point(n, k, m)
    a = Fraction(a)
    if a == 0:
        raise InvalidParameterError("abel parameter must be nonzero")
    return _power_entry_table("abel", a, n, m).entry(n, k)


def t3_rhs(n: int, k: int, m: int, a: RationalLike) -> Fraction:
    """Composition sum with factors (-a * remaining-order)^{k_i}."""
    _check_grid_point(n, k, m)
    a = Fraction(a)
    if a == 0:
        raise InvalidParameterError("abel parameter must be nonzero")
    total = Fraction(0)
    for parts in compositions(n - k, m):
        prod = Fraction(1)
        suffix = 0
        for i in range(m - 1, -1, -1):
            prod *= (-a * (n - suffix)) ** parts[i]
            suffix += parts[i]
        total += multinomial(n - 1, parts + (k - 1,)) * prod
    return total


# -- Mittag-Leffler identity (both printed readings) -----------------------------------


def remark_lhs(n: int, k: int, m: int) -> Fraction:
    """(n, k) entry of the m-th matrix power of the Mittag-Leffler triangle."""
    _check_grid_point(n, k, m)
    return _power_entry_table("mittag-leffler", None, n, m).entry(n, k)


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
    total = Fraction(0)
    for _, value in remark_rhs_terms(n, k, m, interpretation):
        total += value
    return total


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


def _walk(n_max, m_max, lhs, rhs, low=1, interpretation=None):
    """Compare ``lhs(n, k, m)`` with ``rhs(n, k, m)`` in (n, m, k) order over
    low <= k <= n <= n_max, 1 <= m <= m_max.  ``rhs`` returns the value and
    its per-composition terms, or None; a mismatch keeps them as diagnostics.
    """
    cases = []
    for n in range(low, n_max + 1):
        for m in range(1, m_max + 1):
            for k in range(low, n + 1):
                left = lhs(n, k, m)
                right, terms = rhs(n, k, m)
                equal = left == right
                cases.append(IdentityCase(
                    n, m, k, left, right, equal, interpretation,
                    diagnostics=None if equal else terms))
    return cases


def _without_terms(rhs):
    return lambda n, k, m: (rhs(n, k, m), None)


def _remark_side(interpretation):
    def rhs(n, k, m):
        terms = remark_rhs_terms(n, k, m, interpretation)
        return sum((value for _, value in terms), Fraction(0)), terms
    return rhs


def verify(identity: str, n_max: int, m_max: int, *,
           a: Optional[RationalLike] = None,
           family_name: Optional[str] = None) -> IdentityReport:
    """Evaluate one identity on the full (n, m, k) grid and report each case.

    ``a`` applies only to t3 and to xcheck of a family that takes it, and
    ``family_name`` only to xcheck; passing either elsewhere is an error.
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
    if identity == T1:
        cases = _walk(n_max, m_max, t1_lhs, _without_terms(t1_rhs))
    elif identity == T2:
        cases = _walk(n_max, m_max, t2_lhs, _without_terms(t2_rhs))
    elif identity == T3:
        a = Fraction(a if a is not None else 1)
        params["a"] = format_rational(a)
        cases = _walk(n_max, m_max,
                      lambda n, k, m: t3_lhs(n, k, m, a),
                      _without_terms(lambda n, k, m: t3_rhs(n, k, m, a)))
    elif identity == REMARK:
        params["interpretations"] = ",".join(INTERPRETATIONS)
        cases = [case for interpretation in INTERPRETATIONS
                 for case in _walk(n_max, m_max, remark_lhs, _remark_side(interpretation),
                                   interpretation=interpretation)]
    else:
        if family_name is None:
            raise InvalidParameterError("xcheck needs a family")
        fam = family(family_name, a=a)
        params["family"] = fam.name
        if fam.a is not None:
            params["a"] = format_rational(fam.a)
        closed = fam.closed_triangle(n_max)
        pair = fam.pair(n_max + 1)
        matrix = {m: umbral_power_matrix(closed, m) for m in range(1, m_max + 1)}
        gf = {m: umbral_power_gf(pair, m, n_max) for m in range(1, m_max + 1)}
        cases = _walk(n_max, m_max,
                      lambda n, k, m: matrix[m].entry(n, k),
                      _without_terms(lambda n, k, m: gf[m].entry(n, k)), low=0)
    return IdentityReport(identity, params, tuple(cases))
