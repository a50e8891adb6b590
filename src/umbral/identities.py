"""Both sides of the four combinatorial identities, compared exactly.

Each identity equates the (n, k) entry of the m-th umbral power of a
worked sequence (left side, evaluated as a triangle matrix power) with a
sum over integer compositions of n - k (right side).  The verification
driver walks a full (n, m, k) grid and reports every case with both
values; comparison is exact rational equality.

One ``verify`` call builds one left side, the powers 1..m_max of its
family's closed triangle at n_max, and every case reads its entry from
that list.

The paper writes all four right sides in one shape: a multinomial times a
chain of per-part factors, each depending on its part and on the order
left before it.  One walker, :func:`_chain_side`, sums that shape for
every identity, and what differs lives in its factor tables:

- t1: (-1)^p B_p^{(order)};
- t2: (-1)^{p + order}, with the sum multiplied by n!/k!;
- t3: (-a order)^p;
- remark: blocks of two parts, E^{(-order)} and B^{(order)} 2^{order},
  indexed by the parts or, under the literal reading, by the block.

Per n, each table holds exactly the factors that the compositions of that
n can reach, one ``bernoulli_high``/``euler_high`` call per entry (the
literal remark reading reads one series per order instead), scaled to
integers over its lcm denominator.  Each case is then an integer sum with
one ``Fraction``.  The tables live for one call and the right side never
touches a triangle.  Only the remark keeps its per-composition terms, as
diagnostics of a failing case.  ``t1_rhs`` .. ``remark_rhs`` are
single-case calls of the same walker; ``t1_lhs`` .. ``remark_lhs`` are
uncached point evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Dict, Optional, Tuple

from .errors import InvalidParameterError
from .rationals import RationalLike, align_columns, format_rational, scaled_to_integers
from .sheffer import family, umbral_power_gf
from .special import (_padded_trunc, bernoulli_high, bernoulli_series, compositions,
                      euler_high, euler_series, multinomial)

T1 = "T1"
T2 = "T2"
T3 = "T3"
REMARK = "REMARK"
XCHECK = "XCHECK"
IDENTITY_IDS = (T1, T2, T3, REMARK, XCHECK)

INTERPRETATIONS = ("literal", "indexed")

# the family whose closed triangle gives each identity's left side
LHS_FAMILY = {T1: "rising-factorial", T2: "lah", T3: "abel", REMARK: "mittag-leffler"}

# The most factor products the right sides of one ``verify`` call may take:
# over every n, m, k and reading, the C(n - k + wm - 1, wm - 1) compositions
# of n - k into wm parts times their wm factors, with w = 2 for the remark
# and 1 otherwise.  ``verify`` checks the grid against it before any work;
# the benchmark's largest grids are 75,412 (t1/t2 at 16, 4) and 88,176
# (remark at 9, 3, both readings).
MAX_FACTOR_PRODUCTS = 10**6


def _check_grid_point(n: int, k: int, m: int) -> None:
    if n < 1 or m < 1:
        raise InvalidParameterError("identity grid needs n >= 1 and m >= 1")
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k={k} outside 1..{n}")


def _check_walk_size(identity: str, n_max: int, m_max: int) -> None:
    width, readings = (2, len(INTERPRETATIONS)) if identity == REMARK else (1, 1)
    total = 0
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            parts = width * m
            # the sum over k = 1..n of C(n - k + parts - 1, parts - 1)
            total += readings * parts * math.comb(n - 1 + parts, parts)
            if total > MAX_FACTOR_PRODUCTS:
                raise InvalidParameterError(
                    f"{identity.lower()} with n_max={n_max}, m_max={m_max} walks compositions"
                    f" with more than {MAX_FACTOR_PRODUCTS} factor products")


def _lhs_point(identity: str, n: int, k: int, m: int, a: Optional[RationalLike] = None) -> Fraction:
    _check_grid_point(n, k, m)
    return family(LHS_FAMILY[identity], a).closed_triangle(n).powers(m)[-1].entry(n, k)


# -- the right sides -----------------------------------------------------------------


def _chain_side(n: int, m_max: int, factors, literal: bool = False):
    """The right side of one n as ``case(k, m) -> (value, terms)``, for m <= m_max.

    With w = len(factors), the value is the sum over compositions
    (k_1 .. k_wm) of n - k into m blocks of w parts of

        multinomial(n-1; k_1..k_wm, k-1) * prod_i prod_j factors[j](c_ij, n - S_i),

    where part j of block i is k_{wi+j+1}, S_i is the sum of the parts before
    block i, so n - S_i is the order still left, and the column c_ij is the
    part itself, or the block index i under the ``literal`` remark reading.
    ``terms()`` lists each composition with its term.

    The paper writes t1, t2 and t3 with the order left after each part, n
    minus a suffix sum.  Reversing a composition maps the compositions of
    n - k into m parts onto themselves, keeps the multinomial and turns
    each suffix sum into a prefix sum, so the prefix form here sums the
    same terms.

    Each factor is tabulated once, at every prefix sum that can start a
    block (only 0 unless m_max > 1) and every column the compositions
    reach there, and scaled to integers over its lcm denominator, so a case
    is an integer sum with one ``Fraction``.
    """
    width = len(factors)
    tables, den = [], 1
    for factor in factors:
        rows = [[factor(c, n - s) for c in (range(m_max) if literal else range(n - s))]
                for s in range(n if m_max > 1 else 1)]
        flat, d = scaled_to_integers(value for row in rows for value in row)
        values = iter(flat)
        tables.append([list(islice(values, len(row))) for row in rows])
        den *= d

    def case(k: int, m: int):
        # part j of block i: its table, its block and whether it ends the block
        slots = [(tables[j], i, j == width - 1) for i in range(m) for j in range(width)]
        listed, terms = [], []
        for parts in compositions(n - k, width * m):
            term = multinomial(n - 1, parts + (k - 1,)).numerator
            used = row = 0
            for (table, i, last), part in zip(slots, parts):
                term *= table[row][i if literal else part]
                used += part
                if last:
                    row = used
            listed.append(parts)
            terms.append(term)
        scale = den ** m
        return Fraction(sum(terms), scale), lambda: tuple(
            (parts, Fraction(term, scale)) for parts, term in zip(listed, terms))

    return case


def _t1_side(n: int, m_max: int):
    def factor(p: int, order: int) -> Fraction:
        # (-1)^p B_p^{(order)}: the signs of the parts multiply to (-1)^{n-k}
        value = bernoulli_high(p, order)
        return -value if p % 2 else value

    side = _chain_side(n, m_max, [factor])
    return lambda k, m: (side(k, m)[0], None)


def _t2_side(n: int, m_max: int):
    # reversed as in _chain_side, the sign exponent of t2_rhs is k plus
    # n - S_j for every part j but the first, S_j the sum of the parts before
    # it; that has the parity of the sum of k_j + n - S_j over all parts
    side = _chain_side(n, m_max, [lambda p, order: (-1) ** (p + order)])
    return lambda k, m: (side(k, m)[0] * (math.factorial(n) // math.factorial(k)), None)


def _t3_side(n: int, m_max: int, a: Fraction):
    side = _chain_side(n, m_max, [lambda p, order: (-a * order) ** p])
    return lambda k, m: (side(k, m)[0], None)


def _series_factor(gf, trunc: int):
    # the egf coefficients of gf(order, trunc): one series per order, kept by
    # the returned function
    made = {}

    def factor(index: int, order: int) -> Fraction:
        if order not in made:
            made[order] = gf(order, trunc)
        return made[order].egf_coefficient(index)

    return factor


def _remark_readings(m_max: int):
    """Per reading, the factors of a block (e, b) and whether it is literal.

    With S the sum of the parts before the block, a block contributes
    E_e^{(S - n)} B_b^{(n - S)} 2^{n - S}; the 2^{n - S} is folded into the
    Bernoulli factor.  The literal reading takes the fixed indices 2i + 1
    (Euler) and 2i + 2 (Bernoulli) for block i instead of e and b.  They
    reach 2 m_max whatever the composition, so it reads one series per
    order at that truncation, padded as ``bernoulli_high`` pads it.
    """
    trunc = _padded_trunc(2 * m_max + 1)
    euler = _series_factor(euler_series, trunc)
    bernoulli = _series_factor(bernoulli_series, trunc)
    return {"literal": ([lambda i, order: euler(2 * i + 1, -order),
                         lambda i, order: bernoulli(2 * i + 2, order) * 2 ** order], True),
            "indexed": ([lambda e, order: euler_high(e, -order),
                         lambda b, order: bernoulli_high(b, order) * 2 ** order], False)}


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
    return _t1_side(n, m)(k, m)[0]


# -- Lah identity ----------------------------------------------------------------


def t2_lhs(n: int, k: int, m: int) -> Fraction:
    """(n, k) entry of the m-th matrix power of the signed Lah triangle."""
    return _lhs_point(T2, n, k, m)


def t2_rhs(n: int, k: int, m: int) -> Fraction:
    """Composition sum (n!/k!) * multinomial with a sign (-1)^e, the exponent
    e built from the m - 1 suffix partial sums of the composition, plus k."""
    _check_grid_point(n, k, m)
    return _t2_side(n, m)(k, m)[0]


# -- Abel identity ------------------------------------------------------------------


def t3_lhs(n: int, k: int, m: int, a: RationalLike) -> Fraction:
    """(n, k) entry of the m-th matrix power of the Abel triangle."""
    return _lhs_point(T3, n, k, m, a)


def t3_rhs(n: int, k: int, m: int, a: RationalLike) -> Fraction:
    """Composition sum with factors (-a * remaining-order)^{k_i}."""
    _check_grid_point(n, k, m)
    return _t3_side(n, m, family(LHS_FAMILY[T3], a).a)(k, m)[0]


# -- Mittag-Leffler identity (both printed readings) -----------------------------------


def remark_lhs(n: int, k: int, m: int) -> Fraction:
    """(n, k) entry of the m-th matrix power of the Mittag-Leffler triangle."""
    return _lhs_point(REMARK, n, k, m)


def _remark_case(n: int, k: int, m: int, interpretation: str):
    _check_grid_point(n, k, m)
    if interpretation not in INTERPRETATIONS:
        raise InvalidParameterError(f"unknown interpretation {interpretation!r}")
    return _chain_side(n, m, *_remark_readings(m)[interpretation])(k, m)


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
    return _remark_case(n, k, m, interpretation)[1]()


def remark_rhs(n: int, k: int, m: int, interpretation: str) -> Fraction:
    return _remark_case(n, k, m, interpretation)[0]


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


def _walk(n_max, m_max, powers, side, low=1, interpretation=None):
    """Compare entry (n, k) of ``powers[m - 1]`` with the right side in
    (n, m, k) order over low <= k <= n <= n_max, 1 <= m <= m_max.
    ``side(n)`` builds the right side for one n; its ``case(k, m)`` returns
    the value and a function listing the per-composition terms, or None.
    Only a mismatch lists them, as diagnostics.
    """
    cases = []
    for n in range(low, n_max + 1):
        case = side(n)
        for m in range(1, m_max + 1):
            for k in range(low, n + 1):
                left = powers[m - 1].entry(n, k)
                right, terms = case(k, m)
                equal = left == right
                cases.append(IdentityCase(
                    n, m, k, left, right, equal, interpretation,
                    diagnostics=None if equal or terms is None else terms()))
    return cases


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
    if identity in LHS_FAMILY:
        _check_walk_size(identity, n_max, m_max)

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
        readings = _remark_readings(m_max)
        sides = {i: lambda n, reading=readings[i]: _chain_side(n, m_max, *reading)
                 for i in INTERPRETATIONS}
    elif identity == XCHECK:
        pair = fam.pair(n_max + 1)
        gf = [umbral_power_gf(pair, m, n_max) for m in range(1, m_max + 1)]
        sides = {None: lambda n: lambda k, m: (gf[m - 1].entry(n, k), None)}
    else:
        sides = {None: {T1: lambda n: _t1_side(n, m_max),
                        T2: lambda n: _t2_side(n, m_max),
                        T3: lambda n: _t3_side(n, m_max, fam.a)}[identity]}
    low = 0 if identity == XCHECK else 1
    cases = [case for interpretation, side in sides.items()
             for case in _walk(n_max, m_max, powers, side, low, interpretation)]
    return IdentityReport(identity, params, tuple(cases))
