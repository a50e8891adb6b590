"""Both sides of the four combinatorial identities, compared exactly.

Each identity equates the (n, k) entry of the m-th umbral power of a
worked sequence (left side, evaluated as a triangle matrix power) with a
sum over integer compositions of n - k (right side).  The verification
driver walks a full (n, m, k) grid and reports every case with both
values; comparison is exact rational equality.

``verify`` is the only entry to both sides.  One call builds one left
side, the powers 1..m_max of its family's closed triangle at n_max, and
every case reads its entry from that list.

The paper writes all four right sides in one shape: a multinomial times a
chain of per-part factors, each depending on its part and on the order
left before its block.  One spec, :func:`_readings`, is the only place
that knows each identity's factors, block width and readings:

- t1: (-1)^p B_p^{(order)};
- t2: (-1)^{p + order} order!/(order - p)!, whose falling factorials
  multiply to the n!/k! in front of the paper's sum;
- t3: (-a order)^p;
- remark: blocks of two parts, E^{(-order)} and B^{(order)} 2^{order},
  indexed by the parts or, under the literal reading, by the block.

Per n, each factor is tabulated at exactly the prefix sums and columns
the cases can reach, one ``bernoulli_high``/``euler_high`` call per entry
(the literal remark reading reads one series per order instead), and
scaled to integers over its lcm denominator.  Since the multinomial
splits into one factorial per part, :func:`_prefix_side` sums the shape
with one integer vector over the consumed prefix, a block per step.  It
lists only the compositions of one block's size into its w parts, never
those of n - k, and each case is one ``Fraction``.  The tables live for
one call and the right side never touches a triangle.  Only diagnostics
list the compositions of n - k: the first failing case of an n builds the
walk :func:`_chain_side` over the same tables.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import islice
from typing import Dict, NamedTuple, Optional, Tuple

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

# The most factor products one ``verify`` call may walk: over every case and
# reading, the C(n - k + wm - 1, wm - 1) compositions of n - k into wm parts
# times their wm factors, w being the reading's block width (2 for the
# remark, 1 otherwise).  It is checked before any work; the benchmark's
# largest grids are 75,412 (t1/t2 at 16, 4) and 88,176 (remark at 9, 3, both
# readings).  The prefix recurrence that gives every value costs far less;
# the guard bounds the diagnostics walk, whose output is that many terms.
MAX_FACTOR_PRODUCTS = 10**6


def _check_walk_size(identity: str, n_max: int, m_max: int, readings) -> None:
    # by the hockey-stick identity the cases k = 1..n of one n and m walk
    # C(n - 1 + wm, wm) compositions of wm factors each, and by it again the
    # n = 1..n_max of one m walk C(n_max + wm, wm + 1) of them
    widths = [len(factors) for factors, _ in readings.values()]
    total = 0
    for m in range(1, m_max + 1):
        for width in widths:
            parts = width * m
            total += parts * math.comb(n_max + parts, parts + 1)
            if total > MAX_FACTOR_PRODUCTS:
                raise InvalidParameterError(
                    f"{identity.lower()} with n_max={n_max}, m_max={m_max} walks"
                    f" compositions with more than {MAX_FACTOR_PRODUCTS} factor products")


# -- the right sides -----------------------------------------------------------------


def _factor_rows(n: int, m_max: int, factors, literal: bool):
    # factors[j](c, n - s) at every prefix sum s < n that can start a block
    # (only 0 unless m_max > 1) and every column reached there: c < n - s,
    # or the block index c < m_max under the literal reading.  Returns the
    # rows of each factor scaled to integers over its lcm denominator, and the
    # product of those denominators
    tables, den = [], 1
    for factor in factors:
        rows = [[factor(c, n - s) for c in (range(m_max) if literal else range(n - s))]
                for s in range(n if m_max > 1 else 1)]
        flat, d = scaled_to_integers(value for row in rows for value in row)
        values = iter(flat)
        tables.append([list(islice(values, len(row))) for row in rows])
        den *= d
    return tables, den


def _prefix_side(n: int, m_max: int, tables, den: int, literal: bool):
    """The right side of one n as ``value(k, m)``, for 1 <= k <= n and m <= m_max.

    With w factors, the value is the sum over compositions (k_1 .. k_wm) of
    n - k into m blocks of w parts of

        multinomial(n-1; k_1..k_wm, k-1) * prod_i prod_j factors[j](c_ij, n - S_i),

    where part j of block i is k_{wi+j+1}, S_i is the sum of the parts before
    block i, so n - S_i is the order still left, and the column c_ij is the
    part itself, or the block index i under the ``literal`` remark reading.

    The multinomial splits as (n-1)!/((k-1)! prod k_j!), so each block's
    share depends only on its parts and on S_i.  One vector over the consumed
    prefix, V_0 = e_0, takes a block per step,

        V_{i+1}[s + r] += V_i[s] * B_i[s][r],
        B_i[s][r] = (1/r!) sum_{parts of r into w} multinomial(r; parts)
                    * prod_j factors[j](c_j, n - s),

    and the value is V_m[n - k] * (n-1)!/(k-1)!.  B_i depends on i only under
    the literal reading.  Each B_i is scaled to integers over its lcm
    denominator, so the steps are integer and a case is one ``Fraction``.
    No composition of n - k is enumerated.

    The paper writes t1, t2 and t3 with the order left after each part, n
    minus a suffix sum.  Reversing a composition maps the compositions of
    n - k into m parts onto themselves, keeps the multinomial and turns
    each suffix sum into a prefix sum, so the prefix form here sums the
    same terms, each at the reversed composition.
    """
    width = len(tables)

    def block(i: int):
        entries = []
        for s in range(len(tables[0])):
            row = []
            for r in range(n - s):
                total = 0
                for parts in compositions(r, width):
                    term = multinomial(r, parts).numerator
                    for rows, part in zip(tables, parts):
                        term *= rows[s][i if literal else part]
                    total += term
                row.append(Fraction(total, den * math.factorial(r)))
            entries.append(row)
        flat, d = scaled_to_integers(b for row in entries for b in row)
        scaled = iter(flat)
        return [list(islice(scaled, len(row))) for row in entries], d

    vectors, vector, scale = [], [1] + [0] * (n - 1), 1
    for i in range(m_max):
        if i == 0 or literal:
            table, d = block(i)
        step = [0] * n
        for s, v in enumerate(vector):
            if v:  # the first step reads row 0 alone, the only row at m_max = 1
                for r, b in enumerate(table[s], s):
                    step[r] += v * b
        vector, scale = step, scale * d
        vectors.append((vector, scale))

    def value(k: int, m: int) -> Fraction:
        vector, scale = vectors[m - 1]
        return Fraction(vector[n - k] * (math.factorial(n - 1) // math.factorial(k - 1)), scale)

    return value


def _chain_side(n: int, tables, den: int, literal: bool):
    """The terms of one n as ``terms(k, m)``, for diagnostics only.

    Lists each composition of n - k into m blocks of w = len(tables) parts
    with its term of :func:`_prefix_side`'s sum, read from the same integer
    factor rows, in the lexicographic order of ``compositions``; a term is
    an integer product with one ``Fraction``.  The multinomial is
    (n-1)!/(k-1)! divided by each part's factorial, read from one table.
    """
    width = len(tables)
    fact = [math.factorial(i) for i in range(n)]

    def terms(k: int, m: int):
        listed = []
        top = fact[n - 1] // fact[k - 1]
        for parts in compositions(n - k, width * m):
            term = top
            for part in parts:
                term //= fact[part]
            used = row = 0
            for slot, part in enumerate(parts):
                i, j = divmod(slot, width)
                term *= tables[j][row][i if literal else part]
                used += part
                if j == width - 1:
                    row = used
            listed.append((parts, Fraction(term, den ** m)))
        return tuple(listed)

    return terms


def _side(n: int, m_max: int, factors, literal: bool):
    # ``case(k, m) -> (value, terms)`` for 1 <= k <= n: the value by the prefix
    # recurrence; the terms walk is made on the first call of any case's
    # ``terms()``, once per n
    rows = _factor_rows(n, m_max, factors, literal)
    value = _prefix_side(n, m_max, *rows, literal)
    walk = functools.cache(lambda: _chain_side(n, *rows, literal))
    return lambda k, m: (value(k, m), lambda: walk()(k, m))


def _series_factor(gf, trunc: int):
    # the egf coefficients of gf(order, trunc): one series per order, kept by
    # the returned function
    made = {}

    def factor(index: int, order: int) -> Fraction:
        if order not in made:
            made[order] = gf(order, trunc)
        return made[order].egf_coefficient(index)

    return factor


def _readings(identity: str, m_max: int, a: Optional[Fraction]):
    """The factors of ``identity``'s right side for m <= m_max, per reading.

    Returns ``{interpretation: (factors, literal)}``, the last arguments of
    :func:`_factor_rows`, with the key None for t1, t2 and t3.  No factor is
    evaluated before ``_factor_rows`` tabulates it.  The t1 signs multiply
    to (-1)^{n-k}.  Reversed as in :func:`_prefix_side`, the
    t2 sign exponent is k plus n - S_j for every part j but the first, S_j
    the sum of the parts before it, which has the parity of the sum of
    p + order over all parts; its falling factorials telescope to n!/k!.

    The remark's compositions run over 2m parts.  With S_{2i} the sum of
    the first 2i parts, block i contributes an Euler number of order
    S_{2i} - n, a Bernoulli number of order n - S_{2i} and a factor
    2^{n - S_{2i}}.  Under the ``indexed`` reading the Euler/Bernoulli
    indices are the parts k_{2i+1}, k_{2i+2}; under ``literal`` they are the
    fixed integers 2i + 1, 2i + 2, which reach 2 m_max whatever the
    composition, so that reading reads one series per order at that
    truncation, padded as ``bernoulli_high`` pads it.
    """
    if identity == REMARK:
        trunc = _padded_trunc(2 * m_max + 1)
        euler = _series_factor(euler_series, trunc)
        bernoulli = _series_factor(bernoulli_series, trunc)
        literal, indexed = INTERPRETATIONS
        return {literal: ([lambda i, order: euler(2 * i + 1, -order),
                           lambda i, order: bernoulli(2 * i + 2, order) * 2 ** order], True),
                indexed: ([lambda e, order: euler_high(e, -order),
                           lambda b, order: bernoulli_high(b, order) * 2 ** order], False)}
    factor = {T1: lambda p, order: (-1) ** p * bernoulli_high(p, order),
              T2: lambda p, order: (-1) ** (p + order) * math.perm(order, p),
              T3: lambda p, order: (-a * order) ** p}[identity]
    return {None: ([factor], False)}


# -- reports ------------------------------------------------------------------------


class IdentityCase(NamedTuple):
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


class IdentityReport:
    """One identity's cases on a grid.  ``params`` describes the grid and is
    left out of equality and hashing; the report is immutable."""

    __slots__ = ("identity", "params", "cases")
    identity: str
    params: Dict[str, object]
    cases: Tuple[IdentityCase, ...]

    def __init__(self, identity: str, params: Dict[str, object],
                 cases: Tuple[IdentityCase, ...] = ()):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "cases", cases)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.identity, self.cases) == (other.identity, other.cases)

    def __hash__(self):
        return hash((self.identity, self.cases))

    def __reduce__(self):
        return type(self), (self.identity, self.params, self.cases)

    def __repr__(self):
        return (f"IdentityReport(identity={self.identity!r}, params={self.params!r},"
                f" cases={self.cases!r})")

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
                       f" [{c.interpretation or '-'}]: lhs={format_rational(c.lhs)}")
                for parts, value in c.diagnostics:
                    yield f"  composition {parts}: {format_rational(value)}"
        yield f"all_equal: {'true' if self.all_equal else 'false'}"


def _walk(n_max, m_max, powers, side, low=1, interpretation=None):
    """Compare entry (n, k) of ``powers[m - 1]`` with the right side in
    (n, m, k) order over low <= k <= n <= n_max, 1 <= m <= m_max.
    ``side(n)`` builds the right side for one n; its ``case(k, m)`` returns
    the value and a function listing the per-composition terms, or None
    (xcheck).  Only a mismatch calls it, so a passing case enumerates no
    composition; the listed terms are its diagnostics.
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

    # the right side per interpretation (None when the identity has one reading)
    params: Dict[str, object] = {"n_max": n_max, "m_max": m_max}
    if identity == XCHECK:
        if family_name is None:
            raise InvalidParameterError("xcheck needs a family")
        fam = family(family_name, a=a)
        params["family"] = fam.name
        pair = fam.pair(n_max + 1)
        gf = [umbral_power_gf(pair, m, n_max) for m in range(1, m_max + 1)]
        sides = {None: lambda n: lambda k, m: (gf[m - 1].entry(n, k), None)}
    else:
        fam = family(LHS_FAMILY[identity], 1 if identity == T3 and a is None else a)
        readings = _readings(identity, m_max, fam.a)
        _check_walk_size(identity, n_max, m_max, readings)
        sides = {i: lambda n, reading=reading: _side(n, m_max, *reading)
                 for i, reading in readings.items()}
    if fam.a is not None:
        params["a"] = format_rational(fam.a)
    if None not in sides:
        params["interpretations"] = ",".join(sides)
    powers = fam.closed_triangle(n_max).powers(m_max)

    low = 0 if identity == XCHECK else 1
    cases = [case for interpretation, side in sides.items()
             for case in _walk(n_max, m_max, powers, side, low, interpretation)]
    return IdentityReport(identity, params, tuple(cases))
