"""Seeded inputs for the four benchmark workloads.

Every workload is a list of operations built from ``--seed`` alone; umbral
only ever receives the generated literals.  Seeded parameters are drawn from
small sets of values that cost the same, so that the cost of a workload
barely depends on the seed while the values, and so the outputs, differ
from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

SERIES_N = 128  # truncation of the revert / compose / pow inputs
GF_TRUNC = 96   # truncation of bernoulli-gf / euler-gf
SESSION_GF_TRUNC = 64

# Abel parameters for revert/compose/xcheck.  The sign of a only flips signs
# of every intermediate, and 2/3 and 3/2 cost the same within a few percent;
# other heights move the N=128 revert by up to 1.8x, so they are left out.
ABEL_A = tuple(s * Fraction(p, q) for p, q in ((2, 3), (3, 2)) for s in (1, -1))
# Non-integer exponents +-p/q with p*q = 6, so `pow` takes the rational path.
ALPHAS = tuple(s * Fraction(p, q) for p, q in ((1, 6), (2, 3), (3, 2)) for s in (1, -1))
# t3 costs the same for all of these (measured within 10%), so the session
# can draw from a wider set.
SESSION_A = tuple(s * Fraction(p, q) for p, q in ((1, 6), (2, 3), (3, 2), (6, 1), (1, 10),
                                                   (2, 5), (5, 2), (10, 1)) for s in (1, -1))
SESSION_ALPHAS = tuple(s * Fraction(p, q) for q in range(2, 6) for p in range(1, 6)
                       if math.gcd(p, q) == 1 for s in (1, -1))


@dataclass(frozen=True)
class VerifyCheck:
    """What a correct ``verify`` report looks like."""

    identity: str               # t1, t2, t3, remark, xcheck
    n_max: int
    m_max: int
    fmt: str                    # plain, csv, json
    a: Optional[Fraction] = None
    family: Optional[str] = None


@dataclass(frozen=True)
class SeriesCheck:
    """The inputs a ``series`` result is checked against."""

    op: str                     # revert, compose, pow, bernoulli-gf, euler-gf
    trunc: int
    coeffs: Tuple[Fraction, ...] = ()
    inner: Tuple[Fraction, ...] = ()
    alpha: Optional[Fraction] = None


@dataclass(frozen=True)
class TableCheck:
    family: str
    n_max: int


@dataclass(frozen=True)
class Op:
    """One CLI command (``argv`` after ``umbral``) or one library call."""

    name: str
    argv: Tuple[str, ...]
    check: object
    expected_exit: int = 0
    call: dict = field(default_factory=dict)  # library-session only


def _lit(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _abel_delta(a: Fraction, n: int) -> Tuple[Fraction, ...]:
    # t e^{a t}
    return (Fraction(0),) + tuple(a ** (k - 1) / math.factorial(k - 1) for k in range(1, n))


def _exp_series(a: Fraction, n: int) -> Tuple[Fraction, ...]:
    # e^{a t}
    return tuple(a ** k / math.factorial(k) for k in range(n))


def _verify_op(name, identity, n_max, m_max, fmt, a=None, family=None, expected_exit=0):
    argv = ["verify", identity, "--n-max", str(n_max), "--m-max", str(m_max)]
    if family is not None:
        argv += ["--family", family]
    if a is not None:
        argv.append(f"--a={a}")  # "--a -3/2" would parse as an option and exit 2
    argv += ["--format", fmt]
    check = VerifyCheck(identity, n_max, m_max, fmt, a, family)
    return Op(name, tuple(argv), check, expected_exit)


def _series_op(name, check: SeriesCheck):
    # "--flag=value": a value starting with "-" would otherwise parse as an option
    argv = ["series", check.op]
    if check.coeffs:
        argv.append(f"--coeffs={_lit(check.coeffs)}")
    if check.inner:
        argv.append(f"--inner={_lit(check.inner)}")
    if check.alpha is not None:
        argv.append(f"--alpha={check.alpha}")
    if check.op in ("bernoulli-gf", "euler-gf"):
        argv += ["--trunc", str(check.trunc)]
    return Op(name, tuple(argv), check)


def identity_grid(rng: random.Random) -> List[Op]:
    return [
        _verify_op("t1", "t1", 16, 4, "plain"),
        _verify_op("t2", "t2", 16, 4, "csv"),
        _verify_op("t3", "t3", 14, 4, "json", a=rng.choice(ABEL_A)),
        # the literal reading fails by design, so the expected exit is 1
        _verify_op("remark", "remark", 9, 3, "plain", expected_exit=1),
    ]


def series_core(rng: random.Random) -> List[Op]:
    n = SERIES_N
    small_delta = (Fraction(0), Fraction(1)) + tuple(_small(rng) for _ in range(n - 2))
    small_unit = (Fraction(1),) + tuple(_small(rng) for _ in range(n - 1))
    small_any = tuple(_small(rng) for _ in range(n))
    return [
        _series_op("revert-small", SeriesCheck("revert", n, small_delta)),
        _series_op("revert-abel", SeriesCheck("revert", n, _abel_delta(rng.choice(ABEL_A), n))),
        _series_op("compose", SeriesCheck("compose", n, small_any,
                                          inner=_abel_delta(rng.choice(ABEL_A), n))),
        _series_op("pow-small", SeriesCheck("pow", n, small_unit, alpha=rng.choice(ALPHAS))),
        _series_op("pow-exp", SeriesCheck("pow", n, _exp_series(rng.choice(ABEL_A), n),
                                          alpha=rng.choice(ALPHAS))),
        _series_op("bernoulli-gf", SeriesCheck("bernoulli-gf", GF_TRUNC, alpha=rng.choice(ALPHAS))),
        _series_op("euler-gf", SeriesCheck("euler-gf", GF_TRUNC, alpha=rng.choice(ALPHAS))),
    ]


def umbral_power(rng: random.Random) -> List[Op]:
    return [
        _verify_op("xcheck-mittag-leffler", "xcheck", 30, 4, "plain", family="mittag-leffler"),
        _verify_op("xcheck-abel", "xcheck", 30, 4, "json", a=rng.choice(ABEL_A), family="abel"),
        _verify_op("xcheck-rising-factorial", "xcheck", 30, 4, "csv", family="rising-factorial"),
        _verify_op("xcheck-lah-signed", "xcheck", 30, 4, "plain", family="lah-signed"),
        Op("table-mittag-leffler",
           ("table", "--family", "mittag-leffler", "--n-max", "60", "--format", "json"),
           TableCheck("mittag-leffler", 60)),
    ]


def library_session(rng: random.Random) -> List[Op]:
    """Library calls; results are rendered as the CLI's json / series text."""
    ops = []
    for identity, n_max, m_max, a in (
            [("t1", 14, 4, None), ("t2", 14, 4, None)]
            + [("t3", 10, 4, a) for a in rng.sample(SESSION_A, 8)]):
        call = {"fn": "verify", "identity": identity, "n_max": n_max, "m_max": m_max,
                "a": None if a is None else str(a)}
        ops.append(Op(f"verify-{identity}" + ("" if a is None else f"-{a}"), (),
                      VerifyCheck(identity, n_max, m_max, "json", a), call=call))
    for alpha in rng.sample(SESSION_ALPHAS, 12):
        for op, fn in (("bernoulli-gf", "bernoulli_series"), ("euler-gf", "euler_series")):
            call = {"fn": fn, "alpha": str(alpha), "trunc": SESSION_GF_TRUNC}
            ops.append(Op(f"{fn}-{alpha}", (), SeriesCheck(op, SESSION_GF_TRUNC, alpha=alpha),
                          call=call))
    return ops


WORKLOADS = {
    "identity-grid": identity_grid,
    "series-core": series_core,
    "umbral-power": umbral_power,
    "library-session": library_session,
}
CLI_WORKLOADS = ("identity-grid", "series-core", "umbral-power")


def build(workload: str, seed: int) -> List[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
