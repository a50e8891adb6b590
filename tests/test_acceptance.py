"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every comparison is exact rational equality (zero tolerance).  Randomised
criteria use a fixed seed so the suite is deterministic end to end.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction as F

from umbral import (
    CoeffTriangle,
    Series,
    ShefferPair,
    family,
    lah,
    lah_triangle,
    mittag_leffler_triangle,
    sheffer_triangle,
    stirling1_unsigned,
    umbral_power_gf,
    verify,
    verify_orthogonality,
)
from umbral import bernoulli_high, euler_high, identities, mittag_leffler_triangle as ml_triangle

from oracles import classical_bernoulli, conv_inverse, naive_chain_sum, poly_product

FAMILY_INSTANCES = (
    ("rising-factorial", None),
    ("lah-signed", None),
    ("abel", F(1)),
    ("abel", F(-1)),
    ("abel", F(1, 2)),
    ("mittag-leffler", None),
)

COEFF_POOL = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(1, 3)]
DELTA_LEAD_POOL = [F(1), F(-1), F(1, 2), F(-1, 2), F(2)]


def report(cid: str, description: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[{cid}] {description}: {status} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"{cid} failed"
    assert elapsed < budget, f"{cid} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_three_path_agreement():
    started = time.time()
    n_max, ok = 12, True
    for name, a in FAMILY_INSTANCES:
        fam = family(name, a=a)
        closed = fam.closed_triangle(n_max)
        pair = fam.pair(n_max + 1)
        for m in range(1, 5):
            matrix_path = closed.powers(m)[-1]
            gf_path = umbral_power_gf(pair, m, n_max)
            ok = ok and matrix_path == gf_path
            if m == 1:
                ok = ok and matrix_path == closed and gf_path == closed
    report("C1", "three-path agreement, 6 families, m<=4, n_max=12", ok, started, 60)


def test_criterion_2_theorem_unsigned_stirling():
    started = time.time()
    result = verify("t1", 10, 4)
    report("C2", "unsigned Stirling / Bernoulli identity, n<=10, m<=4",
           result.all_equal, started, 120)


def test_criterion_3_theorem_lah():
    started = time.time()
    result = verify("t2", 10, 4)
    involution = lah_triangle(10, signed=True).powers(2)[-1] == CoeffTriangle.identity(10)
    report("C3", "Lah identity, n<=10, m<=4, plus signed-Lah involution",
           result.all_equal and involution, started, 120)


def test_criterion_4_theorem_abel():
    started = time.time()
    ok = all(verify("t3", 10, 3, a=a).all_equal for a in (F(1), F(-1), F(1, 2)))
    report("C4", "Abel identity, n<=10, m<=3, a in {1,-1,1/2}", ok, started, 120)


def test_criterion_5_remark_diagnostics():
    started = time.time()
    n_max, m_max = 8, 2

    # both readings run to completion and report deterministically
    grid = verify("remark", n_max, m_max)
    first = json.dumps(grid.to_json_obj(), indent=2)
    second = json.dumps(verify("remark", n_max, m_max).to_json_obj(), indent=2)
    deterministic = first == second
    obj = json.loads(first)
    ran_both = {c["interpretation"] for c in obj["cases"]} == {"literal", "indexed"}
    has_diagnostics = all("diagnostics" in c for c in obj["cases"] if not c["equal"])
    indexed = [c for c in grid.cases if c.interpretation == "indexed"]

    # the left side is unconditionally the Mittag-Leffler matrix power
    lhs_ok = all(c.lhs == naive_chain_sum(lambda i, j: ml_triangle(i).entry(i, j), c.n, c.k, c.m)
                 for c in indexed)

    # diagonal cases under the indexed reading: single all-zero composition,
    # value 2^{nm} from the leading coefficients
    diagonal_ok = True
    reading = identities._readings(identities.REMARK, m_max, None)["indexed"]
    for c in indexed:
        if c.k == c.n:
            diagonal_ok = diagonal_ok and c.lhs == c.rhs == F(2) ** (c.n * c.m)
            terms = identities._side(c.n, m_max, *reading)(c.k, c.m)[1]()
            diagonal_ok = diagonal_ok and [p for p, _ in terms] == [(0,) * (2 * c.m)]

    ok = lhs_ok and deterministic and ran_both and has_diagnostics and diagonal_ok
    report("C5", "Mittag-Leffler power diagnostics, n<=8, m<=2", ok, started, 120)


def test_criterion_6_series_core_properties():
    started = time.time()
    rng = random.Random(271828)
    trunc, ok = 32, True
    t = Series.t(trunc)

    for _ in range(100):
        f = Series([F(0), rng.choice(DELTA_LEAD_POOL)]
                   + [rng.choice(COEFF_POOL) for _ in range(trunc - 2)])
        fbar = f.revert()
        ok = ok and f.compose(fbar) == t and fbar.compose(f) == t

    one = Series.constant(1, trunc)
    nonzero = [c for c in COEFF_POOL if c]
    for _ in range(100):
        s = Series([rng.choice(nonzero)] + [rng.choice(COEFF_POOL) for _ in range(trunc - 1)])
        ok = ok and s * s.inv() == one

    exponents = [F(1), F(-1), F(2), F(1, 2), F(-1, 2), F(1, 3), F(-2, 3)]
    for _ in range(50):
        s = Series([F(1)] + [rng.choice(COEFF_POOL) for _ in range(11)])
        p, q = rng.choice(exponents), rng.choice(exponents)
        ok = ok and s.rat_pow(p) * s.rat_pow(q) == s.rat_pow(p + q)

    report("C6", "reversion round-trips, unit law, power additivity", ok, started, 60)


def test_criterion_7_umbral_algebra_laws():
    started = time.time()
    ok = True

    # biorthogonality for the four worked families, n, k <= 10
    for name, a in (("rising-factorial", None), ("lah-signed", None),
                    ("abel", F(1)), ("mittag-leffler", None)):
        fam = family(name, a=a)
        pair = fam.pair(12)
        ok = ok and verify_orthogonality(pair, fam.closed_triangle(10), 10).all_ok

    # composition and inverse laws on 20 random small pairs at n_max = 8
    rng = random.Random(314159)
    n_max = 8
    ident = CoeffTriangle.identity(n_max)
    lead = [F(1), F(-1), F(2), F(1, 2)]

    def draw_pair():
        g = Series([rng.choice(lead)] + [rng.choice(COEFF_POOL) for _ in range(n_max + 1)])
        f = Series([F(0), rng.choice(lead)] + [rng.choice(COEFF_POOL) for _ in range(n_max)])
        return ShefferPair(g, f)

    for _ in range(20):
        s_pair, r_pair = draw_pair(), draw_pair()
        composed = ShefferPair(s_pair.g * r_pair.g.compose(s_pair.f),
                               r_pair.f.compose(s_pair.f))
        ok = ok and sheffer_triangle(composed, n_max) == sheffer_triangle(r_pair, n_max).matmul(
            sheffer_triangle(s_pair, n_max))

        pair = draw_pair()
        fbar = pair.f.revert()
        inverse_pair = ShefferPair(pair.g.compose(fbar).inv(), fbar)
        t = sheffer_triangle(pair, n_max)
        t_inv = sheffer_triangle(inverse_pair, n_max)
        ok = ok and t_inv.matmul(t) == ident and t.matmul(t_inv) == ident

    report("C7", "biorthogonality, composition law, inverse law", ok, started, 60)


def test_criterion_8_known_value_spot_checks():
    started = time.time()
    ok = True

    # order-1 Bernoulli numbers against the independent recurrence oracle
    classical = classical_bernoulli(2)
    ok = ok and classical[1] == F(-1, 2) and classical[2] == F(1, 6)
    ok = ok and bernoulli_high(1, 1) == F(-1, 2) and bernoulli_high(2, 1) == F(1, 6)

    # first-order Euler number against direct series inversion
    base = [F(1)] + [F(1, 2 * math.factorial(k)) for k in range(1, 3)]
    ok = ok and conv_inverse(base, 2)[1] == F(-1, 2)
    ok = ok and euler_high(1, 1) == F(-1, 2)

    # unsigned Stirling row 3 from the product x(x+1)(x+2)
    expansion = poly_product(poly_product([0, 1], [1, 1]), [2, 1])
    ok = ok and expansion[1:] == [2, 3, 1]
    ok = ok and [stirling1_unsigned(3, k) for k in (1, 2, 3)] == [2, 3, 1]

    # Lah values from the closed form
    ok = ok and lah(3, 1) == math.comb(2, 0) * 6 == 6
    ok = ok and lah(3, 2) == math.comb(2, 1) * 3 == 6

    # first Mittag-Leffler rows (the r = 0 term killed by 1/(-1)! = 0)
    tri = mittag_leffler_triangle(2)
    ok = ok and tri.rows[1] == (0, 2) and tri.rows[2] == (0, 0, 4)

    report("C8", "known-value spot checks", ok, started, 60)
