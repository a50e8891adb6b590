"""Output checks for benchmark operations.

Nothing here imports umbral or the repository's tests: a result is judged
against the text the program printed, by this file's own schoolbook series
arithmetic and report parsing.

* verify: the exit code and the report verdict are as expected, the grid
  holds exactly the expected (n, m, k) cases, every ``equal`` flag agrees
  with exact comparison of the printed lhs and rhs, and the diagnostics of a
  failing case list every composition once, with terms summing to its rhs.
* series: revert, compose, pow and the Bernoulli/Euler generating functions
  are checked by an exact identity (see :func:`check_series`).
* table: shape and parse only; its argv never depends on the seed, so the
  stored digest below pins every byte.
* Every op whose argv matches an op of the default seed must also reproduce
  that op's stored sha256 digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Op, SeriesCheck, TableCheck, VerifyCheck

_INT = re.compile(r"\d+")


class CheckFailed(Exception):
    pass


def op_key(op: Op) -> str:
    """Stable identity of an operation's input, used to look up its digest."""
    text = json.dumps([list(op.argv), op.call], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def max_bits(text: str) -> int:
    """Largest bit length of any integer written in ``text``."""
    return max((int(tok).bit_length() for tok in _INT.findall(text)), default=0)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- schoolbook truncated series ----------------------------------------------


def _scaled(a: Sequence[Fraction], n: int) -> Tuple[List[int], int]:
    den = math.lcm(*(c.denominator for c in a[:n]))
    return [c.numerator * (den // c.denominator) for c in a[:n]], den


def mul(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> List[Fraction]:
    """First n coefficients of a*b, by convolution over common denominators."""
    ia, da = _scaled(a, n)
    ib, db = _scaled(b, n)
    return [Fraction(sum(ia[i] * ib[k - i] for i in range(k + 1)), da * db) for k in range(n)]


def power(a: Sequence[Fraction], e: int, n: int) -> List[Fraction]:
    """a**e truncated to n coefficients, e >= 0, by repeated squaring."""
    result = [Fraction(1)] + [Fraction(0)] * (n - 1)
    base = list(a[:n])
    while e:
        if e & 1:
            result = mul(result, base, n)
        e >>= 1
        if e:
            base = mul(base, base, n)
    return result


def compose(outer: Sequence[Fraction], inner: Sequence[Fraction], n: int) -> List[Fraction]:
    """sum_k outer_k * inner^k truncated to n coefficients (inner of order >= 1)."""
    acc = [Fraction(0)] * n
    pw = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(n):
        c = outer[k]
        if c:
            for j in range(k, n):
                if pw[j]:
                    acc[j] += c * pw[j]
        if k + 1 < n:
            pw = mul(pw, inner, n)
    return acc


def parse_series(text: str) -> List[Fraction]:
    _require(text.endswith("\n") and text.count("\n") == 1, "series output is not one line")
    return [Fraction(tok) for tok in text[:-1].split(",")]


def _unit(n: int) -> List[Fraction]:
    return [Fraction(1)] + [Fraction(0)] * (n - 1)


def _check_root(result, base, alpha: Fraction, n: int, what: str) -> None:
    """result = base**alpha with constant term 1, via result**q == base**p."""
    p, q = alpha.numerator, alpha.denominator
    _require(result[0] == 1, f"{what}: constant term is not 1")
    lhs = power(result, q, n)
    if p >= 0:
        _require(lhs == power(base, p, n), f"{what}: result^{q} != base^{p}")
    else:
        _require(mul(lhs, power(base, -p, n), n) == _unit(n), f"{what}: result^{q} * base^{-p} != 1")


def check_series(check: SeriesCheck, text: str) -> None:
    got = parse_series(text)
    n = check.trunc
    _require(len(got) == n, f"expected {n} coefficients, got {len(got)}")
    if check.op == "revert":
        # g o f = t makes g the (unique) compositional inverse of f, so
        # f o g = t too; composing into the small input f is the cheap side.
        t = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2)
        _require(got[0] == 0 and compose(got, check.coeffs, n) == t, "revert: g o f != t")
    elif check.op == "compose":
        _require(got == compose(check.coeffs, check.inner, n), "compose: differs from brute force")
    elif check.op == "pow":
        _check_root(got, check.coeffs, check.alpha, n, "pow")
    else:
        # (t/(e^t - 1))^alpha = E^(-alpha) with E = (e^t - 1)/t, and
        # (2/(e^t + 1))^alpha = F^(-alpha) with F = (e^t + 1)/2
        if check.op == "bernoulli-gf":
            base = [Fraction(1, math.factorial(k + 1)) for k in range(n)]
        else:
            base = [Fraction(1)] + [Fraction(1, 2 * math.factorial(k)) for k in range(1, n)]
        _check_root(got, base, -check.alpha, n, check.op)


# -- verify reports --------------------------------------------------------------

# one parsed case: (interpretation or None, n, m, k, lhs, rhs, equal flag)
Case = Tuple[Optional[str], int, int, int, str, str, bool]


def compositions(total: int, parts: int) -> List[Tuple[int, ...]]:
    """Every tuple of ``parts`` nonnegative integers summing to ``total``, lexicographic."""
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in compositions(total - first, parts - 1)]


def expected_grid(check: VerifyCheck) -> List[Tuple[Optional[str], int, int, int]]:
    if check.identity == "xcheck":
        return [(None, n, m, k) for n in range(check.n_max + 1)
                for m in range(1, check.m_max + 1) for k in range(n + 1)]
    interps = ("literal", "indexed") if check.identity == "remark" else (None,)
    return [(i, n, m, k) for i in interps for n in range(1, check.n_max + 1)
            for m in range(1, check.m_max + 1) for k in range(1, n + 1)]


def _expected_params(check: VerifyCheck) -> Dict[str, str]:
    params = {"n_max": str(check.n_max), "m_max": str(check.m_max)}
    if check.identity == "t3":
        params["a"] = str(check.a if check.a is not None else 1)
    elif check.identity == "remark":
        params["interpretations"] = "literal,indexed"
    elif check.identity == "xcheck":
        params["family"] = "lah" if check.family == "lah-signed" else check.family
        if check.a is not None:
            params["a"] = str(check.a)
    return params


def _parse_plain(text: str):
    lines = text.split("\n")
    _require(lines[-1] == "", "report does not end with a newline")
    lines = lines[:-1]
    identity = lines[0].removeprefix("identity: ")
    params = dict(item.split("=", 1) for item in lines[1].removeprefix("params: ").split(" "))
    _require(lines[2].split() == ["n", "m", "k", "lhs", "rhs", "equal", "interp"], "bad header")
    cases: List[Case] = []
    i = 3
    while not lines[i].startswith(("diagnostics for ", "all_equal: ")):
        n, m, k, lhs, rhs, eq, interp = lines[i].split()
        _require(eq in ("yes", "NO"), f"bad equal flag {eq!r}")
        cases.append((None if interp == "-" else interp, int(n), int(m), int(k), lhs, rhs,
                      eq == "yes"))
        i += 1
    diagnostics = {}
    while lines[i].startswith("diagnostics for "):
        head = re.fullmatch(r"diagnostics for n=(\d+) m=(\d+) k=(\d+) \[(\w+)\]: lhs=(\S+)",
                            lines[i])
        _require(head is not None, f"bad diagnostics header {lines[i]!r}")
        n, m, k, interp, lhs = head.groups()
        terms = []
        i += 1
        while lines[i].startswith("  composition "):
            parts, term = lines[i].removeprefix("  composition ").rsplit(": ", 1)
            _require(parts.startswith("(") and parts.endswith(")"), f"bad composition {parts!r}")
            terms.append((tuple(int(x) for x in parts[1:-1].split(",") if x.strip()), term))
            i += 1
        diagnostics[(interp, int(n), int(m), int(k))] = (lhs, terms)
    _require(i == len(lines) - 1, "unexpected lines after the report")
    all_equal = lines[i].removeprefix("all_equal: ")
    _require(all_equal in ("true", "false"), "bad all_equal line")
    return identity, params, cases, diagnostics, all_equal == "true"


def _parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == ["identity", "n", "m", "k", "lhs", "rhs", "equal"], "bad csv header")
    cases: List[Case] = []
    identity = None
    for row in rows[1:]:
        ident, n, m, k, lhs, rhs, eq = row
        name, _, interp = ident.partition(":")
        _require(identity in (None, name), "mixed identities in csv")
        identity = name
        _require(eq in ("true", "false"), f"bad equal flag {eq!r}")
        cases.append((interp or None, int(n), int(m), int(k), lhs, rhs, eq == "true"))
    return identity, None, cases, None, all(c[6] for c in cases)


def _parse_json(text: str):
    obj = json.loads(text)
    cases: List[Case] = []
    diagnostics = {}
    for c in obj["cases"]:
        _require(isinstance(c["equal"], bool), "bad equal flag")
        key = (c.get("interpretation"), c["n"], c["m"], c["k"])
        cases.append(key + (c["lhs"], c["rhs"], c["equal"]))
        if "diagnostics" in c:
            diagnostics[key] = (c["lhs"], [(tuple(d["composition"]), d["term"])
                                           for d in c["diagnostics"]])
    return obj["identity"], obj["params"], cases, diagnostics, obj["all_equal"]


def check_verify(check: VerifyCheck, text: str) -> None:
    parser = {"plain": _parse_plain, "csv": _parse_csv, "json": _parse_json}[check.fmt]
    identity, params, cases, diagnostics, all_equal = parser(text)
    _require(identity == check.identity, f"identity {identity!r} != {check.identity!r}")
    if params is not None:
        _require(params == _expected_params(check), f"params {params} differ")
    _require([c[:4] for c in cases] == expected_grid(check), "case grid differs")
    for interp, n, m, k, lhs, rhs, equal in cases:
        _require(equal == (Fraction(lhs) == Fraction(rhs)),
                 f"case n={n} m={m} k={k}: equal flag disagrees with lhs/rhs")
    _require(all_equal == all(c[6] for c in cases), "all_equal disagrees with the cases")
    if check.identity == "remark":
        # the literal reading fails by design; the indexed reading holds
        _require(all(c[6] for c in cases if c[0] == "indexed"), "remark: indexed case failed")
        _require(not all(c[6] for c in cases if c[0] == "literal"), "remark: literal reading held")
    else:
        _require(all_equal, f"{check.identity}: a case failed")
    if diagnostics is not None:
        failing = {c[:4]: c for c in cases if not c[6]}
        if check.identity == "remark":
            _require(set(diagnostics) == set(failing), "diagnostics do not match failing cases")
        for key, (lhs, terms) in diagnostics.items():
            _, n, m, k, case_lhs, rhs, _ = failing[key]
            _require(lhs == case_lhs, f"diagnostics of {key} name another lhs")
            _require([parts for parts, _ in terms] == list(compositions(n - k, 2 * m)),
                     f"diagnostics of {key} do not list every composition once")
            _require(sum((Fraction(t) for _, t in terms), Fraction(0)) == Fraction(rhs),
                     f"diagnostic terms of {key} do not sum to the rhs")


def check_table(check: TableCheck, text: str) -> None:
    obj = json.loads(text)
    _require(obj["family"] == check.family and obj["n_max"] == check.n_max, "table header differs")
    rows = obj["rows"]
    _require([len(r) for r in rows] == list(range(1, check.n_max + 2)), "table shape differs")
    _require(rows[0] == ["1"], "row 0 is not [1]")
    for row in rows:
        for cell in row:
            Fraction(cell)


def check_output(op: Op, text: str) -> None:
    """Raise CheckFailed (or a parse error) unless ``text`` is a correct result."""
    if isinstance(op.check, VerifyCheck):
        check_verify(op.check, text)
    elif isinstance(op.check, SeriesCheck):
        check_series(op.check, text)
    else:
        check_table(op.check, text)


def judge(op: Op, code: int, stdout: bytes, expected_digests: Dict[str, str]) -> Optional[str]:
    """None when the op's exit code and output are right, else the reason."""
    if code != op.expected_exit:
        return f"exit code {code}, expected {op.expected_exit}"
    want = expected_digests.get(op_key(op))
    if want is not None and digest(stdout) != want:
        return "stdout differs from the stored default-seed digest"
    try:
        check_output(op, stdout.decode())
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
    return None
