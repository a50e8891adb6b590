"""Benchmark runner for umbral (stdlib only).

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the working tree (``PYTHONPATH=src``, never an
installed copy), checks every output, and prints as its last stdout line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it records the run's context: Python version, git SHA,
nproc, load average at start, seed, passes and each workload's input
properties (sizes, output bytes, largest integer bit length).

Workloads (see ``workloads.py``):

* ``identity-grid``: ``verify t1/t2/t3/remark`` grids; composition-sum RHS.
* ``series-core``: ``series revert/compose/pow`` at N=128, gf ops at 96.
* ``umbral-power``: ``verify xcheck`` at n=30 for four families, and ``table``.
* ``library-session``: one process calls the library twice; warm caches.

CLI workloads start every operation as a fresh ``python -m umbral.cli``
process, one at a time, as a user does, so each call pays interpreter start
and cold caches.  The op list is repeated back to back while the measured
time stays within ``--seconds`` (at least :data:`MIN_PASSES` passes); CPU
time and peak RSS come from ``os.wait4``.  The library session is a fresh
child per pass that goes through its call list twice; a call's cold and
warm runs are separate ops.  Each op's time is its median over passes.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``wall_s``: wall time of the op list, the sum of per-op medians
* ``op_max_s``: the slowest op, by its median
* ``cpu_s``: user + system CPU of the op list, the sum of per-op medians
* ``peak_rss_mb``: largest resident set of any process in the run, MiB
* ``setup_s``: median wall time of a fresh interpreter that only imports
  ``umbral.cli``, sampled between passes (session: the child's own
  ``import umbral``, once per pass)

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py``; ``trace.overhead_ratio`` is the median
traced pass wall over the median untraced one.  Failures are reported as
``failed`` out of ``attempted`` rather than as a metric, since a metric
must never be 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_PER_PASS = 3
OP_TIMEOUT_S = 150.0
DIGESTS = HERE / "expected_sha256.json"

END_TO_END_UNITS = {"wall_s": "s", "op_max_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "setup_s": "s"}


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kib: int


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def run_child(argv: List[str], timeout: float = OP_TIMEOUT_S) -> ChildResult:
    """Run one process to completion; rusage comes from os.wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    out, err = (b"".join(chunks[f.fileno()]) for f in (proc.stdout, proc.stderr))
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, err, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss)


class Verdicts:
    """Judges each (op, exit code, stdout) once; repeats reuse the verdict."""

    def __init__(self):
        self.expected = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.seen: Dict[tuple, Optional[str]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def judge(self, index: int, op: workloads.Op, code: int, stdout: bytes) -> None:
        self.attempted += 1
        key = (index, code, checks.digest(stdout))
        if key not in self.seen:
            others = [k for k in self.seen if k[0] == index]
            reason = checks.judge(op, code, stdout, self.expected)
            if reason is None and others:
                reason = "output differs between passes"
            self.seen[key] = reason
        reason = self.seen[key]
        if reason is not None:
            self.failures.append(f"{op.name}: {reason}")


def _check_importable() -> None:
    result = run_child([sys.executable, "-c", "import umbral.cli, umbral; print(umbral.__file__)"])
    where = result.stdout.decode().strip()
    if result.code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"umbral does not import from {SRC}: {result.stderr.decode()[-500:]}")


def _keep_going(pass_walls: List[float], seconds: float) -> bool:
    if len(pass_walls) < MIN_PASSES:
        return True
    return sum(pass_walls) + statistics.median(pass_walls) <= seconds


def _cli_argv(op: workloads.Op, traced: bool) -> List[str]:
    if traced:
        return [sys.executable, str(HERE / "tracer.py"), *op.argv]
    return [sys.executable, "-m", "umbral.cli", *op.argv]


def cli_pass(ops, verdicts: Verdicts, traced: bool = False):
    """One pass over a CLI op list; returns (pass wall, per-op results)."""
    results = []
    start = time.perf_counter()
    for op in ops:
        results.append(run_child(_cli_argv(op, traced)))
    wall = time.perf_counter() - start
    for index, (op, res) in enumerate(zip(ops, results)):
        verdicts.judge(index, op, res.code, res.stdout)
    return wall, results


def session_pass(ops, verdicts: Verdicts, traced: bool = False):
    """One fresh library-session child; returns (its report, child result)."""
    calls = json.dumps([op.call for op in ops])
    argv = [sys.executable, str(HERE / "session.py"), calls] + (["--trace"] if traced else [])
    res = run_child(argv)
    report = None
    if res.code == 0:
        report = json.loads(res.stdout.decode().splitlines()[-1])
        if not Path(report["module"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"session imported umbral from {report['module']}")
    for index, op in enumerate(ops):
        if report is None:
            verdicts.judge(index, op, res.code, b"")
            continue
        out = report["outputs"][index].encode()
        verdicts.judge(index, op, 0, out)
        # the warm second pass must return exactly what the cold first did
        verdicts.judge(index, op, 0 if report["same"][index] else -1, out)
    return report, res


def input_properties(ops, outputs: List[bytes]) -> dict:
    """The input sizes a run's cost depends on, and the size of what it printed."""
    specs = [op.check for op in ops]
    verifies = [c for c in specs if isinstance(c, workloads.VerifyCheck)]
    return {
        "ops": len(ops),
        "series_N": sorted({c.trunc for c in specs if isinstance(c, workloads.SeriesCheck)}),
        "grids": sorted({f"{c.identity} n<={c.n_max} m<={c.m_max}" for c in verifies}),
        "grid_cases": sum(len(checks.expected_grid(c)) for c in verifies),
        "output_bytes": sum(len(o) for o in outputs),
        "rationals.max_bits": max((checks.max_bits(o.decode()) for o in outputs), default=0),
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


# -- end-to-end --------------------------------------------------------------------


def import_wall() -> float:
    res = run_child([sys.executable, "-c", "import umbral.cli"])
    if res.code != 0:
        raise SystemExit(f"importing umbral.cli failed: {res.stderr.decode()[-500:]}")
    return res.wall_s


def summarize(walls: List[List[float]], cpus: List[List[float]], rss_kib: List[int],
              setup: List[float]) -> Dict[str, float]:
    """End-to-end metrics from per-op samples (one list per op, one entry per pass).

    Each op's time is its median over passes and the op list's time is the
    sum of those medians.  On a shared host the CPU slows down in bursts of
    seconds; a per-op median drops the samples a burst hit, where a burst
    inflates every whole-pass time it overlaps.
    """
    op_wall = [statistics.median(w) for w in walls]
    return {"wall_s": sum(op_wall), "op_max_s": max(op_wall),
            "cpu_s": sum(statistics.median(c) for c in cpus),
            "peak_rss_mb": max(rss_kib) / 1024, "setup_s": statistics.median(setup)}


def measure_cli(ops, seconds: float, verdicts: Verdicts):
    walls, cpus = [[] for _ in ops], [[] for _ in ops]
    pass_walls, rss, setup, outputs = [], [], [], []
    while _keep_going(pass_walls, seconds):
        # set-up samples are spread over the run, not taken in one burst
        setup += [import_wall() for _ in range(SETUP_PER_PASS)]
        wall, results = cli_pass(ops, verdicts)
        pass_walls.append(wall)
        for i, r in enumerate(results):
            walls[i].append(r.wall_s)
            cpus[i].append(r.cpu_s)
            rss.append(r.maxrss_kib)
        outputs = [r.stdout for r in results]
    return summarize(walls, cpus, rss, setup), len(pass_walls), outputs


def measure_session(ops, seconds: float, verdicts: Verdicts):
    # one sample list per (pass, call): the cold and warm calls stay apart
    walls, cpus = [[] for _ in range(2 * len(ops))], [[] for _ in range(2 * len(ops))]
    pass_walls, rss, setup, outputs = [], [], [], []
    while _keep_going(pass_walls, seconds):
        report, res = session_pass(ops, verdicts)
        if report is None:
            raise SystemExit(f"library session failed: {res.stderr.decode()[-500:]}")
        pass_walls.append(sum(report["walls"][0]) + sum(report["walls"][1]))
        for i, (w, c) in enumerate(zip(report["walls"][0] + report["walls"][1],
                                       report["cpus"][0] + report["cpus"][1])):
            walls[i].append(w)
            cpus[i].append(c)
        rss.append(report["peak_rss_kib"])
        setup.append(report["setup_s"])
        outputs = [o.encode() for o in report["outputs"]]
    return summarize(walls, cpus, rss, setup), len(pass_walls), outputs


# -- traced ---------------------------------------------------------------------------


def merge_summaries(summaries) -> dict:
    merged = {"spans": {}, "counters": {}, "distinct": {}, "absent": set()}
    for s in summaries:
        for name, (calls, total, self_s) in s["spans"].items():
            c, t, x = merged["spans"].get(name, (0, 0.0, 0.0))
            merged["spans"][name] = (c + calls, t + total, x + self_s)
        for kind in ("counters", "distinct"):
            for name, value in s[kind].items():
                merged[kind][name] = merged[kind].get(name, 0) + value
        merged["absent"].update(s["absent"])
    merged["absent"] = sorted(merged["absent"])
    return merged


def layer_metrics(merged: dict) -> Dict[str, float]:
    spans, counters = merged["spans"], merged["counters"]

    def calls(span):
        return spans.get(span, (0, 0.0, 0.0))[0]

    def self_s(span):
        return spans.get(span, (0, 0.0, 0.0))[2]

    high_calls = calls("special.high")
    return {
        "series.mul_calls": counters.get("series.mul_calls", 0),
        "series.mul_coeff_ops": counters.get("series.mul_coeff_ops", 0),
        "series.mul_self_s": self_s("series.mul"),
        "series.inv_self_s": self_s("series.inv"),
        "series.exp_self_s": self_s("series.exp"),
        "series.log_self_s": self_s("series.log"),
        "series.compose_calls": calls("series.compose"),
        "series.compose_self_s": self_s("series.compose"),
        "series.revert_calls": calls("series.revert"),
        "series.revert_self_s": self_s("series.revert"),
        "triangles.matmul_calls": calls("triangles.matmul"),
        "triangles.matmul_entry_ops": counters.get("triangles.matmul_entry_ops", 0),
        "triangles.matmul_self_s": self_s("triangles.matmul"),
        "sheffer.pair_power_calls": calls("sheffer.pair_power"),
        "sheffer.pair_power_self_s": self_s("sheffer.pair_power"),
        "sheffer.sheffer_triangle_self_s": self_s("sheffer.sheffer_triangle"),
        "special.compositions_yielded": counters.get("special.compositions_yielded", 0),
        "special.high_calls": high_calls,
        "special.high_distinct_ratio":
            merged["distinct"].get("special.high", 0) / high_calls if high_calls else 0.0,
        "special.high_self_s": self_s("special.high"),
        "special.multinomial_calls": calls("special.multinomial"),
        "special.gf_self_s": self_s("special.gf"),
        "special.triangle_self_s": self_s("special.triangle"),
        "identities.cases": counters.get("identities.cases", 0),
        "identities.lhs_self_s": self_s("identities.lhs"),
        "identities.rhs_self_s": self_s("identities.rhs"),
        "identities.render_self_s": self_s("identities.render"),
        "rationals.format_calls": calls("rationals.format"),
        "rationals.format_self_s": self_s("rationals.format"),
        "rationals.parse_calls": calls("rationals.parse"),
        "cli.self_s": self_s("cli.main"),
    }


LAYER_UNITS = {name: ("s" if name.endswith("_s") else "count")
               for name in layer_metrics({"spans": {}, "counters": {}, "distinct": {}})}
LAYER_UNITS.update({"special.high_distinct_ratio": "ratio", "rationals.max_bits": "bits",
                    "trace.overhead_ratio": "ratio"})


def measure_traced(workload: str, ops, seconds: float, verdicts: Verdicts):
    """Alternate untraced and traced passes; self times are medians over passes."""
    session = workload not in workloads.CLI_WORKLOADS
    plain_walls, traced_walls, per_pass = [], [], []
    outputs = []
    while _keep_going([a + b for a, b in zip(plain_walls, traced_walls)], seconds):
        for traced in (False, True):
            if session:
                report, res = session_pass(ops, verdicts, traced)
                if report is None:
                    raise SystemExit(f"library session failed: {res.stderr.decode()[-500:]}")
                wall = sum(report["walls"][0]) + sum(report["walls"][1])
                summaries = [report["trace"]] if traced else []
                outputs = [o.encode() for o in report["outputs"]]
            else:
                wall, results = cli_pass(ops, verdicts, traced)
                summaries = [tracing.parse_summary(r.stderr.decode()) for r in results] if traced else []
                outputs = [r.stdout for r in results]
            (traced_walls if traced else plain_walls).append(wall)
            if traced:
                per_pass.append(merge_summaries(summaries))
    passes = [layer_metrics(m) for m in per_pass]
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["rationals.max_bits"] = max((checks.max_bits(o.decode()) for o in outputs), default=0)
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    return metrics, len(passes), outputs, per_pass[-1]["absent"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "umbral" / "cli.py").is_file():
        print(f"error: no umbral sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact outputs may exceed 4300 digits

    run_context = context(args)
    ops = workloads.build(args.workload, args.seed)
    verdicts = Verdicts()
    _check_importable()  # also compiles the bytecode cache before timing
    session = args.workload not in workloads.CLI_WORKLOADS
    absent = []
    if args.trace:
        metrics, passes, outputs, absent = measure_traced(args.workload, ops, args.seconds, verdicts)
        units = LAYER_UNITS
    elif session:
        metrics, passes, outputs = measure_session(ops, args.seconds, verdicts)
        units = END_TO_END_UNITS
    else:
        metrics, passes, outputs = measure_cli(ops, args.seconds, verdicts)
        units = END_TO_END_UNITS

    run_context.update({
        "passes": passes,
        "inputs": input_properties(ops, outputs),
        "failed_ops": len(verdicts.failures) / verdicts.attempted,
        "failures": verdicts.failures[:20],
        "absent": absent,
    })
    print(json.dumps({"context": run_context}))
    print(json.dumps({
        "correct": not verdicts.failures,
        "attempted": verdicts.attempted,
        "failed": len(verdicts.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
