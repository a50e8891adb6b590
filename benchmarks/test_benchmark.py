"""Tests of the benchmark itself: its output checks and its tracer.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import SeriesCheck  # noqa: E402


def _cli(op):
    res = run.run_child(run._cli_argv(op, traced=False))
    assert res.code == op.expected_exit, res.stderr.decode()
    return res.stdout


def _one_char_corruptions(text: str):
    """Every copy of ``text`` with one digit replaced by another digit."""
    for i, ch in enumerate(text):
        if ch.isdigit():
            yield text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]


def _failed_ops(op, stdout: bytes) -> float:
    verdicts = run.Verdicts()
    verdicts.judge(0, op, op.expected_exit, stdout)
    return len(verdicts.failures) / verdicts.attempted


@pytest.mark.parametrize("op", [
    workloads._verify_op("t1", "t1", 5, 2, "plain"),
    workloads._verify_op("t2", "t2", 5, 2, "csv"),
    workloads._verify_op("t3", "t3", 5, 2, "json", a=Fraction(-3, 2)),
    workloads._verify_op("remark", "remark", 3, 1, "plain", expected_exit=1),
    workloads._verify_op("xcheck", "xcheck", 4, 2, "json", a=Fraction(2, 3), family="abel"),
    workloads._series_op("revert", SeriesCheck(
        "revert", 8, tuple(map(Fraction, "0 1 -2/3 5/7 0 1 -9 1/2".split())))),
    workloads._series_op("compose", SeriesCheck(
        "compose", 8, tuple(map(Fraction, "1 -2 3/4 5 -1/9 2 7 -3".split())),
        inner=workloads._abel_delta(Fraction(-1, 6), 8))),
    workloads._series_op("pow", SeriesCheck(
        "pow", 9, workloads._exp_series(Fraction(3, 2), 9), alpha=Fraction(-2, 3))),
    workloads._series_op("bernoulli-gf", SeriesCheck("bernoulli-gf", 9, alpha=Fraction(3, 2))),
    workloads._series_op("euler-gf", SeriesCheck("euler-gf", 9, alpha=Fraction(-1, 6))),
], ids=lambda op: op.name)
def test_every_one_digit_corruption_is_a_failed_op(op):
    stdout = _cli(op)
    assert _failed_ops(op, stdout) == 0
    corrupted = list(_one_char_corruptions(stdout.decode()))
    assert corrupted
    for text in corrupted:
        assert _failed_ops(op, text.encode()) > 0, text


def test_stored_digest_pins_default_seed_outputs():
    op = workloads.build("identity-grid", 0)[0]  # verify t1, plain, seed-independent
    stdout = _cli(op)
    expected = run.Verdicts().expected
    assert checks.op_key(op) in expected
    assert checks.judge(op, 0, stdout, expected) is None
    # a trailing space still parses and checks; only the digest sees it
    lines = stdout.split(b"\n")
    lines[3] += b" "
    padded = b"\n".join(lines)
    assert checks.judge(op, 0, padded, {}) is None
    assert checks.judge(op, 0, padded, expected) is not None


def test_schoolbook_series_helpers():
    e = [Fraction(1, 1), Fraction(1), Fraction(1, 2), Fraction(1, 6)]  # e^t
    assert checks.power(e, 2, 4) == [1, 2, 2, Fraction(4, 3)]  # e^{2t}
    t_plus = [Fraction(0), Fraction(1), Fraction(1), Fraction(0)]  # t + t^2
    assert checks.compose(e, t_plus, 4) == [1, 1, Fraction(3, 2), Fraction(7, 6)]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    tracer = tracing.Tracer()

    def inner():
        clock.now += 5

    def gen():
        clock.now += 1
        yield 1
        clock.now += 2
        yield 2

    def outer():
        clock.now += 2
        inner_t()
        clock.now += 1
        assert list(gen_t()) == [1, 2]

    inner_t = tracer.wrap(inner, "inner")
    gen_t = tracer.wrap(gen, "gen")
    tracer.wrap(outer, "outer")()
    s = tracer.summary()["spans"]
    assert s["outer"] == [1, 11.0, 3.0]
    assert s["inner"] == [1, 5.0, 5.0]
    assert s["gen"] == [1, 3.0, 3.0]


@pytest.fixture
def umbral_restored():
    import umbral.cli  # noqa: F401

    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "umbral"]
    owners += [sys.modules["umbral.series"].Series, sys.modules["umbral.triangles"].CoeffTriangle,
               sys.modules["umbral.identities"].IdentityReport]
    saved = [(owner, dict(vars(owner))) for owner in owners]
    yield sys.modules["umbral"]
    for owner, attrs in saved:
        for key, value in attrs.items():
            if vars(owner).get(key) is not value:
                setattr(owner, key, value)


def test_install_patches_every_binding(umbral_restored):
    umbral = umbral_restored
    tracer = tracing.Tracer()
    tracing.install(tracer, tracing.SPANS + (
        ("umbral.series", "Series.no_such_method", "gone"),
        ("umbral.no_such_module", "f", "gone"),
    ))
    assert tracer.absent == ["umbral.series.Series.no_such_method", "umbral.no_such_module.f"]
    mods = sys.modules
    series_cls, tri_cls = umbral.Series, umbral.CoeffTriangle
    for alias, name in ((series_cls.__rmul__, series_cls.__mul__),
                        (series_cls.__call__, series_cls.compose),
                        (tri_cls.__matmul__, tri_cls.matmul),
                        (mods["umbral.identities"].bernoulli_high, mods["umbral.special"].bernoulli_high),
                        (mods["umbral.identities"].compositions, mods["umbral.special"].compositions),
                        (mods["umbral.identities"].format_rational, mods["umbral.rationals"].format_rational),
                        (mods["umbral.cli"].verify, mods["umbral.identities"].verify),
                        (umbral.verify, mods["umbral.identities"].verify)):
        assert alias is name and hasattr(alias, "__wrapped__")

    report = umbral.verify("t1", 4, 2)
    t = series_cls([0, 1, 2], trunc=4)
    assert (3 * t) == (t * 3) and t(t) == t.compose(t)
    metrics = run.layer_metrics(run.merge_summaries([tracer.summary()]))
    assert metrics["identities.cases"] == len(report.cases) == 20
    assert metrics["special.compositions_yielded"] > 0 and metrics["special.high_calls"] > 0
    assert metrics["series.compose_calls"] == 2
    assert metrics["triangles.matmul_calls"] > 0


def _layer_table():
    return json.loads((HERE / "layers.json").read_text())["layers"]


def _traced_metrics(workload: str):
    ops = workloads.build(workload, 0)
    verdicts = run.Verdicts()
    if workload in workloads.CLI_WORKLOADS:
        _, results = run.cli_pass(ops, verdicts, traced=True)
        summaries = [tracing.parse_summary(r.stderr.decode()) for r in results]
    else:
        report, _ = run.session_pass(ops, verdicts, traced=True)
        summaries = [report["trace"]]
    assert not verdicts.failures
    return run.layer_metrics(run.merge_summaries(summaries))


def test_count_metrics_nonzero_where_their_layer_runs():
    table = _layer_table()
    counts = {m for layer in table for m in layer["metrics"]
              if m.endswith(("_calls", "_ops", "_yielded")) or m == "identities.cases"}
    assert counts
    by_workload = {w: _traced_metrics(w) for w in workloads.WORKLOADS}
    for layer in table:
        for metric in layer["metrics"]:
            if metric in counts:
                for workload in layer["mainly_on"]:
                    assert by_workload[workload][metric] > 0, (metric, workload)
    # the layers a workload bypasses really do no work there
    assert by_workload["series-core"]["special.compositions_yielded"] == 0
    assert by_workload["series-core"]["triangles.matmul_calls"] == 0
    assert by_workload["identity-grid"]["series.revert_calls"] == 0
    assert by_workload["umbral-power"]["special.high_calls"] == 0
