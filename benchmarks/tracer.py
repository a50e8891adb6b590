"""Per-layer tracing of umbral from outside the package.

:func:`install` wraps each function in :data:`SPANS` and replaces *every*
binding of it: the attribute of each loaded ``umbral`` module that holds the
same object (modules import names directly, e.g. ``identities.bernoulli_high``
or ``cli.verify``) and every class attribute aliasing it (``Series.__rmul__``,
``Series.__call__``, ``CoeffTriangle.__matmul__``).  Patching only the
defining module would silently measure nothing.  A name that no longer
exists is listed as absent instead of failing the run.

A span's self time is its duration minus the durations of the spans it
directly contains.  A call that returns a generator is timed again on every
resumption, so lazily rendered reports and enumerators are charged to the
layer that does the work.

Run as a script, it executes one ``umbral`` CLI command under the tracer:
``python tracer.py verify t1 --n-max 4 --m-max 2``.  The command's stdout is
passed through; the trace summary goes to stderr after :data:`MARKER`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict
from fractions import Fraction

MARKER = "@@umbral-trace@@"

# (module, qualified name, span): several functions may share one span
SPANS = (
    ("umbral.series", "Series.__mul__", "series.mul"),
    ("umbral.series", "Series.inv", "series.inv"),
    ("umbral.series", "Series.exp", "series.exp"),
    ("umbral.series", "Series.log", "series.log"),
    ("umbral.series", "Series.compose", "series.compose"),
    ("umbral.series", "Series.revert", "series.revert"),
    ("umbral.triangles", "CoeffTriangle.matmul", "triangles.matmul"),
    ("umbral.sheffer", "pair_power", "sheffer.pair_power"),
    ("umbral.sheffer", "sheffer_triangle", "sheffer.sheffer_triangle"),
    ("umbral.special", "compositions", "special.compositions"),
    ("umbral.special", "bernoulli_high", "special.high"),
    ("umbral.special", "euler_high", "special.high"),
    ("umbral.special", "multinomial", "special.multinomial"),
    ("umbral.special", "bernoulli_series", "special.gf"),
    ("umbral.special", "euler_series", "special.gf"),
    ("umbral.special", "stirling1_triangle", "special.triangle"),
    ("umbral.special", "lah_triangle", "special.triangle"),
    ("umbral.special", "abel_triangle", "special.triangle"),
    ("umbral.special", "mittag_leffler_triangle", "special.triangle"),
    ("umbral.identities", "verify", "identities.verify"),
    ("umbral.identities", "t1_lhs", "identities.lhs"),
    ("umbral.identities", "t2_lhs", "identities.lhs"),
    ("umbral.identities", "t3_lhs", "identities.lhs"),
    ("umbral.identities", "remark_lhs", "identities.lhs"),
    ("umbral.identities", "t1_rhs", "identities.rhs"),
    ("umbral.identities", "t2_rhs", "identities.rhs"),
    ("umbral.identities", "t3_rhs", "identities.rhs"),
    ("umbral.identities", "remark_rhs_terms", "identities.rhs"),
    ("umbral.identities", "remark_rhs", "identities.rhs"),
    ("umbral.identities", "IdentityReport.plain_lines", "identities.render"),
    ("umbral.identities", "IdentityReport.csv_lines", "identities.render"),
    ("umbral.identities", "IdentityReport.to_json_obj", "identities.render"),
    ("umbral.rationals", "format_rational", "rationals.format"),
    ("umbral.rationals", "parse_rational", "rationals.parse"),
    ("umbral.cli", "main", "cli.main"),
)


def _trunc(series):
    coeffs = getattr(series, "coeffs", None)
    return None if coeffs is None else len(coeffs)


def _on_mul(tracer, args):
    n_self, n_other = (_trunc(x) for x in args[:2])
    if n_self is not None and n_other is not None:
        n = min(n_self, n_other)
        tracer.counters["series.mul_calls"] += 1
        tracer.counters["series.mul_coeff_ops"] += n * (n + 1) // 2


def _on_matmul(tracer, args):
    n = len(getattr(args[0], "rows", ())) - 1
    tracer.counters["triangles.matmul_entry_ops"] += (n + 1) * (n + 2) * (n + 3) // 6


def _on_high(name):
    def hook(tracer, args):
        tracer.distinct["special.high"].add((name, args[0], Fraction(args[1])))
    return hook


def _on_verify_result(tracer, report):
    tracer.counters["identities.cases"] += len(report.cases)


CALL_HOOKS = {
    "Series.__mul__": _on_mul,
    "CoeffTriangle.matmul": _on_matmul,
    "bernoulli_high": _on_high("bernoulli"),
    "euler_high": _on_high("euler"),
}
RESULT_HOOKS = {"verify": _on_verify_result}
YIELD_COUNTERS = {"special.compositions": "special.compositions_yielded"}


class Tracer:
    """In-memory span aggregates: calls, total and self seconds per span name."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = Counter()
        self.distinct = defaultdict(set)
        self.absent = []
        self._children = []  # per open span: seconds spent in direct child spans

    def _enter(self):
        self._children.append(0.0)
        return time.perf_counter()

    def _exit(self, span, start):
        elapsed = time.perf_counter() - start
        child = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        self.total[span] += elapsed
        self.self_time[span] += elapsed - child

    def _resumed(self, span, gen):
        yields = YIELD_COUNTERS.get(span)
        while True:
            start = self._enter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(span, start)
            if yields:
                self.counters[yields] += 1
            yield item

    def wrap(self, fn, span, on_call=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[span] += 1
            if on_call is not None:
                on_call(self, args)
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span, start)
            if isinstance(result, types.GeneratorType):
                return self._resumed(span, result)
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def summary(self) -> dict:
        spans = sorted(set(self.calls) | set(self.total))
        return {
            "spans": {s: [self.calls[s], self.total[s], self.self_time[s]] for s in spans},
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "absent": list(self.absent),
        }


def _umbral_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "umbral" or name.startswith("umbral."))]


def _rebind(namespace_owner, original, wrapper) -> None:
    for key, value in list(vars(namespace_owner).items()):
        if value is original:
            setattr(namespace_owner, key, wrapper)


def install(tracer: Tracer, spans=SPANS) -> None:
    """Wrap every binding of every function in ``spans`` (umbral must be importable)."""
    for module_name, qualname, span in spans:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(f"{module_name}.{qualname}")
            continue
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            tracer.absent.append(f"{module_name}.{qualname}")
            continue
        wrapper = tracer.wrap(original, span, CALL_HOOKS.get(qualname), RESULT_HOOKS.get(qualname))
        if outer:
            _rebind(owner, original, wrapper)
        for module in _umbral_modules():
            _rebind(module, original, wrapper)


def emit_summary(tracer: Tracer) -> None:
    sys.stderr.write("\n" + MARKER + json.dumps(tracer.summary()) + "\n")


def parse_summary(stderr: str) -> dict:
    _, sep, tail = stderr.rpartition(MARKER)
    if not sep:
        raise ValueError("no trace summary in stderr")
    return json.loads(tail)


def main(argv) -> int:
    import umbral.cli  # noqa: F401  (loads every umbral module before patching)

    tracer = Tracer()
    install(tracer)
    code = sys.modules["umbral.cli"].main(argv)
    sys.stdout.flush()
    emit_summary(tracer)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
