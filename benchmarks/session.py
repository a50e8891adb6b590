"""The library-session child: one long-lived process runs a call list twice.

Usage: ``python session.py CALLS_JSON [--trace]``.  The first pass meets cold
caches, the second warm ones.  Prints one JSON object: the import time, the
wall and CPU time of each call in each pass, the peak RSS of the two
passes, whether every second-pass result equals the first, the first pass's
results rendered as the CLI renders them, and, with ``--trace``, the trace
summary taken before that rendering.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    calls = json.loads(argv[0])
    traced = "--trace" in argv[1:]

    start = time.perf_counter()
    import umbral
    setup_s = time.perf_counter() - start

    from fractions import Fraction

    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    def run(call):
        if call["fn"] == "verify":
            a = None if call["a"] is None else Fraction(call["a"])
            return umbral.verify(call["identity"], call["n_max"], call["m_max"], a=a)
        series_fn = getattr(umbral, call["fn"])
        return series_fn(Fraction(call["alpha"]), call["trunc"])

    walls = [[], []]
    cpus = [[], []]
    results = []
    same = []
    for pass_index in range(2):
        for i, call in enumerate(calls):
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = run(call)
            walls[pass_index].append(time.perf_counter() - t0)
            cpus[pass_index].append(time.process_time() - c0)
            if pass_index == 0:
                results.append(result)
            else:
                same.append(result == results[i])
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = tracer.summary() if tracer is not None else None

    rendered = []
    for call, result in zip(calls, results):
        if call["fn"] == "verify":
            rendered.append(json.dumps(result.to_json_obj(), indent=2) + "\n")
        else:
            rendered.append(result.to_text() + "\n")
    json.dump({
        "module": umbral.__file__,
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "peak_rss_kib": peak_rss_kib,
        "same": same,
        "outputs": rendered,
        "trace": trace,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
