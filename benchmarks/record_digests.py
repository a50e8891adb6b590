"""Regenerate ``expected_sha256.json``: the stdout digest of every op of
every workload at the default seed (0), keyed by :func:`checks.op_key`.

    python3 benchmarks/record_digests.py

Each output must first pass its checks.  The stored digests pin the exact
bytes, so regenerate them only when an output change is intended.
"""

from __future__ import annotations

import json
import sys

import run
from checks import digest, judge, op_key
from workloads import CLI_WORKLOADS, WORKLOADS, build


def main() -> int:
    digests = {}
    for workload in sorted(WORKLOADS):
        ops = build(workload, 0)
        if workload in CLI_WORKLOADS:
            outputs = [(res.code, res.stdout) for res in
                       (run.run_child(run._cli_argv(op, traced=False)) for op in ops)]
        else:
            report, res = run.session_pass(ops, run.Verdicts())
            if report is None:
                raise SystemExit(f"library session failed: {res.stderr.decode()[-500:]}")
            outputs = [(0, text.encode()) for text in report["outputs"]]
        for op, (code, stdout) in zip(ops, outputs):
            reason = judge(op, code, stdout, {})
            if reason is not None:
                raise SystemExit(f"{workload}/{op.name}: {reason}")
            digests[op_key(op)] = digest(stdout)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
