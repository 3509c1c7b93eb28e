"""Record the expected stdout digests in ``expected.json``.

    python3 perfbench/record.py

Runs every op of ``workloads.catalog()`` that has no digest yet once
against the checkout, stores the sha256 of its stdout under the op's
content key, and drops digests of ops no longer in the catalog.  Run it
only on a commit whose outputs are known to be right, whenever the catalog
changes; delete ``expected.json`` first to record everything again.  The
benchmark refuses a workload with an op that has no recorded digest.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import EXPECTED, ROOT, Runner, load_recorded


def main() -> int:
    runner = Runner(ROOT, {})
    previous = load_recorded()
    recorded = {}
    for op in workloads.catalog():
        if op.key in previous:
            recorded[op.key] = previous[op.key]
            continue
        code, out = runner.output(op)
        if code != op.exit_code:
            print(f"{op.label}: exit {code}, expected {op.exit_code}", file=sys.stderr)
            return 1
        recorded[op.key] = {"label": op.label, "stdout_sha256": workloads.digest(out)}
        print(f"{op.label}: {len(out)} bytes", flush=True)
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
