"""Print every metric of every workload by name, unit and sample count.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

For each workload this makes one untraced run (the end-to-end metrics) and
one traced run (the per-layer metrics), with the same seed.  It exits 1 if
any op gave a wrong answer (``ok_ratio`` below 1, or a traced op that
failed its check), and 2 if the checkout cannot run the program.
"""

from __future__ import annotations

import argparse
import sys

import workloads
from run import SetupError, run_workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    all_ok = True
    try:
        for workload in args.workload or workloads.WORKLOADS:
            for trace in (False, True):
                result, counts, raw = run_workload(workload, args.seed, args.seconds, trace)
                for name, metric in result["metrics"].items():
                    unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
                    print(f"{workload:16} {name:38} {metric['value']:>16.6g} "
                          f"{metric['unit']:6} n={counts[name]}{unscaled}", flush=True)
                if raw:
                    print(f"{workload:16} {'machine speed':38} {raw['speed']:>16.6g}", flush=True)
                all_ok &= result["correct"]
                if not trace:
                    all_ok &= result["metrics"]["ok_ratio"]["value"] == 1
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not all_ok:
        print("perfbench: some ops gave wrong answers", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
