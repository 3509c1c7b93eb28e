"""Alternating parent/change pairs of benchmark runs, summarised as JSON.

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload W \
        --seeds 11,12,13 [--trace 0|1] --out BENCH_label.json

DIR is a source checkout with ``perfbench/run.py``.  For each seed and
workload the two checkouts run ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace T`` one after the other, the parent first on
even pair indices and the change first on odd ones.  S is ``run_seconds``
from BENCHMARK.json, so both sides run as long as the benchmark does.  Runs are appended to
``--out`` if it exists, and the summary is rebuilt over all its runs: for
each (workload, trace) group and metric, each side's median and quartiles,
and how many pairs the change won ("better" is read from BENCHMARK.json;
ties count for neither side).  The same is given under ``unscaled`` for
the seconds each run reports before its ``Speedometer`` scaling, with each
side's median machine speed, since the calibration can move with the tree
under test.  With ``PYTHONDONTWRITEBYTECODE`` set, a ``__pycache__`` left
under either tree's ``src/`` would let that side alone skip compiling, which
reads 20-30% faster on every workload: the tool then names each such
directory and exits 2 before any run.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "unscaled": lines[-2] if len(lines) > 1 else None}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str | None) -> dict:
    """Each side's quartiles, and the pairs the change won and lost."""
    sign = 1 if (better or "lower") == "lower" else -1
    return {"parent": quartiles(parent), "change": quartiles(change),
            "change_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
            "change_losses": sum(sign * (a - b) < 0 for a, b in zip(parent, change))}


def unscaled(run: dict) -> dict[str, float]:
    """The run's ``unscaled seconds and machine speed: {...}`` line, read."""
    line = run.get("unscaled") or ""
    return json.loads(line.partition(": ")[2]) if line.startswith("unscaled") else {}


def summarise(runs: list[dict], spec: dict) -> list[dict]:
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    groups: dict[tuple[str, int], dict[int, dict[str, dict]]] = {}
    for run in runs:
        pairs = groups.setdefault((run["workload"], run["trace"]), {})
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    summary = []
    for (workload, trace), pairs in sorted(groups.items()):
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        metrics = {}
        for name, first in complete[0]["parent"]["result"]["metrics"].items() if complete else ():
            values = [[p[side]["result"]["metrics"][name]["value"] for p in complete]
                      for side in ("parent", "change")]
            metrics[name] = {"unit": first["unit"], "better": better.get(name),
                             **compare(*values, better.get(name))}
        raw = [{side: unscaled(p[side]) for side in p} for p in complete]
        raw = [p for p in raw if p["parent"] and p["change"]]
        times = {}
        for name in raw[0]["parent"] if raw else ():
            values = [[p[side][name] for p in raw] for side in ("parent", "change")]
            times[name] = ({"parent": statistics.median(values[0]),
                            "change": statistics.median(values[1])} if name == "speed"
                           else {"unit": "s", "better": "lower", **compare(*values, "lower")})
        summary.append({"workload": workload, "trace": trace, "pairs": len(complete),
                        "metrics": metrics, "unscaled": dict(times, pairs=len(raw))})
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        stale = sorted(path for tree in (args.parent, args.change)
                       for path in (tree / "src").rglob("__pycache__"))
        if stale:
            print("error: PYTHONDONTWRITEBYTECODE is set and stale bytecode would favour "
                  "one side; remove " + ", ".join(map(str, stale)), file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "python": platform.python_version(), "machine": platform.machine(),
        "runs": []}
    sides = {"parent": args.parent, "change": args.change}
    for seed in (int(s) for s in args.seeds.split(",")):
        for workload in args.workload:
            pair = sum(1 for r in doc["runs"] if r["workload"] == workload
                       and r["trace"] == args.trace and r["side"] == "parent")
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = run_once(sides[side], workload, seed, seconds, args.trace)
                doc["runs"].append(dict(out, workload=workload, trace=args.trace, seed=seed,
                                        seconds=seconds, pair=pair, side=side))
                print(workload, seed, side, json.dumps(out["result"]["metrics"].get("wall_s")),
                      flush=True)
            doc["summary"] = summarise(doc["runs"], spec)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
