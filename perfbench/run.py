"""End-to-end benchmark of the charclasses CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each op is one process,
``python -m charclasses <args>`` with ``src`` on ``PYTHONPATH``, run in a
closed loop with one client: the next op starts when the previous one has
exited, so the benchmark and one child are the only processes.  Before
every op one cold ``python -m charclasses --help`` is timed as a set-up
sample, so set-up samples are spread over the whole run.

``--trace 0`` repeats the workload's pass until ``--seconds`` have gone
(always at least one whole pass) and prints the end-to-end metrics, with
times scaled to reference seconds (see ``Speedometer``).
``--trace 1`` runs each op of one pass untraced and then under
``tracer.py`` and prints the per-layer metrics of the traced pass; one
pass keeps every count exactly repeatable for a seed.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import TRACE_MARK
from workloads import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OP_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_geomean_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("symfun.monomial_to_elementary.calls", "count"),
    ("symfun.monomial_to_elementary.self_s", "s"),
    ("symfun.table_builds", "count"),
    ("symfun.table_hit_ratio", "ratio"),
    ("genus.k_polynomial.calls", "count"),
    ("genus.k_polynomial.self_s", "s"),
    ("genus.k_polynomial.terms", "count"),
    ("genus.evaluate_genus.self_s", "s"),
    ("rings.substitute.calls", "count"),
    ("rings.substitute.self_s", "s"),
    ("rings.normal_form.calls", "count"),
    ("rings.normal_form.self_s", "s"),
    ("rings.normal_form.terms_in", "count"),
    ("rings.normal_form.terms_out", "count"),
    ("rings.normal_form.yield", "ratio"),
    ("rings.mul.calls", "count"),
    ("rings.mul.self_s", "s"),
    ("rings.mul.pairs", "count"),
    ("rings.mul.terms_out", "count"),
    ("rings.mul.yield", "ratio"),
    ("scalars.prime.constructs", "count"),
    ("scalars.prime.self_s", "s"),
    ("bundles.kappa.self_s", "s"),
    ("bundles.gysin.calls", "count"),
    ("bundles.gysin.self_s", "s"),
    ("bundles.build.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("documents.decode.calls", "count"),
    ("documents.decode.self_s", "s"),
    ("rings.ring_build.calls", "count"),
    ("rings.ring_build.self_s", "s"),
    ("counterexample.run.self_s", "s"),
    ("checks.run_checks.self_s", "s"),
    ("spaces.space_model.self_s", "s"),
    ("spaces.product_space.self_s", "s"),
    ("spaces.chern_to_pontryagin.self_s", "s"),
    ("spaces.bso_presentation.self_s", "s"),
    ("spaces.integrate.self_s", "s"),
    ("spaces.sphere.self_s", "s"),
    ("spaces.cp.self_s", "s"),
    ("spaces.hp.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class SetupError(Exception):
    """The checkout cannot run the program; nothing is measured."""


@dataclass
class Sample:
    """One finished child process.

    ``speed`` is the machine's speed while it ran, relative to the
    reference: REFERENCE_S over the calibration time measured around it.
    """

    wall_s: float
    cpu_s: float
    ok: bool
    trace: dict | None = None
    speed: float = 1.0


# What the calibration kernel takes on the 2-core VM this benchmark was
# tuned on, when other tenants leave it alone (Python 3.11).  It fixes the
# unit of the reported times; comparisons do not depend on it.
REFERENCE_S = 0.025


def calibration_s() -> float:
    """Time of a fixed piece of interpreter-bound work, right now.

    Tuple-keyed dicts of Fractions, like the package's polynomials, but
    none of its code, so it measures the machine and not the program.
    """
    start = time.perf_counter()
    terms: dict[tuple[int, ...], Fraction] = {}
    for i in range(10000):
        key = (i % 31, i % 37, i % 41, i // 1000)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i, 7)
    return time.perf_counter() - start


class Speedometer:
    """Calibrates between consecutive processes.

    The machine this was tuned on changes speed by up to 2x within seconds
    (other tenants); CPU time follows wall time, so the slowdown is not
    waiting.  Each process is scaled by the calibration taken just before
    and just after it, which cancels most of that drift.
    """

    def __init__(self) -> None:
        self.before = self.calibrate()

    @staticmethod
    def calibrate() -> float:
        # the faster of two, so that one preemption does not count
        return min(calibration_s(), calibration_s())

    def stamp(self, *samples: Sample) -> None:
        after = self.calibrate()
        speed = REFERENCE_S / ((self.before + after) / 2)
        for sample in samples:
            sample.speed = speed
        self.before = after


class Runner:
    """Starts one child at a time from the checkout root."""

    def __init__(self, root: Path, recorded: dict[str, dict]) -> None:
        self.root = root
        self.recorded = recorded
        src = root / "src"
        if not (src / "charclasses" / "__main__.py").is_file():
            raise SetupError(f"no charclasses package under {src}")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self.cli = [sys.executable, "-m", "charclasses"]
        self.traced_cli = [sys.executable, str(HERE / "tracer.py")]

    def _spawn(self, argv: list[str], stdin: bytes) -> tuple[float, float, int, bytes, bytes]:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True, env=self.env,
                                  cwd=self.root, timeout=OP_TIMEOUT_S)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, b"", b""
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        # one child at a time, so the growth of the children's rusage is this one's
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return wall, cpu, code, out, err

    def probe(self) -> Sample:
        """A cold start: interpreter, import, parser build."""
        wall, cpu, code, _, _ = self._spawn(self.cli + ["--help"], b"")
        return Sample(wall, cpu, code == 0)

    def output(self, op: Op) -> tuple[int | None, bytes]:
        """Exit code and stdout of one untimed call."""
        _, _, code, out, _ = self._spawn(self.cli + list(op.args), op.stdin)
        return code, out

    def run(self, op: Op, traced: bool = False) -> Sample:
        argv = (self.traced_cli if traced else self.cli) + list(op.args)
        wall, cpu, code, out, err = self._spawn(argv, op.stdin)
        trace = None
        if traced:
            head, mark, record = err.rpartition(TRACE_MARK)
            if mark:
                err, trace = head, json.loads(record)
        ok = code is not None and workloads.check(op, code, out, err, self.recorded)
        return Sample(wall, cpu, ok and (trace is not None or not traced), trace)


def peak_rss_mib() -> float:
    """Largest maximum RSS among the children waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ----------------------------------------------------------------------
# end-to-end


@dataclass
class Measurement:
    """Each op's samples, in pass order, and the set-up samples."""

    samples: list[list[Sample]]
    setup: list[Sample]

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(not x.ok for s in self.samples for x in s)


def measure(runner: Runner, ops: list[Op], seconds: float) -> Measurement:
    """Cycle through the pass until the time is up.

    The first pass always finishes.  After it, an op starts only if its
    median so far, and that of a set-up sample, still fit before the
    deadline, so a run ends within ``seconds`` of its start.
    """
    m = Measurement([[] for _ in ops], [])
    speedometer = Speedometer()
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        j = i % len(ops)
        if i >= len(ops):
            due = statistics.median(x.wall_s for x in m.samples[j])
            due += statistics.median(p.wall_s for p in m.setup)
            if time.perf_counter() + due > deadline:
                return m
        probe, sample = runner.probe(), runner.run(ops[j])
        speedometer.stamp(probe, sample)
        m.setup.append(probe)
        m.samples[j].append(sample)


def _summary(m: Measurement, scaled: bool) -> dict[str, float]:
    def t(x: Sample, seconds: float) -> float:
        return seconds * x.speed if scaled else seconds

    walls = [statistics.median(t(x, x.wall_s) for x in s) for s in m.samples]
    return {
        "setup_s": statistics.median(t(p, p.wall_s) for p in m.setup),
        "wall_s": sum(walls),
        "cpu_s": sum(statistics.median(t(x, x.cpu_s) for x in s) for s in m.samples),
        "op_geomean_s": math.exp(statistics.fmean(math.log(w) for w in walls)),
    }


def end_to_end(m: Measurement) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Metric values, their sample counts, and the times before scaling.

    Every time is in reference seconds (scaled by the machine's speed, see
    ``Speedometer``).  Each op is taken at its median over the run's
    repetitions: wall_s and cpu_s add those medians up over the pass (the
    batch's time to solution), op_geomean_s weighs every op the same.
    """
    values = dict(_summary(m, scaled=True),
                  peak_rss_mib=peak_rss_mib(),
                  ok_ratio=(m.attempted - m.failed) / m.attempted)
    n = m.attempted
    counts = {"setup_s": len(m.setup), "wall_s": n, "cpu_s": n, "op_geomean_s": n,
              "peak_rss_mib": n + len(m.setup), "ok_ratio": n}
    raw = dict(_summary(m, scaled=False), speed=statistics.median(p.speed for p in m.setup))
    return values, counts, raw


# ----------------------------------------------------------------------
# per layer


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """``<name>.self_s`` and ``<name>.calls`` summed over a span tree."""
    totals: dict[str, float] = {}
    for s in spans:
        for key, value in ((f"{s['name']}.self_s", s["total_s"] - s["child_s"]),
                           (f"{s['name']}.calls", s["calls"])):
            totals[key] = totals.get(key, 0) + value
    return totals


def self_time_within(spans: list[dict], wall_s: float) -> bool:
    """Self times of one process add up to no more than its wall time."""
    return sum(s["total_s"] - s["child_s"] for s in spans) <= wall_s


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(plain: list[Sample], traced: list[Sample]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics of one traced pass, and whether every op's self
    times fit inside its wall time."""
    totals: dict[str, float] = {}
    consistent = True
    for sample in traced:
        if sample.trace is None:
            consistent = False
            continue
        spans = sample.trace["spans"]
        consistent &= self_time_within(spans, sample.wall_s)
        extra = dict(sample.trace["counts"], **{"cli.import_s": sample.trace["import_s"]})
        for key, value in list(layer_totals(spans).items()) + list(extra.items()):
            totals[key] = totals.get(key, 0) + value

    def get(key: str) -> float:
        return totals.get(key, 0)

    totals["scalars.prime.constructs"] = get("scalars.prime.calls")
    totals["symfun.table_hit_ratio"] = _ratio(
        get("symfun.table_lookups") - get("symfun.table_builds"), get("symfun.table_lookups"))
    totals["rings.normal_form.yield"] = _ratio(
        get("rings.normal_form.terms_out"), get("rings.normal_form.terms_in"))
    totals["rings.mul.yield"] = _ratio(get("rings.mul.terms_out"), get("rings.mul.pairs"))
    totals["trace.overhead_ratio"] = _ratio(
        sum(s.wall_s * s.speed for s in traced), sum(s.wall_s * s.speed for s in plain))
    return {name: get(name) for name, _ in PER_LAYER}, consistent


# ----------------------------------------------------------------------


def load_recorded() -> dict[str, dict]:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def run_traced(runner: Runner, ops: list[Op]) -> tuple[list[Sample], list[Sample]]:
    """Each op once untraced and then once traced, calibrated like
    ``measure`` does; pairing them keeps machine drift out of the
    tracing overhead."""
    speedometer = Speedometer()
    plain, traced = [], []
    for op in ops:
        plain.append(runner.run(op))
        speedometer.stamp(plain[-1])
        traced.append(runner.run(op, traced=True))
        speedometer.stamp(traced[-1])
    return plain, traced


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict[str, int], dict[str, float]]:
    """The result object, each metric's sample count, and the end-to-end
    times before scaling to reference seconds (empty when traced)."""
    recorded = load_recorded()
    ops = workloads.generate(workload, seed)
    missing = [op.label for op in ops if op.stdout is None and op.key not in recorded]
    if missing:
        raise SetupError(f"no recorded output for {missing}; run perfbench/record.py")
    runner = Runner(ROOT, recorded)
    if not runner.probe().ok:  # also leaves the bytecode cache warm
        raise SetupError("python -m charclasses --help failed")
    if trace:
        plain, traced = run_traced(runner, ops)
        values, consistent = per_layer(plain, traced)
        units = dict(PER_LAYER)
        attempted = len(plain) + len(traced)
        failed = sum(not s.ok for s in plain + traced)
        counts = {name: len(traced) for name in values}
        raw: dict[str, float] = {}
    else:
        m = measure(runner, ops, seconds)
        values, counts, raw = end_to_end(m)
        units = dict(END_TO_END)
        consistent = all(p.ok for p in m.setup)
        attempted, failed = m.attempted, m.failed
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, counts, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, _, raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if raw:
        print("unscaled seconds and machine speed:", json.dumps(raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
