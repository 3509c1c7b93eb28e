"""Tests of the benchmark itself: generator, oracle, span arithmetic, wrappers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, check, digest  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_ops(workload):
    assert workloads.generate(workload, 11) == workloads.generate(workload, 11)
    assert workloads.generate(workload, 11) != workloads.generate(workload, 12)


def _ops_digest(seed: int) -> str:
    h = hashlib.sha256()
    for workload in workloads.WORKLOADS:
        for op in workloads.generate(workload, seed):
            h.update(json.dumps([op.label, op.args, op.exit_code]).encode())
            h.update(op.stdin + (op.stdout or b"") + (op.stderr_prefix or b""))
    return h.hexdigest()


def test_ops_are_byte_identical_across_processes():
    code = f"import sys; sys.path.insert(0, {str(HERE.parent)!r}); " \
           "from perfbench.tests.test_perfbench import _ops_digest; print(_ops_digest(5))"
    for hash_seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONHASHSEED=hash_seed), check=True)
        assert out.stdout.strip() == _ops_digest(5)


def test_every_digest_checked_op_is_in_the_catalog_and_recorded():
    catalog = {op.key for op in workloads.catalog()}
    recorded = run.load_recorded()
    assert catalog <= set(recorded)
    for workload in workloads.WORKLOADS:
        for seed in range(40):
            for op in workloads.generate(workload, seed):
                assert op.stdout is not None or op.key in catalog, op.label


def test_oracle_rejects_mutated_stdout_and_wrong_exit_code():
    op = workloads.section5_op("1", "text")
    assert check(op, 0, op.stdout, b"", {})
    assert not check(op, 0, op.stdout.replace(b"124065", b"124066"), b"", {})
    assert not check(op, 0, op.stdout + b"\n", b"", {})
    assert not check(op, 1, op.stdout, b"", {})

    recorded_op = workloads.verify_op("text")
    recorded = {recorded_op.key: {"stdout_sha256": digest(b"PASS a: b\n")}}
    assert check(recorded_op, 0, b"PASS a: b\n", b"", recorded)
    assert not check(recorded_op, 0, b"FAIL a: b\n", b"", recorded)
    assert not check(recorded_op, 1, b"PASS a: b\n", b"", recorded)
    assert not check(recorded_op, 0, b"PASS a: b\n", b"", {})


def test_oracle_checks_pointer_of_malformed_documents():
    op = Op("bad", ("signature", "-"), exit_code=2, stdout=b"",
            stderr_prefix=b"error: /dimension: ")
    assert check(op, 2, b"", b"error: /dimension: missing required field\n", {})
    assert not check(op, 2, b"", b"error: /fundamental: bad\n", {})
    assert not check(op, 0, b"", b"error: /dimension: missing required field\n", {})


def test_closed_forms():
    assert workloads.section5_out("1", "text").splitlines()[2:5] == [
        b"p4 = 4725/127*x*y", b"p5 = 124065/9271*x*y^2", b"sign(F) = 1"]
    assert json.loads(workloads.section5_out("-2", "json"))["p5_integral"] == "-248130/9271"
    assert workloads.bso_out(4, 0, True, "text") == (
        b"characteristic 0\ngenerator e degree 4\ngenerator p1 degree 4\n"
        b"generator p2 degree 8\nrelation e^2 = p2\n")
    doc = workloads.space_doc([workloads.Factor("cp", 2)], ["h"])
    assert doc["total_p"] == "1 + 3*h^2" and doc["euler"] == "3*h^2"


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_covered_children():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def work(seconds, *inner):
        def fn():
            for name, child in inner:
                t.call(name, child, (), {})
            clock.now += seconds
        return fn

    # a: 1 s of its own around b (2 s own, c inside takes 1 s) and a second b (0.5 s)
    root = work(1.0, ("b", work(2.0, ("c", work(1.0)))), ("b", work(0.5)))
    t.call("a", root, (), {})
    spans = t.dump()["spans"]
    totals = run.layer_totals(spans)
    assert totals["a.self_s"] == pytest.approx(1.0)
    assert totals["b.self_s"] == pytest.approx(2.5)
    assert totals["c.self_s"] == pytest.approx(1.0)
    assert totals["b.calls"] == 2
    assert [s["name"] for s in spans] == ["a", "b", "c"]
    assert spans[1]["parent"] == 0 and spans[2]["parent"] == 1
    assert spans[0]["start"] == 0.0 and spans[0]["end"] == pytest.approx(4.5)
    assert run.self_time_within(spans, 4.5)
    assert not run.self_time_within(spans, 4.0)


def test_wrappers_patch_every_binding_and_restore_the_originals():
    import charclasses.cli as cli
    import charclasses.genus as genus
    from charclasses.rings import GradedPoly

    original = genus.evaluate_genus
    original_mul = GradedPoly.__dict__["__mul__"]
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        assert cli.evaluate_genus is genus.evaluate_genus is not original
        assert GradedPoly.__dict__["__mul__"] is not original_mul
        assert cli.main(["genus", "--max-weight", "3"]) == 0
    finally:
        tracer.uninstall(restore)
    assert cli.evaluate_genus is original and genus.evaluate_genus is original
    assert GradedPoly.__dict__["__mul__"] is original_mul
    names = {s.name for s in t.spans}
    assert {"cli.main", "genus.k_polynomial", "symfun.monomial_to_elementary"} <= names
    # weights 1..3 look up one table row per partition: 1 + 2 + 3
    assert t.counts["symfun.table_lookups"] == 6


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
