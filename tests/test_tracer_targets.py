"""The benchmark's tracer wraps package internals by name; keep them there.

``perfbench/tracer.py`` lives outside the package and patches the functions
and methods listed in its ``TARGETS``.  A rename inside the package would
break every traced benchmark run without failing a package test, so this
test resolves each target the way ``tracer.install`` does.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import charclasses
from charclasses import symfun

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # @dataclass(slots=True) looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        owner = importlib.import_module(target.module)
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{target.module}.{target.attr}"


def test_tracer_hooks_read_the_package(monkeypatch):
    # the hooks read package state too: the table hook looks up
    # symfun._M_TO_E_TABLES before each call of symfun._m_to_e_table
    tracer = load_tracer(monkeypatch)
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        symfun.monomial_to_elementary((2, 1), 3)
        symfun.monomial_to_elementary((3,), 3)
    finally:
        tracer.uninstall(restore)
    assert t.counts["symfun.table_lookups"] == 2


# Installs the tracer after importing argv[2] ("cli": only charclasses.cli;
# "all": every submodule too), runs section5, verify, kappa on the bundle
# document argv[3] and signature on the space document argv[4] in-process,
# and prints the span tree as path -> calls with the counters.
_SPAN_TREE = """
import contextlib, importlib, importlib.util, io, json, pkgutil, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracer
spec.loader.exec_module(tracer)
import charclasses, charclasses.cli as cli
if sys.argv[2] == "all":
    for info in pkgutil.iter_modules(charclasses.__path__):
        if info.name != "__main__":
            importlib.import_module("charclasses." + info.name)
t = tracer.Tracer()
restore = tracer.install(t)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["section5"]), cli.main(["verify"]),
                 cli.main(["kappa", "--bundle", sys.argv[3], "--class", "e^3 + p1"]),
                 cli.main(["signature", sys.argv[4]])]
finally:
    tracer.uninstall(restore)
paths, calls = [], {}
for s in t.spans:
    paths.append(s.name if s.parent < 0 else paths[s.parent] + "/" + s.name)
    calls[paths[-1]] = s.calls
print(json.dumps({"codes": codes, "calls": calls, "counts": t.counts}))
"""


# The projectivization of a rank-3 bundle over free Q[c1, c2, c3], and HP^2.
_BUNDLE = {
    "kind": "projectivization",
    "base": {"characteristic": 0, "ring": {"generators": [
        {"name": "c1", "degree": 2}, {"name": "c2", "degree": 4},
        {"name": "c3", "degree": 6}]}},
    "chern": ["c1", "c2", "c3"],
}
_SPACE = {
    "characteristic": 0,
    "ring": {"generators": [{"name": "y", "degree": 4}],
             "relations": [{"lhs": "y^3", "rhs": "0"}]},
    "dimension": 8, "fundamental": "y^2", "total_p": "1 + 2*y + 7*y^2",
    "euler": "3*y^2",
}


def test_the_span_tree_does_not_depend_on_what_was_imported_first(tmp_path):
    # tracer.install patches the from-imported bindings only in modules
    # loaded before it runs; a module the CLI loads later must reach every
    # traced function through its owner's namespace, or its calls go
    # unrecorded
    src = str(Path(charclasses.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    documents = []
    for name, doc in (("bundle.json", _BUNDLE), ("space.json", _SPACE)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        documents.append(str(tmp_path / name))
    trees = [
        json.loads(subprocess.run(
            [sys.executable, "-c", _SPAN_TREE, str(TRACER), first, *documents],
            capture_output=True, text=True, check=True, env=env,
        ).stdout)
        for first in ("cli", "all")
    ]
    assert trees[0]["codes"] == [0, 0, 0, 0]
    assert "cli.main/counterexample.run/spaces.hp" in trees[0]["calls"]
    assert ("cli.main/documents.decode/bundles.build/spaces.chern_to_pontryagin"
            in trees[0]["calls"])
    assert "cli.main/genus.evaluate_genus" in trees[0]["calls"]
    assert trees[0] == trees[1]
