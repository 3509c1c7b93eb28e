"""The benchmark's tracer wraps package internals by name; keep them there.

``perfbench/tracer.py`` lives outside the package and patches the functions
and methods listed in its ``TARGETS``.  A rename inside the package would
break every traced benchmark run without failing a package test, so this
test resolves each target the way ``tracer.install`` does.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
