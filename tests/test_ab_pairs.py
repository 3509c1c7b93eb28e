"""``tools/ab_pairs.py`` refuses trees whose stale bytecode would favour one side.

With ``PYTHONDONTWRITEBYTECODE`` set, a ``__pycache__`` left under one tree's
``src/`` lets that side skip compiling on every run, so the tool exits 2
before any run.  The tool lives outside the package; it is loaded by path.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"


class Ran(Exception):
    """Raised in place of a benchmark run."""


@pytest.fixture
def ab_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run_once(*args):
        raise Ran

    monkeypatch.setattr(module, "run_once", run_once)
    return module


def trees(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "charclasses").mkdir(parents=True)
    return tmp_path / "parent", tmp_path / "change"


def argv(parent, change, out):
    return ["--parent", str(parent), "--change", str(change), "--workload", "kappa-mod2",
            "--seeds", "1", "--out", str(out)]


@pytest.mark.parametrize("side", [0, 1], ids=["parent", "change"])
def test_stale_bytecode_under_either_tree_exits_2_before_any_run(
    ab_pairs, monkeypatch, tmp_path, capsys, side
):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    sides = trees(tmp_path)
    cache = sides[side] / "src" / "charclasses" / "__pycache__"
    cache.mkdir()
    out = tmp_path / "out.json"
    assert ab_pairs.main(argv(*sides, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PYTHONDONTWRITEBYTECODE is set")
    assert str(cache) in err
    assert not out.exists()


@pytest.mark.parametrize("writes_bytecode", [False, True], ids=["no-cache", "bytecode-on"])
def test_runs_start_when_the_sides_compile_alike(
    ab_pairs, monkeypatch, tmp_path, writes_bytecode
):
    # with bytecode writing on, both sides cache alike after their first run
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    if not writes_bytecode:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent, change = trees(tmp_path)
    if writes_bytecode:
        (parent / "src" / "charclasses" / "__pycache__").mkdir()
    with pytest.raises(Ran):
        ab_pairs.main(argv(parent, change, tmp_path / "out.json"))
