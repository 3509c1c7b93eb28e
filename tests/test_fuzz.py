"""Seeded document fuzzer: one bad field at a time, and never a traceback.

Each case takes a valid seed document, replaces one field at any depth with
a value from a fixed list of bad values, and runs the CLI in-process on it.
Every case must end with exit code 0, 1 or 2 and no uncaught exception; exit
2 must leave stdout empty and write one ``error: `` line to stderr.  The
full set of cases is a few thousand; a fixed seeded sample of them runs here.
"""

import copy
import io
import json
import random

import pytest

from charclasses.cli import main
from charclasses.documents import space_to_document
from charclasses.rings import MAX_EXPONENT
from charclasses.scalars import MAX_MODULUS
from charclasses.spaces import cp, hp, sphere

BAD_VALUES = [
    "", " ", "1/0", "1/0*y", "y y", "2 x", "x^", "q", "-", "*", "y^2 3", "1.5",
    "0", "t", -1, 0, 1, 2, 3, True, 1.5, None, [], {}, [1], {"name": "y"},
]
SAMPLE_SIZE = 600
SEED = 4


def rp2(gen):
    """RP^2 over F_2: a in degree 1 with a^3 = 0, w = 1 + a + a^2."""
    return {
        "characteristic": 2,
        "ring": {
            "generators": [{"name": gen, "degree": 1}],
            "relations": [{"lhs": f"{gen}^3", "rhs": "0"}],
        },
        "dimension": 2,
        "fundamental": f"{gen}^2",
        "total_p": "1",
        "euler": f"{gen}^2",
        "total_w": f"1 + {gen} + {gen}^2",
    }


def seeds():
    """(argv before the document, document) for each seed."""
    bare_ring = {
        "characteristic": 0,
        "ring": {
            "generators": [{"name": "c1", "degree": 2}, {"name": "c2", "degree": 4}],
            "relations": [],
        },
    }
    return [
        (["signature"], space_to_document(hp(2))),
        (["kappa", "--class", "p2", "--bundle"], {
            "kind": "product",
            "base": space_to_document(sphere(4)),
            "fibre": space_to_document(hp(2)),
        }),
        (["kappa", "--class", "e^3 + p1", "--bundle"], {
            "kind": "projectivization",
            "base": space_to_document(cp(2)),
            "chern": ["3*h", "h^2"],
            "twist": "t",
        }),
        (["kappa", "--class", "e^3", "--bundle"], {
            "kind": "projectivization",
            "base": bare_ring,
            "chern": ["c1", "c2"],
        }),
        (["kappa", "--class", "w2 + w1^2", "--bundle"], {
            "kind": "product",
            "base": rp2("a"),
            "fibre": rp2("b"),
        }),
    ]


def paths(value, prefix=()):
    """The path of every field under ``value``, at any depth."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def replaced(doc, path, bad):
    out = copy.deepcopy(doc)
    owner = out
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = copy.deepcopy(bad)
    return out


def all_cases():
    return [
        (argv, doc, path, bad)
        for argv, doc in seeds()
        for path in paths(doc)
        for bad in BAD_VALUES
    ]


def test_seed_documents_are_valid(capsys, monkeypatch):
    for argv, doc in seeds():
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(argv + ["-"]) == 0
        assert capsys.readouterr().err == ""


def test_one_bad_field_exits_cleanly(capsys, monkeypatch):
    cases = all_cases()
    assert len(cases) > 2000
    failures = []
    for argv, doc, path, bad in random.Random(SEED).sample(cases, SAMPLE_SIZE):
        case = f"{argv[0]} {'/'.join(map(str, path))} = {bad!r}"
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(replaced(doc, path, bad)))
        )
        try:
            code = main(argv + ["-"])
        except Exception as exc:  # noqa: BLE001 - the defect under test
            capsys.readouterr()
            failures.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        out, err = capsys.readouterr()
        if code not in (0, 1, 2):
            failures.append(f"{case}: exit {code}")
        elif code == 2 and (out or not err.startswith("error: ")
                            or err.count("\n") != 1):
            failures.append(f"{case}: exit 2 with {out!r}, {err!r}")
    assert failures == []


# Large bad values, each in one field of HP^2, and the pointer of the field
# it is reported at: moduli past the bound, a dimension the fundamental
# monomial cannot have, exponents past the bound, and a coefficient past
# CPython's int-digit limit.
LARGE_BAD_VALUES = [
    ("characteristic", MAX_MODULUS, "characteristic"),
    ("characteristic", 10**30, "characteristic"),
    ("characteristic", 3317044064679887385961979, "characteristic"),
    ("dimension", int("7" * 4000), "fundamental"),
    ("fundamental", f"y^{MAX_EXPONENT + 1}", "fundamental"),
    ("fundamental", "y^" + "9" * 30, "fundamental"),
    ("euler", f"3*y^{MAX_EXPONENT + 1}", "euler"),
    ("euler", "3*y^" + "9" * 30, "euler"),
    ("total_p", "1 + " + "9" * 5000 + "*y + 7*y^2", "total_p"),
]


@pytest.mark.parametrize(
    "key, bad, field", LARGE_BAD_VALUES,
    ids=[f"{key}-{i}" for i, (key, _, _) in enumerate(LARGE_BAD_VALUES)],
)
def test_a_large_bad_value_exits_at_its_field(capsys, monkeypatch, key, bad, field):
    doc = dict(space_to_document(hp(2)), **{key: bad})
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["signature", "-"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: /{field}: ") and err.count("\n") == 1
