"""Check that two source trees give the same bytes on every benchmark call.

    python3 tools/same_output.py PARENT_TREE CHANGE_TREE

The calls are every op of ``perfbench/workloads.catalog()``, the ops of
seeds 1-3 of all four workloads, ``verify`` and ``section5`` (text and
json), ``section5 --R 0``, the unperturbed solve (text and json; every
workload's R is nonzero), ``genus --max-weight 12`` for L and Ahat (text
and json), ``signature`` of S^400 x HP^2, of S^1000 x HP^2, of S^4000 and of CP^40
(text and json; weights up to 1000, where the catalog stops at 12, and
S^4000 has no nonzero power sum), ``kappa --class "1/3*e^3 - 5/7*e*p1"``
on a projectivization whose base relation and Chern classes carry
fractions and ``signature`` of a space whose relation and ``total_p``
carry fractions (text and json; every catalog call has integral rules,
these rings have rule denominators other than 1), ``kappa --class "1/3*p1^4
+ p2*p1^2 - 5/7*e + 2*p4 - p3*p1 + p2^2"`` on the product bundle over CP^2
whose fibre is that space (text; the tensor ring takes over the fibre's
fractional rule, which no catalog ring has), ``kappa --class
"w1^4 + w2^2 + w1*w3"`` on a characteristic 2 product bundle whose fibre
ring has a relation with a nonzero right-hand side and a generator with no
relation (text; every catalog ring in characteristic 2 has only
``x^k -> 0`` rules), ``kappa`` of a mixed class on a characteristic 2
product bundle whose fibre has three factors, RP^2 x RP^6 x RP^6,
``kappa --class "w1^4 + w1^2*w2 + w2^2 + w1*w3 + w4 + w1*w2*w3"`` on a
characteristic 2 product bundle whose fibre ``total_w`` is written with
coefficients 3 and 2 and a pair of terms that cancels mod 2 (text; every
catalog ``total_w`` has coefficients 1, so nothing there is reduced mod 2
after parsing), ``bso
--dimension 100000`` (50001 generators, the largest ring the CLI builds),
``signature`` of a free ring whose ``total_p`` has an exponent at
``rings.MAX_EXPONENT`` and of one with an exponent just past it, the
input errors of the subcommands that import their modules when they run
(``genus --max-weight 13``, ``section5 --R 1/0`` and ``--R x``,
``signature`` of RP^2 over F_2, which ``evaluate_genus`` rejects, and
``bso --dimension 100001`` and ``0``), two results past CPython's
4300-digit int-to-str limit (``section5 --R`` of 4295 nines, and
``signature`` of HP^2 with a 3000-digit coefficient of p_1 in
``total_p``), the input errors of the document
path (invalid JSON on stdin for ``signature`` and ``kappa``, a document
error in a space, in a bundle and in a bundle's base, and an unknown
generator in ``kappa --class``), the bare ``python -m charclasses`` usage
error, and ``--help`` at the top level and for each subcommand, each
distinct call once.  The call past the exponent bound exits 2 since that
bound exists and prints a signature in a tree before it, and ``bso
--dimension 0`` names ``--dimension`` in its error since the change that
made ``cli`` load no package module at import.  The two results past the
digit limit end in a traceback with exit 1 in trees before the change that
bounded ``--R`` and reports a result too large to print as an input
error, and exit 2 with one ``error:`` line since.  Against trees before
those changes, these are the intended differences.  Each runs as one
``python -m charclasses`` process with ``PYTHONPATH=<tree>/src`` and its document on
stdin, one call at a time, first in PARENT_TREE and then in CHANGE_TREE.
Exit code, stdout bytes and stderr bytes must be equal.  Prints the number of calls; exits 1 and names
each call that differs.  The ops come from this checkout's
``perfbench/``, which is only read.  Standard library only.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from workloads import Factor, Op  # noqa: E402

SEEDS = (1, 2, 3)
# Spaces past the catalog's dimensions, with their generator names.
LARGE_SPACES = (([Factor("s", 400), Factor("hp", 2)], ["x", "y"]),
                ([Factor("s", 1000), Factor("hp", 2)], ["x", "y"]),
                ([Factor("s", 4000)], ["x"]),
                ([Factor("cp", 40)], ["h"]))
# Rings whose rules have fractional right-hand sides.
FRACTIONAL_BUNDLE = {
    "kind": "projectivization",
    "base": {"characteristic": 0, "ring": {
        "generators": [{"name": "c1", "degree": 2}, {"name": "c2", "degree": 4}],
        "relations": [{"lhs": "c1^3", "rhs": "1/2*c1*c2"}]}},
    "chern": ["1/2*c1", "2/3*c1^2 - 1/5*c2", "3/4*c1*c2 - 1/6*c1^3"],
}
FRACTIONAL_CLASS = "1/3*e^3 - 5/7*e*p1"
FRACTIONAL_SPACE = {
    "characteristic": 0,
    "ring": {
        "generators": [{"name": "a", "degree": 4}, {"name": "b", "degree": 8}],
        "relations": [{"lhs": "a^3", "rhs": "1/2*a*b"}, {"lhs": "b^2", "rhs": "0"}]},
    "dimension": 16,
    "fundamental": "a^2*b",
    "total_p": "1 + 1/3*a - 2/5*a^2 + 5/7*b + 3/4*a*b - 1/6*a^2*b",
    "euler": "2*a^2*b",
}

# A characteristic 2 fibre ring with the rule u^3 -> u*v and a free v.
MOD2_RULES_BUNDLE = {
    "kind": "product",
    "base": workloads.rp_product_doc((2,), ["b"]),
    "fibre": {
        "characteristic": 2,
        "ring": {
            "generators": [{"name": "u", "degree": 1}, {"name": "v", "degree": 2}],
            "relations": [{"lhs": "u^3", "rhs": "u*v"}]},
        "dimension": 4,
        "fundamental": "u^2*v",
        "total_p": "1",
        "euler": "u^2*v",
        "total_w": "1 + u + v + u^2 + u*v + u^2*v",
    },
}
MOD2_RULES_CLASS = "w1^4 + w2^2 + w1*w3"

# The product bundle over CP^2 whose fibre has the fractional rule a^3 -> 1/2*a*b.
FRACTIONAL_FIBRE_BUNDLE = {
    "kind": "product",
    "base": workloads.space_doc([Factor("cp", 2)], ["h"]),
    "fibre": FRACTIONAL_SPACE,
}
FRACTIONAL_FIBRE_CLASS = "1/3*p1^4 + p2*p1^2 - 5/7*e + 2*p4 - p3*p1 + p2^2"

# A characteristic 2 fibre of three factors, and a class mixing its w_i.
MOD2_THREE_FACTORS = {
    "kind": "product",
    "base": workloads.rp_product_doc((6,), ["b"]),
    "fibre": workloads.rp_product_doc((2, 6, 6), ["a0", "a1", "a2"]),
}
MOD2_THREE_FACTORS_CLASS = "w1^3*w11 + w7^2 + w2*w12"

# A characteristic 2 fibre, RP^2 x RP^2, whose total_w is written with
# coefficients 3 and 2 and a pair u^2*v + u^2*v that cancels mod 2, so
# the parsed numerators are reduced mod 2 before the class is used.
MOD2_UNREDUCED_BUNDLE = {
    "kind": "product",
    "base": workloads.rp_product_doc((2,), ["b"]),
    "fibre": dict(
        workloads.rp_product_doc((2, 2), ["u", "v"]),
        total_w="1 + 3*u + v + u*v + u^2 + 3*v^2 + 2*u^2*v + u*v^2 + u^2*v^2"
                " + u^2*v + u^2*v"),
}
MOD2_UNREDUCED_CLASS = "w1^4 + w1^2*w2 + w2^2 + w1*w3 + w4 + w1*w2*w3"

MAX_EXPONENT = 2 ** 20 - 1  # rings.MAX_EXPONENT


def free_space(exponent: int) -> dict:
    """Q[y], |y| = 4, of dimension 4, with a term y^exponent in total_p."""
    return {
        "characteristic": 0,
        "ring": {"generators": [{"name": "y", "degree": 4}], "relations": []},
        "dimension": 4, "fundamental": "y", "euler": "0",
        "total_p": f"1 + y + y^{exponent}",
    }

# A projectivization over free Q[c1, c2], and HP^2 with a fundamental
# monomial of the wrong degree.
PROJECTIVIZATION = {
    "kind": "projectivization",
    "base": {"characteristic": 0, "ring": {"generators": [
        {"name": "c1", "degree": 2}, {"name": "c2", "degree": 4}]}},
    "chern": ["c1", "c2"],
}
BAD_FUNDAMENTAL = {
    "characteristic": 0,
    "ring": {"generators": [{"name": "y", "degree": 4}],
             "relations": [{"lhs": "y^3", "rhs": "0"}]},
    "dimension": 8, "fundamental": "y", "total_p": "1 + 2*y + 7*y^2",
    "euler": "3*y^2",
}
# HP^2 whose p_1 has 3000 digits: its signature has about 6000.
HUGE_SIGNATURE = dict(BAD_FUNDAMENTAL, fundamental="y^2",
                      total_p="1 + " + "9" * 3000 + "*y + 7*y^2")

# Each exits 2 with one error line.
INPUT_ERRORS = (
    Op("genus max-weight 13", ("genus", "--max-weight", "13")),
    Op("section5 R=1/0", ("section5", "--R", "1/0")),
    Op("section5 R=x", ("section5", "--R", "x")),
    Op("signature characteristic 2", ("signature", "-"),
       stdin=workloads._encode(workloads.rp_product_doc((2,), ["a"]))),
    Op("bso dimension 100001", ("bso", "--dimension", "100001")),
    Op("bso dimension 0", ("bso", "--dimension", "0")),
    Op("signature invalid JSON", ("signature", "-"), stdin=b'{"ring": '),
    Op("kappa invalid JSON", ("kappa", "--bundle", "-", "--class", "e"), stdin=b"[1,]"),
    Op("signature missing ring", ("signature", "-"),
       stdin=workloads._encode({"characteristic": 0})),
    Op("kappa empty chern", ("kappa", "--bundle", "-", "--class", "e"),
       stdin=workloads._encode(dict(PROJECTIVIZATION, chern=[]))),
    Op("kappa bad base fundamental", ("kappa", "--bundle", "-", "--class", "e"),
       stdin=workloads._encode({"kind": "product", "base": BAD_FUNDAMENTAL,
                                "fibre": workloads.space_doc(
                                    [workloads.Factor("cp", 2)], ["h"])})),
    Op("kappa bad class", ("kappa", "--bundle", "-", "--class", "q1"),
       stdin=workloads._encode(PROJECTIVIZATION)),
    Op("no subcommand", ()),
    Op("section5 R=4295 nines", ("section5", "--R=" + "9" * 4295)),
    Op("signature past the digit limit", ("signature", "-"),
       stdin=workloads._encode(HUGE_SIGNATURE)),
)


def calls() -> list[Op]:
    """The distinct calls, in a fixed order."""
    ops = list(workloads.catalog())
    for name, seed in itertools.product(workloads.WORKLOADS, SEEDS):
        ops += workloads.generate(name, seed)
    for fmt in ("text", "json"):
        ops.append(workloads.verify_op(fmt))
        ops.append(Op(f"section5 {fmt}", ("section5",) + workloads._fmt_args(fmt)))
        ops.append(Op(f"section5 R=0 {fmt}", ("section5", "--R", "0") + workloads._fmt_args(fmt)))
        for series in ("L", "Ahat"):
            ops.append(workloads.genus_op(series, 12, fmt))
        for factors, names in LARGE_SPACES:
            ops.append(workloads.signature_op(factors, names, fmt))
        ops.append(workloads.kappa_op("fractional rules", FRACTIONAL_BUNDLE,
                                      FRACTIONAL_CLASS, fmt))
        ops.append(Op(f"signature fractional rules {fmt}",
                      ("signature", "-") + workloads._fmt_args(fmt),
                      stdin=workloads._encode(FRACTIONAL_SPACE)))
    ops.append(workloads.kappa_op("fractional fibre rules", FRACTIONAL_FIBRE_BUNDLE,
                                  FRACTIONAL_FIBRE_CLASS, "text"))
    ops.append(workloads.kappa_op("mod 2 rules", MOD2_RULES_BUNDLE, MOD2_RULES_CLASS, "text"))
    ops.append(workloads.kappa_op("mod 2 three factors", MOD2_THREE_FACTORS,
                                  MOD2_THREE_FACTORS_CLASS, "text"))
    ops.append(workloads.kappa_op("mod 2 unreduced total_w", MOD2_UNREDUCED_BUNDLE,
                                  MOD2_UNREDUCED_CLASS, "text"))
    ops.append(Op("bso dimension 100000", ("bso", "--dimension", "100000")))
    for exponent in (MAX_EXPONENT, MAX_EXPONENT + 1):
        ops.append(Op(f"signature free y^{exponent}", ("signature", "-"),
                      stdin=workloads._encode(free_space(exponent))))
    ops += INPUT_ERRORS
    for sub in ("", "genus", "signature", "kappa", "bso", "section5", "verify"):
        args = (sub, "--help") if sub else ("--help",)
        ops.append(Op(" ".join(args), args))
    unique: dict[str, Op] = {}
    for op in ops:
        unique.setdefault(op.key, op)
    return list(unique.values())


def run(tree: Path, op: Op) -> tuple[int, bytes, bytes]:
    done = subprocess.run([sys.executable, "-m", "charclasses", *op.args], input=op.stdin,
                          capture_output=True, cwd=tree,
                          env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    return done.returncode, done.stdout, done.stderr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    ops = calls()
    differ = 0
    for op in ops:
        before, after = run(args.parent.resolve(), op), run(args.change.resolve(), op)
        if before != after:
            differ += 1
            what = ", ".join(part for part, a, b in zip(("exit code", "stdout", "stderr"),
                                                      before, after) if a != b)
            print(f"{op.label!r} differs in {what}: {' '.join(op.args)[:200]}")
    if differ:
        print(f"{len(ops)} calls; {differ} differ")
        return 1
    print(f"{len(ops)} calls; exit code, stdout and stderr are the same")
    return 0


if __name__ == "__main__":
    sys.exit(main())
