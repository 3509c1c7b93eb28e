"""Command-line interface.

Subcommands: genus, signature, kappa, bso, section5, verify.  Every
subcommand takes ``--format text`` (default) or ``--format json``; output
for identical inputs is byte-identical across runs.  Rationals are printed
exactly, never as decimals; machine-format rationals always carry a
denominator ("3" prints as "3/1").

Exit codes: 0 on success, 1 when a mathematical check fails (verify
failures, or a section5 run whose acceptance condition does not hold),
2 on usage or input parse errors.  Documents are read from a file path or
from stdin when the path is ``-``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import counterexample
from .bundles import kappa
from .checks import run_checks
from .documents import (
    DocumentError,
    bundle_from_document,
    ring_to_document,
    space_from_document,
)
from .genus import ahat_sequence, evaluate_genus, l_sequence
from .scalars import format_rational, parse_rational
from .spaces import bso_presentation

__all__ = ["main"]

MAX_TABLE_WEIGHT = 12  # largest printed table; K_n has p(n) terms (77 at n = 12)
# Longest document read, in characters: about 60 times the largest
# benchmark document, which is ASCII.
MAX_DOCUMENT_CHARS = 64 * 1024 * 1024


class _InputError(Exception):
    """User input could not be used; maps to exit code 2."""


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(payload: Any) -> None:
    _emit(json.dumps(payload, indent=2))


def _read_document(path: str) -> Any:
    try:
        if path == "-":
            raw = sys.stdin.read(MAX_DOCUMENT_CHARS + 1)
        else:
            with open(path, encoding="utf-8") as handle:
                raw = handle.read(MAX_DOCUMENT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path!r}: {exc}") from exc
    if len(raw) > MAX_DOCUMENT_CHARS:
        raise _InputError(
            f"cannot read {path!r}: document exceeds "
            f"{MAX_DOCUMENT_CHARS} characters"
        )
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past CPython's int-digit limit, or
        # nesting deeper than the interpreter's recursion limit
        raise _InputError(f"invalid JSON in {path!r}: {exc}") from exc


def _cmd_genus(args: argparse.Namespace) -> int:
    if not 1 <= args.max_weight <= MAX_TABLE_WEIGHT:
        raise _InputError(
            f"--max-weight must lie in 1..{MAX_TABLE_WEIGHT}, got {args.max_weight}"
        )
    seq = (l_sequence if args.series == "L" else ahat_sequence)(args.max_weight)
    polys = seq.k_polynomials(args.max_weight)
    if args.format == "json":
        _emit_json(
            {
                "series": args.series,
                "max_weight": args.max_weight,
                "polynomials": [
                    {"weight": n, "polynomial": str(poly)}
                    for n, poly in enumerate(polys, start=1)
                ],
            }
        )
    else:
        _emit("\n".join(f"K{n} = {poly}" for n, poly in enumerate(polys, start=1)))
    return 0


def _cmd_signature(args: argparse.Namespace) -> int:
    doc = _read_document(args.document)
    try:
        space = space_from_document(doc)
    except DocumentError as exc:
        raise _InputError(str(exc)) from exc
    weight = max(space.dimension // 4, 1)
    try:
        value = evaluate_genus(space, l_sequence(weight))
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if args.format == "json":
        _emit_json({"signature": format_rational(value)})
    else:
        _emit(f"signature = {value}")
    return 0


def _cmd_kappa(args: argparse.Namespace) -> int:
    doc = _read_document(args.bundle)
    try:
        bundle = bundle_from_document(doc)
        value = kappa(bundle, args.cls)
    except (DocumentError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    if args.format == "json":
        _emit_json({"class": args.cls, "kappa": str(value)})
    else:
        _emit(f"kappa({args.cls}) = {value}")
    return 0


def _cmd_bso(args: argparse.Namespace) -> int:
    try:
        ring = bso_presentation(
            args.dimension,
            args.characteristic,
            euler_relation=args.assume_euler_relation,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    doc = ring_to_document(ring)
    if args.format == "json":
        _emit_json({"characteristic": args.characteristic, **doc})
    else:
        lines = [f"characteristic {args.characteristic}"]
        lines.extend(
            f"generator {g['name']} degree {g['degree']}" for g in doc["generators"]
        )
        lines.extend(f"relation {r['lhs']} = {r['rhs']}" for r in doc["relations"])
        _emit("\n".join(lines))
    return 0


def _cmd_section5(args: argparse.Namespace) -> int:
    try:
        r_value = parse_rational(args.R)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"--R: {exc}") from exc
    report = counterexample.run(r_value)
    if args.format == "json":
        _emit_json(counterexample.report_document(report))
    else:
        unchanged = " ".join(
            "yes" if flag else "no" for flag in report.p_low_unchanged
        )
        _emit(
            "\n".join(
                [
                    f"R = {report.R}",
                    f"p1 p2 p3 unchanged: {unchanged}",
                    f"p4 = {report.p4}",
                    f"p5 = {report.p5}",
                    f"sign(F) = {report.sign_fibre}",
                    f"casson obstruction = {report.casson}",
                    f"p5 integral = {report.kappa_p5_integral}",
                ]
            )
        )
    return 0 if counterexample.succeeded(report) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks()
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        _emit_json(
            {
                "passed": all_passed,
                "checks": [
                    {"id": r.check_id, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
            }
        )
    else:
        _emit(
            "\n".join(
                f"{'PASS' if r.passed else 'FAIL'} {r.check_id}: {r.detail}"
                for r in results
            )
        )
    return 0 if all_passed else 1


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charclasses",
        description="Exact characteristic-class computations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    genus = sub.add_parser(
        "genus", help="print a multiplicative-sequence polynomial table"
    )
    genus.add_argument("--series", choices=["L", "Ahat"], default="L")
    genus.add_argument(
        "--max-weight",
        type=int,
        required=True,
        help=f"table size, 1..{MAX_TABLE_WEIGHT}",
    )
    _add_format(genus)
    genus.set_defaults(handler=_cmd_genus)

    signature = sub.add_parser(
        "signature", help="signature of a space described by a JSON document"
    )
    signature.add_argument("document", help="space document path, or - for stdin")
    _add_format(signature)
    signature.set_defaults(handler=_cmd_signature)

    kappa_cmd = sub.add_parser(
        "kappa", help="kappa class of a bundle described by a JSON document"
    )
    kappa_cmd.add_argument(
        "--bundle", required=True, help="bundle document path, or - for stdin"
    )
    kappa_cmd.add_argument(
        "--class",
        dest="cls",
        required=True,
        help="monomial in e and p1, p2, ... (or w1..wd in characteristic 2)",
    )
    _add_format(kappa_cmd)
    kappa_cmd.set_defaults(handler=_cmd_kappa)

    bso = sub.add_parser(
        "bso", help="print the classifying-space presentation for a fibre dimension"
    )
    bso.add_argument("--dimension", type=int, required=True)
    bso.add_argument("--characteristic", type=int, choices=[0, 2], default=0)
    bso.add_argument(
        "--assume-euler-relation",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="impose e^2 = p_m (on for smooth models; switch off for "
        "user-supplied topological data)",
    )
    _add_format(bso)
    bso.set_defaults(handler=_cmd_bso)

    section5 = sub.add_parser(
        "section5",
        help="perturbed signature-class run over S^12 x HP^2",
    )
    section5.add_argument(
        "--R", default="1", help="perturbation coefficient, a rational like 5/2"
    )
    _add_format(section5)
    section5.set_defaults(handler=_cmd_section5)

    verify = sub.add_parser("verify", help="run the named self-checks")
    _add_format(verify)
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
