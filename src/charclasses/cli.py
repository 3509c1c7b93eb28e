"""Command-line interface.

Subcommands: genus, signature, kappa, bso, section5, verify.  Every
subcommand takes ``--format text`` (default) or ``--format json``; output
for identical inputs is byte-identical across runs.  Rationals are printed
exactly, never as decimals; machine-format rationals always carry a
denominator ("3" prints as "3/1").

Exit codes: 0 on success, 1 when a mathematical check fails (verify
failures, or a section5 run whose acceptance condition does not hold),
2 on usage or input parse errors.  A launcher whose reader closes stdout
before the output is written (``charclasses bso --dimension 100000 | head
-c 10``) ends with no message and exit status 141, 128 + SIGPIPE, as a
shell reports for a tool that SIGPIPE stopped; ``main`` itself lets the
``BrokenPipeError`` propagate to its caller.  Documents are read from a
file path or from stdin when the path is ``-``.

Each subcommand handler ``_cmd_*`` computes and returns
``(exit_code, payload, text)``: ``payload`` is the object printed under
``--format json`` and ``text`` the text-format output.  Handlers never
read ``--format`` or write stdout.  ``main`` alone picks one of the two,
writes it with a final newline after the handler has returned, and turns
an ``_InputError`` into one ``error: ...`` line on stderr, exit 2 and an
empty stdout.

Every subcommand runs in its own process, so this module imports only
``argparse``, ``gc``, ``os`` and ``sys`` at load, and each handler imports
what it runs after it has checked its own options: ``--help`` and a usage
error load no other package module.  ``_decode`` reads and decodes a
document for ``signature`` and ``kappa``: it imports ``json`` (in
``_read_document``) and ``documents``, and turns a ``DocumentError`` into
an ``_InputError`` with the same message, so ``main`` catches
``_InputError`` only and imports ``json`` only for ``--format json``.
``genus`` loads ``genus`` (with ``rings``); ``signature`` adds
``documents``, ``spaces`` and ``scalars``; ``kappa`` loads ``documents``,
``bundles``, ``rings`` and ``spaces``, plus ``scalars`` in characteristic
2, where a modulus is validated, and ``fractions`` only for a fraction in
its input; ``bso`` loads ``spaces``, which brings ``rings``, plus
``scalars`` in characteristic 2; ``section5`` loads ``counterexample``,
which brings ``genus``, ``spaces`` and ``scalars``; ``verify`` loads
``checks``, which brings every other module.

A process has one life cycle, and ``main`` and ``run`` split it.
``main(argv)`` parses, runs one handler, writes its output and returns the
exit code; it leaves the collector and the interpreter as it found them,
so tests and tracers call it in-process.  ``run()`` is the entry of every
launcher (``python -m charclasses``, ``python -m charclasses.cli`` and the
``charclasses`` console script): it turns the cyclic collector off, calls
``main``, flushes stdout and stderr, and ends the process with
``os._exit`` instead of tearing the interpreter down; a ``BrokenPipeError``
from writing or flushing stdout ends it the same way, with status 141.
That skips nothing a run needs: the package registers no ``atexit``
handler, holds no open file past its handler, and the two streams are
flushed first.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys

__all__ = ["main", "run"]

MAX_TABLE_WEIGHT = 12  # largest printed table; K_n has p(n) terms (77 at n = 12)
# Longest document read, in characters: about 60 times the largest
# benchmark document, which is ASCII.
MAX_DOCUMENT_CHARS = 64 * 1024 * 1024
# Largest `bso --dimension`: one generator per p_i, about 1.5 MB of text.
MAX_BSO_DIMENSION = 100_000
# Most digits in the numerator or the denominator of `section5 --R`: the
# report prints R times constants of up to six digits (124065/9271), and
# CPython prints no int of more than 4300 digits by default.
MAX_R_DIGITS = 4000
# Exit status of a launcher whose reader closed stdout early: 128 + SIGPIPE,
# what a shell reports for a tool that SIGPIPE stopped.
EXIT_BROKEN_PIPE = 141


class _InputError(Exception):
    """User input could not be used; maps to exit code 2."""


def _read_document(path: str) -> object:
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
    import json

    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past CPython's int-digit limit, or
        # nesting deeper than the interpreter's recursion limit
        raise _InputError(f"invalid JSON in {path!r}: {exc}") from exc


def _decode(path: str, decoder: str) -> object:
    """The document at ``path`` decoded by ``documents.<decoder>``."""
    # Two orders keep the peak RSS of a kappa process down.  The modules
    # load before the document is read: loaded after it, they cost about
    # 0.1 MiB more.  The text (1.1 MB for the largest kappa-mod2 document)
    # is freed on return from _read_document, before the decoder builds
    # the model: kept alive, it costs about 1 MiB more.
    from . import documents

    doc = _read_document(path)
    try:
        return getattr(documents, decoder)(doc)
    except documents.DocumentError as exc:
        raise _InputError(str(exc)) from exc


def _printed(value: object) -> str:
    """``str(value)``; an ``_InputError`` if an int in it has too many digits."""
    try:
        return str(value)
    except ValueError as exc:
        # CPython converts no int of more than sys.get_int_max_str_digits()
        # digits to text, and lifting that limit would open the document
        # parser to quadratic int parses
        raise _InputError(
            "the result is too large to print: it has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


Result = tuple[int, object, str]  # (exit code, json payload, text)


def _cmd_genus(args: argparse.Namespace) -> Result:
    if not 1 <= args.max_weight <= MAX_TABLE_WEIGHT:
        raise _InputError(
            f"--max-weight must lie in 1..{MAX_TABLE_WEIGHT}, got {args.max_weight}"
        )
    from .genus import ahat_sequence, l_sequence

    seq = l_sequence() if args.series == "L" else ahat_sequence()
    polys = [str(k) for k in seq.k_polynomials(args.max_weight)]
    payload = {
        "series": args.series,
        "max_weight": args.max_weight,
        "polynomials": [
            {"weight": n, "polynomial": poly} for n, poly in enumerate(polys, start=1)
        ],
    }
    text = "\n".join(f"K{n} = {poly}" for n, poly in enumerate(polys, start=1))
    return 0, payload, text


def _cmd_signature(args: argparse.Namespace) -> Result:
    space = _decode(args.document, "space_from_document")
    from .genus import evaluate_genus, l_sequence
    from .scalars import format_rational

    try:
        value = evaluate_genus(space, l_sequence())
    except ValueError as exc:
        where = "/characteristic: " if space.ring.characteristic else ""
        raise _InputError(f"{where}{exc}") from exc
    text = _printed(value)
    return 0, {"signature": format_rational(value)}, f"signature = {text}"


def _cmd_kappa(args: argparse.Namespace) -> Result:
    bundle = _decode(args.bundle, "bundle_from_document")
    from .bundles import kappa

    try:
        value = kappa(bundle, args.cls)
    except ValueError as exc:
        raise _InputError(f"--class: {exc}") from exc
    text = _printed(value)
    return 0, {"class": args.cls, "kappa": text}, f"kappa({args.cls}) = {text}"


def _cmd_bso(args: argparse.Namespace) -> Result:
    if args.dimension > MAX_BSO_DIMENSION:
        raise _InputError(
            f"--dimension must be at most {MAX_BSO_DIMENSION}, got {args.dimension}"
        )
    from .spaces import bso_presentation, ring_to_document

    try:
        ring = bso_presentation(
            args.dimension,
            args.characteristic,
            euler_relation=args.assume_euler_relation,
        )
    except ValueError as exc:
        raise _InputError(f"--dimension: {exc}") from exc
    doc = ring_to_document(ring)
    lines = [f"characteristic {args.characteristic}"]
    lines.extend(
        f"generator {g['name']} degree {g['degree']}" for g in doc["generators"]
    )
    lines.extend(f"relation {r['lhs']} = {r['rhs']}" for r in doc["relations"])
    return 0, {"characteristic": args.characteristic, **doc}, "\n".join(lines)


def _cmd_section5(args: argparse.Namespace) -> Result:
    from .scalars import parse_rational

    try:
        r_value = parse_rational(args.R)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"--R: {exc}") from exc
    if max(abs(r_value.numerator), r_value.denominator) >= 10**MAX_R_DIGITS:
        raise _InputError(
            f"--R: numerator and denominator must have at most {MAX_R_DIGITS} "
            "digits each"
        )
    from . import counterexample

    report = counterexample.run(r_value)
    unchanged = " ".join("yes" if flag else "no" for flag in report.p_low_unchanged)
    text = "\n".join(
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
    code = 0 if counterexample.succeeded(report) else 1
    return code, counterexample.report_document(report), text


def _cmd_verify(args: argparse.Namespace) -> Result:
    from .checks import run_checks

    results = run_checks()
    all_passed = all(r.passed for r in results)
    payload = {
        "passed": all_passed,
        "checks": [
            {"id": r.check_id, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    text = "\n".join(
        f"{'PASS' if r.passed else 'FAIL'} {r.check_id}: {r.detail}" for r in results
    )
    return 0 if all_passed else 1, payload, text


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
        help="polynomial in e and p1..p(d/2) for fibre dimension d, or in "
        "w1..wd in characteristic 2, e.g. 'e^3 + 2*e*p1'",
    )
    _add_format(kappa_cmd)
    kappa_cmd.set_defaults(handler=_cmd_kappa)

    bso = sub.add_parser(
        "bso", help="print the classifying-space presentation for a fibre dimension"
    )
    bso.add_argument(
        "--dimension",
        type=int,
        required=True,
        help=f"fibre dimension, 1..{MAX_BSO_DIMENSION}",
    )
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
        code, payload, text = args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        text = json.dumps(payload, indent=2)
    sys.stdout.write(text + "\n")
    return code


def run() -> None:
    """Run ``main`` on the command line as the whole process, then end it.

    The one entry of every launcher: ``python -m charclasses``, ``python -m
    charclasses.cli`` and the ``charclasses`` console script.  The cyclic
    collector stays off for the run, and the process ends with
    ``os._exit`` once stdout and stderr are flushed, so no collection pass
    and no interpreter teardown walks the loaded modules.  That is safe
    because the cyclic garbage a run leaves does not grow with its work:
    it is the argument parser's few hundred objects (a ring is no
    reference cycle).  After ``signature`` of free Q[a,b,c] at dimension
    160 the collector finds no more than at dimension 40, and after
    ``kappa`` with a 4 x RP^14 fibre no more than with 4 x RP^2.

    Unbuffered (``PYTHONUNBUFFERED`` or ``-u``), stdout writes straight to
    its file, and a write to a pipe whose reader has gone can come back
    short with no error, which would cut the output off unnoticed.  So
    ``run`` puts a buffered writer under stdout there: it retries a short
    write, and the retry raises the ``BrokenPipeError``.
    """
    gc.disable()
    if not hasattr(sys.stdout.buffer, "raw"):
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(sys.stdout.buffer),
                                      encoding=sys.stdout.encoding, errors=sys.stdout.errors)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as ``| head`` does: end as a tool
        # that SIGPIPE stopped, with nothing on stderr and the output left
        # unflushed, which is lost anyway
        code = EXIT_BROKEN_PIPE
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
