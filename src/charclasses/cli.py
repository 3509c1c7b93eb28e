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
``gc``, ``io``, ``os`` and ``sys`` at load (argparse, with its gettext and
locale, cost ~5 ms a process): it reads the command line off its own table,
``COMMANDS``, as argparse would, error lines included.  Each handler
imports what it runs after it has checked its own options: ``--help`` and a
usage error load no other package module.  ``_decode`` reads and decodes a
document for ``signature`` and ``kappa``: it imports ``json`` (in
``_read_document``) and ``documents``.  ``_rejected``, the one place a
JSON pointer is written, leads an ``_InputError`` with ``/`` and the
``field`` of a ``rings.FieldError``.  So ``main`` catches ``_InputError``
only and imports ``json`` only for ``--format json``.
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
    from .rings import FieldError

    doc = _read_document(path)
    try:
        return getattr(documents, decoder)(doc)
    except FieldError as exc:
        raise _rejected(exc) from exc


def _rejected(exc: ValueError) -> _InputError:
    """``exc`` as an input error, led by the pointer of a ``FieldError``."""
    from .rings import FieldError  # loaded by the module that raised

    return _InputError(f"/{exc.field}: {exc}" if isinstance(exc, FieldError) else str(exc))


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


def _cmd_genus(values: dict) -> Result:
    weight, series = values["--max-weight"], values["--series"]
    if not 1 <= weight <= MAX_TABLE_WEIGHT:
        raise _InputError(f"--max-weight must lie in 1..{MAX_TABLE_WEIGHT}, got {weight}")
    from .genus import ahat_sequence, l_sequence

    seq = l_sequence() if series == "L" else ahat_sequence()
    polys = [str(k) for k in seq.k_polynomials(weight)]
    payload = {"series": series, "max_weight": weight, "polynomials": [
        {"weight": n, "polynomial": poly} for n, poly in enumerate(polys, start=1)]}
    text = "\n".join(f"K{n} = {poly}" for n, poly in enumerate(polys, start=1))
    return 0, payload, text


def _cmd_signature(values: dict) -> Result:
    space = _decode(values["document"], "space_from_document")
    from .genus import evaluate_genus, l_sequence
    from .scalars import format_rational

    try:
        value = evaluate_genus(space, l_sequence())
    except ValueError as exc:
        raise _rejected(exc) from exc
    text = _printed(value)
    return 0, {"signature": format_rational(value)}, f"signature = {text}"


def _cmd_kappa(values: dict) -> Result:
    bundle = _decode(values["--bundle"], "bundle_from_document")
    from .bundles import kappa

    cls = values["--class"]
    try:
        value = kappa(bundle, cls)
    except ValueError as exc:
        raise _InputError(f"--class: {exc}") from exc
    text = _printed(value)
    return 0, {"class": cls, "kappa": text}, f"kappa({cls}) = {text}"


def _cmd_bso(values: dict) -> Result:
    dimension, characteristic = values["--dimension"], values["--characteristic"]
    if dimension > MAX_BSO_DIMENSION:
        raise _InputError(f"--dimension must be at most {MAX_BSO_DIMENSION}, got {dimension}")
    from .spaces import bso_presentation, ring_to_document

    try:
        ring = bso_presentation(dimension, characteristic,
                                euler_relation=values["--assume-euler-relation"])
    except ValueError as exc:
        raise _InputError(f"--dimension: {exc}") from exc
    doc = ring_to_document(ring)
    lines = [f"characteristic {characteristic}"]
    lines.extend(f"generator {g['name']} degree {g['degree']}" for g in doc["generators"])
    lines.extend(f"relation {r['lhs']} = {r['rhs']}" for r in doc["relations"])
    return 0, {"characteristic": characteristic, **doc}, "\n".join(lines)


def _cmd_section5(values: dict) -> Result:
    from .scalars import parse_rational

    try:
        r_value = parse_rational(values["--R"])
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"--R: {exc}") from exc
    if max(abs(r_value.numerator), r_value.denominator) >= 10**MAX_R_DIGITS:
        raise _InputError(f"--R: numerator and denominator must have at most {MAX_R_DIGITS} "
                          "digits each")
    from . import counterexample

    report = counterexample.run(r_value)
    unchanged = " ".join("yes" if flag else "no" for flag in report.p_low_unchanged)
    text = "\n".join([
        f"R = {report.R}", f"p1 p2 p3 unchanged: {unchanged}", f"p4 = {report.p4}",
        f"p5 = {report.p5}", f"sign(F) = {report.sign_fibre}",
        f"casson obstruction = {report.casson}", f"p5 integral = {report.kappa_p5_integral}",
    ])
    code = 0 if counterexample.succeeded(report) else 1
    return code, counterexample.report_document(report), text


def _cmd_verify(values: dict) -> Result:
    from .checks import run_checks

    results = run_checks()
    all_passed = all(r.passed for r in results)
    payload = {"passed": all_passed, "checks": [
        {"id": r.check_id, "passed": r.passed, "detail": r.detail} for r in results]}
    text = "\n".join(f"{'PASS' if r.passed else 'FAIL'} {r.check_id}: {r.detail}" for r in results)
    return 0 if all_passed else 1, payload, text


# The subcommands: each one's handler, help line and arguments.  An
# argument is (flag, kind, default, help).  Its kind is int, str, bool (an
# on/off flag, with a --no- form for off) or a tuple of choices, read as the
# type of the first; a default of None makes it required, and a flag with no
# leading "-" is a positional.  A handler reads each value under its flag.
_FORMAT = ("--format", ("text", "json"), "text", "output format (default: text)")
COMMANDS = {
    "genus": (_cmd_genus, "print a multiplicative-sequence polynomial table", (
        ("--series", ("L", "Ahat"), "L", ""),
        ("--max-weight", int, None, f"table size, 1..{MAX_TABLE_WEIGHT}"), _FORMAT)),
    "signature": (_cmd_signature, "signature of a space described by a JSON document", (
        _FORMAT, ("document", str, None, "space document path, or - for stdin"))),
    "kappa": (_cmd_kappa, "kappa class of a bundle described by a JSON document", (
        ("--bundle", str, None, "bundle document path, or - for stdin"),
        ("--class", str, None, "polynomial in e and p1..p(d/2) for fibre dimension d, or "
         "in w1..wd in characteristic 2, e.g. 'e^3 + 2*e*p1'"), _FORMAT)),
    "bso": (_cmd_bso, "print the classifying-space presentation for a fibre dimension", (
        ("--dimension", int, None, f"fibre dimension, 1..{MAX_BSO_DIMENSION}"),
        ("--characteristic", (0, 2), 0, ""),
        ("--assume-euler-relation", bool, True, "impose e^2 = p_m (on for smooth models; "
         "switch off for user-supplied topological data)"), _FORMAT)),
    "section5": (_cmd_section5, "perturbed signature-class run over S^12 x HP^2", (
        ("--R", str, "1", "perturbation coefficient, a rational like 5/2"), _FORMAT)),
    "verify": (_cmd_verify, "run the named self-checks", (_FORMAT,)),
}
_PROGRAM = (("subcommand", tuple(COMMANDS), None, ""),)  # the rest is the subcommand's
_HELP = ("-h", None, None, "show this help message and exit")  # every parser's


class _CommandLine(Exception):
    """``(name, message)`` rejects the line under subcommand ``name`` ("" for
    the program), exit code 2; ``(name, None)`` asks for its help."""


def _spellings(argument: tuple) -> tuple[str, ...]:
    flag, kind = argument[:2]
    return {bool: (flag, "--no-" + flag[2:]), None: (flag, "--help")}.get(kind, (flag,))


def _is_value(token: str) -> bool:
    """Whether ``token`` can be a value by argparse's rule: it starts with
    no "-", or is "-", a negative number, or has a space."""
    if token[:1] != "-" or token == "-" or " " in token:
        return True
    whole, dot, fraction = token[1:].partition(".")  # -\d+ or -\d*\.\d+
    return (not whole or whole.isdecimal()) and fraction.isdecimal() if dot else whole.isdecimal()


def _option(token: str, flags: dict) -> tuple[str, str | None] | None:
    """The flag that ``token`` spells, whole or as the unique prefix of a
    "--" flag, and the text after its "="; None if it spells none."""
    spelled, equals, text = token.partition("=")
    found = [spelled] if spelled in flags else [
        flag for flag in flags if spelled.startswith("--") and len(spelled) > 2
        and flag.startswith(spelled)]
    return (found[0], text if equals else None) if len(found) == 1 else None


def _value(name: str, flag: str, kind: object, text: str | bool) -> object:
    convert = type(kind[0]) if isinstance(kind, tuple) else kind
    try:
        value = convert(text)
    except ValueError:
        raise _CommandLine(name, f"argument {flag}: invalid {convert.__name__} value: "
                                 f"{text!r}") from None
    if isinstance(kind, tuple) and value not in kind:
        raise _CommandLine(name, f"argument {flag}: invalid choice: {value!r} "
                                 f"(choose from {', '.join(map(repr, kind))})")
    return value


def _read(name: str, arguments: tuple, tokens, extras: list[str]) -> dict:
    """The values of ``arguments`` under their flags, read off the iterator
    ``tokens`` as argparse reads them; tokens they do not take go to ``extras``."""
    values = {argument[0]: argument[2] for argument in arguments}
    flags = {spelled: argument for argument in (_HELP, *arguments)
             for spelled in _spellings(argument) if spelled[0] == "-"}
    positionals = [argument[:2] for argument in arguments if argument[0][0] != "-"]
    for token in tokens:
        spelled, text = _option(token, flags) or (None, token)
        if spelled is None and not (positionals and _is_value(token)):
            extras.append(token)
            continue
        flag, kind = flags[spelled][:2] if spelled else positionals.pop(0)
        if kind in (bool, None) and text is not None:  # on/off flags and help take none
            raise _CommandLine(name, f"argument {'/'.join(_spellings(flags[spelled]))}: "
                                     f"ignored explicit argument {text!r}")
        if kind is None:
            raise _CommandLine(name, None)
        if kind is bool:
            text = spelled == flag  # off when spelled --no-
        elif text is None:
            text = next(tokens, None)
            if text is None or _option(text, flags) or not _is_value(text):
                raise _CommandLine(name, f"argument {flag}: expected one argument")
        values[flag] = _value(name, flag, kind, text)
        if flag == "subcommand":
            values.update(_read(text, COMMANDS[text][2], tokens, extras))
    if missing := [flag for flag, value in values.items() if value is None]:
        raise _CommandLine(name, f"the following arguments are required: {', '.join(missing)}")
    return values


def _invocation(argument: tuple, joiner: str) -> str:
    flag, kind = argument[:2]
    if isinstance(kind, tuple):
        return f"{flag} {{{','.join(map(str, kind))}}}"
    if kind in (int, str) and flag[0] == "-":
        return f"{flag} {flag[2:].upper().replace('-', '_')}"
    return joiner.join(_spellings(argument))


def _usage(name: str) -> str:
    if not name:
        return "usage: charclasses [-h] {" + ",".join(COMMANDS) + "} ..."
    return f"usage: charclasses {name} [-h] " + " ".join(
        _invocation(a, " | ") if a[2] is None else f"[{_invocation(a, ' | ')}]"
        for a in COMMANDS[name][2])


def _help(name: str) -> str:
    """The help text of subcommand ``name``, or of the program for ""."""
    lines = [_usage(name), ""]
    if not name:
        lines += ["Exact characteristic-class computations.", "", "subcommands:",
                  *(f"  {command:<20}  {entry[1]}" for command, entry in COMMANDS.items()), ""]
    arguments = (_HELP, *COMMANDS[name][2]) if name else (_HELP,)
    lines += ["options:", *(f"  {_invocation(a, ', '):<20}  {a[3]}".rstrip() for a in arguments)]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    extras: list[str] = []
    try:
        values = _read("", _PROGRAM, iter(sys.argv[1:] if argv is None else argv), extras)
        if extras:
            raise _CommandLine("", f"unrecognized arguments: {' '.join(extras)}")
    except _CommandLine as exc:
        name, message = exc.args
        if message is None:
            sys.stdout.write(_help(name))
            return 0
        sys.stderr.write(f"{_usage(name)}\n{('charclasses ' + name).rstrip()}: error: {message}\n")
        return 2
    try:
        code, payload, text = COMMANDS[values["subcommand"]][0](values)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if values["--format"] == "json":
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
    reading the command line leaves none, and a ring is no reference
    cycle.  After ``signature`` of free Q[a,b,c] at dimension
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
