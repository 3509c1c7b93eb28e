"""Per-layer spans, recorded from outside the package.

The package has no instrumentation of its own, so this module wraps its
public functions and methods and records, for each CLI process, one span
tree: name, parent, start, end.  Every ``charclasses.*`` binding of a
wrapped function is patched (``cli``'s ``from .genus import evaluate_genus``
included), and ``uninstall`` puts the originals back.

The hot layers (ring multiply, normal form, prime-field scalars) are
called millions of times in one process, so calls with the same name under
the same parent span share one node: it keeps the call count, the first
start, the last end, the summed duration and the summed duration of its
children.  A layer's self time is its duration minus the time its child
spans cover.  ``fractions.Fraction`` is stdlib and not wrapped, so rational
arithmetic counts as self time of whichever layer calls it.

Run as a script, it is the traced CLI: ``python tracer.py <cli args>``
behaves like ``python -m charclasses <cli args>`` and appends one line
``#perfbench-trace <json>`` to stderr.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

TRACE_MARK = b"#perfbench-trace "


@dataclass(slots=True)
class Span:
    """All calls of one name under one parent span."""

    name: str
    parent: int
    calls: int = 0
    start: float | None = None
    end: float = 0.0
    total_s: float = 0.0
    child_s: float = 0.0


class Tracer:
    """A span tree built from nested calls, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._index: dict[tuple[int, str], int] = {}
        self._stack: list[int] = [-1]
        self._covered: list[float] = [0.0]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1]
        node = self._index.get((parent, name))
        if node is None:
            node = self._index[(parent, name)] = len(self.spans)
            self.spans.append(Span(name, parent))
        self._stack.append(node)
        self._covered.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            span = self.spans[node]
            span.calls += 1
            if span.start is None:
                span.start = start
            span.end = end
            span.total_s += end - start
            span.child_s += self._covered.pop()
            self._covered[-1] += end - start

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "parent": s.parent, "calls": s.calls, "start": s.start,
                 "end": s.end, "total_s": s.total_s, "child_s": s.child_s}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }


# ----------------------------------------------------------------------
# what to wrap


def _count_normal_form(t: Tracer, args: tuple, result: Any, pre: Any) -> None:
    t.count("rings.normal_form.terms_in", len(args[1]))
    t.count("rings.normal_form.terms_out", len(result))


def _count_mul(t: Tracer, args: tuple, result: Any, pre: Any) -> None:
    left, right = args[0], args[1]
    pairs = len(left.terms) * (len(right.terms) if hasattr(right, "terms") else 1)
    t.count("rings.mul.pairs", pairs)
    t.count("rings.mul.terms_out", len(result.terms))


def _count_terms(t: Tracer, args: tuple, result: Any, pre: Any) -> None:
    t.count("genus.k_polynomial.terms", len(result.terms))


def _table_cached(args: tuple) -> bool:
    return args[0] in sys.modules["charclasses.symfun"]._M_TO_E_TABLES


def _count_table(t: Tracer, args: tuple, result: Any, pre: Any) -> None:
    t.count("symfun.table_lookups")
    if not pre:
        t.count("symfun.table_builds")


def _wrap_gysin(t: Tracer, args: tuple, result: Any, pre: Any) -> None:
    gysin = result.gysin
    # BundleModel is frozen; the pushforward is a per-instance closure
    object.__setattr__(result, "gysin", functools.wraps(gysin)(
        lambda *a, **k: t.call("bundles.gysin", gysin, a, k)))


@dataclass(frozen=True)
class Target:
    """One function to wrap: span name, module, attribute path, hooks.

    ``span`` False records no span, only what ``after`` counts.  ``before``
    sees the arguments before the call; its result reaches ``after``.
    """

    name: str
    module: str
    attr: str
    after: Callable[[Tracer, tuple, Any, Any], None] | None = None
    before: Callable[[tuple], Any] | None = None
    span: bool = True


TARGETS = (
    Target("cli.main", "charclasses.cli", "main"),
    Target("documents.decode", "charclasses.documents", "space_from_document"),
    Target("documents.decode", "charclasses.documents", "bundle_from_document"),
    Target("rings.ring_build", "charclasses.rings", "Ring.__init__"),
    Target("rings.normal_form", "charclasses.rings", "Ring.normal_form_terms",
           after=_count_normal_form),
    Target("rings.mul", "charclasses.rings", "GradedPoly.__mul__", after=_count_mul),
    Target("rings.substitute", "charclasses.rings", "GradedPoly.substitute"),
    Target("scalars.prime", "charclasses.scalars", "PrimeScalar.__post_init__"),
    Target("symfun.monomial_to_elementary", "charclasses.symfun", "monomial_to_elementary"),
    Target("symfun.table", "charclasses.symfun", "_m_to_e_table",
           after=_count_table, before=_table_cached, span=False),
    Target("genus.k_polynomial", "charclasses.genus", "MultiplicativeSequence.k_polynomial",
           after=_count_terms),
    Target("genus.evaluate_genus", "charclasses.genus", "evaluate_genus"),
    Target("bundles.build", "charclasses.bundles", "product_bundle", after=_wrap_gysin),
    Target("bundles.build", "charclasses.bundles", "projectivize", after=_wrap_gysin),
    Target("bundles.kappa", "charclasses.bundles", "kappa"),
    Target("counterexample.run", "charclasses.counterexample", "run"),
    Target("checks.run_checks", "charclasses.checks", "run_checks"),
    Target("spaces.space_model", "charclasses.spaces", "SpaceModel.__post_init__"),
    Target("spaces.product_space", "charclasses.spaces", "product_space"),
    Target("spaces.chern_to_pontryagin", "charclasses.spaces", "chern_to_pontryagin"),
    Target("spaces.bso_presentation", "charclasses.spaces", "bso_presentation"),
    Target("spaces.integrate", "charclasses.spaces", "integrate"),
    Target("spaces.sphere", "charclasses.spaces", "sphere"),
    Target("spaces.cp", "charclasses.spaces", "cp"),
    Target("spaces.hp", "charclasses.spaces", "hp"),
)


def _wrapper(t: Tracer, target: Target, fn: Callable) -> Callable:
    after, before, name = target.after, target.before, target.name

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        pre = before(args) if before else None
        result = t.call(name, fn, args, kwargs) if target.span else fn(*args, **kwargs)
        if after:
            after(t, args, result, pre)
        return result

    return wrapped


Restore = list[tuple[object, str, object]]


def install(t: Tracer, targets: tuple[Target, ...] = TARGETS) -> Restore:
    """Wrap every target and patch each binding of it in ``charclasses.*``.

    Returns what ``uninstall`` needs to put the originals back.
    """
    restore: Restore = []
    packages = [m for n, m in sys.modules.items() if n.split(".")[0] == "charclasses"]
    for target in targets:
        owner: Any = importlib.import_module(target.module)
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapped = _wrapper(t, target, original)
        restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if not path:
            for module in packages:
                for name, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, name, original))
                        setattr(module, name, wrapped)
    return restore


def uninstall(restore: Restore) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    cli = importlib.import_module("charclasses.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        record = dict(tracer.dump(), import_s=import_s)
        sys.stderr.buffer.write(TRACE_MARK + json.dumps(record).encode() + b"\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
