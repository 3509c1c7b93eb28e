"""Graded polynomial rings with monomial rewrite relations.

A ring is presented by an ordered list of generators, each with a name of
the form ``[A-Za-z_][A-Za-z_0-9]*`` and a positive integer degree, a
coefficient field (the rationals, or a prime field), and an optional set of
rewrite rules g^k -> rhs: g a single generator, k >= 2, and rhs a
homogeneous polynomial of the same degree that no rule left-hand side
divides.  One rule per generator at most, and no cycle of rules: a rule on
g may not raise the exponent of another ruled generator h whose rules lead,
in turn, back to g.  Order the ruled generators so that each comes before
those its right-hand side raises, and put the unruled ones last.
Lexicographic order in that sequence is then a monomial order in which
every g^k leads its rule.  The leading monomials are powers of distinct
generators, hence pairwise coprime, so the rules are already a Groebner
basis: rewriting ends, and any order of rewrites lands on the same normal
form.  A self-reference such as t^k -> -(c_1*t^(k-1) + ... + c_k) is legal.
Multiplication is strictly commutative, so generators of odd degree are only
accepted in characteristic 2 (in characteristic 0 an odd class would
anticommute with itself).

Each monomial is one packed int (Monagan and Pearce, CASC 2007): a field of
``_W`` = 21 bits per generator, the first generator's most significant,
under a top field holding the degree.  The high bit of each field is a
guard bit, so exponents run from 0 to ``MAX_EXPONENT`` = 2**20 - 1, and two
monomials within that bound add without a carry.  A product of monomials is
one addition, checked by one guard-bit test (``ValueError``); the degree is
one shift; rule g^k applies when adding 2**20 - k in the field of g sets a
guard bit; and integer order is graded-lex order (degree, then exponents in
declared order, earlier generators more significant), printed descending.
Only this module knows the layout: exponent vectors (tuples) are the edge,
where :meth:`Ring.pack` and :meth:`Ring.unpack` convert one at a time.
``Ring._power`` places every exponent (``pack`` sums its values, and the
parser reads each factor through it), and :func:`transport` is the only
code that re-keys terms from one ring's layout to another's.

Text syntax for polynomials: terms joined by ``+``/``-``; a term is factors
joined by ``*``, each an integer, a fraction ``n/d``, a generator ``g`` or a
power ``g^k``, e.g. ``-71/14175*p1^2*p2``.  Fractions are accepted in
characteristic 0 only.  Whitespace is allowed around every operator and at
both ends; factors written side by side (``2 x``, ``a b``) are rejected.
``parse(print(f)) == f`` holds for every polynomial.  Bad text, a zero
denominator included, raises ``ValueError``.  Text is split on signs one
window at a time, so the split's scratch stays within a window's size.

Coefficients are Python ints, in a :class:`Terms`: a dict from packed
monomial to nonzero numerator, over one denominator per polynomial,
positive and sharing no factor with all the numerators at once in
characteristic 0; in characteristic p the numerators are reduced to 1..p-1
over 1.  That pair is canonical, so equal polynomials have equal dicts.  A
``Terms`` holds numerators and a denominator only: the characteristic is
its ring's, and equality compares the rings, characteristic first, before
the terms.  Nor does it hold a ring, so a ring, whose rules hold their
right-hand sides as ``Terms``, is no reference cycle.  Products, sums,
scalar multiples, powers, the normal form, printing, substitution and the
building of rings from rings run on ints alone.  Rule right-hand sides
with fractions are stored as numerators over their common denominator L,
and each rewriting round scales by L (nothing when L is 1).  ``Fraction``
and ``PrimeScalar`` values exist only at the edge: they come in through
:meth:`Ring.poly`, and go out through ``coefficient``, ``constant_term``
and ``items`` of a :class:`GradedPoly`.  So this module imports
``fractions`` and :mod:`charclasses.scalars` only where such a value
crosses the edge: an ``n/d`` factor in text, a ``Fraction`` or
``PrimeScalar`` argument (each is recognised without loading the other's
module), a coefficient read out, and a ring of characteristic p, whose
modulus is validated.  A computation on int data in characteristic 0
loads neither.

Polynomials are checked where they are built from outside input, by
:meth:`Ring.poly`, which parses or coerces and then reduces to normal form.
:meth:`Ring.normal_form_terms` owns the dict it is given and may keep it,
reduced in place, as the result's, so each caller passes a dict of its own.
The constructor ``GradedPoly(ring, terms)`` checks nothing and stores
``terms``, a :class:`Terms`, as given: it must already be canonical and in
normal form.  Products reduce their own terms; sums, negation, scalar
multiples and graded components are normal by construction.  ``transport``
moves terms without reducing them, so a target rule g^k on a generator g of
the source needs a source rule g^j with j <= k.
"""
from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from functools import reduce
from math import gcd, inf, lcm
from operator import mul, or_
from typing import TYPE_CHECKING, Iterable, Iterator, Union

if TYPE_CHECKING:
    from fractions import Fraction

    from .scalars import PrimeScalar

__all__ = [
    "MAX_EXPONENT",
    "FieldError",
    "GradedPoly",
    "Ring",
    "Terms",
    "tensor_ring",
    "transport",
    "under",
    "validate_name",
]

Scalar = Union["Fraction", "PrimeScalar"]
Monomial = tuple[int, ...]

_W = 21  # bits per exponent field, the high one a guard bit
MAX_EXPONENT = 2 ** (_W - 1) - 1
_WINDOW = 1 << 16  # characters of polynomial text that _parse_terms splits at a time

# A generator name; Ring rejects every other name, so printed text parses.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# One factor: an integer, a fraction, a generator, or a generator power.
_FACTOR_RE = re.compile(
    r"\s*(?:(?P<numer>\d+)(?:\s*/\s*(?P<denom>\d+))?"
    rf"|(?P<name>{_NAME_RE.pattern})(?:\s*\^\s*(?P<power>\d+))?)\s*"
)


class FieldError(ValueError):
    """Bad input in one field: ``field`` is its path in the JSON document of
    the builder or decoder that raised it (``"total_p"``, ``"chern/1"``,
    ``"generators/1/name"``, ``""`` for the document itself), and ``str`` is
    the bare message.  ``args`` holds both, so the error pickles."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(field, message)
        self.field = field

    def __str__(self) -> str:
        return self.args[1]


def under(key: str, exc: ValueError) -> FieldError:
    """``exc``, raised on the sub-document at ``key``, at its field under
    ``key``, or at ``key`` for a ``ValueError`` that is no ``FieldError``."""
    field = exc.field if isinstance(exc, FieldError) else ""
    return FieldError(f"{key}/{field}" if key and field else key or field, str(exc))


def validate_name(name: object, field: str) -> None:
    """Reject, at ``field``, a generator name that the text syntax cannot
    read back."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise FieldError(field, f"bad generator name {name!r}; expected a letter or _ "
                         "followed by letters, digits or _")


class Ring:
    """A graded-commutative polynomial ring presentation.

    Immutable once constructed; construction validates the presentation and
    rejects bad input instead of repairing it.  A bad generator or rule
    raises ``FieldError`` at its field in the ring's {"generators",
    "relations"} document, such as ``generators/0/degree``.

    ``characteristic`` is 0 for rational coefficients, or a prime p below
    ``scalars.MAX_MODULUS``, validated here once for every scalar of the
    ring; ``generators`` are (name, degree) pairs in order; ``rules`` are
    (lhs, rhs) pairs, lhs ``"g^k"`` or ``(name, k)`` and rhs anything
    ``poly`` accepts (commonly a string or 0), or a polynomial of another
    ring with the same-named generators, moved in by :func:`transport`.

    ``rules`` maps each ruled generator's index to (k, rhs as
    :class:`Terms`); ``_rewrites`` keys them for the normal form by the bit
    length of g's guard bit, as (index of g, k, rhs numerators over
    ``_scale``, the common denominator of all), so that a rule costs no int
    as wide as a monomial beyond its right-hand side.  ``_shift`` is the
    shift of the degree field, ``_guard`` holds every guard bit, and adding
    ``_offset`` to a monomial sets the guard bit of g when the exponent of g
    reaches its rule's k.
    """

    __slots__ = (
        "characteristic", "names", "degrees", "_index", "rules", "_rewrites", "_scale",
        "_shift", "_guard", "_offset",
    )

    def __init__(self, characteristic: int, generators: Iterable[tuple[str, int]],
                 rules: Iterable[tuple[str | tuple[str, int], object]] = ()) -> None:
        if characteristic != 0:
            from .scalars import validate_modulus

            validate_modulus(characteristic)
        index: dict[str, int] = {}
        degrees: list[int] = []
        for i, (name, degree) in enumerate(generators):
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                validate_name(name, f"generators/{i}/name")  # the path is built only to report
            if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
                raise FieldError(f"generators/{i}/degree",
                                 f"generator {name!r} needs a positive integer degree")
            if degree % 2 == 1 and characteristic != 2:
                raise FieldError(f"generators/{i}/degree",
                                 f"generator {name!r} has odd degree {degree}; odd degrees "
                                 "require characteristic 2 under strict commutativity")
            if name in index:
                raise FieldError(f"generators/{i}/name", f"duplicate generator name {name!r}")
            index[name] = len(degrees)
            degrees.append(degree)
        self.characteristic = characteristic
        self.names = tuple(index)
        self.degrees = tuple(degrees)
        self._index = index
        self._shift = _W * len(degrees)
        # the repunit with a 1 in the low bit of each field, moved up
        self._guard = ((1 << self._shift) - 1) // ((1 << _W) - 1) << (_W - 1)
        self.rules: dict[int, tuple[int, Terms]] = {}  # == and transport read it while building
        self.rules = self._build_rules(rules)
        self._scale = lcm(*(rhs.den for _, rhs in self.rules.values()))
        self._rewrites = {
            self._shift - _W * i: (i, k, {mon: c * (self._scale // rhs.den)
                                          for mon, c in rhs.num.items()})
            for i, (k, rhs) in self.rules.items()
        }

    def __reduce__(self) -> tuple:
        # each rhs as text, which parses back to the same terms
        rules = [((self.names[i], k), str(GradedPoly(self, rhs)))
                 for i, (k, rhs) in self.rules.items()]
        return Ring, (self.characteristic, tuple(zip(self.names, self.degrees)), rules)

    # ------------------------------------------------------------------
    # construction helpers

    def _build_rules(self, rules: Iterable[tuple[str | tuple[str, int], object]]
                     ) -> dict[int, tuple[int, Terms]]:
        """The rule table, checked; it sets ``_offset``, which the check reads.
        A fault of the i-th rule alone is a ``FieldError`` at its field."""
        table: dict[int, tuple[int, Terms]] = {}
        position: dict[int, int] = {}  # ruled generator -> i
        for i, (lhs, rhs) in enumerate(rules):
            try:
                name, power = _parse_rule_lhs(lhs) if isinstance(lhs, str) else lhs
                if name not in self._index:
                    raise ValueError(f"rule on unknown generator {name!r}")
                idx = self._index[name]
                if type(power) is not int or power < 2:
                    raise ValueError(f"rule left-hand side must be g^k with an int k >= 2, "
                                     f"got {name}^{power}")
                if power > MAX_EXPONENT:
                    raise _exponent_error(f"rule exponent {power}")
                if idx in table:
                    raise ValueError(f"more than one rule for generator {name!r}")
            except ValueError as exc:
                raise under(f"relations/{i}/lhs", exc) from exc
            try:
                rhs_terms = (transport(rhs, self).terms if isinstance(rhs, GradedPoly)
                             else Terms.reduced(*self._raw_terms(rhs), self.characteristic))
                lhs_degree = power * self.degrees[idx]
                for mon in rhs_terms.num:
                    if mon >> self._shift != lhs_degree:
                        raise ValueError(f"rule {name}^{power} has an inhomogeneous right-hand "
                                         f"side (degree {mon >> self._shift} term, expected "
                                         f"{lhs_degree})")
            except ValueError as exc:
                raise under(f"relations/{i}/rhs", exc) from exc
            table[idx] = (power, rhs_terms)
            position[idx] = i
        self._offset = offset = sum(MAX_EXPONENT + 1 - k << self._shift - _W * (i + 1)
                                    for i, (k, _) in table.items())
        # rhs monomials must be irreducible with respect to the whole table,
        # the rule's own left-hand side included; the first rule in the
        # table that divides one is named
        for idx, (_, rhs_terms) in table.items():
            for mon in rhs_terms.num:
                if hit := (mon + offset) & self._guard:
                    j, k = next((j, k) for j, (k, _) in table.items()
                                if hit >> self._shift - _W * j - 1 & 1)
                    raise FieldError(f"relations/{position[idx]}/rhs",
                                     f"right-hand side of rule on {self.names[idx]!r} "
                                     f"contains a monomial divisible by {self.names[j]}^{k}")
        # i -> j when rewriting by i's rule can raise the exponent of another
        # ruled generator j; peel off rules with no edge left, and a cycle
        # is what remains
        edges = {
            i: {j for mon in rhs.num for j, _ in self._exponents(mon) if j != i and j in table}
            for i, (_, rhs) in table.items()
        }
        while True:
            done = [i for i, out in edges.items() if not out & edges.keys()]
            if not done:
                break
            for i in done:
                del edges[i]
        if edges:
            # every rule left has an edge to another one left: walk until a
            # rule repeats, and the last edge lies on a cycle
            walk = [min(edges)]
            while (step := min(edges[walk[-1]] & edges.keys())) not in walk:
                walk.append(step)
            raise ValueError(f"rules on {self.names[walk[-1]]!r} and {self.names[step]!r} "
                             "lie on a cycle of rewrites, so rewriting need not end")
        return table

    def _raw_terms(self, source: object) -> tuple[dict[int, int], int]:
        """Parse/coerce into int numerators over a denominator, without
        applying rules."""
        if isinstance(source, GradedPoly):
            if source.ring is not self and source.ring != self:
                raise ValueError("polynomial belongs to a different ring")
            return dict(source.terms.num), source.terms.den
        if isinstance(source, str):
            # in characteristic p the parsed ints are left to the normal form
            terms = _parse_terms(self, source)
            return (terms, 1) if self.characteristic else self._integral(terms)
        if isinstance(source, Mapping):
            return self._integral({self.pack(mon): c for mon, c in source.items()})
        if isinstance(source, int) or _is_scalar(source):
            n, d = self._parts(source)
            return ({0: n} if n else {}), d
        raise TypeError(f"cannot build a polynomial from {source!r}")

    def _integral(self, terms: Mapping[int, object]) -> tuple[dict[int, int], int]:
        """Int numerators over one denominator for a mapping to scalars,
        zeros dropped; in characteristic p the numerators are reduced."""
        parts = self._parts
        if self.characteristic:
            return {mon: n for mon, c in terms.items() if (n := parts(c)[0])}, 1
        den = lcm(*(parts(c)[1] for c in terms.values()))
        num: dict[int, int] = {}
        for mon, c in terms.items():
            n, d = parts(c)
            if n:
                num[mon] = n * (den // d)
        return num, den

    # ------------------------------------------------------------------
    # scalars

    def _parts(self, value: object) -> tuple[int, int]:
        """(numerator, denominator) of an int or a scalar of this field: the
        one place that checks a scalar from outside.  In characteristic p
        the numerator is reduced and the denominator is 1."""
        if isinstance(value, bool):
            raise TypeError("booleans are not scalars")
        p = self.characteristic
        if isinstance(value, int):
            return (value % p if p else value), 1
        if p == 0:
            from fractions import Fraction

            if isinstance(value, Fraction):
                return value.numerator, value.denominator
        else:
            from .scalars import PrimeScalar

            if isinstance(value, PrimeScalar):
                if value.modulus != p:
                    raise ValueError(f"scalar mod {value.modulus} in a ring of characteristic {p}")
                return value.value, 1
        raise TypeError(f"cannot use {value!r} as a characteristic {p} coefficient")

    # ------------------------------------------------------------------
    # monomials

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)

    def monomial_degree(self, mon: Monomial) -> int:
        return sum(map(mul, mon, self.degrees))

    def monomial_str(self, mon: Monomial) -> str:
        return self._key_str(self.pack(mon))

    def pack(self, mon: Iterable[int]) -> int:
        """The packed int of an exponent vector, checked."""
        mon = tuple(mon)
        if len(mon) != len(self.names) or any(type(e) is not int or e < 0 for e in mon):
            raise ValueError(f"bad exponent vector {mon}")
        if any(e > MAX_EXPONENT for e in mon):
            raise _exponent_error(f"exponent {max(mon)}")
        return sum(self._power(i, e) for i, e in enumerate(mon) if e)

    def unpack(self, key: int) -> Monomial:
        """The exponent vector of a packed int."""
        exps = [0] * len(self.names)
        for i, e in self._exponents(key):
            exps[i] = e
        return tuple(exps)

    def _exponents(self, key: int) -> Iterator[tuple[int, int]]:
        """(generator index, exponent) for each nonzero exponent, in order."""
        bits = format(key, f"0{self._shift}b")
        start = len(bits) - self._shift  # past the degree field
        pos = bits.find("1", start)
        while pos >= 0:
            end = pos + _W - (pos - start) % _W
            yield (end - start) // _W - 1, int(bits[end - _W:end], 2)
            pos = bits.find("1", end)

    def _power(self, idx: int, e: int) -> int:
        """The packed int of generator ``idx`` to the power e <= MAX_EXPONENT."""
        return e * self.degrees[idx] << self._shift | e << self._shift - _W * (idx + 1)

    def _key_str(self, key: int) -> str:
        names = self.names
        return "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in self._exponents(key))

    # ------------------------------------------------------------------
    # normal form

    def normal_form_terms(self, terms: dict[int, int], denominator: int) -> Terms:
        """Reduce int numerators over ``denominator`` modulo the rules, in rounds.

        ``terms`` maps packed monomials within the bound to numerators,
        which may be zero and, in characteristic p (over 1), unreduced.  The
        call owns ``terms``: every caller passes a dict of its own, which
        may come back as the result's, reduced in place; a dict already in
        normal form comes back unchanged.  Each round adds each irreducible
        term into the result and replaces each reducible one by its image
        under the rule of its first generator that reaches its rule's power
        (any order of rewrites lands on the same normal form); the images
        are summed into the next round, so like terms merge and cancelled
        ones drop out before they are rewritten again.  An image past
        ``MAX_EXPONENT`` raises ``ValueError``.  A rewriting round scales by
        the rules' common denominator L unless L is 1.  The rounds end as
        every rewrite chain ends (the ring rejects rules that cycle)."""
        p = self.characteristic
        rewrites, power = self._rewrites, self._power
        guard, offset = self._guard, self._offset
        scale = self._scale
        out: dict[int, int] = {}
        pending = terms
        while pending:
            if not out and not reduce(or_, map(offset.__add__, pending), 0) & guard:
                return Terms.reduced(pending, denominator, p)  # all irreducible
            images: dict[int, int] = {}
            for mon, coeff in pending.items():
                if p:
                    coeff %= p
                if not coeff:
                    continue
                hit = (mon + offset) & guard
                if not hit:
                    acc = out.get(mon)
                    out[mon] = coeff if acc is None else acc + coeff
                    continue
                i, k, rhs = rewrites[hit.bit_length()]  # the highest guard bit set
                lowered = mon - power(i, k)
                for rmon, rcoeff in rhs.items():
                    pushed = lowered + rmon
                    c = coeff * rcoeff
                    acc = images.get(pushed)
                    images[pushed] = c if acc is None else acc + c
            if reduce(or_, images, 0) & guard:
                raise _exponent_error("an exponent")
            if images and scale != 1:
                out = {mon: c * scale for mon, c in out.items()}
                denominator *= scale
            pending = images
        return Terms.reduced(out, denominator, p)

    # ------------------------------------------------------------------
    # polynomial factories

    def poly(self, source: object) -> "GradedPoly":
        """Build a polynomial from a string, scalar, term dict, or poly.

        The one entry that checks outside input and reduces it to normal
        form.
        """
        num, den = self._raw_terms(source)
        return GradedPoly(self, self.normal_form_terms(num, den))

    def zero(self) -> "GradedPoly":
        return GradedPoly(self, Terms({}, 1))

    def one(self) -> "GradedPoly":
        return self.poly(1)

    def gen(self, name: str) -> "GradedPoly":
        if name not in self._index:
            raise ValueError(f"unknown generator {name!r}")
        return GradedPoly(self, self.normal_form_terms({self._power(self._index[name], 1): 1}, 1))

    def monomial(self, source: str) -> Monomial:
        """Parse a single monomial with coefficient 1, e.g. ``"x*y^2"``."""
        terms = self.poly(source).terms
        if len(terms) != 1:
            raise ValueError(f"{source!r} is not a single monomial")
        ((mon, coeff),) = terms.num.items()
        if coeff != 1 or terms.den != 1:
            raise ValueError(f"{source!r} has a coefficient, expected a bare monomial")
        return self.unpack(mon)

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Ring):
            return NotImplemented
        return (self.characteristic, self.names, self.degrees, self.rules) == (
            other.characteristic, other.names, other.degrees, other.rules)

    __hash__ = None  # structural equality, so no hashing

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}({d})" for n, d in zip(self.names, self.degrees))
        return f"Ring(char {self.characteristic}; {gens}; {len(self.rules)} rules)"


class Terms:
    """The terms of a polynomial: ``num``, a dict from packed monomial to
    nonzero int numerator, over one denominator ``den``.  Canonical: in
    characteristic 0, ``den`` is positive and the gcd of ``den`` and all
    numerators is 1; in characteristic p, numerators lie in 1..p-1 and
    ``den`` is 1.  It holds neither a ring nor its characteristic: only a
    :class:`GradedPoly` reads its monomials as exponent vectors and its
    numerators as scalars."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict[int, int], den: int) -> None:
        self.num = num
        self.den = den

    def __reduce__(self) -> tuple:
        return Terms, (self.num, self.den)

    @classmethod
    def reduced(cls, num: dict[int, int], den: int, p: int) -> "Terms":
        """The canonical terms of int numerators over a positive ``den``.
        It works in place, so ``num`` must not be shared; numerators already
        canonical are left as they are."""
        if p:
            for mon in [mon for mon, n in num.items() if not 0 < n < p]:
                if r := num[mon] % p:
                    num[mon] = r
                else:
                    del num[mon]
            return cls(num, 1)
        for mon in [mon for mon, n in num.items() if not n]:
            del num[mon]
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {mon: n // g for mon, n in num.items()}
                den //= g
        return cls(num, den)

    def subset(self, num: dict[int, int]) -> "Terms":
        """The canonical terms of some of these numerators, under the same
        or other monomials, over the same denominator."""
        if self.den == 1:
            return Terms(num, 1)
        return Terms.reduced(num, self.den, 0)  # terms of characteristic p are over 1

    def __len__(self) -> int:
        return len(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Terms):
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    __hash__ = None


class GradedPoly:
    """An element of a :class:`Ring`, stored in normal form.

    The constructor stores ``terms`` as given and checks nothing: it must
    already be canonical and in the ring's normal form.  Outside input goes
    through :meth:`Ring.poly`.  The terms are never mutated after
    construction; all arithmetic returns new polynomials.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Terms) -> None:
        self.ring = ring
        self.terms = terms

    def __reduce__(self) -> tuple:
        return GradedPoly, (self.ring, self.terms)

    # ------------------------------------------------------------------

    def _compatible(self, other: "GradedPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials belong to different rings")

    def __add__(self, other: object) -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            other = self.ring.poly(other)
        self._compatible(other)
        a, b = self.terms, other.terms
        den = lcm(a.den, b.den)
        out = dict(a.num) if den == a.den else {m: n * (den // a.den) for m, n in a.num.items()}
        other_num = b.num if den == b.den else {m: n * (den // b.den) for m, n in b.num.items()}
        for mon, n in other_num.items():
            acc = out.get(mon)
            out[mon] = n if acc is None else acc + n
        return GradedPoly(self.ring, Terms.reduced(out, den, self.ring.characteristic))

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        t = self.terms
        p = self.ring.characteristic
        num = ({mon: p - n for mon, n in t.num.items()} if p
               else {mon: -n for mon, n in t.num.items()})
        return GradedPoly(self.ring, Terms(num, t.den))

    def __sub__(self, other: object) -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            other = self.ring.poly(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other: object) -> "GradedPoly":
        return self.__neg__().__add__(self.ring.poly(other))

    def __mul__(self, other: object) -> "GradedPoly":
        ring = self.ring
        a = self.terms
        if not isinstance(other, GradedPoly):
            n, d = ring._parts(other)
            if not n:
                return ring.zero()
            scaled = {mon: c * n for mon, c in a.num.items()}
            return GradedPoly(ring, Terms.reduced(scaled, a.den * d, ring.characteristic))
        self._compatible(other)
        b = other.terms
        out: dict[int, int] = {}
        for m1, c1 in a.num.items():
            for m2, c2 in b.num.items():
                mon = m1 + m2
                c = c1 * c2
                acc = out.get(mon)
                out[mon] = c if acc is None else acc + c
        if reduce(or_, out, 0) & ring._guard:  # two monomials within the bound never carry
            raise _exponent_error("an exponent")
        return GradedPoly(ring, ring.normal_form_terms(out, a.den * b.den))

    def __rmul__(self, other: object) -> "GradedPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "GradedPoly":
        if type(n) is not int or n < 0:
            raise ValueError(f"polynomial powers must be nonnegative integers, got {n}")
        result = self.ring.one()
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GradedPoly):
            return (
                (self.ring is other.ring or self.ring == other.ring)
                and self.terms == other.terms
            )
        if isinstance(other, int) or _is_scalar(other):
            return self == self.ring.poly(other)
        return NotImplemented

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms.num)

    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms.num

    def degree(self) -> int | None:
        """Degree of the top nonzero graded piece, or None for the zero poly."""
        return max(self.terms.num) >> self.ring._shift if self.terms.num else None

    def degrees(self) -> list[int]:
        """The degrees of the terms, each once, in the order of the terms."""
        shift = self.ring._shift
        return list(dict.fromkeys(m >> shift for m in self.terms.num))

    def is_homogeneous(self, k: int | None = None) -> bool:
        degs = self.degrees()
        return len(degs) <= 1 if k is None else degs in ([], [k])

    def graded_component(self, k: int) -> "GradedPoly":
        """The degree-k part."""
        return self.graded_components((k,))[k]

    def graded_components(self, degrees: Iterable[int]) -> dict[int, "GradedPoly"]:
        """The degree-k part for each k in ``degrees``, from one pass over the terms."""
        ring, shift = self.ring, self.ring._shift
        picked: dict[int, dict[int, int]] = {k: {} for k in degrees}
        for m, c in self.terms.num.items():
            part = picked.get(m >> shift)
            if part is not None:
                part[m] = c
        return {k: GradedPoly(ring, self.terms.subset(p)) for k, p in picked.items()}

    def sign_twist(self, period: int) -> "GradedPoly":
        """This polynomial with its terms of degree period/2 mod period negated."""
        shift, half = self.ring._shift, period // 2
        p, t = self.ring.characteristic, self.terms
        return GradedPoly(self.ring, Terms({
            m: (p - n if p else -n) if (m >> shift) % period == half else n
            for m, n in t.num.items()
        }, t.den))

    def constant_term(self) -> Scalar:
        return self._scalar(self.terms.num.get(0, 0))

    def constant_term_is_one(self) -> bool:
        """Whether the constant term is 1, read off the ints: numerator over
        denominator is 1 only as equal ints, in every characteristic."""
        return self.terms.num.get(0) == self.terms.den

    def coefficient(self, mon: Monomial | str) -> Scalar:
        """Coefficient of a monomial (exponent vector or text): 0 past
        ``MAX_EXPONENT``, which no term reaches; a malformed vector raises."""
        if isinstance(mon, str):
            mon = self.ring.monomial(mon)
        mon = tuple(mon)
        try:
            key = self.ring.pack(mon)
        except ValueError:  # malformed, or past MAX_EXPONENT
            if len(mon) != len(self.ring.names) or any(type(e) is not int or e < 0 for e in mon):
                raise
            return self._scalar(0)
        return self._scalar(self.terms.num.get(key, 0))

    def items(self) -> Iterator[tuple[Monomial, Scalar]]:
        """(exponent vector, coefficient) for each term, in the order of the terms."""
        unpack, scalar = self.ring.unpack, self._scalar
        return ((unpack(mon), scalar(n)) for mon, n in self.terms.num.items())

    def _scalar(self, n: int) -> Scalar:
        """n over the denominator, in the field: the one place that builds
        a scalar, without checking the modulus again."""
        p = self.ring.characteristic
        if p:
            from .scalars import _unchecked

            return _unchecked(n, p)
        from fractions import Fraction

        return Fraction(n, self.terms.den)

    def tail_coefficient(self, tail: Monomial) -> "GradedPoly":
        """The coefficient of the monomial ``tail`` in the last generators
        of this ring: the terms whose last exponents are ``tail``, divided
        by it, in this ring.  Each quotient divides an irreducible
        monomial, so it is irreducible too."""
        ring = self.ring
        key = ring.pack((0,) * (len(ring.names) - len(tail)) + tuple(tail))
        mask = (1 << _W * len(tail)) - 1
        want = key & mask
        return GradedPoly(ring, self.terms.subset({
            m - key: c for m, c in self.terms.num.items() if m & mask == want
        }))

    def substitute(self, mapping: Mapping[str, object], target: Ring) -> "GradedPoly":
        """Image under generator -> polynomial substitution, into a ring of
        the same characteristic.

        Every generator that actually occurs must be mapped; values may be
        polynomials in the target ring or scalars.  Into ``Ring(0, [])``
        it evaluates at scalars.
        """
        if target.characteristic != self.ring.characteristic:
            raise ValueError("substitution target has another characteristic")
        images: dict[int, GradedPoly] = {}
        for name, value in mapping.items():
            idx = self.ring._index.get(name)
            if idx is None:
                raise ValueError(f"substitution names unknown generator {name!r}")
            images[idx] = value if isinstance(value, GradedPoly) else target.poly(value)
        result = target.zero()
        names = self.ring.names
        for mon, n in self.terms.num.items():
            piece = target.poly(n)
            for idx, e in self.ring._exponents(mon):
                if idx not in images:
                    raise ValueError(f"no substitution value for generator {names[idx]!r}")
                piece = piece * images[idx] ** e
            result = result + piece
        den = self.terms.den
        if den == 1:
            return result
        t = result.terms  # result's own dict, built by the sums above
        return GradedPoly(target, Terms.reduced(t.num, t.den * den, target.characteristic))

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        # descending graded-lex order; one gcd reduces each coefficient
        ring = self.ring
        num, den = self.terms.num, self.terms.den
        if not num:
            return "0"
        chunks: list[str] = []
        for mon in sorted(num, reverse=True):
            n = num[mon]
            g = gcd(n, den)
            mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            body = ring._key_str(mon)
            if not body:
                body = mag
            elif mag != "1":
                body = f"{mag}*{body}"
            chunks.append(f" - {body}" if n < 0 else f" + {body}")
        text = "".join(chunks)
        return text[3:] if text[1] == "+" else f"-{text[3:]}"

    def __repr__(self) -> str:
        return f"<GradedPoly {self}>"


# ----------------------------------------------------------------------
# parsing and printing internals


def _is_scalar(value: object) -> bool:
    """Whether value is a ``Fraction`` or a ``PrimeScalar``.  Either exists
    only once its module is loaded, so this loads neither."""
    fractions = sys.modules.get("fractions")
    scalars = sys.modules.get(f"{__package__}.scalars")
    return ((fractions is not None and isinstance(value, fractions.Fraction))
            or (scalars is not None and isinstance(value, scalars.PrimeScalar)))


def _exponent_error(what: str) -> ValueError:
    return ValueError(f"{what} exceeds MAX_EXPONENT = {MAX_EXPONENT}")


def _parse_rule_lhs(text: str) -> tuple[str, int]:
    m = _FACTOR_RE.fullmatch(text)
    if not m or m["power"] is None:
        raise ValueError(f"rule left-hand side must look like 'g^k', got {text!r}")
    return m["name"], int(m["power"])


def _parse_terms(ring: Ring, text: str) -> dict[int, int | Fraction]:
    """Parse the text syntax into an unreduced dict from packed monomial to
    int, or Fraction in characteristic 0, not yet reduced mod p; zero sums
    are kept.  Windows of the text, each cut just before the first sign
    past ``_WINDOW`` characters, are split on signs in turn, each ``-``
    opening the piece it signs.  A term is its head, the factors before its
    last ``*``, times its last factor; heads recur, so each distinct head and
    factor is read once, left to right, into a memoized packed monomial and
    coefficient.  A head within the bound plus one factor cannot carry."""
    if not text or text.isspace():
        raise ValueError("empty polynomial text")
    if (text[-_WINDOW:].rstrip() or text.rstrip())[-1] in "+-":
        raise ValueError("dangling sign in polynomial")
    guard = ring._guard
    memo: dict[str, tuple[int, int | Fraction]] = {}

    def read(factors: str) -> tuple[int, int | Fraction]:
        mon, coeff = 0, 1
        for factor in factors.split("*"):
            if (value := memo.get(factor)) is None:
                memo[factor] = value = _factor(ring, factor)
            if (mon := mon + value[0]) & guard:
                raise _exponent_error("an exponent")
            if value[1] != 1:  # a power's coefficient is 1
                coeff = value[1] if coeff == 1 else coeff * value[1]
        memo[factors] = mon, coeff
        return mon, coeff

    out: dict[int, int | Fraction] = {}
    negative = False
    start, size = 0, len(text)
    while start < size:
        cut = re.compile("[+-]").search(text, start + _WINDOW) if start + _WINDOW < size else None
        end = cut.start() if cut else size
        for piece in text[start:end].replace("-", "+-").split("+"):
            if piece[:1] == "-":
                negative = not negative
                piece = piece[1:]
            if not piece or piece.isspace():  # between the signs of a run
                continue
            head, star, last = piece.rpartition("*")
            mon, coeff = memo.get(head) or read(head) if star else (0, 1)
            lmon, lcoeff = memo.get(last) or read(last)
            if (mon := mon + lmon) & guard:
                raise _exponent_error("an exponent")
            if lcoeff != 1:
                coeff = coeff * lcoeff
            if negative:
                coeff, negative = -coeff, False
            acc = out.get(mon)
            out[mon] = coeff if acc is None else acc + coeff
        start = end
    return out


def _factor(ring: Ring, text: str) -> tuple[int, int | Fraction]:
    """(packed power, 1) or (0, coefficient) of one factor."""
    m = _FACTOR_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad factor {text.strip()!r} in polynomial" if text.strip()
                         else "dangling '*' in polynomial")
    if m["name"] is not None:
        idx = ring._index.get(m["name"])
        if idx is None:
            raise ValueError(f"unknown generator {m['name']!r}")
        e = int(m["power"] or 1)
        if e > MAX_EXPONENT:
            raise _exponent_error(f"exponent {e}")
        return ring._power(idx, e), 1
    if m["denom"] is None:
        return 0, int(m["numer"])
    if not int(m["denom"]):
        raise ValueError("zero denominator in coefficient")
    if ring.characteristic:
        # prime-field coefficients are written as bare integers
        raise ValueError("fractional coefficients are not accepted in "
                         f"characteristic {ring.characteristic}")
    from fractions import Fraction

    return 0, Fraction(int(m["numer"]), int(m["denom"]))


# ----------------------------------------------------------------------
# ring combination


def tensor_ring(a: Ring, b: Ring) -> Ring:
    """Tensor product over the common coefficient field.

    Generator lists are concatenated (a's first) and must be disjoint by
    name; rules carry over unchanged, moved by :func:`transport`.  This is
    the Kunneth presentation for product spaces.  A second factor that does
    not fit raises ``FieldError`` at the field of its bare ring document,
    {"characteristic": ..., "ring": {...}}: ``characteristic``, or
    ``ring/generators/<i>/name`` for the first of its generator names that
    ``a`` has too (the message lists them all).
    """
    if a.characteristic != b.characteristic:
        raise FieldError("characteristic", "tensor factors have different characteristics")
    if overlap := [name for name in b.names if name in a._index]:
        raise FieldError(f"ring/generators/{b._index[overlap[0]]}/name",
                         f"generator names collide in tensor product: {sorted(overlap)}; "
                         "rename before combining")
    rules = [((r.names[i], k), GradedPoly(r, rhs))
             for r in (a, b) for i, (k, rhs) in r.rules.items()]
    gens = zip(a.names + b.names, a.degrees + b.degrees)
    return Ring(a.characteristic, gens, rules)


def transport(poly: GradedPoly, target: Ring) -> GradedPoly:
    """Re-express a polynomial in a ring containing the same-named generators.

    Each generator that actually occurs in the polynomial must exist in the
    target with the same degree.  The terms are moved, not reduced, so a
    target rule g^k on a generator g of the source needs a source rule g^j
    with j <= k; otherwise ``ValueError`` is raised.  It pulls classes back
    into a tensor ring or a family's total ring, and moves a pushforward,
    which holds base generators only, into the base ring.  A run of source
    generators that follow one another in the target too moves from bit s
    to bit t as one shifted, masked int times 2^t - 2^s, added to the key.
    The degree field leads the first run, and a run that stays put costs
    nothing, so a pullback into a tensor ring is one step per term.  A
    polynomial of the target ring itself comes back as it is."""
    if poly.ring is target:
        return poly
    src = poly.ring
    if src.characteristic != target.characteristic:
        raise ValueError(f"cannot transport from characteristic {src.characteristic} "
                         f"to characteristic {target.characteristic}")
    num = poly.terms.num
    # [source index, target index, length], the degree field as index -1
    runs = [[-1, -1, 1]]
    for i, (name, degree) in enumerate(zip(src.names, src.degrees)):
        idx = target._index.get(name)
        if idx is None:
            field = (1 << _W) - 1 << src._shift - _W * (i + 1)
            if any(mon & field for mon in num):
                raise ValueError(f"target ring has no generator {name!r}")
        elif target.degrees[idx] != degree:
            raise ValueError(f"generator {name!r} has degree {target.degrees[idx]} in the "
                             f"target ring, {degree} in the source")
        elif target.rules.get(idx, (inf,))[0] < src.rules.get(i, (inf,))[0]:
            raise ValueError(f"the target ring rewrites {name}^{target.rules[idx][0]}, "
                             "which is irreducible in the source ring")
        elif runs[-1][0] + runs[-1][2] == i and runs[-1][1] + runs[-1][2] == idx:
            runs[-1][2] += 1
        else:
            runs.append([i, idx, 1])
    moved = num
    for i, j, n in runs:
        s = src._shift - _W * (i + n)
        step = (1 << target._shift - _W * (j + n)) - (1 << s)
        if step:
            mask = (1 << _W * n) - 1 if i >= 0 else -1  # nothing lies above the degree field
            moved = {k + (mon >> s & mask) * step: c for (k, c), mon in zip(moved.items(), num)}
    return GradedPoly(target, Terms(dict(num) if moved is num else moved, poly.terms.den))

