"""Graded polynomial rings with monomial rewrite relations.

A ring is presented by an ordered list of generators, each with a name of
the form ``[A-Za-z_][A-Za-z_0-9]*`` and a positive integer degree, a
coefficient field (the rationals, or a prime field), and an optional set of
rewrite rules.  Every rule has the restricted shape

    g^k  ->  rhs

with g a single generator, k >= 2, and rhs a homogeneous polynomial of the
same degree that no rule left-hand side divides.  One rule per generator at
most, and no cycle of rules: a rule on g may not raise the exponent of
another ruled generator h whose rules lead, in turn, back to g.  Order the
ruled generators so that each comes before those its right-hand side raises,
and put the unruled ones last.  Lexicographic order in that sequence is then
a monomial order in which every g^k leads its rule.  The leading monomials
are powers of distinct generators, hence pairwise coprime, so the rules are
already a Groebner basis: rewriting ends, and any order of rewrites lands on
the same normal form.  A self-reference such as
t^k -> -(c_1*t^(k-1) + ... + c_k) is legal.

Multiplication is strictly commutative, so generators of odd degree are only
accepted over fields of characteristic 2 (in characteristic 0 an odd class
would anticommute with itself).

Monomials are compared in graded-lexicographic order: total degree first,
then exponent vectors in declared generator order, earlier generators more
significant.  Printing lists terms in descending order.

Text syntax for polynomials: terms joined by ``+``/``-``; a term is factors
joined by ``*``, each an integer, a fraction ``n/d``, a generator ``g`` or a
power ``g^k``, e.g. ``-71/14175*p1^2*p2``.  Fractions are accepted in
characteristic 0 only.  Whitespace is allowed around every operator and at
both ends; factors written side by side (``2 x``, ``a b``) are rejected.
``parse(print(f)) == f`` holds for every polynomial.  Bad text, a zero
denominator included, raises ``ValueError``.

Coefficients are stored as Python ints, in a :class:`Terms`: a dict from
monomial to nonzero int numerator, over one denominator per polynomial.  In
characteristic 0 the denominator is positive and shares no factor with all
the numerators at once; in characteristic p the numerators are reduced to
1..p-1 and the denominator is 1.  That pair is canonical, so equal
polynomials have equal dicts.  Products, sums, scalar multiples, powers and
the normal form run on ints alone.  A ring whose rule right-hand sides have
fractions stores them as numerators over their common denominator L, and
each rewriting round scales the numerators by L; when L is 1 it costs
nothing.  Printing and substitution run on the ints too.  ``Fraction`` and
``PrimeScalar`` values exist only at the edge: they come in through
:meth:`Ring.poly` and :meth:`Ring.coerce_scalar`, and go out through
``coefficient``, ``constant_term`` and each lookup in the ``terms`` mapping.

Polynomials are checked where they are built from outside input, by
:meth:`Ring.poly`, which parses or coerces and then reduces to normal form.
The constructor ``GradedPoly(ring, terms)`` checks nothing and stores
``terms``, a :class:`Terms`, as given: it must already be canonical and in
normal form.  Products reduce their own terms; sums, negation, scalar
multiples and graded components are normal by construction.  ``transport``
moves terms without reducing them, so a target rule g^k on a generator g of
the source needs a source rule g^j with j <= k.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, inf, lcm
from operator import add, ge, itemgetter, mul
from typing import Iterable, Iterator, Union

from .scalars import PrimeScalar, _unchecked, validate_modulus

__all__ = [
    "GradedPoly",
    "Ring",
    "Terms",
    "tensor_ring",
    "transport",
    "validate_name",
]

Scalar = Union[Fraction, PrimeScalar]
Monomial = tuple[int, ...]

# A sign; a run of signs leaves pieces that are empty or whitespace, and
# the factor pattern takes the whitespace left around the others.
_SIGN_RE = re.compile(r"([-+])")
# A generator name; Ring rejects every other name, so printed text parses.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# One factor: an integer, a fraction, a generator, or a generator power.
_FACTOR_RE = re.compile(
    r"\s*(?:(?P<numer>\d+)(?:\s*/\s*(?P<denom>\d+))?"
    rf"|(?P<name>{_NAME_RE.pattern})(?:\s*\^\s*(?P<power>\d+))?)\s*"
)


def validate_name(name: object) -> None:
    """Reject a generator name that the text syntax cannot read back."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(
            f"bad generator name {name!r}; expected a letter or _ "
            "followed by letters, digits or _"
        )


class Ring:
    """A graded-commutative polynomial ring presentation.

    Immutable once constructed; construction validates the presentation and
    rejects bad input instead of repairing it.

    Parameters
    ----------
    characteristic:
        0 for rational coefficients, or a prime p below
        ``scalars.MAX_MODULUS``, validated here once for every scalar of
        the ring.
    generators:
        ordered iterable of (name, degree) pairs.
    rules:
        iterable of (lhs, rhs) pairs.  lhs is ``"g^k"`` or ``(name, k)``;
        rhs is anything ``poly`` accepts (commonly a string or 0).

    ``rules`` maps each ruled generator's index to (k, rhs as
    :class:`Terms`); ``_rewrites`` holds the same rules for the normal
    form, each rhs as int numerators over ``_scale``, the common
    denominator of all of them.  ``_limits`` holds the rule exponent k of
    each generator up to the last ruled one, infinity where there is no
    rule: a monomial is irreducible when no exponent reaches its limit.
    """

    __slots__ = (
        "characteristic", "names", "degrees", "_index", "rules", "_rewrites", "_scale",
        "_limits",
    )

    def __init__(
        self,
        characteristic: int,
        generators: Iterable[tuple[str, int]],
        rules: Iterable[tuple[str | tuple[str, int], object]] = (),
    ) -> None:
        if characteristic != 0:
            validate_modulus(characteristic)
        index: dict[str, int] = {}
        degrees: list[int] = []
        for name, degree in generators:
            validate_name(name)
            if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
                raise ValueError(f"generator {name!r} needs a positive integer degree")
            if degree % 2 == 1 and characteristic != 2:
                raise ValueError(
                    f"generator {name!r} has odd degree {degree}; odd degrees "
                    "require characteristic 2 under strict commutativity"
                )
            if name in index:
                raise ValueError(f"duplicate generator name {name!r}")
            index[name] = len(degrees)
            degrees.append(degree)
        self.characteristic = characteristic
        self.names = tuple(index)
        self.degrees = tuple(degrees)
        self._index = index
        self.rules: dict[int, tuple[int, Terms]] = {}
        self.rules = self._build_rules(rules)
        self._scale = lcm(*(rhs.den for _, rhs in self.rules.values()))
        self._rewrites = {
            idx: (k, {mon: c * (self._scale // rhs.den) for mon, c in rhs.num.items()})
            for idx, (k, rhs) in self.rules.items()
        }
        ruled = max(self.rules, default=-1) + 1
        self._limits = tuple(self.rules.get(i, (inf,))[0] for i in range(ruled))

    def __reduce__(self) -> tuple:
        rules = [((self.names[i], k), rhs) for i, (k, rhs) in self.rules.items()]
        return Ring, (self.characteristic, tuple(zip(self.names, self.degrees)), rules)

    # ------------------------------------------------------------------
    # construction helpers

    def _build_rules(
        self, rules: Iterable[tuple[str | tuple[str, int], object]]
    ) -> dict[int, tuple[int, Terms]]:
        table: dict[int, tuple[int, Terms]] = {}
        for lhs, rhs in rules:
            if isinstance(lhs, str):
                name, power = _parse_rule_lhs(lhs)
            else:
                name, power = lhs
            if name not in self._index:
                raise ValueError(f"rule on unknown generator {name!r}")
            idx = self._index[name]
            if power < 2:
                raise ValueError(
                    f"rule left-hand side must be g^k with k >= 2, got {name}^{power}"
                )
            if idx in table:
                raise ValueError(f"more than one rule for generator {name!r}")
            rhs_terms = Terms.reduced(*self._raw_terms(rhs), self.characteristic)
            lhs_degree = power * self.degrees[idx]
            for mon in rhs_terms:
                if self.monomial_degree(mon) != lhs_degree:
                    raise ValueError(
                        f"rule {name}^{power} has an inhomogeneous right-hand side "
                        f"(degree {self.monomial_degree(mon)} term, expected {lhs_degree})"
                    )
            table[idx] = (power, rhs_terms)
        # rhs monomials must be irreducible with respect to the whole table,
        # the rule's own left-hand side included
        for idx, (power, rhs_terms) in table.items():
            for mon in rhs_terms:
                for j, (k, _) in table.items():
                    if mon[j] >= k:
                        raise ValueError(
                            f"right-hand side of rule on {self.names[idx]!r} contains "
                            f"a monomial divisible by {self.names[j]}^{k}"
                        )
        # i -> j when rewriting by i's rule can raise the exponent of another
        # ruled generator j; peel off rules with no edge left, and a cycle
        # is what remains
        edges = {
            i: {j for mon in rhs for j, e in enumerate(mon) if e and j != i and j in table}
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
            raise ValueError(
                f"rules on {self.names[walk[-1]]!r} and {self.names[step]!r} "
                "lie on a cycle of rewrites, so rewriting need not end"
            )
        return table

    def _raw_terms(self, source: object) -> tuple[dict[Monomial, int], int]:
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
        if isinstance(source, (int, Fraction, PrimeScalar)):
            n, d = self._parts(source)
            return ({self.unit_monomial(): n} if n else {}), d
        if isinstance(source, Mapping):
            terms: dict[Monomial, object] = {}
            for mon, coeff in source.items():
                mon = tuple(mon)
                if len(mon) != len(self.names) or any(
                    type(e) is not int or e < 0 for e in mon
                ):
                    raise ValueError(f"bad exponent vector {mon}")
                if mon in terms:
                    coeff = self.coerce_scalar(terms[mon]) + self.coerce_scalar(coeff)
                terms[mon] = coeff
            return self._integral(terms)
        raise TypeError(f"cannot build a polynomial from {source!r}")

    def _integral(self, terms: Mapping[Monomial, object]) -> tuple[dict[Monomial, int], int]:
        """Int numerators over one denominator for a mapping to scalars,
        zeros dropped; in characteristic p the numerators are reduced."""
        parts = self._parts
        if self.characteristic:
            return {mon: n for mon, c in terms.items() if (n := parts(c)[0])}, 1
        den = lcm(*(parts(c)[1] for c in terms.values()))
        num: dict[Monomial, int] = {}
        for mon, c in terms.items():
            n, d = parts(c)
            if n:
                num[mon] = n * (den // d)
        return num, den

    # ------------------------------------------------------------------
    # scalars

    def _parts(self, value: object) -> tuple[int, int]:
        """(numerator, denominator) of an int or a scalar of this field.

        The one place that checks a scalar from outside.  In characteristic
        p the numerator is reduced and the denominator is 1.
        """
        if isinstance(value, bool):
            raise TypeError("booleans are not scalars")
        p = self.characteristic
        if p == 0:
            if isinstance(value, int):
                return value, 1
            if isinstance(value, Fraction):
                return value.numerator, value.denominator
            raise TypeError(
                f"cannot use {value!r} as a characteristic 0 coefficient"
            )
        if isinstance(value, PrimeScalar):
            if value.modulus != p:
                raise ValueError(
                    f"scalar mod {value.modulus} in a ring of characteristic {p}"
                )
            return value.value, 1
        if isinstance(value, int):
            return value % p, 1
        raise TypeError(
            f"cannot use {value!r} as a characteristic {p} coefficient"
        )

    def coerce_scalar(self, value: object) -> Scalar:
        """The image of an int, or a scalar of this field, in the field.

        The one int-to-scalar path of the package.  In characteristic p it
        builds the scalar without checking the modulus again, because the
        ring validated it.
        """
        n, d = self._parts(value)
        return _unchecked(n, self.characteristic) if self.characteristic else Fraction(n, d)

    # ------------------------------------------------------------------
    # monomials

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)

    def monomial_degree(self, mon: Monomial) -> int:
        return sum(map(mul, mon, self.degrees))

    def sort_key(self, mon: Monomial) -> tuple[int, Monomial]:
        # graded-lex: degree first, then declared order, earlier names
        # more significant
        return (self.monomial_degree(mon), mon)

    def monomial_str(self, mon: Monomial) -> str:
        factors = []
        for name, e in zip(self.names, mon):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors)

    # ------------------------------------------------------------------
    # normal form

    def normal_form_terms(self, terms: Mapping[Monomial, int], denominator: int) -> Terms:
        """Reduce int numerators over ``denominator`` modulo the rules, in rounds.

        Numerators may be zero and, in characteristic p (over 1), unreduced.

        Each round rewrites every pending term once.  An irreducible term is
        added into the result.  A reducible one is replaced by its image
        under the first rule that applies, and the images of the whole round
        are summed into the next round's pending dict, so like terms merge,
        and cancelled ones drop out, before they are rewritten again.  When
        the rules have a common denominator L other than 1, a round that
        rewrites scales every numerator by L.

        Termination: each round applies to each pending term rewrites that
        one-term-at-a-time reduction could apply too, so the rounds end
        because every rewrite chain ends (see the module docstring; the
        ring rejects rule sets that cycle).
        """
        p = self.characteristic
        rewrites = self._rewrites
        limits = self._limits
        scale = self._scale
        out: dict[Monomial, int] = {}
        pending: Mapping[Monomial, int] = terms
        while pending:
            images: dict[Monomial, int] = {}
            for mon, coeff in pending.items():
                if p:
                    coeff %= p
                if not coeff:
                    continue
                if not any(map(ge, mon, limits)):
                    acc = out.get(mon)
                    out[mon] = coeff if acc is None else acc + coeff
                    continue
                for i, (k, rhs) in rewrites.items():
                    if mon[i] >= k:
                        break
                lowered = list(mon)
                lowered[i] -= k
                for rmon, rcoeff in rhs.items():
                    pushed = tuple(map(add, lowered, rmon))
                    c = coeff * rcoeff
                    acc = images.get(pushed)
                    images[pushed] = c if acc is None else acc + c
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
        return GradedPoly(self, Terms({}, 1, self.characteristic))

    def one(self) -> "GradedPoly":
        return self.poly(1)

    def gen(self, name: str) -> "GradedPoly":
        if name not in self._index:
            raise ValueError(f"unknown generator {name!r}")
        mon = [0] * len(self.names)
        mon[self._index[name]] = 1
        return self.poly({tuple(mon): 1})

    def monomial(self, source: str) -> Monomial:
        """Parse a single monomial with coefficient 1, e.g. ``"x*y^2"``."""
        terms = self.poly(source).terms
        if len(terms) != 1:
            raise ValueError(f"{source!r} is not a single monomial")
        ((mon, coeff),) = terms.num.items()
        if coeff != 1 or terms.den != 1:
            raise ValueError(f"{source!r} has a coefficient, expected a bare monomial")
        return mon

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Ring):
            return NotImplemented
        return (
            self.characteristic == other.characteristic
            and self.names == other.names
            and self.degrees == other.degrees
            and self.rules == other.rules
        )

    __hash__ = None  # structural equality, so no hashing

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}({d})" for n, d in zip(self.names, self.degrees))
        return f"Ring(char {self.characteristic}; {gens}; {len(self.rules)} rules)"


class Terms(Mapping):
    """The terms of a polynomial: a read-only mapping from monomial to scalar.

    Stored as ``num``, a dict from monomial to nonzero int numerator, over
    the one denominator ``den``.  Canonical: in characteristic 0, ``den`` is
    positive and the gcd of ``den`` and all numerators is 1; in
    characteristic p, numerators lie in 1..p-1 and ``den`` is 1.  Each
    lookup builds its scalar, a ``Fraction`` or a ``PrimeScalar``.
    """

    __slots__ = ("num", "den", "characteristic")

    def __init__(self, num: dict[Monomial, int], den: int, characteristic: int) -> None:
        self.num = num
        self.den = den
        self.characteristic = characteristic

    def __reduce__(self) -> tuple:
        return Terms, (self.num, self.den, self.characteristic)

    @classmethod
    def reduced(cls, num: dict[Monomial, int], den: int, characteristic: int) -> "Terms":
        """The canonical terms of int numerators over a positive ``den``.

        It works in place, so ``num`` must not be shared.
        """
        if characteristic:
            zeros = []
            for mon, n in num.items():
                n %= characteristic
                if n:
                    num[mon] = n
                else:
                    zeros.append(mon)
            for mon in zeros:
                del num[mon]
            return cls(num, 1, characteristic)
        _nonzero(num)
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {mon: n // g for mon, n in num.items()}
                den //= g
        return cls(num, den, 0)

    def subset(self, num: dict[Monomial, int]) -> "Terms":
        """The canonical terms of some of these numerators, under the same
        or other monomials, over the same denominator."""
        if self.den == 1:
            return Terms(num, 1, self.characteristic)
        return Terms.reduced(num, self.den, 0)

    def __getitem__(self, mon: Monomial) -> Scalar:
        n = self.num[mon]
        if self.characteristic:
            return _unchecked(n, self.characteristic)
        return Fraction(n, self.den)

    def __contains__(self, mon: object) -> bool:
        return mon in self.num

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.num)

    def __len__(self) -> int:
        return len(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Terms):
            return (
                self.num == other.num
                and self.den == other.den
                and self.characteristic == other.characteristic
            )
        return Mapping.__eq__(self, other)

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
        if a.den == b.den:
            den = a.den
            out = dict(a.num)
            other_num = b.num
        else:
            den = lcm(a.den, b.den)
            scale = den // a.den
            out = {mon: n * scale for mon, n in a.num.items()}
            scale = den // b.den
            other_num = {mon: n * scale for mon, n in b.num.items()}
        for mon, n in other_num.items():
            acc = out.get(mon)
            out[mon] = n if acc is None else acc + n
        return GradedPoly(self.ring, Terms.reduced(out, den, a.characteristic))

    def __radd__(self, other: object) -> "GradedPoly":
        return self.__add__(other)

    def __neg__(self) -> "GradedPoly":
        t = self.terms
        p = t.characteristic
        num = {mon: p - n for mon, n in t.num.items()} if p else {
            mon: -n for mon, n in t.num.items()
        }
        return GradedPoly(self.ring, Terms(num, t.den, p))

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
            return GradedPoly(ring, Terms.reduced(
                {mon: c * n for mon, c in a.num.items()}, a.den * d, a.characteristic
            ))
        self._compatible(other)
        b = other.terms
        out: dict[Monomial, int] = {}
        for m1, c1 in a.num.items():
            for m2, c2 in b.num.items():
                mon = tuple(map(add, m1, m2))
                c = c1 * c2
                acc = out.get(mon)
                out[mon] = c if acc is None else acc + c
        return GradedPoly(ring, ring.normal_form_terms(out, a.den * b.den))

    def __rmul__(self, other: object) -> "GradedPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "GradedPoly":
        if not isinstance(n, int) or n < 0:
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
        if isinstance(other, (int, Fraction, PrimeScalar)):
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
        if not self.terms:
            return None
        return max(self.ring.monomial_degree(m) for m in self.terms)

    def is_homogeneous(self, k: int | None = None) -> bool:
        degs = {self.ring.monomial_degree(m) for m in self.terms}
        if k is None:
            return len(degs) <= 1
        return degs <= {k}

    def graded_component(self, k: int) -> "GradedPoly":
        """The degree-k part."""
        return self.graded_components((k,))[k]

    def graded_components(self, degrees: Iterable[int]) -> dict[int, "GradedPoly"]:
        """The degree-k part for each k in ``degrees``, from one pass over the terms."""
        picked: dict[int, dict[Monomial, int]] = {k: {} for k in degrees}
        degree = self.ring.monomial_degree
        for m, c in self.terms.num.items():
            part = picked.get(degree(m))
            if part is not None:
                part[m] = c
        return {k: GradedPoly(self.ring, self.terms.subset(p)) for k, p in picked.items()}

    def constant_term(self) -> Scalar:
        return self.terms.get(self.ring.unit_monomial(), self.ring.coerce_scalar(0))

    def coefficient(self, mon: Monomial | str) -> Scalar:
        """Coefficient of a monomial (given as exponent vector or text)."""
        if isinstance(mon, str):
            mon = self.ring.monomial(mon)
        return self.terms.get(tuple(mon), self.ring.coerce_scalar(0))

    def substitute(
        self,
        mapping: Mapping[str, object],
        target: Ring,
    ) -> "GradedPoly":
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
        for mon, n in self.terms.num.items():
            piece = target.poly(n)
            for idx, e in enumerate(mon):
                if e == 0:
                    continue
                if idx not in images:
                    raise ValueError(
                        f"no substitution value for generator {self.ring.names[idx]!r}"
                    )
                piece = piece * images[idx] ** e
            result = result + piece
        den = self.terms.den
        return result if den == 1 else result * Fraction(1, den)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        # descending graded-lex order; one gcd reduces each coefficient
        ring = self.ring
        num, den = self.terms.num, self.terms.den
        if not num:
            return "0"
        chunks: list[str] = []
        for mon in sorted(num, key=ring.sort_key, reverse=True):
            n = num[mon]
            g = gcd(n, den)
            mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            body = ring.monomial_str(mon)
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


def _nonzero(terms: dict[Monomial, int]) -> dict[Monomial, int]:
    """Delete the zero numerators of ``terms`` in place, and return it.

    The one place where each characteristic 0 sum builder drops the terms
    that cancelled.
    """
    for mon in [mon for mon, coeff in terms.items() if not coeff]:
        del terms[mon]
    return terms


def _parse_rule_lhs(text: str) -> tuple[str, int]:
    m = _FACTOR_RE.fullmatch(text)
    if not m or m["power"] is None:
        raise ValueError(f"rule left-hand side must look like 'g^k', got {text!r}")
    return m["name"], int(m["power"])


def _parse_terms(ring: Ring, text: str) -> dict[Monomial, int | Fraction]:
    """Parse the text syntax into an unreduced term dict.

    Coefficients are ints, or Fractions in characteristic 0, not yet reduced
    mod p; zero sums are kept.  The text is split once on signs and each
    term on ``*``; each distinct factor text is matched once and its parse
    memoized for the call.
    """
    if not text.strip():
        raise ValueError("empty polynomial text")
    parts = _SIGN_RE.split(text)
    if not parts[-1].strip():
        raise ValueError("dangling sign in polynomial")
    nvars = len(ring.names)
    # factor text -> (generator index, power), or (None, coefficient)
    memo: dict[str, tuple[int | None, int | Fraction]] = {}
    out: dict[Monomial, int | Fraction] = {}
    negative = False
    for sign, piece in zip(["+", *parts[1::2]], parts[0::2]):
        negative ^= sign == "-"
        if not piece or piece.isspace():
            continue
        coeff: int | Fraction = -1 if negative else 1
        negative = False
        exps = [0] * nvars
        for factor in piece.split("*"):
            try:
                idx, value = memo[factor]
            except KeyError:
                m = _FACTOR_RE.fullmatch(factor)
                if m is None:
                    if not factor.strip():
                        raise ValueError("dangling '*' in polynomial")
                    raise ValueError(f"bad factor {factor.strip()!r} in polynomial")
                if m["name"] is not None:
                    idx = ring._index.get(m["name"])
                    if idx is None:
                        raise ValueError(f"unknown generator {m['name']!r}")
                    value = int(m["power"] or 1)
                elif m["denom"] is None:
                    idx, value = None, int(m["numer"])
                elif not int(m["denom"]):
                    raise ValueError("zero denominator in coefficient")
                elif ring.characteristic:
                    # prime-field coefficients are written as bare integers
                    raise ValueError(
                        "fractional coefficients are not accepted in "
                        f"characteristic {ring.characteristic}"
                    )
                else:
                    idx, value = None, Fraction(int(m["numer"]), int(m["denom"]))
                memo[factor] = idx, value
            if idx is None:
                coeff = coeff * value
            else:
                exps[idx] += value
        mon = tuple(exps)
        acc = out.get(mon)
        out[mon] = coeff if acc is None else acc + coeff
    return out


# ----------------------------------------------------------------------
# ring combination


def tensor_ring(a: Ring, b: Ring) -> Ring:
    """Tensor product over the common coefficient field.

    Generator lists are concatenated (a's first) and must be disjoint by
    name; rules carry over unchanged.  This is the Kunneth presentation for
    product spaces.
    """
    if a.characteristic != b.characteristic:
        raise ValueError("tensor factors have different characteristics")
    overlap = set(a.names) & set(b.names)
    if overlap:
        raise ValueError(
            f"generator names collide in tensor product: {sorted(overlap)}; "
            "rename before combining"
        )
    rules: list[tuple[tuple[str, int], dict[Monomial, Scalar]]] = []
    pad_b = (0,) * len(b.names)
    pad_a = (0,) * len(a.names)
    for idx, (k, rhs) in a.rules.items():
        rules.append(((a.names[idx], k), {mon + pad_b: c for mon, c in rhs.items()}))
    for idx, (k, rhs) in b.rules.items():
        rules.append(((b.names[idx], k), {pad_a + mon: c for mon, c in rhs.items()}))
    gens = zip(a.names + b.names, a.degrees + b.degrees)
    return Ring(a.characteristic, gens, rules)


def transport(poly: GradedPoly, target: Ring) -> GradedPoly:
    """Re-express a polynomial in a ring containing the same-named generators.

    Each generator that actually occurs in the polynomial must exist in the
    target with the same degree.  The terms are moved, not reduced, so a
    target rule g^k on a generator g of the source needs a source rule g^j
    with j <= k; otherwise ``ValueError`` is raised.  Used to push classes
    into a tensor ring and to project them back out.
    """
    src = poly.ring
    if src.characteristic != target.characteristic:
        raise ValueError(
            f"cannot transport from characteristic {src.characteristic} "
            f"to characteristic {target.characteristic}"
        )
    num = poly.terms.num
    # where[j]: the source index of target generator j, or that of a padded 0
    where = [len(src.names)] * len(target.names)
    for i, (name, degree) in enumerate(zip(src.names, src.degrees)):
        idx = target._index.get(name)
        if idx is None:
            if any(mon[i] for mon in num):
                raise ValueError(f"target ring has no generator {name!r}")
        elif target.degrees[idx] != degree:
            raise ValueError(
                f"generator {name!r} has degree {target.degrees[idx]} in the "
                f"target ring, {degree} in the source"
            )
        elif target.rules.get(idx, (inf,))[0] < src.rules.get(i, (inf,))[0]:
            raise ValueError(
                f"the target ring rewrites {name}^{target.rules[idx][0]}, "
                "which is irreducible in the source ring"
            )
        else:
            where[idx] = i
    if len(where) > 1:
        pick = itemgetter(*where)
    else:  # itemgetter returns a tuple only for two or more indices
        pick = lambda mon: tuple(mon[i] for i in where)  # noqa: E731
    moved = {pick(mon + (0,)): c for mon, c in num.items()}
    return GradedPoly(target, Terms(moved, poly.terms.den, target.characteristic))
