"""Graded polynomial rings with monomial rewrite relations.

A ring is presented by an ordered list of generators, each with a positive
integer degree, a coefficient field (the rationals, or a prime field), and an
optional set of rewrite rules.  Every rule has the restricted shape

    g^k  ->  rhs

with g a single generator, k >= 2, and rhs a homogeneous polynomial of the
same degree that no rule left-hand side divides.  One rule per generator at
most.  This class of rules needs no completion step: reducing the exponent of
g strictly in each application, in any order, lands on the same normal form.

Multiplication is strictly commutative, so generators of odd degree are only
accepted over fields of characteristic 2 (in characteristic 0 an odd class
would anticommute with itself).

Monomials are compared in graded-lexicographic order: total degree first,
then exponent vectors in declared generator order, earlier generators more
significant.  Printing lists terms in descending order.

Text syntax for polynomials: terms joined by ``+``/``-``; a term is
``[coeff*]gen[^exp][*gen[^exp]...]``.  Coefficients are exact rationals
(``-71/14175``) in characteristic 0 and bare integers in characteristic p.
``parse(print(f)) == f`` holds for every polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Mapping, Sequence, Union

from .scalars import PrimeScalar, _unchecked, validate_modulus

__all__ = [
    "Generator",
    "GradedPoly",
    "Ring",
    "tensor_ring",
    "transport",
]

Scalar = Union[Fraction, PrimeScalar]
Monomial = tuple[int, ...]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^]))"
)


@dataclass(frozen=True, slots=True)
class Generator:
    """A ring generator: a name and a positive cohomological degree."""

    name: str
    degree: int


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
        ordered iterable of Generator or (name, degree) pairs.
    rules:
        iterable of (lhs, rhs) pairs.  lhs is ``"g^k"`` or ``(name, k)``;
        rhs is anything ``poly`` accepts (commonly a string or 0).
    """

    __slots__ = ("characteristic", "generators", "names", "degrees",
                 "_index", "rules")

    def __init__(
        self,
        characteristic: int,
        generators: Iterable[Generator | tuple[str, int]],
        rules: Iterable[tuple[str | tuple[str, int], object]] = (),
    ) -> None:
        if characteristic != 0:
            validate_modulus(characteristic)
        gens = tuple(
            g if isinstance(g, Generator) else Generator(g[0], g[1])
            for g in generators
        )
        seen: set[str] = set()
        for g in gens:
            if not isinstance(g.degree, int) or g.degree < 1:
                raise ValueError(f"generator {g.name!r} needs a positive integer degree")
            if g.degree % 2 == 1 and characteristic != 2:
                raise ValueError(
                    f"generator {g.name!r} has odd degree {g.degree}; odd degrees "
                    "require characteristic 2 under strict commutativity"
                )
            if g.name in seen:
                raise ValueError(f"duplicate generator name {g.name!r}")
            seen.add(g.name)
        self.characteristic = characteristic
        self.generators = gens
        self.names = tuple(g.name for g in gens)
        self.degrees = tuple(g.degree for g in gens)
        self._index = {g.name: i for i, g in enumerate(gens)}
        self.rules: dict[int, tuple[int, dict[Monomial, Scalar]]] = {}
        self.rules = self._build_rules(rules)

    # ------------------------------------------------------------------
    # construction helpers

    def _build_rules(
        self, rules: Iterable[tuple[str | tuple[str, int], object]]
    ) -> dict[int, tuple[int, dict[Monomial, Scalar]]]:
        table: dict[int, tuple[int, dict[Monomial, Scalar]]] = {}
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
            rhs_terms = self._raw_terms(rhs)
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
        return table

    def _raw_terms(self, source: object) -> dict[Monomial, Scalar]:
        """Parse/coerce into a term dict without applying rules."""
        if isinstance(source, GradedPoly):
            if source.ring is not self and source.ring != self:
                raise ValueError("polynomial belongs to a different ring")
            return dict(source.terms)
        if isinstance(source, str):
            return _parse_terms(self, source)
        if isinstance(source, (int, Fraction, PrimeScalar)):
            c = self.coerce_scalar(source)
            return {} if not c else {self.unit_monomial(): c}
        if isinstance(source, Mapping):
            out: dict[Monomial, Scalar] = {}
            for mon, coeff in source.items():
                mon = tuple(mon)
                if len(mon) != len(self.names) or any(e < 0 for e in mon):
                    raise ValueError(f"bad exponent vector {mon}")
                c = self.coerce_scalar(coeff)
                if c:
                    out[mon] = out.get(mon, self.coerce_scalar(0)) + c
            return {m: c for m, c in out.items() if c}
        raise TypeError(f"cannot build a polynomial from {source!r}")

    # ------------------------------------------------------------------
    # scalars

    def coerce_scalar(self, value: object) -> Scalar:
        """The image of an int, or a scalar of this field, in the field.

        The one int-to-scalar path of the package.  In characteristic p it
        builds the scalar without checking the modulus again, because the
        ring validated it.
        """
        if isinstance(value, bool):
            raise TypeError("booleans are not scalars")
        if self.characteristic == 0:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            raise TypeError(
                f"cannot use {value!r} as a characteristic 0 coefficient"
            )
        if isinstance(value, PrimeScalar):
            if value.modulus != self.characteristic:
                raise ValueError(
                    f"scalar mod {value.modulus} in a ring of characteristic "
                    f"{self.characteristic}"
                )
            return value
        if isinstance(value, int):
            return _unchecked(value, self.characteristic)
        raise TypeError(
            f"cannot use {value!r} as a characteristic {self.characteristic} coefficient"
        )

    # ------------------------------------------------------------------
    # monomials

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)

    def monomial_degree(self, mon: Monomial) -> int:
        return sum(e * d for e, d in zip(mon, self.degrees))

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

    def normal_form_terms(
        self,
        terms: Mapping[Monomial, Scalar],
        choose: Callable[[list[int]], int] | None = None,
    ) -> dict[Monomial, Scalar]:
        """Reduce a term dict modulo the rules, in rounds.

        Each round rewrites every pending term once.  An irreducible term is
        added into the result.  A reducible one is replaced by its image
        under one rule, and the images of the whole round are summed into
        the next round's pending dict, so like terms merge, and cancelled
        ones drop out, before they are rewritten again.

        ``choose`` picks which applicable rule to fire (given the list of
        applicable generator indices; the first by default).  It exists so
        tests can randomize the reduction order and confirm confluence.

        Termination: each round applies to each pending term rewrites that
        one-term-at-a-time reduction could apply too, so the rounds end
        whenever every rewrite chain from the input ends.  That holds for
        the presentations this package builds; rules that can cycle, such
        as ``x^2 -> x*y`` with ``y^2 -> x*y``, have no normal form.
        """
        rules = self.rules
        out: dict[Monomial, Scalar] = {}
        pending: Mapping[Monomial, Scalar] = terms
        while pending:
            images: dict[Monomial, Scalar] = {}
            for mon, coeff in pending.items():
                if not coeff:
                    continue
                applicable = [i for i, (k, _) in rules.items() if mon[i] >= k]
                if not applicable:
                    acc = out.get(mon)
                    acc = coeff if acc is None else acc + coeff
                    if acc:
                        out[mon] = acc
                    elif mon in out:
                        del out[mon]
                    continue
                i = applicable[choose(applicable) if choose else 0]
                k, rhs = rules[i]
                lowered = list(mon)
                lowered[i] -= k
                for rmon, rcoeff in rhs.items():
                    pushed = tuple(map(add, lowered, rmon))
                    c = coeff * rcoeff
                    acc = images.get(pushed)
                    images[pushed] = c if acc is None else acc + c
            pending = images
        return out

    # ------------------------------------------------------------------
    # polynomial factories

    def poly(self, source: object) -> "GradedPoly":
        """Build a polynomial from a string, scalar, term dict, or poly."""
        return GradedPoly(self, self._raw_terms(source))

    def zero(self) -> "GradedPoly":
        return GradedPoly(self, {}, _normalized=True)

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
        terms = self.normal_form_terms(_parse_terms(self, source))
        if len(terms) != 1:
            raise ValueError(f"{source!r} is not a single monomial")
        ((mon, coeff),) = terms.items()
        if coeff != self.coerce_scalar(1):
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
            and self.generators == other.generators
            and self.rules == other.rules
        )

    __hash__ = None  # structural equality, so no hashing

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}({g.degree})" for g in self.generators)
        return f"Ring(char {self.characteristic}; {gens}; {len(self.rules)} rules)"


class GradedPoly:
    """An element of a :class:`Ring`, stored in normal form.

    The term mapping is never mutated after construction; all arithmetic
    returns new polynomials.
    """

    __slots__ = ("ring", "terms")

    def __init__(
        self,
        ring: Ring,
        terms: Mapping[Monomial, Scalar],
        *,
        _normalized: bool = False,
    ) -> None:
        self.ring = ring
        self.terms = dict(terms) if _normalized else ring.normal_form_terms(terms)

    # ------------------------------------------------------------------

    def _compatible(self, other: "GradedPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials belong to different rings")

    def __add__(self, other: object) -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            other = self.ring.poly(other)
        self._compatible(other)
        out = dict(self.terms)
        for mon, coeff in other.terms.items():
            acc = out.get(mon)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[mon] = acc
            elif mon in out:
                del out[mon]
        return GradedPoly(self.ring, out, _normalized=True)

    def __radd__(self, other: object) -> "GradedPoly":
        return self.__add__(other)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(
            self.ring, {m: -c for m, c in self.terms.items()}, _normalized=True
        )

    def __sub__(self, other: object) -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            other = self.ring.poly(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other: object) -> "GradedPoly":
        return self.__neg__().__add__(self.ring.poly(other))

    def __mul__(self, other: object) -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            c = self.ring.coerce_scalar(other)
            if not c:
                return self.ring.zero()
            return GradedPoly(
                self.ring,
                {m: coeff * c for m, coeff in self.terms.items()},
                _normalized=True,
            )
        self._compatible(other)
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                acc = out.get(mon)
                acc = c if acc is None else acc + c
                if acc:
                    out[mon] = acc
                elif mon in out:
                    del out[mon]
        return GradedPoly(self.ring, out)

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
        return bool(self.terms)

    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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
        picked = {
            m: c for m, c in self.terms.items() if self.ring.monomial_degree(m) == k
        }
        return GradedPoly(self.ring, picked, _normalized=True)

    def truncate(self, max_degree: int) -> "GradedPoly":
        """Drop all terms of degree above max_degree."""
        picked = {
            m: c
            for m, c in self.terms.items()
            if self.ring.monomial_degree(m) <= max_degree
        }
        return GradedPoly(self.ring, picked, _normalized=True)

    def constant_term(self) -> Scalar:
        return self.terms.get(self.ring.unit_monomial(), self.ring.coerce_scalar(0))

    def coefficient(self, mon: Monomial | str) -> Scalar:
        """Coefficient of a monomial (given as exponent vector or text)."""
        if isinstance(mon, str):
            mon = self.ring.monomial(mon)
        return self.terms.get(tuple(mon), self.ring.coerce_scalar(0))

    def inverse_unit(self, max_degree: int) -> "GradedPoly":
        """Multiplicative inverse through the stated degree.

        The constant term must be nonzero.  In a ring whose relations kill
        everything above max_degree the result is the exact inverse; in a
        free ring it is the geometric-series inverse truncated at max_degree.
        """
        c = self.constant_term()
        if not c:
            raise ValueError("polynomial has no unit constant term")
        one = self.ring.one()
        tail = (one - self * (1 / c)).truncate(max_degree)
        acc = one
        power = one
        while True:
            power = (power * tail).truncate(max_degree)
            if power.is_zero():
                break
            acc = acc + power
        return acc * (1 / c)

    def substitute(
        self,
        mapping: Mapping[str, object],
        target: Ring,
    ) -> "GradedPoly":
        """Image under generator -> polynomial substitution.

        Every generator that actually occurs must be mapped; values may be
        polynomials in the target ring or scalars.
        """
        images: dict[int, GradedPoly] = {}
        for name, value in mapping.items():
            idx = self.ring._index.get(name)
            if idx is None:
                raise ValueError(f"substitution names unknown generator {name!r}")
            images[idx] = value if isinstance(value, GradedPoly) else target.poly(value)
        result = target.zero()
        for mon, coeff in self.terms.items():
            piece = target.poly(coeff)
            for idx, e in enumerate(mon):
                if e == 0:
                    continue
                if idx not in images:
                    raise ValueError(
                        f"no substitution value for generator {self.ring.names[idx]!r}"
                    )
                piece = piece * images[idx] ** e
            result = result + piece
        return result

    def evaluate_scalars(self, values: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at scalar values for the generators."""
        total = self.ring.coerce_scalar(0)
        for mon, coeff in self.terms.items():
            piece = coeff
            for idx, e in enumerate(mon):
                if e == 0:
                    continue
                name = self.ring.names[idx]
                if name not in values:
                    raise ValueError(f"no value for generator {name!r}")
                piece = piece * values[name] ** e
            total = total + piece
        return total

    # ------------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in descending graded-lex order."""
        return sorted(
            self.terms.items(), key=lambda item: self.ring.sort_key(item[0]), reverse=True
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for mon, coeff in self.sorted_terms():
            body, negative = _term_str(self.ring, mon, coeff)
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f" - {body}" if negative else f" + {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"<GradedPoly {self}>"


# ----------------------------------------------------------------------
# parsing and printing internals


def _parse_rule_lhs(text: str) -> tuple[str, int]:
    m = re.match(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*\^\s*(\d+)\s*$", text)
    if not m:
        raise ValueError(f"rule left-hand side must look like 'g^k', got {text!r}")
    return m.group(1), int(m.group(2))


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character {text[pos:].strip()[0]!r} in polynomial")
            break
        pos = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


def _parse_terms(ring: Ring, text: str) -> dict[Monomial, Scalar]:
    """Parse the text syntax into an unreduced term dict."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    out: dict[Monomial, Scalar] = {}
    pos = 0
    nvars = len(ring.names)

    def take_factor(coeff: Scalar, exps: list[int], pos: int) -> tuple[Scalar, int]:
        kind, value = tokens[pos]
        if kind == "number":
            pos += 1
            numer = int(value)
            if pos + 1 < len(tokens) and tokens[pos] == ("op", "/"):
                dkind, dvalue = tokens[pos + 1]
                if dkind != "number":
                    raise ValueError("expected an integer denominator")
                if int(dvalue) == 0:
                    raise ZeroDivisionError("zero denominator in coefficient")
                if ring.characteristic != 0:
                    # prime-field coefficients are written as bare integers
                    raise ValueError(
                        "fractional coefficients are not accepted in "
                        f"characteristic {ring.characteristic}"
                    )
                pos += 2
                return coeff * Fraction(numer, int(dvalue)), pos
            return coeff * ring.coerce_scalar(numer), pos
        if kind == "name":
            idx = ring._index.get(value)
            if idx is None:
                raise ValueError(f"unknown generator {value!r}")
            pos += 1
            power = 1
            if pos < len(tokens) and tokens[pos] == ("op", "^"):
                if pos + 1 >= len(tokens) or tokens[pos + 1][0] != "number":
                    raise ValueError(f"expected an integer exponent after {value}^")
                power = int(tokens[pos + 1][1])
                pos += 2
            exps[idx] += power
            return coeff, pos
        raise ValueError(f"unexpected {value!r} in polynomial")

    while pos < len(tokens):
        sign = 1
        while pos < len(tokens) and tokens[pos][0] == "op" and tokens[pos][1] in "+-":
            if tokens[pos][1] == "-":
                sign = -sign
            pos += 1
        if pos >= len(tokens):
            raise ValueError("dangling sign in polynomial")
        coeff: Scalar = ring.coerce_scalar(sign)
        exps = [0] * nvars
        coeff, pos = take_factor(coeff, exps, pos)
        while pos < len(tokens) and tokens[pos] == ("op", "*"):
            pos += 1
            if pos >= len(tokens):
                raise ValueError("dangling '*' in polynomial")
            coeff, pos = take_factor(coeff, exps, pos)
        if pos < len(tokens) and tokens[pos][0] == "op" and tokens[pos][1] not in "+-":
            raise ValueError(f"unexpected {tokens[pos][1]!r} in polynomial")
        mon = tuple(exps)
        acc = out.get(mon)
        acc = coeff if acc is None else acc + coeff
        if acc:
            out[mon] = acc
        elif mon in out:
            del out[mon]
    return out


def _coeff_magnitude(ring: Ring, coeff: Scalar) -> tuple[str, bool, bool]:
    """(text of |coeff|, negative?, is one?) for printing."""
    if ring.characteristic == 0:
        negative = coeff < 0
        mag = -coeff if negative else coeff
        text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        return text, negative, mag == 1
    return str(coeff.value), False, coeff.value == 1


def _term_str(ring: Ring, mon: Monomial, coeff: Scalar) -> tuple[str, bool]:
    mag, negative, is_one = _coeff_magnitude(ring, coeff)
    monomial = ring.monomial_str(mon)
    if not monomial:
        return mag, negative
    if is_one:
        return monomial, negative
    return f"{mag}*{monomial}", negative


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
    return Ring(a.characteristic, a.generators + b.generators, rules)


def transport(poly: GradedPoly, target: Ring) -> GradedPoly:
    """Re-express a polynomial in a ring containing the same-named generators.

    Each generator that actually occurs in the polynomial must exist in the
    target with the same degree.  Used to push classes into a tensor ring
    and to project them back out.
    """
    src = poly.ring
    positions: list[int | None] = []
    for g in src.generators:
        idx = target._index.get(g.name)
        if idx is not None and target.degrees[idx] != g.degree:
            raise ValueError(
                f"generator {g.name!r} has degree {target.degrees[idx]} in the "
                f"target ring, {g.degree} in the source"
            )
        positions.append(idx)
    out: dict[Monomial, Scalar] = {}
    for mon, coeff in poly.terms.items():
        exps = [0] * len(target.names)
        for src_idx, e in enumerate(mon):
            if e == 0:
                continue
            idx = positions[src_idx]
            if idx is None:
                raise ValueError(
                    f"target ring has no generator {src.names[src_idx]!r}"
                )
            exps[idx] = e
        out[tuple(exps)] = target.coerce_scalar(coeff)
    return GradedPoly(target, out)
