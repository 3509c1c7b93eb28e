"""Cohomology models of manifolds and their families, and classifying-space
presentations.

A :class:`SpaceModel` packages a ring presentation of a total space over a
base ring, the fibre dimension, the fibre's fundamental monomial, and the
vertical tangent data: the total Pontryagin class, the Euler class, and
(in characteristic 2) the total Stiefel-Whitney class.  A closed manifold
is the family over the point, and integrating over it is the constant
term of ``gysin``, the coefficient of the fundamental monomial.

Built-in models: even spheres, and complex and quaternionic projective
spaces, whose tangent data is computed from its closed form.  Odd-dimensional
spheres would need an odd-degree generator, which the strict-commutative ring
layer rejects outside characteristic 2, so they are not constructible here.

``bso_presentation`` returns the stable cohomology of the oriented
classifying space: for fibre dimension 2m over the rationals the generators
are e, p_1..p_m with the single relation e^2 = p_m (the Euler-class
relation; it can be switched off when modeling non-smooth data), for
dimension 2m+1 just p_1..p_m, and in characteristic 2 the generators are
w_2..w_d with no relations.  ``ring_to_document`` writes a ring as the
{"generators", "relations"} document that :mod:`charclasses.documents`
reads; it lives here so that printing a presentation loads no decoder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .rings import FieldError, GradedPoly, Monomial, Ring, tensor_ring, transport

if TYPE_CHECKING:
    from fractions import Fraction

    from .scalars import PrimeScalar

__all__ = [
    "SpaceModel",
    "bso_presentation",
    "check_closed",
    "check_fundamental",
    "chern_to_pontryagin",
    "cp",
    "hp",
    "integrate",
    "point",
    "product_space",
    "ring_to_document",
    "sphere",
]


class SpaceModel:
    """Vertical tangent data over a base: a fibre bundle, or a closed
    manifold over the point.

    ``ring`` is the total space's, its generators led by those of
    ``base_ring`` (the point by default) under the same rules.  The record
    checks that once, when it is built, so ``gysin`` moves its result into
    the base without reducing it again.  ``dimension`` is the fibre's, and
    ``fundamental`` holds the exponents of the fibre's fundamental monomial
    on the generators after the base's.  The classes live in ``ring`` or in
    a ring whose generators it has.

    Immutable: ``==`` and ``repr`` go field by field, and assigning or
    deleting an attribute raises ``AttributeError``.  ``__init__`` writes
    the fields into the instance ``__dict__``, which copies and pickles
    restore as it is, and where ``perfbench/tracer.py`` shadows ``gysin``
    on each bundle.  A bad dimension, fundamental monomial or class raises
    ``FieldError`` at its field, ``total_p`` say.
    """

    __match_args__ = ("ring", "dimension", "fundamental", "total_p", "euler", "total_w",
                      "base_ring")
    __hash__ = None  # the record holds a Ring, which has no hash

    def __init__(
        self,
        ring: Ring,
        dimension: int,
        fundamental: Monomial,
        total_p: GradedPoly,
        euler: GradedPoly,
        total_w: Optional[GradedPoly] = None,
        base_ring: Optional[Ring] = None,
    ) -> None:
        self.__dict__.update(
            ring=ring,
            dimension=dimension,
            fundamental=fundamental,
            total_p=total_p,
            euler=euler,
            total_w=total_w,
            base_ring=Ring(ring.characteristic, []) if base_ring is None else base_ring,
        )
        self.__post_init__()

    # validation keeps this name because perfbench/tracer.py wraps it, and
    # tests/test_tracer_targets.py checks that it is here
    def __post_init__(self) -> None:
        if self.dimension < 0:
            raise FieldError("dimension", f"negative dimension {self.dimension}")
        base, ring = self.base_ring, self.ring
        n = len(base.names)
        if (base.characteristic, base.names, base.degrees) != (
                ring.characteristic, ring.names[:n], ring.degrees[:n]):
            raise ValueError(f"base ring {base!r} does not lead the total ring {ring!r} "
                             "with its characteristic, generators and degrees")
        # with the exponents equal, transport, which checks them, moves each
        # base rule's right-hand side into the total ring
        exponents = {i: k for i, (k, _) in ring.rules.items() if i < n}
        if exponents != {i: k for i, (k, _) in base.rules.items()} or any(
                transport(GradedPoly(base, rhs), ring).terms != ring.rules[i][1]
                for i, (_, rhs) in base.rules.items()):
            raise ValueError(f"base ring {base!r} has other rules on its generators "
                             f"than the total ring {ring!r}")
        check_fundamental(ring, self.fundamental, self.dimension, n)
        if not self.total_p.constant_term_is_one():
            raise FieldError("total_p", "total Pontryagin class must have constant term 1")
        for degree in self.total_p.degrees():
            if degree % 4:
                raise FieldError("total_p", f"total Pontryagin class has a term of degree "
                                 f"{degree}, not a multiple of 4")
        if not self.euler.is_zero() and not self.euler.is_homogeneous(self.dimension):
            raise FieldError("euler",
                             f"Euler class must be homogeneous of degree {self.dimension}")
        if self.total_w is not None:
            if ring.characteristic != 2:
                raise FieldError("total_w", "total_w only makes sense in characteristic 2")
            if not self.total_w.constant_term_is_one():
                raise FieldError("total_w", "total Stiefel-Whitney class must start with 1")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__match_args__, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def pullback(self, cls: GradedPoly) -> GradedPoly:
        """Image of a base class in the total ring."""
        return transport(cls, self.ring)

    def gysin(self, cls: GradedPoly) -> GradedPoly:
        """Fibre integration: the coefficient of the fibre's fundamental
        monomial, moved into the base ring by ``transport``.

        The coefficient is irreducible in the total ring and holds base
        generators only; the record checked when it was built that the
        base's rules on them are the total ring's, so the coefficient is
        in the base's normal form as it is moved.
        """
        if cls.ring is not self.ring and cls.ring != self.ring:
            raise ValueError("class does not live in the total ring")
        return transport(cls.tail_coefficient(self.fundamental), self.base_ring)


def check_fundamental(ring: Ring, fundamental: Monomial, dimension: int,
                      base_gens: int = 0) -> None:
    """Reject, at ``fundamental``, a fundamental monomial whose degree, on
    the generators after the first ``base_gens``, is not the dimension.

    It needs no rewriting, so a document decoder can run it before it
    parses the space's classes.
    """
    degrees = ring.degrees[base_gens:]
    if len(fundamental) != len(degrees):
        raise FieldError("fundamental",
                         f"expected {len(degrees)} exponents in the fundamental monomial")
    degree = sum(e * d for e, d in zip(fundamental, degrees))
    if degree != dimension:
        raise FieldError("fundamental",
                         f"fundamental monomial has degree {degree}, expected {dimension}")


def check_closed(space: SpaceModel) -> None:
    """Reject a family over a base with generators where a closed manifold,
    the family over the point, is read."""
    if space.base_ring.names:
        raise ValueError("expected a closed manifold, not a family over a base")


def integrate(space: SpaceModel, cls: GradedPoly) -> Fraction | PrimeScalar:
    """Pair a class with the fundamental class of a closed manifold: the
    constant term of its pushforward to the point.

    Zero whenever the degree does not match the dimension, because only the
    fundamental monomial is inspected.
    """
    check_closed(space)
    return space.gysin(cls).constant_term()


def point(characteristic: int = 0) -> SpaceModel:
    """The one-point space."""
    ring = Ring(characteristic, [])
    one = ring.one()
    return SpaceModel(
        ring=ring,
        dimension=0,
        fundamental=ring.unit_monomial(),
        total_p=one,
        euler=one,
        total_w=one if characteristic == 2 else None,
    )


def sphere(n: int, gen: str = "x") -> SpaceModel:
    """The n-sphere for even n: Q[x]/x^2 with trivial Pontryagin class.

    Odd n is rejected because the generator would have odd degree.
    """
    if n < 1:
        raise ValueError("sphere dimension must be positive")
    ring = Ring(0, [(gen, n)], [((gen, 2), 0)])
    x = ring.gen(gen)
    return SpaceModel(
        ring=ring,
        dimension=n,
        fundamental=ring.monomial(gen),
        total_p=ring.one(),
        euler=x * 2,
    )


def cp(n: int, gen: str = "h") -> SpaceModel:
    """Complex projective n-space: Q[h]/h^{n+1}, tangent data from
    c(T) = (1+h)^{n+1}."""
    if n < 1:
        raise ValueError("cp(n) needs n >= 1")
    ring = Ring(0, [(gen, 2)], [((gen, n + 1), 0)])
    h = ring.gen(gen)
    total_c = (ring.one() + h) ** (n + 1)
    return SpaceModel(
        ring=ring,
        dimension=2 * n,
        fundamental=ring.monomial(f"{gen}^{n}"),
        total_p=chern_to_pontryagin(total_c),
        euler=h ** n * (n + 1),
    )


def hp(n: int, gen: str = "y") -> SpaceModel:
    """Quaternionic projective n-space: Q[y]/y^{n+1} with |y| = 4, tangent
    data from p(T) = (1+y)^{2n+2} (1+4y)^{-1} (Borel-Hirzebruch 1958) and
    e(T) = (n+1) y^n; the inverse is the geometric series in -4y."""
    if n < 1:
        raise ValueError("hp(n) needs n >= 1")
    ring = Ring(0, [(gen, 4)], [((gen, n + 1), 0)])
    y = ring.gen(gen)
    inverse = sum(((y * -4) ** j for j in range(n + 1)), ring.zero())
    return SpaceModel(
        ring=ring,
        dimension=4 * n,
        fundamental=ring.monomial(f"{gen}^{n}"),
        total_p=(ring.one() + y) ** (2 * n + 2) * inverse,
        euler=y ** n * (n + 1),
    )


def product_space(a: SpaceModel, b: SpaceModel) -> SpaceModel:
    """The product manifold, with the Kunneth tensor ring.

    Generator names must already be disjoint; rebuild a factor with renamed
    generators if they collide.
    """
    check_closed(a)
    check_closed(b)
    ring = tensor_ring(a.ring, b.ring)
    total_w = None
    if a.total_w is not None and b.total_w is not None:
        total_w = transport(a.total_w, ring) * transport(b.total_w, ring)
    return SpaceModel(
        ring=ring,
        dimension=a.dimension + b.dimension,
        fundamental=a.fundamental + b.fundamental,
        total_p=transport(a.total_p, ring) * transport(b.total_p, ring),
        euler=transport(a.euler, ring) * transport(b.euler, ring),
        total_w=total_w,
    )


def chern_to_pontryagin(total_c: GradedPoly) -> GradedPoly:
    """Pontryagin classes of the underlying real bundle of a complex one.

    With c-bar the total Chern class with odd classes negated,
    sum_i (-1)^i p_i = c-bar * c, so p_i is (-1)^i times the degree-4i
    component of that product.  Both signs are twists of terms by degree:
    c-bar negates degrees 2 mod 4, the result degrees 4 mod 8.  Components
    of degree 2 mod 4 of the product cancel identically.  A ring of
    characteristic 0 has generators of even degree only, so every term of
    ``total_c`` has even degree.
    """
    ring = total_c.ring
    if ring.characteristic != 0:
        raise ValueError(
            "chern_to_pontryagin needs characteristic 0; in characteristic 2 "
            "work with Stiefel-Whitney classes directly"
        )
    if not total_c.constant_term_is_one():
        raise ValueError("total Chern class must have constant term 1")
    return (total_c.sign_twist(4) * total_c).sign_twist(8)


def bso_presentation(
    dimension: int, characteristic: int = 0, euler_relation: bool = True
) -> Ring:
    """Stable cohomology presentation of the oriented classifying space.

    dimension 2m, characteristic 0: generators e (degree 2m) and p_1..p_m
    (degree 4i) with the relation e^2 = p_m; pass euler_relation=False to
    leave e^2 unreduced when the data is not smooth.  dimension 2m+1:
    p_1..p_m only.  Characteristic 2: w_2..w_dimension, each w_i of
    degree i, and no relations.
    """
    if dimension < 1:
        raise ValueError("fibre dimension must be positive")
    if characteristic == 2:
        gens = [(f"w{i}", i) for i in range(2, dimension + 1)]
        return Ring(2, gens)
    if characteristic != 0:
        raise ValueError(
            f"no presentation in characteristic {characteristic}; use 0 or 2"
        )
    m = dimension // 2
    p_gens = [(f"p{i}", 4 * i) for i in range(1, m + 1)]
    if dimension % 2 == 1:
        return Ring(0, p_gens)
    rules = [(("e", 2), f"p{m}")] if euler_relation else []
    return Ring(0, [("e", 2 * m)] + p_gens, rules)


def ring_to_document(ring: Ring) -> dict:
    """The {"generators", "relations"} document of a ring."""
    relations = []
    for idx in sorted(ring.rules):
        power, rhs = ring.rules[idx]
        rhs_poly = GradedPoly(ring, rhs)
        relations.append(
            {"lhs": f"{ring.names[idx]}^{power}", "rhs": str(rhs_poly)}
        )
    return {
        "generators": [
            {"name": name, "degree": degree}
            for name, degree in zip(ring.names, ring.degrees)
        ],
        "relations": relations,
    }
