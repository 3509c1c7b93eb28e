"""Cohomology models of closed manifolds and classifying-space presentations.

A :class:`SpaceModel` packages a ring presentation of the cohomology, the
dimension, the monomial dual to the fundamental class, and tangent data:
the total Pontryagin class, the Euler class, and (in characteristic 2) the
total Stiefel-Whitney class.  Integration over the space is reading off the
coefficient of the fundamental monomial.

Built-in models: even spheres, and complex and quaternionic projective
spaces, whose tangent data is computed from its closed form.  Odd-dimensional
spheres would need an odd-degree generator, which the strict-commutative ring
layer rejects outside characteristic 2, so they are not constructible here.

``bso_presentation`` returns the stable cohomology of the oriented
classifying space: for fibre dimension 2m over the rationals the generators
are e, p_1..p_m with the single relation e^2 = p_m (the Euler-class
relation; it can be switched off when modeling non-smooth data), for
dimension 2m+1 just p_1..p_m, and in characteristic 2 the generators are
w_2..w_d with no relations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .rings import GradedPoly, Monomial, Ring, Terms, tensor_ring, transport
from .scalars import PrimeScalar

__all__ = [
    "SpaceModel",
    "bso_presentation",
    "chern_to_pontryagin",
    "cp",
    "hp",
    "integrate",
    "point",
    "product_space",
    "sphere",
]


class _FrozenRecord:
    """An immutable record of the fields named in ``__match_args__``.

    ``==`` and ``repr`` go field by field, and assigning or deleting any
    attribute raises ``AttributeError``.  A subclass's ``__init__`` writes
    its fields into the instance ``__dict__``; copies and pickles restore
    that dict as it is, without running ``__init__`` again.
    """

    __match_args__: tuple[str, ...] = ()
    __hash__ = None  # the records hold a Ring, which has no hash

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


class SpaceModel(_FrozenRecord):
    """A closed manifold presented through its cohomology ring."""

    __match_args__ = ("ring", "dimension", "fundamental", "total_p", "euler", "total_w")

    def __init__(
        self,
        ring: Ring,
        dimension: int,
        fundamental: Monomial,
        total_p: GradedPoly,
        euler: GradedPoly,
        total_w: Optional[GradedPoly] = None,
    ) -> None:
        self.__dict__.update(
            ring=ring,
            dimension=dimension,
            fundamental=fundamental,
            total_p=total_p,
            euler=euler,
            total_w=total_w,
        )
        self.__post_init__()

    # validation keeps this name because perfbench/tracer.py wraps it, and
    # tests/test_tracer_targets.py checks that it is here
    def __post_init__(self) -> None:
        if self.dimension < 0:
            raise ValueError(f"negative dimension {self.dimension}")
        if self.ring.monomial_degree(self.fundamental) != self.dimension:
            raise ValueError(
                "fundamental monomial has degree "
                f"{self.ring.monomial_degree(self.fundamental)}, expected "
                f"{self.dimension}"
            )
        if self.total_p.constant_term() != self.ring.coerce_scalar(1):
            raise ValueError("total Pontryagin class must have constant term 1")
        for mon in self.total_p.terms:
            degree = self.ring.monomial_degree(mon)
            if degree % 4:
                raise ValueError(
                    f"total Pontryagin class has a term of degree {degree}, "
                    "not a multiple of 4"
                )
        if not self.euler.is_zero() and not self.euler.is_homogeneous(self.dimension):
            raise ValueError(
                f"Euler class must be homogeneous of degree {self.dimension}"
            )
        if self.total_w is not None:
            if self.ring.characteristic != 2:
                raise ValueError("total_w only makes sense in characteristic 2")
            if self.total_w.constant_term() != self.ring.coerce_scalar(1):
                raise ValueError("total Stiefel-Whitney class must start with 1")


def integrate(space: SpaceModel, cls: GradedPoly) -> Fraction | PrimeScalar:
    """Pair a class with the fundamental class.

    Zero whenever the degree does not match the dimension, because only the
    fundamental monomial is inspected.
    """
    return cls.coefficient(space.fundamental)


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
    of degree 2 mod 4 of the product cancel identically.
    """
    ring = total_c.ring
    if ring.characteristic != 0:
        raise ValueError(
            "chern_to_pontryagin needs characteristic 0; in characteristic 2 "
            "work with Stiefel-Whitney classes directly"
        )
    if total_c.constant_term() != 1:
        raise ValueError("total Chern class must have constant term 1")
    degree = ring.monomial_degree
    for mon in total_c.terms:
        if degree(mon) % 2 == 1:
            raise ValueError("total Chern class has an odd-degree term")

    def negate(poly: GradedPoly, period: int) -> GradedPoly:
        """``poly`` with the terms of degree period/2 mod period negated."""
        terms = poly.terms
        return GradedPoly(ring, Terms({
            mon: -coeff if degree(mon) % period == period // 2 else coeff
            for mon, coeff in terms.num.items()
        }, terms.den, 0))

    return negate(negate(total_c, 4) * total_c, 8)


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
