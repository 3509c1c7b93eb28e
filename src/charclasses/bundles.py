"""Fibre bundles with computable Gysin maps and kappa classes.

A :class:`BundleModel` holds the total-space ring, the pullback embedding
of the base, the vertical tangent data (Euler class, total Pontryagin
class, and in characteristic 2 the total Stiefel-Whitney class), and the
fibre's fundamental monomial on the generators that follow the base ones.
Fibre integration ``gysin`` reads off its coefficient, for either kind of
bundle, lowering degree by the fibre dimension.

* ``product_bundle(base, fibre)``: the trivial bundle on the Kunneth ring.
* ``projectivize(base, chern)``: the complex projectivization of a rank-k
  bundle with Chern classes c_1..c_k.  The total ring appends a degree-2
  generator t with the defining relation
  t^k = -(c_1 t^{k-1} + ... + c_k), the vertical tangent Chern class is
  sum_i c_i (1+t)^{k-i}, and the fibre's fundamental monomial is t^{k-1}.

``kappa(bundle, c)`` pushes a characteristic class of the vertical tangent
bundle down to the base: kappa_c = gysin(c evaluated on the vertical data).
The class c is any polynomial in e and p_1..p_{d/2} (characteristic 0) or
in w_1..w_d (characteristic 2), for fibre dimension d.  The transfer
identity gysin(e(T_v) * pullback(a) * q) is a special case, and kappa of
the Euler class alone is the fibre's Euler characteristic.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import spaces  # chern_to_pontryagin is looked up there at each call
from .rings import _NAME_RE, GradedPoly, Monomial, Ring, tensor_ring, transport
from .spaces import SpaceModel, _FrozenRecord

__all__ = [
    "BundleModel",
    "kappa",
    "product_bundle",
    "projectivize",
]


class BundleModel(_FrozenRecord):
    """A fibre bundle with enough structure to integrate along fibres.

    ``fibre_fundamental`` holds the exponents of the fibre's fundamental
    monomial on the generators of ``total_ring`` after the base ones.  In
    characteristic 2, ``vertical_total_p`` holds the fibre's ``total_p``
    transported into the total ring, and ``kappa`` never reads it: its
    class ring there has only w1..wd.  No ``__slots__``: the instance keeps
    a ``__dict__``, because ``perfbench/tracer.py`` shadows ``gysin`` on
    each instance.
    """

    __match_args__ = (
        "base_ring",
        "total_ring",
        "fibre_dimension",
        "fibre_fundamental",
        "vertical_euler",
        "vertical_total_p",
        "vertical_total_w",
    )

    def __init__(
        self,
        base_ring: Ring,
        total_ring: Ring,
        fibre_dimension: int,
        fibre_fundamental: Monomial,
        vertical_euler: GradedPoly,
        vertical_total_p: GradedPoly,
        vertical_total_w: Optional[GradedPoly] = None,
    ) -> None:
        self.__dict__.update(
            base_ring=base_ring,
            total_ring=total_ring,
            fibre_dimension=fibre_dimension,
            fibre_fundamental=fibre_fundamental,
            vertical_euler=vertical_euler,
            vertical_total_p=vertical_total_p,
            vertical_total_w=vertical_total_w,
        )

    def pullback(self, cls: GradedPoly) -> GradedPoly:
        """Image of a base class in the total ring."""
        return transport(cls, self.total_ring)

    def gysin(self, cls: GradedPoly) -> GradedPoly:
        """Fibre integration: the coefficient of the fibre's fundamental monomial.

        The total ring's rules on base generators are the base's own, and
        the fibre part of every picked term is the same, so the base parts
        are distinct and already in the base's normal form.
        """
        if cls.ring is not self.total_ring and cls.ring != self.total_ring:
            raise ValueError("class does not live in the total ring")
        return cls.tail_coefficient(self.base_ring, self.fibre_fundamental)


def product_bundle(base: SpaceModel, fibre: SpaceModel) -> BundleModel:
    """The trivial bundle base x fibre -> base."""
    total = tensor_ring(base.ring, fibre.ring)
    return BundleModel(
        base_ring=base.ring,
        total_ring=total,
        fibre_dimension=fibre.dimension,
        fibre_fundamental=fibre.fundamental,
        vertical_euler=transport(fibre.euler, total),
        vertical_total_p=transport(fibre.total_p, total),
        vertical_total_w=(
            transport(fibre.total_w, total) if fibre.total_w is not None else None
        ),
    )


def projectivize(
    base: Ring | SpaceModel,
    chern: Sequence[GradedPoly | str | int],
    twist: str = "t",
) -> BundleModel:
    """Projectivization of a rank-k complex bundle over the base.

    ``chern`` lists c_1..c_k in the base ring (strings are parsed there).
    The rank must be at least 2; the fibre is CP^{k-1} of dimension
    2(k-1).  Characteristic 0 only.
    """
    base_ring = base.ring if isinstance(base, SpaceModel) else base
    if base_ring.characteristic != 0:
        raise ValueError("projectivization is implemented over characteristic 0")
    k = len(chern)
    if k < 2:
        raise ValueError("projectivization needs rank at least 2")
    if twist in base_ring.names:
        raise ValueError(
            f"generator name {twist!r} already taken in the base ring; "
            "pass a different twist name"
        )
    classes = [base_ring.poly(c) for c in chern]
    for i, c in enumerate(classes, start=1):
        if not c.is_homogeneous(2 * i):
            raise ValueError(f"c_{i} must be homogeneous of degree {2 * i}")

    # same generators plus t, with base rules kept, and the defining
    # relation t^k = -(c_1 t^{k-1} + ... + c_k) written on exponent vectors
    # (each c_i is in base normal form, so no product needs reducing), with
    # int coefficients wherever a class is integral
    relation = {
        mon + (k - i,): -coeff
        for i, c in enumerate(classes, start=1)
        for mon, coeff in c.terms.exact_items()
    }
    rules = [
        ((base_ring.names[idx], power), {mon + (0,): c for mon, c in rhs.exact_items()})
        for idx, (power, rhs) in base_ring.rules.items()
    ]
    gens = [*zip(base_ring.names, base_ring.degrees), (twist, 2)]
    total = Ring(0, gens, rules + [((twist, k), relation)])

    # vertical Chern class sum_i c_i (1+t)^{k-i} by Horner's rule
    one_plus_t = total.one() + total.gen(twist)
    vertical_chern = total.one()
    for c in classes:
        vertical_chern = vertical_chern * one_plus_t + transport(c, total)
    fibre_dim = 2 * (k - 1)
    return BundleModel(
        base_ring=base_ring,
        total_ring=total,
        fibre_dimension=fibre_dim,
        fibre_fundamental=(k - 1,),
        vertical_euler=vertical_chern.graded_component(fibre_dim),
        vertical_total_p=spaces.chern_to_pontryagin(vertical_chern),
    )


def kappa(bundle: BundleModel, cls: str) -> GradedPoly:
    """The kappa class of a vertical characteristic class.

    ``cls`` is a polynomial, in the text syntax of :mod:`charclasses.rings`,
    in the vertical classes of a fibre of dimension d: e and p1..p(d/2) in
    characteristic 0, w1..wd in characteristic 2, e.g. ``"e^3 + 2*e*p1"``.
    It is parsed in the free ring on the vertical classes it names (any
    other name is an unknown generator), evaluated on the vertical tangent
    data and pushed down.
    """
    d = bundle.fibre_dimension
    characteristic = bundle.total_ring.characteristic
    # each vertical total class with the named classes read off it, name ->
    # degree, for the names in the text only: d may be far larger than the text
    named = set(_NAME_RE.findall(cls))
    if characteristic == 0:
        groups = [
            (bundle.vertical_euler, {"e": d} if "e" in named else {}),
            (bundle.vertical_total_p,
             {f"p{i}": 4 * i for i in _indices(named, "p", d // 2)}),
        ]
    elif characteristic == 2:
        groups = [
            (bundle.vertical_total_w, {f"w{i}": i for i in _indices(named, "w", d)})
        ]
    else:
        raise ValueError(
            f"no kappa classes in characteristic {characteristic}; use 0 or 2"
        )
    # ring degrees must be positive, and a point fibre has e = 1 in degree
    # 0; the class ring is free, so its grading is never read
    class_ring = Ring(
        characteristic,
        [(name, deg or 2) for _, degrees in groups for name, deg in degrees.items()],
    )
    polynomial = class_ring.poly(cls)
    images = {}
    for total, degrees in groups:
        if not degrees:
            continue
        if total is None:
            raise ValueError("bundle carries no Stiefel-Whitney data")
        # one pass over the total class picks every degree named in it
        parts = total.graded_components(degrees.values())
        images.update((name, parts[deg]) for name, deg in degrees.items())
    return bundle.gysin(polynomial.substitute(images, bundle.total_ring))


def _indices(names: set[str], letter: str, top: int) -> list[int]:
    """Each i in 1..top, ascending, for which the name letter<i> is given."""
    return sorted({
        int(name[1:]) for name in names
        if name[0] == letter and name[1:].isdigit() and 1 <= int(name[1:]) <= top
    })
