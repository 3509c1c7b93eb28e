"""Fibre bundles with computable Gysin maps and kappa classes.

A bundle is a :class:`charclasses.spaces.SpaceModel` whose base ring has
generators.  Its ``gysin`` reads off the coefficient of the fibre's
fundamental monomial, lowering degree by the fibre dimension, and a closed
manifold is the family over the point.

* ``product_bundle(base, fibre)``: the trivial bundle on the Kunneth ring,
  whose vertical classes stay in the fibre's ring.
* ``projectivize(base, chern)``: the complex projectivization of a rank-k
  bundle with Chern classes c_1..c_k.  The total ring appends a degree-2
  generator t with the defining relation
  t^k = -(c_1 t^{k-1} + ... + c_k), the vertical tangent Chern class is
  sum_i c_i (1+t)^{k-i}, and the fibre's fundamental monomial is t^{k-1}.

``kappa(space, c)`` pushes a characteristic class of the vertical tangent
bundle down to the base: kappa_c = gysin(c evaluated on the vertical data).
The class c is any polynomial in e and p_1..p_{d/2} (characteristic 0) or
in w_1..w_d (characteristic 2), for fibre dimension d.  The transfer
identity gysin(e(T_v) * pullback(a) * q) is a special case, and kappa of
the Euler class alone is the fibre's Euler characteristic.  Over the
point kappa_c is the characteristic number: the integral of c.
"""

from __future__ import annotations

from typing import Sequence

from . import spaces  # chern_to_pontryagin is looked up there at each call
from .rings import (
    _NAME_RE,
    MAX_EXPONENT,
    FieldError,
    GradedPoly,
    Ring,
    tensor_ring,
    transport,
    validate_name,
)
from .spaces import SpaceModel

__all__ = [
    "kappa",
    "product_bundle",
    "projectivize",
]


def product_bundle(base: SpaceModel, fibre: SpaceModel) -> SpaceModel:
    """The trivial bundle base x fibre -> base, whose vertical classes are
    the fibre's own.  A fibre that does not fit the base raises
    ``FieldError`` at its field under ``fibre/``, as ``tensor_ring`` names it."""
    try:
        ring = tensor_ring(base.ring, fibre.ring)
    except FieldError as exc:
        raise FieldError(f"fibre/{exc.field}", str(exc)) from exc
    return SpaceModel(
        ring=ring,
        dimension=fibre.dimension,
        fundamental=fibre.fundamental,
        total_p=fibre.total_p,
        euler=fibre.euler,
        total_w=fibre.total_w,
        base_ring=base.ring,
    )


def projectivize(
    base: Ring | SpaceModel,
    chern: Sequence[GradedPoly | str | int],
    twist: str = "t",
) -> SpaceModel:
    """Projectivization of a rank-k complex bundle over the base.

    ``chern`` lists c_1..c_k in the base ring (strings are parsed there).
    The rank must be at least 2; the fibre is CP^{k-1} of dimension
    2(k-1).  Characteristic 0 only.  Bad input raises ``FieldError`` at
    ``base/characteristic``, ``chern`` (the rank), ``twist`` or ``chern/<i>``.
    """
    base_ring = base.ring if isinstance(base, SpaceModel) else base
    if base_ring.characteristic != 0:
        raise FieldError("base/characteristic",
                         "projectivization is implemented over characteristic 0")
    k = len(chern)
    if k < 2:
        raise FieldError("chern", "projectivization needs rank at least 2")
    if k > MAX_EXPONENT:  # the exponent of the defining relation
        raise FieldError("chern", f"rank {k} exceeds MAX_EXPONENT = {MAX_EXPONENT}")
    validate_name(twist, "twist")
    if twist in base_ring.names:
        raise FieldError("twist", f"generator name {twist!r} already taken in the base "
                         "ring; pass a different twist name")
    classes = []
    for i, c in enumerate(chern):
        try:
            classes.append(base_ring.poly(c))
        except ValueError as exc:
            raise FieldError(f"chern/{i}", str(exc)) from exc
        if not classes[i].is_homogeneous(2 * i + 2):
            raise FieldError(f"chern/{i}", f"c_{i + 1} must be homogeneous of degree {2 * i + 2}")

    # same generators plus t, with base rules kept, and the defining
    # relation t^k = -(c_1 t^{k-1} + ... + c_k), formed by Horner's rule in
    # the free ring on those generators (each c_i is in base normal form,
    # so the relation is in the normal form of the total ring)
    gens = [*zip(base_ring.names, base_ring.degrees), (twist, 2)]
    free = Ring(0, gens)
    t = free.gen(twist)
    relation = free.zero()
    for c in classes:
        relation = relation * t + transport(c, free)
    rules = [((base_ring.names[idx], power), GradedPoly(base_ring, rhs))
             for idx, (power, rhs) in base_ring.rules.items()]
    total = Ring(0, gens, rules + [((twist, k), -relation)])

    # vertical Chern class sum_i c_i (1+t)^{k-i} by Horner's rule
    one_plus_t = total.one() + total.gen(twist)
    vertical_chern = total.one()
    for c in classes:
        vertical_chern = vertical_chern * one_plus_t + transport(c, total)
    fibre_dim = 2 * (k - 1)
    return SpaceModel(
        ring=total,
        dimension=fibre_dim,
        fundamental=(k - 1,),
        total_p=spaces.chern_to_pontryagin(vertical_chern),
        euler=vertical_chern.graded_component(fibre_dim),
        base_ring=base_ring,
    )


def kappa(bundle: SpaceModel, cls: str) -> GradedPoly:
    """The kappa class of a vertical characteristic class.

    ``cls`` is a polynomial, in the text syntax of :mod:`charclasses.rings`,
    in the vertical classes of a fibre of dimension d: e and p1..p(d/2) in
    characteristic 0, w1..wd in characteristic 2, e.g. ``"e^3 + 2*e*p1"``.
    It is parsed in the free ring on the vertical classes it names (any
    other name is an unknown generator), evaluated on the vertical tangent
    data and pushed down: into the point ring on a closed manifold.
    """
    d = bundle.dimension
    characteristic = bundle.ring.characteristic
    # each vertical total class with the named classes read off it, name ->
    # degree, for the names in the text only: d may be far larger than the text
    named = set(_NAME_RE.findall(cls))
    if characteristic == 0:
        groups = [
            (bundle.euler, {"e": d} if "e" in named else {}),
            (bundle.total_p,
             {f"p{i}": 4 * i for i in _indices(named, "p", d // 2)}),
        ]
    elif characteristic == 2:
        groups = [
            (bundle.total_w, {f"w{i}": i for i in _indices(named, "w", d)})
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
        # one pass over the total class picks every degree named in it, and
        # only those parts move into the total ring
        parts = total.graded_components(degrees.values())
        images.update((name, transport(parts[deg], bundle.ring))
                      for name, deg in degrees.items())
    return bundle.gysin(polynomial.substitute(images, bundle.ring))


def _indices(names: set[str], letter: str, top: int) -> list[int]:
    """Each i in 1..top, ascending, for which the name letter<i> is given."""
    return sorted({
        int(name[1:]) for name in names
        if name[0] == letter and name[1:].isdigit() and 1 <= int(name[1:]) <= top
    })
