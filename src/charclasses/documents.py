"""JSON descriptions of rings, spaces, and bundles.

A space document looks like::

    {
      "characteristic": 0,
      "ring": {
        "generators": [{"name": "y", "degree": 4}],
        "relations": [{"lhs": "y^3", "rhs": "0"}]
      },
      "dimension": 8,
      "fundamental": "y^2",
      "total_p": "1+2*y+7*y^2",
      "euler": "3*y^2"
    }

with an optional "total_w" polynomial in characteristic 2.  Bundle
documents carry a "kind" discriminator::

    {"kind": "product", "base": <space>, "fibre": <space>}
    {"kind": "projectivization", "base": <space or bare ring document>,
     "chern": ["c1", "c2"], "twist": "t"}

where a bare ring document is {"characteristic": ..., "ring": {...}} and
"twist" (optional) names the appended degree-2 generator.  All polynomial
payloads use the text syntax of :mod:`charclasses.rings`.

Bad input raises :class:`charclasses.rings.FieldError`, as the builders
do, at the path of the field in the document the function was given
(``""`` for that document).  A reader of a sub-document puts its key in
front on the way out with :func:`charclasses.rings.under`, through
``_read`` for one call, or a ``try`` around a whole loop, so nothing is
built per item that is not rejected.  A builder's ``ValueError`` that
names no field is at the document the builder was given.  The decoder
checks the JSON shape only, and then calls each builder once (``Ring``,
``SpaceModel``, ``product_bundle``, ``projectivize``), which checks the
rest.  The decoder runs two library checks itself: ``validate_modulus``
on a characteristic, which lies outside the {"generators", "relations"}
document that ``Ring`` names its fields in, and ``check_fundamental``,
before it parses a space's classes, since it needs no rewriting.  It
parses each class of a space at its field, since ``SpaceModel`` takes
them parsed.
A product bundle is read for its kappa classes, so the decoder
also rejects a base of characteristic other than 0 or 2, and, in
characteristic 2, a fibre without "total_w": ``kappa`` would find either
only when it runs, and the error would not name the field.  Only
``bundle_from_document`` imports :mod:`charclasses.bundles`, so decoding
a space or a ring never loads it.  The encoder
``ring_to_document`` is defined in :mod:`charclasses.spaces` and exported
here too.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from .rings import FieldError, GradedPoly, Ring, under
from .spaces import SpaceModel, check_closed, check_fundamental, ring_to_document

__all__ = [
    "bundle_from_document",
    "ring_from_document",
    "ring_to_document",
    "space_from_document",
    "space_to_document",
]


def _read(key: str, read: Callable, *args: Any) -> Any:
    """``read(*args)``, which reads the value at ``key``: a ``ValueError``
    it raises is reported under ``key``."""
    try:
        return read(*args)
    except ValueError as exc:
        raise under(key, exc) from exc


def _field(doc: Mapping[str, Any], key: str) -> Any:
    if not isinstance(doc, Mapping):
        raise FieldError("", "expected a JSON object")
    if key not in doc:
        raise FieldError(key, "missing required field")
    return doc[key]


def _int_field(doc: Mapping[str, Any], key: str, minimum: int) -> int:
    value = _field(doc, key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise FieldError(key, f"expected an integer >= {minimum}")
    return value


def _str_field(doc: Mapping[str, Any], key: str) -> str:
    value = _field(doc, key)
    if not isinstance(value, str) or not value.strip():
        raise FieldError(key, "expected a nonempty string")
    return value


def _poly_field(doc: Mapping[str, Any], key: str, ring: Ring) -> GradedPoly:
    """The class at ``key``, parsed."""
    return _read(key, ring.poly, _str_field(doc, key))


def ring_from_document(doc: Mapping[str, Any], characteristic: int) -> Ring:
    """Build a ring from {"generators": [...], "relations": [...]}."""
    gen_docs = _field(doc, "generators")
    if not isinstance(gen_docs, list):
        raise FieldError("generators", "expected a list")
    generators = []
    try:
        for i, gen_doc in enumerate(gen_docs):
            generators.append((_str_field(gen_doc, "name"),
                               _int_field(gen_doc, "degree", minimum=1)))
    except FieldError as exc:
        raise under(f"generators/{i}", exc) from exc
    relation_docs = doc.get("relations", [])
    if not isinstance(relation_docs, list):
        raise FieldError("relations", "expected a list")
    rules = []
    try:
        for i, rel_doc in enumerate(relation_docs):
            rules.append((_str_field(rel_doc, "lhs"), _str_field(rel_doc, "rhs")))
    except FieldError as exc:
        raise under(f"relations/{i}", exc) from exc
    return _read("", Ring, characteristic, generators, rules)


def _ring_field(doc: Mapping[str, Any]) -> Ring:
    """The ring of a document's "characteristic" and "ring" fields."""
    value = _field(doc, "characteristic")
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FieldError("characteristic", "expected 0 or a prime")
    if value:
        from .scalars import validate_modulus

        _read("characteristic", validate_modulus, value)
    return _read("ring", ring_from_document, _field(doc, "ring"), value)


def space_from_document(doc: Mapping[str, Any]) -> SpaceModel:
    """Build a SpaceModel from its JSON document."""
    ring = _ring_field(doc)
    dimension = _int_field(doc, "dimension", minimum=0)
    fundamental = _read("fundamental", ring.monomial, _str_field(doc, "fundamental"))
    check_fundamental(ring, fundamental, dimension)
    total_p = _poly_field(doc, "total_p", ring)
    euler = _poly_field(doc, "euler", ring)
    total_w = _poly_field(doc, "total_w", ring) if "total_w" in doc else None
    return _read("", SpaceModel, ring, dimension, fundamental, total_p, euler, total_w)


def space_to_document(space: SpaceModel) -> dict:
    """The JSON document of a closed manifold (inverse of space_from_document)."""
    check_closed(space)
    doc = {
        "characteristic": space.ring.characteristic,
        "ring": ring_to_document(space.ring),
        "dimension": space.dimension,
        "fundamental": space.ring.monomial_str(space.fundamental) or "1",
        "total_p": str(space.total_p),
        "euler": str(space.euler),
    }
    if space.total_w is not None:
        doc["total_w"] = str(space.total_w)
    return doc


def bundle_from_document(doc: Mapping[str, Any]) -> SpaceModel:
    """Build a bundle, a SpaceModel over a base, from its JSON document."""
    from . import bundles  # its builders are looked up there at each call

    kind = _str_field(doc, "kind")
    if kind == "product":
        base = _read("base", space_from_document, _field(doc, "base"))
        characteristic = base.ring.characteristic
        if characteristic not in (0, 2):
            raise FieldError("base/characteristic", "no kappa classes in "
                             f"characteristic {characteristic}; use 0 or 2")
        fibre = _read("fibre", space_from_document, _field(doc, "fibre"))
        bundle = _read("", bundles.product_bundle, base, fibre)
        if characteristic == 2 and bundle.total_w is None:
            raise FieldError("fibre/total_w", "missing required field: "
                             "kappa in characteristic 2 reads the fibre's w classes")
        return bundle
    if kind == "projectivization":
        base_doc = _field(doc, "base")
        space = isinstance(base_doc, Mapping) and "dimension" in base_doc
        base = _read("base", space_from_document if space else _ring_field, base_doc)
        chern = _field(doc, "chern")
        if not isinstance(chern, list) or not chern:
            raise FieldError("chern", "expected a nonempty list")
        for i, text in enumerate(chern):
            if not isinstance(text, str):
                raise FieldError(f"chern/{i}", "expected a polynomial string")
        twist = doc.get("twist", "t")
        if not isinstance(twist, str) or not twist:
            raise FieldError("twist", "expected a generator name")
        return _read("", bundles.projectivize, base, chern, twist)
    raise FieldError("kind", f"unknown bundle kind {kind!r}; expected 'product' or "
                     "'projectivization'")
