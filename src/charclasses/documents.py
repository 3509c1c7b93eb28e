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

Validation failures raise :class:`DocumentError` whose message starts with
the JSON-pointer-style path of the offending field.  The decoder checks
the JSON shape only, and then calls each builder once (``Ring``,
``SpaceModel``, ``product_bundle``, ``projectivize``), which checks the
rest.  A builder names the field it rejects: it raises
:class:`charclasses.rings.FieldError`, whose ``field`` is the path of the
field in the builder's own document, and ``with _at(path):`` reports one
raised inside it as a :class:`DocumentError` at ``path/field``, and any
other ``ValueError`` at ``path``.  Each such block wraps library calls and
no decoder code, so an error keeps the path of the field it was found in.
The decoder runs two library checks itself: ``validate_modulus`` on a
characteristic, which lies outside the {"generators", "relations"}
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

from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from .rings import FieldError, GradedPoly, Ring
from .spaces import SpaceModel, check_closed, check_fundamental, ring_to_document

__all__ = [
    "DocumentError",
    "bundle_from_document",
    "ring_from_document",
    "ring_to_document",
    "space_from_document",
    "space_to_document",
]


class DocumentError(ValueError):
    """A document failed validation; the message names the bad field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path or "/"
        super().__init__(f"{self.path}: {message}")


@contextmanager
def _at(path: str) -> Iterator[None]:
    """Report a ``FieldError`` raised in the block as bad input at its field
    under ``path``, and any other ``ValueError`` at ``path``."""
    try:
        yield
    except FieldError as exc:
        raise DocumentError(f"{path}/{exc.field}", str(exc)) from exc
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from exc


def _field(doc: Mapping[str, Any], key: str, path: str) -> Any:
    if not isinstance(doc, Mapping):
        raise DocumentError(path, "expected a JSON object")
    if key not in doc:
        raise DocumentError(f"{path}/{key}", "missing required field")
    return doc[key]


def _int_field(doc: Mapping[str, Any], key: str, path: str, minimum: int) -> int:
    value = _field(doc, key, path)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DocumentError(f"{path}/{key}", f"expected an integer >= {minimum}")
    return value


def _str_field(doc: Mapping[str, Any], key: str, path: str) -> str:
    value = _field(doc, key, path)
    if not isinstance(value, str) or not value.strip():
        raise DocumentError(f"{path}/{key}", "expected a nonempty string")
    return value


def _poly_field(doc: Mapping[str, Any], key: str, path: str, ring: Ring) -> GradedPoly:
    """The class at ``key``, parsed."""
    text = _str_field(doc, key, path)
    with _at(f"{path}/{key}"):
        return ring.poly(text)


def ring_from_document(
    doc: Mapping[str, Any], characteristic: int, path: str = ""
) -> Ring:
    """Build a ring from {"generators": [...], "relations": [...]}."""
    gen_docs = _field(doc, "generators", path)
    if not isinstance(gen_docs, list):
        raise DocumentError(f"{path}/generators", "expected a list")
    generators = []
    for i, gen_doc in enumerate(gen_docs):
        gen_path = f"{path}/generators/{i}"
        generators.append((_str_field(gen_doc, "name", gen_path),
                           _int_field(gen_doc, "degree", gen_path, minimum=1)))
    relation_docs = doc.get("relations", [])
    if not isinstance(relation_docs, list):
        raise DocumentError(f"{path}/relations", "expected a list")
    rules = []
    for i, rel_doc in enumerate(relation_docs):
        rel_path = f"{path}/relations/{i}"
        rules.append((_str_field(rel_doc, "lhs", rel_path),
                      _str_field(rel_doc, "rhs", rel_path)))
    with _at(path):
        return Ring(characteristic, generators, rules)


def _ring_field(doc: Mapping[str, Any], path: str) -> Ring:
    """The ring of a document's "characteristic" and "ring" fields."""
    value = _field(doc, "characteristic", path)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DocumentError(f"{path}/characteristic", "expected 0 or a prime")
    if value:
        from .scalars import validate_modulus

        with _at(f"{path}/characteristic"):
            validate_modulus(value)
    return ring_from_document(_field(doc, "ring", path), value, f"{path}/ring")


def space_from_document(doc: Mapping[str, Any], path: str = "") -> SpaceModel:
    """Build a SpaceModel from its JSON document."""
    ring = _ring_field(doc, path)
    dimension = _int_field(doc, "dimension", path, minimum=0)
    fundamental_text = _str_field(doc, "fundamental", path)
    with _at(f"{path}/fundamental"):
        fundamental = ring.monomial(fundamental_text)
    with _at(path):
        check_fundamental(ring, fundamental, dimension)
    total_p = _poly_field(doc, "total_p", path, ring)
    euler = _poly_field(doc, "euler", path, ring)
    total_w = _poly_field(doc, "total_w", path, ring) if "total_w" in doc else None
    with _at(path):
        return SpaceModel(
            ring=ring,
            dimension=dimension,
            fundamental=fundamental,
            total_p=total_p,
            euler=euler,
            total_w=total_w,
        )


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


def bundle_from_document(doc: Mapping[str, Any], path: str = "") -> SpaceModel:
    """Build a bundle, a SpaceModel over a base, from its JSON document."""
    from . import bundles  # its builders are looked up there at each call

    kind = _str_field(doc, "kind", path)
    if kind == "product":
        base = space_from_document(_field(doc, "base", path), f"{path}/base")
        characteristic = base.ring.characteristic
        if characteristic not in (0, 2):
            raise DocumentError(f"{path}/base/characteristic", "no kappa classes in "
                                f"characteristic {characteristic}; use 0 or 2")
        fibre = space_from_document(_field(doc, "fibre", path), f"{path}/fibre")
        with _at(path):
            bundle = bundles.product_bundle(base, fibre)
        if characteristic == 2 and bundle.total_w is None:
            raise DocumentError(f"{path}/fibre/total_w", "missing required field: "
                                "kappa in characteristic 2 reads the fibre's w classes")
        return bundle
    if kind == "projectivization":
        base_doc = _field(doc, "base", path)
        base_path = f"{path}/base"
        if isinstance(base_doc, Mapping) and "dimension" in base_doc:
            base: Ring | SpaceModel = space_from_document(base_doc, base_path)
        else:
            base = _ring_field(base_doc, base_path)
        chern = _field(doc, "chern", path)
        if not isinstance(chern, list) or not chern:
            raise DocumentError(f"{path}/chern", "expected a nonempty list")
        for i, text in enumerate(chern):
            if not isinstance(text, str):
                raise DocumentError(f"{path}/chern/{i}", "expected a polynomial string")
        twist = doc.get("twist", "t")
        if not isinstance(twist, str) or not twist:
            raise DocumentError(f"{path}/twist", "expected a generator name")
        with _at(path):
            return bundles.projectivize(base, chern, twist=twist)
    raise DocumentError(
        f"{path}/kind", f"unknown bundle kind {kind!r}; "
        "expected 'product' or 'projectivization'"
    )
