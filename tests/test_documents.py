"""JSON document validation and round trips."""

import pytest

from charclasses.bundles import kappa
from charclasses.documents import (
    DocumentError,
    bundle_from_document,
    ring_from_document,
    ring_to_document,
    space_from_document,
    space_to_document,
)
from charclasses.spaces import cp, hp, point, sphere


def hp2_document():
    return {
        "characteristic": 0,
        "ring": {
            "generators": [{"name": "y", "degree": 4}],
            "relations": [{"lhs": "y^3", "rhs": "0"}],
        },
        "dimension": 8,
        "fundamental": "y^2",
        "total_p": "1 + 2*y + 7*y^2",
        "euler": "3*y^2",
    }


# ----------------------------------------------------------------------
# rings


def test_ring_round_trip():
    for space in (hp(2), cp(3), sphere(12)):
        doc = ring_to_document(space.ring)
        rebuilt = ring_from_document(doc, 0)
        assert rebuilt == space.ring


def test_ring_document_shape():
    doc = ring_to_document(hp(2).ring)
    assert doc == {
        "generators": [{"name": "y", "degree": 4}],
        "relations": [{"lhs": "y^3", "rhs": "0"}],
    }


def test_ring_document_errors_carry_paths():
    with pytest.raises(DocumentError) as info:
        ring_from_document({}, 0)
    assert str(info.value).startswith("/generators:")
    with pytest.raises(DocumentError) as info:
        ring_from_document({"generators": [{"name": "x"}]}, 0)
    assert str(info.value).startswith("/generators/0/degree:")
    with pytest.raises(DocumentError) as info:
        ring_from_document({"generators": [{"name": "x", "degree": 0}]}, 0)
    assert str(info.value).startswith("/generators/0/degree:")
    with pytest.raises(DocumentError) as info:
        ring_from_document(
            {
                "generators": [{"name": "x", "degree": 2}],
                "relations": [{"lhs": "x^2"}],
            },
            0,
        )
    assert str(info.value).startswith("/relations/0/rhs:")
    # ring-level constraint violations surface at the ring path
    with pytest.raises(DocumentError) as info:
        ring_from_document({"generators": [{"name": "x", "degree": 3}]}, 0)
    assert "odd degree" in str(info.value)


# ----------------------------------------------------------------------
# spaces


def test_space_round_trip():
    for space in (hp(2), cp(2), sphere(12), point()):
        doc = space_to_document(space)
        rebuilt = space_from_document(doc)
        assert rebuilt.ring == space.ring
        assert rebuilt.dimension == space.dimension
        assert rebuilt.fundamental == space.fundamental
        assert rebuilt.total_p == space.total_p
        assert rebuilt.euler == space.euler


def test_space_round_trip_characteristic_two():
    space = point(2)
    doc = space_to_document(space)
    assert doc["characteristic"] == 2
    assert doc["total_w"] == "1"
    rebuilt = space_from_document(doc)
    assert rebuilt.total_w == space.total_w


def test_space_to_document_rejects_a_family_over_a_base():
    bundle = bundle_from_document({"kind": "product", "base": space_to_document(sphere(12)),
                                   "fibre": hp2_document()})
    with pytest.raises(ValueError, match="closed manifold"):
        space_to_document(bundle)


def test_space_document_accepts_handwritten_form():
    space = space_from_document(hp2_document())
    assert space.dimension == 8
    assert space.total_p == hp(2).total_p


def test_space_document_errors_carry_paths():
    doc = hp2_document()
    del doc["dimension"]
    with pytest.raises(DocumentError) as info:
        space_from_document(doc)
    assert str(info.value).startswith("/dimension:")

    doc = hp2_document()
    doc["fundamental"] = "y + 1"
    with pytest.raises(DocumentError) as info:
        space_from_document(doc)
    assert str(info.value).startswith("/fundamental:")

    doc = hp2_document()
    doc["total_p"] = "1 + 2*q"
    with pytest.raises(DocumentError) as info:
        space_from_document(doc)
    assert str(info.value).startswith("/total_p:")

    doc = hp2_document()
    doc["characteristic"] = -3
    with pytest.raises(DocumentError) as info:
        space_from_document(doc)
    assert str(info.value).startswith("/characteristic:")

    doc = hp2_document()
    doc["total_w"] = "1"
    with pytest.raises(DocumentError):
        space_from_document(doc)

    # model-level inconsistency (fundamental degree vs dimension)
    doc = hp2_document()
    doc["dimension"] = 4
    with pytest.raises(DocumentError) as info:
        space_from_document(doc)
    assert str(info.value) == "/fundamental: fundamental monomial has degree 8, expected 4"


def test_space_document_nested_ring_errors_point_into_ring():
    doc = hp2_document()
    doc["ring"]["relations"][0]["lhs"] = "y"
    with pytest.raises(DocumentError) as info:
        space_from_document(doc)
    assert str(info.value).startswith("/ring")


# ----------------------------------------------------------------------
# bundles


def test_product_bundle_document():
    doc = {
        "kind": "product",
        "base": space_to_document(sphere(12)),
        "fibre": hp2_document(),
    }
    bundle = bundle_from_document(doc)
    assert bundle.dimension == 8
    assert kappa(bundle, "e") == bundle.base_ring.one() * 3


def test_projectivization_document_with_bare_ring_base():
    doc = {
        "kind": "projectivization",
        "base": {
            "characteristic": 0,
            "ring": {
                "generators": [
                    {"name": "c1", "degree": 2},
                    {"name": "c2", "degree": 4},
                ],
                "relations": [],
            },
        },
        "chern": ["c1", "c2"],
    }
    bundle = bundle_from_document(doc)
    assert bundle.ring.names == ("c1", "c2", "t")
    assert str(kappa(bundle, "e^3")) == "2*c1^2 - 8*c2"


def test_projectivization_document_with_space_base_and_twist():
    doc = {
        "kind": "projectivization",
        "base": hp2_document(),
        "chern": ["0", "y"],
        "twist": "u",
    }
    bundle = bundle_from_document(doc)
    assert bundle.ring.names == ("y", "u")


def test_bundle_document_errors():
    with pytest.raises(DocumentError) as info:
        bundle_from_document({"kind": "mystery"})
    assert str(info.value).startswith("/kind:")

    with pytest.raises(DocumentError) as info:
        bundle_from_document({"kind": "product", "base": space_to_document(cp(2))})
    assert str(info.value).startswith("/fibre:")

    # generator collision between product factors is a document error
    with pytest.raises(DocumentError):
        bundle_from_document(
            {
                "kind": "product",
                "base": hp2_document(),
                "fibre": hp2_document(),
            }
        )

    with pytest.raises(DocumentError) as info:
        bundle_from_document(
            {
                "kind": "projectivization",
                "base": {
                    "characteristic": 0,
                    "ring": {"generators": [{"name": "c1", "degree": 2}]},
                },
                "chern": ["c1", "nope"],
            }
        )
    assert str(info.value).startswith("/chern/1:")

    with pytest.raises(DocumentError) as info:
        bundle_from_document(
            {
                "kind": "projectivization",
                "base": {
                    "characteristic": 0,
                    "ring": {"generators": [{"name": "c1", "degree": 2}]},
                },
                "chern": [],
            }
        )
    assert str(info.value).startswith("/chern:")
