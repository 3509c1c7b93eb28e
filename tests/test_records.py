"""Value semantics of the package's record classes.

``PrimeScalar``, ``SpaceModel``, ``CheckResult`` and
``CounterexampleReport`` are immutable values: construction validates,
fields cannot be assigned or deleted, ``==`` and ``repr`` go field by
field, and copies and pickles round-trip to equal values.  A bundle is a
``SpaceModel`` over a base; its samples keep the id ``BundleModel``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from charclasses.bundles import product_bundle, projectivize
from charclasses.checks import CheckResult
from charclasses.counterexample import CounterexampleReport
from charclasses.rings import MAX_EXPONENT, FieldError, Ring
from charclasses.scalars import PrimeScalar
from charclasses.spaces import SpaceModel, cp, hp, product_space, sphere


def report(R):
    y = Ring(0, [("y", 4)]).gen("y")
    return CounterexampleReport(
        R=Fraction(R),
        p_low_unchanged=(True, True, True),
        p4=y * R,
        p5=y ** 2 * R,
        sign_fibre=Fraction(1),
        casson=Fraction(0),
        kappa_p5_integral=Fraction(R, 3),
    )


RECORDS = {
    "PrimeScalar": lambda: PrimeScalar(7, 5),
    "SpaceModel": lambda: sphere(4),
    "BundleModel": lambda: projectivize(cp(2), ["3*h", "3*h^2"]),
    "CheckResult": lambda: CheckResult("a-check", True, "holds"),
    "CounterexampleReport": lambda: report(2),
}

OTHERS = {
    "PrimeScalar": lambda: PrimeScalar(3, 5),
    "SpaceModel": lambda: sphere(6),
    "BundleModel": lambda: product_bundle(cp(2), sphere(2)),
    "CheckResult": lambda: CheckResult("a-check", False, "holds"),
    "CounterexampleReport": lambda: report(3),
}


def fields(record):
    """The field names, in order: each record class lists them there."""
    return record.__match_args__


@pytest.fixture(params=sorted(RECORDS))
def kind(request):
    return request.param


def test_prime_scalar_construction_reduces_and_validates():
    assert PrimeScalar(7, 5).value == 2
    assert PrimeScalar(-1, 5).value == 4
    with pytest.raises(ValueError):
        PrimeScalar(1, 6)


def test_space_model_construction_validates():
    s = sphere(4)
    with pytest.raises(ValueError):
        SpaceModel(s.ring, 6, s.fundamental, s.total_p, s.euler)
    with pytest.raises(ValueError):
        SpaceModel(
            ring=s.ring, dimension=4, fundamental=s.fundamental,
            total_p=s.total_p, euler=s.euler, total_w=s.total_p,
        )


def test_space_model_rejects_a_negative_dimension():
    s = sphere(4)
    with pytest.raises(ValueError, match="negative dimension -4"):
        SpaceModel(s.ring, -4, s.fundamental, s.total_p, s.euler)


def with_field(space, **changes):
    return SpaceModel(**{**{name: getattr(space, name) for name in fields(space)}, **changes})


C1 = Ring(0, [("c1", 2)])
RP2 = Ring(2, [("a", 1)], [(("a", 3), 0)])


@pytest.mark.parametrize(
    "build, field, message",
    [
        (lambda: with_field(sphere(4), dimension=-4), "dimension", "negative dimension -4"),
        (lambda: with_field(sphere(4), fundamental=(2,)), "fundamental",
         "fundamental monomial has degree 8, expected 4"),
        (lambda: with_field(sphere(4), total_p=sphere(4).ring.one() * 2), "total_p",
         "total Pontryagin class must have constant term 1"),
        (lambda: with_field(cp(2), total_p=cp(2).ring.poly("1 + h")), "total_p",
         "total Pontryagin class has a term of degree 2, not a multiple of 4"),
        (lambda: with_field(sphere(4), euler=sphere(4).ring.one()), "euler",
         "Euler class must be homogeneous of degree 4"),
        (lambda: with_field(sphere(4), total_w=sphere(4).ring.one()), "total_w",
         "total_w only makes sense in characteristic 2"),
        (lambda: SpaceModel(RP2, 2, (2,), RP2.one(), RP2.poly("a^2"), RP2.poly("a")),
         "total_w", "total Stiefel-Whitney class must start with 1"),
        (lambda: projectivize(Ring(3, [("c1", 2)]), ["c1", "c1^2"]), "base/characteristic",
         "projectivization is implemented over characteristic 0"),
        (lambda: projectivize(C1, ["c1"]), "chern", "projectivization needs rank at least 2"),
        (lambda: projectivize(C1, ["0"] * (MAX_EXPONENT + 1)), "chern",
         f"rank {MAX_EXPONENT + 1} exceeds MAX_EXPONENT = {MAX_EXPONENT}"),
        (lambda: projectivize(C1, ["c1", "c1^2"], twist="t t"), "twist",
         "bad generator name 't t'; expected a letter or _ followed by letters, digits or _"),
        (lambda: projectivize(C1, ["c1", "c1^2"], twist="c1"), "twist",
         "generator name 'c1' already taken in the base ring; pass a different twist name"),
        (lambda: projectivize(C1, ["c1", "c1 c1"]), "chern/1",
         "bad factor 'c1 c1' in polynomial"),
        (lambda: projectivize(C1, ["c1", "c1"]), "chern/1",
         "c_2 must be homogeneous of degree 4"),
        (lambda: product_bundle(sphere(12), SpaceModel(
            RP2, 2, (2,), RP2.one(), RP2.poly("a^2"), RP2.poly("1 + a"))),
         "fibre/characteristic", "tensor factors have different characteristics"),
        (lambda: product_bundle(product_space(cp(2), hp(2)), product_space(cp(2), hp(2))),
         "fibre/ring/generators/0/name",
         "generator names collide in tensor product: ['h', 'y']; rename before combining"),
        (lambda: Ring(0, [("y", 4), ("y", 4)]), "generators/1/name",
         "duplicate generator name 'y'"),
        (lambda: Ring(0, [("y", 3)]), "generators/0/degree",
         "generator 'y' has odd degree 3; odd degrees require characteristic 2 "
         "under strict commutativity"),
        (lambda: Ring(0, [("y", 4)], [("y^3", "0"), ("y^4", "0")]), "relations/1/lhs",
         "more than one rule for generator 'y'"),
        (lambda: Ring(0, [("y", 4)], [("y^3", "y")]), "relations/0/rhs",
         "rule y^3 has an inhomogeneous right-hand side (degree 4 term, expected 12)"),
    ],
    ids=["dimension", "fundamental", "total_p-constant", "total_p-degree", "euler",
         "total_w-characteristic", "total_w-constant", "projectivize-base", "projectivize-rank",
         "projectivize-rank-past-max-exponent", "projectivize-twist-name",
         "projectivize-twist-taken", "projectivize-chern-parse", "projectivize-chern-degree",
         "product-fibre-characteristic", "product-fibre-names",
         "ring-duplicate-name", "ring-odd-degree", "ring-second-rule", "ring-rhs"],
)
def test_builders_name_the_field_they_reject(build, field, message):
    with pytest.raises(FieldError) as info:
        build()
    assert info.value.field == field
    assert str(info.value) == message


def test_space_model_validation_runs_on_every_family():
    bundle = projectivize(cp(2), ["3*h", "3*h^2", "0"])  # fibre CP^2
    data = {name: getattr(bundle, name) for name in fields(bundle)}
    t = bundle.ring.gen("t")
    with pytest.raises(ValueError, match="Euler class must be homogeneous of degree 4"):
        SpaceModel(**{**data, "euler": t})
    # the tail fundamental t^1 has degree 2, not the fibre dimension 4
    with pytest.raises(ValueError, match="fundamental monomial has degree 2, expected 4"):
        SpaceModel(**{**data, "fundamental": (1,)})
    # the exponents of h and t: the base's generator has none in it
    with pytest.raises(ValueError, match="expected 1 exponents"):
        SpaceModel(**{**data, "fundamental": (0, 2)})
    for built in (bundle, product_bundle(cp(2), sphere(2))):
        assert type(built) is SpaceModel
        again = SpaceModel(**{name: getattr(built, name) for name in fields(built)})
        assert again == built


def test_fields_are_read_only(kind):
    record = RECORDS[kind]()
    for name in fields(record):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def test_equality_is_field_wise(kind):
    a, b, other = RECORDS[kind](), RECORDS[kind](), OTHERS[kind]()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != "a string"


def test_repr_lists_the_fields(kind):
    record = RECORDS[kind]()
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields(record))
    name = "SpaceModel" if kind == "BundleModel" else kind
    assert repr(record) == f"{name}({shown})"


def test_prime_scalar_repr_and_hash():
    assert repr(PrimeScalar(7, 5)) == "PrimeScalar(value=2, modulus=5)"
    assert hash(PrimeScalar(7, 5)) == hash(PrimeScalar(2, 5))
    assert len({PrimeScalar(7, 5), PrimeScalar(2, 5), PrimeScalar(2, 7)}) == 2
    assert hash(CheckResult("a", True, "b")) == hash(CheckResult("a", True, "b"))


@pytest.mark.parametrize("kind", ["SpaceModel", "BundleModel", "CounterexampleReport"])
def test_records_holding_rings_are_unhashable(kind):
    with pytest.raises(TypeError):
        hash(RECORDS[kind]())


@pytest.mark.parametrize("round_trip", [
    copy.copy,
    copy.deepcopy,
    lambda r: pickle.loads(pickle.dumps(r)),
    lambda r: pickle.loads(pickle.dumps(r, 0)),
    lambda r: pickle.loads(pickle.dumps(r, 1)),
], ids=["copy", "deepcopy", "pickle", "pickle-protocol-0", "pickle-protocol-1"])
def test_copies_and_pickles_round_trip(kind, round_trip):
    record = RECORDS[kind]()
    again = round_trip(record)
    assert type(again) is type(record)
    assert again == record
    assert repr(again) == repr(record)
    for name in fields(record):
        with pytest.raises(AttributeError):
            setattr(again, name, getattr(again, name))


def test_a_copied_prime_scalar_still_computes():
    a = copy.deepcopy(PrimeScalar(3, 7))
    b = pickle.loads(pickle.dumps(PrimeScalar(5, 7)))
    assert a * b == PrimeScalar(1, 7)
    assert hash(a) == hash(PrimeScalar(3, 7))


def test_a_copied_bundle_still_pushes_down():
    bundle = RECORDS["BundleModel"]()
    again = pickle.loads(pickle.dumps(bundle))
    t = again.ring.gen("t")
    assert again.gysin(t ** 2) == bundle.gysin(bundle.ring.gen("t") ** 2)
    assert again.gysin(t ** 2) == again.base_ring.poly("-3*h")
