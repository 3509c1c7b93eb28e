"""Value semantics of the package's record classes.

``PrimeScalar``, ``SpaceModel``, ``BundleModel``, ``CheckResult`` and
``CounterexampleReport`` are immutable values: construction validates,
fields cannot be assigned or deleted, ``==`` and ``repr`` go field by
field, and copies and pickles round-trip to equal values.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from charclasses.bundles import product_bundle, projectivize
from charclasses.checks import CheckResult
from charclasses.counterexample import CounterexampleReport
from charclasses.rings import Ring
from charclasses.scalars import PrimeScalar
from charclasses.spaces import SpaceModel, cp, sphere


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
    assert repr(record) == f"{kind}({shown})"


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
], ids=["copy", "deepcopy", "pickle"])
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
    t = again.total_ring.gen("t")
    assert again.gysin(t ** 2) == bundle.gysin(bundle.total_ring.gen("t") ** 2)
    assert again.gysin(t ** 2) == again.base_ring.poly("-3*h")
