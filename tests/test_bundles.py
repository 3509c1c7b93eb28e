"""Bundle models: fibre integration, the projection formula, kappa classes."""

import random
from fractions import Fraction

import pytest

from charclasses import bundles
from charclasses.bundles import kappa, product_bundle, projectivize
from charclasses.documents import space_from_document, space_to_document
from charclasses.genus import ahat_sequence, l_sequence
from charclasses.rings import GradedPoly, Ring
from charclasses.spaces import SpaceModel, cp, hp, point, sphere


def random_poly(rng, ring, max_exp=2, n_terms=3):
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        mon = tuple(rng.randint(0, max_exp) for _ in ring.names)
        terms[mon] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ring.poly(terms)


# ----------------------------------------------------------------------
# product bundles


def test_product_bundle_gysin_normalization():
    bundle = product_bundle(sphere(12), hp(2))
    total = bundle.total_ring
    fibre_class = total.gen("y") ** 2
    assert bundle.gysin(fibre_class) == bundle.base_ring.one()
    assert bundle.gysin(total.gen("y")).is_zero()
    assert bundle.gysin(total.one()).is_zero()


def test_product_bundle_gysin_keeps_base_factor():
    bundle = product_bundle(sphere(12), hp(2))
    total = bundle.total_ring
    x = total.gen("x")
    y = total.gen("y")
    assert bundle.gysin(x * y * y * Fraction(3, 7)) == (
        bundle.base_ring.gen("x") * Fraction(3, 7)
    )


def test_product_bundle_vertical_data_is_fibre_data():
    fibre = hp(2)
    bundle = product_bundle(sphere(12), fibre)
    y = fibre.ring.gen("y")
    assert bundle.vertical_euler == y * y * 3
    assert bundle.vertical_total_p == fibre.ring.poly("1 + 2*y + 7*y^2")
    assert bundle.fibre_dimension == 8


def test_product_bundle_moves_none_of_the_fibre_classes(monkeypatch):
    # kappa moves only the graded parts it reads into the total ring; the
    # bundle keeps the fibre's classes as they are
    def refuse(poly, target):
        raise AssertionError("product_bundle transported a class")

    monkeypatch.setattr(bundles, "transport", refuse)
    fibre = hp(2)
    bundle = product_bundle(sphere(12), fibre)
    assert bundle.vertical_euler is fibre.euler
    assert bundle.vertical_total_p is fibre.total_p
    assert bundle.vertical_total_w is None


def test_product_bundle_rejects_foreign_classes():
    bundle = product_bundle(sphere(12), hp(2))
    with pytest.raises(ValueError):
        bundle.gysin(hp(2).ring.gen("y"))


def test_gysin_lowers_degree_by_fibre_dimension():
    rng = random.Random(8)
    bundle = product_bundle(hp(2, gen="b"), cp(2))
    for _ in range(50):
        cls = random_poly(rng, bundle.total_ring)
        pushed = bundle.gysin(cls)
        if pushed.is_zero():
            continue
        for mon, _ in pushed.items():
            src_degrees = {
                bundle.total_ring.monomial_degree(m) for m, _ in cls.items()
            }
            assert (
                bundle.base_ring.monomial_degree(mon) + bundle.fibre_dimension
                in src_degrees
            )


# ----------------------------------------------------------------------
# projectivizations


def test_projectivize_defining_relation():
    base = Ring(0, [("c1", 2), ("c2", 4)])
    bundle = projectivize(base, ["c1", "c2"])
    total = bundle.total_ring
    t = total.gen("t")
    c1 = total.gen("c1")
    c2 = total.gen("c2")
    assert t * t == -(c1 * t) - c2
    assert bundle.fibre_dimension == 2


def test_projectivize_gysin_normalization():
    base = Ring(0, [("c1", 2), ("c2", 4), ("c3", 6)])
    bundle = projectivize(base, ["c1", "c2", "c3"])
    total = bundle.total_ring
    t = total.gen("t")
    assert bundle.gysin(t * t) == bundle.base_ring.one()
    assert bundle.gysin(t).is_zero()
    # t^3 reduces; its pushforward is a base class of degree 2
    assert bundle.gysin(t ** 3) == -bundle.base_ring.gen("c1")


def test_projectivize_over_trivial_chern_classes():
    # trivial rank-2 bundle over a point: total space is CP^1
    base = Ring(0, [])
    bundle = projectivize(base, [0, 0])
    total = bundle.total_ring
    t = total.gen("t")
    assert (t * t).is_zero()
    assert bundle.vertical_euler == t * 2
    assert kappa(bundle, "e") == base.one() * 2


def test_projectivize_vertical_euler_is_top_chern():
    base = Ring(0, [("c1", 2), ("c2", 4)])
    bundle = projectivize(base, ["c1", "c2"])
    total = bundle.total_ring
    t = total.gen("t")
    c1 = total.gen("c1")
    # rank 2: vertical tangent is a line bundle with e = 2t + c1
    assert bundle.vertical_euler == t * 2 + c1


def test_projectivize_keeps_base_relations():
    base = cp(2)
    bundle = projectivize(base, [base.ring.gen("h"), base.ring.gen("h") ** 2])
    total = bundle.total_ring
    h = total.gen("h")
    assert (h ** 3).is_zero()
    pushed = bundle.gysin(total.gen("t") * h)
    assert pushed == base.ring.gen("h")


def test_projectivize_validation():
    base = Ring(0, [("c1", 2), ("c2", 4)])
    with pytest.raises(ValueError):
        projectivize(base, ["c1"])
    with pytest.raises(ValueError):
        projectivize(base, ["c2", "c2"])
    with pytest.raises(ValueError):
        projectivize(base, ["c1", "c2"], twist="c1")
    char2 = Ring(2, [("w2", 2)])
    with pytest.raises(ValueError):
        projectivize(char2, ["w2", "w2"])


def test_projectivize_twist_rename():
    base = Ring(0, [("t", 2)])
    bundle = projectivize(base, ["t", "t^2"], twist="s")
    assert bundle.total_ring.names == ("t", "s")


# ----------------------------------------------------------------------
# projection formula


def test_projection_formula_random_instances():
    rng = random.Random(1234)
    base_ring = Ring(0, [("c1", 2), ("c2", 4)])
    bundles = [
        product_bundle(sphere(12), hp(2)),
        projectivize(base_ring, ["c1", "c2"]),
    ]
    for i in range(200):
        bundle = bundles[i % 2]
        a = random_poly(rng, bundle.base_ring)
        x = random_poly(rng, bundle.total_ring)
        assert bundle.gysin(bundle.pullback(a) * x) == a * bundle.gysin(x)


# ----------------------------------------------------------------------
# kappa classes


def test_kappa_euler_is_fibre_euler_characteristic():
    for fibre, chi in [(cp(1), 2), (cp(2), 3), (hp(2), 3), (sphere(12), 2)]:
        bundle = product_bundle(hp(2, gen="b"), fibre)
        assert kappa(bundle, "e") == bundle.base_ring.one() * chi
    base = Ring(0, [("c1", 2), ("c2", 4), ("c3", 6)])
    for rank in (2, 3):
        bundle = projectivize(base, [f"c{i}" for i in range(1, rank + 1)])
        assert kappa(bundle, "e") == base.one() * rank


def test_kappa_powers_of_euler_rank_two():
    base = Ring(0, [("c1", 2), ("c2", 4)])
    bundle = projectivize(base, ["c1", "c2"])
    assert kappa(bundle, "e^2").is_zero()
    value = kappa(bundle, "e^3")
    assert value == base.poly("2*c1^2 - 8*c2")
    assert str(value) == "2*c1^2 - 8*c2"


def test_kappa_euler_cubed_hand_expansion():
    # e(T_v) = 2t + c1 and t^2 = -(c1 t + c2); cubing by hand:
    # (2t+c1)^2 = c1^2 - 4 c2, so e^3 = (c1^2 - 4 c2)(2t + c1) and the
    # t-coefficient is 2(c1^2 - 4 c2)
    base = Ring(0, [("c1", 2), ("c2", 4)])
    bundle = projectivize(base, ["c1", "c2"])
    e = bundle.vertical_euler
    total = bundle.total_ring
    c1 = total.gen("c1")
    c2 = total.gen("c2")
    assert e * e == c1 * c1 - c2 * 4
    assert bundle.gysin(e ** 3) == kappa(bundle, "e^3")


def test_kappa_of_product_bundles_vanishes_in_positive_degree():
    bundle = product_bundle(sphere(12), hp(2))
    for cls in ["p1", "p2^2", "e*p1", "p1*p2", "e^2", "e^3"]:
        value = kappa(bundle, cls)
        assert value.is_zero(), f"kappa({cls}) = {value}"
    # the dimension-matching monomials integrate to characteristic numbers
    assert kappa(bundle, "p2") == bundle.base_ring.one() * 7
    assert kappa(bundle, "p1^2") == bundle.base_ring.one() * 4
    assert kappa(bundle, "e^2") .is_zero()


def test_kappa_rejects_bad_monomials():
    bundle = product_bundle(sphere(12), hp(2))
    with pytest.raises(ValueError):
        kappa(bundle, "q3")
    assert kappa(bundle, "e + p1") == kappa(bundle, "e") + kappa(bundle, "p1")
    with pytest.raises(ValueError):
        kappa(bundle, "w2")
    with pytest.raises(ValueError):
        kappa(bundle, "p0")
    # p_i needs 2i <= d = 8
    with pytest.raises(ValueError):
        kappa(bundle, "p5")


def test_kappa_is_linear_in_the_class():
    base = Ring(0, [("c1", 2), ("c2", 4), ("c3", 6)])
    bundle = projectivize(base, ["c1", "c2", "c3"])
    assert kappa(bundle, "e^3 + 2*e*p1") == (
        kappa(bundle, "e^3") + kappa(bundle, "e*p1") * 2
    )
    assert kappa(bundle, "-1/3*p1^2 + p2") == (
        kappa(bundle, "p2") - kappa(bundle, "p1^2") * Fraction(1, 3)
    )
    assert kappa(bundle, "e^2 - e^2").is_zero()


def test_kappa_over_a_point_fibre():
    # e of a zero-dimensional fibre sits in degree 0, where no ring
    # generator may; gysin of 1 is then 1
    bundle = product_bundle(hp(2), point())
    assert kappa(bundle, "e") == bundle.base_ring.one()
    assert kappa(bundle, "3*e^2") == bundle.base_ring.one() * 3
    with pytest.raises(ValueError):
        kappa(bundle, "p1")


def test_kappa_rejects_odd_characteristic():
    doc = space_to_document(point(2))
    doc["characteristic"] = 3
    del doc["total_w"]
    base = space_from_document(doc)
    bundle = product_bundle(base, base)
    for cls in ("e", "w1", "1"):
        with pytest.raises(ValueError, match="characteristic 3"):
            kappa(bundle, cls)


def test_kappa_class_ring_holds_only_the_named_classes(monkeypatch):
    # a fibre of dimension 10^6 has 10^6 Stiefel-Whitney classes; a class
    # that names one of them must not build a ring on all of them
    d = 10**6
    ring = Ring(2, [("a", 1)], [(("a", d + 1), 0)])
    a = ring.gen("a")
    fibre = SpaceModel(ring=ring, dimension=d, fundamental=(d,),
                       total_p=ring.one(), euler=a ** d, total_w=ring.one() + a)
    bundle = product_bundle(point(2), fibre)
    built = []

    def spy(characteristic, generators, *rest):
        built.append(list(generators))
        return Ring(characteristic, built[-1], *rest)

    monkeypatch.setattr(bundles, "Ring", spy)
    assert kappa(bundle, f"w1^{d}") == bundle.base_ring.one()
    assert kappa(bundle, f"w{d} + w1 - w1").is_zero()
    with pytest.raises(ValueError, match=f"unknown generator 'w{d + 1}'"):
        kappa(bundle, f"w{d + 1}")
    assert built == [[("w1", 1)], [("w1", 1), (f"w{d}", d)], []]


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_kappa_of_l_classes_is_the_fibre_signature(rank):
    # family signature theorem: on a bundle whose fibre cohomology is a
    # trivial local system, kappa of L_i is sign(F) for 4i = d and 0 above
    base = Ring(0, [(f"c{i}", 2 * i) for i in range(1, rank + 1)])
    bundle = projectivize(base, [f"c{i}" for i in range(1, rank + 1)])
    d = bundle.fibre_dimension
    signature = 1 if rank % 2 == 1 else 0  # sign(CP^(rank-1))
    for i in range(1, d // 2 + 1):
        value = kappa(bundle, str(l_sequence().k_polynomial(i)))
        assert value == base.one() * (signature if 4 * i == d else 0), i


def test_kappa_of_l_class_on_a_product_bundle():
    bundle = product_bundle(sphere(12), hp(2))
    assert kappa(bundle, str(l_sequence().k_polynomial(2))) == bundle.base_ring.one()


def test_kappa_of_ahat_class_is_not_a_signature():
    # CP^2 is not spin: its Ahat genus -1/8 is no integer, let alone 0
    base = Ring(0, [("c1", 2), ("c2", 4), ("c3", 6)])
    bundle = projectivize(base, ["c1", "c2", "c3"])
    value = kappa(bundle, str(ahat_sequence().k_polynomial(1)))
    assert value == base.one() * Fraction(-1, 8)


def test_kappa_stiefel_whitney_in_characteristic_two():
    base = point(2)
    fibre_ring = Ring(2, [("a", 1)], [(("a", 3), 0)])
    a = fibre_ring.gen("a")
    fibre = SpaceModel(
        ring=fibre_ring,
        dimension=2,
        fundamental=fibre_ring.monomial("a^2"),
        total_p=fibre_ring.one(),
        euler=a * a,
        total_w=fibre_ring.poly("1 + a + a^2"),
    )
    bundle = product_bundle(base, fibre)
    assert kappa(bundle, "w2") == base.ring.one()
    assert kappa(bundle, "w1^2") == base.ring.one()
    assert kappa(bundle, "w1").is_zero()
    with pytest.raises(ValueError):
        kappa(bundle, "w3")


def test_kappa_stiefel_whitney_polynomials():
    # RP^2 fibre: w = 1 + a + a^2, so w2 + w1^2 = 2*a^2 = 0 mod 2
    ring = Ring(2, [("a", 1)], [(("a", 3), 0)])
    a = ring.gen("a")
    data = dict(ring=ring, dimension=2, fundamental=ring.monomial("a^2"),
                total_p=ring.one(), euler=a * a)
    fibre = SpaceModel(**data, total_w=ring.poly("1 + a + a^2"))
    bundle = product_bundle(point(2), fibre)
    assert kappa(bundle, "w2 + w1^2").is_zero()
    assert kappa(bundle, "w2 + w1") == bundle.base_ring.one()
    # a fibre without Stiefel-Whitney data has none to evaluate
    bare = product_bundle(point(2), SpaceModel(**data))
    with pytest.raises(ValueError, match="no Stiefel-Whitney data"):
        kappa(bare, "w2")


def test_kappa_reads_each_vertical_class_in_one_pass(monkeypatch):
    # the class names four degrees of total_w; one scan picks all four
    ring = Ring(2, [("a", 1)], [(("a", 5), 0)])
    a = ring.gen("a")
    fibre = SpaceModel(ring=ring, dimension=4, fundamental=ring.monomial("a^4"),
                       total_p=ring.one(), euler=a ** 4,
                       total_w=ring.poly("1 + a + a^2 + a^4"))
    bundle = product_bundle(point(2), fibre)
    passes = []
    scan = GradedPoly.graded_components

    def counted(self, degrees):
        passes.append(list(degrees))
        return scan(self, passes[-1])

    monkeypatch.setattr(GradedPoly, "graded_components", counted)
    # w1^2*w2 = a^4, w1*w3 = 0 and w2*w4 = a^6 = 0
    assert kappa(bundle, "w1^2*w2 + w1*w3 + w2*w4") == bundle.base_ring.one()
    assert passes == [[1, 2, 3, 4]]


def test_kappa_vertical_chern_top_component_vanishes_above_fibre():
    # the vertical total Chern class of a rank-k projectivization stops at
    # the fibre dimension: its degree-2k component reduces to zero
    base = Ring(0, [("c1", 2), ("c2", 4)])
    bundle = projectivize(base, ["c1", "c2"])
    e = bundle.vertical_euler
    t = bundle.total_ring.gen("t")
    c1 = bundle.total_ring.gen("c1")
    c2 = bundle.total_ring.gen("c2")
    # c(T_v) = (1+t)^2 + c1 (1+t) + c2 has degree-4 part t^2 + c1 t + c2 = 0
    degree_four = (
        t * t + c1 * t + c2
    )
    assert degree_four.is_zero()
