"""Space models, integration, Chern-to-Pontryagin, classifying presentations."""

from fractions import Fraction

import pytest

from charclasses.bundles import product_bundle, projectivize
from charclasses.genus import ahat_sequence, evaluate_genus, l_sequence
from charclasses.rings import Ring
from charclasses.scalars import PrimeScalar
from charclasses.spaces import (
    SpaceModel,
    bso_presentation,
    chern_to_pontryagin,
    cp,
    hp,
    integrate,
    point,
    product_space,
    sphere,
)


# ----------------------------------------------------------------------
# model validation


def test_space_model_validates_fundamental_degree():
    ring = Ring(0, [("y", 4)], [("y^3", "0")])
    with pytest.raises(ValueError):
        SpaceModel(
            ring=ring,
            dimension=8,
            fundamental=ring.monomial("y"),
            total_p=ring.one(),
            euler=ring.zero(),
        )


def test_space_model_validates_total_p_unit():
    ring = Ring(0, [("y", 4)], [("y^3", "0")])
    with pytest.raises(ValueError):
        SpaceModel(
            ring=ring,
            dimension=8,
            fundamental=ring.monomial("y^2"),
            total_p=ring.gen("y"),
            euler=ring.zero(),
        )


def test_space_model_rejects_total_p_off_multiples_of_four():
    ring = Ring(0, [("h", 2)], [("h^3", "0")])
    with pytest.raises(ValueError, match="degree 2, not a multiple of 4"):
        SpaceModel(
            ring=ring,
            dimension=4,
            fundamental=ring.monomial("h^2"),
            total_p=ring.poly("1 + 5*h + 3*h^2"),
            euler=ring.zero(),
        )


def test_space_model_validates_euler_degree():
    ring = Ring(0, [("y", 4)], [("y^3", "0")])
    with pytest.raises(ValueError):
        SpaceModel(
            ring=ring,
            dimension=8,
            fundamental=ring.monomial("y^2"),
            total_p=ring.one(),
            euler=ring.gen("y"),
        )


def test_space_model_rejects_stiefel_whitney_outside_char_two():
    ring = Ring(0, [("y", 4)], [("y^3", "0")])
    with pytest.raises(ValueError):
        SpaceModel(
            ring=ring,
            dimension=8,
            fundamental=ring.monomial("y^2"),
            total_p=ring.one(),
            euler=ring.zero(),
            total_w=ring.one(),
        )


def family(base, ring):
    """A family over ``base`` with total ring ``ring``, whose last
    generator x of degree 2 is the fibre's."""
    return SpaceModel(ring=ring, dimension=2, fundamental=(1,), total_p=ring.one(),
                      euler=ring.gen("x"), base_ring=base)


def test_space_model_checks_its_base_once_when_built():
    # y^5 = 0 in the total ring but y^2 = 0 in the base, so the coefficient
    # of x in y^3*x would be a nonzero base class that is 0 in the base
    base = Ring(0, [("y", 4)], [("y^2", "0")])
    with pytest.raises(ValueError, match=r"base ring Ring\(char 0; y\(4\); 1 rules\) has "
                                         "other rules"):
        family(base, Ring(0, [("y", 4), ("x", 2)], [("y^5", "0"), ("x^2", "0")]))
    bad_totals = (
        Ring(0, [("y", 4), ("x", 2)], [("y^3", "0"), ("x^2", "0")]),  # a weaker rule
        Ring(0, [("y", 4), ("x", 2)], [("x^2", "0")]),  # no rule
        Ring(0, [("y", 4), ("z", 8), ("x", 2)],  # another right-hand side
             [("y^2", "z"), ("z^2", "0"), ("x^2", "0")]),
    )
    for ring in bad_totals:
        with pytest.raises(ValueError, match="other rules"):
            family(base, ring)
    total = Ring(0, [("y", 4), ("x", 2)], [("y^2", "0"), ("x^2", "0")])
    with pytest.raises(ValueError, match="with its characteristic, generators and degrees"):
        family(Ring(0, [("y", 8)], [("y^2", "0")]), total)
    with pytest.raises(ValueError, match="with its characteristic, generators and degrees"):
        family(Ring(0, [("x", 2)]), total)
    with pytest.raises(ValueError, match="with its characteristic, generators and degrees"):
        family(Ring(3, [("y", 4)], [("y^2", "0")]), total)
    assert family(base, total).gysin(total.poly("y*x + 3*x + y")) == base.poly("y + 3")


def test_gysin_over_a_base_rule_with_a_nonzero_right_hand_side():
    # z^2 -> y*z and y^3 -> 0 in the base; the pushforward is in its normal form
    base_ring = Ring(0, [("y", 4), ("z", 4)], [("z^2", "y*z"), ("y^3", "0")])
    total = Ring(0, [("y", 4), ("z", 4), ("x", 2)],
                 [("z^2", "y*z"), ("y^3", "0"), ("x^2", "0")])
    bundle = family(base_ring, total)
    pushed = bundle.gysin(total.poly("z^3*x + 2*z*x - y^2*x + x^2"))
    assert pushed.ring is base_ring
    assert pushed == base_ring.poly("z^3 + 2*z - y^2")
    assert str(pushed) == "y^2*z - y^2 + 2*z"


# ----------------------------------------------------------------------
# built-in models


def test_point_model():
    pt = point()
    assert pt.dimension == 0
    assert integrate(pt, pt.ring.one()) == 1
    pt2 = point(2)
    assert pt2.ring.characteristic == 2
    assert pt2.total_w == pt2.ring.one()


def test_sphere_model():
    s = sphere(12)
    assert s.dimension == 12
    assert s.total_p == s.ring.one()
    assert integrate(s, s.euler) == 2
    assert (s.ring.gen("x") ** 2).is_zero()


def test_odd_spheres_are_rejected():
    with pytest.raises(ValueError):
        sphere(3)
    with pytest.raises(ValueError):
        sphere(0)


def test_sphere_generator_rename():
    s = sphere(4, gen="u")
    assert s.ring.names == ("u",)
    assert integrate(s, s.euler) == 2


def test_cp_models():
    plane = cp(2)
    assert plane.dimension == 4
    assert plane.total_p == plane.ring.poly("1 + 3*h^2")
    assert integrate(plane, plane.euler) == 3
    line = cp(1)
    assert line.total_p == line.ring.one()
    assert integrate(line, line.euler) == 2
    three = cp(3)
    assert three.total_p == three.ring.poly("1 + 4*h^2")
    assert integrate(three, three.euler) == 4
    with pytest.raises(ValueError):
        cp(0)


def test_hp_models():
    plane = hp(2)
    assert plane.dimension == 8
    assert plane.total_p == plane.ring.poly("1 + 2*y + 7*y^2")
    assert plane.euler == plane.ring.poly("3*y^2")
    assert integrate(plane, plane.euler) == 3
    four_sphere = hp(1)
    assert four_sphere.total_p == four_sphere.ring.one()
    assert integrate(four_sphere, four_sphere.euler) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_hp_models_have_their_characteristic_numbers(n):
    space = hp(n)
    y = space.ring.gen("y")
    assert space.dimension == 4 * n
    assert integrate(space, space.euler) == n + 1
    assert evaluate_genus(space, l_sequence()) == (1 + (-1) ** n) // 2
    assert evaluate_genus(space, ahat_sequence()) == 0
    assert space.total_p.graded_component(4) == y * (2 * (n - 1))


def test_hp_rejects_n_below_one():
    with pytest.raises(ValueError):
        hp(0)


# ----------------------------------------------------------------------
# integration and products


def test_integrate_reads_fundamental_coefficient():
    plane = hp(2)
    y = plane.ring.gen("y")
    assert integrate(plane, y * y * Fraction(7, 3)) == Fraction(7, 3)
    assert integrate(plane, y) == 0
    assert integrate(plane, plane.ring.one()) == 0


def test_integrate_rejects_a_family_over_a_base():
    bundle = projectivize(cp(2), ["3*h", "3*h^2"])
    with pytest.raises(ValueError, match="closed manifold"):
        integrate(bundle, bundle.ring.gen("t"))


def test_product_space_kunneth():
    total = product_space(sphere(12), hp(2))
    assert total.dimension == 20
    assert total.ring.names == ("x", "y")
    assert integrate(total, total.euler) == 6
    x = total.ring.gen("x")
    y = total.ring.gen("y")
    assert integrate(total, x * y * y) == 1
    assert integrate(total, x * y) == 0
    assert total.total_p == total.ring.poly("1 + 2*y + 7*y^2")


def test_product_space_fundamental_is_tensor_of_factors():
    total = product_space(cp(2), cp(2, gen="k"))
    assert total.fundamental == total.ring.monomial("h^2*k^2")
    assert integrate(total, total.ring.poly("h^2*k^2")) == 1


def test_product_space_rejects_a_family_over_a_base():
    bundle = product_bundle(sphere(12), hp(2))
    with pytest.raises(ValueError, match="closed manifold"):
        product_space(bundle, cp(2))
    with pytest.raises(ValueError, match="closed manifold"):
        product_space(cp(2), bundle)


def rp(n, gen):
    """RP^n over F_2, n even: a in degree 1 with a^(n+1) = 0, and
    w = (1 + a)^(n+1)."""
    ring = Ring(2, [(gen, 1)], [((gen, n + 1), 0)])
    a = ring.gen(gen)
    return SpaceModel(ring=ring, dimension=n, fundamental=(n,), total_p=ring.one(),
                      euler=a ** n, total_w=(ring.one() + a) ** (n + 1))


def test_product_space_of_two_characteristic_2_spaces_multiplies_w():
    total = product_space(rp(2, "a"), rp(4, "b"))
    ring = total.ring
    assert total.total_w == ring.poly("1 + a + a^2") * ring.poly("1 + b + b^4")
    assert integrate(total, total.total_w.graded_component(6)) == PrimeScalar(1, 2)
    assert integrate(total, total.euler) == PrimeScalar(1, 2)


def test_product_space_name_collision():
    with pytest.raises(ValueError):
        product_space(cp(2), cp(3))
    renamed = product_space(cp(2), cp(3, gen="k"))
    assert renamed.ring.names == ("h", "k")


# ----------------------------------------------------------------------
# Chern to Pontryagin


def test_chern_to_pontryagin_projective_planes():
    ring = Ring(0, [("h", 2)], [("h^3", "0")])
    h = ring.gen("h")
    total_c = (ring.one() + h) ** 3
    assert chern_to_pontryagin(total_c) == ring.poly("1 + 3*h^2")


def test_chern_to_pontryagin_rank_two_generic():
    ring = Ring(0, [("c1", 2), ("c2", 4)])
    total_c = ring.poly("1 + c1 + c2")
    # p_1 = c_1^2 - 2 c_2, p_2 = c_2^2
    expected = ring.poly("1 + c1^2 - 2*c2 + c2^2")
    assert chern_to_pontryagin(total_c) == expected


def test_chern_to_pontryagin_validation():
    ring = Ring(0, [("c1", 2)])
    with pytest.raises(ValueError):
        chern_to_pontryagin(ring.gen("c1"))
    char2 = Ring(2, [("w2", 2)])
    with pytest.raises(ValueError):
        chern_to_pontryagin(char2.one())


# ----------------------------------------------------------------------
# classifying-space presentations


def test_bso_even_dimension():
    ring = bso_presentation(4)
    assert ring.names == ("e", "p1", "p2")
    assert ring.degrees == (4, 4, 8)
    e = ring.gen("e")
    assert e * e == ring.gen("p2")
    assert e ** 4 == ring.gen("p2") ** 2


def test_bso_euler_relation_squares_to_top_pontryagin():
    for dimension in (2, 4, 6, 8):
        ring = bso_presentation(dimension)
        m = dimension // 2
        e = ring.gen("e")
        assert e * e == ring.gen(f"p{m}")


def test_bso_without_euler_relation():
    ring = bso_presentation(4, euler_relation=False)
    assert ring.names == ("e", "p1", "p2")
    assert not ring.rules
    e = ring.gen("e")
    assert e * e != ring.gen("p2")


def test_bso_odd_dimension():
    ring = bso_presentation(5)
    assert ring.names == ("p1", "p2")
    assert ring.degrees == (4, 8)
    assert not ring.rules


def test_bso_characteristic_two():
    ring = bso_presentation(5, 2)
    assert ring.names == ("w2", "w3", "w4", "w5")
    assert ring.degrees == (2, 3, 4, 5)
    assert ring.characteristic == 2
    assert not ring.rules


def test_bso_validation():
    with pytest.raises(ValueError):
        bso_presentation(0)
    with pytest.raises(ValueError):
        bso_presentation(4, 5)
