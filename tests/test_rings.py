"""Ring presentations, normal forms, arithmetic laws, parse/print."""

import random
from fractions import Fraction

import pytest

from charclasses.rings import GradedPoly, Ring, tensor_ring, transport
from charclasses.scalars import PrimeScalar


def free_ring():
    return Ring(0, [("a", 2), ("b", 2), ("c", 4)])


def quotient_ring():
    # two rules with interleaved reducibility so confluence is exercised
    return Ring(0, [("a", 2), ("b", 2), ("c", 4)], [("a^2", "c"), ("b^3", "a*c")])


def random_poly(rng, ring, max_exp=3, n_terms=4):
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        mon = tuple(rng.randint(0, max_exp) for _ in ring.names)
        terms[mon] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    return ring.poly(terms)


# ----------------------------------------------------------------------
# construction and validation


def test_characteristic_validation():
    Ring(0, [("x", 2)])
    Ring(7, [("x", 2)])
    with pytest.raises(ValueError):
        Ring(-1, [("x", 2)])
    with pytest.raises(ValueError):
        Ring(6, [("x", 2)])


def test_odd_degree_needs_characteristic_two():
    with pytest.raises(ValueError):
        Ring(0, [("w3", 3)])
    with pytest.raises(ValueError):
        Ring(5, [("w3", 3)])
    ring = Ring(2, [("w2", 2), ("w3", 3)])
    assert ring.degrees == (2, 3)


def test_generator_validation():
    with pytest.raises(ValueError):
        Ring(0, [("x", 0)])
    with pytest.raises(ValueError):
        Ring(0, [("x", -2)])
    with pytest.raises(ValueError):
        Ring(0, [("x", 2), ("x", 4)])


def test_rule_validation():
    with pytest.raises(ValueError):
        Ring(0, [("x", 2)], [("x^1", "0")])
    with pytest.raises(ValueError):
        Ring(0, [("x", 2)], [("y^2", "0")])
    with pytest.raises(ValueError):
        Ring(0, [("x", 2)], [("x^2", "0"), ("x^3", "0")])
    # inhomogeneous rhs: x^2 has degree 4, rhs degree 2
    with pytest.raises(ValueError):
        Ring(0, [("x", 2), ("y", 2)], [("x^2", "y")])
    # rhs reducible by another rule
    with pytest.raises(ValueError):
        Ring(
            0,
            [("x", 2), ("y", 2)],
            [("x^2", "y^2"), ("y^2", "x*y")],
        )
    # rhs reducible by the rule itself
    with pytest.raises(ValueError):
        Ring(0, [("x", 2)], [("x^2", "x^2")])


def test_ring_structural_equality():
    r1 = quotient_ring()
    r2 = quotient_ring()
    assert r1 == r2
    assert r1 != free_ring()
    # polynomials built in equal rings interoperate
    assert r1.gen("a") + r2.gen("a") == r1.gen("a") * 2


# ----------------------------------------------------------------------
# normal form


def test_single_rule_reduction():
    ring = Ring(0, [("x", 12), ("y", 4)], [("x^2", "0"), ("y^3", "0")])
    x = ring.gen("x")
    y = ring.gen("y")
    assert (x + y * y) * x == x * y * y
    assert str((x + y * y) * x) == "x*y^2"
    assert (x * x).is_zero()
    assert (y ** 3).is_zero()
    assert (y ** 2) * y == ring.zero()


def test_hand_expansion_rank_two():
    # rule t^2 -> -(c1 t + c2); then (2t + c1)^2 reduces to c1^2 - 4 c2
    ring = Ring(
        0,
        [("c1", 2), ("c2", 4), ("t", 2)],
        [(("t", 2), "-1*c1*t - c2")],
    )
    t = ring.gen("t")
    c1 = ring.gen("c1")
    c2 = ring.gen("c2")
    value = (t * 2 + c1) ** 2
    assert value == c1 * c1 - c2 * 4
    assert str(value) == "c1^2 - 4*c2"


def test_normal_form_idempotent_on_random_polys():
    rng = random.Random(11)
    ring = quotient_ring()
    for _ in range(300):
        p = random_poly(rng, ring)
        assert ring.poly(dict(p.terms)) == p
        for mon in p.terms:
            assert all(
                mon[i] < k for i, (k, _) in ring.rules.items()
            ), f"unreduced monomial {mon} survived"


def test_confluence_under_randomized_rule_choice():
    rng = random.Random(23)
    ring = quotient_ring()
    for trial in range(200):
        raw = {
            tuple(rng.randint(0, 4) for _ in ring.names): Fraction(
                rng.randint(-5, 5), rng.randint(1, 3)
            )
            for _ in range(rng.randint(1, 5))
        }
        pick = rng.randrange(10**9)
        scrambled = ring.normal_form_terms(
            raw, choose=lambda app, s=pick: (s % 7919) % len(app)
        )
        default = ring.normal_form_terms(raw)
        assert scrambled == default, f"trial {trial} diverged"


def test_rounds_merge_like_terms_before_rewriting():
    # x^20 under x^2 -> x*a + a^2 reaches x^(20-j)*a^j along many paths;
    # merged per round, 100 rewrites remain, where one term at a time
    # fires F(21) - 1 = 10945 times
    ring = Ring(0, [("x", 2), ("a", 2)], [("x^2", "x*a + a^2")])
    calls = []
    out = ring.normal_form_terms(
        {(20, 0): 1}, choose=lambda applicable: calls.append(applicable) or 0
    )
    assert len(calls) == 100
    x = ring.gen("x")
    product = ring.one()
    for _ in range(20):
        product = product * x
    assert ring.poly(out) == product


# ----------------------------------------------------------------------
# arithmetic laws


def test_ring_axioms_on_random_polys():
    rng = random.Random(42)
    for ring in (free_ring(), quotient_ring()):
        for _ in range(150):
            f = random_poly(rng, ring)
            g = random_poly(rng, ring)
            h = random_poly(rng, ring)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + ring.zero() == f
            assert f * ring.one() == f
            assert f - f == ring.zero()
            assert f * ring.zero() == ring.zero()


def test_degree_additivity_for_homogeneous_polys():
    rng = random.Random(5)
    ring = quotient_ring()
    for _ in range(200):
        f = random_poly(rng, ring).graded_component(rng.choice([2, 4, 6]))
        g = random_poly(rng, ring).graded_component(rng.choice([2, 4, 6]))
        if f.is_zero() or g.is_zero():
            continue
        product = f * g
        if not product.is_zero():
            assert product.degree() == f.degree() + g.degree()
            assert product.is_homogeneous()


def test_char_two_arithmetic():
    ring = Ring(2, [("w2", 2), ("w3", 3)])
    w2 = ring.gen("w2")
    w3 = ring.gen("w3")
    assert (w2 + w2).is_zero()
    assert (w2 + w3) ** 2 == w2 ** 2 + w3 ** 2
    assert str(w3 * w2 + w3) == "w2*w3 + w3"


def test_pow_equals_repeated_product():
    rng = random.Random(9)
    char_two = Ring(2, [("w1", 1), ("w2", 2), ("w3", 3)], [("w1^3", "w3")])
    for ring in (free_ring(), quotient_ring(), char_two):
        for _ in range(5):
            terms = {
                tuple(rng.randint(0, 2) for _ in ring.names): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 3))
            }
            f = ring.poly(terms)
            product = ring.one()
            for n in range(10):
                assert f ** n == product, (str(f), n)
                product = product * f


def test_pow_validation():
    ring = free_ring()
    with pytest.raises(ValueError):
        ring.gen("a") ** -1
    assert ring.gen("a") ** 0 == ring.one()


def test_cross_ring_operations_rejected():
    with pytest.raises(ValueError):
        free_ring().gen("a") + quotient_ring().gen("a")
    with pytest.raises(ValueError):
        quotient_ring().poly(free_ring().gen("a"))


def test_scalar_coercion_rules():
    ring = free_ring()
    a = ring.gen("a")
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    with pytest.raises(TypeError):
        a * 0.5
    mod5 = Ring(5, [("x", 2)])
    x = mod5.gen("x")
    assert x * 5 == mod5.zero()
    assert x * PrimeScalar(2, 5) == x + x
    with pytest.raises(ValueError):
        x * PrimeScalar(2, 7)
    with pytest.raises(TypeError):
        x * Fraction(1, 2)


# ----------------------------------------------------------------------
# queries


def test_degree_and_components():
    ring = free_ring()
    f = ring.poly("3*a^2 + b*c - 1/2*a")
    assert f.degree() == 6
    assert ring.zero().degree() is None
    assert f.graded_component(4) == ring.poly("3*a^2")
    assert f.graded_component(6) == ring.poly("b*c")
    assert f.graded_component(8).is_zero()
    assert f.truncate(4) == ring.poly("3*a^2 - 1/2*a")
    assert not f.is_homogeneous()
    assert ring.poly("a*b + c").is_homogeneous(4)
    assert ring.zero().is_homogeneous()
    assert ring.zero().is_homogeneous(10)


def test_constant_term_and_coefficient():
    ring = free_ring()
    f = ring.poly("5 - 2/3*a*b + c")
    assert f.constant_term() == 5
    assert f.coefficient("a*b") == Fraction(-2, 3)
    assert f.coefficient("c") == 1
    assert f.coefficient("a^2") == 0
    assert f.coefficient((1, 1, 0)) == Fraction(-2, 3)
    with pytest.raises(ValueError):
        f.coefficient("a + b")
    with pytest.raises(ValueError):
        f.coefficient("2*a")


def test_inverse_unit_in_truncated_ring():
    ring = Ring(0, [("y", 4)], [("y^3", "0")])
    f = ring.poly("1 - 2*y - 3*y^2")
    g = f.inverse_unit(8)
    assert f * g == ring.one()
    assert g == ring.poly("1 + 2*y + 7*y^2")


def test_inverse_unit_geometric_series():
    ring = Ring(0, [("p1", 4)])
    f = ring.one() + ring.gen("p1")
    g = f.inverse_unit(12)
    assert g == ring.poly("1 - p1 + p1^2 - p1^3")
    assert (f * g).truncate(12) == ring.one()
    with pytest.raises(ValueError):
        ring.gen("p1").inverse_unit(8)


def test_substitute():
    src = Ring(0, [("p1", 4), ("p2", 8)])
    dst = Ring(0, [("y", 4)], [("y^3", "0")])
    y = dst.gen("y")
    f = src.poly("7/45*p2 - 1/45*p1^2")
    image = f.substitute({"p1": y * 2, "p2": y * y * 7}, dst)
    assert image == dst.poly("1*y^2")
    with pytest.raises(ValueError):
        f.substitute({"p1": y}, dst)
    with pytest.raises(ValueError):
        f.substitute({"p1": y, "p2": y * y, "q": y}, dst)


def test_evaluate_scalars():
    ring = free_ring()
    f = ring.poly("a^2*b - 3*c")
    value = f.evaluate_scalars(
        {"a": Fraction(2), "b": Fraction(1, 2), "c": Fraction(5)}
    )
    assert value == Fraction(2) ** 2 * Fraction(1, 2) - 15
    with pytest.raises(ValueError):
        f.evaluate_scalars({"a": Fraction(1)})


# ----------------------------------------------------------------------
# parse and print


def test_print_canonical_order_and_signs():
    ring = Ring(0, [("p2", 8), ("p1", 4)])
    f = ring.poly("-1/45*p1^2 + 7/45*p2")
    assert str(f) == "7/45*p2 - 1/45*p1^2"
    assert str(ring.zero()) == "0"
    assert str(ring.one()) == "1"
    assert str(-ring.one()) == "-1"
    assert str(ring.gen("p1") - 1) == "p1 - 1"
    assert str(ring.poly("-p1")) == "-p1"
    assert str(ring.poly("2*p1^3")) == "2*p1^3"


def test_parse_print_round_trip_random():
    rng = random.Random(99)
    rings = [
        free_ring(),
        quotient_ring(),
        Ring(2, [("w2", 2), ("w3", 3)]),
        Ring(7, [("u", 2), ("v", 4)]),
    ]
    for ring in rings:
        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mon = tuple(rng.randint(0, 2) for _ in ring.names)
                if ring.characteristic == 0:
                    coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                else:
                    coeff = rng.randint(-9, 9)
                terms[mon] = coeff
            p = ring.poly(terms)
            assert ring.poly(str(p)) == p


def test_parse_errors():
    ring = free_ring()
    for bad in ["', '1.5*a", "a +", "a^", "q", "a^b", "3//2*a", "*a", ""]:
        with pytest.raises(ValueError):
            ring.poly(bad)
    mod5 = Ring(5, [("x", 2)])
    with pytest.raises(ValueError):
        mod5.poly("1/2*x")
    assert mod5.poly("3*x") == mod5.gen("x") * 3


def test_parse_accepts_signs_and_implicit_coefficients():
    ring = free_ring()
    assert ring.poly("-a + -b") == -ring.gen("a") - ring.gen("b")
    assert ring.poly("+a") == ring.gen("a")
    assert ring.poly("a*a") == ring.poly("a^2")
    assert ring.poly("2") == ring.one() * 2
    assert ring.poly("a - a").is_zero()


def test_monomial_helper():
    ring = free_ring()
    assert ring.monomial("a*c^2") == (1, 0, 2)
    assert ring.monomial("1") == (0, 0, 0)
    with pytest.raises(ValueError):
        ring.monomial("a + b")
    with pytest.raises(ValueError):
        ring.monomial("3*a")


# ----------------------------------------------------------------------
# tensor and transport


def test_tensor_ring_combines_generators_and_rules():
    left = Ring(0, [("x", 12)], [("x^2", "0")])
    right = Ring(0, [("y", 4)], [("y^3", "0")])
    combined = tensor_ring(left, right)
    assert combined.names == ("x", "y")
    assert combined.degrees == (12, 4)
    x = combined.gen("x")
    y = combined.gen("y")
    assert (x * x).is_zero()
    assert (y ** 3).is_zero()
    assert not (x * y * y).is_zero()
    with pytest.raises(ValueError):
        tensor_ring(left, Ring(0, [("x", 4)]))


def test_transport_matches_names():
    small = Ring(0, [("y", 4)], [("y^3", "0")])
    big = tensor_ring(Ring(0, [("x", 12)], [("x^2", "0")]), small)
    f = small.poly("1 + 2*y + 7*y^2")
    moved = transport(f, big)
    assert moved == big.poly("1 + 2*y + 7*y^2")
    back = transport(moved, small)
    assert back == f
    lossy = big.gen("x") * big.gen("y")
    with pytest.raises(ValueError):
        transport(lossy, small)
