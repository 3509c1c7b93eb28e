"""Ring presentations, normal forms, arithmetic laws, parse/print."""

import copy
import gc
import itertools
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charclasses import rings
from charclasses.bundles import product_bundle, projectivize
from charclasses.rings import MAX_EXPONENT, GradedPoly, Ring, tensor_ring, transport
from charclasses.scalars import PrimeScalar
from charclasses.spaces import cp, hp


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
    # a document would write the degree as true, which it cannot read back
    with pytest.raises(ValueError):
        Ring(2, [("x", True)])
    with pytest.raises(ValueError):
        Ring(0, [("x", 2), ("x", 4)])


@pytest.mark.parametrize("name", ["p-1", "y y", "", "1a", " y", "y^2", "ß"])
def test_generator_names_follow_the_parser(name):
    # "p-1" squared would print as "p-1^2", which parses as p - 1^2
    with pytest.raises(ValueError, match="bad generator name"):
        Ring(0, [(name, 4)])


def test_generator_names_accepted():
    ring = Ring(0, [("_", 2), ("p_1", 4), ("Ab9", 2)])
    f = ring.poly("_^2*p_1 - 3*Ab9")
    assert ring.poly(str(f)) == f


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
    # rules that rewrite into each other: x^2*y -> x*y^2 -> x^2*y -> ...
    with pytest.raises(ValueError, match="'y' and 'x' lie on a cycle"):
        Ring(0, [("x", 2), ("y", 2)], [("x^2", "x*y"), ("y^2", "x*y")])
    # a longer cycle, reached from a rule that is not on it
    with pytest.raises(ValueError, match="cycle"):
        Ring(
            0,
            [("w", 2), ("x", 2), ("y", 2), ("z", 2)],
            [("w^2", "w*x"), ("x^2", "x*y"), ("y^2", "y*z"), ("z^2", "x*z")],
        )
    # a chain of rules that each also lower their own generator is legal
    chain = Ring(0, [("x", 2), ("y", 2), ("z", 2)], [("x^2", "x*y"), ("y^2", "y*z")])
    assert str(chain.poly("x^3")) == "x*y*z"
    # a (name, k) left-hand side needs an int k >= 2: with k = 2.5, x^3
    # printed x^1.5*y^3
    for power in (2.5, True, Fraction(3), "3", 1):
        with pytest.raises(ValueError, match="an int k >= 2"):
            Ring(2, [("x", 2), ("y", 1)], [(("x", power), "x*y^3")])
    # and a k within the exponent bound
    with pytest.raises(ValueError, match=f"exceeds MAX_EXPONENT = {MAX_EXPONENT}"):
        Ring(0, [("x", 2)], [(("x", MAX_EXPONENT + 1), "0")])
    top = Ring(0, [("x", 2)], [(f"x^{MAX_EXPONENT}", "0")])
    assert str(top.poly(f"x^{MAX_EXPONENT - 1}")) == f"x^{MAX_EXPONENT - 1}"
    assert top.gen("x") ** MAX_EXPONENT == 0


def test_a_right_hand_side_divisible_by_a_rule_names_the_first_such_rule():
    gens = [("x", 4), ("y", 2), ("z", 2)]
    for order, named in ((["y^2", "z^2"], "y^2"), (["z^2", "y^2"], "z^2")):
        with pytest.raises(ValueError) as caught:
            Ring(0, gens, [("x^2", "y^2*z^2 + x*y*z")] + [(lhs, "0") for lhs in order])
        assert str(caught.value) == ("right-hand side of rule on 'x' contains a "
                                     f"monomial divisible by {named}")
    with pytest.raises(ValueError) as caught:
        Ring(0, gens, [("y^2", "z^2"), ("x^2", "x*y*z + 1/2*x^2")])
    assert str(caught.value) == ("right-hand side of rule on 'x' contains a "
                                 "monomial divisible by x^2")


def rings_with_rules():
    """A ring over Q whose rule right-hand side has fractions, and one over
    F_7 with a nonzero right-hand side."""
    return [Ring(0, [("x", 2), ("a", 2)], [("x^2", "1/2*x*a + 2/3*a^2")]),
            Ring(7, [("u", 2), ("v", 4)], [("u^3", "3*u*v")])]


@pytest.mark.parametrize("round_trip", [
    copy.copy,
    copy.deepcopy,
    *(lambda r, proto=proto: pickle.loads(pickle.dumps(r, proto)) for proto in range(6)),
], ids=["copy", "deepcopy", *(f"pickle-protocol-{proto}" for proto in range(6))])
def test_rings_and_polynomials_copy_and_pickle(round_trip):
    for ring in rings_with_rules():
        f = ring.poly(f"{ring.names[0]}^4 + 3*{ring.names[1]}")
        again = round_trip(ring)
        assert again == ring and again.rules == ring.rules
        assert again.poly(str(f)) == f and str(again.poly(str(f))) == str(f)
        moved = round_trip(f)
        assert moved == f and str(moved) == str(f)
        assert moved * moved == f * f


def test_a_ring_and_its_polynomials_form_no_reference_cycle():
    # a rule's right-hand side holds no ring, so nothing built here is left
    # for the cyclic collector: dropped, it is freed by reference counts
    def build():
        for ring in rings_with_rules():
            f = ring.poly(f"{ring.names[0]}^5 - {ring.names[1]}")
            assert f * f != 0

    enabled = gc.isenabled()
    build()  # loads what the build imports
    gc.collect()
    gc.disable()
    try:
        build()
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0


def test_ring_structural_equality():
    r1 = quotient_ring()
    r2 = quotient_ring()
    assert r1 == r2
    assert r1 != free_ring()
    # polynomials built in equal rings interoperate
    assert r1.gen("a") + r2.gen("a") == r1.gen("a") * 2


@pytest.mark.parametrize(
    "make",
    [free_ring, lambda: free_ring().gen("a").terms, lambda: free_ring().gen("a")],
    ids=["Ring", "Terms", "GradedPoly"],
)
def test_equality_with_an_unrelated_type_is_false(make):
    value = make()
    assert (value == "a") is False
    assert (value == object()) is False
    assert value != "a"


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
        assert ring.poly(dict(p.items())) == p
        for mon, _ in p.items():
            assert all(
                mon[i] < k for i, (k, _) in ring.rules.items()
            ), f"unreduced monomial {mon} survived"


def test_confluence_under_randomized_rule_choice():
    # the rounds fire the first rule that applies; one term at a time, with
    # random terms and random rules, reaches the same normal form
    rng = random.Random(23)
    ring = quotient_ring()
    spec = (ring.characteristic, list(zip(ring.names, ring.degrees)),
            {i: (k, dict(GradedPoly(ring, rhs).items())) for i, (k, rhs) in ring.rules.items()}, 3)
    for trial in range(200):
        raw = {
            tuple(rng.randint(0, 4) for _ in ring.names): Fraction(
                rng.randint(-5, 5), rng.randint(1, 3)
            )
            for _ in range(rng.randint(1, 5))
        }
        expected = oracle_reduce(spec, raw.items(), pick=rng.choice)
        assert oracle_terms(ring.poly(raw)) == expected, f"trial {trial} diverged"


def test_rounds_merge_like_terms_before_rewriting():
    # x^200 under x^2 -> x*a + a^2 reaches x^(200-j)*a^j along many paths;
    # merged per round, the rewrites number about 200^2/2, where one term
    # at a time would fire about F(201) times.  x^n = F(n)*x*a^(n-1) +
    # F(n-1)*a^n, with F the Fibonacci numbers
    ring = Ring(0, [("x", 2), ("a", 2)], [("x^2", "x*a + a^2")])
    power = ring.poly({(200, 0): 1})
    assert len(power.terms) == 2
    assert power == (ring.gen("x") ** 100) ** 2
    fib = [0, 1]
    while len(fib) <= 200:
        fib.append(fib[-1] + fib[-2])
    assert power.coefficient((1, 199)) == fib[200]
    assert power.coefficient((0, 200)) == fib[199]


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
    for n in (True, False, 2.0):
        with pytest.raises(ValueError, match="nonnegative integers"):
            ring.gen("a") ** n
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


@pytest.mark.parametrize("source", [True, object()], ids=["bool", "object"])
def test_poly_rejects_a_source_of_another_type(source):
    with pytest.raises(TypeError):
        free_ring().poly(source)


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
    parts = f.graded_components([6, 8, 4])
    assert list(parts) == [6, 8, 4]
    assert all(parts[k] == f.graded_component(k) for k in parts)
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


def test_coefficient_rejects_a_malformed_exponent_vector():
    euler = hp(2).euler  # 3*y^2
    assert euler.coefficient((2,)) == 3
    assert euler.coefficient((1,)) == 0
    for bad in [(2, 0), (-1,), (2.0,), (True,), (), (MAX_EXPONENT + 1, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"bad exponent vector {bad}")):
            euler.coefficient(bad)
    with pytest.raises(TypeError):
        euler.coefficient(2)
    # well-formed, but past the bound: no polynomial has the term
    assert euler.coefficient((MAX_EXPONENT + 1,)) == 0


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
    with pytest.raises(ValueError, match="another characteristic"):
        f.substitute({"p1": 1, "p2": 1}, Ring(2, []))


def test_evaluate_scalars():
    # substitution into a ring with no generators evaluates at scalars
    point = Ring(0, [])
    g = free_ring().poly("a^2*b - 3*c + 1/6")
    value = g.substitute({"a": Fraction(2), "b": Fraction(1, 2), "c": 5}, point)
    assert value == point.poly(Fraction(2) ** 2 * Fraction(1, 2) - 15 + Fraction(1, 6))
    assert value.constant_term() == Fraction(-77, 6)
    with pytest.raises(ValueError, match="no substitution value for generator 'b'"):
        g.substitute({"a": Fraction(1)}, point)
    mod2 = Ring(2, [("w1", 1), ("w2", 2)], [("w1^3", "0")])
    h = mod2.poly("w1^2 + w1*w2 + w2 + 1")
    f2 = Ring(2, [])
    assert h.substitute({"w1": 1, "w2": 1}, f2).constant_term() == PrimeScalar(0, 2)
    assert h.substitute({"w1": 1, "w2": 0}, f2).constant_term() == PrimeScalar(0, 2)
    assert h.substitute({"w1": 0, "w2": 1}, f2) == f2.zero()
    assert h.substitute({"w1": 0, "w2": 0}, f2) == f2.one()


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
    # printing reads the int numerators: -1 over F_5 is the residue 4, and
    # 1/2 and 1/3 are numerators 3 and 2 over 6
    mod5 = Ring(5, [("u", 2)])
    assert mod5.poly("-u").terms.num == {mod5.pack((1,)): 4}
    assert str(mod5.poly("-u")) == "4*u"
    ring = Ring(0, [("x", 2), ("a", 2)])
    f = ring.poly("1/2*x + 1/3*a")
    assert (f.terms.num, f.terms.den) == ({ring.pack((1, 0)): 3, ring.pack((0, 1)): 2}, 6)
    assert str(f) == "1/2*x + 1/3*a"
    g = ring.poly("x - 1/4 - 5/6*x^2*a")
    assert str(g) == "-5/6*x^2*a + x - 1/4"
    assert ring.poly(str(g)) == g


def round_trip_rings():
    return [
        free_ring(),
        quotient_ring(),
        Ring(2, [("w2", 2), ("w3", 3)]),
        Ring(7, [("u", 2), ("v", 4)]),
    ]


def test_parse_print_round_trip_random():
    rng = random.Random(99)
    for ring in round_trip_rings():
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_parse_accepts_whitespace_around_operators(data):
    ring = data.draw(st.sampled_from(round_trip_rings()))
    if ring.characteristic == 0:
        coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    else:
        coeffs = st.integers(-9, 9)
    mons = st.tuples(*[st.integers(0, 2)] * len(ring.names))
    p = ring.poly(data.draw(st.dictionaries(mons, coeffs, min_size=1, max_size=4)))
    space = st.text(alphabet=" \t\r\n", max_size=2)
    pieces = re.split(r"\s*([-+*/^])\s*", str(p))
    for i in range(1, len(pieces), 2):
        pieces[i] = data.draw(space) + pieces[i] + data.draw(space)
    text = data.draw(space) + "".join(pieces) + data.draw(space)
    assert ring.poly(text) == p


def test_parse_errors():
    ring = free_ring()
    for bad in ["', '1.5*a", "a +", "a^", "q", "a^b", "3//2*a", "*a", "",
                "2 x", "a b", "3a", "a^2 3", "1/2 a", "1/0*a"]:
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
    # terms sharing the factors before their last '*', and one long product
    assert ring.poly("2*a*b - 2*a*c + 2*a*b - c*2") == ring.poly("4*a*b - 2*a*c - 2*c")
    assert ring.poly("*".join(["a"] * 3000)) == ring.gen("a") ** 3000


@st.composite
def polynomial_texts(draw):
    """Text over x, y (degree 2) and z (degree 4): integer, fraction and
    power factors, sign runs and uneven whitespace, and now and then a bad
    factor, an unknown generator, a zero denominator, an exponent past the
    bound or a trailing sign."""
    space = st.sampled_from(["", "", " ", "  ", "\t", " \n "])
    good = st.one_of(st.integers(0, 99).map(str),
                     st.builds("{}/{}".format, st.integers(0, 99), st.integers(1, 9)),
                     st.builds("{}^{}".format, st.sampled_from("xyz"), st.integers(0, 9)),
                     st.sampled_from("xyz"))
    bad = st.sampled_from(["q", "w^2", "2x", "x^", "", "3/0", f"x^{MAX_EXPONENT}",
                           f"y^{MAX_EXPONENT + 1}"])

    def term():
        factors = [draw(bad if draw(st.integers(0, 24)) == 0 else good)
                   for _ in range(draw(st.integers(1, 3)))]
        return "*".join(draw(space) + f + draw(space) for f in factors)

    sign = st.sampled_from(["+", "-", "- -", "+ -", "--", "-+-"])
    text = draw(space) + (draw(sign) if draw(st.booleans()) else "") + term()
    for _ in range(draw(st.integers(0, 8))):
        text += draw(space) + draw(sign) + draw(space) + term()
    if draw(st.integers(0, 9)) == 0:
        text += draw(space) + draw(sign)
    return text + draw(space)


def parse_outcome(ring, text):
    try:
        return rings._parse_terms(ring, text)
    except ValueError as error:
        return type(error), str(error)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(polynomial_texts())
def test_parse_is_the_same_whatever_the_window(text):
    for p in (0, 2):
        ring = Ring(p, [("x", 2), ("y", 2), ("z", 4)])
        whole = parse_outcome(ring, text)  # one window: the text is shorter
        for window in (1, 2, 3, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rings, "_WINDOW", window)
                assert parse_outcome(ring, text) == whole, (p, window)


def test_parse_scratch_does_not_grow_with_the_text():
    # the total Stiefel-Whitney class of (RP^14)^4 over F_2, each monomial
    # of exponents up to 14 once: 50625 terms, about 1.09 MB of text
    names = ["a0", "a1", "a2", "a3"]
    ring = Ring(2, [(n, 1) for n in names], [(f"{n}^15", "0") for n in names])
    text = " + ".join("*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
                      or "1" for exps in itertools.product(range(15), repeat=4))
    tracemalloc.start()
    try:
        total_w = ring.poly(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(total_w.terms.num) == 15 ** 4
    # a whole-text split held about 5 bytes per character at once
    assert peak - kept < 2 * len(text)


def test_exponent_vectors_must_be_nonnegative_ints():
    ring = Ring(0, [("x", 2)], [("x^3", "0")])
    # 0.5 printed as 1 without equalling it, and 1.5 as x^1.5, which does
    # not parse
    for mon in [(0.5,), (1.5,), (True,), (Fraction(2),), (-1,), (1, 0), ()]:
        with pytest.raises(ValueError, match="bad exponent vector"):
            ring.poly({mon: 1})
    assert ring.poly({(2,): 1}) == ring.gen("x") ** 2


def test_exponents_reach_max_exponent_and_no_further():
    ring = Ring(0, [("x", 2), ("y", 4)])
    x, y = ring.gen("x"), ring.gen("y")
    top = ring.poly(f"x^{MAX_EXPONENT}*y^{MAX_EXPONENT}")
    assert str(top) == f"x^{MAX_EXPONENT}*y^{MAX_EXPONENT}"
    assert top.degree() == 6 * MAX_EXPONENT
    assert top == ring.poly({(MAX_EXPONENT, MAX_EXPONENT): 1})
    assert top == x ** MAX_EXPONENT * y ** MAX_EXPONENT
    assert top.coefficient((MAX_EXPONENT, MAX_EXPONENT)) == 1
    assert top.coefficient((MAX_EXPONENT + 1, 0)) == 0
    assert ring.monomial(str(top)) == (MAX_EXPONENT, MAX_EXPONENT)
    # graded-lex order at the bound: degree first, then x before y
    assert str(top + x ** MAX_EXPONENT + y ** 3 + x ** 6) == (
        f"x^{MAX_EXPONENT}*y^{MAX_EXPONENT} + x^{MAX_EXPONENT} + x^6 + y^3")
    over = f"exceeds MAX_EXPONENT = {MAX_EXPONENT}"
    past = [
        lambda: ring.poly(f"x^{MAX_EXPONENT + 1}"),
        lambda: ring.poly(f"y^{MAX_EXPONENT + 1}"),
        lambda: ring.poly({(0, MAX_EXPONENT + 1): 1}),
        lambda: ring.poly(f"y^{MAX_EXPONENT}*y"),
        # three factors whose sum would carry into the next field unseen
        lambda: ring.poly(f"y^{MAX_EXPONENT}*y^{MAX_EXPONENT}*y^2"),
        lambda: ring.poly(f"x^{MAX_EXPONENT}*x^{MAX_EXPONENT}*x^2"),
        lambda: top * y,
        lambda: x ** (MAX_EXPONENT + 1),
        lambda: y ** (2 ** 64),
    ]
    for make in past:
        with pytest.raises(ValueError, match=over):
            make()
    # a rewrite can raise an exponent past the bound too
    ruled = Ring(0, [("x", 2), ("y", 2)], [("x^2", "y^2")])
    assert ruled.poly(f"x^2*y^{MAX_EXPONENT - 2}") == ruled.poly(f"y^{MAX_EXPONENT}")
    with pytest.raises(ValueError, match=over):
        ruled.poly(f"x^2*y^{MAX_EXPONENT - 1}")


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


def test_tensor_ring_rejects_factors_of_other_characteristics():
    with pytest.raises(ValueError, match="tensor factors have different characteristics"):
        tensor_ring(Ring(0, [("x", 2)]), Ring(2, [("y", 1)]))


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


def test_transport_into_and_out_of_rings_of_zero_and_one_generator():
    point = Ring(0, [])
    line = Ring(0, [("y", 4)], [("y^3", "0")])
    big = tensor_ring(Ring(0, [("x", 12)], [("x^2", "0")]), line)
    for small, text in ((point, "3/2"), (point, "0"), (line, "1 - 2/3*y^2")):
        f = small.poly(text)
        for target in (point, line, big):
            if set(small.names) <= set(target.names):
                moved = transport(f, target)
                assert moved == target.poly(text)
                assert transport(moved, small) == f
    assert transport(big.poly("5 + y"), line) == line.poly("5 + y")
    # a source generator that occurs and that the target lacks
    with pytest.raises(ValueError, match="no generator 'y'"):
        transport(line.gen("y"), point)
    with pytest.raises(ValueError, match="no generator 'x'"):
        transport(big.gen("x"), line)


def test_transport_into_its_own_ring_returns_its_argument():
    ring = Ring(0, [("y", 4)], [("y^3", "0")])
    for f in (ring.poly("1 + 2*y + 7*y^2"), ring.zero()):
        assert transport(f, ring) is f
    # an equal ring that is another object still gets a moved copy
    copy_ring = Ring(0, [("y", 4)], [("y^3", "0")])
    moved = transport(ring.gen("y"), copy_ring)
    assert moved.ring is copy_ring and moved == copy_ring.gen("y")


def test_transport_rejects_a_target_rule_stronger_than_the_source_rule():
    free = Ring(0, [("y", 4)])
    cubic = Ring(0, [("y", 4)], [("y^3", "0")])
    quintic = Ring(0, [("y", 4)], [("y^5", "0")])
    # every term of a normal form stays irreducible in a weaker ring
    f = cubic.poly("1 + 2*y^2")
    assert transport(f, free) == free.poly("1 + 2*y^2")
    assert transport(f, quintic) == quintic.poly("1 + 2*y^2")
    # a stronger rule raises whether or not a term would reduce under it
    for source, target in ((free, cubic), (quintic, cubic)):
        for text in ("y^4", "1"):
            with pytest.raises(ValueError, match=r"rewrites y\^3"):
                transport(source.poly(text), target)


def test_transport_rejects_another_characteristic_or_degree():
    y = Ring(0, [("y", 4)]).gen("y")
    with pytest.raises(ValueError, match="from characteristic 0 to characteristic 2"):
        transport(y, Ring(2, [("y", 4)]))
    with pytest.raises(ValueError, match="'y' has degree 8 in the target ring, 4 in the source"):
        transport(y, Ring(0, [("x", 2), ("y", 8)]))


def test_tail_coefficient_divides_by_the_tail_in_its_own_ring():
    ring = Ring(0, [("c1", 2), ("c2", 4), ("t", 2), ("u", 2)],
                [("t^3", "0"), ("u^2", "0")])
    f = ring.poly("1/2*c1*t^2*u + c2*t^2*u - 3*t^2*u + c1*t*u + c2^2*t^2 + 5")
    assert f.tail_coefficient((2, 1)) == ring.poly("1/2*c1 + c2 - 3")
    assert f.tail_coefficient((2, 1)).ring is ring
    assert f.tail_coefficient((0, 0)) == ring.poly(5)
    assert f.tail_coefficient(()) == f
    assert f.tail_coefficient((1, 0)) == ring.zero()
    with pytest.raises(ValueError, match="bad exponent vector"):
        f.tail_coefficient((0,) * 5)


def test_gen_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown generator 'z'"):
        Ring(0, [("y", 4)]).gen("z")


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_transport_through_tensor_products_agrees_with_tuple_slicing(data):
    # 1-3 factors of 0-3 generators each, exponents up to the bound
    factors = [
        Ring(0, [(f"g{k}_{i}", 2 * data.draw(st.integers(1, 3)))
                 for i in range(data.draw(st.integers(0, 3)))])
        for k in range(data.draw(st.integers(1, 3)))
    ]
    total = factors[0]
    for factor in factors[1:]:
        total = tensor_ring(total, factor)
    # the same factors in reverse order, so each moves as its own run
    backwards = factors[-1]
    for factor in factors[-2::-1]:
        backwards = tensor_ring(backwards, factor)

    def draw(ring):
        exps = st.integers(0, MAX_EXPONENT) | st.sampled_from([0, 1, MAX_EXPONENT])
        mons = st.tuples(*[exps] * len(ring.names))
        return ring.poly(data.draw(st.dictionaries(mons, st.integers(-9, 9), max_size=4)))

    start = 0
    for factor in factors:
        f = draw(factor)
        before = (0,) * start
        after = (0,) * (len(total.names) - start - len(factor.names))
        moved = transport(f, total)
        assert dict(moved.items()) == {
            before + mon + after: c for mon, c in f.items()}
        assert moved.degree() == f.degree()
        assert transport(moved, factor) == f
        start += len(factor.names)
    f = draw(total)
    order = [total.names.index(name) for name in backwards.names]
    flipped = transport(f, backwards)
    assert dict(flipped.items()) == {
        tuple(mon[i] for i in order): c for mon, c in f.items()}
    assert flipped.degree() == f.degree()
    assert transport(flipped, total) == f


# ----------------------------------------------------------------------
# the builders that store their terms unchecked


def trusted_builder_cases():
    """(ring, bundle or None): the round-trip rings, the tensor ring of a
    product bundle and the total ring of a rank-3 projectivization."""
    product = product_bundle(cp(2), hp(2))
    proj = projectivize(quotient_ring(), ["a + b", "c - a*b", "a*c"])
    return [(ring, None) for ring in round_trip_rings()] + [
        (product.ring, product),
        (proj.ring, proj),
    ]


def assert_normal(p):
    assert all(p.terms.num.values())
    assert p.ring.normal_form_terms(p.terms.num, p.terms.den) == p.terms


def test_poly_leaves_the_callers_dict_as_it_was():
    # normal_form_terms owns the dict it is given and reduces it in place,
    # so Ring.poly must hand it a dict of its own
    ring = Ring(0, [("x", 2), ("y", 2)], [("x^2", "y^2")])
    given = {(1, 0): 0, (0, 1): Fraction(1, 2), (2, 0): 3, (0, 0): 0}
    before = dict(given)
    f = ring.poly(given)
    assert given == before
    assert f == ring.poly("1/2*y + 3*y^2")
    assert dict(f.items()) == {(0, 1): Fraction(1, 2), (0, 2): Fraction(3)}
    ring2 = Ring(2, [("u", 1), ("v", 1)], [("u^2", "0")])
    given = {(1, 0): 3, (0, 1): 2, (1, 1): -1, (2, 0): 1}
    before = dict(given)
    g = ring2.poly(given)
    assert given == before
    assert dict(g.items()) == {(1, 0): PrimeScalar(1, 2), (1, 1): PrimeScalar(1, 2)}
    assert g == ring2.poly("u + u*v")


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_trusted_builders_return_normal_forms(data):
    ring, bundle = data.draw(st.sampled_from(trusted_builder_cases()))
    if ring.characteristic == 0:
        coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    else:
        coeffs = st.integers(-9, 9)
    mons = st.tuples(*[st.integers(0, 3)] * len(ring.names))
    f, g = (
        ring.poly(data.draw(st.dictionaries(mons, coeffs, max_size=4)))
        for _ in range(2)
    )
    tensor = tensor_ring(ring, Ring(ring.characteristic, [("z", 2)]))
    moved = transport(f, tensor)
    back = transport(moved, ring)
    results = [
        f + g, f - g, -f, f * data.draw(coeffs), f * g, f ** 3,
        f.graded_component(data.draw(st.integers(0, 12))), moved, back,
    ]
    if bundle is not None:
        results.append(bundle.gysin(f))
    for r in results:
        assert_normal(r)
    assert back == f


# ----------------------------------------------------------------------
# the int representation against a scalar oracle


# (characteristic, generators, rules as {generator index: (k, rhs terms)},
# largest exponent drawn): a rational rule whose right-hand side has
# fractions, so the kernel scales by a common denominator 6, rules over F_5
# and F_999983, and a free ring whose exponents reach MAX_EXPONENT // 2, so
# that a carry between the packed fields would show, and a product of three
# passes the bound
ORACLE_RINGS = [
    (0, [("x", 2), ("a", 2)],
     {0: (2, {(1, 1): Fraction(1, 2), (0, 2): Fraction(2, 3)})}, 3),
    (5, [("u", 2), ("v", 4)], {0: (3, {(1, 1): 2})}, 3),
    (999983, [("u", 2), ("v", 4)], {1: (2, {(4, 0): 3, (2, 1): 999982})}, 3),
    (0, [("x", 2), ("y", 4), ("z", 2)], {}, MAX_EXPONENT // 2),
]


def oracle_ring(spec):
    p, gens, rules, _ = spec
    return Ring(p, gens, [((gens[i][0], k), rhs) for i, (k, rhs) in rules.items()])


def oracle_scalar(p, c):
    """A Fraction in characteristic 0, an int in 0..p-1 in characteristic p."""
    if p == 0:
        return Fraction(c)
    return (c.value if isinstance(c, PrimeScalar) else c) % p


def oracle_add(p, terms, mon, c):
    c = oracle_scalar(p, terms.get(mon, 0) + c)
    if c:
        terms[mon] = c
    else:
        terms.pop(mon, None)


def oracle_reduce(spec, pairs, pick=min):
    """Sum (monomial, scalar) pairs, then rewrite one term at a time until
    none is reducible.  ``pick`` chooses the term from the reducible ones,
    then the rule from those that apply to it."""
    p, _, rules, _ = spec
    terms = {}
    for mon, c in pairs:
        oracle_add(p, terms, mon, oracle_scalar(p, c))
    while True:
        reducible = [
            mon for mon in terms if any(mon[i] >= k for i, (k, _) in rules.items())
        ]
        if not reducible:
            return terms
        mon = pick(reducible)
        c = terms.pop(mon)
        i = pick([i for i, (k, _) in rules.items() if mon[i] >= k])
        k, rhs = rules[i]
        for rmon, rc in rhs.items():
            image = tuple(e + r - (k if j == i else 0)
                          for j, (e, r) in enumerate(zip(mon, rmon)))
            oracle_add(p, terms, image, c * oracle_scalar(p, rc))


def oracle_terms(poly):
    p = poly.ring.characteristic
    return {mon: oracle_scalar(p, c) for mon, c in poly.items()}


def oracle_mul(spec, f, g):
    return oracle_reduce(spec, [
        (tuple(map(sum, zip(m1, m2))), c1 * c2)
        for m1, c1 in f.items() for m2, c2 in g.items()
    ])


TOO_BIG = "an exponent exceeds MAX_EXPONENT"


def outcome(compute):
    """The oracle terms of ``compute()``, or TOO_BIG when it raises for an
    exponent past the bound."""
    try:
        return oracle_terms(compute())
    except ValueError as exc:
        assert str(exc) == f"{TOO_BIG} = {MAX_EXPONENT}"
        return TOO_BIG


def bounded(terms):
    """Oracle terms, or TOO_BIG when an exponent passes the bound: in these
    free rings and rings with small exponents, the top exponent of each
    generator in a product is the sum of those of its factors."""
    return TOO_BIG if any(e > MAX_EXPONENT for mon in terms for e in mon) else terms


def oracle_scalars(p):
    if p == 0:
        return st.one_of(
            st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
        )
    return st.one_of(
        st.integers(-9, 2 * p), st.builds(PrimeScalar, st.integers(0, p - 1), st.just(p))
    )


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_int_coefficients_agree_with_a_scalar_oracle(data):
    spec = data.draw(st.sampled_from(ORACLE_RINGS))
    p, top = spec[0], spec[3]
    ring = oracle_ring(spec)
    # the largest exponent often, so that sums of two reach 2 * top
    mons = st.tuples(*[st.integers(0, top) | st.just(top)] * len(ring.names))
    raws = [
        data.draw(st.lists(st.tuples(mons, oracle_scalars(p)), max_size=4))
        for _ in range(3)
    ]
    f, g, h = (ring.poly(dict(raw)) for raw in raws)
    rf, rg = (oracle_reduce(spec, dict(raw).items()) for raw in raws[:2])
    assert oracle_terms(f) == rf
    assert oracle_terms(g) == rg

    assert oracle_terms(f + g) == oracle_reduce(spec, [*rf.items(), *rg.items()])
    assert oracle_terms(f - g) == oracle_reduce(
        spec, [*rf.items(), *((m, -c) for m, c in rg.items())]
    )
    s = data.draw(oracle_scalars(p))
    scaled = oracle_reduce(spec, [(m, c * oracle_scalar(p, s)) for m, c in rf.items()])
    assert oracle_terms(f * s) == scaled
    if not isinstance(s, PrimeScalar):  # PrimeScalar.__mul__ rejects a polynomial
        assert oracle_terms(s * f) == scaled
    assert outcome(lambda: f * g) == bounded(oracle_mul(spec, rf, rg))
    assert outcome(lambda: f ** 3) == bounded(
        oracle_mul(spec, oracle_mul(spec, rf, rf), rf))

    assert f + g == g + f
    assert outcome(lambda: f * g) == outcome(lambda: g * f)
    assert (f + g) + h == f + (g + h)
    assert outcome(lambda: (f * g) * h) == outcome(lambda: f * (g * h))
    assert outcome(lambda: f * (g + h)) == outcome(lambda: f * g + f * h)

    # any rewrite order, rounds or one term at a time, lands on one form
    raw = dict([*raws[0], *raws[1]])
    rnd = data.draw(st.randoms(use_true_random=False))
    assert oracle_terms(ring.poly(raw)) == oracle_reduce(
        spec, raw.items(), pick=rnd.choice
    )
