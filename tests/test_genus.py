"""Multiplicative sequences: Bernoulli numbers, weight tables, genera."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charclasses.bundles import projectivize
from charclasses.genus import (
    MultiplicativeSequence,
    ahat_sequence,
    bernoulli,
    evaluate_genus,
    l_leading_coefficient,
    l_sequence,
    weight_ring,
)
from charclasses.rings import GradedPoly, Ring
from charclasses.spaces import cp, hp, point, product_space, sphere
from charclasses.symfun import monomial_to_elementary, partitions


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle: [B_0, ..., B_n] by the Akiyama-Tanigawa in-place
    algorithm, whose row[0] after step m is B_m.

    Produces the B_1 = +1/2 convention; flip the sign at index 1 to match
    the recurrence convention used by the package.
    """
    row = [Fraction(0)] * (n + 1)
    values = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        values.append(row[0])
    if n >= 1:
        values[1] = -values[1]
    return values


def test_bernoulli_against_independent_oracle():
    for n, value in enumerate(bernoulli_akiyama_tanigawa(120)):
        assert bernoulli(n) == value, f"index {n}"


def test_bernoulli_frozen_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(n) == 0 for n in range(3, 21, 2))
    with pytest.raises(ValueError):
        bernoulli(-1)


def l_series(n):
    """q_1..q_n of sqrt(z)/tanh(sqrt(z)): 2^{2k} B_{2k} / (2k)!."""
    return [4 ** k * bernoulli(2 * k) / factorial(2 * k) for k in range(1, n + 1)]


def ahat_series(n):
    """q_1..q_n of (sqrt(z)/2)/sinh(sqrt(z)/2): (2 - 2^{2k}) B_{2k} / (4^k (2k)!)."""
    return [
        (2 - 4 ** k) * bernoulli(2 * k) / (4 ** k * factorial(2 * k))
        for k in range(1, n + 1)
    ]


def logs_by_recurrence(q):
    """k a_k of log Q from q_1..q_n, by Q' = Q (log Q)':
    k a_k = k q_k - sum_{j<k} j a_j q_{k-j}."""
    logs = []
    for k in range(1, len(q) + 1):
        lower = sum((logs[j - 1] * q[k - j - 1] for j in range(1, k)), Fraction(0))
        logs.append(k * q[k - 1] - lower)
    return logs


def test_signature_series_coefficients():
    assert l_series(3) == [Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945)]
    assert l_sequence().log_coeffs(3) == [
        Fraction(1, 3), Fraction(-7, 45), Fraction(62, 945)
    ]


def test_ahat_series_coefficients():
    assert ahat_series(2) == [Fraction(-1, 24), Fraction(7, 5760)]
    assert ahat_sequence().log_coeffs(2) == [Fraction(-1, 24), Fraction(1, 1440)]


@pytest.mark.parametrize(
    "make, series", [(l_sequence, l_series), (ahat_sequence, ahat_series)],
    ids=["L", "Ahat"],
)
def test_closed_form_logs_equal_the_series_recurrence(make, series):
    n = 60
    oracle = logs_by_recurrence(series(n))
    assert make().log_coeffs(n) == oracle
    # a shorter request is a prefix: the sequence has no size of its own
    assert make().log_coeffs(7) == oracle[:7]


def test_weight_ring_declaration():
    ring = weight_ring(3)
    assert ring.names == ("p3", "p2", "p1")
    assert ring.degrees == (12, 8, 4)
    assert weight_ring(3) == ring


def test_weight_polynomials_hand_values():
    seq = l_sequence()
    r1 = weight_ring(1)
    assert seq.k_polynomial(1) == r1.poly("1/3*p1")
    r2 = weight_ring(2)
    assert seq.k_polynomial(2) == r2.poly("7/45*p2 - 1/45*p1^2")
    r3 = weight_ring(3)
    assert seq.k_polynomial(3) == r3.poly("62/945*p3 - 13/945*p2*p1 + 2/945*p1^3")


@pytest.mark.parametrize("seq", [l_sequence(), ahat_sequence()], ids=["L", "Ahat"])
def test_one_table_run_prints_each_weight_as_its_own_run_does(seq):
    # K_m of weight_ring(9) has exponent 0 on p9..p(m+1), which lead the
    # order, so its text is that of K_m built in weight_ring(m)
    table = seq.k_polynomials(9)
    assert len(table) == 9
    for m, k in enumerate(table, start=1):
        alone = seq.k_polynomial(m)
        assert alone.ring == weight_ring(m)
        assert str(k) == str(alone)
        assert weight_ring(m).poly(str(k)) == alone
    assert table[-1] == seq.k_polynomial(9)


def test_weight_polynomial_printing_is_pinned():
    seq = l_sequence()
    assert str(seq.k_polynomial(2)) == "7/45*p2 - 1/45*p1^2"


def test_weight_five_published_table():
    k5 = l_sequence().k_polynomial(5)
    expected = weight_ring(5).poly(
        "5110/467775*p5 - 919/467775*p4*p1 - 336/467775*p3*p2"
        " + 237/467775*p3*p1^2 + 127/467775*p2^2*p1 - 83/467775*p2*p1^3"
        " + 10/467775*p1^5"
    )
    assert k5 == expected


def test_weight_four_table_only_matches_degree_corrected_reading():
    k4 = l_sequence().k_polynomial(4)
    ring = weight_ring(4)
    corrected = ring.poly(
        "381/14175*p4 - 71/14175*p3*p1 - 19/14175*p2^2"
        " + 22/14175*p2*p1^2 - 3/14175*p1^4"
    )
    # the published display writes the second term with p2*p1, which has the
    # wrong degree for a weight-4 polynomial; the computation must land on
    # the degree-correct reading and must not match the literal one
    literal = ring.poly(
        "381/14175*p4 - 71/14175*p2*p1 - 19/14175*p2^2"
        " + 22/14175*p2*p1^2 - 3/14175*p1^4"
    )
    assert k4 == corrected
    assert k4 != literal
    assert k4.is_homogeneous(16)
    assert not literal.is_homogeneous()


def test_every_weight_polynomial_is_homogeneous():
    seq = l_sequence()
    for n in range(1, 6):
        assert seq.k_polynomial(n).is_homogeneous(4 * n)


def test_leading_coefficients_closed_form_vs_expansion():
    frozen = [
        Fraction(1, 3),
        Fraction(7, 45),
        Fraction(62, 945),
        Fraction(127, 4725),
        Fraction(146, 13365),
    ]
    seq = l_sequence()
    for n in range(1, 6):
        expansion = seq.k_polynomial(n).coefficient(f"p{n}")
        closed = l_leading_coefficient(n)
        assert expansion == closed == frozen[n - 1]
    with pytest.raises(ValueError):
        l_leading_coefficient(0)


def test_ahat_weight_polynomials():
    seq = ahat_sequence()
    assert seq.k_polynomial(1) == weight_ring(1).poly("-1/24*p1")
    assert seq.k_polynomial(2) == weight_ring(2).poly("-1/1440*p2 + 7/5760*p1^2")


def test_weight_bounds_are_enforced():
    seq = l_sequence()
    with pytest.raises(ValueError):
        seq.k_polynomial(0)


def test_total_class_on_quaternionic_plane():
    space = hp(2)
    total = l_sequence().total_class(space.total_p, 2)
    assert total == space.ring.poly("1 + 2/3*y + y^2")


def test_total_class_validates_input():
    space = hp(2)
    seq = l_sequence()
    bad = space.ring.poly("2 + 2*y")
    with pytest.raises(ValueError):
        seq.total_class(bad, 2)


def test_genus_evaluation_signatures():
    assert evaluate_genus(hp(2), l_sequence()) == 1
    assert evaluate_genus(sphere(12), l_sequence()) == 0
    assert evaluate_genus(sphere(4), l_sequence()) == 0
    assert evaluate_genus(cp(2), l_sequence()) == 1
    assert evaluate_genus(product_space(hp(2), hp(2, gen="z")), l_sequence()) == 1
    assert evaluate_genus(point(), l_sequence()) == 1


def test_genus_rejects_a_family_over_a_base():
    # the fundamental of a projectivization holds the exponent of t only,
    # so reading it as a closed manifold's would pair to 0
    for chern in (["3*h", "3*h^2"], ["3*h", "3*h^2", "0"]):
        bundle = projectivize(cp(2), chern)
        with pytest.raises(ValueError, match="closed manifold"):
            evaluate_genus(bundle, l_sequence())


def test_genus_of_off_dimension_space_is_zero():
    assert evaluate_genus(cp(3), l_sequence()) == 0
    assert evaluate_genus(sphere(2), l_sequence()) == 0


def per_weight_solve(seq, total_l, known):
    """Oracle for ``pontryagin_parts``: p_n, n = len(known) + 1, from
    K_n(p_1..p_n) = the weight-n part of total_l, given p_1..p_{n-1}.

    K_n is linear in p_n with the scalar coefficient
    c_n = (-1)^{n-1} n a_n, so p_n = (target - K_n with p_n := 0) / c_n:
    one forward kernel run per weight, and no logarithm of total_l.
    """
    ring = total_l.ring
    n = len(known) + 1
    lower = seq.weight_parts(sum(known, ring.one()), n)[n]
    leading = seq.log_coeffs(n)[n - 1] * (-1) ** (n - 1)
    if not leading:
        raise ValueError(f"weight polynomial K_{n} has no p_{n} term")
    return (total_l.graded_component(4 * n) - lower) * (Fraction(1) / leading)


def per_weight_solve_all(seq, total_l, n):
    """[p_1, ..., p_n] by the oracle, one weight at a time."""
    solved = []
    for _ in range(n):
        solved.append(per_weight_solve(seq, total_l, solved))
    return solved


def test_pontryagin_parts_inverts_evaluation():
    rng = random.Random(314)
    seq = l_sequence()
    ring = hp(2).ring
    y = ring.gen("y")
    for _ in range(30):
        p1 = y * Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        p2 = y * y * Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        total_p = ring.one() + p1 + p2
        total_l = seq.total_class(total_p, 2)
        assert seq.pontryagin_parts(total_l, 2) == [ring.one(), p1, p2]
        assert seq.pontryagin_parts(total_l, 1) == [ring.one(), p1]


def test_pontryagin_parts_needs_characteristic_zero():
    ring = Ring(2, [("y", 4)], [("y^3", "0")])
    with pytest.raises(ValueError, match="characteristic 0"):
        l_sequence().pontryagin_parts(ring.poly("1 + y"), 1)


def test_pontryagin_parts_needs_constant_term_one():
    ring = hp(2).ring
    with pytest.raises(ValueError, match="constant term 1"):
        l_sequence().pontryagin_parts(ring.poly("2 + y"), 2)


def test_genus_asks_the_logarithm_only_up_to_the_last_nonzero_power_sum():
    # on S^400 x HP^2 only P_1 = 2y and P_2 = -10y^2 are nonzero, and on
    # S^400 every P_k is zero, though the weights are 102 and 100
    asked = []

    def spy(n):
        asked.append(n)
        return l_sequence().log_coeffs(n)

    seq = MultiplicativeSequence(spy)
    assert evaluate_genus(product_space(sphere(400), hp(2)), seq) == 0
    assert asked == [2]
    assert evaluate_genus(sphere(400), seq) == 0
    assert asked == [2, 0]


def genus_is_zero(space):
    return lambda: evaluate_genus(space, l_sequence()) == 0


def solve_returns_total_p(space):
    # the target is formed here, so only the solve's products are counted
    seq = l_sequence()
    n = space.dimension // 4
    target = seq.total_class(space.total_p, n)
    return lambda: sum(seq.pontryagin_parts(target, n), space.ring.zero()) == space.total_p


@pytest.mark.parametrize(
    "make_check, sizes",
    [
        (lambda n: genus_is_zero(sphere(n)), (400, 4000)),
        (lambda n: genus_is_zero(product_space(sphere(n), hp(2))), (400, 4000)),
        # the solve asks for every log coefficient up to the weight, and
        # log_coeffs(1002) alone takes about a second
        (lambda n: solve_returns_total_p(product_space(sphere(n), hp(2))), (400, 2000)),
    ],
    ids=["S^N", "S^N x HP^2", "solve on S^N x HP^2"],
)
def test_genus_products_do_not_grow_with_the_weight(monkeypatch, make_check, sizes):
    # every D_k past the last nonzero one is zero, and so is every E_m
    # once its lower parts are: no product of zero may be formed for them
    counts = []
    for n in sizes:
        check = make_check(n)
        calls = []
        mul = GradedPoly.__mul__

        def counting(self, other, mul=mul, calls=calls):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(GradedPoly, "__mul__", counting)
        assert check()
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_custom_sequence_without_linear_term():
    # log Q = z^2 / 2 has a_1 = 0, which makes K_1 vanish, so solving
    # weight 1 must fail loudly, as the per-weight oracle does
    seq = MultiplicativeSequence(lambda n: [Fraction(k == 2) for k in range(1, n + 1)])
    ring = hp(2).ring
    assert seq.k_polynomial(1).is_zero()
    assert seq.k_polynomial(2) == weight_ring(2).poly("1/2*p1^2 - p2")
    for n in (1, 2):
        with pytest.raises(ValueError, match="K_1 has no p_1 term"):
            seq.pontryagin_parts(ring.poly("1 + y"), n)
    with pytest.raises(ValueError, match="K_1 has no p_1 term"):
        per_weight_solve(seq, ring.poly("1 + y"), [])


# ----------------------------------------------------------------------
# Newton recurrence against the partition route


def partition_route_k_polynomial(q, n):
    """K_n as sum over partitions lam of n of (prod_j q_{lam_j}) m_lam,
    each m_lam rewritten in the elementary basis, e_j renamed to p_j."""
    ring = weight_ring(n)
    total = ring.zero()
    for lam in partitions(n):
        coeff = Fraction(1)
        for part in lam:
            coeff *= q[part - 1]
        if coeff:
            epoly = monomial_to_elementary(lam, n)
            # elementary_ring(n) and weight_ring(n) both declare their
            # generators from index n down to 1, so exponent vectors agree
            total = total + ring.poly(dict(epoly.items())) * coeff
    return total


@pytest.mark.parametrize(
    "make, series", [(l_sequence, l_series), (ahat_sequence, ahat_series)],
    ids=["L", "Ahat"],
)
def test_newton_k_polynomials_equal_partition_route(make, series):
    seq = make()
    q = series(12)
    for n in range(1, 13):
        newton = seq.k_polynomial(n)
        oracle = partition_route_k_polynomial(q, n)
        assert newton == oracle, f"K_{n}"
        assert str(newton) == str(oracle), f"K_{n}"


def substituted(kpoly, p_classes, ring):
    """K_n(p_1..p_n) formed by substitution into the space's ring."""
    mapping = {f"p{i}": cls for i, cls in enumerate(p_classes, start=1)}
    return kpoly.substitute(mapping, ring)


IN_SPACE_WEIGHT = 6
IN_SPACE_MODELS = (
    [cp(2 * k) for k in range(1, IN_SPACE_WEIGHT + 1)]
    + [hp(2)]
    + [product_space(sphere(k), hp(2)) for k in (2, 4, 8, 12, 16)]
    + [
        product_space(cp(a), cp(b, gen="g"))
        for a, b in (
            (1, 1), (1, 2), (2, 2), (1, 3), (3, 3), (2, 4), (4, 4), (1, 7), (5, 5), (6, 6)
        )
    ]
)


@pytest.mark.parametrize("make", [l_sequence, ahat_sequence], ids=["L", "Ahat"])
def test_in_space_evaluation_equals_substitution(make):
    seq = make()
    for space in IN_SPACE_MODELS:
        ring = space.ring
        p_classes = [
            space.total_p.graded_component(4 * i)
            for i in range(1, IN_SPACE_WEIGHT + 1)
        ]
        label = f"{ring.names} dim {space.dimension}"

        expected_total = ring.one()
        for n in range(1, IN_SPACE_WEIGHT + 1):
            expected_total = expected_total + substituted(
                seq.k_polynomial(n), p_classes[:n], ring
            )
        total = seq.total_class(space.total_p, IN_SPACE_WEIGHT)
        assert total == expected_total, label

        n_top = space.dimension // 4
        if space.dimension % 4 == 0 and n_top <= IN_SPACE_WEIGHT:
            top = substituted(seq.k_polynomial(n_top), p_classes[:n_top], ring)
            assert evaluate_genus(space, seq) == top.coefficient(space.fundamental), label

        for n in range(1, IN_SPACE_WEIGHT + 1):
            kpoly = seq.k_polynomial(n)
            lower = substituted(kpoly, p_classes[: n - 1] + [ring.zero()], ring)
            expected = (total.graded_component(4 * n) - lower) * (
                Fraction(1) / kpoly.coefficient(f"p{n}")
            )
            solved = per_weight_solve(seq, total, p_classes[: n - 1])
            assert solved == expected, f"{label} weight {n}"
            assert solved == p_classes[n - 1], f"{label} weight {n}"
        assert seq.pontryagin_parts(total, IN_SPACE_WEIGHT)[1:] == p_classes, label


# ----------------------------------------------------------------------
# The one-pass solve on random classes, against the per-weight oracle


ROUND_TRIP_SPACES = [
    product_space(sphere(4), hp(2)),
    product_space(sphere(8), cp(4)),
    product_space(sphere(12), hp(2)),
    product_space(sphere(16), hp(3)),
    product_space(sphere(8), product_space(cp(2), hp(1, gen="z"))),
]
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def basis(ring, degree):
    """The exponent vectors of the given degree whose monomials are nonzero
    in the ring; in these truncated rings they span that degree."""
    bounds = [degree // d for d in ring.degrees]
    return [
        mon
        for mon in itertools.product(*(range(b + 1) for b in bounds))
        if sum(e * d for e, d in zip(mon, ring.degrees)) == degree
        and ring.poly({mon: 1})
    ]


@pytest.mark.parametrize("make", [l_sequence, ahat_sequence], ids=["L", "Ahat"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_pontryagin_parts_round_trips_random_classes(make, data):
    seq = make()
    space = data.draw(st.sampled_from(ROUND_TRIP_SPACES), label="space")
    ring = space.ring
    n = space.dimension // 4
    total_p = ring.one()
    for i in range(1, n + 1):
        for mon in basis(ring, 4 * i):
            total_p = total_p + ring.poly({mon: data.draw(RATIONALS)})
    total = seq.total_class(total_p, n)
    parts = [total_p.graded_component(4 * i) for i in range(n + 1)]
    assert seq.pontryagin_parts(total, n) == parts

    # perturb by R*x*mu, mu a fibre monomial of degree 4k, 0 < 4k < dim F
    x = ring.names.index("x")
    fibre_dim = space.dimension - ring.degrees[x]
    mus = [
        mon
        for k in range(1, (fibre_dim - 1) // 4 + 1)
        for mon in basis(ring, 4 * k)
        if mon[x] == 0
    ]
    mu = ring.poly({data.draw(st.sampled_from(mus), label="mu"): 1})
    target = total + ring.gen("x") * mu * data.draw(RATIONALS, label="R")
    solved = seq.pontryagin_parts(target, n)
    assert seq.total_class(sum(solved, ring.zero()), n) == target
    assert solved[1:] == per_weight_solve_all(seq, target, n)
