"""Acceptance gate: one test per acceptance criterion.

Every comparison is exact; there are no tolerances anywhere.  Each test
prints a single PASS line on success (visible under ``pytest -s`` or in
the captured output), so the gate reads as one line per criterion.
"""

import json
import random
from fractions import Fraction
from math import comb, factorial

from charclasses import counterexample
from charclasses.bundles import kappa, product_bundle, projectivize
from charclasses.checks import run_checks
from charclasses.cli import main as cli_main
from charclasses.documents import (
    ring_from_document,
    ring_to_document,
    space_from_document,
    space_to_document,
)
from charclasses.genus import evaluate_genus, l_sequence, weight_ring
from charclasses.rings import Ring
from charclasses.spaces import bso_presentation, cp, hp, product_space, sphere
from charclasses.symfun import (
    elementary_values,
    monomial_to_elementary,
    partitions,
    symfun_eval,
)


def independent_bernoulli(n):
    """B_n by the textbook recurrence, written out here so criterion 1 does
    not lean on the package's own Bernoulli code."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(
            (comb(m + 1, k) * values[k] for k in range(m)), Fraction(0)
        )
        values.append(-acc / (m + 1))
    return values[n]


def test_criterion_1_l_polynomial_table():
    seq = l_sequence()
    ring5 = weight_ring(5)
    published_l5 = ring5.poly(
        "5110/467775*p5 - 919/467775*p4*p1 - 336/467775*p3*p2"
        " + 237/467775*p3*p1^2 + 127/467775*p2^2*p1 - 83/467775*p2*p1^3"
        " + 10/467775*p1^5"
    )
    assert seq.k_polynomial(5) == published_l5

    ring4 = weight_ring(4)
    corrected = ring4.poly(
        "381/14175*p4 - 71/14175*p3*p1 - 19/14175*p2^2"
        " + 22/14175*p2*p1^2 - 3/14175*p1^4"
    )
    literal = ring4.poly(
        "381/14175*p4 - 71/14175*p2*p1 - 19/14175*p2^2"
        " + 22/14175*p2*p1^2 - 3/14175*p1^4"
    )
    k4 = seq.k_polynomial(4)
    assert k4 == corrected, "weight-4 table mismatch under the corrected reading"
    # the published display's 71 p2 p1 term is off-grading for weight 4; the
    # discrepancy is asserted (and thereby reported), not silently skipped
    assert k4 != literal
    assert not literal.is_homogeneous()

    for n in range(1, 6):
        b = independent_bernoulli(2 * n)
        closed = (
            Fraction(2 ** (2 * n)) * (2 ** (2 * n - 1) - 1) * abs(b)
            / factorial(2 * n)
        )
        assert seq.k_polynomial(n).coefficient(f"p{n}") == closed, f"weight {n}"

    print(
        "PASS criterion 1: weight-5 table exact, weight-4 matches only the "
        "degree-corrected reading (71*p3*p1), leading coefficients agree "
        "with the independent Bernoulli closed form"
    )


def test_criterion_2_signature_oracle():
    plane = hp(2)
    assert plane.total_p == plane.ring.poly("1 + 2*y + 7*y^2")
    assert evaluate_genus(plane, l_sequence()) == 1
    assert evaluate_genus(sphere(12), l_sequence()) == 0
    print("PASS criterion 2: signature(HP^2) = 1 and signature(S^12) = 0, exactly")


def test_criterion_3_perturbed_run_golden_and_linear():
    report = counterexample.run(1)
    ring = product_space(sphere(12, gen="x"), hp(2, gen="y")).ring
    y = ring.gen("y")

    # low classes both flagged unchanged and equal to the model values
    assert report.p_low_unchanged == (True, True, True)
    space = product_space(sphere(12, gen="x"), hp(2, gen="y"))
    assert space.total_p.graded_component(4) == y * 2
    assert space.total_p.graded_component(8) == y * y * 7
    assert space.total_p.graded_component(12).is_zero()

    assert report.p4 == ring.poly("4725/127*x*y")
    assert report.p5 == ring.poly("124065/9271*x*y^2")
    assert report.kappa_p5_integral == Fraction(124065, 9271)
    assert report.casson == 0

    for r in (Fraction(2), Fraction(5), Fraction(-3), Fraction(10)):
        scaled = counterexample.run(r)
        assert scaled.p4 == report.p4 * r
        assert scaled.p5 == report.p5 * r
        assert scaled.kappa_p5_integral == report.kappa_p5_integral * r
        assert scaled.casson == 0
        assert scaled.p_low_unchanged == (True, True, True)

    print(
        "PASS criterion 3: R = 1 gives p4 = 4725/127*x*y, p5 integral "
        "124065/9271, zero obstruction; linear at R in {2, 5, -3, 10}"
    )


def test_criterion_4_classifying_space_presentations():
    even = bso_presentation(4)
    assert even.names == ("e", "p1", "p2")
    assert even.degrees == (4, 4, 8)
    assert even.gen("e") ** 2 == even.gen("p2")

    for dimension in (2, 4, 6, 8, 10):
        ring = bso_presentation(dimension)
        m = dimension // 2
        assert ring.gen("e") ** 2 == ring.gen(f"p{m}"), f"dimension {dimension}"

    odd = bso_presentation(5)
    assert odd.names == ("p1", "p2")
    assert not odd.rules

    for d in (2, 3, 5, 8):
        char2 = bso_presentation(d, 2)
        assert char2.names == tuple(f"w{i}" for i in range(2, d + 1)), f"d = {d}"
        assert char2.characteristic == 2
        assert not char2.rules

    loose = bso_presentation(4, euler_relation=False)
    assert not loose.rules

    print(
        "PASS criterion 4: even, odd, and characteristic-2 presentations "
        "structural-equal to the expected rings; e^2 reduces to the top "
        "Pontryagin generator"
    )


def _random_poly(rng, ring, max_exp=2, n_terms=3):
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        mon = tuple(rng.randint(0, max_exp) for _ in ring.names)
        terms[mon] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ring.poly(terms)


def test_criterion_5_kappa_identities():
    # kappa_e = Euler characteristic of the fibre, for every shipped model
    shipped_fibres = [(sphere(12), 2), (cp(1), 2), (cp(2), 3), (hp(1), 2), (hp(2), 3)]
    for fibre, chi in shipped_fibres:
        bundle = product_bundle(cp(2, gen="b"), fibre)
        assert kappa(bundle, "e") == bundle.base_ring.one() * chi

    generic = Ring(0, [("c1", 2), ("c2", 4), ("c3", 6)])
    for rank in (2, 3):
        proj = projectivize(generic, [f"c{i}" for i in range(1, rank + 1)])
        assert kappa(proj, "e") == generic.one() * rank

    # rank-2 projectivization: hand-expansion oracle for e^2 and e^3.
    # e(T_v) = 2t + c1 and t^2 = -(c1 t + c2), so e^2 = c1^2 - 4 c2 pulls
    # back from the base (t-coefficient zero) and e^3 = (c1^2 - 4 c2)(2t + c1)
    # has t-coefficient 2(c1^2 - 4 c2).
    base = Ring(0, [("c1", 2), ("c2", 4)])
    bundle = projectivize(base, ["c1", "c2"])
    assert kappa(bundle, "e^2").is_zero()
    assert kappa(bundle, "e^3") == base.poly("2*c1^2 - 8*c2")

    # projection formula on 10^3 random instances across both constructions
    rng = random.Random(987654321)
    instances = [product_bundle(sphere(12), hp(2)), bundle]
    for i in range(1000):
        b = instances[i % 2]
        a = _random_poly(rng, b.base_ring)
        x = _random_poly(rng, b.ring)
        assert b.gysin(b.pullback(a) * x) == a * b.gysin(x), f"instance {i}"

    # kappa of a product bundle vanishes whenever the output degree is
    # positive (the vertical classes are pulled back from the fibre factor)
    trivial = product_bundle(sphere(12), hp(2))
    for cls in ["p1*p2", "p2^2", "e*p1", "e*p2", "e^2", "e^3", "p1^3", "e^2*p1"]:
        value = kappa(trivial, cls)
        assert value.is_zero(), f"kappa({cls}) = {value}"

    print(
        "PASS criterion 5: kappa_e = chi(fibre) on all shipped models, "
        "rank-2 powers match the hand expansion, projection formula holds "
        "on 1000 random instances, product-bundle kappas vanish in "
        "positive degree"
    )


def test_criterion_6_symmetric_function_oracle():
    rng = random.Random(31415926)
    points = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
        for _ in range(20)
    ]
    checked = 0
    for weight in range(1, 9):
        for lam in partitions(weight):
            poly = monomial_to_elementary(lam, 8)
            for point in points:
                e_vals = elementary_values(point, weight)
                via_basis = poly.substitute(
                    {f"e{j}": e_vals[j - 1] for j in range(1, weight + 1)}, Ring(0, [])
                ).constant_term()
                direct = symfun_eval({lam: 1}, point)
                assert via_basis == direct, f"{lam} at {point}"
                checked += 1
    assert checked == sum(len(partitions(w)) for w in range(1, 9)) * 20

    print(
        f"PASS criterion 6: basis conversion equals direct evaluation at "
        f"{checked} partition/point pairs (all weights <= 8, 20 points)"
    )


def test_criterion_7_determinism_and_round_trips(capsys):
    results = run_checks()
    assert results, "no checks ran"
    failed = [r for r in results if not r.passed]
    assert not failed, "verify failures: " + "; ".join(
        f"{r.check_id}: {r.detail}" for r in failed
    )

    # the CLI end of the same path: exit 0 and byte-identical repeats
    outputs = []
    for _ in range(2):
        assert cli_main(["verify", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    for _ in range(2):
        assert cli_main(["section5", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]

    # JSON payload round trips
    report_doc = counterexample.report_document(counterexample.run(Fraction(7, 5)))
    assert json.loads(json.dumps(report_doc)) == report_doc

    for space in (hp(2), cp(2), sphere(12)):
        doc = space_to_document(space)
        rebuilt = space_from_document(json.loads(json.dumps(doc)))
        assert space_to_document(rebuilt) == doc
        ring_doc = ring_to_document(space.ring)
        assert ring_from_document(json.loads(json.dumps(ring_doc)), 0) == space.ring

    print(
        "PASS criterion 7: all named checks pass end to end, repeated CLI "
        "runs are byte-identical, JSON payloads round-trip"
    )
