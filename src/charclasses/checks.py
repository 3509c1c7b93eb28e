"""Named self-checks behind the ``verify`` command.

Each check is a small function that either returns a detail string or
raises; failures are reported, never thrown past :func:`run_checks`.
Results always come back sorted by check id so output is reproducible
byte for byte.  Randomized checks draw from seeded generators.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple

from . import counterexample, spaces
from .bundles import kappa, product_bundle, projectivize
from .documents import space_from_document, space_to_document
from .genus import (
    MultiplicativeSequence,
    bernoulli,
    evaluate_genus,
    l_leading_coefficient,
    l_sequence,
    weight_ring,
)
from .rings import GradedPoly, Ring
from .scalars import format_rational, parse_rational
from .symfun import (
    elementary_values,
    monomial_to_elementary,
    partitions,
    symfun_eval,
)

__all__ = ["CheckResult", "run_checks"]


class CheckResult(NamedTuple):
    check_id: str
    passed: bool
    detail: str


class CheckFailure(Exception):
    pass


def _ensure(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# The weight-4 and weight-5 signature polynomials as printed in the
# published table.  The weight-4 display carries a typo: its middle term is
# printed as 71 p2 p1, which has weight 3 inside a weight-4 table, and the
# degree-correct reading is 71 p3 p1.  Checks compare against the corrected
# reading and report the discrepancy instead of hiding it.
_PRINTED_L4_CORRECTED = (
    "381/14175*p4 - 71/14175*p3*p1 - 19/14175*p2^2 + 22/14175*p2*p1^2 "
    "- 3/14175*p1^4"
)
_PRINTED_L4_LITERAL = (
    "381/14175*p4 - 71/14175*p2*p1 - 19/14175*p2^2 + 22/14175*p2*p1^2 "
    "- 3/14175*p1^4"
)
_PRINTED_L5 = (
    "5110/467775*p5 - 919/467775*p4*p1 - 336/467775*p3*p2 "
    "+ 237/467775*p3*p1^2 + 127/467775*p2^2*p1 - 83/467775*p2*p1^3 "
    "+ 10/467775*p1^5"
)
_PRINTED_LEADING = [
    Fraction(1, 3),
    Fraction(7, 45),
    Fraction(62, 945),
    Fraction(127, 4725),
    Fraction(146, 13365),
]


def _check_bso_presentations() -> str:
    even = spaces.bso_presentation(4, 0)
    _ensure(even.names == ("e", "p1", "p2"), f"BSO(4) generators {even.names}")
    _ensure(even.degrees == (4, 4, 8), f"BSO(4) degrees {even.degrees}")
    e = even.gen("e")
    p2 = even.gen("p2")
    for j in range(1, 4):
        _ensure(e ** (2 * j) == p2 ** j, f"e^{2 * j} did not reduce to p2^{j}")
    _ensure((e ** 3) == e * p2, "e^3 did not reduce to e*p2")
    odd = spaces.bso_presentation(5, 0)
    _ensure(odd.names == ("p1", "p2"), f"BSO(5) generators {odd.names}")
    _ensure(not odd.rules, "BSO(5) should have no relations")
    char2 = spaces.bso_presentation(3, 2)
    _ensure(char2.names == ("w2", "w3"), f"BSO(3; char 2) generators {char2.names}")
    _ensure(char2.characteristic == 2, "BSO(3; char 2) characteristic")
    _ensure(not char2.rules, "BSO(3; char 2) should have no relations")
    loose = spaces.bso_presentation(4, 0, euler_relation=False)
    _ensure(not loose.rules, "euler_relation=False should drop the relation")
    return "even, odd, and characteristic 2 presentations all as expected"


def _random_poly(rng: random.Random, ring: Ring, max_degree: int) -> GradedPoly:
    terms = {}
    names = ring.names
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(names)
        for idx in range(len(names)):
            exps[idx] = rng.randint(0, 2)
        mon = tuple(exps)
        if ring.monomial_degree(mon) > max_degree:
            continue
        terms[mon] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ring.poly(terms)


def _projection_formula_instances(count: int, seed: int) -> int:
    rng = random.Random(seed)
    bundles = []
    base = spaces.hp(2)
    bundles.append(product_bundle(base, spaces.cp(2)))
    generic = Ring(0, [("c1", 2), ("c2", 4)])
    bundles.append(projectivize(generic, [generic.gen("c1"), generic.gen("c2")]))
    checked = 0
    for i in range(count):
        bundle = bundles[i % len(bundles)]
        a = _random_poly(rng, bundle.base_ring, 12)
        x = _random_poly(rng, bundle.ring, 14)
        left = bundle.gysin(bundle.pullback(a) * x)
        right = a * bundle.gysin(x)
        _ensure(
            left == right,
            f"projection formula failed on instance {i}: {left} != {right}",
        )
        checked += 1
    return checked


def _check_projection_formula() -> str:
    checked = _projection_formula_instances(50, seed=20260819)
    return f"gysin(pullback(a)*x) == a*gysin(x) on {checked} seeded instances"


def _check_json_round_trip() -> str:
    ring = weight_ring(5)
    samples = [
        l_sequence().k_polynomial(2),
        l_sequence().k_polynomial(5),
        ring.poly("0"),
        ring.poly("-7/3*p5 + p4*p1 - 2*p1^5"),
    ]
    report = counterexample.run(Fraction(3, 2))
    samples.extend([report.p4, report.p5])
    for poly in samples:
        _ensure(
            poly.ring.poly(str(poly)) == poly,
            f"parse(print(...)) changed {poly}",
        )
    char2 = spaces.bso_presentation(3, 2)
    w_poly = char2.poly("w3*w2 + w2^3")
    _ensure(char2.poly(str(w_poly)) == w_poly, "char 2 round trip failed")
    for q in [Fraction(0), Fraction(-3), Fraction(124065, 9271), Fraction(1, 8)]:
        _ensure(
            parse_rational(format_rational(q)) == q,
            f"rational round trip changed {q}",
        )
    space = spaces.hp(2)
    rebuilt = space_from_document(space_to_document(space))
    _ensure(rebuilt.total_p == space.total_p, "space document round trip: total_p")
    _ensure(rebuilt.euler == space.euler, "space document round trip: euler")
    _ensure(rebuilt.dimension == space.dimension, "space document round trip: dimension")
    return "polynomial, rational, and space-document payloads round-trip"


def _check_kappa_euler() -> str:
    seen = []
    for fibre, chi in [(spaces.cp(2), 3), (spaces.hp(2), 3), (spaces.sphere(12), 2)]:
        bundle = product_bundle(spaces.hp(2, gen="b"), fibre)
        value = kappa(bundle, "e")
        _ensure(
            value == bundle.base_ring.one() * chi,
            f"kappa_e of a trivial bundle with chi {chi} came out {value}",
        )
        seen.append(chi)
    generic = Ring(0, [("c1", 2), ("c2", 4), ("c3", 6)])
    for rank in (2, 3):
        chern = [generic.gen(f"c{i}") for i in range(1, rank + 1)]
        bundle = projectivize(generic, chern)
        value = kappa(bundle, "e")
        _ensure(
            value == bundle.base_ring.one() * rank,
            f"kappa_e of a rank-{rank} projectivization came out {value}",
        )
        seen.append(rank)
    return f"kappa_e equals the fibre Euler characteristic ({seen})"


def _check_kappa_projectivization_powers() -> str:
    generic = Ring(0, [("c1", 2), ("c2", 4)])
    c1 = generic.gen("c1")
    c2 = generic.gen("c2")
    bundle = projectivize(generic, [c1, c2])
    _ensure(kappa(bundle, "e^2").is_zero(), "kappa of e^2 should vanish")
    expected = (c1 * c1 - c2 * 4) * 2
    value = kappa(bundle, "e^3")
    _ensure(value == expected, f"kappa of e^3 came out {value}")
    _ensure(str(value) == "2*c1^2 - 8*c2", f"kappa of e^3 prints as {value}")
    return "rank-2 projectivization: kappa(e^2) = 0, kappa(e^3) = 2*c1^2 - 8*c2"


def _check_kappa_product_vanishing() -> str:
    bundle = product_bundle(spaces.sphere(12), spaces.hp(2))
    for cls in ["p1", "e*p1", "p1^2*p2", "e^3"]:
        value = kappa(bundle, cls)
        _ensure(value.is_zero(), f"kappa_{cls} of a product bundle came out {value}")
    top = kappa(bundle, "p2")
    _ensure(
        top == bundle.base_ring.one() * 7,
        f"kappa_p2 should be the characteristic number 7, got {top}",
    )
    return "off-dimension kappa classes vanish; the top one is the fibre number"


def _l_logs_by_recurrence(n: int) -> list[Fraction]:
    """k a_k of sqrt(z)/tanh(sqrt(z)) from its series q_k = 4^k B_2k / (2k)!,
    by k a_k = k q_k - sum_{j<k} j a_j q_{k-j}: the oracle for the closed
    form that ``l_sequence`` uses."""
    q = [4 ** k * bernoulli(2 * k) / factorial(2 * k) for k in range(1, n + 1)]
    logs: list[Fraction] = []
    for k in range(1, n + 1):
        lower = sum((logs[j - 1] * q[k - j - 1] for j in range(1, k)), Fraction(0))
        logs.append(k * q[k - 1] - lower)
    return logs


def _check_l_leading_coefficients() -> str:
    seq = MultiplicativeSequence(_l_logs_by_recurrence)
    for n in range(1, 6):
        computed = seq.k_polynomial(n).coefficient(f"p{n}")
        closed = l_leading_coefficient(n)
        _ensure(
            computed == closed == _PRINTED_LEADING[n - 1],
            f"leading coefficient at weight {n}: expansion {computed}, "
            f"closed form {closed}",
        )
    return "expansion and closed form agree through weight 5"


def _check_l_table_weight5() -> str:
    seq = l_sequence()
    k5 = seq.k_polynomial(5)
    printed = weight_ring(5).poly(_PRINTED_L5)
    _ensure(k5 == printed, f"weight-5 polynomial differs from the table: {k5}")
    return "computed weight-5 polynomial matches the published table exactly"


def _check_l4_homogeneous_reading() -> str:
    seq = l_sequence()
    k4 = seq.k_polynomial(4)
    ring = weight_ring(4)
    corrected = ring.poly(_PRINTED_L4_CORRECTED)
    literal = ring.poly(_PRINTED_L4_LITERAL)
    _ensure(
        k4 == corrected,
        f"weight-4 polynomial differs even from the degree-corrected table: {k4}",
    )
    _ensure(
        k4 != literal,
        "literal table reading unexpectedly matches; the typo note is stale",
    )
    return (
        "published weight-4 table matches only under the degree-correct "
        "reading p3*p1 of its printed 71*p2*p1 term (an off-grading typo, "
        "reported here rather than suppressed)"
    )


def _check_section5_golden() -> str:
    report = counterexample.run(1)
    ring = report.p4.ring
    _ensure(
        report.p_low_unchanged == (True, True, True),
        f"low classes moved: {report.p_low_unchanged}",
    )
    _ensure(
        report.p4 == ring.poly("4725/127*x*y"), f"p4 came out {report.p4}"
    )
    _ensure(
        report.p5 == ring.poly("124065/9271*x*y^2"), f"p5 came out {report.p5}"
    )
    _ensure(report.sign_fibre == 1, f"fibre signature {report.sign_fibre}")
    _ensure(report.casson == 0, f"obstruction {report.casson}")
    _ensure(
        report.kappa_p5_integral == Fraction(124065, 9271),
        f"p5 integral {report.kappa_p5_integral}",
    )
    return "R = 1 run reproduces p4, p5, the zero obstruction, and the integral"


def _check_section5_linearity() -> str:
    base = counterexample.run(1)
    values = [Fraction(2), Fraction(5), Fraction(-3), Fraction(10)]
    for r in values:
        report = counterexample.run(r)
        _ensure(report.p4 == base.p4 * r, f"p4 not linear at R = {r}")
        _ensure(report.p5 == base.p5 * r, f"p5 not linear at R = {r}")
        _ensure(
            report.kappa_p5_integral == base.kappa_p5_integral * r,
            f"integral not linear at R = {r}",
        )
        _ensure(report.casson == 0, f"obstruction nonzero at R = {r}")
        _ensure(
            report.p_low_unchanged == (True, True, True),
            f"low classes moved at R = {r}",
        )
    zero = counterexample.run(0)
    _ensure(zero.p4.is_zero() and zero.p5.is_zero(), "R = 0 should solve to zero")
    _ensure(zero.kappa_p5_integral == 0, "R = 0 integral should vanish")
    shown = ", ".join(str(r) for r in values)
    return f"solved classes scale linearly at R in {{{shown}}} and vanish at R = 0"


def _check_sign_hp2() -> str:
    value = evaluate_genus(spaces.hp(2), l_sequence())
    _ensure(value == 1, f"HP^2 signature came out {value}")
    return "signature of HP^2 evaluates to 1"


def _check_sign_s12() -> str:
    value = evaluate_genus(spaces.sphere(12), l_sequence())
    _ensure(value == 0, f"S^12 signature came out {value}")
    both = evaluate_genus(
        spaces.product_space(spaces.hp(2), spaces.hp(2, gen="z")), l_sequence()
    )
    _ensure(both == 1, f"HP^2 x HP^2 signature came out {both}")
    return "signature of S^12 is 0 (and 1 for HP^2 x HP^2)"


def _pentagonal_partition_counts(limit: int) -> list[int]:
    """Partition counts by Euler's pentagonal-number recurrence."""
    counts = [1]
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts.append(total)
    return counts


def _check_symmetric_oracle() -> str:
    _ensure(
        partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)],
        "partitions(4) enumeration order broke",
    )
    counts = _pentagonal_partition_counts(12)
    for n in range(13):
        _ensure(
            len(partitions(n)) == counts[n],
            f"partition count at {n}: {len(partitions(n))} vs {counts[n]}",
        )
    _ensure(counts[10] == 42, "partition count of 10 should be 42")
    rng = random.Random(20260819)
    point_ring = Ring(0, [])
    checked = 0
    for weight in range(1, 7):
        for lam in partitions(weight):
            poly = monomial_to_elementary(lam, weight)
            for _ in range(3):
                point = [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(weight)
                ]
                e_values = elementary_values(point, weight)
                via_basis = poly.substitute(
                    {f"e{j}": e_values[j - 1] for j in range(1, weight + 1)}, point_ring
                ).constant_term()
                direct = symfun_eval({lam: 1}, point)
                _ensure(
                    via_basis == direct,
                    f"basis conversion disagrees with direct evaluation on "
                    f"{lam} at {point}",
                )
                checked += 1
    return (
        "partition counts match the pentagonal recurrence and the basis "
        f"conversion matches direct evaluation on {checked} seeded points"
    )


_CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("bso-presentations", _check_bso_presentations),
    ("gysin-projection-formula", _check_projection_formula),
    ("json-round-trip", _check_json_round_trip),
    ("kappa-euler-characteristic", _check_kappa_euler),
    ("kappa-product-vanishing", _check_kappa_product_vanishing),
    ("kappa-projectivization-powers", _check_kappa_projectivization_powers),
    ("l-leading-coefficients", _check_l_leading_coefficients),
    ("l-table-weight-5", _check_l_table_weight5),
    ("paper-L4-homogeneous-reading", _check_l4_homogeneous_reading),
    ("section5-golden", _check_section5_golden),
    ("section5-linearity", _check_section5_linearity),
    ("sign-HP2-equals-1", _check_sign_hp2),
    ("sign-S12-equals-0", _check_sign_s12),
    ("symmetric-oracle", _check_symmetric_oracle),
]


def run_checks() -> list[CheckResult]:
    """Run every check; never raises.  Results sorted by check id."""
    results = []
    for check_id, func in sorted(_CHECKS, key=lambda item: item[0]):
        try:
            detail = func()
            results.append(CheckResult(check_id, True, detail))
        except Exception as exc:  # noqa: BLE001 - failures become report rows
            results.append(CheckResult(check_id, False, f"{type(exc).__name__}: {exc}"))
    return results
