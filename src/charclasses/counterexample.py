"""The perturbed-signature-class computation over S^12 x HP^2.

Fibre bundles that are only block bundles need not have a vector-bundle
tangent substitute, and this pipeline reproduces the computation that
detects that: take the product E = S^12 x HP^2, perturb its total
signature class by R*x*y in degree 16 (x the sphere class, y the
quaternionic class), and solve the signature equations degree by degree
for the Pontryagin classes a genuine tangent bundle would need.

The solved classes come out as

    p_1 = 2y,  p_2 = 7y^2,  p_3 = 0,
    p_4 = (4725/127) R x y,  p_5 = (124065/9271) R x y^2,

so the low classes are untouched, the index-theoretic obstruction of the
fibre (an eighth of the signature defect) vanishes, and yet for R != 0 the
integral of p_5 over E, which equals the kappa class integral
of p_5 for the fibration over S^12, is nonzero: no vector bundle model
exists, while all classical obstructions are silent.

``run`` performs the whole computation for a given R and returns a report;
``report_document`` fixes the JSON shape emitted by the command line.  The
sizes are derived from the spaces: the solve runs to weight dim E / 4, and
the fibre signature pairs the degree of the fibre's dimension.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .genus import evaluate_genus, l_sequence, solve_pontryagin
from .rings import GradedPoly
from .scalars import format_rational
from .spaces import SpaceModel, hp, integrate, product_space, sphere

__all__ = [
    "CounterexampleReport",
    "build_total_space",
    "casson_obstruction",
    "fibre_signature",
    "report_document",
    "run",
    "succeeded",
]

class CounterexampleReport(NamedTuple):
    """Everything the perturbed computation produces for one value of R."""

    R: Fraction
    p_low_unchanged: tuple[bool, bool, bool]
    p4: GradedPoly
    p5: GradedPoly
    sign_fibre: Fraction
    casson: Fraction
    kappa_p5_integral: Fraction


def build_total_space() -> SpaceModel:
    """S^12 x HP^2 with sphere generator x and quaternionic generator y."""
    return product_space(sphere(12, gen="x"), hp(2, gen="y"))


def fibre_signature(
    total_l: GradedPoly, space: SpaceModel, fibre_dual: GradedPoly
) -> Fraction:
    """Signature of the fibre read off the total signature class.

    Pairs the part of total_l in the fibre's degree, dim E - deg(fibre_dual),
    against the Poincare dual of the fibre, here the pulled-back base
    fundamental class.
    """
    # a zero dual has no degree, and pairs to 0 in any
    fibre_dim = space.dimension - (fibre_dual.degree() or 0)
    return integrate(space, total_l.graded_component(fibre_dim) * fibre_dual)


def casson_obstruction(
    total_l: GradedPoly, space: SpaceModel, fibre_dual: GradedPoly
) -> Fraction:
    """An eighth of the fibre signature defect against HP^2.

    The reference signature is computed, not assumed: it is the genus of
    the built-in HP^2 model under the signature sequence.
    """
    sign_f = fibre_signature(total_l, space, fibre_dual)
    reference = evaluate_genus(hp(2), l_sequence())
    return (sign_f - reference) / 8


def run(R: Fraction | int = 1) -> CounterexampleReport:
    """Perturb the signature class of S^12 x HP^2 by R*x*y and solve."""
    R = Fraction(R)
    space = build_total_space()
    ring = space.ring
    weight = space.dimension // 4
    seq = l_sequence()
    x = ring.gen("x")
    y = ring.gen("y")

    target = seq.total_class(space.total_p, weight) + x * y * R

    solved: list[GradedPoly] = []
    for _ in range(weight):
        solved.append(solve_pontryagin(seq, target, solved))

    p_low_unchanged = tuple(
        solved[i] == space.total_p.graded_component(4 * (i + 1)) for i in range(3)
    )
    return CounterexampleReport(
        R=R,
        p_low_unchanged=p_low_unchanged,
        p4=solved[3],
        p5=solved[4],
        sign_fibre=fibre_signature(target, space, x),
        casson=casson_obstruction(target, space, x),
        kappa_p5_integral=integrate(space, solved[4]),
    )


def report_document(report: CounterexampleReport) -> dict:
    """JSON-ready document for a report.

    Keys, in order: R, p_low_unchanged, p4, p5, sign_F, casson,
    p5_integral.  Rationals render as "a/b", polynomials in the canonical
    text syntax.
    """
    return {
        "R": format_rational(report.R),
        "p_low_unchanged": list(report.p_low_unchanged),
        "p4": str(report.p4),
        "p5": str(report.p5),
        "sign_F": format_rational(report.sign_fibre),
        "casson": format_rational(report.casson),
        "p5_integral": format_rational(report.kappa_p5_integral),
    }


def succeeded(report: CounterexampleReport) -> bool:
    """The mathematical acceptance condition for one run.

    The obstruction must vanish, and unless R = 0 the p_5 integral must be
    nonzero (that nonzero integral is the point of the computation).
    """
    if report.casson != 0:
        return False
    if report.R == 0:
        return True
    return report.kappa_p5_integral != 0
