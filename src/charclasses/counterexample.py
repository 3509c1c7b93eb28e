"""The perturbed-signature-class computation over S^12 x HP^2.

Fibre bundles that are only block bundles need not have a vector-bundle
tangent substitute, and this pipeline reproduces the computation that
detects that: take the product E = S^12 x HP^2, perturb its total
signature class by R*x*y in degree 16 (x the sphere class, y the
quaternionic class), and solve the signature equations, in one pass of
the genus kernel read backwards, for the Pontryagin classes a genuine
tangent bundle would need.

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
the fibre signature pairs the degree of the fibre's dimension.  The defect
is taken against the fibre model's own signature, the genus of the HP^2
model the run builds E from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import spaces
from .genus import evaluate_genus, l_sequence
from .rings import GradedPoly
from .scalars import format_rational

__all__ = [
    "CounterexampleReport",
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


def run(R: Fraction | int = 1) -> CounterexampleReport:
    """Perturb the signature class of S^12 x HP^2 by R*x*y and solve."""
    R = Fraction(R)
    fibre = spaces.hp(2, gen="y")
    space = spaces.product_space(spaces.sphere(12, gen="x"), fibre)
    ring = space.ring
    weight = space.dimension // 4
    seq = l_sequence()
    x = ring.gen("x")
    y = ring.gen("y")

    target = seq.total_class(space.total_p, weight) + x * y * R
    solved = seq.pontryagin_parts(target, weight)  # [1, p_1, ..., p_weight]

    p_low_unchanged = tuple(
        solved[i] == space.total_p.graded_component(4 * i) for i in (1, 2, 3)
    )
    # the fibre's part of the class, paired against x, the Poincare dual
    # of a fibre
    sign_fibre = spaces.integrate(space, target.graded_component(fibre.dimension) * x)
    return CounterexampleReport(
        R=R,
        p_low_unchanged=p_low_unchanged,
        p4=solved[4],
        p5=solved[5],
        sign_fibre=sign_fibre,
        casson=(sign_fibre - evaluate_genus(fibre, seq)) / 8,
        kappa_p5_integral=spaces.integrate(space, solved[5]),
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
