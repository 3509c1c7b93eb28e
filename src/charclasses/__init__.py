"""Exact symbolic engine for characteristic-class computations.

Graded-commutative polynomial rings with monomial rewrite relations,
multiplicative sequences evaluated by Newton's identities, cohomology models
of spheres and projective spaces, fibre integration for bundle models, and
the perturbed signature-class construction over S^12 x HP^2.  All
arithmetic is exact: rationals in characteristic zero, integers mod p
otherwise.
"""

from .bundles import BundleModel, kappa, product_bundle, projectivize
from .counterexample import CounterexampleReport, report_document, run, succeeded
from .genus import (
    MultiplicativeSequence,
    ahat_sequence,
    bernoulli,
    evaluate_genus,
    l_leading_coefficient,
    l_sequence,
    solve_pontryagin,
    weight_ring,
)
from .rings import GradedPoly, Ring, tensor_ring, transport
from .scalars import PrimeScalar, format_rational, parse_rational
from .spaces import (
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
from .symfun import monomial_to_elementary, partitions, symfun_eval

__version__ = "0.1.0"

__all__ = [
    "BundleModel",
    "CounterexampleReport",
    "GradedPoly",
    "MultiplicativeSequence",
    "PrimeScalar",
    "Ring",
    "SpaceModel",
    "ahat_sequence",
    "bernoulli",
    "bso_presentation",
    "chern_to_pontryagin",
    "cp",
    "evaluate_genus",
    "format_rational",
    "hp",
    "integrate",
    "kappa",
    "l_leading_coefficient",
    "l_sequence",
    "monomial_to_elementary",
    "parse_rational",
    "partitions",
    "point",
    "product_bundle",
    "product_space",
    "projectivize",
    "report_document",
    "run",
    "solve_pontryagin",
    "sphere",
    "succeeded",
    "symfun_eval",
    "tensor_ring",
    "transport",
    "weight_ring",
    "__version__",
]
