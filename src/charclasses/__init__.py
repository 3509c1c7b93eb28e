"""Exact symbolic engine for characteristic-class computations.

Graded-commutative polynomial rings with monomial rewrite relations,
multiplicative sequences evaluated and inverted by one kernel (log of a
total class, scale, exp), cohomology models of spheres and projective
spaces, fibre integration for bundle models, and the perturbed
signature-class construction over S^12 x HP^2.  All arithmetic is
exact: rationals in characteristic zero, integers mod p otherwise.

The names in ``__all__`` are exported lazily (PEP 562): ``import
charclasses`` loads no submodule, and ``charclasses.kappa`` imports
``charclasses.bundles`` on first access.  Each access looks the name up in
its submodule again, with no copy kept in this namespace, so a function
patched in its own module is the one every later access returns.  Each
CLI process then loads only the submodules its subcommand uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "kappa": "bundles",
    "product_bundle": "bundles",
    "projectivize": "bundles",
    "CounterexampleReport": "counterexample",
    "report_document": "counterexample",
    "run": "counterexample",
    "succeeded": "counterexample",
    "MultiplicativeSequence": "genus",
    "ahat_sequence": "genus",
    "bernoulli": "genus",
    "evaluate_genus": "genus",
    "l_leading_coefficient": "genus",
    "l_sequence": "genus",
    "weight_ring": "genus",
    "FieldError": "rings",
    "GradedPoly": "rings",
    "Ring": "rings",
    "tensor_ring": "rings",
    "transport": "rings",
    "PrimeScalar": "scalars",
    "format_rational": "scalars",
    "parse_rational": "scalars",
    "SpaceModel": "spaces",
    "bso_presentation": "spaces",
    "chern_to_pontryagin": "spaces",
    "cp": "spaces",
    "hp": "spaces",
    "integrate": "spaces",
    "point": "spaces",
    "product_space": "spaces",
    "sphere": "spaces",
    "monomial_to_elementary": "symfun",
    "partitions": "symfun",
    "symfun_eval": "symfun",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
