"""Exact computational laboratory for coefficientwise (binomially
weighted) polynomial composition, its entire-function analog on e^x * P,
the induced affine coefficient maps, and the root-location phenomena
they produce.

All algebra runs over exact rationals; numerical root extraction is an
optional enrichment backed by a pure-Python simultaneous-iteration
(Aberth-Ehrlich) kernel.
"""

from .decompose import (
    AffineMap,
    Decomposition,
    DegreeDeficientError,
    decompose_exp,
    decompose_poly,
    decomposition_from_json,
    decomposition_map,
    decomposition_to_json,
    exp_monic_to_normalized,
    exp_normalized_to_monic,
    extract_core,
    localization_intervals,
    padded_core,
    recompose,
)
from .exact import binomial, format_rational, parse_rational
from .poly import (
    ExpPoly,
    Poly,
    exp_poly_from_json,
    exp_poly_to_json,
    falling_factorial_poly,
    falling_factorial_transform,
    interpolate,
    inverse_falling_factorial_transform,
    iterate_falling_factorial_transform,
    poly_from_json,
    poly_gcd,
    poly_to_json,
)
from .roots import (
    BOUNDARY_OR_UNCERTAIN,
    INSIDE,
    OUTSIDE,
    Hyperbolicity,
    RegionVerdict,
    RootFindingError,
    aberth_roots,
    cluster_roots,
    hurwitz_determinants,
    is_hyperbolic,
    kernel_backend,
    region_membership,
    sign_changes,
    square_free_decomposition,
    sturm_count,
    taylor_window_bound,
)
from .ssc import (
    AmbientDegreeError,
    SscContext,
    compose,
    composition_factor,
    derivative_identities_hold,
    exp_compose,
    exp_composition_factor,
)

__version__ = "0.1.0"

# The verification suites (and datetime with them) load on first use of
# szego.verify or of a name below: compose, decompose, phi and xi-iterate
# never need them.  The first use binds the names here, as an eager
# import would have.
_FROM_VERIFY = ("CheckReport", "available_checks", "run_suite")


def __getattr__(name: str):
    if name == "verify" or name in _FROM_VERIFY:
        import importlib

        verify = importlib.import_module(".verify", __name__)
        globals().update({attr: getattr(verify, attr) for attr in _FROM_VERIFY})
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AffineMap",
    "AmbientDegreeError",
    "BOUNDARY_OR_UNCERTAIN",
    "CheckReport",
    "Decomposition",
    "DegreeDeficientError",
    "ExpPoly",
    "Hyperbolicity",
    "INSIDE",
    "OUTSIDE",
    "Poly",
    "RegionVerdict",
    "RootFindingError",
    "SscContext",
    "aberth_roots",
    "available_checks",
    "binomial",
    "cluster_roots",
    "compose",
    "composition_factor",
    "decompose_exp",
    "decompose_poly",
    "decomposition_from_json",
    "decomposition_map",
    "decomposition_to_json",
    "derivative_identities_hold",
    "exp_compose",
    "exp_composition_factor",
    "exp_monic_to_normalized",
    "exp_normalized_to_monic",
    "exp_poly_from_json",
    "exp_poly_to_json",
    "extract_core",
    "falling_factorial_poly",
    "falling_factorial_transform",
    "format_rational",
    "hurwitz_determinants",
    "interpolate",
    "inverse_falling_factorial_transform",
    "is_hyperbolic",
    "iterate_falling_factorial_transform",
    "kernel_backend",
    "localization_intervals",
    "padded_core",
    "parse_rational",
    "poly_from_json",
    "poly_gcd",
    "poly_to_json",
    "recompose",
    "region_membership",
    "run_suite",
    "sign_changes",
    "square_free_decomposition",
    "sturm_count",
    "taylor_window_bound",
]
