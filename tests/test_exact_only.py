"""The exact-only contract: every arithmetic entry point refuses a complex
Poly and a float or complex parameter, sigma or coefficient with the one
ValueError of ``poly._inexact`` (never rounding a float to a rational),
an entry of any other non-rational type with a TypeError, and a complex
Poly survives only as a container for the numerical root finder."""

import functools
import random
from fractions import Fraction

import pytest

from szego import (
    AffineMap,
    Decomposition,
    ExpPoly,
    Poly,
    SscContext,
    aberth_roots,
    compose,
    composition_factor,
    decompose_exp,
    decompose_poly,
    decomposition_map,
    exp_compose,
    exp_composition_factor,
    exp_monic_to_normalized,
    exp_normalized_to_monic,
    falling_factorial_transform,
    hurwitz_determinants,
    interpolate,
    inverse_falling_factorial_transform,
    is_hyperbolic,
    iterate_falling_factorial_transform,
    padded_core,
    poly_gcd,
    recompose,
    region_membership,
    square_free_decomposition,
    sturm_count,
    taylor_window_bound,
)
from szego.roots import place_positive_roots

GUARD = "requires exact polynomials and rational scalars"
C = Poly([1j, 1])  # complex, degree 1
E = Poly([1, Fraction(1, 2), 1])  # exact, degree 2


def _finite(sigma):
    return Decomposition(mode="finite", sigma=sigma, n=len(sigma), k=2)


INEXACT = {
    "mul": lambda: E * C,
    "mul_reflected": lambda: C * E,
    "mul_by_float": lambda: E * 0.5,
    "mul_by_complex_reflected": lambda: 2j * E,
    "add": lambda: E + C,
    "sub": lambda: C - E,
    "neg": lambda: -C,
    "pow": lambda: C**2,
    "divmod": lambda: divmod(E, C),
    "derivative": lambda: C.derivative(),
    "monic": lambda: C.monic(),
    "call": lambda: C(1),
    "call_at_float": lambda: E(0.5),
    "monomial": lambda: Poly.monomial(2, 1.5),
    "from_roots_float_root": lambda: Poly.from_roots([1, 2.0]),
    "from_roots_complex_lead": lambda: Poly.from_roots([1, -2], 2j),
    "gamma": lambda: ExpPoly(C).gamma(1),
    "gamma_numerators": lambda: ExpPoly(C).gamma_numerators(3),
    "transform": lambda: falling_factorial_transform(C),
    "inverse_transform": lambda: inverse_falling_factorial_transform(C),
    "iterate_transform": lambda: iterate_falling_factorial_transform(C, 2),
    "interpolate": lambda: interpolate([(0, 1), (1, 0.5)]),
    "poly_gcd": lambda: poly_gcd(E, C),
    "compose": lambda: compose(E, Poly([1.0, 2.0, 0.5]), SscContext(2)),
    "compose_low_degree_operand": lambda: compose(C, E, SscContext(2)),
    "composition_factor_float": lambda: composition_factor(2, 1, 0.5),
    "composition_factor_complex": lambda: composition_factor(1, 1, 1j),
    "exp_compose": lambda: exp_compose(ExpPoly(E), ExpPoly(C)),
    "exp_composition_factor": lambda: exp_composition_factor(0.5),
    "recompose_float_sigma": lambda: recompose(_finite((0.1, Fraction(-3, 4)))),
    "recompose_complex_sigma": lambda: recompose(_finite((3 + 1j, 2 + 2j, Fraction(-1, 3)))),
    "recompose_exp_sigma": lambda: recompose(
        Decomposition(mode="exp", sigma=(0.5,), m=1, convention="normalized")
    ),
    "sturm_count": lambda: sturm_count(C),
    "square_free_decomposition": lambda: square_free_decomposition(C),
    "place_positive_roots": lambda: place_positive_roots(C, [0, None]),
    "is_hyperbolic": lambda: is_hyperbolic(C),
    "taylor_window_bound": lambda: taylor_window_bound(C),
    "hurwitz_determinants": lambda: hurwitz_determinants(C),
    "sturm_count_float_endpoint": lambda: sturm_count(E, 0.5),
    "place_positive_roots_float_break": lambda: place_positive_roots(
        Poly.from_roots([1, 2]), [0, 0.5, None]
    ),
}

# the entry points that take a coefficient vector, checked by poly._rationals
VECTOR_INPUT = {
    "decompose_poly": lambda c: decompose_poly(c, 2, 1, want_roots=False),
    "decompose_exp": lambda c: decompose_exp(c, want_roots=False),
    "padded_core": lambda c: padded_core(c, 2, 1),
    "region_membership": region_membership,
    "affine_map_apply": decomposition_map("finite", n=2, k=1).apply,
    "exp_normalized_to_monic": exp_normalized_to_monic,
    "exp_monic_to_normalized": exp_monic_to_normalized,
}
INEXACT.update(
    (f"{name}_{kind}", functools.partial(call, c))
    for name, call in VECTOR_INPUT.items()
    for kind, c in (("float", [1, 0.5]), ("complex", [1j, 1]))
)
# an AffineMap clears its entries to integer rows when it is built
INEXACT["affine_map_float_entry"] = lambda: AffineMap(((0.1,),), (0,))
INEXACT["affine_map_float_offset"] = lambda: AffineMap(((Fraction(1),),), (0.5,))

NON_NUMERIC = {
    **{name: functools.partial(call, [1, "1/2"]) for name, call in VECTOR_INPUT.items()},
    "from_roots": lambda: Poly.from_roots(["1/2"]),
    "recompose": lambda: recompose(_finite(("1/2", 1))),
    "interpolate": lambda: interpolate([(0, 1), (1, "1/2")]),
    "affine_map_entry": lambda: AffineMap(((Fraction(1),),), ("1/2",)),
    "constructor": lambda: Poly([1, "1/2"]),
    "constructor_beside_a_float": lambda: Poly([0.5, "2"]),
    "call": lambda: E("1/2"),
    "composition_factor": lambda: composition_factor(2, 1, "1/2"),
    "exp_composition_factor": lambda: exp_composition_factor("1/2"),
    "sturm_count_endpoint": lambda: sturm_count(E, "1/2"),
    "place_positive_roots_break": lambda: place_positive_roots(
        Poly.from_roots([1, 2]), [0, "1/2", None]
    ),
}


@pytest.mark.parametrize("call", INEXACT.values(), ids=list(INEXACT))
def test_exact_only_entry_points_reject_inexact_input(call):
    with pytest.raises(ValueError, match=GUARD):
        call()


@pytest.mark.parametrize("call", NON_NUMERIC.values(), ids=list(NON_NUMERIC))
def test_a_non_numeric_entry_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_a_complex_poly_stays_the_root_finders_input():
    # the shape perfbench's roots workload builds: complex coefficients, monic
    rng = random.Random(5)
    d = 9
    cplx = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)] + [1 + 0j]
    p = Poly(cplx)
    assert p.is_exact is False
    assert p.coeffs == tuple(cplx) and p.degree == d
    assert p.lead == 1 and p.constant == cplx[0] and p.coeff(d + 1) == 0
    assert p.to_complex() == cplx
    assert p == Poly(cplx) and hash(p) == hash(Poly(cplx))
    roots = aberth_roots(p)
    assert len(roots) == d
    for z in roots:
        value = sum(c * z**i for i, c in enumerate(cplx))
        assert abs(value) <= 1e-10 * sum(abs(c) * abs(z) ** i for i, c in enumerate(cplx))
