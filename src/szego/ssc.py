"""Schur-Szego composition (SSC) of polynomials and of functions e^x * P.

For polynomials the composition divides coefficientwise products by
binomial weights: with A = sum C(N,j) alpha_j x^j and B likewise,
A*B = sum C(N,j) alpha_j beta_j x^j, so [x^j](A*B) = A_j B_j / C(N,j).
The weight degree N is NOT inferable from the operands: padding a
polynomial with zero leading coefficients changes the formula.  Callers
therefore pass an explicit SscContext carrying N, and composition
requires at least one operand to actually have degree N.

For entire functions f = sum gamma_j x^j / j! of the shape e^x * P the
composition multiplies the gamma sequences.  The falling-factorial
transform T generates them, T(P)(j) = gamma_j(e^x * P), so the result
is e^x * R with T(R) = T(P) * T(Q): one polynomial product between the
transform and its inverse, exact, with no interpolation and no
truncated series arithmetic.

Everything here is exact: operands are exact polynomials and factor
parameters are ints or Fractions (``poly._rationals``).  A complex
operand or a float/complex parameter raises ValueError, never rounded
to a rational, and a parameter of any other type a TypeError.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import (
    ExpPoly,
    Poly,
    _exact,
    _inexact,
    _rationals,
    falling_factorial_transform,
    inverse_falling_factorial_transform,
)

__all__ = [
    "AmbientDegreeError",
    "SscContext",
    "compose",
    "composition_factor",
    "exp_compose",
    "exp_composition_factor",
    "derivative_identities_hold",
]


class AmbientDegreeError(ValueError):
    """Raised when the composition's weight degree would be ambiguous."""


class SscContext:
    """Carries the ambient degree N used for the binomial weights.

    N = 0 is permitted (composition of constants is plain multiplication);
    the polynomial theory lives at N >= 1.  Immutable, and compared and
    hashed by N.
    """

    __slots__ = ("_n",)

    def __init__(self, ambient_degree: int) -> None:
        n = ambient_degree
        # a bool is an int to isinstance, but no degree, as in the JSON layer
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError("ambient degree must be a non-negative integer")
        self._n = n

    @property
    def ambient_degree(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"SscContext(ambient_degree={self._n!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._n == other._n

    def __hash__(self) -> int:
        return hash((self._n,))


def compose(a: Poly, b: Poly, ctx: SscContext) -> Poly:
    """SSC of a and b at the context's ambient degree.

    Commutative and associative for a fixed context.  (x+1)^N is the
    unit.
    """
    if a._den is None or b._den is None:
        _inexact("compose")
    n = ctx.ambient_degree
    la, lb = len(a._num), len(b._num)  # degree + 1; no trailing zeros
    if la > n + 1 or lb > n + 1:
        raise ValueError(
            f"operand degree exceeds ambient degree {n}: {a.degree}, {b.degree}"
        )
    if la <= n and lb <= n:
        raise AmbientDegreeError(
            "ambiguous ambient degree: no operand has a nonzero coefficient "
            f"at x^{n}"
        )
    # 1/C(n, j) = j! (n-j)! / n!: integer numerators over one denominator
    f = [math.factorial(j) for j in range(n + 1)]
    return _exact(
        [x * y * f[j] * f[n - j] for j, (x, y) in enumerate(zip(a._num, b._num))],
        a._den * b._den * f[n],
    )


def _ambient_degree(n: int, k: int) -> int:
    """m = n + k, the degree of the factors (x+1)^(m-1) (x+a), for n, k >= 1."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return n + k


def composition_factor(n: int, k: int, a) -> Poly:
    """The degree n+k factor (x+1)^(n+k-1) (x+a) for rational a, built
    coefficientwise.

    [x^s] = C(n+k,s) * ((n+k-s)a + s)/(n+k); the product form is used as
    an independent cross-check in the tests.  The coefficient at x^s
    vanishes exactly when a = -s/(n+k-s).
    """
    m = _ambient_degree(n, k)
    _rationals([a], "composition_factor")
    p, q = a.numerator, a.denominator
    return _exact([math.comb(m, s) * ((m - s) * p + s * q) for s in range(m + 1)], m * q)


def exp_compose(f: ExpPoly, g: ExpPoly) -> ExpPoly:
    """SSC of e^x*P and e^x*Q: multiplies Taylor numerator sequences.

    gamma_j(result) = gamma_j(f) * gamma_j(g) for every j.  With T the
    falling-factorial transform, T(P)(j) = gamma_j(e^x * P), so the
    result is e^x * R where T(R) and T(P) * T(Q) agree at every integer
    j >= 0, hence T(R) = T(P) * T(Q).
    """
    tf = falling_factorial_transform(f.poly)
    tg = falling_factorial_transform(g.poly)
    return ExpPoly(inverse_falling_factorial_transform(tf * tg))


def exp_composition_factor(a) -> ExpPoly:
    """The factor e^x (1 + x/a); its Taylor numerators are 1 + j/a."""
    _rationals([a], "an exp factor")
    if a == 0:
        raise ValueError("kappa factor undefined at 0")
    return ExpPoly(Poly([1, Fraction(a.denominator, a.numerator)]))


def derivative_identities_hold(a: Poly, b: Poly, ctx: SscContext) -> bool:
    """Checks two exact differentiation identities of the composition.

    With N the ambient degree and S a degree <= N-1 polynomial:
      (A*B)' = (1/N) (A' *_{N-1} B')
      (x S) *_N B = (x/N) (S *_{N-1} B')
    The second identity is evaluated with S = (one operand with its x^N
    term dropped) against the other operand B, which must have degree
    exactly N; operands are swapped if needed to satisfy that.
    """
    n = ctx.ambient_degree
    if n < 1:
        raise ValueError("identities need ambient degree >= 1")
    sub = SscContext(n - 1)

    # both identities are compared times N, so no 1/N scaling is built
    composed = compose(a, b, ctx)
    first = composed.derivative() * n == compose(a.derivative(), b.derivative(), sub)

    # compose() has checked both degrees <= N and one of them == N
    if len(b._num) > n:
        s_src, full = a, b
    else:
        s_src, full = b, a
    s = _exact(list(s_src._num[:n]), s_src._den)  # the x^N term dropped
    left = compose(Poly.x() * s, full, ctx)
    right = Poly.x() * compose(s, full.derivative(), sub)
    return first and left * n == right
