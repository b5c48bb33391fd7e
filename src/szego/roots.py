"""Root analysis: exact Sturm counting, numerical simultaneous root
finding, sign-change counting, the Taylor-window truncation bound, and
membership tests for three coefficient-space regions.

The regions, for monic P = x^n + c_1 x^{n-1} + ... + c_n over the
coefficient vector (c_1..c_n):
  sign cone      (-1)^i c_i >= 0 for all i
  hyperbolicity  all roots of P real
  right half-plane  all roots with nonnegative real part (closed set)
Known containments, asserted by the property tests:
(hyperbolicity cone intersect sign cone) subset of half-plane region
subset of sign cone.

The numerical root finder runs the pure-Python Aberth kernel in
_roots_py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _roots_py as _kernel
from .poly import NEG_INF, Poly, poly_gcd

__all__ = [
    "kernel_backend",
    "RootFindingError",
    "aberth_roots",
    "cluster_roots",
    "sturm_count",
    "square_free_decomposition",
    "is_hyperbolic",
    "Hyperbolicity",
    "sign_changes",
    "taylor_window_bound",
    "hurwitz_determinants",
    "RegionVerdict",
    "region_membership",
    "INSIDE",
    "OUTSIDE",
    "BOUNDARY_OR_UNCERTAIN",
]


def kernel_backend() -> str:
    """Name of the root-iteration kernel, recorded in report metadata."""
    return "python"


class RootFindingError(RuntimeError):
    """Non-convergence; carries the best iterate for inspection."""

    def __init__(self, message: str, roots, residuals):
        super().__init__(message)
        self.roots = tuple(roots)
        self.residuals = tuple(residuals)


def aberth_roots(p: Poly, tol: float = 1e-12, max_iter: int = 400) -> tuple[complex, ...]:
    """All complex roots of p (degree >= 1), deterministically ordered.

    Exact zero roots are split off first (they are visible as leading
    zero coefficients), which keeps clusters at the origin exact.  The
    returned tuple is sorted by (real, imaginary).
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    coeffs = p.to_complex()
    mu = 0
    while coeffs[mu] == 0:
        mu += 1
    roots = [0j] * mu
    rest = coeffs[mu:]
    if len(rest) == 2:
        roots.append(-rest[0] / rest[1])
    elif len(rest) > 2:
        found, residuals, _, ok = _kernel.solve(rest, tol, max_iter)
        if not ok:
            raise RootFindingError(
                f"root iteration did not converge in {max_iter} sweeps "
                f"(max residual {max(residuals):.3e})",
                found,
                residuals,
            )
        roots.extend(found)
    return tuple(sorted(roots, key=lambda z: (z.real, z.imag)))


def cluster_roots(
    roots: Sequence[complex], rel_tol: float = 1e-6
) -> list[tuple[complex, int]]:
    """Group numerically coincident roots; returns (center, multiplicity).

    Union-find over pairs closer than rel_tol times the root scale
    max(1, max|z|); centers are cluster means, output sorted like
    aberth_roots.
    """
    pts = list(roots)
    if not pts:
        return []
    scale = max(1.0, max(abs(z) for z in pts))
    cut = rel_tol * scale
    parent = list(range(len(pts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= cut:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[complex]] = {}
    for i, z in enumerate(pts):
        groups.setdefault(find(i), []).append(z)
    out = [
        (sum(g) / len(g), len(g))
        for g in groups.values()
    ]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


# -- exact real-root counting -------------------------------------------------


def _primitive(p: Poly) -> Poly:
    """Scale by a positive rational so coefficients are coprime integers."""
    if p.is_zero:
        return p
    lcm = 1
    for c in p.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in p.coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return Poly([v // g for v in ints])


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [_primitive(p), _primitive(p.derivative())]
    if chain[1].is_zero:
        return chain[:1]
    while True:
        rem = chain[-2] % chain[-1]
        if rem.is_zero:
            return chain
        chain.append(_primitive(-rem))


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(chain: list[Poly], at) -> int:
    """Sign variations of the chain at a point, +-infinity included.

    Zeros are skipped, which makes the count correct for intervals of
    the form (lo, hi]: a root sitting exactly at an endpoint is counted
    at hi and not at lo.
    """
    signs = []
    for q in chain:
        if q.is_zero:
            continue
        if at is _NEGINF:
            s = _sign(q.lead) * (-1) ** (q.degree % 2)
        elif at is _POSINF:
            s = _sign(q.lead)
        else:
            s = _sign(q(at))
        if s != 0:
            signs.append(s)
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


_NEGINF = object()
_POSINF = object()


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's decomposition p = lead * prod f_i^i with f_i square-free,
    pairwise coprime, monic; only nonconstant f_i are returned."""
    if not p.is_exact:
        raise ValueError("square-free decomposition requires exact input")
    if p.is_zero:
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree < 1:
        return []
    g = poly_gcd(p, p.derivative())
    if g.degree < 1:
        return [(p, 1)]
    out = []
    b = p // g
    c = p.derivative() // g
    d = c - b.derivative()
    i = 1
    while b.degree >= 1:
        a = poly_gcd(b, d) if not d.is_zero else b.monic()
        if a.degree >= 1:
            out.append((a, i))
        b = b // a
        if b.degree < 1:
            break
        c = d // a
        d = c - b.derivative()
        i += 1
    return out


def sturm_count(
    p: Poly,
    lo: Optional[Fraction] = None,
    hi: Optional[Fraction] = None,
    *,
    multiplicity: bool = False,
) -> int:
    """Real roots of exact p in the half-open interval (lo, hi].

    None endpoints mean -infinity / +infinity.  By default distinct
    roots are counted; multiplicity=True weights each by its order,
    using the square-free decomposition.
    """
    if not p.is_exact:
        raise ValueError("Sturm counting requires exact coefficients")
    if p.is_zero:
        raise ValueError("zero polynomial has no root count")
    if p.degree == 0:
        return 0
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError("need lo < hi")
    if multiplicity:
        return sum(
            mult * sturm_count(f, lo, hi)
            for f, mult in square_free_decomposition(p)
        )
    sf = p // poly_gcd(p, p.derivative()) if p.degree >= 2 else p
    chain = _sturm_chain(sf)
    a = _NEGINF if lo is None else Fraction(lo)
    b = _POSINF if hi is None else Fraction(hi)
    return _variations(chain, a) - _variations(chain, b)


@dataclass(frozen=True)
class Hyperbolicity:
    hyperbolic: bool
    distinct: bool

    def __bool__(self) -> bool:
        return self.hyperbolic


def is_hyperbolic(p: Poly) -> Hyperbolicity:
    """Whether all roots of exact p are real; distinct iff gcd(p,p') constant.

    Constants (degree 0) are vacuously hyperbolic with distinct roots.
    """
    if not p.is_exact:
        raise ValueError("hyperbolicity test requires exact coefficients")
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return Hyperbolicity(True, True)
    g = poly_gcd(p, p.derivative())
    distinct = g.degree == 0
    sf = p if distinct else p // g
    return Hyperbolicity(sturm_count(sf) == sf.degree, distinct)


# -- sign data ----------------------------------------------------------------


def sign_changes(seq: Sequence) -> int:
    """Sign alternations after deleting zeros (Descartes convention)."""
    signs = []
    for v in seq:
        s = (v > 0) - (v < 0)
        if s != 0:
            signs.append(s)
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def taylor_window_bound(p: Poly) -> int:
    """Window length for Taylor-sequence sign counting of e^x * p.

    For monic p = x^m + d_1 x^{m-1} + ... + d_m (non-monic exact input is
    normalized first), with d = sum |d_i|, every Taylor numerator with
    index j > d + m - 1 is strictly positive; N = floor(d) + m + 1 is
    safely beyond, so indices 0..N carry all sign changes of the full
    infinite sequence.
    """
    if not p.is_exact:
        raise ValueError("bound requires exact coefficients")
    if p.is_zero:
        raise ValueError("zero polynomial")
    q = p.monic()
    m = q.degree
    d = sum(abs(c) for c in q.coeffs[:-1])
    return math.floor(d) + m + 1


# -- half-plane membership ----------------------------------------------------


def hurwitz_determinants(p: Poly) -> list[Fraction]:
    """Leading principal minors of the Hurwitz matrix of exact p.

    p = a_0 x^n + a_1 x^{n-1} + ... + a_n with a_0 > 0 required; all
    minors positive is equivalent to every root having negative real
    part, and (all nonzero, some negative) implies a root with positive
    real part.
    """
    if not p.is_exact or p.is_zero:
        raise ValueError("need a nonzero exact polynomial")
    desc = list(reversed(p.coeffs))  # a_0 .. a_n
    if desc[0] <= 0:
        raise ValueError("leading coefficient must be positive")
    n = len(desc) - 1

    def entry(i: int, j: int) -> Fraction:  # 1-based Hurwitz indexing
        idx = 2 * j - i
        if 0 <= idx <= n:
            return desc[idx]
        return Fraction(0)

    minors = []
    for k in range(1, n + 1):
        mat = [[entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)]
        minors.append(_det(mat))
    return minors


def _det(mat: list[list[Fraction]]) -> Fraction:
    """Fraction Gaussian elimination with partial pivot by nonzero."""
    n = len(mat)
    m = [row[:] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


INSIDE = "inside"
OUTSIDE = "outside"
BOUNDARY_OR_UNCERTAIN = "boundary_or_uncertain"


@dataclass(frozen=True)
class RegionVerdict:
    """Membership report for the monic polynomial behind a (c_1..c_n) vector.

    right_halfplane is tri-state: the Hurwitz minors decide strict
    interior and strict exterior exactly; vanishing minors (imaginary
    axis roots) fall back to a numerically refined
    'boundary_or_uncertain'.  The region itself is closed, so a
    boundary verdict is consistent with membership.
    """

    in_sign_cone: bool
    hyperbolic: bool
    right_halfplane: str
    witness_roots: Optional[tuple[complex, ...]] = None


def region_membership(c: Sequence[Fraction], refine_tol: float = 1e-9) -> RegionVerdict:
    """Classify the monic polynomial x^n + c_1 x^{n-1} + ... + c_n."""
    cvec = [Fraction(x) for x in c]
    n = len(cvec)
    p = Poly(list(reversed(cvec)) + [Fraction(1)])

    cone = all((-1) ** (i + 1) * ci >= 0 for i, ci in enumerate(cvec))
    hyp = is_hyperbolic(p).hyperbolic if n >= 1 else True

    if n == 0:
        return RegionVerdict(cone, hyp, INSIDE)

    # reflect: q(x) = +-p(-x) with positive leading coefficient; roots of
    # p lie strictly in the right half-plane iff q is Hurwitz-stable
    refl = [(-1) ** i * coeff for i, coeff in enumerate(p.coeffs)]
    if refl[-1] < 0:
        refl = [-v for v in refl]
    q = Poly(refl)

    minors = hurwitz_determinants(q)
    witnesses = None
    if all(d > 0 for d in minors):
        verdict = INSIDE
    elif all(d != 0 for d in minors):
        verdict = OUTSIDE
    else:
        witnesses = aberth_roots(p)
        if all(z.real > refine_tol * max(1.0, abs(z)) for z in witnesses):
            verdict = INSIDE
        elif any(z.real < -refine_tol * max(1.0, abs(z)) for z in witnesses):
            verdict = OUTSIDE
        else:
            verdict = BOUNDARY_OR_UNCERTAIN
    return RegionVerdict(cone, hyp, verdict, witnesses)
