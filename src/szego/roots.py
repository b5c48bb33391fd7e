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

import cmath
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from . import _roots_py as _kernel
from .poly import (
    Poly,
    _derivative,
    _exact_quotient,
    _gcd,
    _horner,
    _inexact,
    _monic_poly,
    _monic_tail,
    _primitive_part,
    _rationals,
    _remainder_sequence,
    _subtract,
)

__all__ = [
    "kernel_backend",
    "RootFindingError",
    "aberth_roots",
    "cluster_roots",
    "sturm_count",
    "place_positive_roots",
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


_TOL = 1e-12
_MAX_ITER = 400


def aberth_roots(p: Poly) -> tuple[complex, ...]:
    """All complex roots of p (degree >= 1), deterministically ordered.

    Exact zero roots are split off first (they are visible as leading
    zero coefficients), which keeps clusters at the origin exact.  Every
    other root z is returned with |p(z)| <= _TOL * sum |c_i| |z|^i: it is
    an exact root of p with each coefficient perturbed by a relative
    amount of at most _TOL.  RootFindingError is raised when that is not
    reached in _MAX_ITER sweeps.  The returned tuple is sorted by (real,
    imaginary).  ValueError is raised when a coefficient is not finite,
    overflows a double or the leading one underflows to zero.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    unrepresentable = "coefficients are not representable as complex doubles"
    try:
        coeffs = p.to_complex()
    except OverflowError:
        raise ValueError(unrepresentable) from None
    if not all(map(cmath.isfinite, coeffs)):
        raise ValueError("coefficients must be finite")
    if coeffs[-1] == 0:
        raise ValueError(unrepresentable)
    mu = 0
    while coeffs[mu] == 0:
        mu += 1
    roots = [0j] * mu
    rest = coeffs[mu:]
    if len(rest) == 2:
        roots.append(0j - rest[0] / rest[1])
    elif len(rest) > 2:
        found, residuals, _, ok = _kernel.solve(rest, _TOL, _MAX_ITER)
        if not ok:
            raise RootFindingError(
                f"root iteration did not converge in {_MAX_ITER} sweeps "
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
#
# Counting runs on the integer coefficient lists of poly's fraction-free
# remainder sequences.  A finite endpoint is a pair (a, b) with b > 0
# standing for a/b; None stands for -infinity as lo and +infinity as hi.


def _exact_integers(p: Poly, what: str) -> list[int]:
    """The primitive integer list of p, where every exact root query
    starts: a complex or zero p is a ValueError, a constant gives [+-1]."""
    if p._den is None:
        _inexact(what)
    if not p._num:
        raise ValueError(f"{what} requires a nonzero polynomial")
    return _primitive_part(list(p._num))


def _endpoint(x) -> Optional[tuple[int, int]]:
    if x is None:
        return None
    _rationals([x], "Sturm counting")
    return x.numerator, x.denominator


def _variations(chain: list[list[int]], point, at_infinity: int) -> int:
    """Sign variations of the chain at a point, or at at_infinity * infinity
    when point is None.

    Zeros are skipped, which makes the count correct for intervals of
    the form (lo, hi]: a root sitting exactly at an endpoint is counted
    at hi and not at lo.  At a/b each entry v is read through the
    homogeneous Horner sum, b^deg > 0 times v(a/b).
    """
    if point is not None:
        return sign_changes([_horner(v, *point) for v in chain])
    # the leading sign, flipped at -infinity for odd degree (even length)
    flip = at_infinity < 0
    return sign_changes([-v[-1] if flip and not len(v) % 2 else v[-1] for v in chain])


def _sturm_chain(v: list[int]) -> list[list[int]]:
    return _remainder_sequence(v, _primitive_part(_derivative(v)))


def _count_distinct(v: list[int], lo, hi) -> int:
    """Distinct real roots of v in (lo, hi] for an integer list v of degree
    >= 1.

    The Sturm chain of v ends in g = gcd(v, v'), and divided by g it is
    the Sturm chain of the square-free part.  Wherever g does not vanish
    that division flips every sign or none, so the chain of v counts as
    well.  Only a multiple root sitting on a finite endpoint needs the
    chain of v / g.
    """
    chain = _sturm_chain(v)
    g = chain[-1]
    if len(g) > 1 and any(x is not None and not _horner(g, *x) for x in (lo, hi)):
        chain = _sturm_chain(_exact_quotient(v, g))
    return _variations(chain, lo, -1) - _variations(chain, hi, 1)


def _square_free_factors(v: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on a primitive integer list of degree >= 1: [(f_i, i)]
    with v = +-prod f_i^i and f_i square-free, pairwise coprime and
    nonconstant; a square-free v gives [(v, 1)].

    Each step takes one gcd with its cofactors from poly._gcd: first
    g = gcd(v, v') with b = v/g and c = v'/g, then a = gcd(b, d) with b/a
    and c = d/a for d = c - b'.  b and c carry one common scale factor
    throughout, which keeps the linear step exact; every division is exact
    over Z.
    """
    g, b, c = _gcd(v, _derivative(v))
    if len(g) == 1:
        return [(v, 1)]
    out = []
    i = 1
    while True:
        d = _subtract(c, _derivative(b))
        if d:
            a, b, c = _gcd(b, d)
        else:
            a, b = b, [1]
        if len(a) > 1:
            out.append((a, i))
        if len(b) < 2:
            return out
        i += 1


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's decomposition p = lead * prod f_i^i with f_i square-free,
    pairwise coprime, monic; only nonconstant f_i are returned."""
    v = _exact_integers(p, "square-free decomposition")
    if len(v) == 1:
        return []
    return [(_monic_poly(f), i) for f, i in _square_free_factors(v)]


def sturm_count(
    p: Poly,
    lo: Optional[Fraction] = None,
    hi: Optional[Fraction] = None,
    *,
    multiplicity: bool = False,
) -> int:
    """Real roots of exact p in the half-open interval (lo, hi].

    None endpoints mean -infinity / +infinity; other endpoints must be
    exact rationals (int or Fraction), because a float stands for its
    binary value, not the decimal it was written as.  By default
    distinct roots are counted; multiplicity=True weights each by its
    order, using the square-free decomposition.
    """
    v = _exact_integers(p, "Sturm counting")
    a, b = _endpoint(lo), _endpoint(hi)
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError("need lo < hi")
    if len(v) == 1:
        return 0
    if multiplicity:
        return sum(mult * _count_distinct(f, a, b) for f, mult in _square_free_factors(v))
    return _count_distinct(v, a, b)


_END = object()


def place_positive_roots(p: Poly, breaks: Iterable) -> list[tuple[int, int]]:
    """The windows of the positive roots of exact p, counted with
    multiplicity, in increasing order.

    breaks are increasing exact rationals b_0 = 0 < b_1 < ... that end
    in None (+infinity) or never end; window s is [b_s, b_{s+1}].  A
    root strictly inside window s is placed as (s, s), a root on the
    shared break b_{s+1} as (s, s+1); a root at 0 is not placed.  One
    Sturm chain per square-free factor is read at each break, and the
    breaks are read only until every root is placed.
    """
    v = _exact_integers(p, "root placement")
    it = iter(breaks)
    if next(it, None) != 0:
        raise ValueError("the first break must be 0")
    ends: list = [(0, 1)]  # breaks read so far, as endpoints
    out: list[tuple[int, int]] = []
    if len(v) == 1:
        return out
    for f, mult in _square_free_factors(v):
        chain = _sturm_chain(f)
        below = _variations(chain, ends[0], 1)
        left = below - _variations(chain, None, 1)  # roots in (0, oo)
        s = 0
        while left:
            if s + 1 == len(ends):
                b = next(it, _END)
                if b is _END:
                    raise ValueError("breaks end before every positive root is placed")
                end = _endpoint(b)
                # endpoints have positive denominators: cross-multiply
                if end is not None and end[0] * ends[s][1] <= ends[s][0] * end[1]:
                    raise ValueError("breaks must increase")
                ends.append(end)
            end = ends[s + 1]
            if end is None:
                out += [(s, s)] * (left * mult)
                break
            above = _variations(chain, end, 1)
            inside = below - above  # roots in (b_s, b_{s+1}]
            on = 1 if inside and not _horner(f, *end) else 0
            out += [(s, s)] * ((inside - on) * mult) + [(s, s + 1)] * (on * mult)
            left -= inside
            below = above
            s += 1
    return sorted(out)


class Hyperbolicity(NamedTuple):
    hyperbolic: bool
    distinct: bool

    def __bool__(self) -> bool:
        return self.hyperbolic


def is_hyperbolic(p: Poly) -> Hyperbolicity:
    """Whether all roots of exact p are real; distinct iff gcd(p,p') constant.

    Decided from the square-free factors: p is hyperbolic iff the Sturm
    chain of each factor f counts deg f real roots, and its roots are
    distinct iff the only factor is p itself with multiplicity 1.
    Constants (degree 0) are vacuously hyperbolic with distinct roots.
    """
    v = _exact_integers(p, "the hyperbolicity test")
    if len(v) == 1:
        return Hyperbolicity(True, True)
    factors = _square_free_factors(v)
    real = all(_count_distinct(f, None, None) == len(f) - 1 for f, _ in factors)
    return Hyperbolicity(real, len(factors) == 1 and factors[0][1] == 1)


# -- sign data ----------------------------------------------------------------


def sign_changes(seq: Iterable) -> int:
    """Sign alternations after deleting zeros (Descartes convention).

    One pass that keeps only the last nonzero sign; an entry that is
    neither > 0 nor < 0 (a zero, or a float NaN) is skipped."""
    count = 0
    last = 0
    for v in seq:
        if v > 0:
            if last < 0:
                count += 1
            last = 1
        elif v < 0:
            if last > 0:
                count += 1
            last = -1
    return count


def taylor_window_bound(p: Poly) -> int:
    """Window length for Taylor-sequence sign counting of e^x * p.

    For monic p = x^m + d_1 x^{m-1} + ... + d_m (non-monic exact input is
    normalized first), with d = sum |d_i|, every Taylor numerator with
    index j > d + m - 1 is strictly positive; N = floor(d) + m + 1 is
    safely beyond, so indices 0..N carry all sign changes of the full
    infinite sequence.
    """
    v = _exact_integers(p, "the Taylor window bound")
    return sum(map(abs, v[:-1])) // abs(v[-1]) + len(v)  # floor(d) + m + 1


# -- half-plane membership ----------------------------------------------------


def hurwitz_determinants(p: Poly) -> list[Fraction]:
    """Leading principal minors of the Hurwitz matrix of exact p.

    p = a_0 x^n + a_1 x^{n-1} + ... + a_n with a_0 > 0 required; all
    minors positive is equivalent to every root having negative real
    part, and (all nonzero, some negative) implies a root with positive
    real part.  The minors are taken on the integer numerators of p, so
    the k-th is an integer over den^k.
    """
    if p._den is None:
        _inexact("Hurwitz determinants")
    if p.is_zero:
        raise ValueError("need a nonzero polynomial")
    desc = p._num[::-1]  # numerators of a_0 .. a_n
    if desc[0] <= 0:
        raise ValueError("leading coefficient must be positive")
    n = len(desc) - 1
    hurwitz = _hurwitz_matrix(desc)
    minors = _leading_minors(hurwitz)
    # past a vanishing pivot the pass would need a row swap, which breaks
    # the pivot-minor identity: take each later minor alone
    minors += [_det([row[:k] for row in hurwitz[:k]]) for k in range(len(minors) + 1, n + 1)]
    return [Fraction(d, p._den**k) for k, d in enumerate(minors, 1)]


def _hurwitz_matrix(desc: list[int]) -> list[list[int]]:
    """The n x n Hurwitz matrix of a_0 .. a_n (desc): entry (i, j) is
    a_(2j - i) in 1-based indexing."""
    n = len(desc) - 1
    return [
        [desc[2 * j - i] if 0 <= 2 * j - i <= n else 0 for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def _eliminate(rows: list[list[int]], col: int, prev: int) -> None:
    """One fraction-free (Bareiss) step: clear column col below the
    pivot rows[col][col].  Every update divides exactly by prev, the
    pivot of the step before (1 for the first), so the entries stay
    integer minors of the matrix."""
    top = rows[col]
    lead = top[col]
    for r in range(col + 1, len(rows)):
        a = rows[r][col]
        rows[r] = [0] * (col + 1) + [
            (lead * x - a * y) // prev for x, y in zip(rows[r][col + 1:], top[col + 1:])
        ]


def _det(mat: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination, swapping rows past a zero pivot."""
    rows = list(mat)
    sign = prev = 1
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        _eliminate(rows, col, prev)
        prev = rows[col][col]
    return sign * prev


def _leading_minors(mat: list[list[int]]) -> list[int]:
    """Leading principal minors of an integer matrix, up to and including
    the first that vanishes: without row swaps, the k-th Bareiss pivot is
    the k-th leading minor."""
    rows = list(mat)
    minors: list[int] = []
    prev = 1
    for col in range(len(rows)):
        lead = rows[col][col]
        minors.append(lead)
        if not lead:
            break
        _eliminate(rows, col, prev)
        prev = lead
    return minors


INSIDE = "inside"
OUTSIDE = "outside"
BOUNDARY_OR_UNCERTAIN = "boundary_or_uncertain"


class RegionVerdict(NamedTuple):
    """Membership report for the monic polynomial behind a (c_1..c_n) vector.

    right_halfplane is tri-state: the Hurwitz minors decide strict
    interior and strict exterior exactly; vanishing minors (a root with
    Re <= 0) fall back to numerical witness roots, which answer
    'outside' or 'boundary_or_uncertain'.  The region itself is closed,
    so a boundary verdict is consistent with membership.
    """

    in_sign_cone: bool
    hyperbolic: bool
    right_halfplane: str
    witness_roots: Optional[tuple[complex, ...]] = None


def region_membership(c: Sequence[Fraction]) -> RegionVerdict:
    """Classify the monic polynomial x^n + c_1 x^{n-1} + ... + c_n."""
    p = _monic_tail(_rationals(c, "region_membership"))
    # (-1)^j c_j >= 0, read from the numerators of c_1 .. c_n (den > 0)
    cone = all(v <= 0 if j % 2 else v >= 0 for j, v in enumerate(p._num[-2::-1], 1))
    return RegionVerdict(cone, is_hyperbolic(p).hyperbolic, *_right_halfplane(p))


def _right_halfplane(p: Poly) -> tuple[str, Optional[tuple[complex, ...]]]:
    """The right_halfplane verdict of RegionVerdict for an exact monic p,
    with the witness roots when a Hurwitz minor vanishes (else None)."""
    # reflect: q(x) = +-p(-x) with positive leading coefficient; roots of
    # p lie strictly in the right half-plane iff q is Hurwitz-stable
    refl = [-v if i % 2 else v for i, v in enumerate(p._num)]
    if refl[-1] < 0:
        refl = [-v for v in refl]

    # the signs of the minors are those of their integer numerators
    minors = _leading_minors(_hurwitz_matrix(refl[::-1]))
    if all(minors):  # none vanishes: _leading_minors stops at the first that does
        return INSIDE if all(d > 0 for d in minors) else OUTSIDE, None
    # a vanishing minor: q is not Hurwitz-stable, so p has a root with
    # Re <= 0 and is never inside; a witness tells if one is clearly left
    witnesses = aberth_roots(p)
    tol = 1e-9  # relative margin a witness needs off the imaginary axis
    left = any(z.real < -tol * max(1.0, abs(z)) for z in witnesses)
    return OUTSIDE if left else BOUNDARY_OR_UNCERTAIN, witnesses
