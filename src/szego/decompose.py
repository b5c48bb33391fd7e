"""Decomposition of polynomials and of e^x * P into composition factors,
and the affine coefficient maps induced by the factor parameters.

Finite mode: P = (x+1)^k (x^n + c_1 x^{n-1} + ... + c_n) is the
composition of n factors (x+1)^(n+k-1)(x+a_i) at ambient degree m = n+k.
The map Phi_{n,k} sends (c_1..c_n) to the elementary symmetric values
sigma_j of the a_i, read off as [t^(n-j)] of the monic
Q(t) = prod_i (t + a_i).  With beta_s = [x^s]P / C(m, s) one has
beta_s = prod_i ((m-s) a_i + s) / m, i.e. the homogenised identity
(m-s)^n Q(s/(m-s)) = m^n beta_s at s = 0..n.  Q is linear in the core
coefficients u_i = [x^i](core), and for the core x^i the right-hand side
is the degree-n polynomial m^n k!/m! * s(s-1)..(s-i+1) *
(m-s)(m-s-1)..(m-s-n+i+1) in s.  Substituting s = m t/(1+t) gives the
closed form of column i:

    Q_i(t) = k!/m! * prod_{a<i} ((m-a) t - a) * prod_{b<n-i} ((m-b) - b t).

So Phi_{n,k} is one integer matrix over one denominator, built once per
(n, k) without any (x+1)^k polynomial or interpolation, and a call is
one integer matrix-vector product.

Exp mode: e^x P, P(0) = 1, deg P = m, is the composition of m factors
e^x(1 + x/a_i).  The Taylor numerators gamma_j of e^x P equal Qt(j)
where Qt(t) = prod_i (1 + t/a_i).  The falling-factorial transform T
generates the same numerators, T(P)(j) = gamma_j, so Qt = T(P): the
reciprocal-side symmetric values are sigma~_k = [t^k] T(P), the -a_i
are the roots of T(P), and the map c -> sigma~ is the matrix of signed
Stirling numbers of the first kind that T applies.  A second, monic
convention (factors written e^x(x + a_i), input monic) is provided
along with an explicit converter; both describe the same factor
multiset.

sigma values are exact; the a_i themselves are an optional numerical
enrichment via the root finder.  Every coefficient vector a caller
passes in must hold ints and Fractions: a float or complex entry is a
ValueError and is never rounded to a rational (``poly._rationals``).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exact import _json_field, _parse_rationals, _stirling_rows, format_rational
from .poly import (
    ExpPoly,
    Poly,
    _clear,
    _convolve,
    _exact,
    _horner,
    _monic_tail,
    _rationals,
    falling_factorial_transform,
    inverse_falling_factorial_transform,
)
from .roots import _det, aberth_roots
from .ssc import _ambient_degree

__all__ = [
    "DegreeDeficientError",
    "Decomposition",
    "AffineMap",
    "decompose_poly",
    "decompose_exp",
    "decomposition_map",
    "recompose",
    "padded_core",
    "extract_core",
    "exp_normalized_to_monic",
    "exp_monic_to_normalized",
    "localization_intervals",
    "decomposition_to_json",
    "decomposition_from_json",
]

NORMALIZED = "normalized"
MONIC = "monic"


class DegreeDeficientError(ValueError):
    """Exp-mode normalized input with vanishing top coefficient."""


class Decomposition(NamedTuple):
    """Factor data for one composed polynomial or function.

    sigma holds exact symmetric values: in finite mode the elementary
    symmetric polynomials sigma_j of the factor offsets a_i; in exp
    mode (normalized convention) the same for the reciprocals 1/a_i; in
    exp mode (monic convention) again for the a_i themselves.  roots,
    when present, are the numerically extracted a_i.
    """

    mode: str  # "finite" | "exp"
    sigma: tuple[Fraction, ...]
    n: Optional[int] = None
    k: Optional[int] = None
    m: Optional[int] = None
    convention: Optional[str] = None
    roots: Optional[tuple[complex, ...]] = None


class AffineMap:
    """Exact affine map c -> M c + offset on coefficient vectors.

    Held only as integer rows over one positive denominator: row j is
    (offset_j, M_j1, ..., M_jn) as numerators over den, with gcd 1, so a
    float or complex entry is a ValueError here and each map has exactly
    one form.  apply and determinant read the rows; matrix and offset are
    built from them as Fractions each time they are read.  Immutable,
    compared and hashed by its rows; repr prints the entries as
    Fractions.  The matrix must be square, of the offset's
    size: any other shape is a ValueError."""

    __slots__ = ("_rows", "_den")

    def __init__(
        self, matrix: tuple[tuple[Fraction, ...], ...], offset: tuple[Fraction, ...]
    ) -> None:
        n = len(offset)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"AffineMap: the matrix must be {n} x {n}, the offset's size")
        rows = [(off, *row) for off, row in zip(offset, matrix)]
        nums, self._den = _clear(_rationals([v for row in rows for v in row], "AffineMap"))
        it = iter(nums)
        self._rows = tuple(tuple(next(it) for _ in row) for row in rows)

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...], den: int) -> "AffineMap":
        """The map of integer rows over den, taken as given: gcd(den, rows)
        must be 1 and den > 0, the form __init__ clears its entries to."""
        amap = object.__new__(cls)
        amap._rows, amap._den = rows, den
        return amap

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self._den) for v in row[1:]) for row in self._rows)

    @property
    def offset(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(row[0], self._den) for row in self._rows)

    def __repr__(self) -> str:
        return f"AffineMap(matrix={self.matrix!r}, offset={self.offset!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # unique per map: gcd(den, rows) is 1 and den > 0
        return (self._den, self._rows) == (other._den, other._rows)

    def __hash__(self) -> int:
        return hash((self._den, self._rows))

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def apply(self, c: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """M c + offset: c is cleared once, _step takes the integer dot
        products, and each entry is one Fraction, reduced once."""
        if len(c) != len(self._rows):
            raise ValueError("dimension mismatch")
        u, lcm = _clear([1, *_rationals(c, "AffineMap.apply")])
        den = self._den * lcm
        return tuple(Fraction(v, den) for v in _step(self._rows, u))

    def determinant(self) -> Fraction:
        # each row's content comes out before Bareiss, which keeps its minors small
        contents = [math.gcd(*row[1:]) or 1 for row in self._rows]
        prim = [[v // g for v in row[1:]] for row, g in zip(self._rows, contents)]
        return Fraction(math.prod(contents) * _det(prim), self._den**self.dimension)

    @property
    def invertible(self) -> bool:
        return self.determinant() != 0


def _step(rows, u: Sequence[int]) -> list[int]:
    """The integer step of an affine map held as integer rows over one
    positive denominator den: for c given as u = (d, d c_1, ..., d c_n)
    with d > 0, entry j is the numerator of (row_j[0] + sum_l row_j[l]
    c_l) / den over den * d, one integer dot product."""
    return [sum(map(operator.mul, row, u)) for row in rows]


def _binomial_row(k: int) -> list[int]:
    """C(k, 0), ..., C(k, k), the coefficients of (x+1)^k, by the running
    product C(k, s+1) = C(k, s) (k-s) / (s+1)."""
    row, c = [], 1
    for s in range(k + 1):
        row.append(c)
        c = c * (k - s) // (s + 1)
    return row


def padded_core(c: Sequence[Fraction], n: int, k: int) -> Poly:
    """(x+1)^k (x^n + c_1 x^{n-1} + ... + c_n) as an exact Poly."""
    _ambient_degree(n, k)
    if len(c) != n:
        raise ValueError(f"expected {n} coefficients, got {len(c)}")
    core = _monic_tail(_rationals(c, "padded_core"))
    return _exact(_convolve(_binomial_row(k), core._num), core._den)


def extract_core(p: Poly, n: int, k: int) -> tuple[Fraction, ...]:
    """Inverse of padded_core: divide out (x+1)^k, return (c_1..c_n)."""
    _ambient_degree(n, k)
    q, rem = divmod(p, _exact(_binomial_row(k)))
    if not rem.is_zero or q.degree != n or q.lead != 1:
        raise ValueError("polynomial is not (x+1)^k times a monic degree-n core")
    return tuple(reversed(q.coeffs[:-1]))


def decompose_poly(
    c: Sequence[Fraction], n: int, k: int, *, want_roots: bool = True
) -> Decomposition:
    """Factor-offset data for (x+1)^k (x^n + c_1 x^{n-1} + ... + c_n).

    sigma_j are exact; the map c -> sigma is total and affine.
    """
    if len(c) != n:
        raise ValueError(f"expected {n} coefficients, got {len(c)}")
    q = _finite_image(_clear([1, *_rationals(c, "decompose_poly")])[0], n, k)
    roots = tuple(-z for z in aberth_roots(q)) if want_roots else None
    return Decomposition(mode="finite", sigma=q.coeffs[-2::-1], n=n, k=k, roots=roots)


def _finite_image(u: Sequence[int], n: int, k: int) -> Poly:
    """Q(t) = t^n + sigma_1 t^(n-1) + ... + sigma_n = prod (t + a_i), the
    image under Phi_{n,k} of c given in integers as u = (d, d c_1, ...,
    d c_n) with d > 0: one _step over the rows of _phi_rows, and one gcd."""
    rows, den = _phi_rows(n, k)
    den *= u[0]
    return _exact([*reversed(_step(rows, u)), den], den)


@functools.lru_cache(maxsize=64)
def _phi_rows(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Phi_{n,k} as integer rows over one positive denominator (n, k >= 1).

    Row j-1 is sigma_j = [t^(n-j)] Q as (offset, coefficient of c_1, ...,
    coefficient of c_n): Q = sum_i u_i Q_i (module docstring) and c_l =
    u_(n-l), with c_0 = 1, so entry l is [t^(n-j)] Q_(n-l).  Q is monic
    ([t^n] Q_i is 1 for i = n, else 0), so no row holds t^n.  Column i+1
    follows from column i by one multiplication by (m-i) t - i and one
    exact division by (k+i+1) - (n-i-1) t, O(n) each.
    """
    m = _ambient_degree(n, k)
    col = [1]
    for b in range(n):
        col = _convolve(col, [m - b, -b])
    cols = [col]
    for i in range(n):
        col = _convolve(col, [-i, m - i])[: n + 1]  # the product has degree n
        # exact division by c0 + c1 t, from the constant term up (c0 > 0)
        c0, c1 = k + i + 1, -(n - i - 1)
        prev = 0
        for j in range(n + 1):
            prev = col[j] = (col[j] - c1 * prev) // c0
        cols.append(col)
    den = math.perm(m, n)  # m!/k!
    g = math.gcd(den, *[v for col in cols for v in col])
    cols.reverse()
    return tuple(tuple(col[n - j] // g for col in cols) for j in range(1, n + 1)), den // g


def _phi_determinant(n: int, k: int) -> Fraction:
    """det Phi_{n,k} = prod_{i=1}^{n-1} (m/(m-i))^(n-i), m = n+k.

    Proof.  For core coefficients u and coefficients q of Q, the
    homogenised identity (module docstring) at s = 0..n reads W q = D B u:
    B is the lower unitriangular convolution by (x+1)^k, D = m^n
    diag(1/C(m, s)) and W[s][j] = s^j (m-s)^(n-j).  Row s of W over
    (m-s)^n is Vandermonde in x_s = s/(m-s), x_t - x_s = m (t-s) /
    ((m-s)(m-t)), and each s lies in n pairs, so det W = m^(n(n+1)/2)
    prod_{j<=n} j!.  With C(m, s) s! = m (m-1) ... (m-s+1), det(W^-1 D B)
    is m^(n(n+1)/2) / prod_{i<n} (m-i)^(n-i).  Only u_n feeds q_n, with
    weight 1 (Q is monic), and c and sigma are u and q without that
    corner, both reversed; neither step changes the determinant.
    """
    m = n + k
    return Fraction(m ** (n * (n - 1) // 2), math.prod((m - i) ** (n - i) for i in range(1, n)))


def decompose_exp(
    c: Sequence[Fraction],
    convention: str = NORMALIZED,
    *,
    want_roots: bool = True,
) -> Decomposition:
    """Factor data for e^x * P from the coefficient vector (c_1..c_m), m >= 1.

    normalized: P = 1 + c_1 x + ... + c_m x^m (the natural convention
    for factors e^x(1+x/a)); c_m = 0 is rejected as degree deficient.
    sigma~_k = [t^k] prod(1 + t/a_i).

    monic: P = x^m + c_1 x^{m-1} + ... + c_m (factors read e^x(x+a));
    total in c.  sigma_j = elementary symmetric values of the a_i.  A
    zero entry among the returned roots means the function also has a
    degree-deficient normalized form.
    """
    cvec = _rationals(c, "decompose_exp")
    order = _exp_order(len(cvec), convention)
    g = falling_factorial_transform(_exp_poly(cvec, order))
    sigma = g.coeffs[order][1:]
    roots = tuple(-z for z in aberth_roots(g)) if want_roots else None
    return Decomposition(mode="exp", sigma=sigma, m=len(cvec), convention=convention, roots=roots)


def _exp_order(m: int, convention: str) -> slice:
    """The one exp-convention decision, the slice order: c_l (c_0 = 1) is the coefficient
    of x^pos[l] in P and sigma_l that of t^pos[l] in T(P), pos = range(m + 1)[order]:
    as given (normalized) or reversed (monic).  m < 1 is a ValueError."""
    if m < 1:
        raise ValueError("need m >= 1")
    if convention not in (NORMALIZED, MONIC):
        raise ValueError(f"unknown convention {convention!r}")
    return slice(None, None, 1 if convention == NORMALIZED else -1)


def _exp_poly(v: Sequence[Fraction], order: slice) -> Poly:
    """The exp-mode P of v = (v_1..v_m): its coefficients are (1, *v)[order].  A
    zero at x^m is a DegreeDeficientError (never in monic order: x^m holds 1)."""
    nums, den = _clear([1, *v][order])
    if not nums[-1]:
        raise DegreeDeficientError("degree deficient: top coefficient c_m must be nonzero")
    return _exact(nums, den)


def recompose(dec: Decomposition):
    """Exact reconstruction from sigma alone (roots never consulted).

    Finite mode (n, k >= 1) returns the full composed Poly of degree n+k;
    exp modes (m >= 1; normalized sigma~_m = prod 1/a_i != 0) return the
    ExpPoly.  Round-trips exactly with the decomposers.  Every sigma_j
    must be an int or a Fraction.
    """
    _rationals(dec.sigma, "recompose")
    if dec.mode == "finite":
        n, k = dec.n, dec.k
        if n is None or k is None:
            raise ValueError("malformed finite decomposition")
        m = _ambient_degree(n, k)
        if len(dec.sigma) != n:
            raise ValueError("malformed finite decomposition")
        # homogenized evaluation avoids the node pole at s = n+k:
        # [x^s]P = C(m,s)/m^n * sum_j sigma_j s^(n-j) (m-s)^j, summed
        # in integers over the common denominator of the sigma_j
        nums, den = _clear([*reversed(dec.sigma), 1])
        out = [_horner(nums, s, m - s) * c for s, c in enumerate(_binomial_row(m))]
        return _exact(out, m**n * den)
    if dec.mode == "exp":
        if dec.m is None or len(dec.sigma) != dec.m:
            raise ValueError("malformed exp decomposition")
        p = _exp_poly(dec.sigma, _exp_order(dec.m, dec.convention))
        return ExpPoly(inverse_falling_factorial_transform(p))
    raise ValueError(f"unknown mode {dec.mode!r}")


def exp_normalized_to_monic(c: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Convention converter: same function e^x P, rescaled to monic P.

    Input (c_1..c_m) with P = 1 + c_1 x + ... + c_m x^m, m >= 1, c_m != 0;
    output (c'_1..c'_m) with P/c_m = x^m + c'_1 x^{m-1} + ... + c'_m.
    A vector reversal plus scaling; the factor multiset is unchanged.
    """
    return _reflect(c, "exp_normalized_to_monic", "degree deficient: c_m must be nonzero")


def exp_monic_to_normalized(c: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Inverse converter; requires m >= 1 and constant term c_m != 0
    (else the function has P(0) = 0 and no normalized form)."""
    return _reflect(c, "exp_monic_to_normalized", "no normalized form: constant term is zero")


def _reflect(c: Sequence[Fraction], what: str, deficient: str) -> tuple[Fraction, ...]:
    """(1, c_1, ..., c_m) in monic order over its first entry, which is
    both converters: the map is its own inverse."""
    cvec = _rationals(c, what)
    top, *rest = [1, *cvec][_exp_order(len(cvec), MONIC)]
    if top == 0:
        raise DegreeDeficientError(deficient)
    return tuple(Fraction(v, top) for v in rest)


def decomposition_map(
    mode: str,
    *,
    n: Optional[int] = None,
    k: Optional[int] = None,
    m: Optional[int] = None,
    convention: str = NORMALIZED,
) -> AffineMap:
    """The exact affine map c -> sigma for the requested decomposition.

    Read off the exact integer rows: Phi_{n,k} from ``_phi_rows`` in
    finite mode, and in exp mode the signed Stirling numbers of the first
    kind s(d, j) that the falling-factorial transform applies; the map
    holds them as they are (n, k >= 1 or m >= 1; else a ValueError).
    The tests check both against maps built from composed factors.
    """
    # rows[j-1][l] is the coefficient of c_l in sigma_j over den; c_0 = 1 is
    # the fixed coefficient of the input, so l = 0 is the offset
    if mode == "finite":
        if n is None or k is None:
            raise ValueError("finite mode needs n and k")
        rows, den = _phi_rows(n, k)
    elif mode == "exp":
        if m is None:
            raise ValueError("exp mode needs m")
        pos = range(m + 1)[_exp_order(m, convention)]
        # s[d][j] = s(d, j), zero-padded: sigma_j = sum_l s(pos[l], pos[j]) c_l
        s = [row + (0,) * (m - d) for d, row in enumerate(_stirling_rows(m))]
        rows, den = tuple(tuple(s[p][q] for p in pos) for q in pos[1:]), 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return AffineMap._from_rows(rows, den)


def localization_intervals(n: int, k: int) -> list[tuple[Optional[Fraction], Fraction]]:
    """Negative-axis intervals that localize real negative factor offsets.

    Index s runs 0..n+k-1; interval s is
    [-(s+1)/(n+k-1-s), -s/(n+k-s)], adjacent intervals sharing an
    endpoint.  At s = n+k-1 the left end degenerates; that interval is
    returned as (None, bound) meaning unbounded below.  n < 1 or k < 1
    is a ValueError, as at every finite-mode entry point.
    """
    m = _ambient_degree(n, k)
    out: list[tuple[Optional[Fraction], Fraction]] = []
    for s in range(m):
        hi = Fraction(-s, m - s)
        lo = Fraction(-(s + 1), m - 1 - s) if s < m - 1 else None
        out.append((lo, hi))
    return out


# -- JSON interchange ---------------------------------------------------------


def decomposition_to_json(dec: Decomposition) -> dict:
    obj: dict = {
        "mode": dec.mode,
        "sigma": [format_rational(s) for s in dec.sigma],
    }
    if dec.mode == "finite":
        obj["n"] = dec.n
        obj["k"] = dec.k
    else:
        obj["m"] = dec.m
        obj["convention"] = dec.convention
    if dec.roots is not None:
        obj["roots"] = [{"re": z.real, "im": z.imag} for z in dec.roots]
    return obj


def decomposition_from_json(obj: dict) -> Decomposition:
    """The inverse of decomposition_to_json.  A missing or ill-typed key
    is a ValueError."""
    mode = _json_field(obj, "mode", str, "a string")
    sigma = tuple(_parse_rationals(obj.get("sigma"), "'sigma'"))
    roots = None
    if obj.get("roots") is not None:
        roots = tuple(
            complex(*(_json_field(r, part, (int, float), "a number") for part in ("re", "im")))
            for r in _json_field(obj, "roots", list, "an array")
        )
    if mode == "finite":
        n, k = (_json_field(obj, key, int, "an integer") for key in ("n", "k"))
        return Decomposition(mode="finite", sigma=sigma, n=n, k=k, roots=roots)
    if mode == "exp":
        return Decomposition(
            mode="exp",
            sigma=sigma,
            m=_json_field(obj, "m", int, "an integer"),
            convention=obj.get("convention", NORMALIZED),
            roots=roots,
        )
    raise ValueError(f"unknown mode {mode!r}")
