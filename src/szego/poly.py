"""Dense univariate polynomials over exact rationals.

Coefficients are ascending (index = power).  A polynomial is stored as
a tuple of integer numerators over one positive common denominator,
the layout of FLINT's fmpq_poly, kept canonical: no trailing zeros and
gcd(den, num_0, ..., num_d) == 1, so every rational polynomial has
exactly one representation.  Arithmetic runs on the integers;
``coeffs`` (the Fractions num_i/den in lowest terms) is built on first
use and cached.  Arithmetic results, and ``one``, ``x``, ``monomial``
and ``from_roots``, go through the trusted constructor ``_exact``,
which only trims and divides out the gcd.  The zero polynomial has
degree ``NEG_INF`` so degree comparisons behave without
special-casing.

The public constructor also accepts float or complex coefficients and
then stores the polynomial as a plain tuple of complex doubles.  Such
a polynomial is only a container for the numerical root finder: it
can be observed (``coeffs``, ``degree``, ``==``, ``to_complex`` ...)
but every arithmetic operation, like every operation given a float or
complex scalar, raises the one ValueError of ``_inexact``.  Every
coefficient or scalar a caller passes goes through ``_rationals``, so
any other non-rational type is a TypeError.

The falling-factorial transform implemented here substitutes the
degree-d falling factorial x(x-1)...(x-d+1) for each monomial x^d.  Its
defining property, used throughout the package: for any polynomial P,
the transformed polynomial evaluated at the integer j equals
j! * [x^j](e^x P), i.e. it generates the Taylor numerators of e^x * P.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NoReturn, Optional, Sequence

from .exact import _json_field, _parse_rationals, falling_factorial_coeffs, format_rational, stirling2_row

NEG_INF = float("-inf")

__all__ = [
    "NEG_INF",
    "Poly",
    "ExpPoly",
    "falling_factorial_poly",
    "falling_factorial_transform",
    "inverse_falling_factorial_transform",
    "iterate_falling_factorial_transform",
    "interpolate",
    "poly_to_json",
    "poly_from_json",
    "exp_poly_to_json",
    "exp_poly_from_json",
]


class Poly:
    """Immutable dense polynomial, coefficients ascending by power.

    Exact: ``_num`` is a tuple of ints over the positive int ``_den``,
    canonical as the module docstring says.  Complex (the root finder's
    input only): ``_num`` is the tuple of complex coefficients and
    ``_den`` is None.  ``_coeffs`` caches the public coefficient tuple
    (None until first asked for).
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        vals = list(coeffs)
        exact = _rationals([v for v in vals if not isinstance(v, (float, complex))], "Poly")
        if len(exact) < len(vals):  # a float or complex entry
            vals = [complex(v) for v in vals]
            while vals and not vals[-1]:
                vals.pop()
            self._num = self._coeffs = tuple(vals)
            self._den = None
            return
        # clearing reduced Fractions leaves gcd(den, *num) == 1
        num, self._den = _clear(exact)
        while num and not num[-1]:
            num.pop()
        self._num = tuple(num)
        self._coeffs = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _exact([])

    @classmethod
    def one(cls) -> "Poly":
        return _exact([1])

    @classmethod
    def x(cls) -> "Poly":
        return _exact([0, 1])

    @classmethod
    def monomial(cls, d: int, c: Fraction = 1) -> "Poly":
        if d < 0:
            raise ValueError("negative degree")
        _rationals([c], "monomial")
        return _exact([0] * d + [c.numerator], c.denominator)

    @classmethod
    def from_roots(cls, roots: Sequence[Fraction], lead: Fraction = 1) -> "Poly":
        """lead * prod (x - r) for rational roots and lead, multiplied in
        integers: each root a/b multiplies the numerators by b x - a and
        the one running denominator by b."""
        lead, *roots = _rationals([lead, *roots], "from_roots")
        num = [lead.numerator]
        den = lead.denominator
        for r in roots:
            a, b = r.numerator, r.denominator
            num = [b * u - a * v for u, v in zip([0, *num], [*num, 0])]
            den *= b
        return _exact(num, den)

    # -- basic observers ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        c = self._coeffs
        if c is None:
            den = self._den
            c = self._coeffs = tuple([Fraction(v, den) for v in self._num])
        return c

    @property
    def is_exact(self) -> bool:
        return self._den is not None

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def degree(self):
        """Degree as an int; the zero polynomial reports NEG_INF."""
        return len(self._num) - 1 if self._num else NEG_INF

    def coeff(self, i: int) -> Fraction | complex:
        if 0 <= i < len(self._num):
            return self.coeffs[i]
        return Fraction(0) if self._den is not None else 0j

    @property
    def lead(self) -> Fraction | complex:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction | complex:
        return self.coeff(0)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if (self._den is None) == (other._den is None):
            return self._den == other._den and self._num == other._num
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _add(self, other, 1)

    def __neg__(self) -> "Poly":
        if self._den is None:
            _inexact("negation")
        return _exact([-c for c in self._num], self._den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _add(self, other, -1)

    def __mul__(self, other) -> "Poly":
        den = self._den
        if isinstance(other, Poly):
            if den is None or other._den is None:
                _inexact("multiplication")
            return _exact(_convolve(self._num, other._num), den * other._den)
        if isinstance(other, (int, Fraction)):
            if den is None:
                _inexact("multiplication")
            return _exact([c * other.numerator for c in self._num], den * other.denominator)
        if isinstance(other, (float, complex)):
            _inexact("multiplication")
        return NotImplemented

    __rmul__ = __mul__  # scalars commute

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # no square after the top bit
                base = base * base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if self._den is None or other._den is None:
            _inexact("division")
        if not other._num:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem, scale = _divide(self._num, other._num)
        den = scale * self._den
        return _exact([c * other._den for c in quot], den), _exact(rem, den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        if self._den is None:
            _inexact("differentiation")
        return _exact(_derivative(self._num), self._den)

    def monic(self) -> "Poly":
        if self._den is None:
            _inexact("normalization")
        if not self._num:
            raise ValueError("cannot normalize the zero polynomial")
        return _monic_poly(list(self._num))

    def __call__(self, x: Fraction) -> Fraction:
        if self._den is None:
            _inexact("evaluation")
        _rationals([x], "evaluation")
        num = self._num
        if not num:
            return Fraction(0)
        b = x.denominator
        return Fraction(_horner(num, x.numerator, b), self._den * b ** (len(num) - 1))

    def to_complex(self) -> list[complex]:
        """Coefficients as complex doubles, the root finder's input;
        num_i / den is int true division, correctly rounded like
        ``float(Fraction)``."""
        den = self._den
        if den is None:
            return list(self._num)
        return [complex(c / den) for c in self._num]


# -- the exact core -----------------------------------------------------------

_new = object.__new__


def _inexact(what: str) -> NoReturn:
    """The one error of every exact-only operation that meets a complex
    Poly or a float/complex scalar.  Callers test ``_den is None`` inline
    and ``_rationals`` tests scalars; both call this only to raise."""
    raise ValueError(f"{what} requires exact polynomials and rational scalars")


def _rationals(values: Iterable, what: str) -> list:
    """values as a list of the same ints and Fractions, unconverted.  A
    float or complex entry raises the ValueError of ``_inexact``, any
    other type a TypeError."""
    vals = list(values)
    for v in vals:
        if not isinstance(v, (int, Fraction)):
            if isinstance(v, (float, complex)):
                _inexact(what)
            raise TypeError(f"{what}: unsupported value type {type(v).__name__}")
    return vals


def _exact(num: list, den: int = 1) -> Poly:
    """Trusted constructor of the exact Poly num/den.

    num is a list of ints (ascending, consumed) and den a positive int;
    nothing is validated.  Trailing zeros are trimmed and gcd(den, *num)
    divided out.
    """
    while num and not num[-1]:
        num.pop()
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    p = _new(Poly)
    p._num = tuple(num)
    p._den = den
    p._coeffs = None
    return p


def _clear(values: Sequence) -> tuple[list[int], int]:
    """(nums, den): the rationals values (ints or Fractions) as integer
    numerators over their least common denominator."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _horner(num: Sequence, a, b=1):
    """sum_i num_i a^i b^(deg-i), which is b^deg times the polynomial with
    ascending coefficients num evaluated at a/b (0 for empty num)."""
    acc = 0
    scale = 1
    for c in reversed(num):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _monic_tail(c: Sequence) -> Poly:
    """x^n + c_1 x^(n-1) + ... + c_n for rationals c = (c_1..c_n)."""
    num, den = _clear(c)
    return _exact(num[::-1] + [den], den)


def _add(p: Poly, q: Poly, sign: int) -> Poly:
    """p + q for sign 1, p - q for sign -1."""
    a, b, den = p._num, q._num, p._den
    if den is None or q._den is None:
        _inexact("addition")
    if den != q._den:
        g = math.gcd(den, q._den)
        sa, sb = q._den // g, den // g
        a = [c * sa for c in a]
        b = [c * sb for c in b]
        den *= sa
    n = min(len(a), len(b))
    if sign > 0:
        out = [x + y for x, y in zip(a, b)]
        out += a[n:] if len(a) > n else b[n:]
    else:
        out = [x - y for x, y in zip(a, b)]
        out += a[n:] if len(a) > n else [-c for c in b[n:]]
    return _exact(out, den)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer coefficients of the product of two integer polynomials; a
    zero (empty) factor gives zeros, which ``_exact`` trims."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s) with a = (q / s) b + r / s over the rationals, for integer
    lists with len(b) >= 1; s is a positive integer.  A shorter a gives
    q = [], r = a and s = 1.

    Eliminating the top coefficient c of r replaces r by
    (lb/g) r - (c/g) x^k b with lb = lc(b) and g = gcd(c, lb), so only
    the factor lb/g enters the running scale s (q is kept at that scale).
    """
    lb = b[-1]
    low = b[:-1]
    db = len(low)
    r = list(a)
    quot = [0] * (len(r) - db)
    scale = 1
    for top in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        if not c:
            continue
        g = math.gcd(c, lb)
        m = lb // g
        if m != 1:
            r = [m * v for v in r]
            quot = [m * v for v in quot]
            scale *= m
        c //= g
        k = top - db
        for j, bj in enumerate(low):
            r[k + j] -= c * bj
        quot[k] = c
    if scale < 0:
        return [-c for c in quot], [-c for c in r], -scale
    return quot, r, scale


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals.

    Takes the heuristic integer gcd ``_gcd`` of the primitive parts,
    which falls back to the integer remainder sequence below; gcd(0, 0)
    is 0.
    """
    if a._den is None or b._den is None:
        _inexact("gcd")
    ints = [_primitive_part(list(p._num)) for p in (a, b) if p._num]
    if not ints:
        return Poly.zero()
    return _monic_poly(ints[0] if len(ints) == 1 else _gcd(*ints)[0])


# -- integer gcds and fraction-free remainder sequences -----------------------
#
# gcds, Sturm chains and square-free parts run on integer coefficient
# lists (ascending, no trailing zeros) instead of Fraction Polys, with
# denominators cleared once.
#
# Sturm chains are remainder sequences: each step takes a pseudo-remainder,
# which is the Euclidean remainder times a positive integer, and the
# integer content is divided out after every step (the primitive remainder
# sequence of Collins 1967 and Brown-Traub 1971).  Every scale factor is
# positive, so each list has the signs of the Fraction polynomial it
# stands for, and Sturm sign counts carry over unchanged.
#
# gcds go through _gcd: the heuristic _heu_gcd (GCDHEU) reads the gcd off
# one big-integer gcd and returns the cofactors with it, and the remainder
# sequence is its fallback.  poly_gcd, the square-free factors and
# is_hyperbolic use _gcd; sturm_count of distinct roots stays chain-first,
# because the chain of v it needs anyway ends in gcd(v, v').


def _primitive_part(v: list[int]) -> list[int]:
    """Nonzero integer list divided by its (positive) content."""
    g = math.gcd(*v)
    return [c // g for c in v] if g > 1 else v


def _monic_poly(v: list[int]) -> Poly:
    """The exact Poly v / lc(v) for a nonzero integer list v."""
    lead = v[-1]
    if lead < 0:
        return _exact([-c for c in v], -lead)
    return _exact(v, lead)


def _derivative(v: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(v)][1:]


def _subtract(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and not out[-1]:
        out.pop()
    return out


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """a mod b times a positive rational, as a primitive integer list
    ([] when b divides a).

    Eliminating the top coefficient c of r replaces r by
    |lc(b)| * r - c * x^s * b, all in integers, so the remainder comes out
    times a power of |lc(b)|; a top coefficient that is already zero
    costs no multiplication.
    """
    if b[-1] < 0:
        b = [-c for c in b]
    lb = b[-1]
    low = b[:-1]
    db = len(low)
    r = list(a)
    for top in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        if not c:
            continue
        if lb != 1:
            r = [lb * v for v in r]
        s = top - db
        for j, bj in enumerate(low):
            r[s + j] -= c * bj
    while r and not r[-1]:
        r.pop()
    return _primitive_part(r) if r else r


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """[a, b, r_2, ..., r_m]: r_{i+1} is minus the primitive pseudo-remainder
    of r_{i-1} by r_i, and the sequence stops before the first zero.

    With b = a' this is the Sturm chain of a up to positive factors; its
    last entry is always gcd(a, b) up to a nonzero constant.
    """
    seq = [a, b]
    while True:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            return seq
        seq.append([-c for c in r])


def _exact_quotient(a: list[int], b: list[int]) -> Optional[list[int]]:
    """a / b for nonzero integer lists, or None when the quotient is not an
    integer list with remainder 0.  For primitive b that is exactly when b
    divides a over the rationals (Gauss's lemma)."""
    lb = b[-1]
    low = b[:-1]
    db = len(low)
    r = list(a)
    q = [0] * (len(a) - db)
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if c:
            c, m = divmod(c, lb)
            if m:
                return None
            s = top - db
            q[s] = c
            for j, bj in enumerate(low):
                r[s + j] -= c * bj
    return None if any(r[:db]) else q


# GCDHEU tries this many evaluation points before _gcd falls back to the
# remainder sequence.
_HEU_POINTS = 6


def _heu_gcd(a: list[int], b: list[int]) -> Optional[tuple[list[int], list[int], list[int]]]:
    """(g, a/g, b/g) with g = +-gcd(a, b) for nonzero primitive integer
    lists, by GCDHEU (Char, Geddes and Gonnet 1989), or None after _HEU_POINTS
    evaluation points.

    The candidate is the primitive part of gamma = gcd(a(xi), b(xi)) read
    as balanced base-xi digits.  With xi >= 2 min(|a|_oo, |b|_oo) + 2 a
    candidate that divides both a and b is the gcd (Geddes, Czapor and
    Labahn, Algorithms for Computer Algebra, Thm. 7.7); those exact
    divisions yield the cofactors.  Each next xi is about 2.73 xi^(5/4),
    because the spurious integer content of gamma grows with the degree:
    on square-free degree-48 products of small integer roots it exceeds
    the first xi by up to 30 bits, and growth by 2.73 alone does not
    catch up in six points.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_POINTS):
        gamma = math.gcd(_horner(a, xi), _horner(b, xi))
        half = xi // 2
        g = []
        while gamma:
            gamma, d = divmod(gamma, xi)
            if d > half:
                d -= xi
                gamma += 1
            g.append(d)
        g = _primitive_part(g)
        if len(g) == 1:  # the candidate 1 divides everything
            return [1], a, b
        qa = _exact_quotient(a, g)
        if qa is not None:
            qb = _exact_quotient(b, g)
            if qb is not None:
                return g, qa, qb
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a/g, b/g) for nonzero integer lists with a primitive, where g is
    gcd(a, b) up to sign (so primitive).  GCDHEU on a and the primitive
    part of b, and the remainder sequence when the heuristic gives up."""
    k = math.gcd(*b)
    if k > 1:
        b = [c // k for c in b]
    found = _heu_gcd(a, b)
    if found is None:
        g = _remainder_sequence(a, b)[-1]
        found = g, _exact_quotient(a, g), _exact_quotient(b, g)
    g, qa, qb = found
    return g, qa, [c * k for c in qb] if k > 1 else qb


def _gamma_sum(num: Sequence, j: int):
    """sum_i num_i * j(j-1)...(j-i+1); terms with i > j vanish."""
    acc = 0
    ff = 1  # falling product of length i evaluated at j
    for i, c in enumerate(num):
        if i > 0:
            ff *= j - (i - 1)
            if not ff:
                break
        acc += c * ff
    return acc


class ExpPoly:
    """The entire function e^x * P for a polynomial P.

    ``gamma(j)`` returns j! times the j-th Taylor coefficient at 0; these
    numerators are the natural coordinates for composing such functions.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: Poly):
        if not isinstance(poly, Poly):
            poly = Poly(poly)
        self._poly = poly

    @property
    def poly(self) -> Poly:
        return self._poly

    @property
    def is_exact(self) -> bool:
        return self._poly.is_exact

    def gamma(self, j: int) -> Fraction:
        """j! * [x^j] (e^x * P), via sum_i P_i * j(j-1)...(j-i+1).

        Sums integer numerators and divides by the common denominator
        once; terms with i > j vanish.
        """
        if j < 0:
            raise ValueError("negative Taylor index")
        p = self._poly
        if p._den is None:
            _inexact("gamma")
        return Fraction(_gamma_sum(p._num, j), p._den)

    def gamma_numerators(self, N: int) -> list[int]:
        """[gamma(0), ..., gamma(N)] times the positive denominator of
        P: integer sums, with the signs of the gammas."""
        if N < 0:
            raise ValueError("negative Taylor index")
        p = self._poly
        if p._den is None:
            _inexact("gamma")
        return [_gamma_sum(p._num, j) for j in range(N + 1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._poly == other._poly

    def __hash__(self) -> int:
        return hash(("ExpPoly", self._poly))

    def __repr__(self) -> str:
        return f"ExpPoly({self._poly!r})"


def falling_factorial_poly(d: int) -> Poly:
    """x(x-1)...(x-d+1) as a Poly (exact)."""
    return _exact(list(falling_factorial_coeffs(d)))


def _stirling_product(p: Poly, row) -> Poly:
    """The polynomial with coefficients out_k = sum_d p_d row(d)[k]: an
    integer unitriangular matrix applied to the numerators of p.  Its
    inverse is integer too, so gcd(den, out) = gcd(den, num) = 1 and the
    denominator is unchanged."""
    if p._den is None:
        _inexact("the falling-factorial transform")
    vals = p._num
    out = [0] * len(vals)
    for d, c in enumerate(vals):
        if c:
            for k, s in enumerate(row(d)):
                if s:
                    out[k] += c * s
    return _exact(out, p._den)


def falling_factorial_transform(p: Poly) -> Poly:
    """Replace each monomial x^d by the degree-d falling factorial.

    Linear, degree-preserving, and unitriangular on coefficients, hence
    invertible; leading and constant coefficients are unchanged.  The
    image evaluated at integers j >= 0 gives gamma(j) of e^x * p.
    Applied as rows of signed Stirling numbers of the first kind.
    """
    return _stirling_product(p, falling_factorial_coeffs)


def inverse_falling_factorial_transform(q: Poly) -> Poly:
    """Inverse transform: x^k = sum_d S(k, d) x(x-1)...(x-d+1) with S the
    Stirling numbers of the second kind."""
    return _stirling_product(q, stirling2_row)


def iterate_falling_factorial_transform(p: Poly, nu: int) -> Poly:
    """nu-fold application of the transform (nu >= 0), in closed form.

    T is unitriangular, so N = T - I lowers the degree and
    T^nu p = sum_{i <= min(nu, deg p)} C(nu, i) N^i p: deg p + 1 exact
    transforms at most, whatever nu is."""
    if nu < 0:
        raise ValueError("iteration count must be >= 0")
    out, term = Poly.zero(), p
    for i in range(min(len(p._num), nu + 1)):
        out = out + term * math.comb(nu, i)
        term = falling_factorial_transform(term) - term
    return out


def interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    Nodes and values must be ints or Fractions (a float or complex is a
    ValueError, another type a TypeError) and the nodes pairwise
    distinct.  Newton divided differences in integers:
    every node and divided difference is a reduced numerator/denominator
    pair, and the nested Horner form t_0 + (x - x_0)(t_1 + (x - x_1)(...))
    is expanded as numerators over one denominator.
    """
    if not points:
        return Poly.zero()
    _rationals([v for pt in points for v in pt], "interpolation")
    xn = [p[0].numerator for p in points]
    xd = [p[0].denominator for p in points]
    tn = [p[1].numerator for p in points]
    td = [p[1].denominator for p in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            j = i - level
            dx = xn[i] * xd[j] - xn[j] * xd[i]
            if not dx:
                raise ValueError("interpolation nodes must be distinct")
            # (t_i - t_{i-1}) / (x_i - x_j)
            num = (tn[i] * td[i - 1] - tn[i - 1] * td[i]) * xd[i] * xd[j]
            den = td[i] * td[i - 1] * dx
            if den < 0:
                num, den = -num, -den
            g = math.gcd(num, den)
            tn[i], td[i] = num // g, den // g
    # num / den times (x - a/b) is (b x - a) num / (den b); adding the
    # next coefficient moves to the common denominator lcm(den b, t_den)
    num = [tn[-1]]
    den = td[-1]
    for i in range(n - 2, -1, -1):
        a, b = xn[i], xd[i]
        num = [b * u - a * v for u, v in zip([0] + num, num + [0])]
        den *= b
        g = math.gcd(den, td[i])
        up = td[i] // g
        if up != 1:
            num = [up * v for v in num]
        num[0] += tn[i] * (den // g)
        den *= up
    return _exact(num, den)


# -- JSON interchange ---------------------------------------------------------


def poly_to_json(p: Poly) -> dict:
    """{"coeffs": ["c0", "c1", ...]} with exact "p/q" strings, ascending."""
    if not p.is_exact:
        raise ValueError("only exact polynomials have a JSON form")
    return {"coeffs": [format_rational(c) for c in p.coeffs]}


def poly_from_json(obj: dict) -> Poly:
    return Poly(_parse_rationals(obj.get("coeffs") if isinstance(obj, dict) else None, "'coeffs'"))


def exp_poly_to_json(f: ExpPoly) -> dict:
    return {"exp_poly": poly_to_json(f.poly)}


def exp_poly_from_json(obj: dict) -> ExpPoly:
    return ExpPoly(poly_from_json(_json_field(obj, "exp_poly", dict, "an object")))
