"""Dense univariate polynomials over exact rationals or complex doubles.

Coefficients are stored ascending (index = power).  A polynomial is
"exact" when every coefficient is a Fraction; one float or complex
coefficient demotes the whole polynomial to complex-double scalars.
The zero polynomial has degree ``NEG_INF`` so degree comparisons behave
without special-casing.

The falling-factorial transform implemented here substitutes the
degree-d falling factorial x(x-1)...(x-d+1) for each monomial x^d.  Its
defining property, used throughout the package: for any polynomial P,
the transformed polynomial evaluated at the integer j equals
j! * [x^j](e^x P), i.e. it generates the Taylor numerators of e^x * P.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .exact import falling_factorial_coeffs, format_rational, parse_rational

NEG_INF = float("-inf")

Scalar = Union[Fraction, complex]

__all__ = [
    "NEG_INF",
    "Poly",
    "ExpPoly",
    "poly_eval",
    "taylor_gamma",
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


def _coerce(values: Iterable) -> tuple[list[Scalar], bool]:
    """Normalize scalars: Fraction/int stay exact, float/complex demote all."""
    raw = list(values)
    exact = True
    for v in raw:
        if isinstance(v, (float, complex)) and not isinstance(v, numbers.Integral):
            exact = False
            break
        if not isinstance(v, (Fraction, numbers.Integral)):
            raise TypeError(f"unsupported coefficient type {type(v).__name__}")
    if exact:
        return [Fraction(v) for v in raw], True
    out: list[Scalar] = []
    for v in raw:
        if isinstance(v, Fraction):
            out.append(complex(v))
        elif isinstance(v, (int, float, complex)):
            out.append(complex(v))
        else:
            raise TypeError(f"unsupported coefficient type {type(v).__name__}")
    return out, False


class Poly:
    """Immutable dense polynomial, coefficients ascending by power."""

    __slots__ = ("_coeffs", "_exact")

    def __init__(self, coeffs: Iterable = ()):
        vals, exact = _coerce(coeffs)
        while vals and vals[-1] == 0:
            vals.pop()
        self._coeffs = tuple(vals)
        self._exact = exact

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, d: int, c: Scalar = 1) -> "Poly":
        if d < 0:
            raise ValueError("negative degree")
        return cls([0] * d + [c])

    @classmethod
    def from_roots(cls, roots: Sequence[Scalar], lead: Scalar = 1) -> "Poly":
        p = cls((lead,))
        for r in roots:
            p = p * cls((-r, 1))
        return p

    # -- basic observers ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def is_exact(self) -> bool:
        return self._exact

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self):
        """Degree as an int; the zero polynomial reports NEG_INF."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    def coeff(self, i: int) -> Scalar:
        zero = Fraction(0) if self._exact else 0j
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return zero

    @property
    def lead(self) -> Scalar:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    @property
    def constant(self) -> Scalar:
        return self.coeff(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self._coeffs)!r})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self._coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly.zero()
            a, b = self._coeffs, other._coeffs
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
            return Poly(out)
        if isinstance(other, (int, float, complex, Fraction)):
            return Poly([c * other for c in self._coeffs])
        return NotImplemented

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, (int, float, complex, Fraction)):
            return Poly([other * c for c in self._coeffs])
        return NotImplemented

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        d = len(other._coeffs) - 1
        lead = other._coeffs[-1]
        if len(rem) <= d:
            return Poly.zero(), self
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - d] = q
            for j, oj in enumerate(other._coeffs):
                rem[i - d + j] = rem[i - d + j] - q * oj
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self._coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self._coeffs[-1]
        return Poly([c / lead for c in self._coeffs])

    def __call__(self, x: Scalar) -> Scalar:
        acc = Fraction(0) if (self._exact and isinstance(x, (int, Fraction))) else 0j
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def to_complex(self) -> list[complex]:
        return [complex(c) for c in self._coeffs]


def poly_eval(p: Poly, x: Scalar) -> Scalar:
    """Horner evaluation; exact when both polynomial and point are exact."""
    return p(x)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (exact polynomials only).

    Runs the integer remainder sequence below; gcd(0, 0) is 0.
    """
    if not (a.is_exact and b.is_exact):
        raise ValueError("gcd requires exact polynomials")
    ints = [_integer_primitive(p.coeffs) for p in (a, b) if not p.is_zero]
    if not ints:
        return Poly.zero()
    return _monic_poly(ints[0] if len(ints) == 1 else _remainder_sequence(*ints)[-1])


# -- fraction-free remainder sequences ----------------------------------------
#
# gcds, Sturm chains and square-free parts run on integer coefficient
# lists (ascending, no trailing zeros) instead of Fraction Polys:
# denominators are cleared once, each step takes a pseudo-remainder, which
# is the Euclidean remainder times a positive integer, and the integer
# content is divided out after every step (the primitive remainder
# sequence of Collins 1967 and Brown-Traub 1971).  Every scale factor is
# positive, so each list has the signs of the Fraction polynomial it
# stands for, and Sturm sign counts carry over unchanged.


def _primitive_part(v: list[int]) -> list[int]:
    """Nonzero integer list divided by its (positive) content."""
    g = math.gcd(*v)
    return [c // g for c in v] if g > 1 else v


def _integer_primitive(coeffs: Sequence[Fraction]) -> list[int]:
    """Nonzero exact coefficients scaled by a positive rational to coprime integers."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return _primitive_part([c.numerator * (den // c.denominator) for c in coeffs])


def _monic_poly(v: list[int]) -> Poly:
    lead = v[-1]
    return Poly([Fraction(c, lead) for c in v])


def _derivative(v: list[int]) -> list[int]:
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


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer lists where b divides a (b primitive, so the
    quotient has integer coefficients by Gauss's lemma)."""
    lb = b[-1]
    low = b[:-1]
    db = len(low)
    r = list(a)
    q = [0] * (len(a) - db)
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if c:
            c //= lb
            q[top - db] = c
            s = top - db
            for j, bj in enumerate(low):
                r[s + j] -= c * bj
    return q


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

    def gamma(self, j: int) -> Scalar:
        """j! * [x^j] (e^x * P), via sum_i P_i * j(j-1)...(j-i+1)."""
        if j < 0:
            raise ValueError("negative Taylor index")
        acc = Fraction(0) if self._poly.is_exact else 0j
        ff = 1  # falling product of length i evaluated at j
        for i, c in enumerate(self._poly.coeffs):
            if i > 0:
                ff *= j - (i - 1)
            acc = acc + c * ff
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._poly == other._poly

    def __hash__(self) -> int:
        return hash(("ExpPoly", self._poly))

    def __repr__(self) -> str:
        return f"ExpPoly({self._poly!r})"


def taylor_gamma(f: ExpPoly, j: int) -> Scalar:
    """j! * [x^j] f for f = e^x * P; exact for exact P."""
    return f.gamma(j)


def falling_factorial_poly(d: int) -> Poly:
    """x(x-1)...(x-d+1) as a Poly (exact)."""
    return Poly(falling_factorial_coeffs(d))


def falling_factorial_transform(p: Poly) -> Poly:
    """Replace each monomial x^d by the degree-d falling factorial.

    Linear, degree-preserving, and unitriangular on coefficients, hence
    invertible; leading and constant coefficients are unchanged.  The
    image evaluated at integers j >= 0 gives gamma(j) of e^x * p.
    """
    out = Poly.zero()
    for d, c in enumerate(p.coeffs):
        if c != 0:
            out = out + falling_factorial_poly(d) * c
    return out


def inverse_falling_factorial_transform(q: Poly) -> Poly:
    """Inverse transform, by peeling leading terms (valid over C too)."""
    out: dict[int, Scalar] = {}
    work = q
    while not work.is_zero:
        d = work.degree
        c = work.lead
        out[d] = c
        work = work - falling_factorial_poly(d) * c
        if not work.is_zero and work.degree >= d:
            raise ArithmeticError("degree did not drop; non-polynomial input?")
    if not out:
        return Poly.zero()
    coeffs = [0] * (max(out) + 1)
    for d, c in out.items():
        coeffs[d] = c
    return Poly(coeffs)


def iterate_falling_factorial_transform(p: Poly, nu: int) -> Poly:
    """nu-fold application of the transform (nu >= 0)."""
    if nu < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(nu):
        p = falling_factorial_transform(p)
    return p


def interpolate(points: Sequence[tuple[Scalar, Scalar]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    Newton divided differences; exact over Fractions, complex otherwise.
    Nodes must be pairwise distinct.
    """
    if not points:
        return Poly.zero()
    xs = [p[0] for p in points]
    table = [p[1] for p in points]
    n = len(points)
    # divided-difference coefficients, in place
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dx = xs[i] - xs[i - level]
            if dx == 0:
                raise ValueError("interpolation nodes must be distinct")
            table[i] = (table[i] - table[i - 1]) / dx
    # expand the Newton form
    poly = Poly.zero()
    basis = Poly.one()
    for i in range(n):
        poly = poly + basis * table[i]
        basis = basis * Poly((-xs[i], 1))
    return poly


# -- JSON interchange ---------------------------------------------------------


def poly_to_json(p: Poly) -> dict:
    """{"coeffs": ["c0", "c1", ...]} with exact "p/q" strings, ascending."""
    if not p.is_exact:
        raise ValueError("only exact polynomials have a JSON form")
    return {"coeffs": [format_rational(c) for c in p.coeffs]}


def poly_from_json(obj: dict) -> Poly:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError("expected an object with a 'coeffs' array")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ValueError("'coeffs' must be an array of rational strings")
    return Poly([parse_rational(c) for c in coeffs])


def exp_poly_to_json(f: ExpPoly) -> dict:
    return {"exp_poly": poly_to_json(f.poly)}


def exp_poly_from_json(obj: dict) -> ExpPoly:
    if not isinstance(obj, dict) or "exp_poly" not in obj:
        raise ValueError("expected an object with an 'exp_poly' member")
    return ExpPoly(poly_from_json(obj["exp_poly"]))
