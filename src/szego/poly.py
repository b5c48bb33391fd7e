"""Dense univariate polynomials over exact rationals.

Coefficients are ascending (index = power).  A polynomial is stored as
a tuple of integer numerators over one positive common denominator,
the layout of FLINT's fmpq_poly, kept canonical: no trailing zeros and
gcd(den, num_0, ..., num_d) == 1, so every rational polynomial has
exactly one representation.  Arithmetic runs on the integers;
``coeffs`` (the Fractions num_i/den in lowest terms) is built each
time it is read, so a caller that reads it more than once binds it.
Arithmetic results, and ``one``, ``x``, ``monomial`` and
``from_roots``, go through the trusted constructor ``_exact``, which
only trims and divides out the gcd.  The zero polynomial has
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
``ExpPoly`` evaluates T(P)(j) from P's own numerators, with no T(P) built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NoReturn, Optional, Sequence

from .exact import _json_field, _parse_rationals, falling_factorial_coeffs, format_rational

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
    ``_den`` is None.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable = ()):
        vals = list(coeffs)
        exact = _rationals([v for v in vals if not isinstance(v, (float, complex))], "Poly")
        if len(exact) < len(vals):  # a float or complex entry
            vals = [complex(v) for v in vals]
            while vals and not vals[-1]:
                vals.pop()
            self._num = tuple(vals)
            self._den = None
            return
        # clearing reduced Fractions leaves gcd(den, *num) == 1
        num, self._den = _clear(exact)
        while num and not num[-1]:
            num.pop()
        self._num = tuple(num)

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
        return _root_product(
            [(r.numerator, r.denominator) for r in roots], lead.numerator, lead.denominator
        )

    # -- basic observers ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        den = self._den
        if den is None:
            return self._num
        return tuple([Fraction(v, den) for v in self._num])

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
            return self._entry(i)
        return Fraction(0) if self._den is not None else 0j

    @property
    def lead(self) -> Fraction | complex:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._entry(-1)

    def _entry(self, i: int) -> Fraction | complex:
        """coeffs[i] for an index into _num, without building the whole
        tuple."""
        if self._den is None:
            return self._num[i]
        return Fraction(self._num[i], self._den)

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
        """(q, r) with self = q other + r and deg r < deg other: one
        ``_long_divide`` of the numerators at the pseudo-division scale,
        whose sign moves into q and r so that ``_exact`` gets a positive
        denominator."""
        if not isinstance(other, Poly):
            return NotImplemented
        if self._den is None or other._den is None:
            _inexact("division")
        if not other._num:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self._num, other._num
        s = b[-1] ** max(len(a) - len(b) + 1, 0)
        q, r = _long_divide(a, b, s)
        if s < 0:
            q, r, s = [-c for c in q], [-c for c in r], -s
        den = s * self._den
        return _exact([c * other._den for c in q], den), _exact(r, den)

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
    return p


def _clear(values: Sequence) -> tuple[list[int], int]:
    """(nums, den): the rationals values (ints or Fractions) as integer
    numerators over their least common denominator."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _horner(num: Sequence, a, b=1):
    """sum_i num_i a^i b^(deg-i), which is b^deg times the polynomial with
    ascending coefficients num evaluated at a/b (0 for empty num).

    At b = 1 (an integer point: Sturm reads at integer breaks, GCDHEU
    points) this is plain Horner, with no scale carried."""
    acc = 0
    if b == 1:
        for c in reversed(num):
            acc = acc * a + c
        return acc
    scale = 1
    for c in reversed(num):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _monic_tail(c: Sequence) -> Poly:
    """x^n + c_1 x^(n-1) + ... + c_n for rationals c = (c_1..c_n)."""
    num, den = _clear(c)
    return _exact(num[::-1] + [den], den)


def _root_product(roots: Iterable[tuple[int, int]], lead: int = 1, den: int = 1) -> Poly:
    """lead/den * prod (x - a/b) over the pairs (a, b) with b > 0, in
    integers: each root multiplies the numerators by b x - a and the
    one running denominator by b."""
    num = [lead]
    for a, b in roots:
        num = [b * u - a * v for u, v in zip([0, *num], [*num, 0])]
        den *= b
    return _exact(num, den)


def _add(p: Poly, q: Poly, sign: int) -> Poly:
    """p + q for sign 1, p - q for sign -1: the numerators over one
    denominator go to _subtract, q's scaled by -sign."""
    a, den, sb = p._num, p._den, -sign
    if den is None or q._den is None:
        _inexact("addition")
    if den != q._den:
        g = math.gcd(den, q._den)
        sa, sb = q._den // g, sb * (den // g)
        a = [c * sa for c in a]
        den *= sa
    return _exact(_subtract(a, [c * sb for c in q._num]), den)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer coefficients of the product of two integer polynomials; a
    zero (empty) factor gives zeros, which ``_exact`` trims."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _long_divide(a: Sequence[int], b: Sequence[int], s: int = 1) -> Optional[tuple[list[int], list[int]]]:
    """(q, r) with s a = q b + r and len(r) < len(b) for integer lists, b
    nonzero, or None at the first digit of q that lc(b) does not divide;
    r may end in zeros.

    Each digit of q is the top coefficient of the running remainder
    divided by lc(b), and subtracting it times x^k b clears that top.  At
    the pseudo-division scale s = lc(b)^(deg a - deg b + 1) every such
    division is exact (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).
    """
    lb = b[-1]
    low = b[:-1]
    r = [s * x for x in a]
    q = [0] * (len(a) - len(low))
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        if c:
            c, m = divmod(c, lb)
            if m:
                return None
            q[k] = c
            for j, y in enumerate(low, k):
                r[j] -= c * y
    return q, r


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
# One digit loop, _long_divide, does every integer long division: divmod
# of Polys and the remainder steps below at the pseudo-division scale
# lc(b)^(d+1), d = deg a - deg b, where every digit divides, and the exact
# quotients of GCDHEU and the square-free chains at scale 1, where the
# first digit that does not divide ends the division.
#
# Sturm chains are remainder sequences: each step takes the pseudo-remainder
# lc(b)^(d+1) a - q b of a by b, which is the Euclidean remainder times
# lc(b)^(d+1), and divides out its integer content (the primitive remainder
# sequence of Collins 1967 and Brown-Traub 1971).  The sign of lc(b)^(d+1)
# is taken back out with the content, so each list is the Fraction
# polynomial it stands for times a positive number: it has the same signs,
# and Sturm sign counts carry over unchanged.  A positive scale does not
# change a primitive part, so the chain does not depend on how the
# pseudo-remainder was formed.
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


def _subtract(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [x - y for x, y in zip(a, b)] + [*a[len(b):]] + [-y for y in b[len(a):]]
    while out and not out[-1]:
        out.pop()
    return out


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """[a, b, r_2, ..., r_m] for nonzero integer lists: r_{i+1} is the
    primitive integer list with the signs of -(r_{i-1} mod r_i), and the
    sequence stops before the first zero remainder.

    With b = a' this is the Sturm chain of a up to positive factors; its
    last entry is always gcd(a, b) up to a nonzero constant.

    Each step forms the pseudo-remainder r = s a - q b, s = lc(b)^(d+1) for
    d = deg a - deg b, and appends r divided by -sgn(s) times its content.
    At d = 1 (the first step of a Sturm chain, and every step while each
    remainder is one degree lower) q = q1 x + q0 comes from the top two
    coefficients of a and b, and r from one pass over the low coefficients.
    Any other d is one ``_long_divide`` at scale s; a shorter a is its own
    remainder (s = 1).  A constant b divides a, so the sequence ends there.
    """
    seq = [a, b]
    while len(b) > 1:
        lb = b[-1]
        d = len(a) - len(b)
        if d == 1:
            c = a[-1]
            s = lb * lb
            q1, q0 = lb * c, lb * a[-2] - c * b[-2]
            r = [s * x - q0 * y - q1 * z for x, y, z in zip(a, b, [0, *b[:-2]])]
        else:
            s = lb ** max(d + 1, 0)
            r = _long_divide(a, b, s)[1]
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        g = math.gcd(*r)
        if s > 0:
            g = -g
        a, b = b, [x // g for x in r]
        seq.append(b)
    return seq


def _exact_quotient(a: list[int], b: list[int]) -> Optional[list[int]]:
    """a / b for nonzero integer lists, or None when the quotient is not an
    integer list with remainder 0.  For primitive b that is exactly when b
    divides a over the rationals (Gauss's lemma)."""
    qr = _long_divide(a, b)
    return None if qr is None or any(qr[1]) else qr[0]


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


def _taylor_numerator(num: Sequence, j: int) -> int:
    """sum_i num_i j(j-1)...(j-i+1) over i <= min(j, deg), by nested
    Horner from i = min(j, deg) down: acc <- acc (j - i) + num_i.  The
    terms with i > j vanish and are never read."""
    acc = 0
    k = j - len(num) if j >= len(num) else -1  # j - i - 1 at the first i
    for c in num[j::-1]:
        k += 1
        acc = acc * k + c
    return acc


class ExpPoly:
    """The entire function e^x * P for a polynomial P.

    ``gamma(j)`` returns j! times the j-th Taylor coefficient at 0; these
    numerators are the natural coordinates for composing such functions.
    gamma(j) = sum_i [x^i]P j!/(j-i)! = T(P)(j), read off P's integer
    numerators by ``_taylor_numerator`` with no transform T(P) built.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: Poly):
        if not isinstance(poly, Poly):
            poly = Poly(poly)
        self._poly = poly

    @property
    def poly(self) -> Poly:
        return self._poly

    def gamma(self, j: int) -> Fraction:
        """j! * [x^j] (e^x * P), as one integer over P's denominator."""
        if j < 0:
            raise ValueError("negative Taylor index")
        p = self._poly
        if p._den is None:
            _inexact("Taylor-numerator evaluation")
        return Fraction(_taylor_numerator(p._num, j), p._den)

    def gamma_numerators(self, N: int) -> list[int]:
        """[gamma(0), ..., gamma(N)] times the positive denominator of
        P, with the signs of the gammas."""
        if N < 0:
            raise ValueError("negative Taylor index")
        p = self._poly
        if p._den is None:
            _inexact("Taylor-numerator evaluation")
        return [_taylor_numerator(p._num, j) for j in range(N + 1)]

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


def falling_factorial_transform(p: Poly) -> Poly:
    """Replace each monomial x^d by the degree-d falling factorial.

    Linear, degree-preserving, and unitriangular on coefficients, hence
    invertible; leading and constant coefficients are unchanged.  The
    image evaluated at integers j >= 0 gives gamma(j) of e^x * p.

    The mirror of the inverse below, in place on p's numerators: its
    synthetic divisions undone in reverse order, each one a synthetic
    multiplication by x - i.  T is unimodular on the integer numerators,
    so gcd(den, num) = 1 holds and the denominator is unchanged.
    """
    if p._den is None:
        _inexact("the falling-factorial transform")
    num = list(p._num)
    top = len(num) - 1
    for i in range(top - 1, 0, -1):
        for k in range(i, top):
            num[k] -= i * num[k + 1]
    return _exact(num, p._den)


def inverse_falling_factorial_transform(q: Poly) -> Poly:
    """Inverse transform: the coefficients c_k of q in the falling
    factorials, q = sum_k c_k x(x-1)...(x-k+1), i.e. q's Newton
    coefficients at the nodes 0, 1, 2, ....

    Synthetic division of q's numerators: dividing q_i by x - i leaves
    the quotient q_(i+1) and the remainder q_i(i) = c_i, all in
    integers, so the denominator is unchanged.
    """
    if q._den is None:
        _inexact("the falling-factorial transform")
    num = list(q._num)
    top = len(num) - 1
    for i in range(1, top):
        # num[i:] holds q_i; Horner from the top leaves q_i(i) at num[i]
        # and the quotient q_(i+1) above it
        for k in range(top - 1, i - 1, -1):
            num[k] += i * num[k + 1]
    return _exact(num, q._den)


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
    distinct.  The Lagrange form with barycentric weights (Berrut and
    Trefethen, SIAM Review 46, 2004) in integers: the nodes scaled by the
    lcm B of their denominators, X_i = B x_i, give the weights
    w_i = y_i / prod_{j != i} (X_i - X_j), each reduced by one gcd; over
    the lcm L of their denominators, N(X) = sum_i L w_i prod_{j != i}
    (X - X_j) takes one pass over the nodes, and the result is N(B x) / L.
    n gcds for n points, where Newton's table takes n(n-1)/2.
    """
    if not points:
        return Poly.zero()
    _rationals([v for pt in points for v in pt], "interpolation")
    scale = math.lcm(*[x.denominator for x, _ in points])
    nodes = [x.numerator * (scale // x.denominator) for x, _ in points]
    weights = []
    for i, (x, (_, y)) in enumerate(zip(nodes, points)):
        d = math.prod([x - u for u in nodes[:i]]) * math.prod([x - u for u in nodes[i + 1 :]])
        if not d:
            raise ValueError("interpolation nodes must be distinct")
        # y = p/q is reduced, so gcd(p, d) reduces p / (q d); a negative
        # denominator needs no sign fix, as den // q below keeps its sign
        g = math.gcd(y.numerator, d)
        weights.append((y.numerator // g, y.denominator * d // g))
    den = math.lcm(*[q for _, q in weights])
    # N <- N (X - X_k) + L w_k P, then P <- P (X - X_k), with P the
    # product over the nodes taken so far
    num, lag = [], [1]
    for x, (p, q) in zip(nodes, weights):
        c = p * (den // q)
        num = [u - x * v + c * w for u, v, w in zip([0, *num], [*num, 0], lag)]
        lag = [u - x * v for u, v in zip([0, *lag], [*lag, 0])]
    return _exact([c * scale**k for k, c in enumerate(num)], den)


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
