"""Tests for dense polynomials, e^x * P wrappers, and the
falling-factorial transform."""

import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

import szego.poly
from szego import (
    ExpPoly,
    Poly,
    exp_poly_from_json,
    exp_poly_to_json,
    falling_factorial_transform,
    interpolate,
    inverse_falling_factorial_transform,
    iterate_falling_factorial_transform,
    poly_from_json,
    poly_to_json,
)
from szego.exact import falling_factorial_coeffs
from szego.poly import (
    NEG_INF,
    _convolve,
    _exact,
    _exact_quotient,
    _gcd,
    _heu_gcd,
    _horner,
    _primitive_part,
    falling_factorial_poly,
    poly_gcd,
)
from szego.roots import sign_changes


def _rand_poly(rng, deg, bound=9):
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 6)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, bound)))
    return Poly(coeffs)


def test_construction_strips_leading_zeros():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (1, 2)
    assert Poly([]).is_zero
    assert Poly([0, 0]).is_zero
    assert Poly([0]).degree == NEG_INF


def test_exactness_tracking():
    assert Poly([Fraction(1, 2), 3]).is_exact
    assert not Poly([0.5, 3]).is_exact
    assert not Poly([1, 2j]).is_exact
    with pytest.raises(TypeError):
        Poly(["1/2", 3])


def test_non_polynomial_operands_are_not_implemented():
    # integers are not polynomials here: only * takes a scalar
    p = Poly([1, 2])
    assert (p == 1) is False
    assert p != 1
    for op in (lambda: p + 1, lambda: p - 1, lambda: p * "x", lambda: divmod(p, 2)):
        with pytest.raises(TypeError):
            op()


def test_basic_observers():
    p = Poly([5, 0, 7])
    assert p.degree == 2
    assert p.lead == 7
    assert p.constant == 5
    assert p.coeff(1) == 0
    assert p.coeff(99) == 0
    with pytest.raises(ValueError):
        Poly.zero().lead


def test_single_coefficient_reads_match_the_tuple():
    rng = random.Random(76)
    for _ in range(40):
        p = _rand_poly(rng, rng.randint(0, 6))
        reads = [p.coeff(i) for i in range(-1, p.degree + 3)] + [p.lead, p.constant]
        c = p.coeffs
        assert reads == [Fraction(0), *c, Fraction(0), Fraction(0), c[-1], c[0]]
        assert all(type(v) is Fraction for v in reads)
        # the same reads after the tuple was built
        assert [p.coeff(i) for i in range(-1, p.degree + 3)] + [p.lead, p.constant] == reads
    q = Poly([Fraction(6, 4), 0, Fraction(-9, 6)])
    assert (q.constant, q.coeff(1), q.lead) == (Fraction(3, 2), 0, Fraction(-3, 2))
    z = Poly([1.5, 0, 2j])
    assert (z.constant, z.coeff(1), z.lead, z.coeff(5)) == (1.5 + 0j, 0j, 2j, 0j)
    assert all(type(v) is complex for v in (z.constant, z.coeff(1), z.lead, z.coeff(5)))


def test_horner_is_the_scaled_homogeneous_sum():
    rng = random.Random(77)
    for _ in range(200):
        num = [rng.randint(-(2**70), 2**70) for _ in range(rng.randint(0, 9))]
        a = rng.choice([0, 1, -1, rng.randint(-50, 50), 2**66 + 1])
        b = rng.choice([1, 2, rng.randint(1, 50), 3**40])
        deg = len(num) - 1
        homogeneous = sum(c * a**i * b ** (deg - i) for i, c in enumerate(num))
        assert szego.poly._horner(num, a, b) == homogeneous
        plain = sum(c * a**i for i, c in enumerate(num))
        assert szego.poly._horner(num, a) == szego.poly._horner(num, a, 1) == plain
    assert szego.poly._horner([], 5) == szego.poly._horner([], 5, 3) == 0


def test_arithmetic_identities_random():
    rng = random.Random(11)
    for _ in range(50):
        a = _rand_poly(rng, rng.randint(0, 5))
        b = _rand_poly(rng, rng.randint(0, 5))
        c = _rand_poly(rng, rng.randint(0, 5))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly.zero()
        assert (a * b).degree == a.degree + b.degree


def _gcd_scaled_divide(a, b):
    """Reference: long division that divides each digit's gcd with lc(b)
    out of the running scale.  (q, r, s) with a = (q / s) b + r / s for
    integer lists, s > 0; a shorter a gives q = [], r = a and s = 1."""
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


def _reference_divmod(a, b):
    quot, rem, scale = _gcd_scaled_divide(a._num, b._num)
    den = scale * a._den
    return _exact([c * b._den for c in quot], den), _exact(rem, den)


def _signed_poly(rng, deg, lead_sign):
    """_rand_poly with the sign of the leading coefficient chosen."""
    p = _rand_poly(rng, deg)
    return p * Fraction(lead_sign, rng.randint(1, 6))


def test_divmod_is_exact_division_with_remainder():
    rng = random.Random(12)
    pairs = [(_rand_poly(rng, rng.randint(0, 6)), _rand_poly(rng, rng.randint(1, 4))) for _ in range(50)]
    for d in (2, 5, 8, 16, 24, 32, 48):
        pairs.append((_rand_poly(rng, 2 * d), _rand_poly(rng, d)))
        pairs.append((_signed_poly(rng, 2 * d, -1), _signed_poly(rng, d, -1)))
    # a negative lc(b) with deg a - deg b + 1 odd makes the scale negative
    for da, db in ((2, 2), (3, 1), (4, 2), (6, 0), (7, 3), (20, 8)):
        for lead_sign in (1, -1):
            pairs.append((_signed_poly(rng, da, lead_sign), _signed_poly(rng, db, -1)))
    # a dividend shorter than the divisor, and the zero dividend
    for da, db in ((0, 1), (1, 3), (2, 5), (4, 9)):
        pairs.append((_signed_poly(rng, da, -1), _signed_poly(rng, db, -1)))
        pairs.append((Poly.zero(), _rand_poly(rng, db)))
    # constant divisors
    for c in (1, -1, 3, Fraction(-7, 4), Fraction(10**20, 3**30)):
        pairs.append((_signed_poly(rng, 9, -1), Poly([c])))
    for a, b in pairs:
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.is_zero or r.degree < b.degree
        want_q, want_r = _reference_divmod(a, b)
        assert (q._num, q._den, r._num, r._den) == (want_q._num, want_q._den, want_r._num, want_r._den)
    with pytest.raises(ZeroDivisionError):
        divmod(Poly([1, 1]), Poly.zero())


def test_divmod_rejects_inexact_polynomials():
    exact = Poly([1, 2, 1])
    inexact = Poly([1.0, 1.0])
    for a, b in ((exact, inexact), (inexact, exact), (inexact, inexact), (Poly([1j]), exact)):
        with pytest.raises(ValueError, match="division requires exact polynomials"):
            divmod(a, b)
    with pytest.raises(ValueError, match="exact"):
        exact // inexact
    with pytest.raises(ValueError, match="exact"):
        exact % inexact


def test_power_and_from_roots():
    assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])
    assert Poly([1, 1]) ** 0 == Poly.one()
    p = Poly.from_roots([1, 2, 3])
    assert p == Poly([-6, 11, -6, 1])
    assert p(1) == 0 and p(2) == 0 and p(3) == 0
    with pytest.raises(ValueError):
        Poly([1, 1]) ** -1


@pytest.mark.parametrize("e", [1, 2, 8, 2000])
def test_power_squares_only_while_bits_remain(e, monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(1)
        return convolve(a, b)

    convolve = szego.poly._convolve
    monkeypatch.setattr(szego.poly, "_convolve", counting)
    assert Poly.x() ** e == Poly.monomial(e)
    # one product per set bit and one square per bit below the top one
    assert len(calls) == bin(e).count("1") + e.bit_length() - 1


def test_derivative_product_rule():
    rng = random.Random(13)
    for _ in range(30):
        a = _rand_poly(rng, rng.randint(1, 4))
        b = _rand_poly(rng, rng.randint(1, 4))
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
    assert Poly([3, 2, 5]).derivative() == Poly([2, 10])


def test_monic_normalization():
    p = Poly([2, 4, 2])
    assert p.monic() == Poly([1, 2, 1])
    with pytest.raises(ValueError):
        Poly.zero().monic()


def test_evaluation_is_exact_on_rationals():
    p = Poly([Fraction(1, 3), 0, 1])
    v = p(Fraction(1, 2))
    assert isinstance(v, Fraction)
    assert v == Fraction(1, 3) + Fraction(1, 4)
    for poly, x in ((Poly([1.0, 1.0]), 2.0), (p, 0.5), (p, 1j)):
        with pytest.raises(ValueError, match="exact"):
            poly(x)


def test_poly_gcd():
    a = Poly.from_roots([1, 1, 2])
    b = Poly.from_roots([1, 3])
    assert poly_gcd(a, b) == Poly([-1, 1])
    assert poly_gcd(a, Poly.zero()) == a.monic()
    with pytest.raises(ValueError):
        poly_gcd(Poly([0.5, 1]), b)


def _euclid_gcd(a, b):
    """Reference: monic gcd by Euclid over Fraction coefficient lists."""
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        a, b = b, a
    return Poly([c / a[-1] for c in a]) if a else Poly.zero()


def _ladder_sturm_input(rng, d):
    """Square-free product of 0, d - 3 distinct integers of [-w, w] and a
    quadratic with no real root, shaped like the benchmark ladder's
    sturm_count input."""
    w = (d - 1) // 2
    roots = [0] + rng.sample([r for r in range(-w, w + 1) if r], d - 3)
    return Poly.from_roots(roots) * Poly([rng.randint(1, 9), 0, 1])


def _assert_gcd_with_cofactors(a, b, want=None):
    """poly_gcd against want (Euclid's gcd by default), and the cofactors of
    _gcd on the primitive parts multiply back to them."""
    assert poly_gcd(a, b) == (_euclid_gcd(a, b) if want is None else want), (a, b)
    if a and b:
        pa, pb = (_primitive_part(list(p._num)) for p in (a, b))
        g, qa, qb = _gcd(pa, pb)
        assert Poly(g).monic() == poly_gcd(a, b)
        assert Poly(g) * Poly(qa) == Poly(pa) and Poly(g) * Poly(qb) == Poly(pb)


def test_poly_gcd_against_euclid_reference(monkeypatch):
    rng = random.Random(71)
    for _ in range(60):
        common = Poly.from_roots(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))],
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5)),
        )
        a = common * _rand_poly(rng, rng.randint(0, 8))
        b = common * _rand_poly(rng, rng.randint(0, 8)) * Fraction(-3, 2)
        for x, y in ((a, b), (b, a), (a, a.derivative()), (a, Poly.zero())):
            _assert_gcd_with_cofactors(x, y)
        g = poly_gcd(a, b)
        assert g.lead == 1 and divmod(a, g)[1].is_zero and divmod(b, g)[1].is_zero
    # products of rational linear factors, with shared and repeated factors;
    # Fraction Euclid takes seconds on gcd(a, a') at degree 40, so there
    # the reference is the planted gcd, prod (x - r)^(m_r - 1)
    for d in (16, 24, 32, 48):
        roots = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(d)]
        shared = roots[: d // 3]
        planted = shared + roots[d // 3: 2 * d // 3] + shared[: d // 6]
        a = Poly.from_roots(planted, Fraction(-7, 3))
        b = Poly.from_roots(shared + roots[2 * d // 3:])
        _assert_gcd_with_cofactors(a, b)
        repeats = [r for r, m in Counter(planted).items() for _ in range(m - 1)]
        _assert_gcd_with_cofactors(a, a.derivative(), Poly.from_roots(repeats))
    # coprime pairs
    for d in (4, 16, 32):
        roots = rng.sample(range(-60, 61), 2 * d)
        _assert_gcd_with_cofactors(Poly.from_roots(roots[:d]), Poly.from_roots(roots[d:]))
        _assert_gcd_with_cofactors(_rand_poly(rng, d, 99), _rand_poly(rng, d // 2 + 1, 99))
    # at the first point xi = 4, gcd(15, 25) = 5 reads as x + 1, which
    # divides x^2 - 1 but not x^2 + x + 5
    _assert_gcd_with_cofactors(Poly([-1, 0, 1]), Poly([5, 1, 1]))
    # gcd(v(xi), v'(xi)) at the first evaluation point carries more
    # spurious content than xi has bits here, so this needs the later points
    v = _ladder_sturm_input(random.Random(0), 48)
    _assert_gcd_with_cofactors(v, v.derivative())
    pv, pdv = (_primitive_part(list(p._num)) for p in (v, v.derivative()))
    assert _heu_gcd(pv, pdv) == ([1], pv, pdv)
    b = Poly([Fraction(-4, 3), 0, Fraction(-2, 5)])
    assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()
    assert poly_gcd(Poly.zero(), b) == b.monic()
    assert poly_gcd(b, Poly.zero()) == b.monic()
    assert poly_gcd(Poly([5]), b) == Poly.one()
    # with one point GCDHEU gives up on its own: the content of
    # gcd(v(xi), v'(xi)) exceeds the first xi, and the remainder sequence
    # answers instead
    v = Poly.from_roots([r for r in range(-24, 25) if r])
    pv, pdv = (_primitive_part(list(p._num)) for p in (v, v.derivative()))
    assert _heu_gcd(pv, pdv) is not None
    monkeypatch.setattr(szego.poly, "_HEU_POINTS", 1)
    assert _heu_gcd(pv, pdv) is None
    _assert_gcd_with_cofactors(v, v.derivative(), Poly.one())


def _digit_loop_quotient(a, b):
    """Reference: exact quotient by indexed digits from the top, or None
    when a digit or the remainder shows that b does not divide a."""
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


def _balanced_digits(n, xi):
    """The primitive part of n read as balanced base-xi digits: a GCDHEU
    gcd candidate, which need not divide anything at a small xi."""
    half = xi // 2
    g = []
    while n:
        n, d = divmod(n, xi)
        if d > half:
            d -= xi
            n += 1
        g.append(d)
    return _primitive_part(g)


def test_exact_quotient_against_the_digit_loop_reference():
    rng = random.Random(28)

    def ints(deg):
        return [rng.randint(-20, 20) for _ in range(deg)] + [rng.choice([-7, -3, -2, -1, 1, 2, 5])]

    cases = []
    for _ in range(150):
        b, c = ints(rng.randint(0, 10)), ints(rng.randint(0, 10))
        a = _convolve(b, c)
        cases.append((a, b))  # exact products
        bumped = list(a)
        bumped[rng.randrange(len(a))] += rng.choice([-1, 1])
        cases.append((bumped, b))  # non-products: one coefficient off
        cases.append((ints(rng.randint(0, 20)), b))  # unrelated lists
        # GCDHEU candidates read at points far below its bound, most wrong
        for xi in (2, 3, 5, 11):
            g = _balanced_digits(math.gcd(_horner(a, xi), _horner(_convolve(b, ints(3)), xi)), xi)
            if g:
                cases.append((a, g))
    cases += [([5, 1, 1], [1, 1]), ([-1, 0, 1], [1, 1]), ([3], [1, 2]), ([4, 6], [2])]
    found = Counter()
    for a, b in cases:
        q = _exact_quotient(a, b)
        assert q == _digit_loop_quotient(a, b), (a, b)
        if q is not None:
            assert _convolve(q, b) == a
        found[q is None] += 1
    assert found[True] > 100 and found[False] > 100


def test_exp_poly_gamma_values():
    # e^x (x + c): j-th Taylor numerator is c + j
    for c in [Fraction(2), Fraction(-1, 3)]:
        f = ExpPoly(Poly([c, 1]))
        for j in range(8):
            assert f.gamma(j) == c + j
    # e^x (x - 1)^2: numerators j^2 - 3j + 1
    g = ExpPoly(Poly([1, -2, 1]))
    assert [g.gamma(j) for j in range(6)] == [1, -1, -1, 1, 5, 11]
    with pytest.raises(ValueError):
        g.gamma(-1)


def test_gamma_against_factorial_series():
    # j! [x^j] e^x P computed directly from the Cauchy product
    rng = random.Random(14)
    for _ in range(20):
        p = _rand_poly(rng, rng.randint(0, 4))
        f = ExpPoly(p)
        for j in range(7):
            direct = sum(
                p.coeff(i) * Fraction(math.factorial(j), math.factorial(j - i))
                for i in range(min(j, p.degree) + 1)
            )
            assert f.gamma(j) == direct, (p, j)


def test_gamma_numerators_are_the_gammas_over_the_denominator():
    rng = random.Random(15)
    for _ in range(30):
        p = _rand_poly(rng, rng.randint(0, 8))
        f = ExpPoly(p)
        den = math.lcm(*[c.denominator for c in p.coeffs])
        nums = f.gamma_numerators(14)
        assert all(type(v) is int for v in nums)
        gammas = [f.gamma(j) for j in range(15)]
        assert [Fraction(v, den) for v in nums] == gammas
        assert sign_changes(nums) == sign_changes(gammas)
    assert ExpPoly(Poly.zero()).gamma_numerators(3) == [0, 0, 0, 0]
    z = ExpPoly(Poly([1j, 2.0, -0.5]))
    with pytest.raises(ValueError, match="exact"):
        z.gamma_numerators(4)
    with pytest.raises(ValueError):
        z.gamma_numerators(-1)


def test_falling_factorial_transform_worked():
    assert falling_factorial_poly(3) == Poly([0, 2, -3, 1])
    # x^2 - 2x + 1 maps to x(x-1) - 2x + 1 = x^2 - 3x + 1
    assert falling_factorial_transform(Poly([1, -2, 1])) == Poly([1, -3, 1])
    assert falling_factorial_transform(Poly.zero()) == Poly.zero()


def test_transform_is_unitriangular():
    rng = random.Random(15)
    for _ in range(30):
        p = _rand_poly(rng, rng.randint(1, 6))
        q = falling_factorial_transform(p)
        assert q.degree == p.degree
        assert q.lead == p.lead
        assert q.constant == p.constant


def test_transform_evaluates_to_gamma_at_integers():
    rng = random.Random(16)
    for _ in range(20):
        p = _rand_poly(rng, rng.randint(0, 5))
        q = falling_factorial_transform(p)
        for j in range(8):
            assert q(Fraction(j)) == _ref_gamma(list(p.coeffs), j)


def test_inverse_transform_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        p = _rand_poly(rng, rng.randint(0, 6))
        assert inverse_falling_factorial_transform(falling_factorial_transform(p)) == p
    # the inverse is exact-only, like the transform
    with pytest.raises(ValueError, match="exact"):
        inverse_falling_factorial_transform(Poly([1j, 1.0, 1.0]))


def test_iterated_transform():
    p = Poly([1, 3, 1])
    assert iterate_falling_factorial_transform(p, 0) == p
    assert iterate_falling_factorial_transform(p, 1) == Poly([1, 2, 1])
    assert iterate_falling_factorial_transform(p, 2) == falling_factorial_transform(
        falling_factorial_transform(p)
    )
    with pytest.raises(ValueError):
        iterate_falling_factorial_transform(p, -1)


def test_iterated_transform_closed_form_matches_stepping():
    rng = random.Random(21)
    for _ in range(60):
        p = _rand_poly(rng, rng.randint(0, 7))
        nu = rng.randint(0, 12)
        stepped = p
        for _ in range(nu):
            stepped = falling_factorial_transform(stepped)
        assert iterate_falling_factorial_transform(p, nu) == stepped
    assert iterate_falling_factorial_transform(Poly.zero(), 10**9) == Poly.zero()


def test_interpolate_worked_and_random():
    assert interpolate([(0, 1), (1, 3), (2, 7)]) == Poly([1, 1, 1])
    assert interpolate([]) == Poly.zero()
    rng = random.Random(18)
    for _ in range(25):
        p = _rand_poly(rng, rng.randint(0, 5))
        nodes = rng.sample(range(-8, 9), p.degree + 1)
        pts = [(Fraction(x), p(Fraction(x))) for x in nodes]
        assert interpolate(pts) == p
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)])


def test_interpolate_complex_nodes():
    # interpolation is exact-only: a complex or float node or value is rejected
    for pts in (
        [(0j, 1 + 0j), (1j, 0j), (-1j, 0j)],
        [(0, 1), (1, 0.5)],
        [(0.0, 1), (1, 2)],
    ):
        with pytest.raises(ValueError, match="exact"):
            interpolate(pts)


def test_poly_json_round_trip():
    p = Poly([Fraction(1, 3), Fraction(-2), Fraction(5, 7)])
    obj = poly_to_json(p)
    assert obj == {"coeffs": ["1/3", "-2", "5/7"]}
    assert poly_from_json(obj) == p
    with pytest.raises(ValueError):
        poly_to_json(Poly([0.5, 1]))
    with pytest.raises(ValueError):
        poly_from_json({"nope": []})
    with pytest.raises(ValueError):
        poly_from_json({"coeffs": "1,2"})


def test_exp_poly_json_round_trip():
    f = ExpPoly(Poly([1, 3, 1]))
    obj = exp_poly_to_json(f)
    assert obj == {"exp_poly": {"coeffs": ["1", "3", "1"]}}
    assert exp_poly_from_json(obj) == f
    with pytest.raises(ValueError):
        exp_poly_from_json({"coeffs": ["1"]})


# -- the integer core against a Fraction reference ----------------------------
#
# The references below work on plain lists of Fractions, independent of
# the integer representation; every Poly result must match them
# coefficient for coefficient and be stored canonically.


def _ref_trim(v):
    v = [Fraction(c) for c in v]
    while v and v[-1] == 0:
        v.pop()
    return v


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _ref_trim([x + sign * y for x, y in zip(a, b)])


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r = _ref_trim(r)
    return _ref_trim(q), r


def _ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _ref_falling(d):
    out = [Fraction(1)]
    for i in range(d):
        out = _ref_mul(out, [Fraction(-i), Fraction(1)])
    return out


def _ref_transform(a):
    out = []
    for d, c in enumerate(a):
        out = _ref_add(out, [c * v for v in _ref_falling(d)])
    return out


def _ref_inverse_transform(a):
    out = [Fraction(0)] * len(a)
    work = list(a)
    while work:
        d = len(work) - 1
        out[d] = work[-1]
        work = _ref_add(work, [work[-1] * v for v in _ref_falling(d)], -1)
    return _ref_trim(out)


def _ref_interpolate(points):
    out = []
    for i, (xi, yi) in enumerate(points):
        term = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = _ref_mul(term, [-xj / (xi - xj), 1 / (xi - xj)])
        out = _ref_add(out, term)
    return out


def _ref_gamma(a, j):
    """j! [x^j] (e^x P) as the falling-product sum sum_i a_i j!/(j-i)!."""
    return sum(
        (c * Fraction(math.factorial(j), math.factorial(j - i)) for i, c in enumerate(a) if i <= j),
        Fraction(0),
    )


def _random_coeffs(rng, kind, degree):
    if kind == "zero":
        return [0] * rng.randint(0, 2)
    if kind == "int":
        out = [rng.randint(-20, 20) for _ in range(degree)] + [rng.choice([-3, -1, 1, 2, 7])]
    elif kind == "small":
        out = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(degree + 1)]
    else:  # large numerators and denominators, given with negative denominators
        out = [
            Fraction(rng.randint(-10**40, 10**40), -rng.randint(1, 10**30))
            for _ in range(degree + 1)
        ]
    return out + [0] * rng.randint(0, 2)  # trailing zeros must be trimmed


def _assert_canonical(p, want):
    assert list(p.coeffs) == want
    assert all(type(c) is Fraction for c in p.coeffs)
    assert all(c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1 for c in p.coeffs)
    assert p._den > 0 and math.gcd(p._den, *p._num) == 1
    assert not p._num or p._num[-1] != 0
    rebuilt = Poly(want)
    assert (p._num, p._den) == (rebuilt._num, rebuilt._den)
    assert p == rebuilt and hash(p) == hash(rebuilt)


def test_integer_core_against_fraction_reference():
    rng = random.Random(81)
    kinds = ["zero", "int", "small", "large"]
    for trial in range(160):
        ka, kb = kinds[trial % 4], kinds[(trial // 4) % 4]
        ra = _random_coeffs(rng, ka, rng.randint(0, 12))
        rb = _random_coeffs(rng, kb, rng.randint(0, 12))
        a, b = Poly(ra), Poly(rb)
        fa, fb = _ref_trim(ra), _ref_trim(rb)
        _assert_canonical(a, fa)
        _assert_canonical(a + b, _ref_add(fa, fb))
        _assert_canonical(a - b, _ref_add(fa, fb, -1))
        _assert_canonical(-a, _ref_add([], fa, -1))
        _assert_canonical(a * b, _ref_mul(fa, fb))
        _assert_canonical(a**2, _ref_mul(fa, fa))
        for s in (0, 3, -2, Fraction(-7, 4), Fraction(10**20, 3**30)):
            _assert_canonical(a * s, [c * s for c in fa] if s else [])
            _assert_canonical(s * a, [c * s for c in fa] if s else [])
        if fb:
            q, r = divmod(a, b)
            want_q, want_r = _ref_divmod(fa, fb)
            _assert_canonical(q, want_q)
            _assert_canonical(r, want_r)
        _assert_canonical(a.derivative(), _ref_trim([i * c for i, c in enumerate(fa)][1:]))
        if fa:
            _assert_canonical(a.monic(), [c / fa[-1] for c in fa])
        for x in (0, 1, -3, Fraction(2, 3), Fraction(-5, 7), Fraction(10**12 + 1, 10**9)):
            value = a(x)
            assert type(value) is Fraction and value == _ref_eval(fa, x)
        f = ExpPoly(a)
        for j in range(15):
            want = sum((c * math.perm(j, i) for i, c in enumerate(fa)), Fraction(0))
            assert type(f.gamma(j)) is Fraction and f.gamma(j) == want
        _assert_canonical(falling_factorial_transform(a), _ref_transform(fa))
        _assert_canonical(inverse_falling_factorial_transform(a), _ref_inverse_transform(fa))
        assert a.to_complex() == [complex(c) for c in fa]


def test_gamma_against_the_falling_product_sum_up_to_degree_48():
    # the ladder's shape: gamma(0..2d+1) of one ExpPoly per degree d
    rng = random.Random(86)
    for d in range(-1, 49):
        kind = "zero" if d < 0 else ("int", "small", "large")[d % 3]
        fa = _ref_trim(_random_coeffs(rng, kind, max(d, 0)))
        top = 2 * max(d, 0) + 1
        want = [_ref_gamma(fa, j) for j in range(top + 1)]
        f = ExpPoly(Poly(fa))
        got = [f.gamma(j) for j in range(top + 1)]
        assert all(type(v) is Fraction for v in got) and got == want, d
        den = math.lcm(*[c.denominator for c in fa])
        nums = f.gamma_numerators(top)
        assert all(type(v) is int for v in nums) and nums == [v * den for v in want], d


def test_exp_poly_stays_the_same_value():
    p = Poly([Fraction(1, 3), -2, 0, Fraction(5, 7)])
    want = [_ref_gamma(list(p.coeffs), j) for j in range(10)]
    built, fresh = ExpPoly(p), ExpPoly(p)
    assert [built.gamma(j) for j in range(10)] == want
    assert built.gamma_numerators(9) == [v * 21 for v in want]
    assert built == fresh and hash(built) == hash(fresh)
    for f in (built, fresh):
        back = pickle.loads(pickle.dumps(f))
        assert back == fresh and hash(back) == hash(fresh)
        assert [back.gamma(j) for j in range(10)] == want


def test_interpolate_against_lagrange_reference():
    rng = random.Random(82)
    for trial in range(60):
        n = rng.randint(1, 13)
        nodes = set()
        while len(nodes) < n:
            nodes.add(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        kind = ["int", "small", "large"][trial % 3]
        values = _random_coeffs(rng, kind, n - 1)[:n]
        points = [(x, v) for x, v in zip(sorted(nodes, key=lambda _: rng.random()), values)]
        _assert_canonical(interpolate(points), _ref_interpolate(points))
    # integer nodes and values interpolate exactly
    q = interpolate([(0, 1), (1, 3), (2, 7)])
    assert q.is_exact and q == Poly([1, 1, 1])


def test_interpolate_returns_the_planted_polynomial_in_the_ladder_shape():
    # nodes x/3 for distinct x in [-4d, 4d], values of a polynomial with
    # numerators up to 80 and denominators up to 8; the Fraction
    # reference is too slow past d = 24
    rng = random.Random(87)
    for d in (16, 24, 32, 48):
        planted = _ref_trim(
            [Fraction(rng.randint(-80, 80), rng.randint(1, 8)) for _ in range(d)]
            + [Fraction(rng.choice([-80, -1, 1, 80]), rng.randint(1, 8))]
        )
        xs = [Fraction(x, 3) for x in rng.sample(range(-4 * d, 4 * d + 1), d + 1)]
        points = [(x, _ref_eval(planted, x)) for x in xs]
        got = interpolate(points)
        _assert_canonical(got, planted)
        if d <= 24:
            assert list(got.coeffs) == _ref_interpolate(points)


def test_interpolate_scales_nodes_by_the_lcm_of_their_denominators():
    # no node denominator equals the lcm 360 of all of them
    xs = [Fraction(1, 4), Fraction(1, 6), Fraction(2, 9), Fraction(-3, 8), Fraction(7, 10),
          Fraction(-5, 12), Fraction(4, 5)]
    rng = random.Random(88)
    for n in range(2, len(xs) + 1):
        values = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(n)]
        points = list(zip(xs[:n], values))
        got = interpolate(points)
        _assert_canonical(got, _ref_interpolate(points))
        assert [got(x) for x in xs[:n]] == values


def test_interpolate_does_not_depend_on_the_order_of_the_points():
    rng = random.Random(89)
    for n in (2, 5, 12):
        nodes = rng.sample(range(-60, 61), n)
        points = [
            (Fraction(x, rng.randint(1, 7)), Fraction(rng.randint(-99, 99), rng.randint(1, 9)))
            for x in nodes
        ]
        shuffled = rng.sample(points, n)
        forms = {(p._num, p._den) for p in map(interpolate, (points, points[::-1], shuffled))}
        assert len(forms) == 1
        (num, den), = forms
        rebuilt = Poly(_ref_interpolate(points))
        assert (num, den) == (rebuilt._num, rebuilt._den)


def test_interpolate_one_point_and_zero_values():
    assert interpolate([(Fraction(5, 3), Fraction(-7, 2))]) == Poly([Fraction(-7, 2)])
    assert interpolate([(4, 0)]) == Poly.zero()
    for n in (2, 3, 9):
        zeros = interpolate([(Fraction(x, 2), 0) for x in range(-n, 2 * n, 3)])
        assert (zeros._num, zeros._den) == ((), 1)


def test_from_roots_against_fraction_reference():
    rng = random.Random(85)
    cases = [
        ([], 1),
        ([], Fraction(-2, 3)),
        ([1, 2], 0),
        ([0], 1),
        ([0, 0, 3], 2),
        ([1, 2, 3], 1),
        ([-4, Fraction(5, 2), Fraction(5, 2), Fraction(-7, 3)], Fraction(3, 4)),
        ([Fraction(1, 2)] * 6, Fraction(-1, 8)),
        ([Fraction(10**20, 3**30), -1, True], -5),
    ]
    for _ in range(40):
        pool = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)]
        roots = [rng.choice(pool + [0, rng.randint(-5, 5)]) for _ in range(rng.randint(0, 9))]
        cases.append((roots, Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
    for roots, lead in cases:
        want = [Fraction(lead)]
        for r in roots:
            want = _ref_mul(want, [-Fraction(r), Fraction(1)])
        _assert_canonical(Poly.from_roots(roots, lead), _ref_trim(want))
        _assert_canonical(Poly.from_roots(iter(roots), lead), _ref_trim(want))


def test_one_x_zero_and_monomial():
    _assert_canonical(Poly.one(), [Fraction(1)])
    _assert_canonical(Poly.x(), [Fraction(0), Fraction(1)])
    _assert_canonical(Poly.zero(), [])
    _assert_canonical(Poly.monomial(0), [Fraction(1)])
    _assert_canonical(Poly.monomial(3, Fraction(-4, 6)), [0, 0, 0, Fraction(-2, 3)])
    _assert_canonical(Poly.monomial(2, 0), [])
    with pytest.raises(ValueError, match="exact"):
        Poly.monomial(2, 1.5)
    with pytest.raises(ValueError):
        Poly.monomial(-1)
    with pytest.raises(TypeError):
        Poly.monomial(1, "2")


def test_equality_and_hash_across_construction_routes():
    p = Poly([Fraction(1, 2), Fraction(-3, 4), 2])
    routes = [
        Poly([Fraction(2, 4), Fraction(-6, 8), Fraction(4, 2), 0]),
        Poly([1, 0, 0]) * p,
        (p * Fraction(8, 3)) * Fraction(3, 8),
        p + Poly.zero(),
        Poly([0, 1]) * p // Poly([0, 1]),
        inverse_falling_factorial_transform(falling_factorial_transform(p)),
        interpolate([(x, p(x)) for x in (0, 1, 2)]),
    ]
    for q in routes:
        assert q == p and hash(q) == hash(p)
    # an exactly representable complex twin is equal and hashes alike
    twin = Poly([0.5, -0.75, 2.0])
    assert not twin.is_exact and twin == p and hash(twin) == hash(p)
    assert Poly([0j]) == Poly.zero() and hash(Poly([0j])) == hash(Poly.zero())
    assert p != Poly([Fraction(1, 2), Fraction(-3, 4), 2, 1])
    assert Poly([1, 2]) != Poly([Fraction(1, 2), 1])  # same numerators, other denominator


def test_one_inexact_coefficient_demotes_the_polynomial():
    for inexact in (0.5, 2j, complex(1, -1), float("1e300")):
        p = Poly([Fraction(1, 3), 2, inexact])
        assert not p.is_exact
        assert all(type(c) is complex for c in p.coeffs)
        assert p.coeffs[0] == complex(Fraction(1, 3))
    # arithmetic is exact-only: a float or complex operand is an error
    exact = Poly([Fraction(1, 3), 2])
    for op in (
        lambda: exact * 0.5,
        lambda: 0.5 * exact,
        lambda: exact + Poly([0.0, 1.0]),
        lambda: exact * Poly([1j]),
        lambda: exact(0.5),
    ):
        with pytest.raises(ValueError, match="exact"):
            op()


def test_to_complex_is_correctly_rounded():
    rng = random.Random(83)
    for _ in range(200):
        c = Fraction(rng.randint(-10**60, 10**60), rng.randint(1, 10**45))
        p = Poly([c, Fraction(1, 3), Fraction(rng.randint(1, 10**30), 7)])
        assert p.to_complex() == [complex(float(v)) for v in p.coeffs]


def test_transform_round_trips_up_to_degree_48():
    rng = random.Random(84)
    for d in (0, 1, 5, 17, 32, 48):
        p = _rand_poly(rng, d)
        assert inverse_falling_factorial_transform(falling_factorial_transform(p)) == p
        assert falling_factorial_transform(inverse_falling_factorial_transform(p)) == p
        # the image at integers gives the Taylor numerators
        image = falling_factorial_transform(p)
        fa = list(p.coeffs)
        assert all(image(j) == _ref_gamma(fa, j) for j in range(0, 2 * d + 2, max(1, d // 4)))


def _table_transform(p):
    # the Stirling-row path the in-place transform replaced: numerator c_d
    # of x^d contributes c_d s(d, k) to x^k, over the same denominator
    out = [0] * len(p._num)
    for d, c in enumerate(p._num):
        for k, s in enumerate(falling_factorial_coeffs(d)):
            out[k] += c * s
    return _exact(out, p._den)


def test_in_place_transform_matches_the_stirling_row_path():
    rng = random.Random(30)
    cases = [Poly.zero()]
    for d in range(65):
        cases += [_rand_poly(rng, d) for _ in range(3)]
        # large numerators, and a monomial, whose lower numerators are zero
        cases.append(Poly([Fraction(rng.randint(-10**20, 10**20), 97) for _ in range(d)] + [3]))
        cases.append(Poly.monomial(d, Fraction(-5, 7)))
    for p in cases:
        q, ref = falling_factorial_transform(p), _table_transform(p)
        assert (q._num, q._den) == (ref._num, ref._den), p
