"""Tests for dense polynomials, e^x * P wrappers, and the
falling-factorial transform."""

import math
import random
from fractions import Fraction

import pytest

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
from szego.poly import NEG_INF, falling_factorial_poly, poly_gcd


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


def test_basic_observers():
    p = Poly([5, 0, 7])
    assert p.degree == 2
    assert p.lead == 7
    assert p.constant == 5
    assert p.coeff(1) == 0
    assert p.coeff(99) == 0
    with pytest.raises(ValueError):
        Poly.zero().lead


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


def test_divmod_is_exact_division_with_remainder():
    rng = random.Random(12)
    for _ in range(50):
        a = _rand_poly(rng, rng.randint(0, 6))
        b = _rand_poly(rng, rng.randint(1, 4))
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.is_zero or r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(Poly([1, 1]), Poly.zero())


def test_power_and_from_roots():
    assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])
    assert Poly([1, 1]) ** 0 == Poly.one()
    p = Poly.from_roots([1, 2, 3])
    assert p == Poly([-6, 11, -6, 1])
    assert p(1) == 0 and p(2) == 0 and p(3) == 0
    with pytest.raises(ValueError):
        Poly([1, 1]) ** -1


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
    w = Poly([1.0, 1.0])(2.0)
    assert isinstance(w, complex)


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


def test_poly_gcd_against_euclid_reference():
    rng = random.Random(71)
    for _ in range(60):
        common = Poly.from_roots(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))],
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5)),
        )
        a = common * _rand_poly(rng, rng.randint(0, 8))
        b = common * _rand_poly(rng, rng.randint(0, 8)) * Fraction(-3, 2)
        for x, y in ((a, b), (b, a), (a, a.derivative()), (a, Poly.zero())):
            assert poly_gcd(x, y) == _euclid_gcd(x, y), (x, y)
        g = poly_gcd(a, b)
        assert g.lead == 1 and divmod(a, g)[1].is_zero and divmod(b, g)[1].is_zero
    b = Poly([Fraction(-4, 3), 0, Fraction(-2, 5)])
    assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()
    assert poly_gcd(Poly.zero(), b) == b.monic()
    assert poly_gcd(b, Poly.zero()) == b.monic()
    assert poly_gcd(Poly([5]), b) == Poly.one()


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
        f = ExpPoly(p)
        for j in range(8):
            assert q(Fraction(j)) == f.gamma(j)


def test_inverse_transform_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        p = _rand_poly(rng, rng.randint(0, 6))
        assert inverse_falling_factorial_transform(falling_factorial_transform(p)) == p
    # the inverse also works over complex coefficients:
    # x^2 + x + i is the image of x^2 + 2x + i
    back = inverse_falling_factorial_transform(Poly([1j, 1.0, 1.0]))
    assert back == Poly([1j, 2.0, 1.0])


def test_iterated_transform():
    p = Poly([1, 3, 1])
    assert iterate_falling_factorial_transform(p, 0) == p
    assert iterate_falling_factorial_transform(p, 1) == Poly([1, 2, 1])
    assert iterate_falling_factorial_transform(p, 2) == falling_factorial_transform(
        falling_factorial_transform(p)
    )
    with pytest.raises(ValueError):
        iterate_falling_factorial_transform(p, -1)


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
    pts = [(0j, 1 + 0j), (1j, 0j), (-1j, 0j)]
    q = interpolate(pts)  # 1 + x^2 fits: 1 + (i)^2 = 0
    assert abs(q.coeff(0) - 1) < 1e-12
    assert abs(q.coeff(1)) < 1e-12
    assert abs(q.coeff(2) - 1) < 1e-12


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
