"""Tests for the binomially weighted coefficientwise composition, its
degree-bearing factors, and the e^x * P variant."""

import random
from fractions import Fraction

import pytest

from szego import (
    AmbientDegreeError,
    ExpPoly,
    Poly,
    SscContext,
    compose,
    composition_factor,
    derivative_identities_hold,
    exp_compose,
    exp_composition_factor,
    inverse_falling_factorial_transform,
)
from szego.exact import binomial


def _rand_poly(rng, deg, bound=6):
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, bound)))
    return Poly(coeffs)


def test_context_validation():
    assert SscContext(0).ambient_degree == 0
    with pytest.raises(ValueError):
        SscContext(-1)
    with pytest.raises(ValueError):
        SscContext(2.0)
    # True == 1 is an int to isinstance, but the JSON layer refuses a bool
    # for a degree, and so does the context
    with pytest.raises(ValueError):
        SscContext(True)


def test_unit_element():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 6)
        a = _rand_poly(rng, n)
        unit = Poly([1, 1]) ** n
        assert compose(a, unit, SscContext(n)) == a
        assert compose(unit, a, SscContext(n)) == a


def test_worked_composition_of_double_roots():
    # (x-2)^2 and (x-3)^2 at ambient degree 2 compose to (x+6)^2
    a = Poly.from_roots([2, 2])
    b = Poly.from_roots([3, 3])
    assert compose(a, b, SscContext(2)) == Poly([36, 12, 1])


def test_compose_formula_directly():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = _rand_poly(rng, n)
        b = _rand_poly(rng, rng.randint(0, n))
        got = compose(a, b, SscContext(n))
        for j in range(n + 1):
            assert got.coeff(j) == a.coeff(j) * b.coeff(j) / binomial(n, j)


def _ref_compose(a, b, n):
    """[x^j] = a_j b_j / C(n, j) on Fraction lists padded to length n + 1."""
    ca = list(a.coeffs) + [Fraction(0)] * (n + 1 - len(a.coeffs))
    cb = list(b.coeffs) + [Fraction(0)] * (n + 1 - len(b.coeffs))
    return [x * y / binomial(n, j) for j, (x, y) in enumerate(zip(ca, cb))]


def test_exact_compose_against_fraction_reference():
    rng = random.Random(26)
    cases = [
        (Poly([3]), Poly([Fraction(-2, 7)]), 0),
        (Poly([Fraction(5, 3)]), Poly.zero(), 0),
        (Poly([0, 1]), Poly([5]), 1),
        (Poly.zero(), Poly([1, 1]), 1),
        (Poly([Fraction(10**20, 3**30), 0, Fraction(-7, 10**9)]), Poly([0, 1]), 2),
    ]
    for _ in range(40):
        n = rng.randint(0, 8)
        low = Poly(
            [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(rng.randint(0, n))]
        )
        cases.append((_rand_poly(rng, n), low, n))
        cases.append((_rand_poly(rng, n), _rand_poly(rng, n), n))
    for a, b, n in cases:
        for x, y in ((a, b), (b, a)):
            got = compose(x, y, SscContext(n))
            want = Poly(_ref_compose(x, y, n))
            assert got.is_exact and got == want and (got._num, got._den) == (want._num, want._den)


def test_commutative_and_associative():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        ctx = SscContext(n)
        a = _rand_poly(rng, n)
        b = _rand_poly(rng, n)
        c = _rand_poly(rng, n)
        assert compose(a, b, ctx) == compose(b, a, ctx)
        assert compose(compose(a, b, ctx), c, ctx) == compose(a, compose(b, c, ctx), ctx)


def test_ambient_degree_must_be_witnessed():
    ctx = SscContext(3)
    low = Poly([1, 1])  # degree 1 < 3
    full = Poly([1, 1, 1, 1])
    with pytest.raises(AmbientDegreeError):
        compose(low, low, ctx)
    # fine as soon as one operand has the full degree
    assert compose(low, full, ctx) == Poly([1, Fraction(1, 3)])
    with pytest.raises(ValueError):
        compose(Poly([0, 0, 0, 0, 1]), full, ctx)
    with pytest.raises(ValueError, match="exceeds ambient degree 0: 1, 1"):
        compose(low, low, SscContext(0))


def test_padding_changes_the_composition():
    # same coefficient vectors, different ambient degree, different result
    a = Poly([1, 1])
    ctx1 = SscContext(1)
    ctx2 = SscContext(2)
    aa1 = compose(a, a, ctx1)
    aa2 = compose(a, Poly([1, 1, 1]), ctx2)
    assert aa1 == Poly([1, 1])
    assert aa2 != Poly([1, 1])


def test_composition_factor_matches_product_form():
    rng = random.Random(24)
    for _ in range(30):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        built = composition_factor(n, k, a)
        assert built == Poly([1, 1]) ** (n + k - 1) * Poly([a, 1])
    with pytest.raises(ValueError):
        composition_factor(0, 1, Fraction(1))


def test_composition_factor_against_fraction_reference():
    cases = [(1, 1, 0), (1, 1, -1), (2, 3, Fraction(-3, 2)), (4, 1, 7), (3, 5, Fraction(10**20 + 1, -(3**25)))]
    for n, k, a in cases:
        m = n + k
        want = Poly([binomial(m, s) * ((m - s) * Fraction(a) + s) / m for s in range(m + 1)])
        got = composition_factor(n, k, a)
        assert got.is_exact and (got._num, got._den) == (want._num, want._den)
    # a float parameter is an error, never rounded to a rational
    for a in (0.5, -2.0):
        with pytest.raises(ValueError, match="exact"):
            composition_factor(2, 1, a)


def test_exact_construction_skips_the_public_constructor(monkeypatch):
    a = Poly([1, Fraction(-2, 3), 4])
    b = Poly([Fraction(5, 2), 0, 1])
    c = Poly([7])

    def refuse(self, values=()):
        raise AssertionError("the public Poly constructor ran on an exact path")

    monkeypatch.setattr(Poly, "__init__", refuse)
    with pytest.raises(AssertionError):
        Poly([1])
    Poly.from_roots([1, Fraction(-1, 2), 0], Fraction(3, 5))
    Poly.from_roots([])
    Poly.one(), Poly.x(), Poly.zero(), Poly.monomial(3, Fraction(1, 2))
    a**5
    compose(a, b, SscContext(2))
    compose(b, c, SscContext(2))
    composition_factor(2, 3, Fraction(-1, 4))
    composition_factor(2, 3, 5)


def test_composition_factor_coefficient_vanishing():
    # [x^s] of the factor vanishes exactly at a = -s/(n+k-s)
    n, k = 2, 3
    m = n + k
    for s in range(m):
        a_star = Fraction(-s, m - s)
        p = composition_factor(n, k, a_star)
        assert p.coeff(s) == 0, s
        q = composition_factor(n, k, a_star + Fraction(1, 97))
        assert q.coeff(s) != 0, s


def test_exp_compose_worked_identities():
    plus = ExpPoly(Poly([1, 1]))  # e^x (x + 1)
    minus = ExpPoly(Poly([-1, 1]))  # e^x (x - 1)
    assert exp_compose(plus, plus) == ExpPoly(Poly([1, 3, 1]))
    assert exp_compose(minus, minus) == ExpPoly(Poly([1, -1, 1]))


def test_exp_compose_multiplies_taylor_numerators():
    rng = random.Random(25)
    for _ in range(25):
        f = ExpPoly(_rand_poly(rng, rng.randint(0, 4)))
        g = ExpPoly(_rand_poly(rng, rng.randint(0, 4)))
        h = exp_compose(f, g)
        assert h.poly.degree == f.poly.degree + g.poly.degree
        for j in range(10):
            assert h.gamma(j) == f.gamma(j) * g.gamma(j), j


def test_exp_compose_zero_absorbs():
    z = ExpPoly(Poly.zero())
    f = ExpPoly(Poly([1, 1]))
    assert exp_compose(z, f) == z


def _newton_through_integer_nodes(values):
    """Ascending coefficients of the polynomial through (j, values[j]),
    j = 0..len(values)-1, by Newton divided differences."""
    table = list(values)
    n = len(table)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / level  # nodes i and i-level
    coeffs = [table[-1]]
    for i in range(n - 2, -1, -1):
        coeffs = [a - i * b for a, b in zip([0] + coeffs, coeffs + [0])]  # times (x - i)
        coeffs[0] += table[i]
    return coeffs


def _reference_exp_compose(f, g):
    """Interpolate the gamma products at j = 0..deg P + deg Q, then undo
    the falling-factorial transform."""
    d = f.poly.degree + g.poly.degree
    values = [f.gamma(j) * g.gamma(j) for j in range(d + 1)]
    transformed = Poly(_newton_through_integer_nodes(values))
    return ExpPoly(inverse_falling_factorial_transform(transformed))


def test_exp_compose_against_the_interpolation_reference():
    rng = random.Random(27)
    for _ in range(30):
        f = ExpPoly(_rand_poly(rng, rng.randint(0, 12)))
        g = ExpPoly(_rand_poly(rng, rng.randint(0, 12)))
        assert exp_compose(f, g) == _reference_exp_compose(f, g)
    f = ExpPoly(Poly([complex(1.0, 0.5), -0.25, complex(0.0, 2.0)]))
    g = ExpPoly(Poly([0.5, complex(1.5, -1.0), 1.0, 0.75]))
    with pytest.raises(ValueError, match="exact"):
        exp_compose(f, g)


def _reference_exp_factor_step(p, a):
    """Composing e^x p with e^x (1 + x/a) gives e^x q, q = (1 + x/a) p + (x/a) p'."""
    return p + Poly.x() * (p + p.derivative()) * Fraction(1, a)


def test_exp_factor_and_incremental_step_agree():
    rng = random.Random(26)
    for _ in range(25):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice([1, -1])
        p = _rand_poly(rng, rng.randint(0, 4))
        stepped = _reference_exp_factor_step(p, a)
        composed = exp_compose(ExpPoly(p), exp_composition_factor(a))
        assert composed == ExpPoly(stepped)
    with pytest.raises(ValueError):
        exp_composition_factor(0)


def test_derivative_identities_worked_and_random():
    assert derivative_identities_hold(Poly([1, 2, 1]), Poly([1, 3, 1]), SscContext(2))
    # ambient degree 1 edge case
    assert derivative_identities_hold(Poly([2, 1]), Poly([-1, 3]), SscContext(1))
    rng = random.Random(27)
    for _ in range(40):
        n = rng.randint(2, 6)
        a = _rand_poly(rng, n)
        b = _rand_poly(rng, rng.randint(1, n))
        assert derivative_identities_hold(a, b, SscContext(n))
    with pytest.raises(ValueError):
        derivative_identities_hold(Poly([1]), Poly([1]), SscContext(0))


def test_root_orders_add_up():
    # double roots at 2 and 3 at ambient 2 leave a double root at -6
    a = Poly.from_roots([2, 2])
    b = Poly.from_roots([3, 3])
    got = compose(a, b, SscContext(2))
    assert got % Poly([6, 1]) ** 2 == Poly.zero()
    rng = random.Random(28)
    for _ in range(30):
        n = rng.randint(3, 6)
        ma = rng.randint(1, n)
        mb = rng.randint(max(1, n + 1 - ma), n)
        xa = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice([1, -1])
        xb = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice([1, -1])
        a = Poly.from_roots([xa] * ma) * _rand_poly(rng, n - ma)
        b = Poly.from_roots([xb] * mb) * _rand_poly(rng, n - mb)
        got = compose(a, b, SscContext(n))
        mu = ma + mb - n
        assert got % Poly([xa * xb, 1]) ** mu == Poly.zero()


def test_self_composition_chain_identities():
    # shell*(x) factors with a zero or unit root compose to closed forms
    for k in range(1, 5):
        nk = k + 2
        ctx = SscContext(nk)
        shell = Poly([1, 1]) ** (k + 1)
        base = Poly([1, 1]) ** k
        a1 = shell * Poly.x()
        assert compose(a1, a1, ctx) == base * Poly.x() * Poly([Fraction(1, nk), 1])
        a2 = shell * Poly([-1, 1])
        assert compose(a2, a2, ctx) == base * Poly([1, Fraction(-2 * k, nk), 1])
