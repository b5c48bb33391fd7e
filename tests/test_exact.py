"""Tests for exact rational parsing/formatting and combinatorial tables."""

import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from szego import (
    Poly,
    binomial,
    decomposition_map,
    falling_factorial_poly,
    falling_factorial_transform,
    format_rational,
    inverse_falling_factorial_transform,
    parse_rational,
)
from szego.exact import falling_factorial_coeffs


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-9/6") == Fraction(-3, 2)
    assert parse_rational("  5/8 ") == Fraction(5, 8)
    assert parse_rational("+4/3") == Fraction(4, 3)


def test_parse_rational_rejects_floats_and_garbage():
    for bad in ["", "  ", "1.5", "3e2", "2E1", "1/0", "a/b", "1/2/3", "nan"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_parse_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        assert parse_rational(format_rational(q)) == q


def test_format_rational_shapes():
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(-4)) == "-4"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-2, 6)) == "-1/3"
    assert format_rational(Fraction(0)) == "0"


def test_binomial_matches_math_comb():
    for n in range(12):
        for s in range(n + 1):
            assert binomial(n, s) == math.comb(n, s)


def test_binomial_out_of_range_is_an_error():
    # out-of-range indices would hide ambient-degree bugs if they were 0
    with pytest.raises(ValueError):
        binomial(3, 4)
    with pytest.raises(ValueError):
        binomial(3, -1)
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_falling_factorial_coeffs_small_cases():
    assert falling_factorial_coeffs(0) == (1,)
    assert falling_factorial_coeffs(1) == (0, 1)
    # x(x-1) = x^2 - x
    assert falling_factorial_coeffs(2) == (0, -1, 1)
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert falling_factorial_coeffs(3) == (0, 2, -3, 1)
    with pytest.raises(ValueError):
        falling_factorial_coeffs(-1)


def test_falling_factorial_coeffs_evaluate_to_falling_products():
    for d in range(1, 8):
        coeffs = falling_factorial_coeffs(d)
        for j in range(10):
            value = sum(c * j**i for i, c in enumerate(coeffs))
            expected = math.prod(j - i for i in range(d))
            assert value == expected, (d, j)


def _inverse_of_monomial(d):
    return tuple(inverse_falling_factorial_transform(Poly.monomial(d)).coeffs)


def test_stirling2_rows_small_cases():
    # the inverse transform of x^d is row d of the second kind, S(d, 0..d)
    assert _inverse_of_monomial(0) == (1,)
    assert _inverse_of_monomial(1) == (0, 1)
    # x^3 = x(x-1)(x-2) + 3 x(x-1) + x
    assert _inverse_of_monomial(3) == (0, 1, 3, 1)
    assert _inverse_of_monomial(4) == (0, 1, 7, 6, 1)
    assert inverse_falling_factorial_transform(Poly.zero()) == Poly.zero()


def test_stirling_rows_are_not_kept_after_use():
    # the rows are built on each call, so nothing of an exp map or a
    # falling factorial outlives them (a kept table of rows 0..200 held
    # about 2 MB)
    decomposition_map("exp", m=2), falling_factorial_poly(2)  # load the code paths
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = decomposition_map("exp", m=200), falling_factorial_poly(150)
        del built
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained


def test_monomials_expand_in_falling_factorials_up_to_degree_48():
    # x^d = sum_k S(d, k) x(x-1)...(x-k+1), with S(d, k) from the closed
    # form k! S(d, k) = sum_i (-1)^i C(k, i) (k - i)^d
    for d in range(49):
        row = _inverse_of_monomial(d)
        assert len(row) == d + 1, d
        for k, s in enumerate(row):
            closed = sum((-1) ** i * math.comb(k, i) * (k - i) ** d for i in range(k + 1))
            assert s * math.factorial(k) == closed, (d, k)
        total = [0] * (d + 1)
        for k, s in enumerate(row):
            for i, c in enumerate(falling_factorial_coeffs(k)):
                total[i] += s * c
        assert total == [0] * d + [1], d


def test_stirling_matrices_are_inverse_up_to_degree_48():
    # T^-1(T(p)) = p on monomials and on random exact polynomials
    for d in range(49):
        x_d = Poly.monomial(d)
        assert inverse_falling_factorial_transform(falling_factorial_transform(x_d)) == x_d, d
    rng = random.Random(25)
    for _ in range(200):
        p = Poly([Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6)) for _ in range(rng.randint(0, 48))])
        back = inverse_falling_factorial_transform(falling_factorial_transform(p))
        assert (back._num, back._den) == (p._num, p._den)


def _ref_stirling2_rows(top):
    # S(i+1, k) = k S(i, k) + S(i, k-1), independent of the code under test
    rows = [[1]]
    for _ in range(top):
        prev = rows[-1] + [0]
        rows.append([k * prev[k] + (prev[k - 1] if k else 0) for k in range(len(prev))])
    return rows


def test_inverse_transform_matches_the_second_kind_recurrence():
    # x^d = sum_k S(d, k) x(x-1)...(x-k+1), so T^-1(q)_k = sum_d q_d S(d, k)
    rows = _ref_stirling2_rows(64)
    rng = random.Random(2025)
    cases = [[], [0], [5], [Fraction(-7, 3)], [0, 0, 0]]
    for _ in range(1000):
        degree = rng.randint(0, 64)
        bits = rng.choice([4, 30, 120])
        cases.append(
            [Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2 ** (bits // 2))) for _ in range(degree + 1)]
        )
    for coeffs in cases:
        # on the integer numerators over q's denominator, which the
        # integer unitriangular inverse keeps
        q = Poly(coeffs)
        want = [0] * len(q._num)
        for d, c in enumerate(q._num):
            for k, s in enumerate(rows[d]):
                want[k] += c * s
        got = inverse_falling_factorial_transform(q)
        assert (got._num, got._den) == (tuple(want), q._den)
