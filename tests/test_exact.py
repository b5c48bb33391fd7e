"""Tests for exact rational parsing/formatting and combinatorial tables."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from szego import binomial, exact, format_rational, parse_rational
from szego.exact import falling_factorial_coeffs, stirling2_row


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


def test_stirling2_rows_small_cases():
    assert stirling2_row(0) == (1,)
    assert stirling2_row(1) == (0, 1)
    # x^3 = x(x-1)(x-2) + 3 x(x-1) + x
    assert stirling2_row(3) == (0, 1, 3, 1)
    assert stirling2_row(4) == (0, 1, 7, 6, 1)
    with pytest.raises(ValueError):
        stirling2_row(-1)


def test_stirling_rows_are_cached():
    assert falling_factorial_coeffs(12) is falling_factorial_coeffs(12)
    assert stirling2_row(12) is stirling2_row(12)


def test_monomials_expand_in_falling_factorials_up_to_degree_48():
    # x^d = sum_k S(d, k) x(x-1)...(x-k+1), compared coefficientwise
    for d in range(49):
        total = [0] * (d + 1)
        for k, s in enumerate(stirling2_row(d)):
            for i, c in enumerate(falling_factorial_coeffs(k)):
                total[i] += s * c
        assert total == [0] * d + [1], d
        # and the rows agree with the closed form of S(d, k)
        for k, s in enumerate(stirling2_row(d)):
            closed = sum((-1) ** i * math.comb(k, i) * (k - i) ** d for i in range(k + 1))
            assert s * math.factorial(k) == closed, (d, k)


def test_stirling_matrices_are_inverse_up_to_degree_48():
    # sum_k s(d, k) S(k, j) = [d == j]
    for d in range(49):
        first = falling_factorial_coeffs(d)
        for j in range(d + 1):
            total = sum(first[k] * stirling2_row(k)[j] for k in range(j, d + 1))
            assert total == (d == j), (d, j)


def test_stirling_rows_stay_in_place_under_concurrent_extension(monkeypatch):
    # threads that extend the same fresh tables at once must never leave a
    # row at the wrong index
    want1 = [falling_factorial_coeffs(d) for d in range(80)]
    want2 = [stirling2_row(d) for d in range(80)]
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for d in rng.sample(range(80), 80):
            if falling_factorial_coeffs(d) != want1[d] or stirling2_row(d) != want2[d]:
                wrong.append(d)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            monkeypatch.setattr(exact, "_STIRLING_ROWS", {1: [(1,)], 2: [(1,)]})
            threads = [threading.Thread(target=work, args=(10 * round_ + i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
