"""Exact rational scalars and the handful of combinatorial tables the
composition formulas need.

Rationals are ``fractions.Fraction``: already normalized to lowest terms
with a positive denominator, hashable, and exact under field operations.
This module adds the string form used by the JSON interfaces ("p" or
"p/q") plus checked binomial coefficients and the rows of both Stirling
triangles, which carry the falling-factorial transform and its inverse.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "parse_rational",
    "format_rational",
    "binomial",
    "falling_factorial_coeffs",
    "stirling2_row",
]


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (optionally signed) into an exact rational.

    Raises ValueError on anything else; in particular decimal floats are
    rejected so no silent precision loss can enter an exact pipeline.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if any(ch in s for ch in ".eE"):
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def _parse_rationals(values, what: str) -> list[Fraction]:
    """A JSON array of "p"/"p/q" strings and integers as rationals; any
    other value, a bool or a float included, is a ValueError naming what."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be an array of rational strings or integers")
    for v in values:
        if not isinstance(v, str) and type(v) is not int:
            raise ValueError(f"{what}: {v!r} is neither a rational string nor an integer")
    return [parse_rational(v) if isinstance(v, str) else Fraction(v) for v in values]


def _json_field(obj, key: str, types, kind: str):
    """obj[key] of a JSON object obj, of one of types and not a bool;
    anything else, a missing key included, is a ValueError."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"expected an object whose {key!r} is {kind}")
    return value


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational: "p" for integers, else "p/q"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def binomial(n: int, s: int) -> int:
    """C(n, s) for 0 <= s <= n.

    Out-of-range s is an error here, not zero: the composition formulas
    divide by C(n, j), so a silent zero would hide an ambient-degree bug.
    """
    if n < 0:
        raise ValueError(f"binomial: negative n = {n}")
    if s < 0 or s > n:
        raise ValueError(f"binomial: index {s} outside 0..{n}")
    return math.comb(n, s)


# Rows of the two Stirling triangles, extended on demand and kept for the
# life of the process: row d of the first kind holds the monomial
# coefficients of the falling factorial x(x-1)...(x-d+1), row d of the
# second kind the falling-factorial coefficients of x^d.  Rows 0..d hold
# about d^2 / 2 integers of up to about d log2(d) bits each, a few
# hundred kilobytes at d = 64.  A table is extended on a copy and then
# published by one assignment, so concurrent callers never see a row
# out of place.
_STIRLING_ROWS: dict[int, list[tuple[int, ...]]] = {1: [(1,)], 2: [(1,)]}


def _stirling_row(kind: int, d: int, step) -> tuple[int, ...]:
    rows = _STIRLING_ROWS[kind]
    if d >= len(rows):
        rows = list(rows)
        while len(rows) <= d:
            rows.append(step(rows[-1], len(rows) - 1))
        _STIRLING_ROWS[kind] = rows
    return rows[d]


def _next_first_kind(prev: tuple[int, ...], i: int) -> tuple[int, ...]:
    # s(i+1, k) = s(i, k-1) - i s(i, k): row i times (x - i)
    return tuple(a - i * b for a, b in zip((0,) + prev, prev + (0,)))


def _next_second_kind(prev: tuple[int, ...], i: int) -> tuple[int, ...]:
    # S(i+1, k) = k S(i, k) + S(i, k-1)
    return tuple(k * a + b for k, (a, b) in enumerate(zip(prev + (0,), (0,) + prev)))


def falling_factorial_coeffs(j: int) -> tuple[int, ...]:
    """Monomial coefficients (ascending) of x(x-1)...(x-j+1).

    j = 0 gives the empty product (1,).  Entries are the signed Stirling
    numbers of the first kind s(j, k), from the recurrence
    s(i+1, k) = s(i, k-1) - i s(i, k), i.e. multiplying row i by (x - i).
    Rows are cached.
    """
    if j < 0:
        raise ValueError(f"falling_factorial_coeffs: negative j = {j}")
    return _stirling_row(1, j, _next_first_kind)


def stirling2_row(d: int) -> tuple[int, ...]:
    """Stirling numbers of the second kind S(d, 0..d), so that
    x^d = sum_k S(d, k) x(x-1)...(x-k+1).

    From the recurrence S(i+1, k) = k S(i, k) + S(i, k-1).  Rows are
    cached.
    """
    if d < 0:
        raise ValueError(f"stirling2_row: negative d = {d}")
    return _stirling_row(2, d, _next_second_kind)
