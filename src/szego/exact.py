"""Exact rational scalars and the handful of combinatorial tables the
composition formulas need.

Rationals are ``fractions.Fraction``: already normalized to lowest terms
with a positive denominator, hashable, and exact under field operations.
This module adds the string form used by the JSON interfaces ("p" or
"p/q") plus checked binomial coefficients and the rows of the Stirling
triangle of the first kind, the monomial coefficients of the falling
factorials, built on each call: the module keeps no mutable state.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "parse_rational",
    "format_rational",
    "binomial",
    "falling_factorial_coeffs",
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

    Out-of-range s is an error here, not zero: a silent zero would hide an
    index or degree bug in the caller (verify's alternation check, C(n, 2)).
    """
    if n < 0:
        raise ValueError(f"binomial: negative n = {n}")
    if s < 0 or s > n:
        raise ValueError(f"binomial: index {s} outside 0..{n}")
    return math.comb(n, s)


def _stirling_rows(m: int) -> list[tuple[int, ...]]:
    """Rows 0..m of the signed Stirling triangle of the first kind: row d
    holds the monomial coefficients of x(x-1)...(x-d+1), by the
    recurrence s(i+1, k) = s(i, k-1) - i s(i, k), i.e. multiplying row i
    by (x - i).  Built afresh on each call, O(m^2) integer steps."""
    rows = [(1,)]
    for i in range(m):
        prev = rows[-1]
        rows.append(tuple(a - i * b for a, b in zip((0,) + prev, prev + (0,))))
    return rows


def falling_factorial_coeffs(j: int) -> tuple[int, ...]:
    """Monomial coefficients (ascending) of x(x-1)...(x-j+1).

    j = 0 gives the empty product (1,).  Entries are the signed Stirling
    numbers of the first kind s(j, k), the last of ``_stirling_rows(j)``.
    """
    if j < 0:
        raise ValueError(f"falling_factorial_coeffs: negative j = {j}")
    return _stirling_rows(j)[-1]
