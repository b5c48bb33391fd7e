"""Pure-Python simultaneous root iteration (Aberth-Ehrlich).

Initialization follows Bini (Numer. Algorithms 13, 1996), as in MPSolve,
with the angles taken from the coefficients as well: the upper convex
hull (the Newton polygon) of the points (i, log|c_i|) is built, and a
hull edge from i0 to i1 accounts for k = i1 - i0 roots of modulus about
(|c_i0|/|c_i1|)^(1/k).  Its k starts are the roots of the edge's binomial
c_i0 + c_i1 x^k (the tropical roots of Gaubert and Sharify, 2009, with
their phases), so they keep the angle of the roots as well as their
modulus.  Every start is then rotated by a fixed _ROTATION of 0.05 rad,
which breaks the mirror symmetry of a real binomial's roots about the
real axis.  The starts depend only on the coefficients, so the iteration
is deterministic.

A root counts as converged when |p(z)| <= tol * sum |c_i| |z|^i: z is
then an exact root of a polynomial whose coefficients differ from p's by
a relative amount of at most tol each (the componentwise backward
error).  The bound is a real Horner pass over |c_i|, with no power of
|z|, and a non-finite bound never counts as converged.

A sweep evaluates only the roots that have not converged.  The test
depends on z and the coefficients alone, and a root that passes it is
never written again, so it would pass in every later sweep: freezing it
changes no iterate, no sweep count and no residual.  Its residual is
kept from the sweep in which it converged, and a last pass computes the
residuals of the roots still moving when max_iter runs out.  The
iteration count is the number of sweeps.
"""

from __future__ import annotations

import cmath
import math
import sys

__all__ = ["solve"]

_LOG_MAX = math.log(sys.float_info.max)
# A real polynomial has real edge binomials, whose roots mirror each other
# across the real axis and may lie on it; starts placed there separate real
# roots spread along an interval slowly (with no rotation the mean sweep
# count over seeds 1-3 of the benchmark's roots workload rose from 8.1 to
# 12.9, the largest from 34 to 52).  Any rotation from 0.01 to 0.1 rad did as well
# as this one.
_ROTATION = 0.05


def _starts(coeffs: list[complex]) -> list[complex]:
    """Starting points at the roots of the Newton polygon's edge binomials."""
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        y = math.log(abs(c))
        # drop the last vertex while it lies on or below the chord to (i, y)
        while len(hull) >= 2:
            (a, ya), (b, yb) = hull[-2], hull[-1]
            if (b - a) * (y - ya) < (yb - ya) * (i - a):
                break
            hull.pop()
        hull.append((i, y))
    z = []
    for (i0, y0), (i1, y1) in zip(hull, hull[1:]):
        k = i1 - i0
        radius = math.exp(min((y0 - y1) / k, _LOG_MAX))
        # the phases of -c_i0 / c_i1, taken apart: the quotient itself can
        # overflow or be NaN where both phases are finite
        phase = cmath.phase(-coeffs[i0]) - cmath.phase(coeffs[i1])
        z.extend(
            cmath.rect(radius, (phase + 2.0 * math.pi * j) / k + _ROTATION)
            for j in range(k)
        )
    return z


def solve(
    coeffs: list[complex], tol: float, max_iter: int
) -> tuple[list[complex], list[float], int, bool]:
    """All complex roots of sum coeffs[i] x^i (ascending, lead nonzero).

    Returns (roots, residuals, iterations used, converged), where each
    residual is |p(z)| / sum |c_i| |z|^i, so every residual is <= tol on
    convergence.  Degree must be >= 1 and the constant term nonzero
    (split exact zero roots off first).  Gauss-Seidel style in-place
    updates in fixed index order keep the iteration deterministic.
    """
    n = len(coeffs) - 1
    if n < 1 or coeffs[n] == 0 or coeffs[0] == 0:
        raise ValueError(
            "kernel needs degree >= 1 and nonzero leading and constant coefficients"
        )
    moduli = [abs(c) for c in coeffs]
    z = _starts(coeffs)
    lead, lead_modulus = coeffs[n], moduli[n]
    # (c_j, |c_j|) for j = n-1 down to 0, the order Horner reads them in
    row = list(zip(coeffs[n - 1 :: -1], moduli[n - 1 :: -1]))

    residuals = [0.0] * n
    active = list(range(n))
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        moving = []
        for i in active:
            zi = z[i]
            r = abs(zi)
            # Horner for p(zi), p'(zi) and sum |c_j| |zi|^j
            p = lead
            dp = 0j
            bound = lead_modulus
            for c, m in row:
                dp = dp * zi + p
                p = p * zi + c
                bound = bound * r + m
            size = abs(p)
            if size <= tol * bound < math.inf:
                # frozen: zi is never written again, so it would pass again
                residuals[i] = size / bound
                continue
            moving.append(i)
            if dp == 0:
                # flat spot: nudge deterministically and retry next sweep
                z[i] = zi + (1e-8 + 1e-8j) * (1.0 + r)
                continue
            ratio = p / dp
            acc = 0j
            try:
                for w in z[:i]:
                    acc += 1.0 / (zi - w)
                for w in z[i + 1 :]:
                    acc += 1.0 / (zi - w)
            except ZeroDivisionError:  # zi collides with another root
                z[i] = zi + (1e-8 + 1e-8j) * (1.0 + r)
                continue
            denom = 1.0 - ratio * acc
            if denom == 0:
                z[i] = zi - ratio
            else:
                z[i] = zi - ratio / denom
        active = moving
        if not active:
            break

    for i in active:
        zi = z[i]
        r = abs(zi)
        p = lead
        bound = lead_modulus
        for c, m in row:
            p = p * zi + c
            bound = bound * r + m
        residuals[i] = abs(p) / bound if bound < math.inf else math.inf
    return z, residuals, iterations, not active
