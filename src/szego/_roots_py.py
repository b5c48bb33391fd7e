"""Pure-Python simultaneous root iteration (Aberth-Ehrlich).

Initialization is deterministic: all starts lie on the circle whose
radius is the Cauchy bound 1 + max|c_i|/|c_n|, at equally spaced angles
with a fixed 0.4 rad phase offset to avoid real-axis symmetry traps.
A root counts as converged when |p(z)| <= tol * ||p||_inf * max(1,|z|)^n,
a scale-aware residual criterion reachable in double precision.
"""

from __future__ import annotations

import cmath
import math

__all__ = ["solve"]


def solve(
    coeffs: list[complex], tol: float, max_iter: int
) -> tuple[list[complex], list[float], int, bool]:
    """All complex roots of sum coeffs[i] x^i (ascending, lead nonzero).

    Returns (roots, normalized residuals, iterations used, converged).
    Degree must be >= 1.  Gauss-Seidel style in-place updates in fixed
    index order keep the iteration deterministic.
    """
    n = len(coeffs) - 1
    if n < 1 or coeffs[n] == 0:
        raise ValueError("kernel needs degree >= 1 and nonzero leading coefficient")
    pnorm = max(abs(c) for c in coeffs)
    radius = 1.0 + max(abs(c) for c in coeffs[:n]) / abs(coeffs[n])

    z = [
        radius * cmath.exp(1j * (2.0 * math.pi * i / n + 0.4)) for i in range(n)
    ]

    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        all_done = True
        for i in range(n):
            zi = z[i]
            # Horner for p(zi) and p'(zi)
            p = coeffs[n]
            dp = 0j
            for j in range(n - 1, -1, -1):
                dp = dp * zi + p
                p = p * zi + coeffs[j]
            bound = tol * pnorm * max(1.0, abs(zi)) ** n
            if abs(p) <= bound:
                continue
            all_done = False
            if dp == 0:
                # flat spot: nudge deterministically and retry next sweep
                z[i] = zi + (1e-8 + 1e-8j) * (1.0 + abs(zi))
                continue
            ratio = p / dp
            acc = 0j
            collision = False
            for j in range(n):
                if j == i:
                    continue
                diff = zi - z[j]
                if diff == 0:
                    collision = True
                    break
                acc += 1.0 / diff
            if collision:
                z[i] = zi + (1e-8 + 1e-8j) * (1.0 + abs(zi))
                continue
            denom = 1.0 - ratio * acc
            if denom == 0:
                z[i] = zi - ratio
            else:
                z[i] = zi - ratio / denom
        if all_done:
            converged = True
            break

    residuals = []
    for i in range(n):
        zi = z[i]
        p = coeffs[n]
        for j in range(n - 1, -1, -1):
            p = p * zi + coeffs[j]
        residuals.append(abs(p) / (pnorm * max(1.0, abs(zi)) ** n))
    return z, residuals, iterations, converged
