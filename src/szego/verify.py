"""Seeded verification suites for the composition laws and their
consequences: sign-cone invariance, root localization, Taylor-sign
counting, iterated-transform asymptotics, half-plane non-invariance,
and the perturbation experiments.

A randomized check is one per-trial function trial(rng, t) that
returns None when trial t holds and a failure record (a dict) when it
does not.  One driver, _run_trials, runs it on the random stream
seed:check:trial and tags each record with its trial, so reports are
reproducible and independent of execution order.  Failure records
carry exact inputs (as rational strings) so a reported counterexample
can be replayed.  Verdicts are exact: identities in rational
arithmetic, root counts and root windows from Sturm chains, half-planes
from Hurwitz minors.  Floats enter only the half-plane step's witness
roots when a Hurwitz minor vanishes.

Trials run on integer numerators: draws are pairs (p, q) for p/q
(_rand_ratio); Q(t) = prod (t + a_i) comes from the integer steps the
public decomposers wrap (_finite_image for Phi_{n,k}, T for the monic
exp map), and the iterates of an AffineMap from _step over its integer
rows.  Fractions are built for records, through _fmt, for the positive
offsets the perturbation experiments pass to composition_factor, and
where a public layer returns them (hurwitz_determinants,
ExpPoly.gamma).

The suite is the fixed list of cells in _cell_specs; the runner,
_run_cell, times each cell, and no check keeps a clock of its own.
Reports are returned as data and written out by the command line.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .decompose import (
    NORMALIZED,
    AffineMap,
    _binomial_row,
    _finite_image,
    _step,
    decomposition_map,
    localization_intervals,
)
from .exact import binomial, format_rational
from .poly import (
    ExpPoly,
    Poly,
    _convolve,
    _exact,
    _primitive_part,
    _root_product,
    falling_factorial_transform,
)
from .roots import (
    INSIDE,
    OUTSIDE,
    _right_halfplane,
    hurwitz_determinants,
    is_hyperbolic,
    kernel_backend,
    place_positive_roots,
    sign_changes,
    sturm_count,
    taylor_window_bound,
)
from .ssc import (
    SscContext,
    compose,
    composition_factor,
    derivative_identities_hold,
    exp_compose,
)

__all__ = [
    "CheckReport",
    "check_cone_finite",
    "check_cone_exp",
    "check_interval_localization",
    "check_taylor_sign_rule",
    "check_integer_intervals",
    "check_transform_positivity",
    "check_alternation_iteration",
    "check_eventual_hyperbolicity",
    "check_halfplane_not_invariant",
    "check_sign_experiments",
    "check_hyperbolization",
    "check_derivative_identities",
    "check_root_multiplicity",
    "available_checks",
    "run_suite",
    "reports_payload",
    "payload_csv_rows",
]


class CheckReport:
    """One cell's outcome.  Mutable: _run_cell sets elapsed, and checks
    append to notes, which is a fresh list for each report unless one
    is given."""

    __slots__ = ("check_id", "trials", "failures", "seed", "elapsed", "notes")

    def __init__(
        self,
        check_id: str,
        trials: int,
        failures: list,
        seed: int,
        elapsed: float = 0.0,  # set by _run_cell, the suite's one clock
        notes: Optional[list] = None,
    ) -> None:
        self.check_id = check_id
        self.trials = trials
        self.failures = failures
        self.seed = seed
        self.elapsed = elapsed
        self.notes = [] if notes is None else notes

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"CheckReport({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_payload(self) -> dict:
        # elapsed stays out of the payload so serialization is
        # byte-stable for a fixed seed; timings live in report metadata
        return {
            "check_id": self.check_id,
            "trials": self.trials,
            "passed": self.passed,
            "failures": self.failures,
            "notes": self.notes,
            "seed": self.seed,
        }


def _rng(seed: int, salt: str) -> random.Random:
    # string seeds are hashed with sha512, stable across platforms
    return random.Random(f"{seed}:{salt}")


def _run_trials(
    check_id: str,
    trials: int,
    seed: int,
    trial: Callable[[random.Random, int], Optional[dict]],
    notes: Optional[list] = None,
) -> CheckReport:
    """Run trial(rng, t) for t < trials, each on the stream
    seed:check_id:t.  A non-None return is a failure record and is
    tagged with its trial; notes is the list the trials append to."""
    failures: list = []
    for t in range(trials):
        record = trial(_rng(seed, f"{check_id}:{t}"), t)
        if record is not None:
            failures.append({"trial": t, **record})
    return CheckReport(check_id, trials, failures, seed, notes=notes)


def _fmt(values, den: int = 1) -> list[str]:
    """Rationals as "p" / "p/q" strings for a record: ints and Fractions,
    or integer numerators over den."""
    return [format_rational(Fraction(v, den)) for v in values]


def _rand_ratio(
    rng: random.Random, bound: int = 10, max_den: int = 8, *, low: Optional[int] = None
) -> tuple[int, int]:
    """(p, q), not reduced, for the value p/q with 1 <= q <= max_den and
    low <= p <= bound q; low defaults to -bound q, and low = 0 or 1 draws
    a nonnegative or positive value."""
    den = rng.randint(1, max_den)
    return rng.randint(-bound * den if low is None else low, bound * den), den


def _rand_fraction(
    rng: random.Random, bound: int = 10, max_den: int = 8, *, low: Optional[int] = None
) -> Fraction:
    """The draw of _rand_ratio as a Fraction."""
    return Fraction(*_rand_ratio(rng, bound, max_den, low=low))


def _rand_nonzero(rng: random.Random, bound: int = 6, max_den: int = 8) -> tuple[int, int]:
    num, den = 0, 1
    while not num:
        num, den = _rand_ratio(rng, bound, max_den)
    return num, den


def _over_lcm(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The values p/q of the pairs (p, q), q > 0, as integer numerators
    over the lcm of the q."""
    den = math.lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios], den


def _rand_poly(rng: random.Random, deg: int, bound: int = 6) -> Poly:
    ratios = [_rand_ratio(rng, bound) for _ in range(deg)]
    return _exact(*_over_lcm(ratios + [_rand_nonzero(rng, bound)]))


def _rand_monic(rng: random.Random, deg: int, bound: int = 6) -> Poly:
    return _exact(*_over_lcm([_rand_ratio(rng, bound) for _ in range(deg)] + [(1, 1)]))


def _cone_point(rng: random.Random, n: int, bound: int = 10) -> tuple[list[int], int]:
    """(c, d): coordinates (-1)^i u_i with u_i >= 0, the alternating-sign
    cone, as integer numerators c over d > 0."""
    c, den = _over_lcm([_rand_ratio(rng, bound, low=0) for _ in range(n)])
    return [-u if i % 2 else u for i, u in enumerate(c, 1)], den


def _distinct_windows(places: Sequence[tuple[int, int]]) -> int:
    """The most roots that sit in pairwise distinct windows, each root in
    one of its windows: (s, s) is window s, (s, s+1) either neighbour.

    Taken by right end, each root gets its lowest free window; for roots
    whose windows form intervals this greedy matching is maximum."""
    used: set[int] = set()
    for lo, hi in sorted(places, key=lambda w: w[1]):
        free = next((s for s in (lo, hi) if s not in used), None)
        if free is not None:
            used.add(free)
    return len(used)


# -- sign-cone invariance -----------------------------------------------------


def _check_cone(
    check_id: str,
    n: int,
    image_of: Callable[[list[int], int], Poly],
    trials: int,
    seed: int,
) -> CheckReport:
    """image_of(c, d) is Q(t) = t^n + sigma_1 t^(n-1) + ... + sigma_n for
    the cone point with integer numerators c over d > 0."""

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        c, den = _cone_point(rng, n)
        kind = t % 3
        if kind == 1:
            c[n - 1] = 0  # constant-term hyperplane
        elif kind == 2 and n >= 2:
            c[rng.randrange(n - 1)] = 0  # cone face, constant free
        q = image_of(c, den)
        # sigma_j over q._den > 0: (-1)^j sigma_j >= 0, and > 0 for the
        # strict test, read off the signs of the numerators
        sigma = q._num[-2::-1]
        in_cone = all(s <= 0 if j % 2 else s >= 0 for j, s in enumerate(sigma, 1))
        const_ok = sigma[-1] * den == c[-1] * q._den
        strict_ok = c[-1] == 0 or all(s < 0 if j % 2 else s > 0 for j, s in enumerate(sigma, 1))
        if not (in_cone and const_ok and strict_ok):
            return {
                "c": _fmt(c, den),
                "sigma": _fmt(sigma, q._den),
                "in_cone": in_cone,
                "constant_preserved": const_ok,
                "strictly_interior_when_constant_nonzero": strict_ok,
            }
        return None

    return _run_trials(check_id, trials, seed, trial)


def check_cone_finite(n: int, k: int, trials: int = 500, seed: int = 42) -> CheckReport:
    """The factor-offset image of a cone point stays in the cone, with
    equality on the boundary exactly when the constant term vanishes."""
    return _check_cone(
        f"cone_finite[n={n},k={k}]",
        n,
        lambda c, den: _finite_image([den, *c], n, k),
        trials,
        seed,
    )


def check_cone_exp(m: int, trials: int = 500, seed: int = 42) -> CheckReport:
    """Exp-mode analog of check_cone_finite, monic convention: Q = T(P)
    for P = x^m + c_1 x^(m-1) + ... + c_m."""
    return _check_cone(
        f"cone_exp[m={m}]",
        m,
        lambda c, den: falling_factorial_transform(_exact([*reversed(c), den], den)),
        trials,
        seed,
    )


# -- root localization --------------------------------------------------------


def check_interval_localization(
    n: int,
    k: int,
    trials: int = 500,
    seed: int = 42,
    nu_min: int = 0,
) -> CheckReport:
    """Planting nu positive roots forces at least nu factor offsets to be
    negative and to occupy pairwise distinct localization windows.

    The offsets are never computed: window s = [lo, hi] of an offset a
    is window s = [-hi, -lo] of the root -a of Q, and Sturm chains of
    the exact Q place its positive roots at the breaks -hi."""
    intervals = localization_intervals(n, k)
    breaks = [-hi for _, hi in intervals] + [None]
    last = len(intervals) - 1  # the unbounded-below window
    notes: list = []

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        nu = rng.randint(nu_min, n)
        pos: list[tuple[int, int]] = []
        while len(pos) < nu:
            a, b = _rand_ratio(rng, 6, low=1)
            if all(a * d != c * b for c, d in pos):
                pos.append((a, b))
        roots = list(pos)
        quadratics = []
        rest = n - nu
        while rest > 0:
            if rest >= 2 and rng.random() < 0.5:
                # x^2 + p x + q with p, q >= 0 has no positive root
                q, p = _rand_ratio(rng, 6, low=0), _rand_ratio(rng, 6, low=0)
                quadratics.append(_exact(*_over_lcm([q, p, (1, 1)])))
                rest -= 2
            else:
                a, b = _rand_ratio(rng, 6, low=0)
                roots.append((-a, b))  # the factor x + a/b
                rest -= 1
        core = _root_product(roots)
        for quadratic in quadratics:
            core = core * quadratic
        audited = sturm_count(core, 0, None)
        if audited != nu:
            return {
                "stage": "construction audit",
                "core": _fmt(core.coeffs),
                "expected_positive_roots": nu,
                "observed": audited,
            }
        # the monic core's numerators, descending, are (d, d c_1, ..., d c_n)
        q = _finite_image(core._num[::-1], n, k)
        places = place_positive_roots(q, breaks)
        matched = _distinct_windows(places)
        if matched < nu:
            return {
                "core": _fmt(core.coeffs),
                "planted_positive_roots": _fmt(Fraction(*r) for r in pos),
                "sigma": _fmt(q._num[-2::-1], q._den),
                "expected_distinct_windows": nu,
                "matched": matched,
            }
        bounded = [(lo, min(hi, last - 1)) for lo, hi in places if lo < last]
        if nu > 0 and _distinct_windows(bounded) < nu:
            notes.append({"trial": t, "note": "unbounded window required"})
        return None

    return _run_trials(
        f"interval_localization[n={n},k={k}]", trials, seed, trial, notes
    )


def _planted_hyperbolic(rng: random.Random, m: int, bound: int = 2) -> Poly:
    """Monic product of linear factors, repeats allowed, roots nonzero."""
    roots: list[tuple[int, int]] = []
    for _ in range(m):
        if roots and rng.random() < 0.25:
            roots.append(rng.choice(roots))
        else:
            a, b = _rand_ratio(rng, bound, 4, low=1)
            roots.append((a, b) if rng.random() < 0.6 else (-a, b))
    return _root_product(roots)


def check_taylor_sign_rule(m: int, trials: int = 500, seed: int = 42) -> CheckReport:
    """Taylor numerators of e^x * P show at least as many sign changes as
    P has positive roots (with multiplicity); the window bound is final."""

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        p = _rand_monic(rng, m) if t % 2 == 0 else _planted_hyperbolic(rng, m)
        kpos = sturm_count(p, 0, None, multiplicity=True)
        bound = taylor_window_bound(p)
        # gamma numerators over the positive denominator of p: same signs
        gam = ExpPoly(p).gamma_numerators(bound + 10)
        observed = sign_changes(gam[: bound + 1])
        tail_positive = gam[bound] > 0
        window_stable = sign_changes(gam) == observed
        if not (observed >= kpos and tail_positive and window_stable):
            return {
                "p": _fmt(p.coeffs),
                "positive_roots": kpos,
                "sign_changes": observed,
                "window": bound,
                "tail_positive": tail_positive,
                "window_stable": window_stable,
            }
        return None

    return _run_trials(f"taylor_sign_rule[m={m}]", trials, seed, trial)


def check_integer_intervals(m: int, trials: int = 500, seed: int = 42) -> CheckReport:
    """Sign changes of the Taylor numerators force that many factor
    offsets into pairwise distinct unit windows [-l-1, -l].  Q is read
    at the breaks 0, 1, 2, ... as in check_interval_localization; a
    repeated offset on a break is noted with its exact value."""
    notes: list = []

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        if t % 2 == 0:
            p = _rand_monic(rng, m)
            while not p._num[0]:
                p = _rand_monic(rng, m)
        else:
            p = _planted_hyperbolic(rng, m)
        bound = taylor_window_bound(p)
        kchanges = sign_changes(ExpPoly(p).gamma_numerators(bound))
        q = falling_factorial_transform(p)  # Q(t) = prod (t + a_i), P monic
        places = place_positive_roots(q, itertools.count())
        matched = _distinct_windows(places)
        if matched < kchanges:
            return {
                "p": _fmt(p.coeffs),
                "sign_changes": kchanges,
                "sigma": _fmt(q._num[-2::-1], q._den),
                "matched": matched,
            }
        for (lo, hi), count in Counter(places).items():
            if hi > lo and count > 1:  # a multiple root of Q on the break hi
                notes.append(
                    {
                        "trial": t,
                        "note": "repeated offset at a window endpoint",
                        "value": format_rational(-hi),
                        "count": count,
                    }
                )
        return None

    return _run_trials(f"integer_intervals[m={m}]", trials, seed, trial, notes)


# -- falling-factorial transform ----------------------------------------------


def check_transform_positivity(
    trials: int = 500, seed: int = 42, degree_max: int = 5
) -> CheckReport:
    """All-positive-roots input (repeats allowed) transforms to a
    polynomial with all roots real, positive, and distinct."""

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        deg = rng.randint(1, degree_max)
        roots: list[tuple[int, int]] = []
        for _ in range(deg):
            if roots and rng.random() < 0.3:
                roots.append(rng.choice(roots))
            else:
                roots.append(_rand_ratio(rng, 6, low=1))
        q = falling_factorial_transform(_root_product(roots))
        hyp = is_hyperbolic(q)
        positive = sturm_count(q, 0, None) == q.degree
        if not (hyp.hyperbolic and hyp.distinct and positive):
            return {
                "roots": _fmt(Fraction(*r) for r in roots),
                "image": _fmt(q.coeffs),
                "hyperbolic": hyp.hyperbolic,
                "distinct": hyp.distinct,
                "all_positive": positive,
            }
        return None

    return _run_trials("transform_positivity", trials, seed, trial)


def check_alternation_iteration(p: Poly, max_nu: int = 10000) -> CheckReport:
    """Under iteration of the transform the signs of the coefficients of
    x^n..x^1 eventually alternate and keep alternating, while the ratio
    of consecutive coefficient magnitudes grows without bound.

    Records the onset nu0 of the first 21-step alternating run; inside
    the run it asserts the exact linear decrement of the subleading
    coefficient, the exact invariance of the constant term, and strict
    growth of every magnitude ratio over the last 10 steps.
    """
    check_id = "alternation_iteration"
    if not p.is_exact or p.degree < 2:
        raise ValueError("need an exact polynomial of degree >= 2")
    n = p.degree
    den = p._den
    const = p._num[0]
    sub0 = p._num[n - 1]
    step = p._num[n] * binomial(n, 2)  # exact per-iteration drop of c_1

    failures: list = []
    notes: list = []
    history: list[tuple[int, ...]] = []
    run_start: Optional[int] = None
    nu0: Optional[int] = None
    q = p
    for nu in range(max_nu + 1):
        # the transform keeps degree n; every numerator is over q._den > 0,
        # so it carries the sign of its coefficient
        num = q._num
        if num[0] * den != const * q._den:
            failures.append(
                {
                    "p": _fmt(p.coeffs),
                    "nu": nu,
                    "stage": "constant term drifted",
                    "observed": format_rational(q.constant),
                    "expected": format_rational(p.constant),
                }
            )
            break
        if num[n - 1] * den != (sub0 - nu * step) * q._den:
            failures.append(
                {
                    "p": _fmt(p.coeffs),
                    "nu": nu,
                    "stage": "subleading decrement law",
                    "observed": format_rational(q.coeff(n - 1)),
                    "expected": format_rational(Fraction(sub0 - nu * step, den)),
                }
            )
            break
        # signs of x^n .. x^1 nonzero and alternating
        if all(num[i] * num[i - 1] < 0 for i in range(2, n + 1)):
            if run_start is None:
                run_start = nu
            history.append(num)
            if nu - run_start == 20:
                nu0 = run_start
                break
        else:
            run_start = None
            history = []
        q = falling_factorial_transform(q)
    if nu0 is None:
        if not failures:
            failures.append(
                {
                    "p": _fmt(p.coeffs),
                    "max_nu": max_nu,
                    "expected": "a 21-step alternating sign run",
                    "observed": "none",
                }
            )
    else:
        notes.append({"nu0": nu0})
        for s in range(1, n):
            # |c_s / c_(s-1)| over the last 11 steps, with c_s at x^(n-s):
            # a ratio of two nonzero numerators over one denominator, kept
            # as the pair (|c_s|, |c_(s-1)|) and compared cross-multiplied
            window = [(abs(v[n - s]), abs(v[n - s + 1])) for v in history[-11:]]
            if not all(a * d < c * b for (a, b), (c, d) in zip(window, window[1:])):
                failures.append(
                    {
                        "p": _fmt(p.coeffs),
                        "nu0": nu0,
                        "stage": f"ratio growth at position {s}",
                        "ratios": _fmt(Fraction(*r) for r in window),
                    }
                )
    return CheckReport(check_id, 1, failures, 0, notes=notes)


def check_eventual_hyperbolicity(p: Poly, max_nu: int = 10000) -> CheckReport:
    """Iterating the transform eventually yields real distinct roots,
    with the count of positive ones dictated by the constant term."""
    check_id = "eventual_hyperbolicity"
    if not p.is_exact or p.degree < 1:
        raise ValueError("need an exact polynomial of degree >= 1")
    n = p.degree
    parity = (-1) ** n * p._num[0] * p._num[-1]  # sign of the root product
    if parity > 0:
        want_pos, want_zero_root = n, False
    elif parity < 0:
        want_pos, want_zero_root = n - 1, False
    else:
        want_pos, want_zero_root = n - 1, True

    failures: list = []
    notes: list = []
    q = p
    found: Optional[int] = None
    for nu in range(max_nu + 1):
        hyp = is_hyperbolic(q)
        if hyp.hyperbolic and hyp.distinct:
            pos = sturm_count(q, 0, None)
            zero_ok = (q._num[0] == 0) == want_zero_root
            if pos == want_pos and zero_ok:
                found = nu
                break
        q = falling_factorial_transform(q)
    if found is None:
        failures.append(
            {
                "p": _fmt(p.coeffs),
                "max_nu": max_nu,
                "expected_positive_roots": want_pos,
                "persistent_zero_root": want_zero_root,
                "observed": "no qualifying iterate",
            }
        )
    else:
        notes.append({"nu": found})
    return CheckReport(check_id, 1, failures, 0, notes=notes)


def _run_cases(
    check_id: str,
    fixed: Sequence[Poly],
    draw: Callable[[random.Random, int], Poly],
    check: Callable[[Poly], CheckReport],
    trials: int,
    seed: int,
) -> CheckReport:
    """check(p) on the fixed cases, then on draw(rng, t) for t < trials,
    each drawn from the stream seed:check_id:case:t.  Failures and notes
    are tagged with their case index."""
    drawn = (draw(_rng(seed, f"{check_id}:case:{t}"), t) for t in range(trials))
    cases = [*fixed, *drawn]
    failures: list = []
    notes: list = []
    for i, p in enumerate(cases):
        report = check(p)
        failures += [{"case": i, **f} for f in report.failures]
        notes += [{"case": i, **nt} for nt in report.notes]
    return CheckReport(check_id, len(cases), failures, seed, notes=notes)


def _draw_monic(rng: random.Random, t: int) -> Poly:
    return _rand_monic(rng, rng.randint(2, 4), 5)


def _draw_monic_or_zero_root(rng: random.Random, t: int) -> Poly:
    p = _draw_monic(rng, t)
    if t % 5 == 4:
        p = p * Poly.x()  # plant a zero root
    return p


def suite_alternation_iteration(
    trials: int = 20, seed: int = 42, max_nu: int = 10000
) -> CheckReport:
    """Fixed interesting inputs plus random monic polynomials."""
    return _run_cases(
        "alternation_iteration",
        [Poly([1, 3, 1]), Poly([1, 1, 0, 1]), Poly([-2, 0, 1, 1])],
        _draw_monic,
        lambda p: check_alternation_iteration(p, max_nu),
        trials,
        seed,
    )


def suite_eventual_hyperbolicity(
    trials: int = 20, seed: int = 42, max_nu: int = 10000
) -> CheckReport:
    """Fixed inputs (including a persistent zero root) plus random ones."""
    return _run_cases(
        "eventual_hyperbolicity",
        [Poly([1, -1, 1]), Poly([1, 1, 0, 1]), Poly([0, -2, 0, 1])],
        _draw_monic_or_zero_root,
        lambda p: check_eventual_hyperbolicity(p, max_nu),
        trials,
        seed,
    )


# -- half-plane non-invariance ------------------------------------------------


def check_halfplane_not_invariant(trials: int = 100, seed: int = 42) -> CheckReport:
    """The exp factor map does not preserve the right-half-plane region:
    near the witness coefficient point both verdicts occur."""

    # (i) exact image of cubics with one real and one imaginary root pair:
    # P = x^3 - d x^2 + lam x - d lam = (x - d)(x^2 + lam) and its image
    # Q = T(P), both as numerators over one denominator
    def trial(rng: random.Random, t: int) -> Optional[dict]:
        (dn, dd), (ln, ld) = _rand_ratio(rng, 8), _rand_ratio(rng, 8)
        den = dd * ld
        d, lam, dlam = dn * ld, ln * dd, dn * ln
        q = falling_factorial_transform(_exact([-dlam, lam, -d, den], den))
        expected = [-d - 3 * den, lam + d + 2 * den, -dlam]
        if q != _exact([*reversed(expected), den], den):
            return {
                "d": format_rational(Fraction(dn, dd)),
                "lambda": format_rational(Fraction(ln, ld)),
                "sigma": _fmt(q._num[-2::-1], q._den),
                "expected": _fmt(expected, den),
            }
        return None

    report = _run_trials("halfplane_not_invariant", trials, seed, trial)

    # (ii) scan the image surface through the witness (a, b) = (-2, 1/3),
    # x^3 + a x^2 + b' x + (a + 3)(b' + a + 1) at b' = b + i/200, as
    # numerators over d^2, d = 600: both verdicts occur
    d = 600
    a = -2 * d
    inside = outside = uncertain = 0
    for i in range(-20, 21):
        bb = d // 3 + 3 * i
        p = _exact([(a + 3 * d) * (bb + a + d), bb * d, a * d, d * d], d * d)
        verdict = _right_halfplane(p)[0]
        if verdict == INSIDE:
            inside += 1
        elif verdict == OUTSIDE:
            outside += 1
        else:
            uncertain += 1
    if not (inside > 0 and outside > 0):
        report.failures.append(
            {
                "stage": "scan",
                "inside": inside,
                "outside": outside,
                "uncertain": uncertain,
            }
        )
    report.notes.append(
        {"scan_inside": inside, "scan_outside": outside, "scan_uncertain": uncertain}
    )
    return report


# -- perturbation experiments -------------------------------------------------


def check_sign_experiments(
    k_values: Sequence[int] = (1, 2, 3, 4, 5, 6), seed: int = 42
) -> CheckReport:
    """Exact self-composition identities and their eps-perturbations,
    eps = 1/100.

    Perturbing a conjugate factor pair keeps the composition real (it is
    computed exactly as a rational polynomial) and pushes every root off
    the imaginary axis into the open left half line / half plane.
    """
    check_id = "sign_experiments"
    scale = 10**4  # 1/eps^2
    failures: list = []

    def fail(k, part, **extra):
        failures.append({"k": k, "part": part, **extra})

    for k in k_values:
        nk = k + 2
        ctx = SscContext(nk)
        shell = _binomial_row(k + 1)  # (x+1)^(k+1)
        base = _exact(_binomial_row(k))

        # exact identity: factor with a zero root, composed with itself
        a1 = _exact([0, *shell])
        want1 = _exact(_convolve(base._num, [0, 1, nk]), nk)  # (x+1)^k x (x + 1/nk)
        got1 = compose(a1, a1, ctx)
        if got1 != want1:
            fail(k, "zero-root identity", got=_fmt(got1.coeffs), want=_fmt(want1.coeffs))

        # exact identity: factor with a positive root, composed with itself
        a2 = _exact(_convolve(shell, [-1, 1]))
        want2 = _exact(_convolve(base._num, [nk, -2 * k, nk]), nk)
        got2 = compose(a2, a2, ctx)
        if got2 != want2:
            fail(k, "positive-root identity", got=_fmt(got2.coeffs), want=_fmt(want2.coeffs))

        # conjugate perturbation of the zero-root factor: shell * (x +- i eps)
        # has the coefficients u_j +- i eps v_j (u = a1, v = shell), so the
        # pair composes to |u_j + i eps v_j|^2 / C(nk, j), a rational
        # polynomial: numerators (u_j^2 / eps^2 + v_j^2) L / C(nk, j) over
        # L / eps^2, L = lcm C(nk, .)
        row = _binomial_row(nk)
        lcm = math.lcm(*row)
        pert = _exact(
            [(scale * u * u + v * v) * (lcm // c) for u, v, c in zip(a1._num, [*shell, 0], row)],
            scale * lcm,
        )
        quot, rem = divmod(pert, base)
        if not rem.is_zero or quot.degree != 2:
            fail(k, "forced multiplicity at -1", remainder=_fmt(rem.coeffs))
        elif not (quot._num[0] != 0 and sturm_count(quot, None, 0) == 2):
            fail(k, "perturbed quadratic roots", quadratic=_fmt(quot.coeffs))
        if not all(d > 0 for d in hurwitz_determinants(pert)):
            fail(k, "perturbed half-plane", perturbed=_fmt(pert.coeffs))

    # exp analog: e^x(x+1) composed with itself, then the conjugate pair
    f1 = _exact([1, 1])
    got_exp = exp_compose(ExpPoly(f1), ExpPoly(f1))
    if got_exp.poly != _exact([1, 3, 1]):
        fail(None, "exp identity", got=_fmt(got_exp.poly.coeffs))
    fneg = _exact([-1, 1])
    gneg = exp_compose(ExpPoly(fneg), ExpPoly(fneg))
    if gneg.poly != _exact([1, -1, 1]):
        fail(None, "exp sign-flipped identity", got=_fmt(gneg.poly.coeffs))
    pert_exp = _exact([scale + 1, 3 * scale, scale], scale)  # x^2 + 3x + 1 + eps^2
    if not (sturm_count(pert_exp, None, 0) == 2 and pert_exp._num[0] != 0):
        fail(None, "exp perturbed negativity", quadratic=_fmt(pert_exp.coeffs))
    # gamma_j of e^x (x + 1 +- i eps) is j + 1 +- i eps, so the pair
    # composes to gammas |j + 1 + i eps|^2, which fix a quadratic at j = 0..2
    exp_pert = ExpPoly(pert_exp)
    gammas = [exp_pert.gamma(j) for j in range(3)]
    if gammas != [Fraction(scale * (j + 1) ** 2 + 1, scale) for j in range(3)]:
        fail(None, "exp perturbed cross-check", gammas=_fmt(gammas))

    # all-positive offsets compose to an all-negative-roots polynomial
    for k in k_values:
        rng = _rng(seed, f"{check_id}:positive:{k}")
        n = rng.randint(2, 4)
        kk = rng.randint(1, 3)
        total = n + kk
        avals = [_rand_fraction(rng, 6, low=1) for _ in range(n)]
        pol = composition_factor(n, kk, avals[0])
        for av in avals[1:]:
            pol = compose(pol, composition_factor(n, kk, av), SscContext(total))
        neg_count = sturm_count(pol, None, 0, multiplicity=True)
        if not (pol._num[0] != 0 and neg_count == total):
            fail(
                k,
                "positive offsets",
                offsets=_fmt(avals),
                composed=_fmt(pol.coeffs),
                negative_roots=neg_count,
            )

    return CheckReport(check_id, len(list(k_values)), failures, seed)


# -- exploratory: iterated hyperbolization ------------------------------------


def check_hyperbolization(trials: int = 50, seed: int = 42) -> CheckReport:
    """Exploratory: iterate the finite affine map (n = 2, k = 1) on cone
    points for up to 400 steps and record how fast iterates become
    hyperbolic; exactly verify the two-coefficient exp closed form and
    its first hyperbolic index."""
    n, k, nu_max, cap = 2, 1, 400, 2000
    check_id = f"hyperbolization[n={n},k={k}]"
    amap = decomposition_map("finite", n=n, k=k)
    emap = decomposition_map("exp", m=2, convention=NORMALIZED)
    first: list = []

    def advance(f: AffineMap, u: list[int]) -> list[int]:
        # c -> M c + offset on u = (d, d c_1, ..., d c_n), d > 0: the step
        # puts the image over den * d, and the content comes out
        return _primitive_part([u[0] * f._den, *_step(f._rows, u)])

    def finite_trial(rng: random.Random, t: int) -> None:
        c, den = _cone_point(rng, n, 6)
        u = [den, *c]
        for nu in range(nu_max + 1):
            if is_hyperbolic(_exact(u[::-1], u[0])).hyperbolic:
                first.append(nu)
                break
            u = advance(amap, u)

    def exp_trial(rng: random.Random, t: int) -> Optional[dict]:
        # c = (a, b) over den as u = (den, a, b); the closed form of the
        # s-th iterate is (a - s b, b)
        (an, ad), (bn, bd) = _rand_ratio(rng, 8), _rand_ratio(rng, 5, low=1)
        den = ad * bd
        a, b = an * bd, bn * ad
        # (a - s b)^2 >= 4 b den, i.e. the discriminant of 1 + c_1 x + c_2 x^2
        s0 = next((s for s in range(cap + 1) if (a - s * b) ** 2 >= 4 * b * den), None)
        u = [den, a, b]
        s_iter = None
        for s in range(cap + 1):
            if u[1] * den != (a - s * b) * u[0] or u[2] * den != b * u[0]:
                return {
                    "stage": "exp closed form",
                    "a": format_rational(Fraction(an, ad)),
                    "b": format_rational(Fraction(bn, bd)),
                    "s": s,
                    "observed": _fmt(u[1:], u[0]),
                    "expected": _fmt((a - s * b, b), den),
                }
            if is_hyperbolic(_exact(list(u), u[0])).hyperbolic:
                s_iter = s
                break
            u = advance(emap, u)
        if s0 is None or s_iter != s0:
            return {
                "stage": "first hyperbolic index",
                "a": format_rational(Fraction(an, ad)),
                "b": format_rational(Fraction(bn, bd)),
                "closed_form": s0,
                "iterated": s_iter,
            }
        return None

    _run_trials(check_id, trials, seed, finite_trial)
    notes = [
        {
            "stage": "finite iteration",
            "resolved": len(first),
            "unresolved_within_nu_max": trials - len(first),
            "max_first_hyperbolic": max(first) if first else None,
        }
    ]
    exp = _run_trials(f"{check_id}:exp", trials, seed, exp_trial)
    return CheckReport(check_id, trials, exp.failures, seed, notes=notes)


# -- composition calculus -----------------------------------------------------


def check_derivative_identities(trials: int = 500, seed: int = 42) -> CheckReport:
    """Both exact differentiation identities of the composition hold on
    random operands."""

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        n = rng.randint(2, 6)
        a = _rand_poly(rng, n)
        bdeg = n if rng.random() < 0.7 else rng.randint(1, n)
        b = _rand_poly(rng, bdeg)
        if not derivative_identities_hold(a, b, SscContext(n)):
            return {"ambient": n, "a": _fmt(a.coeffs), "b": _fmt(b.coeffs)}
        return None

    return _run_trials("derivative_identities", trials, seed, trial)


def check_root_multiplicity(trials: int = 500, seed: int = 42) -> CheckReport:
    """Roots of the operands multiply: orders m_a + m_b - N survive in
    the composition, certified by exact division."""

    def trial(rng: random.Random, t: int) -> Optional[dict]:
        n = rng.randint(3, 6)
        ma = rng.randint(1, n)
        mb = rng.randint(max(1, n + 1 - ma), n)
        mu = ma + mb - n
        xa = _rand_nonzero(rng, 5)
        xb = _rand_nonzero(rng, 5)
        a = _root_product([xa] * ma) * _rand_poly(rng, n - ma)
        b = _root_product([xb] * mb) * _rand_poly(rng, n - mb)
        composed = compose(a, b, SscContext(n))
        # the root -xa xb as p/q
        p, q = -xa[0] * xb[0], xa[1] * xb[1]
        rem = composed % _exact([-p, q], q) ** mu
        if not rem.is_zero:
            return {
                "ambient": n,
                "orders": [ma, mb],
                "a": _fmt(a.coeffs),
                "b": _fmt(b.coeffs),
                "expected_root": format_rational(Fraction(p, q)),
                "remainder": _fmt(rem.coeffs),
            }
        return None

    return _run_trials("root_multiplicity", trials, seed, trial)


# -- suite runner -------------------------------------------------------------


def _cell_specs(trials: int, seed: int) -> list[tuple[str, Callable[..., CheckReport], tuple]]:
    """The suite: (cell id, check, arguments) in report order.  Each
    check names its report with the cell id."""
    # iteration-heavy checks get a reduced trial count; each of their
    # trials runs hundreds of transform steps
    iter_trials = max(4, trials // 25)
    explore_trials = max(5, trials // 10)
    return [
        ("cone_finite[n=1,k=2]", check_cone_finite, (1, 2, trials, seed)),
        ("cone_finite[n=2,k=1]", check_cone_finite, (2, 1, trials, seed)),
        ("cone_finite[n=3,k=2]", check_cone_finite, (3, 2, trials, seed)),
        ("cone_finite[n=4,k=3]", check_cone_finite, (4, 3, trials, seed)),
        ("cone_exp[m=1]", check_cone_exp, (1, trials, seed)),
        ("cone_exp[m=2]", check_cone_exp, (2, trials, seed)),
        ("cone_exp[m=4]", check_cone_exp, (4, trials, seed)),
        ("interval_localization[n=2,k=1]", check_interval_localization, (2, 1, trials, seed)),
        ("interval_localization[n=3,k=2]", check_interval_localization, (3, 2, trials, seed)),
        ("interval_localization[n=2,k=3]", check_interval_localization, (2, 3, trials, seed)),
        ("taylor_sign_rule[m=2]", check_taylor_sign_rule, (2, trials, seed)),
        ("taylor_sign_rule[m=3]", check_taylor_sign_rule, (3, trials, seed)),
        ("taylor_sign_rule[m=5]", check_taylor_sign_rule, (5, trials, seed)),
        ("integer_intervals[m=2]", check_integer_intervals, (2, trials, seed)),
        ("integer_intervals[m=3]", check_integer_intervals, (3, trials, seed)),
        ("integer_intervals[m=4]", check_integer_intervals, (4, trials, seed)),
        ("transform_positivity", check_transform_positivity, (trials, seed, 5)),
        ("alternation_iteration", suite_alternation_iteration, (iter_trials, seed)),
        ("eventual_hyperbolicity", suite_eventual_hyperbolicity, (iter_trials, seed)),
        ("halfplane_not_invariant", check_halfplane_not_invariant, (min(trials, 100), seed)),
        ("sign_experiments", check_sign_experiments, ((1, 2, 3, 4, 5, 6), seed)),
        ("hyperbolization[n=2,k=1]", check_hyperbolization, (explore_trials, seed)),
        ("derivative_identities", check_derivative_identities, (trials, seed)),
        ("root_multiplicity", check_root_multiplicity, (trials, seed)),
    ]


def _family(cell_id: str) -> str:
    return cell_id.split("[")[0]


def available_checks() -> list[str]:
    return sorted({_family(cell_id) for cell_id, _, _ in _cell_specs(0, 0)})


def _run_cell(spec: tuple[str, Callable[..., CheckReport], tuple]) -> CheckReport:
    """Run one cell and time it: the only clock of the suite."""
    _, check, args = spec
    t0 = time.perf_counter()
    report = check(*args)
    report.elapsed = time.perf_counter() - t0
    return report


def run_suite(
    names: Optional[Sequence[str]] = None,
    trials: int = 500,
    seed: int = 42,
    jobs: int = 1,
) -> list[CheckReport]:
    """Run the cells (all when names is None or holds "all", else those
    matching the given families / cell ids, or the one given as a bare
    string) in deterministic cell order; an unknown name is an error.

    At most min(jobs, cells, CPUs) worker processes run; an empty
    selection, trials < 1 and jobs < 1 are errors."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    specs = _cell_specs(trials, seed)
    if names is not None:
        wanted = {names} if isinstance(names, str) else set(names)
        if not wanted:
            raise ValueError("no checks selected")
        known = {"all"} | {s[0] for s in specs} | {_family(s[0]) for s in specs}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown checks: {sorted(unknown)}; "
                f"available: {', '.join(available_checks())}"
            )
        if "all" not in wanted:
            specs = [s for s in specs if s[0] in wanted or _family(s[0]) in wanted]
    workers = min(jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool modules (multiprocessing, socket,
        # logging, ...) would otherwise load on every import of szego
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, specs))
    return [_run_cell(s) for s in specs]


# -- report serialization -----------------------------------------------------


def reports_payload(reports: Sequence[CheckReport]) -> dict:
    """JSON document: byte-stable reports plus a volatile metadata block."""
    return {
        "metadata": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "python": sys.version.split()[0],
            "backend": kernel_backend(),
            "elapsed_seconds": {r.check_id: round(r.elapsed, 6) for r in reports},
        },
        "reports": [r.to_payload() for r in reports],
    }


def payload_csv_rows(payload: dict) -> list[list]:
    elapsed = payload.get("metadata", {}).get("elapsed_seconds", {})
    rows: list[list] = [["check_id", "trials", "failures", "seed", "seconds"]]
    for rep in payload["reports"]:
        sec = elapsed.get(rep["check_id"])
        rows.append(
            [
                rep["check_id"],
                rep["trials"],
                len(rep["failures"]),
                rep["seed"],
                "" if sec is None else f"{sec:.3f}",
            ]
        )
    return rows
