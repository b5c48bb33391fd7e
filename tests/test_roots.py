"""Tests for exact root counting, the numerical root finder, sign data,
and the coefficient-space region classifier."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from szego import (
    BOUNDARY_OR_UNCERTAIN,
    INSIDE,
    OUTSIDE,
    Poly,
    RootFindingError,
    aberth_roots,
    cluster_roots,
    decompose_exp,
    decompose_poly,
    hurwitz_determinants,
    is_hyperbolic,
    kernel_backend,
    poly_gcd,
    region_membership,
    sign_changes,
    square_free_decomposition,
    sturm_count,
    taylor_window_bound,
)
import szego.poly
import szego.roots
from szego import _roots_py
from szego.roots import place_positive_roots


def _rand_poly(rng, deg, bound=6):
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, bound)))
    return Poly(coeffs)


def test_backend_reports_a_known_name():
    assert kernel_backend() == "python"


def _random_complex_coeffs(rng, degree):
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree)]
    coeffs.append(1 + 0j)
    return coeffs


def test_kernel_converges_on_random_polynomials():
    rng = random.Random(51)
    for _ in range(30):
        coeffs = _random_complex_coeffs(rng, rng.randint(2, 12))
        roots, residuals, _, ok = _roots_py.solve(list(coeffs), 1e-12, 400)
        assert ok
        assert len(roots) == len(coeffs) - 1
        assert max(residuals) <= 1e-12


def test_kernel_reports_nonconvergence_honestly():
    coeffs = _random_complex_coeffs(random.Random(52), 9)
    # after 4 sweeps seven of the nine roots are frozen and two still move
    for max_iter in (1, 2, 3, 4):
        roots, residuals, iters, ok = _roots_py.solve(list(coeffs), 1e-12, max_iter)
        assert not ok
        assert iters <= max_iter
        assert len(roots) == 9 and len(residuals) == 9
        assert max(residuals) > 1e-12
        # frozen and still-moving roots alike report the residual at the returned root
        for z, res in zip(roots, residuals):
            p = sum(c * z**i for i, c in enumerate(coeffs))
            bound = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
            assert res == pytest.approx(abs(p) / bound, rel=1e-6, abs=1e-15)


def test_kernel_needs_a_nonzero_constant_term():
    with pytest.raises(ValueError):
        _roots_py.solve([0j, 1 + 0j, 1 + 0j], 1e-12, 400)


def test_kernel_residual_is_the_componentwise_backward_error():
    coeffs = Poly.from_roots([-j for j in range(1, 9)]).to_complex()
    roots, residuals, _, ok = _roots_py.solve(list(coeffs), 1e-12, 400)
    assert ok
    for z, res in zip(roots, residuals):
        p = sum(c * z**i for i, c in enumerate(coeffs))
        bound = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
        assert res == pytest.approx(abs(p) / bound, rel=1e-6, abs=1e-15)
        assert res <= 1e-12


def _reference_solve(coeffs, tol, max_iter):
    """The kernel as it was before converged roots were frozen: every
    sweep evaluates every root, and a last pass recomputes every
    residual."""
    n = len(coeffs) - 1
    if n < 1 or coeffs[n] == 0 or coeffs[0] == 0:
        raise ValueError(
            "kernel needs degree >= 1 and nonzero leading and constant coefficients"
        )
    moduli = [abs(c) for c in coeffs]
    z = _roots_py._starts(coeffs)

    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        all_done = True
        for i in range(n):
            zi = z[i]
            r = abs(zi)
            # Horner for p(zi), p'(zi) and sum |c_j| |zi|^j
            p = coeffs[n]
            dp = 0j
            bound = moduli[n]
            for j in range(n - 1, -1, -1):
                dp = dp * zi + p
                p = p * zi + coeffs[j]
                bound = bound * r + moduli[j]
            if abs(p) <= tol * bound < math.inf:
                continue
            all_done = False
            if dp == 0:
                # flat spot: nudge deterministically and retry next sweep
                z[i] = zi + (1e-8 + 1e-8j) * (1.0 + r)
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
                z[i] = zi + (1e-8 + 1e-8j) * (1.0 + r)
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
    for zi in z:
        r = abs(zi)
        p = coeffs[n]
        bound = moduli[n]
        for j in range(n - 1, -1, -1):
            p = p * zi + coeffs[j]
            bound = bound * r + moduli[j]
        residuals.append(abs(p) / bound if bound < math.inf else math.inf)
    return z, residuals, iterations, converged


def _outcome(kernel, coeffs, tol, max_iter):
    # repr tells NaN and -0.0 apart; an exception is part of the outcome
    try:
        return repr(kernel(list(coeffs), tol, max_iter))
    except (ArithmeticError, ValueError) as exc:
        return repr(exc)


def _assert_matches_reference(coeffs):
    for max_iter in (0, 1, 3, 400):
        expected = _outcome(_reference_solve, coeffs, 1e-12, max_iter)
        assert _outcome(_roots_py.solve, coeffs, 1e-12, max_iter) == expected


def test_kernel_output_is_bit_identical_to_the_reference(monkeypatch):
    rng = random.Random(53)
    corpus = [_random_complex_coeffs(rng, rng.randint(2, 32)) for _ in range(40)]
    for _ in range(8):  # products with repeated roots
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(2, 8))]
        roots += [rng.choice(roots) for _ in range(rng.randint(1, 6))]
        corpus.append(Poly.from_roots([r or 7 for r in roots]).to_complex())
    corpus.append(Poly.from_roots([-j for j in range(1, 13)]).to_complex())
    corpus.append([1e6 + 0j] + [0j] * 23 + [1 + 0j])
    corpus.append([1e300 + 0j, 1e-10 + 0j, 1e-320 + 0j])  # roots beyond the float range
    for coeffs in corpus:
        _assert_matches_reference(coeffs)
    # forced starts reach the nudges: two equal starts collide, and 1.5 is
    # the critical point of (x - 1)(x - 2)
    for starts in ([0j, 0j], [1.5 + 0j, 0j]):
        monkeypatch.setattr(_roots_py, "_starts", lambda moduli, s=starts: list(s))
        _assert_matches_reference([2 + 0j, -3 + 0j, 1 + 0j])


def test_kernel_starts_on_the_newton_polygon():
    # roots of size 1..12 inside a Cauchy circle of radius about 1.3e9:
    # 7 sweeps (13 with Bini's fixed angles)
    wilkinson = Poly.from_roots([-j for j in range(1, 13)]).to_complex()
    # 24 roots of modulus 1.78 inside a Cauchy circle of radius 1e6 + 1: 4 sweeps
    binomial = [1e6 + 0j] + [0j] * 23 + [1 + 0j]
    for coeffs, sweeps in ((wilkinson, 9), (binomial, 6)):
        _, _, iterations, ok = _roots_py.solve(list(coeffs), 1e-12, 400)
        assert ok
        assert iterations <= sweeps


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_starts_of_one_edge_are_the_rotated_binomial_roots(n):
    turn = cmath.exp(-1j * _roots_py._ROTATION)
    for c in (3 - 4j, -2 + 0j, 1e-5j, -7e4 - 7e4j):
        starts = _roots_py._starts([-c] + [0j] * (n - 1) + [1 + 0j])
        # n distinct roots of x^n = c, each turned by the fixed rotation
        assert len({(round(w.real, 6), round(w.imag, 6)) for w in starts}) == n
        for w in starts:
            assert (w * turn) ** n == pytest.approx(c, rel=1e-12)


def test_starts_stay_finite_at_the_ends_of_the_float_range():
    directions = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)]
    values = [5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300, 1e308]
    coeffs = [complex(a * v, b * v) for v in values for a, b in directions]
    overflowing = 0
    for c0, c1 in itertools.product(coeffs, coeffs):
        # the quotient -c0/c1 overflows or is NaN on many of these pairs
        overflowing += not cmath.isfinite(-c0 / c1)
        for n in (1, 3):
            starts = _roots_py._starts([c0] + [0j] * (n - 1) + [c1])
            assert len(starts) == n
            assert all(map(cmath.isfinite, starts)), (c0, c1)
    assert overflowing > 100


def _kernel_sweeps(monkeypatch, call):
    """Sweeps of the one kernel call that call makes on each of 40 seeded
    vectors of 32 rationals."""
    sweeps = []
    solve = _roots_py.solve

    def counted(coeffs, tol, max_iter):
        out = solve(coeffs, tol, max_iter)
        sweeps.append(out[2])
        return out

    monkeypatch.setattr(_roots_py, "solve", counted)
    for seed in range(40):
        rng = random.Random(seed)
        c = []
        for _ in range(32):
            den = rng.randint(1, 8)
            c.append(Fraction(rng.randint(-10 * den, 10 * den), den))
        call(c)
    assert len(sweeps) == 40
    return sweeps


def test_factor_offsets_converge_in_few_sweeps(monkeypatch):
    # T(P) of a monic e^x P at m = 24 has its roots near the positive real
    # axis: at most 11 sweeps here, 16 each with Bini's fixed angles
    sweeps = _kernel_sweeps(monkeypatch, lambda c: decompose_exp(c[:24], "monic"))
    assert max(sweeps) <= 12
    # Q(t) of decompose_poly at n = 32, k = 2: at most 15 sweeps and 10.5 on
    # average here, 20 and 16.7 with Bini's fixed angles
    sweeps = _kernel_sweeps(monkeypatch, lambda c: decompose_poly(c, 32, 2))
    assert max(sweeps) <= 16
    assert sum(sweeps) <= 12 * len(sweeps)


def test_aberth_locates_the_roots_of_wilkinson_type_products():
    roots = aberth_roots(Poly.from_roots([-j for j in range(1, 13)]))
    for z, j in zip(roots, range(12, 0, -1)):
        assert abs(z + j) <= 1e-3 * j
    for m in (16, 20):
        roots = aberth_roots(Poly.from_roots([-j for j in range(1, m + 1)]))
        assert len(roots) == m
        assert max(abs(z) for z in roots) <= 2 * m


def test_aberth_handles_coefficients_far_from_one():
    roots = aberth_roots(Poly([10**200] + [0] * 39 + [1]))  # x^40 + 1e200
    assert len(roots) == 40
    assert all(abs(abs(z) - 1e5) <= 1e-9 * 1e5 for z in roots)
    roots = aberth_roots(Poly.from_roots([-(2**k) for k in range(20)]))
    for z, k in zip(roots, range(19, -1, -1)):
        assert abs(z + 2**k) <= 1e-6 * 2**k
    # roots of modulus about 1e310 are beyond the float range
    with pytest.raises(RootFindingError):
        aberth_roots(Poly([10**300, Fraction(1, 10**10), Fraction(1, 10**320)]))


def test_sturm_count_worked():
    p = Poly.from_roots([1, 2, 3])
    assert sturm_count(p) == 3
    assert sturm_count(p, Fraction(0), Fraction(1)) == 1  # root at 1 included
    assert sturm_count(p, Fraction(1), Fraction(2)) == 1  # root at 1 excluded
    assert sturm_count(p, Fraction(1), Fraction(3)) == 2
    assert sturm_count(p, Fraction(4), None) == 0
    assert sturm_count(Poly([1, 0, 1])) == 0


def test_sturm_half_open_endpoint_convention():
    x = Poly.x()
    assert sturm_count(x, Fraction(-1), Fraction(0)) == 1
    assert sturm_count(x, Fraction(0), Fraction(1)) == 0
    p = Poly.from_roots([0, 1])
    assert sturm_count(p, Fraction(0), Fraction(1)) == 1
    assert sturm_count(p, Fraction(-1), Fraction(0)) == 1
    assert sturm_count(p, None, Fraction(0)) == 1
    assert sturm_count(p, Fraction(0), None) == 1


def test_sturm_count_with_multiplicity():
    p = Poly.from_roots([1, 1, -2])
    assert sturm_count(p) == 2
    assert sturm_count(p, multiplicity=True) == 3
    q = Poly.from_roots([Fraction(1, 2)] * 4)
    assert sturm_count(q, Fraction(0), None) == 1
    assert sturm_count(q, Fraction(0), None, multiplicity=True) == 4


def test_sturm_count_validation():
    with pytest.raises(ValueError):
        sturm_count(Poly.zero())
    with pytest.raises(ValueError):
        sturm_count(Poly([0.5, 1]))
    with pytest.raises(ValueError):
        sturm_count(Poly.x(), Fraction(1), Fraction(1))
    # a constant has no roots, but the interval is still checked
    with pytest.raises(ValueError, match="need lo < hi"):
        sturm_count(Poly([7]), Fraction(5), Fraction(3))
    assert sturm_count(Poly([7])) == 0


def test_sturm_count_random_against_planted_roots():
    rng = random.Random(31)
    for _ in range(40):
        roots = sorted(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(1, 5)))
        p = Poly.from_roots(roots)
        lo = Fraction(rng.randint(-8, 0))
        hi = lo + Fraction(rng.randint(1, 10))
        expected = len({r for r in roots if lo < r <= hi})
        assert sturm_count(p, lo, hi) == expected, roots


def test_sturm_count_rejects_float_endpoints():
    p = Poly([Fraction(-3, 10), 1])  # root at 3/10
    assert sturm_count(p, Fraction(0), Fraction(3, 10)) == 1
    assert sturm_count(p, 0, Fraction(3, 10)) == 1
    # the float 0.3 is slightly below 3/10, so it would silently count 0
    for bad in (0.3, 0.3 + 0j):
        with pytest.raises(ValueError):
            sturm_count(p, Fraction(0), bad)
        with pytest.raises(ValueError):
            sturm_count(p, bad, None)
    with pytest.raises(ValueError):
        sturm_count(Poly([7]), 0.5, None)


def _planted(rng, degree_cap):
    """(p, {root: multiplicity}) with real rational roots, some repeated,
    a leading coefficient that may be negative or non-integer, and
    sometimes a factor without real roots."""
    complex_pair = degree_cap >= 3 and rng.random() < 0.5
    target = degree_cap - 2 if complex_pair else degree_cap
    mults = {}
    degree = 0
    while degree < target:
        r = Fraction(rng.randint(-40, 40), rng.randint(1, 5))
        m = min(rng.choice([1, 1, 1, 2, 3]), target - degree)
        mults[r] = mults.get(r, 0) + m
        degree += m
    lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    p = Poly.from_roots([r for r, m in mults.items() for _ in range(m)], lead)
    if complex_pair:  # x^2 + b x + c with b^2 < 4c
        p = p * Poly([Fraction(rng.randint(1, 9), rng.randint(1, 3)), rng.randint(-1, 1), 1])
    return p, mults


def _planted_count(mults, lo, hi, multiplicity):
    inside = [m for r, m in mults.items() if (lo is None or lo < r) and (hi is None or r <= hi)]
    return sum(inside) if multiplicity else len(inside)


def test_sturm_count_planted_roots_up_to_degree_24():
    rng = random.Random(61)
    saw_negative_lead = saw_fractional_lead = False
    for _ in range(40):
        p, mults = _planted(rng, rng.randint(2, 24))
        saw_negative_lead |= p.lead < 0
        saw_fractional_lead |= p.lead.denominator != 1
        roots = sorted(mults)
        lo_root, hi_root = roots[0], roots[-1]
        windows = [
            (None, None),
            (lo_root, hi_root),  # root on lo is excluded, root on hi included
            (None, lo_root),
            (lo_root, None),
            (hi_root, None),
            (Fraction(rng.randint(-50, 0), 7), Fraction(rng.randint(1, 50), 3)),
        ]
        if len(roots) > 2:
            mid = roots[len(roots) // 2]
            windows += [(mid, hi_root), (lo_root, mid)]
        for lo, hi in windows:
            if lo is not None and hi is not None and not lo < hi:
                continue
            for multiplicity in (False, True):
                got = sturm_count(p, lo, hi, multiplicity=multiplicity)
                assert got == _planted_count(mults, lo, hi, multiplicity), (p, lo, hi)
    assert saw_negative_lead and saw_fractional_lead


def test_is_hyperbolic_distinct_flag_on_repeated_roots():
    rng = random.Random(62)
    for _ in range(25):
        p, mults = _planted(rng, rng.randint(2, 20))
        h = is_hyperbolic(p)
        assert h.hyperbolic == (p.degree == sum(mults.values()))
        assert h.distinct == all(m == 1 for m in mults.values())
    h = is_hyperbolic(Poly.from_roots([2, 2, 2, -1], Fraction(-5, 3)))
    assert (h.hyperbolic, h.distinct) == (True, False)
    h = is_hyperbolic(Poly.from_roots([3, 3]) * Poly([1, 0, 1]))
    assert (h.hyperbolic, h.distinct) == (False, False)


def test_root_counting_at_degree_48():
    # shaped like the ladder benchmark's largest inputs
    rng = random.Random(63)
    roots = [0] + rng.sample([r for r in range(-23, 24) if r], 45)
    p = Poly.from_roots(roots) * Poly([rng.randint(1, 9), 0, 1])
    assert p.degree == 48
    assert sturm_count(p) == 46
    assert sturm_count(p, Fraction(0), None) == sum(r > 0 for r in roots)
    distinct = rng.sample(range(-23, 24), 36)
    q = Poly.from_roots(distinct + distinct[:12])
    assert q.degree == 48
    h = is_hyperbolic(q)
    assert (h.hyperbolic, h.distinct) == (True, False)
    assert sturm_count(q, None, Fraction(0), multiplicity=True) == sum(
        r <= 0 for r in distinct + distinct[:12]
    )
    factors = square_free_decomposition(q)
    assert [m for _, m in factors] == [1, 2]
    assert [f.degree for f, _ in factors] == [24, 12]


def _gcd_layer_answers():
    """The answers of every layer that takes a heuristic gcd, on planted
    inputs with repeated rational roots and at degree 48."""
    rng = random.Random(64)
    cases = [_planted(rng, rng.randint(2, 24))[0] for _ in range(12)]
    distinct = rng.sample(range(-23, 24), 36)
    cases.append(Poly.from_roots(distinct + distinct[:12]))
    breaks = [Fraction(k, 2) for k in range(200)] + [None]
    return [
        (
            poly_gcd(p, p.derivative()),
            poly_gcd(p, cases[0]),
            square_free_decomposition(p),
            is_hyperbolic(p),
            sturm_count(p, multiplicity=True),
            sturm_count(p, Fraction(-1, 2), Fraction(7, 2), multiplicity=True),
            place_positive_roots(p, breaks),
        )
        for p in cases
    ]


def test_forced_gcd_fallback_gives_the_same_answers(monkeypatch):
    want = _gcd_layer_answers()
    gave_up = []

    def give_up(a, b):
        gave_up.append(len(a))
        return None

    monkeypatch.setattr(szego.poly, "_heu_gcd", give_up)
    assert _gcd_layer_answers() == want
    assert len(gave_up) > 50


def test_one_sturm_chain_per_square_free_factor(monkeypatch):
    degrees = []
    sturm_chain = szego.roots._sturm_chain

    def counted(v):
        degrees.append(len(v) - 1)
        return sturm_chain(v)

    monkeypatch.setattr(szego.roots, "_sturm_chain", counted)
    square_free = Poly.from_roots([Fraction(1, 2), 3, Fraction(7, 2), -2])
    repeated = Poly.from_roots([Fraction(1, 2), 5, 3, 3, -2, -2, -2])
    for p, factor_degrees in ((square_free, [4]), (repeated, [2, 1, 1])):
        for count in (
            lambda: place_positive_roots(p, [0, 1, 2, None]),
            lambda: sturm_count(p, multiplicity=True),
            lambda: is_hyperbolic(p),
        ):
            degrees.clear()
            count()
            assert degrees == factor_degrees


def _reference_remainder_sequence(a, b):
    """The remainder sequence step by step as two loops: eliminating the
    top coefficient c of r sets r to |lc(b)| r - c x^s b (one rescale of
    the whole list, then an indexed subtraction), then the primitive part
    is taken and negated."""

    def pseudo_remainder(a, b):
        if b[-1] < 0:
            b = [-c for c in b]
        lb, low = b[-1], b[:-1]
        r = list(a)
        for top in range(len(r) - 1, len(low) - 1, -1):
            c = r.pop()
            if not c:
                continue
            if lb != 1:
                r = [lb * v for v in r]
            for j, bj in enumerate(low):
                r[top - len(low) + j] -= c * bj
        while r and not r[-1]:
            r.pop()
        g = math.gcd(*r) if r else 1
        return [v // g for v in r]

    seq = [a, b]
    while True:
        r = pseudo_remainder(seq[-2], seq[-1])
        if not r:
            return seq
        seq.append([-c for c in r])


def _remainder_corpus():
    """Integer pairs (a, b) for the remainder sequence: Sturm-chain starts
    (v, pp(v')) and gcd-style pairs of any two degrees."""
    rng = random.Random(65)
    starts = []
    for _ in range(120):  # zero coefficients and negative leads
        v = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(rng.randint(1, 12))]
        starts.append(v + [rng.choice([-3, -2, -1, 1, 2, 5])])
    for _ in range(12):  # the ladder's Sturm shape
        roots = rng.sample(range(-23, 24), rng.randint(1, 22))
        v = Poly.from_roots(roots) * Poly([rng.randint(1, 9), 0, 1])
        starts.append(list(v._num))
    # degree drops of two or more
    starts += [[1, 0, 0, 0, 0, 1], [1, 0, 3, 0, 3, 0, 1], [1, 0, -2, 0, 1]]
    pairs = [(v, szego.poly._primitive_part(szego.poly._derivative(v))) for v in starts]

    def draw():
        return [rng.randint(-9, 9) for _ in range(rng.randint(0, 12))] + [rng.choice([-2, -1, 1, 3])]

    for _ in range(120):  # shorter, equal and longer a
        pairs.append((szego.poly._primitive_part(draw()), draw()))
    pairs += [([1, 0, 0, 0, 0, 1], [1, 0, 1]), ([1, 0, 3, 0, 3, 0, 1], [1, 0, 1]),
              ([1, 0, -2, 0, 1], [-1, 0, 1]), ([1, 0, 3, 0, 3, 0, 1], [7])]
    return starts, pairs


def test_remainder_sequence_matches_the_two_loop_reference():
    starts, pairs = _remainder_corpus()
    drops = set()
    for a, b in pairs:
        want = _reference_remainder_sequence(a, b)
        assert szego.poly._remainder_sequence(a, b) == want, (a, b)
        drops.update(len(x) - len(y) for x, y in zip(want, want[1:]))
    # every kind of step: the closed form (drop 1), q digit by digit (0 and
    # >= 2), a shorter a (negative) and a constant divisor, which ends it
    assert {-3, -1, 0, 1, 2, 3, 4, 6} <= drops


def _exact_root_answers(polys):
    breaks = [Fraction(k, 3) for k in range(120)] + [None]
    return [
        (
            sturm_count(p),
            sturm_count(p, Fraction(-1, 2), 3),
            sturm_count(p, -2, Fraction(7, 3), multiplicity=True),
            place_positive_roots(p, breaks),
            is_hyperbolic(p),
        )
        for p in polys
    ]


def test_exact_root_answers_match_the_two_loop_reference(monkeypatch):
    starts, _ = _remainder_corpus()
    polys = [Poly(v) for v in starts]
    answers = []
    for sequence in (szego.poly._remainder_sequence, _reference_remainder_sequence):
        monkeypatch.setattr(szego.roots, "_remainder_sequence", sequence)
        monkeypatch.setattr(szego.poly, "_remainder_sequence", sequence)
        answers.append(_exact_root_answers(polys))
        with monkeypatch.context() as m:  # the gcd fallback runs the sequence too
            m.setattr(szego.poly, "_heu_gcd", lambda a, b: None)
            answers.append(_exact_root_answers(polys))
    assert answers[1:] == answers[:1] * 3


def _windows_of(roots, breaks):
    """The placement read off known roots; breaks is a list ending in None."""
    out = []
    for r in roots:
        if r > 0:
            s = max(i for i, b in enumerate(breaks[:-1]) if b < r)
            out.append((s, s + 1) if breaks[s + 1] == r else (s, s))
    return sorted(out)


def test_place_positive_roots_worked():
    F = Fraction
    roots = [0, F(1, 3), F(1, 2), F(1, 2), 2, 5, -1, F(-7, 3)]
    breaks = [0, F(1, 2), 2, 3, None]
    # inside window 0; double on the break 1/2; on the break 2; in the
    # unbounded last window; the zero and negative roots are not placed
    want = [(0, 0), (0, 1), (0, 1), (1, 2), (3, 3)]
    assert place_positive_roots(Poly.from_roots(roots), breaks) == want
    assert _windows_of(roots, breaks) == want


def test_place_positive_roots_against_planted_roots():
    rng = random.Random("place_positive_roots")
    for _ in range(150):
        breaks = [Fraction(0)]
        for _ in range(rng.randint(1, 5)):
            breaks.append(breaks[-1] + Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        pool = breaks + [Fraction(rng.randint(-12, 30), rng.randint(1, 4)) for _ in range(4)]
        roots = []
        for _ in range(rng.randint(1, 7)):
            roots.append(rng.choice(roots) if roots and rng.random() < 0.3 else rng.choice(pool))
        # times a quadratic with no real root
        p = Poly.from_roots(roots) * Poly([rng.randint(2, 5), rng.randint(-2, 2), 1])
        breaks.append(None)
        assert place_positive_roots(p, breaks) == _windows_of(roots, breaks), (roots, breaks)


def test_place_positive_roots_reads_an_endless_iterator_only_as_needed():
    read = []

    def integers():
        while True:
            read.append(len(read))
            yield read[-1]

    p = Poly.from_roots([Fraction(1, 2), 3, 3, Fraction(7, 2)])
    assert place_positive_roots(p, integers()) == [(0, 0), (2, 3), (2, 3), (3, 3)]
    assert read == [0, 1, 2, 3, 4]  # 7/2 < 4 closes the last window needed
    read.clear()
    assert place_positive_roots(Poly([1, 0, 1]), integers()) == []
    assert read == [0]
    read.clear()
    assert place_positive_roots(Poly([Fraction(-3, 2)]), integers()) == []
    assert read == [0]


def test_place_positive_roots_validation():
    p = Poly.from_roots([1, 2])
    with pytest.raises(ValueError, match="first break"):
        place_positive_roots(p, [1, 2, None])
    with pytest.raises(ValueError, match="increase"):
        place_positive_roots(Poly.from_roots([1, 5]), [0, 3, 3, None])
    with pytest.raises(ValueError, match="end before"):
        place_positive_roots(p, [0, 1])
    with pytest.raises(ValueError, match="requires exact polynomials and rational scalars"):
        place_positive_roots(p, [0, 1.5, None])
    with pytest.raises(ValueError):
        place_positive_roots(Poly([0.5, 1.0]), [0, None])
    with pytest.raises(ValueError):
        place_positive_roots(Poly([0]), [0, None])


def test_square_free_decomposition():
    p = Poly.from_roots([1, 1, -2])
    assert square_free_decomposition(p) == [(Poly([2, 1]), 1), (Poly([-1, 1]), 2)]
    assert square_free_decomposition(Poly.from_roots([3])) == [(Poly([-3, 1]), 1)]
    assert square_free_decomposition(Poly([5])) == []
    # scaling does not matter
    assert square_free_decomposition(p * 7) == square_free_decomposition(p)


def test_is_hyperbolic():
    h = is_hyperbolic(Poly.from_roots([1, 2]))
    assert h.hyperbolic and h.distinct
    h = is_hyperbolic(Poly.from_roots([1, 1]))
    assert h.hyperbolic and not h.distinct
    h = is_hyperbolic(Poly([1, 0, 1]))
    assert not h.hyperbolic
    assert not bool(h)
    assert is_hyperbolic(Poly([4])).hyperbolic


def _match(roots, expected, tol):
    # order by nearest match; the finder's sort key is unstable for
    # conjugate pairs whose real parts differ only by rounding
    left = list(roots)
    for e in expected:
        best = min(left, key=lambda z: abs(z - e))
        assert abs(best - e) < tol, (e, best)
        left.remove(best)
    assert not left


def test_aberth_simple_quadratic():
    roots = aberth_roots(Poly([1, 0, 1]))
    _match(roots, [1j, -1j], 1e-10)


def test_aberth_integer_cubic():
    _match(aberth_roots(Poly([-6, 11, -6, 1])), [1, 2, 3], 1e-9)  # (x-1)(x-2)(x-3)


def test_aberth_boundary_cubic():
    # x^3 - 2x^2 + x/3 - 2/3 = (x - 2)(x^2 + 1/3)
    p = Poly([Fraction(-2, 3), Fraction(1, 3), -2, 1])
    _match(aberth_roots(p), [-1j / math.sqrt(3), 1j / math.sqrt(3), 2 + 0j], 1e-8)


def test_aberth_double_root_clusters():
    roots = aberth_roots(Poly([36, 12, 1]))  # (x + 6)^2
    # a double root is located to about sqrt(tol); cluster accordingly
    clusters = cluster_roots(roots, rel_tol=1e-4)
    assert len(clusters) == 1
    center, mult = clusters[0]
    assert mult == 2
    assert abs(center + 6) < 1e-5


def test_aberth_strips_exact_zero_roots():
    roots = aberth_roots(Poly([0, 0, 2, 1]))  # x^2 (x + 2)
    assert abs(roots[0] + 2) < 1e-10
    assert roots[1] == 0j and roots[2] == 0j  # exact, not approximate


def test_aberth_degree_one_and_validation():
    assert aberth_roots(Poly([2, 3])) == (-2 / 3 + 0j,)
    with pytest.raises(ValueError):
        aberth_roots(Poly([5]))


@pytest.mark.parametrize(
    "p",
    [
        Poly([1, Fraction(1, 10**400)]),  # the lead underflows at degree 1
        Poly([1, 2, Fraction(1, 10**400)]),  # the lead underflows before the kernel
        Poly([1, 0, 10**400]),  # a coefficient overflows
    ],
)
def test_aberth_rejects_coefficients_beyond_the_double_range(p):
    with pytest.raises(ValueError, match="not representable as complex doubles"):
        aberth_roots(p)


@pytest.mark.parametrize(
    "coeffs",
    [
        [1, math.inf],
        [math.nan, 1],
        [1, 2, math.inf],
        [1, math.nan, 1],
        [math.inf, 1, 1],
    ],
)
def test_aberth_rejects_non_finite_coefficients(coeffs):
    with pytest.raises(ValueError, match="must be finite"):
        aberth_roots(Poly(coeffs))


def test_aberth_vieta_sums():
    rng = random.Random(32)
    for _ in range(25):
        p = _rand_poly(rng, rng.randint(2, 7))
        roots = aberth_roots(p)
        n = p.degree
        s = sum(roots)
        prod = 1 + 0j
        for z in roots:
            prod *= z
        scale = max(1.0, max(abs(z) for z in roots)) ** n
        assert abs(s + complex(p.coeff(n - 1) / p.lead)) < 1e-8 * max(1.0, abs(s))
        assert abs(prod - (-1) ** n * complex(p.coeff(0) / p.lead)) < 1e-8 * scale


def test_cluster_roots_groups_nearby_points():
    pts = [1.0 + 0j, 1.0 + 1e-9j, -3.0 + 0j]
    clusters = cluster_roots(pts)
    assert [m for _, m in clusters] == [1, 2]
    assert cluster_roots([]) == []


def test_sign_changes():
    assert sign_changes([1, -1, -1, 1]) == 2
    assert sign_changes([0, 1, 2, 1]) == 0
    assert sign_changes([1, 0, -1]) == 1  # zeros are skipped
    assert sign_changes([]) == 0
    assert sign_changes([Fraction(1, 2), Fraction(-1, 3)]) == 1


def _reference_sign_changes(seq):
    signs = [s for s in ((v > 0) - (v < 0) for v in seq) if s]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def test_sign_changes_against_the_list_definition():
    nan = float("nan")
    cases = [
        [],
        [0, 0, 0],
        [0.0, -0.0, nan],
        [2**70, -(2**64 + 1), 0, 3**50, -(2**65), -1],
        [Fraction(1, 2**70), Fraction(-3, 7), 0, Fraction(0), Fraction(5, 3)],
        [1.0, nan, -0.0, 0.0, -2.5, nan, 3.0, -1e-300, 0.0],
        [nan, -1.0, nan, 1.0],
    ]
    rng = random.Random(66)
    for _ in range(200):
        pool = [0, 0.0, -0.0, nan, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 7), -2.5]
        cases.append([rng.choice(pool) for _ in range(rng.randint(0, 12))])
    for seq in cases:
        want = _reference_sign_changes(seq)
        assert sign_changes(seq) == want, seq
        assert sign_changes(v for v in seq) == want, seq  # one pass suffices
    assert sign_changes([0.0, -0.0, nan]) == 0
    assert sign_changes([nan, -1.0, nan, 1.0]) == 1


def test_taylor_window_bound_worked():
    assert taylor_window_bound(Poly([-1, 1])) == 3
    assert taylor_window_bound(Poly([1, -2, 1])) == 6
    assert taylor_window_bound(Poly.monomial(5)) == 6
    # normalization first: scaling does not change the window
    assert taylor_window_bound(Poly([-2, 2])) == 3
    with pytest.raises(ValueError):
        taylor_window_bound(Poly.zero())


def test_taylor_window_bound_tail_is_positive():
    from szego import ExpPoly

    rng = random.Random(33)
    for _ in range(30):
        p = _rand_poly(rng, rng.randint(1, 5))
        bound = taylor_window_bound(p)
        f = ExpPoly(p.monic())
        tail = [f.gamma(j) for j in range(bound, bound + 15)]
        assert all(v > 0 for v in tail), (p, bound)


def test_taylor_window_catches_all_sign_changes():
    # e^x (x-1)^2 has Taylor numerators j^2 - 3j + 1
    from szego import ExpPoly

    p = Poly([1, -2, 1])
    bound = taylor_window_bound(p)
    f = ExpPoly(p)
    window = [f.gamma(j) for j in range(bound + 1)]
    assert window == [1, -1, -1, 1, 5, 11, 19]
    assert sign_changes(window) == 2


def test_hurwitz_determinants_worked():
    # (x+1)(x+2)(x+3): minors 6, 60, 360, all positive (stable)
    p = Poly([6, 11, 6, 1])
    assert hurwitz_determinants(p) == [6, 60, 360]
    with pytest.raises(ValueError):
        hurwitz_determinants(Poly([1, -1]))  # negative leading coefficient
    with pytest.raises(ValueError):
        hurwitz_determinants(Poly.zero())


def _gauss_det(mat):
    """Fraction Gaussian elimination, pivoting on the first nonzero entry."""
    m = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def test_bareiss_det_against_gaussian_reference():
    from szego.roots import _det

    rng = random.Random(62)

    def entry():
        return rng.randint(-30, 30)

    cases = [[], [[0]], [[-3]]]
    for n in range(1, 9):
        for _ in range(6):
            cases.append([[entry() for _ in range(n)] for _ in range(n)])
        # singular: one row an integer combination of two others
        mat = [[entry() for _ in range(n)] for _ in range(n)]
        if n >= 3:
            a, b = entry(), entry()
            mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
        else:
            mat[-1] = list(mat[0])
        cases.append(mat)
        # zero leading pivots: the first rows start with zeros
        mat = [[entry() for _ in range(n)] for _ in range(n)]
        for r in range(n - 1):
            mat[r][0] = 0
        cases.append(mat)
        cases.append([[int(i == n - 1 - j) for j in range(n)] for i in range(n)])
    for mat in cases:
        want = _gauss_det(mat)
        got = _det(mat)
        assert type(got) is int and got == want, mat
    assert _det([[1, 2], [3, 4]]) == -2


def test_hurwitz_minors_against_gaussian_reference():
    rng = random.Random(63)
    for deg in range(1, 13):
        p = _rand_poly(rng, deg)
        desc = list(reversed(p.coeffs))
        want = []
        for k in range(1, deg + 1):
            mat = [
                [desc[2 * j - i] if 0 <= 2 * j - i <= deg else 0 for j in range(1, k + 1)]
                for i in range(1, k + 1)
            ]
            want.append(_gauss_det(mat))
        assert hurwitz_determinants(p) == want, p
    # x^4 + 1 (roots off both axes) has a vanishing second minor
    assert hurwitz_determinants(Poly([1, 0, 0, 0, 1]))[1] == 0


def test_hurwitz_minors_from_one_pass_match_one_bareiss_per_minor():
    """The pivots of one elimination, and Delta_n = a_n Delta_(n-1), give
    the minors of a fresh _det per leading block, also when a minor
    vanishes and the later ones come from _det again."""
    from szego.roots import _det

    def reference(p):
        desc = p._num[::-1]
        n = len(desc) - 1
        return [
            Fraction(
                _det(
                    [
                        [desc[2 * j - i] if 0 <= 2 * j - i <= n else 0 for j in range(1, k + 1)]
                        for i in range(1, k + 1)
                    ]
                ),
                p._den**k,
            )
            for k in range(1, n + 1)
        ]

    rng = random.Random(64)
    vanishing = later_nonzero = 0
    for deg in range(1, 25):
        polys = [_rand_poly(rng, deg)]
        # sparse integer coefficients: minors vanish at every position
        polys += [Poly([rng.choice([-1, 0, 0, 1, 2]) for _ in range(deg)] + [1]) for _ in range(3)]
        if deg >= 2:
            # a root pair +-i*sqrt(b) on the imaginary axis: Delta_(n-1) = 0
            core = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg - 2)] + [1])
            polys.append(core * Poly([rng.randint(1, 4), 0, 1]))
        for p in polys:
            want = reference(p)
            assert hurwitz_determinants(p) == want, p
            if 0 in want:
                vanishing += 1
                later_nonzero += any(want[want.index(0) + 1:])
    assert vanishing >= 30 and later_nonzero >= 10


def test_region_membership_strict_interior():
    # (x-1)(x-2)(x-3): all roots strictly right, alternating signs
    v = region_membership([Fraction(-6), Fraction(11), Fraction(-6)])
    assert v.in_sign_cone and v.hyperbolic
    assert v.right_halfplane == INSIDE
    assert v.witness_roots is None  # decided by exact minors


def test_region_membership_of_the_constant_one():
    # x^0 = 1 has no root, so it lies in every region
    v = region_membership(())
    assert v.in_sign_cone and v.hyperbolic
    assert v.right_halfplane == INSIDE
    assert v.witness_roots is None


def test_region_membership_strict_exterior():
    # (x-2)(x+1): one root on each side
    v = region_membership([Fraction(-1), Fraction(-2)])
    assert v.right_halfplane == OUTSIDE
    assert not v.in_sign_cone


def test_region_membership_boundary():
    # (x - 2)(x^2 + 1/3): an imaginary-axis pair
    v = region_membership([Fraction(-2), Fraction(1, 3), Fraction(-2, 3)])
    assert v.right_halfplane == BOUNDARY_OR_UNCERTAIN
    assert v.witness_roots is not None
    assert not v.hyperbolic


def test_region_membership_near_boundary_family():
    # x^3 - 2x^2 + b x + (b - 1): verdict flips as b crosses 1/3
    def vec(b):
        return [Fraction(-2), b, b - 1]

    assert region_membership(vec(Fraction(2, 5))).right_halfplane == INSIDE
    assert region_membership(vec(Fraction(3, 10))).right_halfplane == OUTSIDE


def test_region_membership_outside_with_zero_minor():
    # (x+1)(x^2+1): a left root plus an imaginary pair forces refinement
    v = region_membership([Fraction(1), Fraction(1), Fraction(1)])
    assert v.right_halfplane == OUTSIDE
    assert v.witness_roots is not None


def test_region_membership_vanishing_minors_answer_outside_or_boundary():
    # a root at 0, an imaginary pair or a pair z, -z makes a Hurwitz minor
    # vanish (Orlando's formula); the witness fallback then answers OUTSIDE
    # exactly when a root lies left of the axis, and never INSIDE
    rng = random.Random(35)
    for t in range(60):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        r = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        kind = t % 3
        p = [Poly.x(), Poly([a * a, 0, 1]), Poly([-a * a, 0, 1])][kind]
        p = p * (Poly.from_roots([r]) if t % 2 else Poly([r * r + a, -2 * r, 1]))
        left = t % 4 == 0
        if left:
            p = p * Poly([r, 1])
        n = p.degree
        v = region_membership([p.coeff(n - j) for j in range(1, n + 1)])
        assert v.witness_roots is not None, p
        want = OUTSIDE if left or kind == 2 else BOUNDARY_OR_UNCERTAIN
        assert v.right_halfplane == want, p


@pytest.mark.parametrize(
    "query, what",
    [
        (square_free_decomposition, "square-free decomposition"),
        (sturm_count, "Sturm counting"),
        (lambda p: place_positive_roots(p, [0, None]), "root placement"),
        (is_hyperbolic, "the hyperbolicity test"),
        (taylor_window_bound, "the Taylor window bound"),
    ],
    ids=[
        "square_free_decomposition",
        "sturm_count",
        "place_positive_roots",
        "is_hyperbolic",
        "taylor_window_bound",
    ],
)
def test_root_queries_share_one_exact_entry(query, what):
    with pytest.raises(ValueError, match=f"^{what} requires a nonzero polynomial$"):
        query(Poly([]))
    with pytest.raises(ValueError, match=f"^{what} requires exact polynomials and"):
        query(Poly([0.5, 1]))


def test_region_containments_random():
    # hyperbolic + sign cone implies the closed half-plane region, which
    # in turn implies the sign cone
    rng = random.Random(34)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        v = region_membership(c)
        if v.hyperbolic and v.in_sign_cone:
            assert v.right_halfplane in (INSIDE, BOUNDARY_OR_UNCERTAIN)
            checked += 1
        if v.right_halfplane == INSIDE:
            assert v.in_sign_cone
    assert checked > 0
