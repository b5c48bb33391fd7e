"""Seeded inputs, timed operations and output checks for the workloads.

``suite``   the seeded property suites, one ``szego verify`` cell per op,
            run in-process through ``szego.cli.main``.  Thousands of tiny
            (degree <= 7) exact polynomials: Poly construction, Newton
            interpolation and small Sturm chains.
``ladder``  single exact calls on few large inputs at degrees 4..48:
            bignum arithmetic and Sturm chains.
``roots``   the numeric enrichment at degrees 4..24: the Aberth kernel.

A workload is a list of cycles; each cycle is a list of ``Op``.  Inputs
are built once, in set-up, from the workload seed; an op only calls
szego on them.  Every op names a module-level function ``fn(sz, *inputs)``
that calls szego through its public bindings (so the tracer's wrappers
see each call) and a ``check(sz, out, op)`` that returns ``None`` or a
description of what is wrong.  Checks recompute the expected answer
with code of their own, or use an exact identity (recompose undoes
decompose, q*d + r == p, a planted root count).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

LADDER_DEGREES = (4, 8, 16, 32, 48)
ROOTS_DEGREES = (4, 8, 12, 16, 20, 24)
ROOTS_EXTRA_FINITE_DEGREE = 32  # decompose_poly with roots, as users call it
REGION_MAX_DEGREE = 12  # Hurwitz minors are exact O(n^4) work above this
SUITE_TRIALS = 20
SMOKE = {
    "ladder": {"degrees": (4, 8)},
    "roots": {"degrees": (4, 20)},
    "suite": {"trials": 2},
}
# input sets per workload; each set is repeated many times in a run, so
# every distinct op gets several timings (see run.Loop)
CYCLES = {"suite": 10, "ladder": 4, "roots": 24}
# A ladder cycle takes seconds, so each ladder op runs only two or three
# times in a run, and the median latency lies among the short ops of
# degree 16.  Those short ops run several times in a row, so that their
# medians are taken over enough executions.
LADDER_SHORT_DEGREE = 16
LADDER_SHORT_REPEATS = 5

# sha256 of json.dumps(payload["reports"], sort_keys=True) for
# `szego verify --suite all --trials 20 --seed 42`
GOLDEN_SEED = 42
GOLDEN_REPORTS_SHA256 = "61ea8e2335992b03997e65d31a98bb057e0cd9c4f90b1e7164d9f0cb24411901"

RESIDUAL_BOUND = 1e-9


class Op(NamedTuple):
    fn: Callable
    check: Callable
    degree: int
    inputs: tuple
    expect: object = None
    repeats: int = 1  # executions back to back each time the cycle reaches it


# -- exact helpers used by the checks (independent of szego) -----------------


def _trim(c: list) -> list:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _mul(a, b) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add(a, b) -> list:
    n = max(len(a), len(b))
    return _trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _from_roots(roots) -> list:
    out = [Fraction(1)]
    for r in roots:
        out = _mul(out, [-Fraction(r), Fraction(1)])
    return out


def _horner(c, x):
    acc = 0
    for v in reversed(c):
        acc = acc * x + v
    return acc


def _gamma(c, j: int):
    """j! [x^j] (e^x * sum c_i x^i) = sum_i c_i j!/(j-i)!."""
    return sum(ci * math.perm(j, i) for i, ci in enumerate(c))


def _falling_transform(c) -> list:
    """Replace x^i by x(x-1)...(x-i+1); the rows come from their recurrence."""
    out: list = []
    row = [1]
    for i, ci in enumerate(c):
        if i:
            row = [a - (i - 1) * b for a, b in zip([0] + row, row + [0])]
        out = _add(out, [ci * v for v in row])
    return out


def _residual(coeffs: list, z: complex) -> float:
    """|p(z)| / (||p||_inf * max(1, |z|)^n), evaluated without overflow."""
    norm = max(abs(c) for c in coeffs)
    if abs(z) <= 1.0:
        return abs(_horner(coeffs, z)) / norm
    w = 1.0 / z
    acc = 0j
    for c in coeffs:  # sum c_i w^(n-i) = p(z) / z^n
        acc = acc * w + c
    return abs(acc) / norm


def _roots_problem(coeffs, roots, n: int) -> Optional[str]:
    if len(roots) != n:
        return f"{len(roots)} roots for degree {n}"
    cz = [complex(c) for c in coeffs]
    worst = max((_residual(cz, z) for z in roots), default=0.0)
    if not worst <= RESIDUAL_BOUND:
        return f"residual {worst:.3e} above {RESIDUAL_BOUND:.0e}"
    return None


def _frac(rng: random.Random, bound: int = 10, max_den: int = 8) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def _nonzero(rng: random.Random, bound: int = 10) -> Fraction:
    v = Fraction(0)
    while v == 0:
        v = _frac(rng, bound)
    return v


def _rand_coeffs(rng: random.Random, d: int) -> list:
    return [_frac(rng) for _ in range(d)] + [_nonzero(rng)]


def _int_coeffs(rng: random.Random, d: int) -> list:
    return [Fraction(rng.randint(-9, 9)) for _ in range(d)] + [Fraction(rng.randint(1, 3))]


# -- suite --------------------------------------------------------------------


def op_suite(sz, cell: str, seed: int, trials: int, out_path: str):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = sz.cli.main(
            ["verify", "--suite", cell, "--trials", str(trials), "--seed", str(seed), "--out", out_path]
        )
    return rc, err.getvalue()


def check_suite(sz, out, op: Op) -> Optional[str]:
    rc, err = out
    cell, seed, trials, out_path = op.inputs
    if rc != 0:
        return f"exit status {rc}: {err.strip()}"
    with open(out_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    reports = payload["reports"]
    if len(reports) != 1 or reports[0]["check_id"] != cell:
        return f"expected one report for {cell}"
    rep = reports[0]
    if not rep["passed"] or rep["failures"] or rep["seed"] != seed:
        return f"cell {cell} failed at seed {seed}"
    if err.strip() != "1 checks, 0 failed":
        return f"unexpected summary {err.strip()!r}"
    return None


def suite_cycles(sz, rng: random.Random, trials: int, cycles: int, out_path: str) -> list:
    cells = [spec[0] for spec in sz.verify._cell_specs(trials, 0)]
    out = []
    for _ in range(cycles):
        seed = rng.randrange(2**31)
        out.append([Op(op_suite, check_suite, 0, (cell, seed, trials, out_path)) for cell in cells])
    return out


def golden_problem(sz, out_path: str) -> Optional[str]:
    """The seed-42 report block must hash to the committed golden value."""
    rc, err = op_suite(sz, "all", GOLDEN_SEED, SUITE_TRIALS, out_path)
    if rc != 0:
        return f"golden suite exit status {rc}: {err.strip()}"
    with open(out_path, encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    if digest != GOLDEN_REPORTS_SHA256:
        return f"golden reports sha256 {digest} != {GOLDEN_REPORTS_SHA256}"
    return None


# -- ladder -------------------------------------------------------------------


def op_mul(sz, a, b):
    return a * b


def check_mul(sz, out, op):
    a, b = op.inputs
    return None if list(out.coeffs) == _trim(_mul(a.coeffs, b.coeffs)) else "product differs"


def op_divmod(sz, p, d):
    return divmod(p, d)


def check_divmod(sz, out, op):
    p, d = op.inputs
    q, r = out
    if not r.is_zero and r.degree >= d.degree:
        return "remainder degree not below divisor degree"
    if _add(_mul(q.coeffs, d.coeffs), list(r.coeffs)) != list(p.coeffs):
        return "q*d + r != p"
    return None


def op_compose(sz, a, b, n: int):
    return sz.compose(a, b, sz.SscContext(n))


def check_compose(sz, out, op):
    a, b, n = op.inputs
    want = _trim([a.coeff(j) * b.coeff(j) / math.comb(n, j) for j in range(n + 1)])
    return None if list(out.coeffs) == want else "composition coefficients differ"


def op_exp_compose(sz, p, q):
    return sz.exp_compose(sz.ExpPoly(p), sz.ExpPoly(q))


def check_exp_compose(sz, out, op):
    p, q = op.inputs
    r = out.poly.coeffs
    if len(r) - 1 != p.degree + q.degree:
        return "degree of the composed polynomial part"
    for j in range(len(r) + 1):
        if _gamma(r, j) != _gamma(p.coeffs, j) * _gamma(q.coeffs, j):
            return f"Taylor numerator {j} is not the product"
    return None


def op_transform(sz, p):
    return sz.falling_factorial_transform(p)


def check_transform(sz, out, op):
    (p,) = op.inputs
    return None if list(out.coeffs) == _falling_transform(p.coeffs) else "transform differs"


def op_inverse_transform(sz, q):
    return sz.inverse_falling_factorial_transform(q)


def check_inverse_transform(sz, out, op):
    return None if list(out.coeffs) == op.expect else "inverse does not undo the transform"


def op_interpolate(sz, points):
    return sz.interpolate(points)


def check_interpolate(sz, out, op):
    return None if list(out.coeffs) == op.expect else "interpolant is not the planted polynomial"


def op_gamma_window(sz, p, length: int):
    f = sz.ExpPoly(p)
    return [f.gamma(j) for j in range(length)]


def check_gamma_window(sz, out, op):
    p, length = op.inputs
    want = [_gamma(p.coeffs, j) for j in range(length)]
    return None if out == want else "Taylor numerators differ"


def op_decompose_poly(sz, c, n: int, k: int, want_roots: bool):
    return sz.decompose_poly(c, n, k, want_roots=want_roots)


def check_decompose_poly_exact(sz, out, op):
    c, n, k, _ = op.inputs
    want = _mul(_from_roots([-1] * k), [Fraction(x) for x in reversed(c)] + [Fraction(1)])
    return None if list(sz.recompose(out).coeffs) == _trim(want) else "recompose(decompose(c)) != input"


def op_decompose_exp(sz, c, convention: str, want_roots: bool):
    return sz.decompose_exp(c, convention, want_roots=want_roots)


def check_decompose_exp_exact(sz, out, op):
    c, convention, _ = op.inputs
    if convention == "normalized":
        want = [Fraction(1)] + list(c)
    else:
        want = list(reversed(c)) + [Fraction(1)]
    return None if list(sz.recompose(out).poly.coeffs) == _trim(want) else "recompose(decompose(c)) != input"


def op_recompose(sz, sigma, n: int, k: int):
    return sz.recompose(sz.Decomposition(mode="finite", sigma=tuple(sigma), n=n, k=k))


def check_recompose(sz, out, op):
    sigma, n, k = op.inputs
    core = sz.extract_core(out, n, k)
    back = sz.decompose_poly(core, n, k, want_roots=False).sigma
    return None if list(back) == list(sigma) else "decompose(recompose(sigma)) != sigma"


def op_sturm_count(sz, p):
    return sz.sturm_count(p)


def check_sturm_count(sz, out, op):
    return None if out == op.expect else f"{out} real roots, planted {op.expect}"


def op_is_hyperbolic(sz, p):
    return sz.is_hyperbolic(p)


def check_is_hyperbolic(sz, out, op):
    got = (out.hyperbolic, out.distinct)
    return None if got == op.expect else f"(hyperbolic, distinct) = {got}, planted {op.expect}"


def op_square_free(sz, p):
    return sz.square_free_decomposition(p)


def check_square_free(sz, out, op):
    (p,) = op.inputs
    mults = [m for _, m in out]
    if mults != sorted(set(mults)) or any(f.lead != 1 for f, _ in out):
        return "factors not monic with increasing multiplicities"
    prod = [Fraction(1)]
    for f, m in out:
        for _ in range(m):
            prod = _mul(prod, f.coeffs)
    lead = p.lead
    return None if prod == [c / lead for c in p.coeffs] else "product of factors != monic input"


def ladder_cycle(sz, rng: random.Random, degrees) -> list:
    ops = []
    poly = sz.Poly
    for d in degrees:
        a = poly(_rand_coeffs(rng, d))
        b = poly(_rand_coeffs(rng, d))
        ops.append(Op(op_mul, check_mul, d, (a, b)))
        ops.append(Op(op_divmod, check_divmod, d, (poly(_rand_coeffs(rng, 2 * d)), a)))
        ops.append(Op(op_compose, check_compose, d, (a, b, d)))
        h = d // 2
        ops.append(
            Op(op_exp_compose, check_exp_compose, d,
               (poly(_rand_coeffs(rng, h)), poly(_rand_coeffs(rng, d - h))))
        )
        ops.append(Op(op_transform, check_transform, d, (a,)))
        planted = _rand_coeffs(rng, d)
        ops.append(
            Op(op_inverse_transform, check_inverse_transform, d,
               (poly(_falling_transform(planted)),), planted)
        )
        nodes = rng.sample(range(-4 * d, 4 * d + 1), d + 1)
        points = [(Fraction(x, 3), _horner(planted, Fraction(x, 3))) for x in nodes]
        ops.append(Op(op_interpolate, check_interpolate, d, (points,), planted))
        ops.append(Op(op_gamma_window, check_gamma_window, d, (b, 2 * d + 2)))
        c = [_frac(rng) for _ in range(d)]
        ops.append(Op(op_decompose_poly, check_decompose_poly_exact, d, (c, d, 2, False)))
        c = [_frac(rng) for _ in range(d - 1)] + [_nonzero(rng)]
        ops.append(Op(op_decompose_exp, check_decompose_exp_exact, d, (c, "normalized", False)))
        c = [_frac(rng) for _ in range(d)]
        ops.append(Op(op_decompose_exp, check_decompose_exp_exact, d, (c, "monic", False)))
        sigma = [_frac(rng) for _ in range(d)]
        ops.append(Op(op_recompose, check_recompose, d, (sigma, d, 2)))
        # planted real roots: 0 and all but one of the other integers of
        # [-w, w], so the Sturm chain size varies little with the seed.  The
        # set is never symmetric about 0: an even polynomial has a Sturm
        # chain ten times cheaper, and one draw in 47 made one at degree 48.
        w = (d - 1) // 2
        roots = [0] + rng.sample([r for r in range(-w, w + 1) if r], d - 3)
        p = poly(_mul(_from_roots(roots), [Fraction(rng.randint(1, 9)), 0, Fraction(1)]))
        ops.append(Op(op_sturm_count, check_sturm_count, d, (p,), d - 2))
        distinct = rng.sample(range(-w, w + 1), d - d // 4)
        p = poly(_from_roots(distinct + distinct[: d // 4]))
        ops.append(Op(op_is_hyperbolic, check_is_hyperbolic, d, (p,), (True, False)))
        f1 = _int_coeffs(rng, d - 2 * (d // 4))
        f2 = _int_coeffs(rng, d // 4)
        ops.append(Op(op_square_free, check_square_free, d, (poly(_mul(f1, _mul(f2, f2))),)))
    return [op._replace(repeats=LADDER_SHORT_REPEATS) if op.degree <= LADDER_SHORT_DEGREE else op
            for op in ops]


# -- roots --------------------------------------------------------------------


def check_decompose_poly_roots(sz, out, op):
    c, n, _, _ = op.inputs
    q = list(reversed(out.sigma)) + [Fraction(1)]  # Q(t) = prod (t + a_i)
    return _roots_problem(q, [-a for a in out.roots], n)


def check_decompose_exp_roots(sz, out, op):
    c, convention, _ = op.inputs
    if convention == "normalized":
        g = [Fraction(1)] + list(out.sigma)
    else:
        g = list(reversed(out.sigma)) + [Fraction(1)]
    return _roots_problem(g, [-a for a in out.roots], len(c))


def op_aberth_roots(sz, p):
    return sz.aberth_roots(p)


def check_aberth_roots(sz, out, op):
    (p,) = op.inputs
    return _roots_problem(p.coeffs, out, p.degree)


def op_cluster_roots(sz, p):
    return sz.cluster_roots(sz.aberth_roots(p))


def check_cluster_roots(sz, out, op):
    (p,) = op.inputs
    if sum(m for _, m in out) != p.degree or len(out) < op.expect:
        return f"clusters {[m for _, m in out]} for degree {p.degree}"
    return _roots_problem(p.coeffs, [z for z, _ in out], len(out))


def op_region_membership(sz, c):
    return sz.region_membership(c)


def check_region_membership(sz, out, op):
    (c,) = op.inputs
    cone = all((-1) ** (i + 1) * ci >= 0 for i, ci in enumerate(c))
    if out.right_halfplane != op.expect or out.hyperbolic or out.in_sign_cone != cone:
        return f"verdict {out}, expected {op.expect}"
    if out.witness_roots is None:
        return "no numeric witnesses although a Hurwitz minor vanishes"
    p = list(reversed(c)) + [Fraction(1)]
    return _roots_problem(p, out.witness_roots, len(c))


def _right_halfplane_core(rng: random.Random, degree: int, one_left: bool) -> list:
    """Monic, real, all roots in Re > 0 (one real root moved left if asked)."""
    quads = degree // 4
    roots = [Fraction(rng.randint(1, 12), 4) for _ in range(degree - 2 * quads)]
    if one_left:
        roots[0] = -roots[0]
    out = _from_roots(roots)
    for _ in range(quads):
        alpha = Fraction(rng.randint(1, 8), 4)
        beta = Fraction(rng.randint(1, 8), 4)
        out = _mul(out, [alpha * alpha + beta * beta, -2 * alpha, Fraction(1)])
    return out


def roots_cycle(sz, rng: random.Random, degrees, extra_finite: Optional[int]) -> list:
    ops = []
    poly = sz.Poly
    for d in degrees:
        c = [_frac(rng) for _ in range(d)]
        ops.append(Op(op_decompose_poly, check_decompose_poly_roots, d, (c, d, 2, True)))
        c = [_frac(rng) for _ in range(d - 1)] + [_nonzero(rng)]
        ops.append(Op(op_decompose_exp, check_decompose_exp_roots, d, (c, "normalized", True)))
        c = [_frac(rng) for _ in range(d)]
        ops.append(Op(op_decompose_exp, check_decompose_exp_roots, d, (c, "monic", True)))
        ops.append(Op(op_aberth_roots, check_aberth_roots, d, (poly(_rand_coeffs(rng, d)),)))
        cplx = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)] + [1 + 0j]
        ops.append(Op(op_aberth_roots, check_aberth_roots, d, (poly(cplx),)))
        doubles = max(1, d // 8)
        values = rng.sample([Fraction(k, 4) for k in range(-10, 11)], d - doubles)
        ops.append(
            Op(op_cluster_roots, check_cluster_roots, d,
               (poly(_from_roots(values + values[:doubles])),), d - doubles)
        )
        if d <= REGION_MAX_DEGREE:
            # (x^2 + b^2) * core: imaginary-axis roots make a Hurwitz minor
            # vanish, which sends region_membership to the Aberth fallback
            one_left = rng.random() < 0.5
            core = _right_halfplane_core(rng, d - 2, one_left)
            b = Fraction(rng.randint(1, 8), 4)
            p = _mul([b * b, 0, Fraction(1)], core)
            expect = sz.OUTSIDE if one_left else sz.BOUNDARY_OR_UNCERTAIN
            ops.append(
                Op(op_region_membership, check_region_membership, d,
                   (list(reversed(p[:-1])),), expect)
            )
    if extra_finite:
        c = [_frac(rng) for _ in range(extra_finite)]
        ops.append(
            Op(op_decompose_poly, check_decompose_poly_roots, extra_finite,
               (c, extra_finite, 2, True))
        )
    return ops


# -- building and replaying ---------------------------------------------------


def build(workload: str, sz, seed: int, smoke: bool, out_path: str) -> list:
    """The workload's cycles of ops, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    cycles = 1 if smoke else CYCLES[workload]
    if workload == "suite":
        trials = SMOKE["suite"]["trials"] if smoke else SUITE_TRIALS
        return suite_cycles(sz, rng, trials, cycles, out_path)
    if workload == "ladder":
        degrees = SMOKE["ladder"]["degrees"] if smoke else LADDER_DEGREES
        return [ladder_cycle(sz, rng, degrees) for _ in range(cycles)]
    if workload == "roots":
        degrees = SMOKE["roots"]["degrees"] if smoke else ROOTS_DEGREES
        extra = None if smoke else ROOTS_EXTRA_FINITE_DEGREE
        return [roots_cycle(sz, rng, degrees, extra) for _ in range(cycles)]
    raise ValueError(f"unknown workload {workload!r}")


def encode(value):
    """JSON form of an op input; rationals become exact "p/q" strings."""
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, str):
        return {"text": value}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if hasattr(value, "coeffs"):
        return {"coeffs": [encode(c) for c in value.coeffs]}
    raise TypeError(f"cannot encode {type(value).__name__}")


def decode(value, sz):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, list):
        return [decode(v, sz) for v in value]
    if "re" in value:
        return complex(value["re"], value["im"])
    if "text" in value:
        return value["text"]
    return sz.Poly([decode(c, sz) for c in value["coeffs"]])


def failure_record(op: Op, exc: BaseException) -> dict:
    return {
        "op": op.fn.__name__,
        "degree": op.degree,
        "inputs": encode(op.inputs),
        "error": type(exc).__name__,
        "message": str(exc),
    }


def replay(record: dict, sz):
    """Re-run one failure record; returns the output or raises again."""
    name = record["op"]
    if not name.startswith("op_") or name not in globals():
        raise ValueError(f"not an op: {name!r}")
    return globals()[name](sz, *[decode(v, sz) for v in record["inputs"]])
