"""Acceptance gate: nine criteria, each printing one pass/fail line.

Every criterion has a pinned runtime budget and zero tolerance for
property violations; randomness is seeded so reruns are identical.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from szego import (
    ExpPoly,
    Poly,
    compose,
    decompose_exp,
    decompose_poly,
    exp_compose,
    padded_core,
    recompose,
    region_membership,
    SscContext,
)
from szego.decompose import MONIC, NORMALIZED
from szego.roots import INSIDE, OUTSIDE
from szego.verify import (
    check_alternation_iteration,
    check_cone_exp,
    check_cone_finite,
    check_derivative_identities,
    check_integer_intervals,
    check_interval_localization,
    check_root_multiplicity,
    check_taylor_sign_rule,
    check_transform_positivity,
)

F = Fraction


def _criterion(capsys, number, title, budget, body):
    t0 = time.perf_counter()
    failures = body()
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    with capsys.disabled():
        print(
            f"criterion {number} [{'PASS' if ok else 'FAIL'}] "
            f"{title}: {elapsed:.2f}s (budget {budget:g}s)"
        )
    assert not failures, failures[:5]
    assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s"


def _rand_vec(rng, n, bound=9):
    return [F(rng.randint(-bound, bound), rng.randint(1, 6)) for _ in range(n)]


def test_criterion_1_exact_identities(capsys):
    def body():
        bad = []
        for k in range(1, 7):
            nk = k + 2
            ctx = SscContext(nk)
            shell = Poly([1, 1]) ** (k + 1)
            base = Poly([1, 1]) ** k
            a1 = shell * Poly.x()
            want1 = base * Poly.x() * Poly([F(1, nk), 1])
            if compose(a1, a1, ctx) != want1:
                bad.append(f"zero-root identity, k={k}")
            a2 = shell * Poly([-1, 1])
            want2 = base * Poly([1, F(-2 * k, nk), 1])
            if compose(a2, a2, ctx) != want2:
                bad.append(f"unit-root identity, k={k}")
        plus = ExpPoly(Poly([1, 1]))
        if exp_compose(plus, plus) != ExpPoly(Poly([1, 3, 1])):
            bad.append("exp identity for x+1")
        minus = ExpPoly(Poly([-1, 1]))
        if exp_compose(minus, minus) != ExpPoly(Poly([1, -1, 1])):
            bad.append("exp identity for x-1")
        return bad

    _criterion(capsys, 1, "exact composition identities", 1.0, body)


def test_criterion_2_round_trips(capsys):
    def body():
        bad = []
        rng = random.Random("acceptance:roundtrip")
        for t in range(500):  # finite instances
            n = rng.randint(1, 6)
            k = rng.randint(1, 4)
            c = _rand_vec(rng, n)
            dec = decompose_poly(c, n, k, want_roots=False)
            if recompose(dec) != padded_core(c, n, k):
                bad.append(f"finite trial {t}: n={n} k={k} c={c}")
        for t in range(500):  # exp instances, both conventions
            m = rng.randint(1, 6)
            c = _rand_vec(rng, m)
            if t % 2 == 0:
                if c[-1] == 0:
                    c[-1] = F(1, 2)
                dec = decompose_exp(c, NORMALIZED, want_roots=False)
                expect = ExpPoly(Poly([F(1)] + list(c)))
            else:
                dec = decompose_exp(c, MONIC, want_roots=False)
                expect = ExpPoly(Poly(list(reversed(c)) + [F(1)]))
            if recompose(dec) != expect:
                bad.append(f"exp trial {t}: m={m} c={c}")
        return bad

    _criterion(capsys, 2, "decompose/recompose round-trips", 30.0, body)


def test_criterion_3_cone_invariance(capsys):
    def body():
        bad = []
        for n in range(1, 5):
            for k in range(1, 4):
                rep = check_cone_finite(n, k, trials=500, seed=42)
                if not rep.passed:
                    bad.append((rep.check_id, rep.failures[:2]))
        for m in range(1, 6):
            rep = check_cone_exp(m, trials=500, seed=42)
            if not rep.passed:
                bad.append((rep.check_id, rep.failures[:2]))
        return bad

    _criterion(capsys, 3, "sign-cone invariance with boundary alignment", 60.0, body)


def test_criterion_4_interval_localization(capsys):
    def body():
        bad = []
        for n in range(2, 5):
            for k in range(1, 4):
                rep = check_interval_localization(n, k, trials=200, seed=42, nu_min=1)
                if not rep.passed:
                    bad.append((rep.check_id, rep.failures[:2]))
        return bad

    _criterion(capsys, 4, "positive roots force distinct offset windows", 60.0, body)


def test_criterion_5_taylor_sign_rule(capsys):
    def body():
        bad = []
        for m in range(1, 6):
            rep = check_taylor_sign_rule(m, trials=100, seed=42)
            if not rep.passed:
                bad.append((rep.check_id, rep.failures[:2]))
            rep = check_integer_intervals(m, trials=100, seed=42)
            if not rep.passed:
                bad.append((rep.check_id, rep.failures[:2]))
        return bad

    _criterion(capsys, 5, "Taylor sign rule and integer windows", 60.0, body)


def test_criterion_6_alternation_and_positivity(capsys):
    def body():
        bad = []
        rng = random.Random("acceptance:alternation")
        for t in range(200):
            deg = rng.randint(2, 5)
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
            p = Poly(coeffs + [F(1)])
            rep = check_alternation_iteration(p, max_nu=10000)
            if not rep.passed:
                bad.append((f"trial {t}", rep.failures[:1]))
        rep = check_transform_positivity(trials=200, seed=42, degree_max=5)
        if not rep.passed:
            bad.append(("transform_positivity", rep.failures[:2]))
        return bad

    _criterion(capsys, 6, "iterated-transform alternation and growth", 120.0, body)


def test_criterion_7_halfplane_image_formula(capsys):
    def body():
        bad = []
        rng = random.Random("acceptance:halfplane")
        for t in range(100):
            d = F(rng.randint(0, 60), rng.randint(1, 8))
            lam = F(rng.randint(0, 60), rng.randint(1, 8))
            sigma = decompose_exp((-d, lam, -d * lam), MONIC, want_roots=False).sigma
            if sigma != (-d - 3, lam + d + 2, -d * lam):
                bad.append(f"image formula: d={d} lam={lam} sigma={sigma}")
        a, b = F(-2), F(1, 3)
        inside = outside = 0
        for i in range(-20, 21):
            bb = b + F(i, 200)
            verdict = region_membership((a, bb, (a + 3) * (bb + a + 1))).right_halfplane
            inside += verdict == INSIDE
            outside += verdict == OUTSIDE
        if not (inside > 0 and outside > 0):
            bad.append(f"scan verdicts: inside={inside} outside={outside}")
        return bad

    _criterion(capsys, 7, "half-plane image formula and scan", 10.0, body)


def test_criterion_8_calculus_identities(capsys):
    def body():
        bad = []
        rep = check_derivative_identities(trials=500, seed=42)
        if not rep.passed:
            bad.append(("derivative_identities", rep.failures[:2]))
        rep = check_root_multiplicity(trials=500, seed=42)
        if not rep.passed:
            bad.append(("root_multiplicity", rep.failures[:2]))
        return bad

    _criterion(capsys, 8, "derivative identities and root orders", 30.0, body)


def test_criterion_9_determinism(capsys, tmp_path):
    def body():
        bad = []
        payloads = []
        for run in range(2):
            out = tmp_path / f"run{run}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "szego.cli",
                    "verify",
                    "--suite",
                    "all",
                    "--seed",
                    "42",
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                bad.append(f"run {run} exited {proc.returncode}: {proc.stderr[-300:]}")
                return bad
            payloads.append(json.loads(out.read_text()))
        fixed = [
            json.dumps(doc["reports"], sort_keys=True).encode() for doc in payloads
        ]
        if fixed[0] != fixed[1]:
            bad.append("reports differ between identically seeded runs")
        if payloads[0]["metadata"]["backend"] != payloads[1]["metadata"]["backend"]:
            bad.append("backend changed between runs")
        return bad

    _criterion(capsys, 9, "byte-identical seeded suite runs", 60.0, body)
