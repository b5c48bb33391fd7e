"""Tests for the randomized verification checks and the suite runner."""

import hashlib
import itertools
import json
import os
import platform
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import szego.verify
from szego import (
    BOUNDARY_OR_UNCERTAIN,
    INSIDE,
    OUTSIDE,
    AffineMap,
    CheckReport,
    ExpPoly,
    Poly,
    SscContext,
    available_checks,
    compose,
    composition_factor,
    decompose_exp,
    decompose_poly,
    decomposition_map,
    extract_core,
    falling_factorial_transform,
    localization_intervals,
    region_membership,
    run_suite,
    sturm_count,
)
from szego.cli import main
from szego.exact import binomial, format_rational
from szego.decompose import MONIC, _finite_image
from szego.poly import _exact, _monic_tail
from szego.roots import Hyperbolicity, _right_halfplane, place_positive_roots
from szego.verify import (
    _cell_specs,
    _cone_point,
    _distinct_windows,
    _over_lcm,
    _planted_hyperbolic,
    _rand_fraction,
    _rand_monic,
    _rand_nonzero,
    _rand_poly,
    _rand_ratio,
    check_alternation_iteration,
    check_cone_exp,
    check_cone_finite,
    check_derivative_identities,
    check_eventual_hyperbolicity,
    check_halfplane_not_invariant,
    check_hyperbolization,
    check_integer_intervals,
    check_interval_localization,
    check_root_multiplicity,
    check_sign_experiments,
    check_taylor_sign_rule,
    check_transform_positivity,
    payload_csv_rows,
    reports_payload,
    suite_alternation_iteration,
    suite_eventual_hyperbolicity,
)

F = Fraction


def test_check_report_payload_shape():
    rep = CheckReport("demo", 10, [], 42, 0.5, [{"hint": 1}])
    assert rep.passed
    payload = rep.to_payload()
    assert payload == {
        "check_id": "demo",
        "trials": 10,
        "passed": True,
        "failures": [],
        "notes": [{"hint": 1}],
        "seed": 42,
    }
    assert "elapsed" not in payload  # timing stays out of comparable output
    bad = CheckReport("demo", 10, [{"trial": 3}], 42, 0.5)
    assert not bad.passed
    # value semantics: repr round-trips, every field counts, no hash
    assert eval(repr(rep)) == rep
    fields = dict(
        check_id="demo", trials=10, failures=[], seed=42, elapsed=0.5, notes=[{"hint": 1}]
    )
    changed = dict(
        check_id="other", trials=11, failures=[{"trial": 3}], seed=43, elapsed=0.25, notes=[]
    )
    assert CheckReport(**fields) == rep
    for name, other in changed.items():
        assert rep != CheckReport(**{**fields, name: other}), name
    assert rep != "CheckReport"
    with pytest.raises(TypeError):
        hash(rep)
    a, b = CheckReport("demo", 1, [], 1), CheckReport("demo", 1, [], 1)
    assert a.notes == b.notes == [] and a.notes is not b.notes


def test_cone_checks_pass():
    for n, k in [(1, 1), (2, 1), (3, 2)]:
        rep = check_cone_finite(n, k, trials=30, seed=1)
        assert rep.passed, rep.failures[:2]
        assert rep.trials == 30
    for m in [1, 2, 4]:
        rep = check_cone_exp(m, trials=30, seed=1)
        assert rep.passed, rep.failures[:2]


def test_interval_localization_passes():
    for n, k in [(2, 1), (3, 2)]:
        rep = check_interval_localization(n, k, trials=25, seed=2)
        assert rep.passed, rep.failures[:2]
        assert rep.check_id == f"interval_localization[n={n},k={k}]"


def test_interval_localization_nu_floor():
    rep = check_interval_localization(2, 1, trials=25, seed=3, nu_min=1)
    assert rep.passed, rep.failures[:2]


def test_taylor_and_integer_interval_checks_pass():
    for m in [1, 2, 4]:
        assert check_taylor_sign_rule(m, trials=25, seed=4).passed
    for m in [2, 3]:
        assert check_integer_intervals(m, trials=25, seed=5).passed


def _exhaustive_distinct_windows(places):
    # every assignment of each root to one of its windows, or to none
    best = 0
    for choice in itertools.product(*[(lo, hi, None) for lo, hi in places]):
        taken = [s for s in choice if s is not None]
        if len(taken) == len(set(taken)):
            best = max(best, len(taken))
    return best


def test_greedy_window_matching_is_maximum():
    rng = random.Random("distinct_windows")
    for _ in range(400):
        places = []
        for _ in range(rng.randint(0, 6)):
            s = rng.randint(0, 3)
            places.append((s, s + rng.randint(0, 1)))
        rng.shuffle(places)
        assert _distinct_windows(places) == _exhaustive_distinct_windows(places), places
    # (0, 1) must leave window 1 to the root that has no other
    assert _distinct_windows([(0, 1), (0, 0), (1, 1)]) == 2
    assert _distinct_windows([(0, 1), (1, 1), (0, 0)]) == 2
    assert _distinct_windows([(0, 1), (0, 1), (1, 2)]) == 3


def test_offsets_on_a_localization_break_take_either_window():
    # composition_factor(3, 2, a) loses its x^s coefficient exactly at the
    # break a = -s/(n+k-s); plant a double offset there at s = 2
    n, k = 3, 2
    assert composition_factor(n, k, Fraction(-2, 3)).coeff(2) == 0
    offsets = [Fraction(-2, 3), Fraction(-2, 3), Fraction(-3)]
    p = composition_factor(n, k, offsets[0])
    for a in offsets[1:]:
        p = compose(p, composition_factor(n, k, a), SscContext(n + k))
    c = extract_core(p, n, k)
    nu = sturm_count(Poly(list(reversed(c)) + [1]), Fraction(0), None)
    assert nu == 1
    # the check's own steps: exact sigma, Q, placement at the breaks -hi
    sigma = decompose_poly(c, n, k, want_roots=False).sigma
    assert _monic_tail(sigma) == Poly.from_roots([-a for a in offsets])
    breaks = [-hi for _, hi in localization_intervals(n, k)] + [None]
    places = place_positive_roots(_monic_tail(sigma), breaks)
    assert places == [(1, 2), (1, 2), (3, 3)]
    assert _distinct_windows(places) == 3 >= nu


def test_integer_intervals_notes_a_double_offset_on_a_break(monkeypatch):
    # T(x^2 - x + 1) = (t - 1)^2: a double offset at exactly -1
    monkeypatch.setattr(szego.verify, "_rand_monic", lambda rng, m: Poly([1, -1, 1]))
    rep = check_integer_intervals(2, trials=1, seed=0)
    assert rep.passed, rep.failures
    assert rep.notes == [
        {"trial": 0, "note": "repeated offset at a window endpoint", "value": "-1", "count": 2}
    ]


def test_localization_cells_pass_over_seeds():
    # the traffic of the benchmark's suite workload: 20 trials per seed
    for seed in range(50):
        reports = run_suite(["interval_localization", "integer_intervals"], trials=20, seed=seed)
        assert len(reports) == 6
        assert all(r.passed for r in reports), [(seed, r.check_id, r.failures[:1]) for r in reports]


def test_transform_positivity_passes():
    rep = check_transform_positivity(trials=40, seed=6)
    assert rep.passed, rep.failures[:2]


def test_alternation_worked_onset():
    rep = check_alternation_iteration(Poly([1, 3, 1]))
    assert rep.passed, rep.failures
    assert rep.notes == [{"nu0": 4}]


def test_alternation_rejects_low_degree():
    with pytest.raises(ValueError):
        check_alternation_iteration(Poly([1, 1]))
    with pytest.raises(ValueError):
        check_alternation_iteration(Poly([0.5, 0, 1]))


def test_eventual_hyperbolicity_rejects_a_constant():
    with pytest.raises(ValueError, match="degree >= 1"):
        check_eventual_hyperbolicity(Poly([3]))


def test_eventual_hyperbolicity_worked():
    # x^2 - x + 1: first qualifying iterate is the second transform
    rep = check_eventual_hyperbolicity(Poly([1, -1, 1]))
    assert rep.passed, rep.failures
    assert rep.notes == [{"nu": 2}]
    # a planted zero root persists
    rep = check_eventual_hyperbolicity(Poly([0, -2, 0, 1]))
    assert rep.passed, rep.failures


def test_iteration_suites_pass():
    assert suite_alternation_iteration(trials=4, seed=7).passed
    assert suite_eventual_hyperbolicity(trials=4, seed=7).passed


def test_halfplane_check_scan_counts():
    rep = check_halfplane_not_invariant(trials=20, seed=8)
    assert rep.passed, rep.failures[:2]
    note = rep.notes[0]
    # both verdicts occur along the scan through the witness point
    assert note["scan_inside"] > 0 and note["scan_outside"] > 0
    assert note["scan_inside"] + note["scan_outside"] + note["scan_uncertain"] == 41
    # the scanned witness (a, b) lies on the source surface c_3 = a b and
    # on the image surface c_3 = (a + 3)(b + a + 1)
    a, b = Fraction(-2), Fraction(1, 3)
    assert a * b == (a + 3) * (b + a + 1) == Fraction(-2, 3)


# -- integer trials against the Fraction code they replaced --------------------
#
# In-test copies of the draws as they were when trials ran on Fractions:
# the integer draws must make the same random calls and give the same values.


def _fraction_draw(rng, bound=10, max_den=8, *, low=None):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den if low is None else low, bound * den), den)


def _fraction_nonzero(rng, bound=6, max_den=8):
    v = Fraction(0)
    while v == 0:
        v = _fraction_draw(rng, bound, max_den)
    return v


def _fraction_poly(rng, deg, bound=6):
    coeffs = [_fraction_draw(rng, bound) for _ in range(deg)]
    return Poly(coeffs + [_fraction_nonzero(rng, bound)])


def _fraction_monic(rng, deg, bound=6):
    return Poly([_fraction_draw(rng, bound) for _ in range(deg)] + [Fraction(1)])


def _fraction_cone_point(rng, n, bound=10):
    draws = (_fraction_draw(rng, bound, low=0) for _ in range(n))
    return tuple(-u if i % 2 else u for i, u in enumerate(draws, 1))


def _fraction_planted_hyperbolic(rng, m, bound=2):
    roots = []
    for _ in range(m):
        if roots and rng.random() < 0.25:
            roots.append(rng.choice(roots))
        else:
            r = _fraction_draw(rng, bound, 4, low=1)
            roots.append(r if rng.random() < 0.6 else -r)
    return Poly.from_roots(roots)


def _cone_values(point):
    c, den = point
    return tuple(Fraction(v, den) for v in c)


# (integer draw, its Fraction copy, the integer draw's value as the copy
# returns it, the arguments drawn from a parameter stream)
_DRAWS = [
    (_rand_ratio, _fraction_draw, lambda r: Fraction(*r),
     lambda g: ((g.randint(1, 10), g.randint(1, 8)), {"low": g.choice([None, 0, 1])})),
    (_rand_fraction, _fraction_draw, lambda v: v,
     lambda g: ((g.randint(1, 10),), {})),
    (_rand_nonzero, _fraction_nonzero, lambda r: Fraction(*r),
     lambda g: ((g.randint(1, 6), g.randint(1, 8)), {})),
    (_rand_poly, _fraction_poly, lambda p: p,
     lambda g: ((g.randint(0, 6), g.randint(1, 6)), {})),
    (_rand_monic, _fraction_monic, lambda p: p,
     lambda g: ((g.randint(0, 6), g.randint(1, 6)), {})),
    (_cone_point, _fraction_cone_point, _cone_values,
     lambda g: ((g.randint(1, 5), g.choice([6, 10])), {})),
    (_planted_hyperbolic, _fraction_planted_hyperbolic, lambda p: p,
     lambda g: ((g.randint(1, 6),), {})),
]


def test_integer_draws_match_the_fraction_draws_stream_by_stream():
    params = random.Random(2030)
    for stream in range(2100):
        new, old = random.Random(f"draws:{stream}"), random.Random(f"draws:{stream}")
        for _ in range(3):
            draw, copy, value, args_of = params.choice(_DRAWS)
            args, kwargs = args_of(params)
            got, want = value(draw(new, *args, **kwargs)), copy(old, *args, **kwargs)
            assert got == want, (draw.__name__, stream, args, kwargs)
            if isinstance(got, Poly):
                assert (got._num, got._den) == (want._num, want._den)
            assert new.getstate() == old.getstate(), (draw.__name__, stream)


def test_integer_images_match_the_public_decomposers():
    rng = random.Random(31)
    faces = 0
    for t in range(600):
        n = rng.randint(1, 5)
        if t % 2:
            c, den = _cone_point(rng, n)
            if n >= 2 and t % 4 == 1:
                c[rng.randrange(n)] = 0  # a cone face
            faces += 0 in c
        else:
            c, den = _over_lcm([_rand_ratio(rng, 12, 9) for _ in range(n)])
        values = [Fraction(v, den) for v in c]
        k = rng.randint(1, 4)
        # the public decomposers wrap the integer steps; the maps' rows
        # (Phi_{n,k}, and the Stirling rows for exp) are a second reference
        q = _finite_image([den, *c], n, k)
        for sigma in (
            decompose_poly(values, n, k, want_roots=False).sigma,
            decomposition_map("finite", n=n, k=k).apply(values),
        ):
            ref = _monic_tail(sigma)
            assert (q._num, q._den) == (ref._num, ref._den), (values, n, k)
        # the monic exp map: Q = T(P) for P = x^n + c_1 x^(n-1) + ... + c_n
        q = falling_factorial_transform(_exact([*reversed(c), den], den))
        for sigma in (
            decompose_exp(values, MONIC, want_roots=False).sigma,
            decomposition_map("exp", m=n, convention=MONIC).apply(values),
        ):
            ref = _monic_tail(sigma)
            assert (q._num, q._den) == (ref._num, ref._den), values
    assert faces > 50


def _scan_points():
    # the scan's points as the Fraction code wrote them
    a, b = Fraction(-2), Fraction(1, 3)
    for i in range(-20, 21):
        bb = b + Fraction(i, 200)
        yield (a, bb, (a + 3) * (bb + a + 1))


def test_halfplane_step_matches_region_membership():
    verdicts = [region_membership(c).right_halfplane for c in _scan_points()]
    note = check_halfplane_not_invariant(trials=1, seed=0).notes[0]
    assert note == {
        "scan_inside": verdicts.count(INSIDE),
        "scan_outside": verdicts.count(OUTSIDE),
        "scan_uncertain": verdicts.count(BOUNDARY_OR_UNCERTAIN),
    }
    rng = random.Random(32)
    cases = list(_scan_points())
    for _ in range(300):
        # products of a root r, a pair +-s or +-i s and a free quadratic:
        # roots on the imaginary axis or symmetric about it make a
        # Hurwitz minor vanish
        r = _rand_fraction(rng, 3, 4)
        s = _rand_fraction(rng, 3, 4, low=0)
        pair = Poly([rng.choice([-1, 1]) * s * s, 0, 1])
        free = Poly([_rand_fraction(rng, 3, 4), _rand_fraction(rng, 3, 4), 1])
        linear = Poly([-r, 1])
        for p in (linear * pair, linear * free, pair * free, pair * pair):
            cases.append(tuple(reversed(p.coeffs[:-1])))
    vanishing = 0
    for c in cases:
        verdict = region_membership(c)
        got = _right_halfplane(_monic_tail(c))
        assert got == (verdict.right_halfplane, verdict.witness_roots), c
        vanishing += got[1] is not None
    assert vanishing > 100


def test_sign_experiments_pass():
    rep = check_sign_experiments(k_values=(1, 2, 3), seed=9)
    assert rep.passed, rep.failures[:2]
    assert rep.trials == 3


def test_hyperbolization_pass():
    rep = check_hyperbolization(trials=6, seed=10)
    assert rep.passed, rep.failures[:2]
    stage = rep.notes[0]
    assert stage["stage"] == "finite iteration"
    assert stage["resolved"] + stage["unresolved_within_nu_max"] == 6


def test_composition_calculus_checks_pass():
    assert check_derivative_identities(trials=40, seed=11).passed
    assert check_root_multiplicity(trials=40, seed=11).passed


def test_checks_are_deterministic():
    a = check_cone_finite(2, 1, trials=20, seed=33).to_payload()
    b = check_cone_finite(2, 1, trials=20, seed=33).to_payload()
    assert a == b
    c = check_cone_finite(2, 1, trials=20, seed=34).to_payload()
    assert c["seed"] != a["seed"]


def test_available_checks_lists_registry():
    names = available_checks()
    assert "cone_finite" in names
    assert "sign_experiments" in names
    assert names == sorted(names)


def test_run_suite_full_and_filtered():
    reports = run_suite(trials=8, seed=12)
    ids = [r.check_id for r in reports]
    assert len(ids) == len(set(ids))
    cell_ids = [spec[0] for spec in _cell_specs(8, 12)]
    assert ids == cell_ids
    assert available_checks() == sorted({i.split("[")[0] for i in cell_ids})
    assert any(i.startswith("cone_finite[") for i in ids)
    assert all(r.passed for r in reports), [
        (r.check_id, r.failures[:1]) for r in reports if not r.passed
    ]

    subset = run_suite(names=["derivative_identities"], trials=8, seed=12)
    assert [r.check_id for r in subset] == ["derivative_identities"]
    by_cell = run_suite(names=["cone_finite[n=1,k=2]"], trials=8, seed=12)
    assert [r.check_id for r in by_cell] == ["cone_finite[n=1,k=2]"]
    by_family = run_suite(names=["cone_exp"], trials=8, seed=12)
    assert all(r.check_id.startswith("cone_exp[") for r in by_family)
    assert len(by_family) == 3


# sha256 of json.dumps(payload["reports"], sort_keys=True) for
# `szego verify --suite all --trials T --seed 42`, keyed by T; the 20-trial
# value also gates the benchmark's suite workload
GOLDEN_REPORTS_SHA256 = {
    20: "61ea8e2335992b03997e65d31a98bb057e0cd9c4f90b1e7164d9f0cb24411901",
    500: "466549c424845546c3df94b05aaf3f2fe90ffd251f438c577ea5ed072d9112ff",
}


@pytest.mark.parametrize("trials", sorted(GOLDEN_REPORTS_SHA256))
def test_seed_42_reports_match_the_golden_hash(trials):
    payload = reports_payload(run_suite(None, trials=trials, seed=42))
    text = json.dumps(payload["reports"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS_SHA256[trials]


def test_cli_reports_through_the_process_pool_match_the_golden_hash(tmp_path):
    # two worker processes and the JSON writer, in development mode with
    # warnings as errors; a warning raised in a finalizer (an unclosed
    # file's ResourceWarning) cannot change the exit status, only print,
    # so stderr must hold the summary line and nothing else
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [
            sys.executable, "-X", "dev", "-W", "error", "-m", "szego.cli", "verify",
            "--suite", "all", "--seed", "42", "--trials", "500", "--jobs", "2", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "24 checks, 0 failed\n"
    text = json.dumps(json.loads(out.read_text(encoding="utf-8"))["reports"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS_SHA256[500]


# -- failure and note records -------------------------------------------------
#
# The seed-42 goldens hold no failures, so they cannot catch a changed
# failure record.  Each case below breaks the layer one check decides
# with and pins the sha256 of the whole report payload.


def _negated_offsets(real):
    # Q(t) -> (-1)^n Q(-t), i.e. sigma_j -> (-1)^j sigma_j, sends every
    # offset a to -a
    def fake(*args, **kwargs):
        q = real(*args, **kwargs)
        return Poly([(-1) ** (q.degree - i) * v for i, v in enumerate(q.coeffs)])

    return fake


def _off_by(delta):
    def wrap(real):
        return lambda *args, **kwargs: real(*args, **kwargs) + delta

    return wrap


def _plus_constant(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + Poly([1])


def _plus_constant_exp(real):
    return lambda *args, **kwargs: ExpPoly(real(*args, **kwargs).poly + Poly([1]))


def _remainder_plus_one(real):
    def fake(*args):
        quot, rem = real(*args)
        return quot, rem + Poly([1])

    return fake


def _plus_subleading(real):
    def fake(*args, **kwargs):
        q = real(*args, **kwargs)
        return q + Poly.monomial(q.degree - 1)

    return fake


def _frozen_linear_term(real):
    # keeps the constant term and the subleading law, freezes c at x^1
    def fake(q):
        image = real(q)
        return image + Poly.monomial(1, q.coeff(1) - image.coeff(1))

    return fake


def _always_inside(real):
    return lambda *args, **kwargs: (INSIDE, None)


def _negated(real):
    return lambda *args, **kwargs: [-v for v in real(*args, **kwargs)]


def _never(real):
    return lambda *args, **kwargs: False


def _never_hyperbolic(real):
    return lambda *args, **kwargs: Hyperbolicity(False, False)


def _shifted_last_offset(real):
    def fake(*args, **kwargs):
        amap = real(*args, **kwargs)
        return AffineMap(amap.matrix, (*amap.offset[:-1], amap.offset[-1] + 1))

    return fake


# id -> (binding in szego.verify, or an (owner, attribute) pair, wrapper
#        of the real binding or None, the check run,
#        sha256 of json.dumps(report.to_payload(), sort_keys=True))
# No record prints a float root: every value in them is exact.
FAILURE_RECORD_CASES = {
    "cone_finite": (
        "_finite_image", _plus_constant,
        lambda: check_cone_finite(3, 2, trials=6, seed=42),
        "f3e5dff1c549879dee2fcf84b0f457a03fa1ece595d56afda6e5749f2668e283",
    ),
    "cone_exp": (
        "falling_factorial_transform", _plus_constant,
        lambda: check_cone_exp(2, trials=6, seed=42),
        "686d16788e69282b9620f0dac2580af8409423812a7b485eb601bd1c2864fce8",
    ),
    "interval_localization_audit": (
        "sturm_count", _off_by(1),
        lambda: check_interval_localization(2, 1, trials=4, seed=42),
        "9d10f76e489ade1d03e4f8ecae6047d74fdad8ec3341742c209153953650e7df",
    ),
    "interval_localization_windows": (
        "_finite_image", _negated_offsets,
        lambda: check_interval_localization(3, 2, trials=4, seed=42, nu_min=1),
        "48287d48045dd487d48dd2de2da2fe8006eb0f80f1d62efab208457aca2dfef3",
    ),
    "interval_localization_notes": (
        None, None,
        lambda: check_interval_localization(2, 3, trials=10, seed=42, nu_min=1),
        "0a058e556e53b3d36979285468fdc6a3d4edafd9a81f6581b660d52d53ef341c",
    ),
    "taylor_sign_rule": (
        "sturm_count", _off_by(1),
        lambda: check_taylor_sign_rule(3, trials=6, seed=42),
        "e1d713265484ddc3c026b4c1f457e091125c38e1f2e8190a18addc7f6430a826",
    ),
    "integer_intervals": (
        "sign_changes", _off_by(1),
        lambda: check_integer_intervals(3, trials=6, seed=42),
        "7d894944cbafa1f0b0f65e55cf0d8d40d5f0466787dd2febfb1b4e7a0a1282c9",
    ),
    "integer_intervals_notes": (
        None, None,
        lambda: check_integer_intervals(2, trials=5, seed=27),
        "b8990e06ee0435a07a46302a434c0b07febb65a66559896b0f9fd62149aaef1d",
    ),
    "transform_positivity": (
        "sturm_count", _off_by(-1),
        lambda: check_transform_positivity(trials=6, seed=42),
        "74f02d02a82cdc1e2100daa1ea654d6bf429a3cc50d9b24f3c3e0d6dac1a1c95",
    ),
    "alternation_iteration": (
        "falling_factorial_transform", _plus_constant,
        lambda: suite_alternation_iteration(trials=2, seed=42),
        "0a608aa8a2ed600435d7c89428d222e36bbc5e774d8405f1ad4442c7239971ff",
    ),
    "alternation_iteration_subleading": (
        "falling_factorial_transform", _plus_subleading,
        lambda: suite_alternation_iteration(trials=2, seed=42),
        "0dacb144b83d21269104461835df37aac05de5fb1c095002df0b10117c6b7371",
    ),
    "alternation_iteration_ratio_growth": (
        "falling_factorial_transform", _frozen_linear_term,
        lambda: check_alternation_iteration(Poly([1, 1, 0, 1])),
        "9df79dd6f295474f0590e09e5326c67ed842c8efc7423e2b93139ec05c2d52d9",
    ),
    "alternation_iteration_cap": (
        None, None,
        lambda: suite_alternation_iteration(trials=2, seed=42, max_nu=3),
        "3030e5ffd5d190bb003460987c147eac4bb37d0564538b604ff70493d464bf87",
    ),
    "eventual_hyperbolicity": (
        None, None,
        lambda: suite_eventual_hyperbolicity(trials=5, seed=42, max_nu=1),
        "7a18cd0ad4852f420fcfa2ef49361fe1506d029cfa7a678acee2eaab0b4cab7a",
    ),
    "halfplane_not_invariant": (
        "falling_factorial_transform", _plus_constant,
        lambda: check_halfplane_not_invariant(trials=4, seed=42),
        "771dcba11d805acf876758c7e7ee21b01550e404a6677a2dedb99b39810bd09d",
    ),
    "halfplane_not_invariant_scan": (
        "_right_halfplane", _always_inside,
        lambda: check_halfplane_not_invariant(trials=4, seed=42),
        "547274150b2170ca45c705e216ac4fbc61e86197739a2fdc075afb07a7015f0f",
    ),
    "sign_experiments": (
        "hurwitz_determinants", _negated,
        lambda: check_sign_experiments(k_values=(1, 2), seed=42),
        "7b1947a9f2db54b53b8f0baa19f7f691586796866ef5da083f67d1550a75a4f4",
    ),
    "sign_experiments_identities": (
        "compose", _plus_constant,
        lambda: check_sign_experiments(k_values=(1, 2), seed=42),
        "7d73e2119881128f396c3558b2daa2761ee91448f8335f7b055b579b8691b7bb",
    ),
    "sign_experiments_multiplicity": (
        (Poly, "__divmod__"), _remainder_plus_one,
        lambda: check_sign_experiments(k_values=(1, 2), seed=42),
        "a3eeb4f24e452b47e2585f1107c890fa435a65b1fbe1dd0a17663c71e97eda02",
    ),
    "sign_experiments_negativity": (
        "sturm_count", _off_by(1),
        lambda: check_sign_experiments(k_values=(1, 2), seed=42),
        "d7ae55a26637966c8dc956b51d239c4ed1aa89db2a3ab7ba461051cbc62c5696",
    ),
    "sign_experiments_exp_identities": (
        "exp_compose", _plus_constant_exp,
        lambda: check_sign_experiments(k_values=(1, 2), seed=42),
        "5220fd7d37ed5d5180d291c5e68d7ad11d33523ad6408d365738a8a580c2528e",
    ),
    "derivative_identities": (
        "derivative_identities_hold", _never,
        lambda: check_derivative_identities(trials=4, seed=42),
        "ff394fcb196010f0ba550d636efd1ae183eab1ea17e1f29ac922c3f5cdff362b",
    ),
    "hyperbolization_never_hyperbolic": (
        "is_hyperbolic", _never_hyperbolic,
        lambda: check_hyperbolization(trials=6, seed=42),
        "d489d459f4cdbe086cdba5739bb21175c6afcf5f3566886ef390f27e3cecea4a",
    ),
    "hyperbolization_shifted_offset": (
        "decomposition_map", _shifted_last_offset,
        lambda: check_hyperbolization(trials=6, seed=42),
        "9d9811326d0062f6bcf0cfade774f782eccd3570ec5c0b1560c9a34d143b3d09",
    ),
    "root_multiplicity": (
        "compose", _plus_constant,
        lambda: check_root_multiplicity(trials=4, seed=42),
        "d1133c6bc67a40f4bed680960ee3afd0499de9c0509adbd2b4e224bd2fec390b",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURE_RECORD_CASES))
def test_failure_and_note_records_are_pinned(case, monkeypatch):
    binding, wrap, run, digest = FAILURE_RECORD_CASES[case]
    if binding is not None:
        owner, name = binding if isinstance(binding, tuple) else (szego.verify, binding)
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    _assert_pinned(run().to_payload(), digest)


def test_sign_experiments_pins_the_exp_cross_check_record(monkeypatch):
    # ExpPoly.gamma is a method, not a binding in szego.verify
    real = ExpPoly.gamma
    monkeypatch.setattr(ExpPoly, "gamma", lambda self, j: real(self, j) + 1)
    payload = check_sign_experiments(k_values=(1, 2), seed=42).to_payload()
    assert "exp perturbed cross-check" in [f["part"] for f in payload["failures"]]
    _assert_pinned(payload, "2a51b504db4f730742c35f586c4040e6085f1725f91d060daa6bbe5e16e4a756")


def _assert_pinned(payload, digest):
    assert payload["failures"] or payload["notes"]
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text[:400]


# -- the last Fraction cells against their integer rewrites -------------------
#
# In-test copies of check_halfplane_not_invariant, check_sign_experiments
# and check_hyperbolization as they were when they ran on Fractions.  They
# reach every layer a case below breaks through szego.verify (decompose_exp
# through szego.decompose), so a broken layer turns the trials on both
# sides into failure records that print the values each side computed.

sv = szego.verify


def _fraction_halfplane(trials, seed):
    def trial(rng, t):
        d = _fraction_draw(rng, 8)
        lam = _fraction_draw(rng, 8)
        c = (-d, lam, -d * lam)
        sigma = decompose_exp(c, MONIC, want_roots=False).sigma
        expected = (-d - 3, lam + d + 2, -d * lam)
        if sigma != expected:
            return {
                "d": format_rational(d),
                "lambda": format_rational(lam),
                "sigma": sv._fmt(sigma),
                "expected": sv._fmt(expected),
            }
        return None

    report = sv._run_trials("halfplane_not_invariant", trials, seed, trial)
    d = 600
    a = -2 * d
    inside = outside = uncertain = 0
    for i in range(-20, 21):
        bb = d // 3 + 3 * i
        p = _exact([(a + 3 * d) * (bb + a + d), bb * d, a * d, d * d], d * d)
        verdict = sv._right_halfplane(p)[0]
        if verdict == INSIDE:
            inside += 1
        elif verdict == OUTSIDE:
            outside += 1
        else:
            uncertain += 1
    if not (inside > 0 and outside > 0):
        report.failures.append(
            {"stage": "scan", "inside": inside, "outside": outside, "uncertain": uncertain}
        )
    report.notes.append(
        {"scan_inside": inside, "scan_outside": outside, "scan_uncertain": uncertain}
    )
    return report


def _fraction_sign_experiments(k_values=(1, 2, 3, 4, 5, 6), seed=42):
    fmt = sv._fmt
    eps = Fraction(1, 100)
    failures = []

    def fail(k, part, **extra):
        failures.append({"k": k, "part": part, **extra})

    for k in k_values:
        nk = k + 2
        ctx = SscContext(nk)
        shell = Poly([1, 1]) ** (k + 1)
        base = Poly([1, 1]) ** k
        a1 = shell * Poly.x()
        want1 = base * Poly.x() * Poly([Fraction(1, nk), 1])
        got1 = sv.compose(a1, a1, ctx)
        if got1 != want1:
            fail(k, "zero-root identity", got=fmt(got1.coeffs), want=fmt(want1.coeffs))
        a2 = shell * Poly([-1, 1])
        want2 = base * Poly([1, Fraction(-2 * k, nk), 1])
        got2 = sv.compose(a2, a2, ctx)
        if got2 != want2:
            fail(k, "positive-root identity", got=fmt(got2.coeffs), want=fmt(want2.coeffs))
        pert = Poly(
            [
                (a1.coeff(j) ** 2 + eps**2 * shell.coeff(j) ** 2) / binomial(nk, j)
                for j in range(nk + 1)
            ]
        )
        quot, rem = divmod(pert, base)
        if not rem.is_zero or quot.degree != 2:
            fail(k, "forced multiplicity at -1", remainder=fmt(rem.coeffs))
        elif not (quot.constant != 0 and sv.sturm_count(quot, None, Fraction(0)) == 2):
            fail(k, "perturbed quadratic roots", quadratic=fmt(quot.coeffs))
        if not all(d > 0 for d in sv.hurwitz_determinants(pert)):
            fail(k, "perturbed half-plane", perturbed=fmt(pert.coeffs))

    f1 = Poly([1, 1])
    got_exp = sv.exp_compose(ExpPoly(f1), ExpPoly(f1))
    if got_exp.poly != Poly([1, 3, 1]):
        fail(None, "exp identity", got=fmt(got_exp.poly.coeffs))
    gneg = sv.exp_compose(ExpPoly(Poly([-1, 1])), ExpPoly(Poly([-1, 1])))
    if gneg.poly != Poly([1, -1, 1]):
        fail(None, "exp sign-flipped identity", got=fmt(gneg.poly.coeffs))
    pert_exp = Poly([1 + eps**2, 3, 1])
    if not (sv.sturm_count(pert_exp, None, Fraction(0)) == 2 and pert_exp.constant != 0):
        fail(None, "exp perturbed negativity", quadratic=fmt(pert_exp.coeffs))
    exp_pert = ExpPoly(pert_exp)
    gammas = [exp_pert.gamma(j) for j in range(3)]
    if gammas != [(j + 1) ** 2 + eps**2 for j in range(3)]:
        fail(None, "exp perturbed cross-check", gammas=fmt(gammas))

    for k in k_values:
        rng = sv._rng(seed, f"sign_experiments:positive:{k}")
        n = rng.randint(2, 4)
        kk = rng.randint(1, 3)
        total = n + kk
        avals = [_fraction_draw(rng, 6, low=1) for _ in range(n)]
        pol = sv.composition_factor(n, kk, avals[0])
        for av in avals[1:]:
            pol = sv.compose(pol, sv.composition_factor(n, kk, av), SscContext(total))
        neg_count = sv.sturm_count(pol, None, Fraction(0), multiplicity=True)
        if not (pol.constant != 0 and neg_count == total):
            fail(k, "positive offsets", offsets=fmt(avals), composed=fmt(pol.coeffs),
                 negative_roots=neg_count)

    return CheckReport("sign_experiments", len(list(k_values)), failures, seed)


def _fraction_hyperbolization(trials=50, seed=42):
    n, k, nu_max, cap = 2, 1, 400, 2000
    check_id = f"hyperbolization[n={n},k={k}]"
    amap = sv.decomposition_map("finite", n=n, k=k)
    emap = sv.decomposition_map("exp", m=2, convention="normalized")
    first = []

    def finite_trial(rng, t):
        c, den = sv._cone_point(rng, n, 6)
        vec = tuple(Fraction(v, den) for v in c)
        for nu in range(nu_max + 1):
            if sv.is_hyperbolic(_monic_tail(vec)).hyperbolic:
                first.append(nu)
                break
            vec = amap.apply(vec)

    def exp_trial(rng, t):
        aa = _fraction_draw(rng, 8)
        bb = _fraction_draw(rng, 5, low=1)
        s0 = next((s for s in range(cap + 1) if (aa - s * bb) ** 2 >= 4 * bb), None)
        vec = (aa, bb)
        s_iter = None
        for s in range(cap + 1):
            if vec != (aa - s * bb, bb):
                return {
                    "stage": "exp closed form",
                    "a": format_rational(aa),
                    "b": format_rational(bb),
                    "s": s,
                    "observed": sv._fmt(vec),
                    "expected": sv._fmt((aa - s * bb, bb)),
                }
            if sv.is_hyperbolic(Poly([Fraction(1), vec[0], vec[1]])).hyperbolic:
                s_iter = s
                break
            vec = emap.apply(vec)
        if s0 is None or s_iter != s0:
            return {
                "stage": "first hyperbolic index",
                "a": format_rational(aa),
                "b": format_rational(bb),
                "closed_form": s0,
                "iterated": s_iter,
            }
        return None

    sv._run_trials(check_id, trials, seed, finite_trial)
    notes = [
        {
            "stage": "finite iteration",
            "resolved": len(first),
            "unresolved_within_nu_max": trials - len(first),
            "max_first_hyperbolic": max(first) if first else None,
        }
    ]
    exp = sv._run_trials(f"{check_id}:exp", trials, seed, exp_trial)
    return CheckReport(check_id, trials, exp.failures, seed, notes=notes)


# cell -> (the check, its Fraction copy), both at the suite's 20-trial shape
_FRACTION_CELLS = {
    "halfplane_not_invariant": (
        lambda seed: check_halfplane_not_invariant(20, seed),
        lambda seed: _fraction_halfplane(20, seed),
    ),
    "sign_experiments": (
        lambda seed: check_sign_experiments(seed=seed),
        lambda seed: _fraction_sign_experiments(seed=seed),
    ),
    "hyperbolization": (
        lambda seed: check_hyperbolization(5, seed),
        lambda seed: _fraction_hyperbolization(5, seed),
    ),
}

# (cell, seeds, the layers broken on both sides as (owner, name, wrapper))
_CELL_BREAKS = [
    ("halfplane_not_invariant", 200, []),
    ("halfplane_not_invariant", 20, [
        (sv, "falling_factorial_transform", _plus_constant),
        (szego.decompose, "falling_factorial_transform", _plus_constant),
    ]),
    ("sign_experiments", 50, []),
    ("sign_experiments", 5, [(sv, "hurwitz_determinants", _negated)]),
    ("sign_experiments", 5, [(sv, "sturm_count", _off_by(1))]),
    ("sign_experiments", 5, [
        (sv, "compose", _plus_constant),
        (sv, "exp_compose", _plus_constant_exp),
    ]),
    ("sign_experiments", 5, [
        (Poly, "__divmod__", _remainder_plus_one),
        (ExpPoly, "gamma", lambda real: lambda self, j: real(self, j) + 1),
    ]),
    ("hyperbolization", 200, []),
    ("hyperbolization", 10, [(sv, "decomposition_map", _shifted_last_offset)]),
    ("hyperbolization", 2, [(sv, "is_hyperbolic", _never_hyperbolic)]),
]


@pytest.mark.parametrize(
    "cell, seeds, breaks",
    _CELL_BREAKS,
    ids=[f"{cell}-{'+'.join(b[1] for b in breaks) or 'intact'}" for cell, _, breaks in _CELL_BREAKS],
)
def test_integer_cells_match_their_fraction_copies(cell, seeds, breaks, monkeypatch):
    for owner, name, wrap in breaks:
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    check, copy = _FRACTION_CELLS[cell]
    failing = 0
    for seed in range(seeds):
        got = check(seed).to_payload()
        assert got == copy(seed).to_payload(), (cell, seed)
        failing += bool(got["failures"])
    # an intact layer passes every seed; a broken one fails some
    assert failing > 0 if breaks else failing == 0


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite(names=["no_such_check"], trials=5, seed=1)


def test_run_suite_parallel_matches_serial():
    serial = [r.to_payload() for r in run_suite(trials=6, seed=13)]
    parallel = [r.to_payload() for r in run_suite(trials=6, seed=13, jobs=2)]
    assert serial == parallel


def test_run_suite_rejects_jobs_below_one():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            run_suite(names=["derivative_identities"], trials=1, seed=1, jobs=jobs)


def test_run_suite_rejects_trials_below_one():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            run_suite(names=["derivative_identities"], trials=trials, seed=1)


def test_run_suite_rejects_an_empty_selection():
    # only None selects every cell
    with pytest.raises(ValueError, match="no checks selected"):
        run_suite(names=[], trials=1, seed=1)


def test_run_suite_reads_a_bare_string_as_one_name():
    one = run_suite("cone_exp", trials=1, seed=1)
    assert [r.to_payload() for r in one] == [
        r.to_payload() for r in run_suite(["cone_exp"], trials=1, seed=1)
    ]
    assert one and all(r.check_id.startswith("cone_exp[") for r in one)


def test_run_suite_clamps_workers(monkeypatch):
    created = []

    class RecordingPool:
        """Records max_workers and maps in-process: starts no worker."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    huge = 10**9
    # clamped by the cell count (cone_exp has 3 cells)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert len(run_suite(names=["cone_exp"], trials=1, seed=1, jobs=huge)) == 3
    # clamped by the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert len(run_suite(names=["cone_finite"], trials=1, seed=1, jobs=huge)) == 4
    # an unknown CPU count, or a single cell: no pool at all
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_suite(names=["cone_exp"], trials=1, seed=1, jobs=huge)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run_suite(names=["derivative_identities"], trials=1, seed=1, jobs=huge)
    assert created == [3, 2]


def test_the_cell_runner_is_the_only_clock():
    # a check called directly is untimed; run_suite times every cell
    assert check_derivative_identities(trials=2, seed=1).elapsed == 0.0
    assert suite_eventual_hyperbolicity(trials=1, seed=1).elapsed == 0.0
    reports = run_suite(names=["derivative_identities", "halfplane_not_invariant"], trials=2, seed=1)
    assert all(r.elapsed > 0 for r in reports)


def test_reports_payload_and_csv(tmp_path):
    reports = run_suite(names=["derivative_identities", "root_multiplicity"], trials=5, seed=14)
    payload = reports_payload(reports)
    assert set(payload) == {"metadata", "reports"}
    meta = payload["metadata"]
    assert meta["backend"] == "python"
    assert meta["python"] == platform.python_version()
    assert set(meta["elapsed_seconds"]) == {r.check_id for r in reports}
    assert [r["check_id"] for r in payload["reports"]] == [r.check_id for r in reports]

    rows = payload_csv_rows(payload)
    assert rows[0] == ["check_id", "trials", "failures", "seed", "seconds"]
    assert len(rows) == 3
    assert rows[1][0] == "derivative_identities"
    assert rows[1][1] == 5

    # the command line writes both files from one payload
    jpath = tmp_path / "out.json"
    cpath = tmp_path / "out.csv"
    argv = ["verify", "--suite", "derivative_identities,root_multiplicity",
            "--trials", "5", "--seed", "14", "--out", str(jpath), "--csv", str(cpath)]
    assert main(argv) == 0
    loaded = json.loads(jpath.read_text())
    assert loaded["reports"] == payload["reports"]
    assert set(loaded["metadata"]) == set(meta)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "check_id,trials,failures,seed,seconds"
    assert len(lines) == 3
    seconds = loaded["metadata"]["elapsed_seconds"]
    assert lines[1] == f"derivative_identities,5,0,14,{seconds['derivative_identities']:.3f}"
