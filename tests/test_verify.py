"""Tests for the randomized verification checks and the suite runner."""

import hashlib
import itertools
import json
import os
import platform
import random
from fractions import Fraction

import pytest

import szego.verify
from szego import (
    AffineMap,
    CheckReport,
    ExpPoly,
    Poly,
    SscContext,
    available_checks,
    compose,
    composition_factor,
    decompose_poly,
    extract_core,
    localization_intervals,
    run_suite,
    sturm_count,
)
from szego.cli import main
from szego.poly import _monic_tail
from szego.roots import Hyperbolicity, place_positive_roots
from szego.verify import (
    _cell_specs,
    _distinct_windows,
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


# -- failure and note records -------------------------------------------------
#
# The seed-42 goldens hold no failures, so they cannot catch a changed
# failure record.  Each case below breaks the layer one check decides
# with and pins the sha256 of the whole report payload.


def _shifted_sigma(real):
    def fake(*args, **kwargs):
        dec = real(*args, **kwargs)
        return dec._replace(sigma=(*dec.sigma[:-1], dec.sigma[-1] + 1))

    return fake


def _negated_offsets(real):
    # sigma_j -> (-1)^j sigma_j sends every offset a to -a
    def fake(*args, **kwargs):
        dec = real(*args, **kwargs)
        sigma = tuple((-1) ** j * v for j, v in enumerate(dec.sigma, 1))
        return dec._replace(sigma=sigma)

    return fake


def _off_by(delta):
    def wrap(real):
        return lambda *args, **kwargs: real(*args, **kwargs) + delta

    return wrap


def _plus_constant(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + Poly([1])


def _plus_constant_exp(real):
    return lambda *args, **kwargs: ExpPoly(real(*args, **kwargs).poly + Poly([1]))


def _plus_subleading(real):
    def fake(*args, **kwargs):
        q = real(*args, **kwargs)
        return q + Poly.monomial(q.degree - 1)

    return fake


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


# id -> (binding in szego.verify, wrapper of the real binding or None,
#        the check run, sha256 of json.dumps(report.to_payload(), sort_keys=True))
# No record prints a float root: every value in them is exact.
FAILURE_RECORD_CASES = {
    "cone_finite": (
        "decompose_poly", _shifted_sigma,
        lambda: check_cone_finite(3, 2, trials=6, seed=42),
        "f3e5dff1c549879dee2fcf84b0f457a03fa1ece595d56afda6e5749f2668e283",
    ),
    "cone_exp": (
        "decompose_exp", _shifted_sigma,
        lambda: check_cone_exp(2, trials=6, seed=42),
        "686d16788e69282b9620f0dac2580af8409423812a7b485eb601bd1c2864fce8",
    ),
    "interval_localization_audit": (
        "sturm_count", _off_by(1),
        lambda: check_interval_localization(2, 1, trials=4, seed=42),
        "9d10f76e489ade1d03e4f8ecae6047d74fdad8ec3341742c209153953650e7df",
    ),
    "interval_localization_windows": (
        "decompose_poly", _negated_offsets,
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
        "decompose_exp", _shifted_sigma,
        lambda: check_halfplane_not_invariant(trials=4, seed=42),
        "771dcba11d805acf876758c7e7ee21b01550e404a6677a2dedb99b39810bd09d",
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
        real = getattr(szego.verify, binding)
        monkeypatch.setattr(szego.verify, binding, wrap(real))
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
