"""Tests of the benchmark itself: schema, metric names, tracing, smoke runs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import probe_check
import run
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
STRESSED = {
    "suite": "poly.construct.self_s",
    "ladder": "roots.sturm_count.self_s",
    "roots": "roots.kernel.self_s",
}


def smoke(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_benchmark():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == ["suite", "ladder", "roots"]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layers == tracing.metric_specs()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [
        w["name"] for w in SPEC["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("workload", ["suite", "ladder", "roots"])
def test_full_workloads_have_a_hundred_distinct_ops(workload, tmp_path):
    sz = run.import_szego()
    cycles = workloads.build(workload, sz, 7, False, str(tmp_path / "report.json"))
    assert sum(len(c) for c in cycles) >= 100
    assert cycles == workloads.build(workload, sz, 7, False, str(tmp_path / "report.json"))


@pytest.mark.parametrize("workload", ["suite", "ladder", "roots"])
def test_untraced_smoke_emits_every_end_to_end_metric(workload):
    result = last_json(smoke(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["suite", "ladder", "roots"])
def test_traced_smoke_emits_every_layer_metric(workload):
    result = last_json(smoke(workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics[STRESSED[workload]] > 0
    assert metrics["trace.coverage"] >= 0.95
    if workload != "suite":
        assert metrics["cli.main.calls"] == 0


def test_repeated_ops_count_each_execution_under_one_identity():
    ops = [workloads.Op(lambda sz: 1, lambda sz, out, op: None, 4, (), repeats=3),
           workloads.Op(lambda sz: 1 / 0, lambda sz, out, op: None, 48, ())]
    loop = run.Loop()
    run.run_loop(loop, None, [ops], 0, max_cycles=2)
    assert (loop.attempted, loop.failed) == (8, 2)
    assert len(loop.identities) == 2 and list(loop.identity) == [0, 0, 0, 1] * 2
    assert [r["count"] for r in loop.errors.values()] == [2]


def test_roots_counts_the_kernel_overflow_and_records_replayable_inputs():
    result = last_json(smoke("roots", 0))
    assert result["failed"] > 0
    record_file = ROOT / ".perfbench_out" / "result-roots-seed5-trace0.json"
    records = json.loads(record_file.read_text(encoding="utf-8"))["failures"]
    assert records and all(r["error"] == "OverflowError" for r in records)
    sz = run.import_szego()
    with pytest.raises(OverflowError):
        workloads.replay(records[0], sz)


def test_tracer_wraps_every_binding_and_restores_them():
    sz = run.import_szego()
    original = sz.poly.interpolate
    tracer = tracing.Tracer()
    tracer.install(sz)
    try:
        wrapped = sz.ssc.interpolate
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert sz.decompose.interpolate is wrapped and sz.interpolate is wrapped
        assert sz.verify.aberth_roots is sz.decompose.aberth_roots is sz.roots.aberth_roots
        assert sz.cli.decompose_poly is sz.verify.decompose_poly is sz.decompose_poly
        assert sz.Poly.__dict__["__init__"].__wrapped__ is not None
        assert sz.roots._kernel.solve.__wrapped__ is not None
        sz.exp_compose(sz.ExpPoly(sz.Poly([1, 2, 3])), sz.ExpPoly(sz.Poly([4, 5])))
    finally:
        tracer.uninstall()
    assert sz.ssc.interpolate is original and sz.interpolate is original
    metrics = tracer.metrics(1.0, tracer.top_level_s)
    assert metrics["ssc.exp_compose.calls"] == 1
    assert metrics["poly.interpolate.calls"] == 1 and metrics["poly.construct.calls"] > 1
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total <= tracer.top_level_s * 1.0001
    assert metrics["poly.max_coeff_bits"] > 0


def test_without_sources_the_benchmark_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("ladder", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_speed_scales_wall_time_by_the_probes_inside_the_interval():
    r = speed.REFERENCE_PROBE_S
    probe = speed.SpeedProbe()
    probe.at.extend([1.0, 2.0, 3.0, 4.0])
    probe.cost.extend([r, 2 * r, 2 * r, r])
    assert probe.at_reference_speed(1.5, 3.5) == pytest.approx(1.0)  # half speed throughout
    assert probe.at_reference_speed(1.5, 4.5) == pytest.approx(3.0 * (0.5 + 0.5 + 1.0) / 3)
    assert probe.at_reference_speed(2.1, 2.2) == pytest.approx(0.05)  # nearest probe: t=2
    assert probe.at_reference_speed(0.0, 0.5) == pytest.approx(0.5)  # nearest probe: t=1
    assert probe.at_reference_speed(4.2, 4.4) == pytest.approx(0.2)  # nearest probe: t=4


def test_speed_probe_samples_while_active_and_restores_the_handler(monkeypatch):
    monkeypatch.setattr(speed, "INTERVAL_S", 0.005)
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.cost) >= 5 and list(probe.at) == sorted(probe.at)
    assert signal.getsignal(signal.SIGALRM) == before


def test_reference_speed_keeps_a_planted_slowdown_whole():
    for kind, metrics in probe_check.planted_ratios(4.0).items():
        for name, (scaled, wall) in metrics.items():
            want = probe_check.expected(kind, name, wall)
            assert scaled == pytest.approx(want, rel=probe_check.TOLERANCE), (kind, name, wall)


def test_cold_setup_imports_szego_in_a_fresh_interpreter():
    args = run.argparse.Namespace(workload="ladder", seed=5, smoke=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    [parts] = run.cold_setups(args, 1)
    (import_start, import_end), (build_start, build_end) = parts
    assert import_start < import_end <= build_start < build_end
    assert not list(run.OUT_DIR.glob("cold-report-*"))
    probe = subprocess.run(
        [sys.executable, "-c", "import os, sys, time; print(sorted(set(sys.modules) & {'argparse', 'fractions', 'json'}))"],
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == "[]"  # nothing szego needs is loaded before its timed import


def test_compare_refuses_results_from_different_backends(tmp_path, capsys):
    base = {"environment": {"kernel_backend": "python", "workload": "roots", "trace": 0, "smoke": False},
            "metrics": {"ops_per_s": {"value": 10.0, "unit": "1/s"}}}
    new = json.loads(json.dumps(base))
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(new))
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    new["environment"]["kernel_backend"] = "compiled"
    (tmp_path / "b.json").write_text(json.dumps(new))
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 1
    assert "refusing" in capsys.readouterr().err
