"""szego benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload {suite,ladder,roots} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout of the repository; szego is imported
from ``src/`` (the package need not be installed).  The process sets up
once (import, input generation from the seed, warm-up), then runs whole
cycles of the workload's ops, one after another, for ``--seconds``.
``setup_s`` is measured apart from that: the median of 11 cold set-ups,
each in a fresh interpreter (see cold_setup.py), so that it includes the
import of every module szego pulls in.  Every output is checked between
ops, outside the timed calls.  Times are taken at a fixed reference
speed (see speed.py), and each distinct op counts with its median over
its executions (see ``Loop``); each workload has more than 100 distinct
ops, so at least ten lie beyond p90.  The same figures from raw wall
time are printed next to them and kept in the result file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
loop untraced for half the time, then the same cycles again with every
szego layer wrapped (see tracing.py), and prints the per-layer metrics
together with the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with the environment, every
metric and a replayable record of each failed op is written under
``.perfbench_out/``.  Exit status: 0 when every output check passed
(ops that raised count as failed but do not make the run incorrect), 1
when an output check failed, 2 when the benchmark cannot run.

    python3 perfbench/run.py --compare BASE.json NEW.json
    python3 perfbench/run.py --replay RESULT.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
MAX_RECORDS = 50

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_ops_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(RuntimeError):
    """The benchmark cannot run here (no sources, wrong package)."""


def require_sources() -> None:
    if not (SRC / "szego" / "__init__.py").is_file():
        raise SetupError(f"no szego sources under {SRC}")


def import_szego():
    """szego imported from src/ (and checked to come from there)."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sz = importlib.import_module("szego")
    importlib.import_module("szego.cli")
    if Path(sz.__file__).resolve().parent != (SRC / "szego").resolve():
        raise SetupError(f"imported szego from {sz.__file__}, not from {SRC}")
    return sz


def set_up(workload: str, seed: int, smoke: bool, out_path: str):
    """Import, input generation and warm-up; returns (sz, cycles)."""
    sz = import_szego()
    cycles = workloads.build(workload, sz, seed, smoke, out_path)
    warmed = set()
    for op in cycles[0]:  # the first op of each kind is its smallest input
        if op.fn not in warmed:
            warmed.add(op.fn)
            op.fn(sz, *op.inputs)
    return sz, cycles


def cold_setups(args, repeats: int) -> list[list[tuple[float, float]]]:
    """The timed intervals of ``repeats`` cold set-ups, one interpreter each."""
    report = OUT_DIR / f"cold-report-{os.getpid()}.json"
    command = [sys.executable, str(HERE / "cold_setup.py"), args.workload, str(args.seed),
               str(int(args.smoke)), str(report)]
    out = []
    for _ in range(repeats):
        proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
        report.unlink(missing_ok=True)
        if proc.returncode != 0:
            raise SetupError(f"cold set-up failed:\n{proc.stderr.strip()}")
        out.append([tuple(part) for part in json.loads(proc.stdout.splitlines()[-1])])
    return out


def wall(t0: float, t1: float) -> float:
    return t1 - t0


class Loop:
    """Outcomes of the timed ops, accumulated over loop segments.

    An op's identity is (input set, position in the cycle), and every
    input set runs several times per run.  Each execution is kept as a
    wall interval; ``typical`` turns the intervals into times with
    ``scale`` (``probe.at_reference_speed``, see speed.py, or ``wall``)
    and takes the median per identity.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.cycles = 0
        self.identities: dict[tuple, int] = {}
        # one entry per execution, in arrays so that memory stays flat
        self.identity = array("i")
        self.start = array("d")
        self.end = array("d")
        self.completed = array("b")
        self.errors: dict[tuple, dict] = {}
        self.wrong: list[dict] = []

    def record(self, key: tuple, t0: float, t1: float, completed: bool) -> None:
        self.busy_s += t1 - t0
        self.identity.append(self.identities.setdefault(key, len(self.identities)))
        self.start.append(t0)
        self.end.append(t1)
        self.completed.append(completed)

    def typical(self, scale) -> tuple[dict, dict]:
        """Median scaled time per identity: (all executions, completed ones)."""
        every: dict[int, list] = {}
        done: dict[int, list] = {}
        for i, t0, t1, completed in zip(self.identity, self.start, self.end, self.completed):
            t = scale(t0, t1)
            every.setdefault(i, []).append(t)
            if completed:
                done.setdefault(i, []).append(t)
        keys = list(self.identities)
        return (
            {keys[i]: statistics.median(v) for i, v in every.items()},
            {keys[i]: statistics.median(v) for i, v in done.items()},
        )

    def ops_per_s(self, scale) -> float:
        """Completed distinct ops per second of their typical scaled times."""
        every, done = self.typical(scale)
        return len(done) / sum(every.values())


def run_loop(res: Loop, sz, cycles, seconds: float, tracer=None, max_cycles=None) -> None:
    """Whole cycles until ``seconds`` have passed (or ``max_cycles`` ran).

    Only the op calls are timed.  Checks run between ops, with the tracer
    paused.  The input set rotates with ``res.cycles``, across calls.  An
    op with ``repeats`` > 1 runs that many times in a row, each execution
    timed and checked on its own.
    """
    clock = time.perf_counter
    start = clock()
    ran = 0
    while True:
        index = res.cycles % len(cycles)
        for pos, op in enumerate(cycles[index]):
            key = (index, pos)
            for _ in range(op.repeats):
                if tracer is not None:
                    tracer.op = res.attempted
                res.attempted += 1
                t0 = clock()
                try:
                    out = op.fn(sz, *op.inputs)
                except Exception as exc:  # an op that raises is a failed op
                    res.record(key, t0, clock(), False)
                    res.failed += 1
                    record = res.errors.get(key)
                    if record is None:
                        record = workloads.failure_record(op, exc)
                        frame = traceback.extract_tb(exc.__traceback__)[-1]
                        record["where"] = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
                        record["count"] = 0
                        res.errors[key] = record
                    record["count"] += 1
                    continue
                res.record(key, t0, clock(), True)
                if tracer is not None:
                    tracer.paused = True
                try:
                    problem = op.check(sz, out, op)
                except Exception as exc:  # a check that cannot read the output
                    problem = f"check raised {type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.paused = False
                if problem:
                    res.failed += 1
                    if len(res.wrong) < MAX_RECORDS:
                        res.wrong.append(
                            {
                                "op": op.fn.__name__,
                                "degree": op.degree,
                                "problem": problem,
                                "inputs": workloads.encode(op.inputs),
                            }
                        )
        res.cycles += 1
        ran += 1
        if max_cycles is not None:
            if ran >= max_cycles:
                return
        elif clock() - start >= seconds:
            return


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(sz, args, loop: Loop) -> dict:
    return {
        "kernel_backend": sz.kernel_backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "ops": loop.attempted,
        "cycles": loop.cycles,
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[-1]


def end_to_end_metrics(loop: Loop, scale, setup_s: float, rss_mb: float) -> dict:
    every, done = loop.typical(scale)
    lat = sorted(t * 1000.0 for t in done.values())
    return {
        "ops_per_s": len(done) / sum(every.values()),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": p90(lat),
        "ok_ops_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def median_ms_by_op(done: dict, cycles: list) -> dict:
    """Median typical time per op kind and degree, over the input sets."""
    groups: dict[str, list] = {}
    for (index, pos), t in done.items():
        op = cycles[index][pos]
        groups.setdefault(f"{op.fn.__name__}@{op.degree}", []).append(t * 1000.0)
    return {k: statistics.median(v) for k, v in sorted(groups.items())}


def benchmark(args) -> int:
    require_sources()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = str(OUT_DIR / f"suite-report-{os.getpid()}.json")
    wall_metrics: dict = {}
    with speed.SpeedProbe() as probe:
        sz, cycles = set_up(args.workload, args.seed, args.smoke, report_path)
        if args.trace:
            untraced = Loop()
            run_loop(untraced, sz, cycles, args.seconds / 2)
            loop = Loop()
            tracer = tracing.Tracer()
            tracer.install(sz)
            try:
                run_loop(loop, sz, cycles, 0, tracer, max_cycles=untraced.cycles)
            finally:
                tracer.uninstall()
        else:
            setups = cold_setups(args, 1 if args.smoke else SETUP_REPEATS)
            loop = Loop()
            run_loop(loop, sz, cycles, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "suite":
            problem = workloads.golden_problem(sz, report_path)
            if problem:
                loop.wrong.append({"op": "golden", "problem": problem})
            os.remove(report_path)

    scale = probe.at_reference_speed
    if args.trace:
        traced_ops_per_s = loop.ops_per_s(scale)
        metrics = tracer.metrics(untraced.ops_per_s(scale) / traced_ops_per_s, loop.busy_s)
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        spans_path = OUT_DIR / f"spans-{tag}.tsv"
        tracer.write_spans(spans_path)
        extra = {
            "untraced_ops_per_s": untraced.ops_per_s(scale),
            "traced_ops_per_s": traced_ops_per_s,
            "wall_untraced_ops_per_s": untraced.ops_per_s(wall),
            "wall_traced_ops_per_s": loop.ops_per_s(wall),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_kept": len(tracer.spans),
        }
        attempted = untraced.attempted + loop.attempted
        failed = untraced.failed + loop.failed
        errors = {**untraced.errors, **loop.errors}
        wrong = untraced.wrong + loop.wrong
    else:
        setup_s = [sum(scale(*part) for part in parts) for parts in setups]
        wall_setup_s = [sum(wall(*part) for part in parts) for parts in setups]
        metrics = end_to_end_metrics(loop, scale, statistics.median(setup_s), rss_mb)
        wall_metrics = end_to_end_metrics(loop, wall, statistics.median(wall_setup_s), rss_mb)
        units = dict(END_TO_END)
        extra = {
            "wall_metrics": {k: {"value": v, "unit": units[k]} for k, v in wall_metrics.items()},
            "setup_s_samples": setup_s,
            "wall_setup_s_samples": wall_setup_s,
        }
        attempted, failed = loop.attempted, loop.failed
        errors, wrong = loop.errors, loop.wrong

    env = environment(sz, args, loop)
    every, done = loop.typical(scale)
    lat = sorted(t * 1000.0 for t in done.values())
    beyond = sum(1 for t in lat if t > p90(lat))
    result = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "distinct_ops": len(every),
        "latency_samples": len(lat),
        "latency_samples_beyond_p90": beyond,
        "probe": {"samples": len(probe.cost), "median_s": statistics.median(probe.cost)},
        "median_ms_by_op": median_ms_by_op(done, cycles),
        "failures": list(errors.values())[:MAX_RECORDS],
        "wrong_outputs": wrong,
        **extra,
    }
    result_path = OUT_DIR / f"result-{tag}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"attempted={attempted} failed={failed} failed_ops_ratio={failed / attempted:.6f} "
        f"distinct_ops={len(every)} latency_samples={len(lat)} beyond_p90={beyond}"
    )
    failed_kinds: dict[tuple, int] = {}
    for record in errors.values():
        kind = (record["op"], record["degree"], record["error"])
        failed_kinds[kind] = failed_kinds.get(kind, 0) + record["count"]
    for (op_name, degree, error), count in failed_kinds.items():
        print(f"failed op: {op_name} degree {degree}: {error} x{count}")
    for record in wrong:
        print(f"WRONG OUTPUT: {record}")
    for name, value in metrics.items():
        line = f"{name} {value} {units[name]}"
        if wall_metrics.get(name, value) != value:
            line += f"  (wall clock: {wall_metrics[name]} {units[name]})"
        print(line)
    print(f"result file {result_path.relative_to(ROOT)}")
    correct = not wrong
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


def compare(base_path: str, new_path: str) -> int:
    """Metric-by-metric ratio of two result files; refuses mismatched runs."""
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    for key in ("kernel_backend", "workload", "trace", "smoke"):
        if base["environment"][key] != new["environment"][key]:
            print(
                f"refusing to compare: {key} is {base['environment'][key]!r} "
                f"in {base_path} but {new['environment'][key]!r} in {new_path}",
                file=sys.stderr,
            )
            return 1
    for name, entry in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            continue
        a, b = entry["value"], other["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        print(f"{name} {a} -> {b} {entry['unit']} (new/base {ratio})")
    return 0


def replay(result_path: str) -> int:
    """Re-run every failed-op record of a result file."""
    sz = import_szego()
    records = json.loads(Path(result_path).read_text(encoding="utf-8"))["failures"]
    for record in records:
        label = f"{record['op']} degree {record['degree']}"
        try:
            workloads.replay(record, sz)
        except Exception as exc:  # report, then go on with the next record
            print(f"{label}: {type(exc).__name__}: {exc} (recorded {record['error']})")
        else:
            print(f"{label}: no longer fails (recorded {record['error']})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["suite", "ladder", "roots"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one small input set and a single set-up")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--replay", metavar="RESULT")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.replay:
            return replay(args.replay)
        if args.workload is None:
            parser.error("--workload is required")
        if not args.seconds > 0:
            parser.error("--seconds must be positive")
        return benchmark(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
