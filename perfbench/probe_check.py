"""Check that times at the reference speed keep a planted slowdown whole.

    python3 perfbench/probe_check.py [--seconds S]

Three kinds of op run interleaved in one closed loop under the speed
probe (speed.py), each on the same eight degree-12 polynomials:

``base``    ``sturm_count`` of the polynomial (exact szego work)
``double``  the base op twice: twice the work
``wide``    the base op, then four reads of one byte from every cache line
            of a 32 MiB buffer: a working set eight times the L2 cache of
            the machine the benchmark was tuned on, which evicts the
            probe's data and code from L1 and L2

For each planted kind it prints the ratio to ``base`` of ``ops_per_s``
and of the median latency, taken as run.py takes them: once from times
at the reference speed and once from wall times.  The kinds run op by op
in a shuffled order, so they share the machine's speed and each follows
a ``wide`` op equally often.  ``double`` must come out at twice the base
time.  For ``wide`` the wall ratio is the true one: if the probe slowed
down with the op it runs inside, as it would if it paid for the op's
cache misses, the ratio at the reference speed would fall short of it.
The check fails when a ratio at the reference speed is off by more than
``TOLERANCE``.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction

import run
import speed
import workloads

KINDS = ("base", "double", "wide")
TOLERANCE = 0.10
WIDE_BYTES = 32 << 20
WIDE_PASSES = 4
CACHE_LINE = 64


def _inputs(sz) -> list:
    rng = random.Random(11)
    polys = []
    for _ in range(8):
        roots = [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(12)]
        polys.append(sz.Poly(workloads._from_roots(roots)))
    return polys


def planted_ratios(seconds: float) -> dict[str, dict[str, float]]:
    """{kind: {"ops_per_s": (scaled, wall), "latency_p50_ms": (scaled, wall)}} vs base."""
    sz = run.import_szego()
    polys = _inputs(sz)
    buffer = bytearray(WIDE_BYTES)

    def wide(p):
        sz.sturm_count(p)
        for _ in range(WIDE_PASSES):
            buffer[::CACHE_LINE]

    ops = {
        "base": sz.sturm_count,
        "double": lambda p: (sz.sturm_count(p), sz.sturm_count(p)),
        "wide": wide,
    }
    loops = {kind: run.Loop() for kind in KINDS}
    order = list(KINDS)
    rng = random.Random(12)
    clock = time.perf_counter
    with speed.SpeedProbe() as probe:
        end = clock() + seconds
        while clock() < end:
            for i, p in enumerate(polys):
                rng.shuffle(order)
                for kind in order:
                    t0 = clock()
                    ops[kind](p)
                    loops[kind].record((i,), t0, clock(), True)
                    loops[kind].attempted += 1
    out = {}
    for scale in (probe.at_reference_speed, run.wall):
        for kind in KINDS:
            m = run.end_to_end_metrics(loops[kind], scale, 1.0, 1.0)
            out.setdefault(kind, {}).setdefault("ops_per_s", []).append(m["ops_per_s"])
            out[kind].setdefault("latency_p50_ms", []).append(m["latency_p50_ms"])
    base = out.pop("base")
    return {
        kind: {name: (v[0] / base[name][0], v[1] / base[name][1]) for name, v in metrics.items()}
        for kind, metrics in out.items()
    }


def expected(kind: str, metric: str, wall: float) -> float:
    """The true ratio to base of a planted kind's metric."""
    if kind == "double":
        return 0.5 if metric == "ops_per_s" else 2.0
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    ok = True
    for kind, metrics in planted_ratios(args.seconds).items():
        for name, (scaled, wall) in metrics.items():
            agree = abs(scaled / expected(kind, name, wall) - 1.0) <= TOLERANCE
            ok = ok and agree
            print(f"{kind:6s} {name:14s} vs base: reference speed {scaled:.3f}  "
                  f"wall clock {wall:.3f}  {'ok' if agree else 'OFF'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
