"""One cold set-up of a workload, in a fresh interpreter.

    python3 perfbench/cold_setup.py WORKLOAD SEED SMOKE REPORT

run.py starts this several times and reports the median as ``setup_s``.
Only ``os``, ``sys`` and ``time`` are imported before the clock starts,
so the set-up pays for the import of szego and of every module szego
pulls in.  The benchmark's own modules are imported after szego, and
that import is left out.  The last stdout line is a JSON list of the
timed parts as ``time.perf_counter`` intervals (a clock shared by all
processes on Linux), so that run.py can take them at the reference
speed.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import szego.cli  # noqa: E402,F401  (the cold import is the first timed part)

t1 = time.perf_counter()
import json  # noqa: E402

import run  # noqa: E402

t2 = time.perf_counter()
workload, seed, smoke, report = sys.argv[1:5]
run.set_up(workload, int(seed), smoke == "1", report)
print(json.dumps([[t0, t1], [t2, time.perf_counter()]]))
