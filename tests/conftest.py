"""Shared test set-up.

``pythonpath = ["src"]`` in pyproject.toml lets this process import
szego from an uninstalled checkout; the tests that start
``python -m szego.cli`` in a subprocess need the same path in the
environment they pass on.

Every test runs under a time limit, so a defect that makes exact
arithmetic blow up (a wrong remainder step never reduces its
coefficients) fails that test instead of hanging the run.  The slowest
test takes about 2 s.
"""

import os
import signal
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail the test once it has run TIME_LIMIT_S seconds of wall time.

    ``pytest.fail`` raises a BaseException, so no ``except Exception`` in
    the code under test can swallow it.  Python runs the handler between
    bytecodes, so one long C-level call (a gcd of huge integers) still
    finishes first.  Without ``signal.setitimer`` (Windows) tests run
    unlimited.
    """
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
