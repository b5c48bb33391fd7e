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

import faulthandler
import os
import signal
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

TIME_LIMIT_S = 120

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest's output capture is suspended while plugins configure, so fd 2
    # is still the run's own stderr here; a test's captured stderr is a
    # temporary file that nobody prints once the process is ended
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _time_limit(pytestconfig):
    """Fail the test once it has run TIME_LIMIT_S seconds of wall time,
    and end the whole run after twice that.

    ``pytest.fail`` raises a BaseException, so no ``except Exception`` in
    the code under test can swallow it.  Python runs the handler between
    bytecodes, so one long C-level call (a gcd of huge integers) still
    finishes first.  For that case faulthandler's watchdog thread, which
    needs no bytecode to run, writes every thread's traceback to the
    run's stderr at 2 * TIME_LIMIT_S and exits the process with status 1.
    Without ``signal.setitimer`` (Windows) only that hard stop applies.
    """
    faulthandler.dump_traceback_later(
        2 * TIME_LIMIT_S, exit=True, file=pytestconfig.stash[_STDERR_FD]
    )
    soft = hasattr(signal, "setitimer")
    if soft:

        def expire(signum, frame):
            pytest.fail(f"test ran longer than {TIME_LIMIT_S} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        if soft:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
