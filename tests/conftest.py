"""Shared test set-up.

``pythonpath = ["src"]`` in pyproject.toml lets this process import
szego from an uninstalled checkout; the tests that start
``python -m szego.cli`` in a subprocess need the same path in the
environment they pass on.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
