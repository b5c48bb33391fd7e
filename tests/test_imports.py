"""Every import in the package source is used, and importing the
package loads only what every command needs.

The first check is a stand-in for pyflakes' unused-import warning,
written with ``ast`` so it needs nothing beyond the standard library.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "szego").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names that import statements bind and the module never reads.

    Names listed in ``__all__`` (re-exports) and ``__future__`` imports
    are exempt.
    """
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read and name not in exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_planted_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom fractions import Fraction as F\n"
        "from .poly import Poly\n__all__ = ['Poly']\n"
        "def f():\n    from .roots import _det\n    return os.path.sep\n"
    )
    assert _unused_imports(source) == ["math", "F", "_det"]


def test_importing_the_cli_loads_no_pool_platform_or_csv():
    # -S: no site hooks, so only szego's own imports are seen
    probe = (
        "import sys, szego.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing', 'platform', 'csv'}"
        " & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_importing_the_cli_loads_no_dataclasses_or_suites():
    # the suites (and datetime) load on first use, through szego's
    # module __getattr__; the record types need no dataclasses
    probe = (
        "import sys, szego.cli; "
        "print(sorted({'dataclasses', 'inspect', 'szego.verify', 'datetime'} & set(sys.modules))); "
        "import szego; "
        "print([callable(obj) for obj in "
        "(szego.run_suite, szego.CheckReport, szego.available_checks, szego.verify.run_suite)])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "[True, True, True, True]"]


def test_the_package_exports_exactly_the_modules_public_names():
    import szego
    from szego import decompose, exact, poly, roots, ssc

    modules = (decompose, exact, poly, roots, ssc)
    public = set(szego._FROM_VERIFY).union(*(m.__all__ for m in modules))
    assert set(szego.__all__) == public
    # every name resolves, to the object its module defines
    for module in modules:
        assert all(getattr(szego, name) is getattr(module, name) for name in module.__all__)
    assert all(callable(getattr(szego, name)) for name in szego._FROM_VERIFY)
