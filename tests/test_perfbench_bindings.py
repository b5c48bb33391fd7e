"""The benchmark's names for szego still resolve.

perfbench reaches szego by name: ``tracing.LAYERS`` lists the functions
and methods its traced run wraps, and ``workloads.py`` and ``run.py``
call ``sz.<name>`` chains on the imported package.  A rename or a
deletion in szego breaks the benchmark without breaking any other test,
so these checks read the benchmark's own files.
"""

import importlib.util
import re
from pathlib import Path

import szego
import szego.cli  # the benchmark imports the command line too

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MISSING = object()


def _lookup(obj, dotted: str):
    """The object at the attribute chain dotted under obj, or _MISSING."""
    for part in dotted.split("."):
        obj = getattr(obj, part, _MISSING)
        if obj is _MISSING:
            break
    return obj


def test_every_traced_layer_resolves():
    missing = []
    for name, module_path, attr in _load("tracing").LAYERS:
        owner = _lookup(szego, module_path)
        if "." in attr:
            # the tracer rebinds a method on the class that defines it
            cls_name, meth = attr.split(".")
            cls = _lookup(owner, cls_name)
            found = cls is not _MISSING and meth in vars(cls)
        else:
            found = callable(_lookup(owner, attr))
        if not found:
            missing.append(name)
    assert missing == []


def test_every_sz_chain_in_the_benchmark_resolves():
    chains = set()
    for name in ("workloads.py", "run.py"):
        text = (PERFBENCH / name).read_text(encoding="utf-8")
        chains |= set(re.findall(r"\bsz\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text))
    assert chains  # the pattern still finds the benchmark's calls
    assert sorted(c for c in chains if _lookup(szego, c) is _MISSING) == []
