"""Outside-in tracing of the szego layers for the benchmark's traced run.

A layer is one public function or method of one szego module.  The
tracer edits nothing inside szego: it replaces each layer, at every
module attribute that binds it, with a wrapper that records a span.
Bindings are found by identity, so ``from .poly import interpolate`` in
``ssc`` and ``decompose``, the re-exports in the package namespace and
the defining module are all rebound.  Methods are rebound on their
class (``Poly.__init__``, ``Poly.__mul__``, ...), and the root kernel
at ``szego.roots._kernel.solve``.  ``install`` checks afterwards that
every binding resolves to its wrapper and that no szego module still
holds an unwrapped original.

Spans (layer, start, end, parent span, op id) are kept in memory, up to
``SPAN_CAP`` of them, and written out by ``write_spans`` when the run
ends.  Per-layer call counts and self times are accumulated for every
span, kept or not.  A layer's self time is its span time minus the time
its child spans cover; the tracer's own bookkeeping after a child call
is charged to neither.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable

# (layer name, module path under the package, attribute path)
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("exact.parse_rational", "exact", "parse_rational"),
    ("exact.format_rational", "exact", "format_rational"),
    ("exact.binomial", "exact", "binomial"),
    ("exact.falling_factorial_coeffs", "exact", "falling_factorial_coeffs"),
    ("poly.construct", "poly", "Poly.__init__"),
    ("poly.add", "poly", "Poly.__add__"),
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.divmod", "poly", "Poly.__divmod__"),
    ("poly.eval", "poly", "Poly.__call__"),
    ("poly.derivative", "poly", "Poly.derivative"),
    ("poly.monic", "poly", "Poly.monic"),
    ("poly.gamma", "poly", "ExpPoly.gamma"),
    ("poly.poly_gcd", "poly", "poly_gcd"),
    ("poly.interpolate", "poly", "interpolate"),
    ("poly.falling_factorial_poly", "poly", "falling_factorial_poly"),
    ("poly.falling_factorial_transform", "poly", "falling_factorial_transform"),
    (
        "poly.inverse_falling_factorial_transform",
        "poly",
        "inverse_falling_factorial_transform",
    ),
    ("ssc.compose", "ssc", "compose"),
    ("ssc.exp_compose", "ssc", "exp_compose"),
    ("ssc.composition_factor", "ssc", "composition_factor"),
    ("ssc.derivative_identities_hold", "ssc", "derivative_identities_hold"),
    ("roots.kernel", "roots._kernel", "solve"),
    ("roots.aberth_roots", "roots", "aberth_roots"),
    ("roots.cluster_roots", "roots", "cluster_roots"),
    ("roots.sturm_count", "roots", "sturm_count"),
    ("roots.square_free_decomposition", "roots", "square_free_decomposition"),
    ("roots.is_hyperbolic", "roots", "is_hyperbolic"),
    ("roots.sign_changes", "roots", "sign_changes"),
    ("roots.taylor_window_bound", "roots", "taylor_window_bound"),
    ("roots.hurwitz_determinants", "roots", "hurwitz_determinants"),
    ("roots.region_membership", "roots", "region_membership"),
    ("decompose.padded_core", "decompose", "padded_core"),
    ("decompose.decompose_poly", "decompose", "decompose_poly"),
    ("decompose.decompose_exp", "decompose", "decompose_exp"),
    ("decompose.recompose", "decompose", "recompose"),
    ("decompose.decomposition_map", "decompose", "decomposition_map"),
    ("verify.run_suite", "verify", "run_suite"),
    ("cli.main", "cli", "main"),
)

# per-layer metrics beyond <layer>.calls and <layer>.self_s:
# (name, unit, better)
EXTRA_METRICS: tuple[tuple[str, str, str], ...] = (
    ("poly.max_coeff_bits", "bits", "lower"),
    ("roots.kernel.iterations", "count", "lower"),
    ("roots.kernel.converged_ratio", "ratio", "higher"),
    ("roots.kernel.max_residual", "ratio", "lower"),
    ("roots.kernel.errors", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

SPAN_CAP = 100_000
_NO_RESULT = object()


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run emits, as (name, unit, better)."""
    out = []
    for name, _, _ in LAYERS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + list(EXTRA_METRICS)


def _resolve(package, module_path: str):
    obj = package
    for part in module_path.split("."):
        obj = getattr(obj, part)
    return obj


def _coeff_bits(poly) -> int:
    if not poly.is_exact:
        return 0
    best = 0
    for c in poly.coeffs:
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    """Span recorder and per-layer accumulator; see the module docstring."""

    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.spans: list[tuple] = []
        self.span_count = 0
        self.top_level_s = 0.0
        self.op = -1
        self.paused = False
        self.max_coeff_bits = 0
        self.kernel_iterations = 0
        self.kernel_returns = 0
        self.kernel_converged = 0
        self.kernel_max_residual = 0.0
        self.kernel_errors = 0
        self._stack: list[list] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._poly_type = None
        self._exp_type = None

    # -- result inspection, run after the span has ended ---------------------

    def _after_result(self, out) -> None:
        if out is _NO_RESULT or out is None:
            return
        items = out if isinstance(out, (tuple, list)) else (out,)
        for item in items:
            for x in item if isinstance(item, tuple) else (item,):
                if isinstance(x, self._exp_type):
                    x = x.poly
                if isinstance(x, self._poly_type):
                    bits = _coeff_bits(x)
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits

    def _after_kernel(self, out) -> None:
        if out is _NO_RESULT:
            self.kernel_errors += 1
            return
        _, residuals, iterations, converged = out
        self.kernel_returns += 1
        self.kernel_iterations += iterations
        self.kernel_converged += bool(converged)
        if residuals:
            self.kernel_max_residual = max(self.kernel_max_residual, max(residuals))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, idx: int, fn: Callable, after: Callable) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            t0 = clock()
            sid = tracer.span_count
            tracer.span_count = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            out = _NO_RESULT
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                tracer.calls[idx] += 1
                tracer.self_s[idx] += (t1 - t0) - frame[0]
                if sid < SPAN_CAP:
                    tracer.spans.append((sid, idx, t0, t1, parent, tracer.op))
                after(out)
                if stack:
                    stack[-1][0] += clock() - t0
                else:
                    tracer.top_level_s += t1 - t0

        return wrapper

    def install(self, package) -> None:
        """Wrap every layer at every binding, then verify the bindings."""
        self._poly_type = package.poly.Poly
        self._exp_type = package.poly.ExpPoly
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        originals = []
        for idx, (name, module_path, attr) in enumerate(LAYERS):
            owner = _resolve(package, module_path)
            after = self._after_kernel if name == "roots.kernel" else self._after_result
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._bind(cls, meth, original, self._wrap(idx, original, after))
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(idx, original, after)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._bind(m, key, original, wrapper)
            originals.append(original)
        self._self_check(modules, originals)

    def _bind(self, target, key: str, original, wrapper) -> None:
        setattr(target, key, wrapper)
        self._bindings.append((target, key, original))

    def _self_check(self, modules, originals) -> None:
        for target, key, original in self._bindings:
            if getattr(vars(target)[key], "__wrapped__", None) is not original:
                raise RuntimeError(f"{key} on {target!r} does not resolve to its wrapper")
        unwrapped = {id(o) for o in originals}
        for m in modules:
            for key, value in vars(m).items():
                if id(value) in unwrapped:
                    raise RuntimeError(f"{m.__name__}.{key} still binds an unwrapped layer")
        bound = {id(o) for _, _, o in self._bindings}
        missing = [LAYERS[i][0] for i, o in enumerate(originals) if id(o) not in bound]
        if missing:
            raise RuntimeError(f"layers without a binding: {missing}")

    def uninstall(self) -> None:
        for target, key, original in reversed(self._bindings):
            setattr(target, key, original)
        self._bindings.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ratio: float, busy_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for idx, (name, _, _) in enumerate(LAYERS):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
        out["poly.max_coeff_bits"] = self.max_coeff_bits
        out["roots.kernel.iterations"] = self.kernel_iterations
        out["roots.kernel.converged_ratio"] = (
            self.kernel_converged / self.kernel_returns if self.kernel_returns else 0.0
        )
        out["roots.kernel.max_residual"] = self.kernel_max_residual
        out["roots.kernel.errors"] = self.kernel_errors
        out["trace.coverage"] = self.top_level_s / busy_s if busy_s > 0 else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.spans"] = self.span_count
        return out

    def write_spans(self, path) -> None:
        """Tab-separated spans, times in seconds from the first span's start."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tlayer\tstart_s\tend_s\tparent\top\n")
            for sid, idx, t0, t1, parent, op in self.spans:
                fh.write(
                    f"{sid}\t{LAYERS[idx][0]}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t{parent}\t{op}\n"
                )
