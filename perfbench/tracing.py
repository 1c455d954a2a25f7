"""Outside-in span tracing of wallscale's public functions.

Inside a ``with tracer.patched():`` block every traced function is replaced,
wherever the package binds it, by a wrapper that records a span: its name,
start, end, parent span and operation id.  Callers that bound a name with
``from .quad import integrate_finite`` hold their own reference, so the
tracer patches each such binding in every loaded ``wallscale`` module, not
only the defining one.  Leaving the block restores the originals, so
untraced operations run unwrapped code.

Spans are kept in flat arrays in memory and written out after the run.  Only
the traced run counts integrand calls: the counting wrapper costs tens of
percent on the sweep.
"""

from __future__ import annotations

import csv
import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from wallscale import kernels, lab, magnetostatics, minimize, quad, walls
from wallscale.magnetostatics import KernelCache
from wallscale.minimize import DiscreteReducedEnergy

_QUAD_SPANS = ("quad.finite", "quad.semi_inf")


def _quad_hook(tracer, span, fn, args, kwargs):
    """Count integrand calls and subdivisions at the outermost quadrature.

    integrate_semi_infinite calls integrate_finite for its head; that nested
    call keeps its span but its work is already counted by the outer one.
    """
    if tracer.in_quad:
        return fn(*args, **kwargs)
    if "f" in kwargs:
        f, rest = kwargs.pop("f"), args
    else:
        f, rest = args[0], args[1:]
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return f(t)

    tracer.in_quad = True
    try:
        result = fn(counted, *rest, **kwargs)
    finally:
        tracer.in_quad = False
        tracer.attrs(span)["integrand_calls"] = calls
    tracer.attrs(span)["subdivisions"] = result.subdivisions_used
    return result


def _e_s_hook(tracer, span, fn, args, kwargs):
    """Mark the call cold when it starts on a fresh kernel cache."""
    cache = kwargs.get("cache", args[3] if len(args) > 3 else None)
    if cache is None or len(cache) == 0:
        tracer.attrs(span)["cold"] = 1
    return fn(*args, **kwargs)


def _boundary_hook(tracer, span, fn, args, kwargs):
    resolution = kwargs.get("resolution", args[2] if len(args) > 2 else (512, 16))
    tracer.attrs(span)["n_axial"] = int(resolution[0])
    return fn(*args, **kwargs)


def _ansatz_hook(tracer, span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.attrs(span)["evaluations"] = result.evaluations
    return result


def _report_hook(tracer, span, fn, args, kwargs):
    path = fn(*args, **kwargs)
    tracer.attrs(span)["bytes"] = Path(path).stat().st_size
    return path


# (owner, attribute, span name, hook); module-level functions are patched in
# every wallscale module that binds the same object.
TRACED = (
    (quad, "integrate_finite", "quad.finite", _quad_hook),
    (quad, "integrate_semi_infinite", "quad.semi_inf", _quad_hook),
    (kernels, "i_kernel", "kernels.i_kernel", None),
    (KernelCache, "value", "magnetostatics.kernel_cache", None),
    (magnetostatics, "spectrum", "magnetostatics.spectrum", None),
    (magnetostatics, "e_s_spectral", "magnetostatics.e_s_spectral", _e_s_hook),
    (magnetostatics, "full_energy", "magnetostatics.full_energy", None),
    (magnetostatics, "e_v_upper_bound", "magnetostatics.e_v_upper_bound", None),
    (magnetostatics, "e_v_spectral", "magnetostatics.e_v_spectral", None),
    (magnetostatics, "richardson_boundary_oracle", "magnetostatics.richardson", None),
    (magnetostatics, "e_s_boundary_oracle", "magnetostatics.boundary_oracle", _boundary_hook),
    (magnetostatics, "e_v_volume_oracle", "magnetostatics.volume_oracle", None),
    (magnetostatics, "emag_lipschitz_check", "magnetostatics.lipschitz", None),
    (walls, "sample_wall", "walls.sample_wall", None),
    (minimize, "minimize_reduced", "minimize.reduced", None),
    (DiscreteReducedEnergy, "energy", "minimize.energy", None),
    (DiscreteReducedEnergy, "energy_grad", "minimize.energy_grad", None),
    (minimize, "minimize_full_ansatz", "minimize.ansatz", _ansatz_hook),
    (lab, "rate_sweep", "lab.rate_sweep", None),
    (lab, "emit_report", "lab.emit_report", _report_hook),
)


class Tracer:
    """Span recorder.  One instance per traced run; not thread-safe."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.span_attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self.current_op = -1
        self.in_quad = False

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def attrs(self, idx: int) -> dict:
        return self.span_attrs.setdefault(idx, {})

    def _wrap(self, name: str, fn, hook):
        tracer = self
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            span = tracer.open(name_id)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, span, fn, args, kwargs)
            except BaseException as exc:
                tracer.attrs(span)["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)

        return functools.wraps(fn)(traced)

    @contextmanager
    def patched(self):
        """Replace every traced function by its span wrapper for the block."""
        saved = []
        modules = [m for n, m in sys.modules.items() if n == "wallscale" or n.startswith("wallscale.")]
        try:
            for owner, attr, name, hook in TRACED:
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, hook)
                owners = [owner] if isinstance(owner, type) else [
                    m for m in modules if m.__dict__.get(attr) is original
                ]
                for target in owners:
                    saved.append((target, attr, original))
                    setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def self_times(self) -> list[float]:
        """Span duration minus the time its (sequential) children cover."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= self.end[idx] - self.start[idx]
        return out

    def write(self, path: Path) -> None:
        """Write every span as one gzip'd CSV row."""
        selfs = self.self_times()
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "op", "name", "start", "end", "self_s", "attrs"])
            for idx in range(len(self)):
                a = self.span_attrs.get(idx)
                w.writerow([
                    idx, self.parent[idx], self.op[idx], self.name_of(idx),
                    repr(self.start[idx]), repr(self.end[idx]), repr(selfs[idx]),
                    json.dumps(a, sort_keys=True) if a else "",
                ])


def layer_metrics(tracer: Tracer, op_seconds: list[float]) -> dict[str, float]:
    """Per-layer metrics: per-operation means over the traced operations,
    except the run-level emit_report figures.  Inclusive times end in ``.s``,
    exclusive ones in ``.self_s``."""
    n = len(tracer)
    names = [tracer.name_of(i) for i in range(n)]
    selfs = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    excl: dict[str, float] = defaultdict(float)
    in_kernel = [False] * n
    integrand = integrand_in_kernel = subdivisions = quad_errors = 0
    misses = evaluations = 0
    level_s: dict[int, float] = defaultdict(float)
    cold_s = warm_s = 0.0
    report_s = report_bytes = 0.0
    top_s = 0.0
    for i in range(n):
        name, par = names[i], tracer.parent[i]
        dur = tracer.end[i] - tracer.start[i]
        calls[name] += 1
        incl[name] += dur
        excl[name] += selfs[i]
        in_kernel[i] = name == "kernels.i_kernel" or (par >= 0 and in_kernel[par])
        a = tracer.span_attrs.get(i, {})
        if par < 0 and tracer.op[i] >= 0:
            top_s += dur
        if name in _QUAD_SPANS:
            k = a.get("integrand_calls", 0)
            integrand += k
            integrand_in_kernel += k if in_kernel[i] else 0
            subdivisions += a.get("subdivisions", 0)
            outer = par < 0 or names[par] not in _QUAD_SPANS
            quad_errors += 1 if outer and "error" in a else 0
        elif name == "kernels.i_kernel" and par >= 0 and names[par] == "magnetostatics.kernel_cache":
            misses += 1
        elif name == "magnetostatics.e_s_spectral":
            if a.get("cold"):
                cold_s += dur
            else:
                warm_s += dur
        elif name == "magnetostatics.boundary_oracle":
            level_s[a.get("n_axial", 0)] += dur
        elif name == "minimize.ansatz":
            evaluations += a.get("evaluations", 0)
        elif name == "lab.emit_report":
            report_s += dur
            report_bytes += a.get("bytes", 0)

    per = 1.0 / len(op_seconds)
    lookups = calls["magnetostatics.kernel_cache"]
    kernel_calls = calls["kernels.i_kernel"]
    iterations = calls["minimize.energy_grad"] - calls["minimize.reduced"]
    op_total = sum(op_seconds)
    return {
        "quad.finite.calls": calls["quad.finite"] * per,
        "quad.finite.self_s": excl["quad.finite"] * per,
        "quad.semi_inf.calls": calls["quad.semi_inf"] * per,
        "quad.semi_inf.self_s": excl["quad.semi_inf"] * per,
        "quad.integrand_calls": integrand * per,
        "quad.subdivisions": subdivisions * per,
        "quad.errors": quad_errors * per,
        "kernels.i_kernel.calls": kernel_calls * per,
        "kernels.i_kernel.s": incl["kernels.i_kernel"] * per,
        "kernels.i_kernel.self_s": excl["kernels.i_kernel"] * per,
        "kernels.integrand_per_eval": integrand_in_kernel / kernel_calls if kernel_calls else 0.0,
        "magnetostatics.kernel_cache.lookups": lookups * per,
        "magnetostatics.kernel_cache.misses": misses * per,
        "magnetostatics.kernel_cache.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "magnetostatics.e_s_spectral.calls": calls["magnetostatics.e_s_spectral"] * per,
        "magnetostatics.e_s_spectral.s_cold": cold_s * per,
        "magnetostatics.e_s_spectral.s_warm": warm_s * per,
        "magnetostatics.spectrum.s": incl["magnetostatics.spectrum"] * per,
        "magnetostatics.full_energy.self_s": excl["magnetostatics.full_energy"] * per,
        "magnetostatics.e_v_upper_bound.s": incl["magnetostatics.e_v_upper_bound"] * per,
        "magnetostatics.e_v_spectral.s": incl["magnetostatics.e_v_spectral"] * per,
        "magnetostatics.richardson.s": incl["magnetostatics.richardson"] * per,
        "magnetostatics.boundary_oracle.calls": calls["magnetostatics.boundary_oracle"] * per,
        "magnetostatics.boundary_oracle.s": incl["magnetostatics.boundary_oracle"] * per,
        "magnetostatics.boundary_oracle.n512.s": level_s[512] * per,
        "magnetostatics.boundary_oracle.n1024.s": level_s[1024] * per,
        "magnetostatics.boundary_oracle.n2048.s": level_s[2048] * per,
        "magnetostatics.volume_oracle.s": incl["magnetostatics.volume_oracle"] * per,
        "magnetostatics.lipschitz.s": incl["magnetostatics.lipschitz"] * per,
        "walls.sample_wall.calls": calls["walls.sample_wall"] * per,
        "walls.sample_wall.s": incl["walls.sample_wall"] * per,
        "minimize.reduced.s": incl["minimize.reduced"] * per,
        "minimize.iterations": iterations * per,
        "minimize.backtracks": (calls["minimize.energy"] - iterations) * per,
        "minimize.iter_s": incl["minimize.reduced"] / iterations if iterations else 0.0,
        "minimize.ansatz.s": incl["minimize.ansatz"] * per,
        "minimize.ansatz_evals": evaluations * per,
        "lab.rate_sweep.s": incl["lab.rate_sweep"] * per,
        "lab.emit_report.s": report_s,
        "lab.report_bytes": report_bytes,
        "trace.coverage": top_s / op_total if op_total else 0.0,
    }
