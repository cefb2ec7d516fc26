"""Span tracing of the gsolve layers from outside the package.

Timing wrappers are installed on the public functions at the module names
their callers look them up by (``gsolve.cli.build_step`` for the CLI,
``gsolve.engine.build_step`` for ``solve`` and ``predict``), so nothing under
``src/`` changes.  Spans stay in memory and are written out at the end; the
per-layer metrics are derived from them, and the per-step costs are measured
afterwards by calling each solve's own ``StepOperator`` repeatedly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from gsolve import matrices

#: Functions wrapped per module, under the names the callers in that module use.
WRAPPED = {
    "gsolve.cli": ("assemble", "solve", "predict", "classify", "spectral_radius",
                   "extract_splitting", "build_step", "iteration_matrix",
                   "read_matrix", "write_matrix"),
    "gsolve.engine": ("classify", "extract_splitting", "build_step", "iteration_matrix",
                      "spectral_radius"),
}
METHOD_LABELS = ("gj", "ggs", "sor", "gsor")
#: Layer spans whose inclusive seconds per pass are reported as ``<name>_s``.
TIMED = ("pde.assemble", "matrices.extract_splitting", "solvers.build_step",
         "engine.solve", "engine.predict", "solvers.iteration_matrix",
         "engine.spectral_radius_dense", "engine.spectral_radius_power",
         "matrices.classify", "mmio.write_matrix", "mmio.read_matrix")
PREDICATES = ("is_sdd", "is_z_matrix", "is_m_matrix", "is_h_matrix", "is_spd")
#: Calls per timed batch and batches per per-step measurement (median batch is kept).
BATCH, BATCHES = 10, 15


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    pass_id: int
    attrs: dict = field(default_factory=dict)  # plain values, written out
    refs: dict = field(default_factory=dict)  # live objects, kept in memory only

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.pass_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        span = Span(name, 0.0, 0.0, parent, self.pass_id)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn):
        layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer
            if fn.__name__ == "spectral_radius":
                mode = kwargs.get("mode", args[1] if len(args) > 1 else "dense")
                name = f"{layer}_{mode}"
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            _observe(fn.__name__, span, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                print(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                  "parent": span.parent, "pass": span.pass_id,
                                  **span.attrs}), file=out)


def _method_label(method, m: int) -> str:
    label = str(getattr(method, "value", method)).lower()
    return "sor" if label == "gsor" and m == 0 else label


def _observe(fn_name: str, span: Span, args, kwargs, result) -> None:
    """Keep what the per-layer metrics need from a call's arguments and result."""
    if fn_name == "solve":
        span.attrs["iterations"] = result.iterations
    elif fn_name == "build_step":
        method = kwargs.get("method", args[1] if len(args) > 1 else None)
        span.attrs["method"] = _method_label(method, args[0].m)
        span.refs["op"] = result
    elif fn_name == "spectral_radius" and span.name.endswith("_power"):
        span.attrs["steps"] = result.steps
        span.refs["op"] = args[0]
    elif fn_name == "assemble":
        span.attrs["nnz"] = result.A.nnz
    elif fn_name == "classify":
        span.refs["matrix"] = args[0]
    elif fn_name == "write_matrix":
        span.attrs["file_bytes"] = os.path.getsize(args[0])


@contextlib.contextmanager
def patched(modules: dict, make_wrapper):
    """Replace each function named in WRAPPED by ``make_wrapper(fn)``; restore on exit."""
    saved = []
    try:
        for module_name, names in WRAPPED.items():
            module = modules[module_name]
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    saved.append((module, name, fn))
                    setattr(module, name, make_wrapper(fn))
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def _per_call_seconds(call) -> float:
    """Median over BATCHES timed batches of BATCH calls, per call."""
    batches = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(BATCH):
            call()
        batches.append((time.perf_counter() - start) / BATCH)
    return statistics.median(batches)


def _step_costs(op, rng) -> dict[str, float]:
    """Microseconds of one matvec N x, one M-solve and one stopping-rule norm on ``op``."""
    x, x_next = rng.standard_normal(op.n), rng.standard_normal(op.n)
    return {
        "matvec_us": 1e6 * _per_call_seconds(lambda: op.n_part @ x),
        "msolve_us": 1e6 * _per_call_seconds(lambda: op.solve_m(x)),
        "norm_us": 1e6 * _per_call_seconds(lambda: np.linalg.norm(x_next - x)),
    }


def _weighted(costs: list[tuple[dict, int]], key: str) -> float:
    total = sum(weight for _, weight in costs)
    return sum(c[key] * weight for c, weight in costs) / total if total else 0.0


def pass_metrics(spans: list[Span], pass_id: int) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass."""
    own = [(i, s) for i, s in enumerate(spans) if s.pass_id == pass_id]
    child_seconds: dict[int, float] = defaultdict(float)
    for _, span in own:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    inclusive: dict[str, float] = defaultdict(float)
    self_seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for i, span in own:
        inclusive[span.name] += span.seconds
        self_seconds[span.name] += span.seconds - child_seconds[i]
        for key in ("iterations", "steps", "nnz", "file_bytes"):
            counts[f"{span.name}.{key}"] += span.attrs.get(key, 0)
    iterations = counts["engine.solve.iterations"]
    metrics = {f"{name}_s": inclusive[name] for name in TIMED}
    metrics.update({
        "cli.self_s": self_seconds["cli.main"],
        "engine.iterations": iterations,
        "engine.power_steps": counts["engine.spectral_radius_power.steps"],
        "pde.nnz": counts["pde.assemble.nnz"],
        "mmio.file_bytes": counts["mmio.write_matrix.file_bytes"],
        # The loop is what solve does besides splitting and factorizing.
        "engine.step_us": 1e6 * self_seconds["engine.solve"] / iterations if iterations else 0.0,
    })
    return metrics


def operator_metrics(spans: list[Span], pass_id: int, seed: int,
                     step_us: float) -> dict[str, float]:
    """Per-step costs, L+U fill and class-predicate times of the operators and
    matrices one traced pass used, measured by calling them again.

    ``step_us`` is the pass's measured time per solve step; the part of it
    that is not matvec, M-solve or norm is reported as the step overhead.
    """
    rng = np.random.default_rng(seed)
    own = [(i, s) for i, s in enumerate(spans) if s.pass_id == pass_id]
    built = {i: s for i, s in own if s.name == "solvers.build_step" and "op" in s.refs}
    label_of = {id(s.refs["op"]): s.attrs["method"] for s in built.values()}

    fill: dict[str, list[int]] = defaultdict(list)
    for span in built.values():
        lu = span.refs["op"].lu
        fill[span.attrs["method"]].append(int(lu.L.nnz + lu.U.nnz))

    # Operators that were stepped: each solve's own, weighted by its iterations,
    # and each power-iterated one, weighted by its steps.
    stepped, solve_costs, by_label = [], [], defaultdict(list)
    for i, span in own:
        if span.name == "engine.solve" and "iterations" in span.attrs:
            op = next(s.refs["op"] for s in built.values() if s.parent == i)
            weight = span.attrs["iterations"]
        elif span.name == "engine.spectral_radius_power":
            op, weight = span.refs["op"], span.attrs["steps"]
        else:
            continue
        costs = (_step_costs(op, rng), weight)
        stepped.append(costs)
        by_label[label_of.get(id(op), "")].append(costs)
        if span.name == "engine.solve":
            solve_costs.append(costs)

    metrics = {
        "solvers.matvec_us": _weighted(stepped, "matvec_us"),
        "solvers.msolve_us": _weighted(stepped, "msolve_us"),
        "engine.norm_us": _weighted(stepped, "norm_us"),
        "solvers.lu_fill": sum(sum(v) for v in fill.values()),
        "engine.step_overhead_us": step_us - sum(
            _weighted(solve_costs, key) for key in ("matvec_us", "msolve_us", "norm_us")
        ) if solve_costs else 0.0,
    }
    for label in METHOD_LABELS:
        metrics[f"solvers.msolve_us.{label}"] = _weighted(by_label[label], "msolve_us")
        metrics[f"solvers.lu_fill.{label}"] = max(fill[label], default=0)

    predicate_seconds: dict[int, dict[str, float]] = {}
    totals = dict.fromkeys(PREDICATES, 0.0)
    for _, span in own:
        if span.name != "matrices.classify":
            continue
        A = span.refs["matrix"]
        if id(A) not in predicate_seconds:
            predicate_seconds[id(A)] = {
                name: statistics.median(_timed(getattr(matrices, name), A) for _ in range(3))
                # classify decides SPD only up to the dense limit, by a dense Cholesky.
                if name != "is_spd" or A.n <= matrices.DEFAULT_DENSE_LIMIT else 0.0
                for name in PREDICATES
            }
        for name, seconds in predicate_seconds[id(A)].items():
            totals[name] += seconds
    metrics.update({f"matrices.{name}_s": seconds for name, seconds in totals.items()})
    return metrics


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
