"""The names the benchmark's tracer reads from gsolve still exist.

``perfbench/spans.py`` skips a wrapped function it cannot find, so a renamed
or deleted name would turn its per-layer metric into a silent 0.  The module
is loaded from its file, as the benchmark runs it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import SuperLU

import gsolve.engine
import gsolve.matrices
from gsolve import IterationConfig, build_step, extract_splitting
from gsolve.pde import LAYOUT_BENCH, assemble
from gsolve.solvers import PermutedLU, TridiagonalLDLT

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_resolves(spans):
    for module_name, names in spans.WRAPPED.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert missing == [], f"{module_name} lacks {missing}"


def test_every_predicate_resolves(spans):
    missing = [name for name in spans.PREDICATES
               if not callable(getattr(gsolve.matrices, name, None))]
    assert missing == []


@pytest.mark.parametrize("method, m, omega, factor", [
    ("gj", 1, None, TridiagonalLDLT),
    ("gsor", 1, 1.5, PermutedLU),
    ("gsor", 0, 1.5, SuperLU),
])
def test_step_operators_expose_what_the_tracer_reads(spans, method, m, omega, factor):
    A = assemble(6, "zero", layout=LAYOUT_BENCH).A
    op = build_step(extract_splitting(A, m), method, omega)
    assert isinstance(op.lu, factor)
    costs = spans._step_costs(op, np.random.default_rng(0))
    assert set(costs) == {"matvec_us", "msolve_us", "norm_us"}
    assert op.n == op.n_part.shape[0] == A.n
    assert op.solve_m(np.ones(op.n)).shape == (op.n,)
    assert int(op.lu.L.nnz + op.lu.U.nnz) >= A.n


@pytest.mark.parametrize("method", ["gj", "ggs"])
def test_tracer_sees_the_radius_predict_takes(spans, method):
    A = assemble(15, "zero", layout=LAYOUT_BENCH).A  # order 210: the ARPACK path
    tracer = spans.Tracer()
    modules = {name: importlib.import_module(name) for name in spans.WRAPPED}
    with spans.patched(modules, tracer.wrap):
        gsolve.engine.predict(A, IterationConfig(method, 1))
    power = [s for s in tracer.spans if s.name == "engine.spectral_radius_power"]
    assert len(power) == 1
    assert power[0].attrs["steps"] > 0
