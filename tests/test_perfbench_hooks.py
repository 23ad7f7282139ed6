"""The names the benchmark's tracer looks up in cslr, checked in the main
suite: perfbench/tracing.py resolves them by attribute when it installs, so a
rename here would otherwise surface only in the benchmark's own smoke test."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

import cslr.baselines  # noqa: F401  (the tracer rebinds names in every loaded cslr module)
import cslr.cli  # noqa: F401
from cslr import giraf
from cslr.giraf import SolverConfig
from cslr.grids import IndexBox
from cslr.lifting import LiftingSpec
from cslr.models import SamplingOp, dirac_fourier, random_diracs, random_mask

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every function the tracer may rebind, by where it is held: cslr module
    attributes, the values of dicts held by cslr modules, and numpy's."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cslr" or name.startswith("cslr.")):
            continue
        for key, val in vars(mod).items():
            if isinstance(val, types.FunctionType):
                seen[(name, key)] = val
            elif isinstance(val, dict):
                for k, v in val.items():
                    if isinstance(v, types.FunctionType):
                        seen[(name, key, k)] = v
    for owner, key in ((np.fft, "fftn"), (np.fft, "ifftn"), (np.linalg, "eigh")):
        seen[(owner.__name__, key)] = getattr(owner, key)
    return seen


def test_every_spanned_name_resolves():
    tracing = _load_tracing()
    for (module, attr), span in tracing.SPANNED.items():
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} (span {span}) does not resolve"


def test_install_then_uninstall_restores_the_originals():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert during[("cslr.giraf", "giraf_solve")] is not before[("cslr.giraf", "giraf_solve")]
        assert during[("numpy.fft", "fftn")] is not before[("numpy.fft", "fftn")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_giraf_solve_reports_both_phases():
    # layer_values reads phase_seconds["filter_update"] off the traced
    # solve's result; the trace must carry exactly the loop's two phases
    box = IndexBox((-15,), (31,))
    spec = LiftingSpec(box, IndexBox((-3,), (7,)))
    truth = dirac_fourier(random_diracs(2, seed=1, min_separation=2 / 7), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=2))
    cfg = SolverConfig(p=0.0, outer_iters=3, inner_iters=5)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation():
            giraf.giraf_solve(spec, samp, cfg, ground_truth=truth)
    finally:
        tracer.uninstall()
    solves = [s for s in tracer.spans if s.name == "giraf.solve"]
    assert len(solves) == 1
    assert set(solves[0].result.phase_seconds) == {"filter_update", "least_squares"}
    values = tracing.layer_values(tracer, 1e-4, 1)
    assert values["giraf.admm_ls.calls"] == cfg.outer_iters
    assert values["giraf.admm_ls.fft_calls"] > 0
