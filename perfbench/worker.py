"""Benchmark worker: one process runs one workload.

Started by run.py, never by hand. It imports cslr from the checkout's
`src/`, draws a warm-up instance and solves it, prints a READY line (the
parent times set-up up to that line), then runs closed-loop operations for
the requested seconds and prints a RESULT line. Protocol lines start with
"PERFBENCH "; anything else on stdout is the program's own output.

Untraced runs give the end-to-end metrics. Traced runs solve every instance
twice, plainly and under the tracer, check the two outputs are
byte-identical and report per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = 3

END_TO_END_UNITS = {
    "solve_s.p50": "s",
    "time_to_tol_s.p50": "s",
    "recovery_snr_db.p50": "dB",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def emit(tag: str, payload: dict) -> None:
    print(f"PERFBENCH {tag} {json.dumps(payload)}", flush=True)


def _median(values) -> float:
    import numpy as np
    return float(np.median(values)) if len(values) else math.nan


def _blas_info() -> dict:
    """Library versions and the BLAS thread count actually in force."""
    import ctypes
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    info = {"numpy": np.__version__, "python": platform.python_version(),
            "blas": f"{deps['blas'].get('name')} {deps['blas'].get('version')}",
            "blas_threads_requested": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "blas_threads": None, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0))}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                info["blas_threads"] = int(getattr(handle, sym)())
    return info


def measure(wl, seed: int, seconds: float, min_ops: int):
    """Closed loop for `seconds`; returns the outcomes, each one's speed
    factor and the peak memory. Calibration passes are timed between the
    operations (see calibrate.py)."""
    from calibrate import WORKLOAD_KERNEL, Calibrator
    from workloads import op_rng

    outcomes, spans, rss_mb, calibrate = [], [], 0.0, None
    deadline = perf_counter() + seconds
    try:
        while len(outcomes) < min_ops or perf_counter() < deadline:
            instance = wl.draw(op_rng(wl.name, seed, len(outcomes)))
            start = perf_counter()
            outcomes.append(wl.run(instance))
            spans.append((start, start + outcomes[-1].seconds))
            if len(outcomes) == min_ops:
                # peak memory after a fixed number of operations, so that it
                # does not depend on how many the machine's speed allowed,
                # and before the calibration kernel allocates its arrays
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                calibrate = Calibrator(WORKLOAD_KERNEL[wl.name])
            if calibrate:
                calibrate.sample(outcomes[-1].seconds)
    finally:
        if calibrate:
            calibrate.close()
    speeds = [calibrate.factor_at(*span) for span in spans]
    return outcomes, speeds, rss_mb


def end_to_end(outcomes, speeds, rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics (value per name) and the extra figures printed
    with them. Each operation's times are multiplied by its speed factor."""
    import numpy as np

    raw = [o.seconds for o in outcomes]
    times = [t * f for t, f in zip(raw, speeds)]
    nmse = [v for o in outcomes for v in o.nmse if math.isfinite(v)]
    snr = [-10.0 * math.log10(max(v, 1e-300)) for v in nmse]
    to_target = [v * f for o, f in zip(outcomes, speeds) for v in o.to_target]
    cells = sum(o.cells for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    values = {
        "solve_s.p50": _median(times),
        "time_to_tol_s.p50": _median(to_target),
        "recovery_snr_db.p50": _median(snr),
        "cells_per_s": cells / sum(times),
        "peak_rss_mb": rss_mb,
    }
    extra = {"ops": len(times), "cells": cells, "fail_rate": failed / cells,
             "raw_solve_s.p50": _median(raw), "speed_factor.p50": _median(speeds),
             "speed_factor.range": [min(speeds), max(speeds)],
             "nmse_final.p50": _median(nmse),
             "target_reached_share": sum(math.isfinite(v) for v in to_target) / len(to_target)}
    # a p90 is meaningful only with at least ten samples beyond it
    if len(times) >= 100:
        extra["solve_s.p90"] = float(np.quantile(times, 0.9))
        extra["solve_s.p90_samples"] = len(times)
    return values, extra


def measure_traced(wl, seed: int, seconds: float, min_ops: int):
    """Paired plain and traced operations on the same instances."""
    from tracing import COUNT_METRICS, Tracer, layer_values
    from workloads import op_rng

    tracer = Tracer()
    before = _bindings()
    plain, traced, layers, overhead, problems = [], [], [], [], []
    deadline = perf_counter() + seconds
    while len(plain) < min_ops or perf_counter() < deadline:
        i = len(plain)
        p = wl.run(wl.draw(op_rng(wl.name, seed, i)))
        tracer.install()
        try:
            with tracer.operation():
                t = wl.run(wl.draw(op_rng(wl.name, seed, i)))
        finally:
            tracer.uninstall()
        if _bindings() != before:
            problems.append("tracer left wrappers installed")
        if t.signature != p.signature:
            problems.append(f"operation {i}: traced output differs from untraced")
        plain.append(p)
        traced.append(t)
        layers.append(layer_values(tracer, wl.target, wl.pool_threads))
        overhead.append(t.seconds / p.seconds - 1.0)
    values = {k: (layers[0][k] if k in COUNT_METRICS else _median([v[k] for v in layers]))
              for k in layers[0]}
    values["trace.overhead"] = _median(overhead)
    extra = {"ops": len(plain), "untraced_op_s.p50": _median([o.seconds for o in plain]),
             "traced_op_s.p50": _median([o.seconds for o in traced])}
    return plain + traced, values, extra, problems


def _bindings():
    """Identity of every function a cslr module or numpy's fft/eigh entry
    points refer to, to prove the tracer removed all its wrappers."""
    import numpy as np

    seen = [id(np.fft.fftn), id(np.fft.ifftn), id(np.linalg.eigh)]
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "cslr" or name.startswith("cslr.")):
            for key, val in vars(mod).items():
                if callable(val):
                    seen.append((name, key, id(val)))
                elif isinstance(val, dict):
                    seen.extend((name, key, k, id(v)) for k, v in val.items() if callable(v))
    return seen


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import numpy  # noqa: F401
    import cslr
    import workloads
    import_s = perf_counter() - t0
    if Path(cslr.__file__).resolve().parent != (src / "cslr").resolve():
        print(f"cslr imported from {cslr.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, workdir, args.smoke)
        t1 = perf_counter()
        warm = wl.run(wl.draw(workloads.op_rng(wl.name, args.seed, "warmup")))
        emit("READY", {"import_s": import_s, "warmup_s": perf_counter() - t1})
        if args.setup_only:
            return 0
        min_ops = 1 if args.smoke else MIN_OPS
        problems = list(warm.problems)
        if args.trace:
            from tracing import LAYER_UNITS as units
            outcomes, values, extra, more = measure_traced(wl, args.seed, args.seconds, min_ops)
            problems += more
        else:
            outcomes, speeds, rss_mb = measure(wl, args.seed, args.seconds, min_ops)
            values, extra = end_to_end(outcomes, speeds, rss_mb)
            units = END_TO_END_UNITS
        for o in outcomes:
            problems += o.problems
        for name, v in values.items():
            if not math.isfinite(v):
                problems.append(f"{name} is not finite")
        emit("RESULT", {
            "values": values, "units": units,
            "attempted": sum(o.cells for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "problems": problems[:20], "n_problems": len(problems),
            "info": {**extra, **_blas_info(), "pool_threads": wl.pool_threads,
                     "target_nmse": wl.target},
        })
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
