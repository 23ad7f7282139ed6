"""cslr benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from a checkout holding `src/cslr`; the benchmark imports the package
from there. Workloads are listed in BENCHMARK.json with the reason each
exists. With --trace 0 the run prints the end-to-end metrics: set-up time is
the median of three fresh worker processes (two that only set up and the
measuring one), each timed from spawn to the end of its warm-up solve and
normalized by a set-up kernel process timed just before it. Operation times
are normalized to a reference machine speed by a calibration kernel timed
between the operations (calibrate.py); raw times are in the `info` line.
With --trace 1 it prints the per-layer metrics of the traced run, in raw
seconds. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Load is one closed loop (one solve or one sweep at a time) in one worker
process, with the BLAS thread count fixed per workload so that pool threads
plus BLAS threads stay within two. Overlapping runs are refused: a lock is
held under `.perfbench/` for the whole run. --smoke runs every workload once
at a reduced size in both modes and checks metric names, units and the
correctness gates, not timings.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
STATE = ROOT / ".perfbench"

# BLAS threads per workload; `sweep` runs two pool threads on one-thread BLAS.
# One thread throughout: a two-thread eigh also slows with load on the other
# core, and its run-to-run spread was about twice the one-thread spread.
BLAS_THREADS = {"dirac1d": 1, "pwc2d": 1, "pwc2d_large": 1, "sweep": 1}
SETUP_PROBES = 2
RUN_TIMEOUT_S = 170.0  # a run must end within 180 s; hung workers are killed


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env(workload: str) -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS[workload])
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(STATE / "pycache"))
    env.pop("PYTHONPATH", None)
    return env


def _spawn(workload: str, args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return seconds from spawn to its READY line and its
    RESULT payload (None for a set-up probe), with the READY payload (import
    and warm-up seconds) under "setup_parts"."""
    argv = [sys.executable, str(WORKER), "--workload", workload, *args]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_worker_env(workload),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH READY "):
                ready = perf_counter() - t0
                parts = json.loads(line[len("PERFBENCH READY "):])
            elif line.startswith("PERFBENCH RESULT "):
                result = json.loads(line[len("PERFBENCH RESULT "):])
            else:
                sys.stderr.write(line)
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if rc != 0 or ready is None:
        raise BenchError(f"worker for {workload} exited with code {rc}")
    if result is not None:
        result["info"]["setup_parts"] = parts
    return ready, result


def _setup_kernel(workload: str, deadline: float) -> float:
    """Seconds a set-up kernel process takes (see calibrate.py) over its
    reference time, the factor by which the machine is slower now."""
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CALIBRATE), workload], cwd=ROOT,
                              env=_worker_env(workload), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up kernel for {workload} timed out") from None
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up kernel for {workload} exited with code {proc.returncode}")
    return seconds / float(proc.stdout.split()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> tuple[dict, dict]:
    """The result object for one workload run, and the record printed with
    it (library versions, BLAS threads, nproc, set-up samples, problems)."""
    deadline = perf_counter() + RUN_TIMEOUT_S
    common = ["--seed", str(seed)] + (["--smoke"] if smoke else [])
    setups, slowdowns = [], []
    for _ in range(0 if trace or smoke else SETUP_PROBES):
        slowdowns.append(_setup_kernel(workload, deadline))
        setups.append(_spawn(workload, common + ["--setup-only"], deadline)[0])
    if not trace:
        slowdowns.append(_setup_kernel(workload, deadline))
    ready, res = _spawn(workload, common + ["--seconds", str(seconds),
                                            "--trace", str(int(trace))], deadline)
    setups.append(ready)
    if res is None:
        raise BenchError(f"worker for {workload} printed no result")
    metrics = {}
    if not trace:
        normalized = [s / k for s, k in zip(setups, slowdowns)]
        metrics["setup_s"] = {"value": statistics.median(normalized), "unit": "s"}
    problems = res["problems"]
    for name, value in res["values"].items():
        if not math.isfinite(value):
            value = -1.0  # already listed in problems; keeps the JSON strict
        metrics[name] = {"value": value, "unit": res["units"][name]}
    correct = res["failed"] == 0 and res["n_problems"] == 0
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "setup_samples_s": setups, "setup_slowdowns": slowdowns, **res["info"],
            "problems": problems}
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}, info


def _lock():
    STATE.mkdir(exist_ok=True)
    handle = open(STATE / "run.lock", "w")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.close()
        raise BenchError("another benchmark run holds .perfbench/run.lock; "
                         "runs must not overlap") from None
    return handle


def _print(result: dict, info: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))


def smoke() -> int:
    """Every workload once at reduced size, both modes; checks names, units
    and gates against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bad = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in names:
            result, info = run(workload, 0, 0.0, trace, smoke=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            tag = f"{workload} trace={int(trace)}"
            errors = []
            if got != want:
                errors.append(f"metrics {sorted(got.items())} != {sorted(want.items())}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"gates failed: {info['problems']}")
            print(f"smoke {tag}: {'FAIL' if errors else 'ok'}")
            bad += [f"{tag}: {e}" for e in errors]
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cslr benchmark")
    ap.add_argument("--workload", choices=sorted(BLAS_THREADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "cslr" / "__init__.py").is_file():
        print(f"no cslr sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        lock = _lock()
        try:
            if args.smoke:
                return smoke()
            result, info = run(args.workload, args.seed, args.seconds,
                               bool(args.trace), smoke=False)
        finally:
            lock.close()
        STATE.joinpath("results").mkdir(exist_ok=True)
        record = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps({**result, "info": info}, indent=1, sort_keys=True))
        _print(result, info)
        return 0 if result["correct"] else 1
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
