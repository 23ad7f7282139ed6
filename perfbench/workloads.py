"""The benchmark's workloads: fixed problem definitions whose instances are
drawn from the benchmark seed, one closed-loop operation at a time.

Every operation returns an `Outcome` with its wall time and the correctness
gates applied to its outputs. Calls into cslr go through module attributes
(`giraf.giraf_solve`, `models.random_mask`, `cli.main`), so that the traced
run sees them through its wrappers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from cslr import cli, giraf, grids, lifting, models


@dataclass
class Outcome:
    seconds: float                 # wall time of the operation
    cells: int                     # solver runs it contains
    failed: int = 0                # runs that raised, went non-finite or missed the gate
    nmse: list = field(default_factory=list)       # final NMSE per run
    to_target: list = field(default_factory=list)  # seconds to the target NMSE (inf: never)
    signature: bytes = b""         # output bytes a traced rerun must reproduce
    problems: list = field(default_factory=list)   # what failed, for the log


def op_rng(workload: str, seed: int, index) -> random.Random:
    """Generator for operation `index` of a run; the same seed gives the same
    instances."""
    return random.Random(f"{workload}/{seed}/{index}")


def seconds_to_target(records, target: float) -> float:
    """Seconds until the NMSE first meets target, interpolated in log NMSE
    between the bracketing outer iterations; inf when it never does."""
    prev_s, prev_n = 0.0, None
    for r in records:
        n = max(r.nmse, 1e-300)
        if n <= target:
            if prev_n is None:
                return r.seconds
            frac = (math.log(prev_n) - math.log(target)) / (math.log(prev_n) - math.log(n))
            return prev_s + frac * (r.seconds - prev_s)
        prev_s, prev_n = r.seconds, n
    return math.inf


class SolveWorkload:
    """Closed loop of `giraf_solve` calls, a fresh instance per call.

    gate: largest final NMSE a correct solve may return. target: the NMSE at
    which time-to-tolerance is read from the returned trace; the reduced
    smoke sizes use the gate as target.
    """

    pool_threads = 1

    def __init__(self, name, spec, config, draw, gate, target):
        self.name, self.spec, self.config = name, spec, config
        self._draw = draw
        self.gate, self.target = gate, target

    def draw(self, rng: random.Random):
        return self._draw(rng)

    def run(self, instance) -> Outcome:
        truth, sampling = instance
        t0 = perf_counter()
        try:
            trace = giraf.giraf_solve(self.spec, sampling, self.config, ground_truth=truth)
        except (giraf.SolverError, ValueError, FloatingPointError) as exc:
            return Outcome(perf_counter() - t0, 1, failed=1, nmse=[math.inf],
                           to_target=[math.inf], problems=[f"solve raised {exc!r}"])
        seconds = perf_counter() - t0
        x = trace.x.values
        final = trace.final_nmse
        out = Outcome(seconds, 1, nmse=[final],
                      to_target=[seconds_to_target(trace.records, self.target)],
                      signature=x.tobytes())
        if not np.all(np.isfinite(x)) or final is None or not math.isfinite(final):
            out.failed, out.problems = 1, ["non-finite recovered grid or NMSE"]
        elif final > self.gate:
            out.failed, out.problems = 1, [f"final NMSE {final:.3e} above gate {self.gate:g}"]
        return out


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def dirac1d(smoke: bool) -> SolveWorkload:
    n, outer = (63, 15) if smoke else (127, 40)
    box = grids.IndexBox((-(n // 2),), (n,))
    spec = lifting.LiftingSpec(box, grids.IndexBox((-7,), (15,)))
    cfg = giraf.SolverConfig(p=0.0, outer_iters=outer, ls_solver="admm",
                             inner_iters=20, oversample=True)

    def draw(rng):
        signal = models.random_diracs(4, seed=_seed(rng), min_separation=2 / 15)
        truth = models.dirac_fourier(signal, box)
        mask = models.random_mask(box, 0.5, seed=_seed(rng))
        return truth, models.SamplingOp.measure(truth, mask)

    return SolveWorkload("dirac1d", spec, cfg, draw, gate=0.1,
                         target=0.1 if smoke else 3e-3)


def _pwc(name, n, f, outer, gate, target) -> SolveWorkload:
    box = grids.IndexBox((-(n // 2),) * 2, (n, n))
    spec = lifting.LiftingSpec(box, grids.IndexBox((-(f // 2),) * 2, (f, f)),
                               weightings=models.gradient_weighting(2))
    cfg = giraf.SolverConfig(p=0.0, outer_iters=outer, ls_solver="admm",
                             inner_iters=20, oversample=True)

    def draw(rng):
        truth = models.rect_fourier(models.pwc_phantom(), box)
        mask = models.random_mask(box, 0.5, seed=_seed(rng), force_dc=True)
        return truth, models.SamplingOp.measure(truth, mask)

    return SolveWorkload(name, spec, cfg, draw, gate, target)


def pwc2d(smoke: bool) -> SolveWorkload:
    n, f = (33, 5) if smoke else (65, 9)
    return _pwc("pwc2d", n, f, 6, gate=1e-3, target=1e-3 if smoke else 1e-4)


def pwc2d_large(smoke: bool) -> SolveWorkload:
    n, f = (65, 9) if smoke else (127, 25)
    return _pwc("pwc2d_large", n, f, 3, gate=1e-3, target=1e-3 if smoke else 1e-4)


class SweepWorkload:
    """Closed loop of in-process `cslr bench` calls (protocol `tol`) on a 1-D
    Dirac config; each call sweeps solvers x usf x seeds on a thread pool.
    The baselines run all their iterations (tol 0), so every call does the
    same amount of work."""

    name = "sweep"
    pool_threads = 2

    def __init__(self, workdir: Path, smoke: bool):
        iters = 8 if smoke else 25
        self.usf = [0.5] if smoke else [0.5, 0.7]
        self.seeds = [0] if smoke else [0, 1, 2, 3]
        # time to tolerance is read at 1e-2: at 1e-3 a third of the giraf
        # cells at usf 0.5 never reached it in 25 iterations, and the
        # median's quartile spread over 6 raw runs was 0.15 (0.10 at 1e-2)
        self.target = 1e-2
        solvers = [
            {"algorithm": "giraf", "label": "giraf_admm", "p": 0, "outer_iters": iters,
             "ls_solver": "admm", "inner_iters": 20, "oversample": True},
            {"algorithm": "giraf", "label": "giraf_cg", "p": 0, "outer_iters": iters,
             "ls_solver": "cg", "inner_iters": 20, "oversample": True},
            {"algorithm": "irls", "label": "irls", "p": 0, "equality": True,
             "max_iters": 10, "inner_iters": 40, "tol": 0},
            {"algorithm": "ap", "label": "ap", "rank_r": 4, "max_iters": 60, "tol": 0},
            {"algorithm": "svt_uv", "label": "svt_uv", "rank_r": 8, "lam": 0.05,
             "beta": 1.0, "equality": True, "max_iters": 60, "tol": 0, "seed": 0},
        ]
        self.labels = sorted(s["label"] for s in solvers)
        config = {
            "name": "dirac63",
            "data_box": {"offset": [-31], "extent": [63]},
            "filter_box": {"offset": [-7], "extent": [15]},
            "weighting": "identity",
            "signal": {"kind": "dirac", "r": 4, "seed": 0, "min_separation": 2 / 15},
            "sampling": {"usf": self.usf[0], "seed": 100},
            "timing": "wall",
            "sweep": {"protocol": "tol", "tol": self.target, "seeds": self.seeds,
                      "usf": self.usf, "solvers": solvers},
        }
        self.config_path = workdir / "sweep.json"
        self.config_path.write_text(json.dumps(config))
        self.out = workdir / "bench"

    def draw(self, rng: random.Random) -> int:
        return rng.randrange(1 << 20)

    def run(self, shift: int) -> Outcome:
        argv = ["bench", "--config", str(self.config_path), "--out", str(self.out),
                "--threads", str(self.pool_threads), "--seed", str(shift)]
        expected = len(self.labels) * len(self.usf) * len(self.seeds)
        t0 = perf_counter()
        rc = cli.main(argv)
        seconds = perf_counter() - t0
        if rc != 0:
            return Outcome(seconds, expected, failed=expected,
                           problems=[f"cslr bench exited {rc}"])
        text = (self.out / "bench.csv").read_text()
        return self._check(text, shift, seconds, expected)

    def _check(self, text: str, shift: int, seconds: float, expected: int) -> Outcome:
        rows = list(csv.DictReader(io.StringIO(text)))
        out = Outcome(seconds, expected)
        keys = [(r["dataset"], r["algorithm"], float(r["p"]), float(r["usf"]), int(r["seed"]))
                for r in rows]
        want = {("dirac63", a, 0.0, u, s + shift)
                for a in self.labels for u in self.usf for s in self.seeds}
        if len(rows) != expected or set(keys) != want:
            out.problems.append(f"bench.csv has {len(rows)} rows, not the "
                                f"{expected} solver x usf x seed cells")
        if keys != sorted(keys):
            out.problems.append("bench.csv rows are not in sorted key order")
        kept = io.StringIO()
        for r in rows:
            final = float(r["final_nmse"]) if r["final_nmse"] not in ("Mem", "") else math.nan
            if not math.isfinite(final):
                out.failed += 1
                out.problems.append(f"cell {r['algorithm']} seed {r['seed']} errored")
                continue
            out.nmse.append(final)
            out.to_target.append(float(r["seconds_to_tol"]) if r["iters_to_tol"] != "Inf"
                                 else math.inf)
            kept.write(",".join(v for k, v in r.items() if k != "seconds_to_tol") + "\n")
        out.failed = max(out.failed, expected - len(out.nmse))
        out.signature = kept.getvalue().encode()
        return out


def make(name: str, workdir: Path, smoke: bool = False):
    if name == "sweep":
        return SweepWorkload(workdir, smoke)
    return {"dirac1d": dirac1d, "pwc2d": pwc2d, "pwc2d_large": pwc2d_large}[name](smoke)
