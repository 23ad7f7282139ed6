"""Print SHA-256 digests of the solver's outputs on the benchmark's instances.

Run it in two checkouts and compare the printed lines to show that a change
keeps the outputs byte for byte:

    OPENBLAS_NUM_THREADS=1 python tests/output_digests.py

Each checkout imports its own `src/` and `perfbench/`. One line per GIRAF
solve digests the final grid, every IterationRecord field but `seconds`
(wall time) and eps0, on the instances `op_rng(workload, 900, i)` of
dirac1d (i = 0-3), pwc2d (i = 0-5) and pwc2d_large (i = 0-2), at the
workload's p = 0 and at p = 0.5, and on W3, the 255^2 data / 45^2 filter
solve of `test_large_scale_completion` (p = 0, mask seed 1). All of these
hold the measured samples exactly (equality mode, lam=None); the lines
marked lam= solve the same instances with a data term instead: dirac1d
(i = 0-3, one-block ADMM folded into one dense matrix) at lam = 0.05 and
pwc2d (i = 0-5, the stacked ADMM loop) at lam = 0.1, each at p = 0 and
p = 0.5. One line
digests the sweep's irls entry (p = 0) on the sweep config's own dirac63
instance (seed shift 0), the same way. The last line digests the
`bench.csv` of the benchmark's sweep config with `"timing": "none"`, run
as `cslr bench --threads 2 --seed 5`. Bits follow the BLAS
thread count (README, Determinism), so compare runs at the same count; the
first line prints it.
Not a test module: pytest does not collect it.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cslr import cli, giraf, models  # noqa: E402
from cslr.grids import IndexBox  # noqa: E402
from cslr.lifting import LiftingSpec  # noqa: E402
from workloads import SweepWorkload, make, op_rng  # noqa: E402

SEED = 900
INSTANCES = {"dirac1d": 4, "pwc2d": 6, "pwc2d_large": 3}
LAMS = {"dirac1d": (0.05,), "pwc2d": (0.1,)}  # data-term solves of the same instances


def trace_digest(trace) -> str:
    h = hashlib.sha256(trace.x.values.tobytes())
    for rec in trace.records:
        fields = dataclasses.astuple(dataclasses.replace(rec, seconds=0.0))
        h.update(repr(fields).encode())
    h.update(repr(trace.eps0).encode())
    return h.hexdigest()


def w3_digest() -> str:
    box = IndexBox((-127, -127), (255, 255))
    spec = LiftingSpec(box, IndexBox((-22, -22), (45, 45)),
                       weightings=models.gradient_weighting(2))
    truth = models.rect_fourier(models.pwc_phantom(), box)
    mask = models.random_mask(box, 0.5, seed=1, force_dc=True)
    config = giraf.SolverConfig(p=0.0, outer_iters=3, ls_solver="admm", inner_iters=20,
                                oversample=True)
    return trace_digest(giraf.giraf_solve(spec, models.SamplingOp.measure(truth, mask),
                                          config, ground_truth=truth))


def irls_digest(workdir: Path) -> str:
    sweep = SweepWorkload(workdir, smoke=False)
    config = json.loads(sweep.config_path.read_text())
    entry = next(e for e in config["sweep"]["solvers"] if e["algorithm"] == "irls")
    solve, solver_cfg = cli._resolve_solver(entry)
    truth, sampling = cli._build_instance(config, 0)
    return trace_digest(solve(cli._build_spec(config), sampling, solver_cfg,
                              ground_truth=truth))


def sweep_digest(workdir: Path) -> str:
    sweep = SweepWorkload(workdir, smoke=False)
    config = json.loads(sweep.config_path.read_text())
    config["timing"] = "none"
    sweep.config_path.write_text(json.dumps(config))
    rc = cli.main(["bench", "--config", str(sweep.config_path), "--out", str(sweep.out),
                   "--threads", "2", "--seed", "5"])
    if rc != 0:
        raise SystemExit(f"cslr bench exited {rc}")
    return hashlib.sha256((sweep.out / "bench.csv").read_bytes()).hexdigest()


def main() -> None:
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    for name, count in INSTANCES.items():
        workload = make(name, ROOT, smoke=False)
        for i in range(count):
            truth, sampling = workload.draw(op_rng(name, SEED, i))
            for lam in (None, *LAMS.get(name, ())):
                for p in (workload.config.p, 0.5):
                    config = dataclasses.replace(workload.config, p=p, lam=lam)
                    trace = giraf.giraf_solve(workload.spec, sampling, config,
                                              ground_truth=truth)
                    tag = "" if lam is None else f" lam={lam:g}"
                    print(f"{name} i={i} p={p:g}{tag} {trace_digest(trace)}", flush=True)
    print(f"W3 p=0 {w3_digest()}", flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        print(f"irls dirac63 p=0 {irls_digest(Path(workdir))}", flush=True)
        print(f"sweep bench.csv {sweep_digest(Path(workdir))}")


if __name__ == "__main__":
    main()
