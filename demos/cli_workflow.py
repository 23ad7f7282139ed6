"""
Driving experiments from the command line
=========================================

The packaged ``cslr`` command turns a JSON config into datasets, recovery
runs, benchmark sweeps, and byte-level result comparisons.  This script
exercises the full loop in a temporary directory using the same entry
point the installed console script calls, and stops with an error if any
step returns an unexpected exit code.
"""

import json
import sys
import tempfile
from pathlib import Path

from cslr.cli import main


def run(args, expected):
    code = main(args)
    if code != expected:
        sys.exit(f"cslr {args[0]} exited {code}, expected {expected}")
    return code


tmp = tempfile.TemporaryDirectory(prefix="cslr-demo-")
work = Path(tmp.name)
print(f"working in {work}\n")

# ----------------------------------------------------------------------
# One config drives everything.  The sweep section is only read by the
# bench subcommand; gen and recover use the rest.

config = {
    "name": "dirac63",
    "data_box": {"offset": [-31], "extent": [63]},
    "filter_box": {"offset": [-7], "extent": [15]},
    "weighting": "identity",
    "signal": {"kind": "dirac", "r": 4, "seed": 3, "min_separation": 0.1333},
    "sampling": {"usf": 0.6, "seed": 11},
    "timing": "wall",
    "solver": {"algorithm": "giraf", "p": 0, "lam": 0.05, "outer_iters": 15,
               "ls_solver": "admm", "inner_iters": 20, "oversample": True},
    "sweep": {"tol": 1e-4, "seeds": [0, 1, 2],
              "solvers": [
                  {"algorithm": "giraf", "p": 0, "lam": 0.05,
                   "outer_iters": 15, "ls_solver": "admm", "inner_iters": 20,
                   "oversample": True},
                  {"algorithm": "ap", "rank_r": 4, "max_iters": 30},
              ]},
}
cfg = work / "config.json"
cfg.write_text(json.dumps(config, indent=2))

# ----------------------------------------------------------------------
# gen materializes truth, mask and measurements; recover runs the solver
# and writes the recovered grid, a per-iteration trace, and a summary.

for args in (
    ["gen", "--config", str(cfg), "--out", str(work / "data")],
    ["recover", "--config", str(cfg), "--out", str(work / "run")],
    ["bench", "--config", str(cfg), "--out", str(work / "bench")],
):
    code = run(args, 0)
    print(f"$ cslr {' '.join(args[:1])} ... -> exit {code}")

summary = json.loads((work / "run" / "summary.json").read_text())
print(f"\nrecover summary: NMSE {summary['final_nmse']:.3e}, "
      f"SNR {summary['final_snr_db']:.1f} dB, "
      f"{summary['iterations']} iterations")

print("\nbench.csv:")
print((work / "bench" / "bench.csv").read_text())

# ----------------------------------------------------------------------
# compare checks recovered grids against each other and optionally a
# truth grid; exit code 1 flags a tolerance violation without crashing.

code = run(["compare", str(work / "run" / "recovered.cslr"),
            str(work / "run" / "recovered.cslr"),
            "--truth", str(work / "data" / "truth.cslr"),
            "--tol", "1e-3"], 0)
print(f"compare within tolerance -> exit {code}")
code = run(["compare", str(work / "run" / "recovered.cslr"),
            str(work / "data" / "truth.cslr"),
            "--truth", str(work / "data" / "truth.cslr"),
            "--tol", "1e-12"], 1)
print(f"compare too strict -> exit {code}")
tmp.cleanup()
