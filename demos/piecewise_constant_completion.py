"""
Completing a piecewise-constant image in the Fourier domain
===========================================================

A 65 x 65 grid of Fourier samples of a piecewise-constant phantom is
half observed.  The gradient-weighted lifting makes the edges, not the
image, the low-rank object.  Every solver in the package is run on the
same instance so their iteration counts and accuracy can be compared.
"""

import time

from cslr.baselines import (
    APConfig,
    APProxConfig,
    IRLSConfig,
    SVTConfig,
    SVTUVConfig,
    ap_prox_solve,
    ap_solve,
    irls_direct,
    svt_solve,
    svt_uv_solve,
)
from cslr.giraf import SolverConfig, giraf_solve
from cslr.grids import IndexBox
from cslr.lifting import LiftingSpec
from cslr.models import (
    SamplingOp,
    gradient_weighting,
    pwc_phantom,
    random_mask,
    rect_fourier,
)

# ----------------------------------------------------------------------
# Instance: gradient-weighted lifting, 9 x 9 filter, 50% sampling with
# the DC sample forced on so every method sees the mean.

box = IndexBox((-32, -32), (65, 65))
spec = LiftingSpec(box, IndexBox((-4, -4), (9, 9)),
                   weightings=gradient_weighting(2))
truth = rect_fourier(pwc_phantom(), box)
sampling = SamplingOp.measure(truth, random_mask(box, 0.5, seed=1, force_dc=True))

# ----------------------------------------------------------------------
# One entry per solver: a closure returning its trace.  The dense methods
# (alternating projection, thresholding, factorization, direct reweighting)
# build the lifted matrix explicitly; the reweighted solver never does.

runs = {
    "giraf p=0 (matrix-free)": lambda: giraf_solve(
        spec, sampling,
        SolverConfig(p=0.0, outer_iters=6, ls_solver="admm", inner_iters=20,
                     oversample=True),
        ground_truth=truth),
    "alternating projection": lambda: ap_solve(
        spec, sampling, APConfig(rank_r=24, max_iters=40),
        ground_truth=truth),
    # the relaxed projection blends data in softly instead of inserting it,
    # so it needs many more sweeps to creep to the same accuracy
    "relaxed projection": lambda: ap_prox_solve(
        spec, sampling,
        APProxConfig(rank_r=24, lam=1e-4, max_iters=60),
        ground_truth=truth),
    "singular value thresholding": lambda: svt_solve(
        spec, sampling,
        SVTConfig(lam=6.5, beta=1.0, equality=True, max_iters=40),
        ground_truth=truth),
    "thresholding, factored": lambda: svt_uv_solve(
        spec, sampling,
        SVTUVConfig(rank_r=40, lam=0.026, beta=1.0, equality=True, max_iters=40,
                    seed=0),
        ground_truth=truth),
    "direct reweighting (dense)": lambda: irls_direct(
        spec, sampling,
        IRLSConfig(p=0.0, equality=True, max_iters=5, inner_iters=60, cg_tol=1e-10),
        ground_truth=truth),
}

print(f"{'solver':<30} {'iters':>5} {'seconds':>8} {'final NMSE':>11}")
for name, run in runs.items():
    t0 = time.perf_counter()
    trace = run()
    dt = time.perf_counter() - t0
    print(f"{name:<30} {len(trace.records):>5} {dt:>8.2f} "
          f"{trace.final_nmse:>11.2e}")
