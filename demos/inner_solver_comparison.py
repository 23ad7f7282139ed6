"""
Inner least-squares solvers: variable splitting vs conjugate gradients
======================================================================

Each reweighting step solves a linear system whose operator mixes a
diagonal sampling term with a filter-weighted convolution.  The package
offers two matrix-free solvers for it: an augmented-Lagrangian split
whose subproblems are FFT-diagonal, and plain conjugate gradients on the
normal equations.  This script races them against a tight CG reference
on a single frozen subproblem.
"""

import numpy as np

from cslr.giraf import admm_ls, cg_ls, filter_update
from cslr.grids import IndexBox
from cslr.lifting import LiftingSpec
from cslr.models import SamplingOp, dirac_fourier, random_diracs, random_mask

# ----------------------------------------------------------------------
# Freeze one subproblem: weights from the zero-filled data at a mid-range
# smoothing level, moderate regularization.

box = IndexBox((-63,), (127,))
spec = LiftingSpec(box, IndexBox((-7,), (15,)))
truth = dirac_fourier(random_diracs(4, seed=7, min_separation=2 / 15), box)
sampling = SamplingOp.measure(truth, random_mask(box, 0.5, seed=17))
weights = filter_update(spec, sampling.zero_filled(), 0.05, 0.0)
lam = 0.1

reference = cg_ls(spec, sampling, weights, lam, 0.0, iters=4000, tol=1e-16)


def distance(x):
    d = x.values - reference.values
    return float(np.vdot(d, d).real / np.vdot(reference.values,
                                              reference.values).real)


# ----------------------------------------------------------------------
# The split solver's speed depends on its penalty weight delta: too small
# and the dual barely moves, too large and the data term is drowned out.

print(f"{'solver':<16} {'iters':>6} {'dist to reference':>18}")
for delta in (1.0, 10.0, 100.0):
    for iters in (10, 50, 200):
        x = admm_ls(spec, sampling, weights, lam, 0.0, iters=iters, delta=delta)
        print(f"{'split d=' + format(delta, 'g'):<16} {iters:>6} "
              f"{distance(x):>18.3e}")
for iters in (10, 50, 200):
    x = cg_ls(spec, sampling, weights, lam, 0.0, iters=iters, tol=0.0)
    print(f"{'cg':<16} {iters:>6} {distance(x):>18.3e}")
