"""Machine-speed calibration.

On a shared machine the CPU's speed drifts: the same pwc2d solve on the same
instance took from 74 ms to 144 ms within one minute on a 2-vCPU Xeon guest,
with process CPU time equal to wall time (the slowdown is contention for the
core, not preemption). The drift is mostly a switch between two states, a
fast one and one about 1.5x slower, that lasts from under a second to
minutes. Raw medians of separate runs then spread by 18-36%.

A fixed kernel that does not use cslr is timed between the measured
operations of a run, for about 5% of the run. Each operation's times are
reported rescaled to the speed at which the kernel takes its reference time:
`normalized = raw * reference / median(kernel passes near it in time)`. A
change to cslr moves the raw times and leaves the kernel alone, so it shows
in full; a change of machine speed moves both and cancels. Raw times are
printed alongside.

Three choices keep the normalized times steady from run to run:

- The factor is local: the median of the passes within WINDOW_S of the
  operation, or of the MIN_PASSES nearest if fewer lie there. The state
  switches within a run too, and one factor per run then comes from
  whichever state holds the median pass. Recomputed on the same 8 runs of
  20 s, the quartile spreads of solve time, time to tolerance and
  throughput were, for dirac1d, 0.16, 0.11 and 0.12 with one factor per
  run, 0.05, 0.10 and 0.09 with a 1 s window and 0.03, 0.05 and 0.06 with
  0.5 s; for pwc2d, 0.05, 0.11 and 0.09 per run and 0.02, 0.02 and 0.04
  with 0.5 s and 5 passes.
- The kernel does the same kind of work as the workload, so that both slow
  down by the same factor in the slow state. A generic kernel of 96x96
  FFTs, a sort and Python loops slowed 1.73x where dirac1d's solve slowed
  1.58x and pwc2d's 1.43x, which moved their normalized medians by ~10%
  with the share of the run spent in each state. The kernels are:
  "admm1d" and "admm2d", FFT-diagonal shrinkage passes on the grid of
  dirac1d (155 points, 15x15 eigh) and pwc2d (81x81, two weight blocks,
  81x81 eigh); "eigh625", one eigh of a complex Hermitian matrix of
  pwc2d_large's Gram order, 625, for that workload, whose solve is mostly
  eigh. Over 62 pwc2d_large solves, 8-solve window medians of solve time
  over kernel time varied by 0.020 (log std) with "eigh625", 0.043 with a
  400x400 eigh and 0.045 raw.
- Passes run in blocks of at least BLOCK_S (and one pass), so that most
  operations follow another operation, not a kernel pass that evicted their
  data from the caches. Run after every operation, the kernel made the
  first iterations of the next dirac1d solve slower in the fast state only,
  which moved its time to tolerance (the first ~3 of 40 iterations) against
  its solve time. A pwc2d_large solve owes less than one "eigh625" pass, so
  one pass follows each of its solves.

Set-up times are normalized by the slowdown of a set-up kernel process,
this module run as a script, timed just before each set-up: over 30 dirac1d
set-ups, medians of 5 consecutive ones varied by 13% raw and by 7% relative
to that process.

The sweep runs cells on two pool threads, and its time hardly follows a
one-thread kernel (correlation 0.12 between per-operation sweep time and
"admm1d" time over 82 operations) but partly follows the same kernel run on
two threads at once (0.52): "admm1d_pair", on dirac63's 91-point grid. Over
10 runs it cut the quartile spread of the sweep's operation time from 0.072
raw to 0.041, of its time to tolerance from 0.101 to 0.083 and of its
throughput from 0.082 to 0.063.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# each kernel's time per pass on the 2-vCPU Xeon guest the benchmark was
# defined on, in its faster state, with one BLAS thread
REFERENCE_S = {"admm1d": 0.00075, "admm1d_pair": 0.0015, "admm2d": 0.011, "eigh625": 0.30}
SHARE = 0.05       # kernel time per second of measured operations
BLOCK_S = 0.02     # kernel seconds run back to back
WINDOW_S = 0.5     # passes this close in time to an operation set its factor
MIN_PASSES = 5     # ... or the nearest this many, if the window holds fewer


def _admm_kernel(rng, shape, blocks, order, iters=20):
    """One eigh of an order x order Hermitian matrix, then `iters` passes
    of FFT-diagonal shrinkage on complex grids of `shape` with `blocks`
    weights: the work of one outer iteration of an ADMM-based solver."""
    def cgrid():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x0, b = cgrid(), cgrid()
    weights = [cgrid() for _ in range(blocks)]
    shrink = rng.uniform(0.1, 0.9, shape)
    mask = rng.random(shape) < 0.5
    denom = sum(np.abs(w) ** 2 for w in weights) + 1.0
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    herm = a @ a.conj().T

    def run():
        np.linalg.eigh(herm)
        x = x0
        u = [np.zeros(shape, dtype=np.complex128) for _ in weights]
        for _ in range(iters):
            z = [np.fft.fftn(shrink * np.fft.ifftn(w * x - uj)) for w, uj in zip(weights, u)]
            acc = np.zeros(shape, dtype=np.complex128)
            for w, zj, uj in zip(weights, z, u):
                acc += np.conj(w) * (zj + uj)
            x = np.where(mask, b, acc / denom)
            u = [uj + w * x - zj for w, zj, uj in zip(weights, z, u)]

    return run


def _eigh_kernel(rng, order):
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    herm = a @ a.conj().T
    return lambda: np.linalg.eigh(herm)


class _Pair:
    """Two copies of a kernel run on two pool threads at once; one pass
    ends when both have."""

    def __init__(self, make, rng):
        self._runs = [make(rng), make(rng)]
        self._pool = ThreadPoolExecutor(max_workers=2)

    def __call__(self):
        for job in [self._pool.submit(run) for run in self._runs]:
            job.result()

    def close(self):
        self._pool.shutdown(wait=True)


WORKLOAD_KERNEL = {"dirac1d": "admm1d", "pwc2d": "admm2d", "pwc2d_large": "eigh625",
                   "sweep": "admm1d_pair"}
# seconds, rounded, to start an interpreter that imports numpy and runs the
# workload's kernel once (the set-up kernel below), on the same machine as
# REFERENCE_S
SETUP_REFERENCE_S = {"dirac1d": 0.6, "pwc2d": 0.6, "pwc2d_large": 0.9, "sweep": 0.6}

KERNELS = {
    "admm1d": lambda rng: _admm_kernel(rng, (155,), 1, 15),
    "admm1d_pair": lambda rng: _Pair(lambda r: _admm_kernel(r, (91,), 1, 15), rng),
    "admm2d": lambda rng: _admm_kernel(rng, (81, 81), 2, 81),
    "eigh625": lambda rng: _eigh_kernel(rng, 625),
}


class Calibrator:
    def __init__(self, kind: str):
        self.reference_s = REFERENCE_S[kind]
        self._kernel = KERNELS[kind](np.random.default_rng(1234))
        self._kernel()  # first pass pays for FFT plans and page faults
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds) per pass
        self._owed = BLOCK_S  # kernel seconds due but not yet run

    def sample(self, after_seconds: float) -> None:
        """Owe SHARE of `after_seconds` to the kernel and, once a block is
        due, run passes until the debt is paid (at least one pass)."""
        self._owed += SHARE * after_seconds
        if self._owed < BLOCK_S:
            return
        while True:
            t0 = perf_counter()
            self._kernel()
            t1 = perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))
            self._owed -= t1 - t0
            if self._owed <= 0:
                self._owed = 0.0
                return

    def close(self) -> None:
        """Stop the kernel's threads, if it has any."""
        getattr(self._kernel, "close", lambda: None)()

    def factor_at(self, start: float, end: float) -> float:
        """Reference time over the median pass within WINDOW_S of the span
        from `start` to `end` (perf_counter readings), or of the MIN_PASSES
        nearest passes if fewer lie there: multiply raw seconds measured in
        that span by it."""
        def distance(t):
            return max(start - t, t - end, 0.0)

        near = [d for t, d in self.samples if distance(t) <= WINDOW_S]
        if len(near) < MIN_PASSES:
            near = [d for t, d in sorted(self.samples, key=lambda s: distance(s[0]))
                    [:MIN_PASSES]]
        return self.reference_s / float(np.median(near))


if __name__ == "__main__":
    # Set-up kernel: `python3 calibrate.py WORKLOAD` imports numpy, builds the
    # workload's kernel and runs it once, like a worker's set-up without
    # cslr, and prints the reference time of that; run.py times the process
    # to normalize set-up times.
    import sys

    Calibrator(WORKLOAD_KERNEL[sys.argv[1]]).close()
    print(SETUP_REFERENCE_S[sys.argv[1]])
