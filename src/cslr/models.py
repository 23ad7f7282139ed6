"""Synthetic signal models, sampling operators, noise and error metrics.

Signals are produced directly as Fourier coefficient grids from closed forms:
point sources (sums of complex exponentials) and axis-aligned rectangle
phantoms (separable sinc-type integrals). Rectangle phantoms under gradient
weighting give exactly low-rank liftings, because the edge set lies on a few
coordinate lines annihilated by short separable filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import ComplexGrid, IndexBox, zero_pad
from .lifting import WeightingOp

__all__ = [
    "DiracSignal",
    "RectPhantom",
    "SamplingOp",
    "dirac_fourier",
    "rect_fourier",
    "gradient_weighting",
    "random_mask",
    "add_noise",
    "nmse",
    "snr_db",
    "random_diracs",
    "pwc_phantom",
]


@dataclass(frozen=True)
class DiracSignal:
    """Point sources on the unit torus: locations in [0,1)^d, complex
    amplitudes."""

    locations: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if loc.shape[0] != amp.shape[0]:
            raise ValueError("one amplitude per location required")
        if np.any(loc < 0) or np.any(loc >= 1):
            raise ValueError("locations must lie in [0, 1)")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "amplitudes", amp)


def dirac_fourier(signal: DiracSignal, box: IndexBox) -> ComplexGrid:
    """Fourier coefficients sum_i c_i exp(-2j pi k . x_i) on the box."""
    if box.ndim != signal.locations.shape[1]:
        raise ValueError("box dimension does not match signal dimension")
    phases = box.indices().astype(float) @ signal.locations.T
    vals = np.exp(-2j * np.pi * phases) @ signal.amplitudes
    return ComplexGrid(box, vals.reshape(box.extent))


@dataclass(frozen=True)
class RectPhantom:
    """Sum of axis-aligned rectangles on the unit torus.

    Each rectangle is (amplitude, bounds) with bounds a per-axis (a, b) pair,
    0 <= a < b < 1.
    """

    rects: tuple

    def __post_init__(self):
        rects = []
        for amp, bounds in self.rects:
            bb = tuple((float(a), float(b)) for a, b in bounds)
            for a, b in bb:
                if not 0 <= a < b < 1:
                    raise ValueError("rectangle bounds must satisfy 0 <= a < b < 1")
            rects.append((complex(amp), bb))
        object.__setattr__(self, "rects", tuple(rects))

    @property
    def ndim(self) -> int:
        return len(self.rects[0][1])


def _interval_fourier(k: np.ndarray, a: float, b: float) -> np.ndarray:
    """Fourier coefficients of the indicator of [a, b) on [0, 1)."""
    k = np.asarray(k, dtype=float)
    out = np.empty(k.shape, dtype=np.complex128)
    nz = k != 0
    kk = k[nz]
    out[nz] = (np.exp(-2j * np.pi * kk * b) - np.exp(-2j * np.pi * kk * a)) \
        / (-2j * np.pi * kk)
    out[~nz] = b - a
    return out


def rect_fourier(phantom: RectPhantom, box: IndexBox) -> ComplexGrid:
    """Exact Fourier coefficients of the rectangle sum (separable closed
    form)."""
    if box.ndim != phantom.ndim:
        raise ValueError("box dimension does not match phantom dimension")
    vals = np.zeros(box.extent, dtype=np.complex128)
    for amp, bounds in phantom.rects:
        factors = [_interval_fourier(box.axis_indices(a), *bounds[a])
                   for a in range(box.ndim)]
        term = factors[0]
        for f in factors[1:]:
            term = np.multiply.outer(term, f)
        vals += amp * term
    return ComplexGrid(box, vals)


def gradient_weighting(ndim: int = 2) -> tuple[WeightingOp, ...]:
    """One Fourier-derivative weighting per axis (2j pi k_axis)."""
    return tuple(WeightingOp.fourier_derivative(a) for a in range(ndim))


def random_mask(box: IndexBox, usf: float, seed: int,
                force_dc: bool = False) -> np.ndarray:
    """Boolean sampling mask with exactly ceil(usf * size) True entries.

    Uses numpy's default PCG64 generator seeded with `seed`. With force_dc
    the k = 0 entry is always included (the first drawn non-DC index is
    swapped out for it).
    """
    if not 0 < usf <= 1:
        raise ValueError("undersampling factor must lie in (0, 1]")
    n = math.ceil(usf * box.size)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(box.size, size=n, replace=False)
    if force_dc:
        if any(o > 0 or o + e <= 0 for o, e in zip(box.offset, box.extent)):
            raise ValueError("force_dc requires the box to contain index 0")
        dc = np.ravel_multi_index(tuple(-o for o in box.offset), box.extent)
        if dc not in chosen:
            chosen[0] = dc
    mask = np.zeros(box.size, dtype=bool)
    mask[chosen] = True
    return mask.reshape(box.extent)


@dataclass(frozen=True)
class SamplingOp:
    """Sampling mask plus the measured values, zero-filled off the mask."""

    mask: np.ndarray
    b: ComplexGrid

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != self.b.box.extent:
            raise ValueError("mask shape does not match the data box")
        if np.any(self.b.values[~mask] != 0):
            raise ValueError("measured values must be zero off the mask")
        object.__setattr__(self, "mask", mask)

    @classmethod
    def measure(cls, truth: ComplexGrid, mask: np.ndarray) -> "SamplingOp":
        vals = np.where(mask, truth.values, 0.0)
        return cls(mask, ComplexGrid(truth.box, vals))

    @property
    def box(self) -> IndexBox:
        return self.b.box

    def zero_filled(self) -> ComplexGrid:
        """Adjoint applied to the measurements (zero-filled grid)."""
        return self.b.copy()

    def insert_data(self, values: np.ndarray) -> np.ndarray:
        """Replace measured entries of an array with the measured values."""
        return np.where(self.mask, self.b.values, values)

    def embed(self, big: IndexBox) -> "SamplingOp":
        """Transplant onto a containing box; new entries are unmeasured."""
        bigmask = np.zeros(big.extent, dtype=bool)
        sl = tuple(slice(o - bo, o - bo + e)
                   for o, bo, e in zip(self.box.offset, big.offset, self.box.extent))
        bigmask[sl] = self.mask
        return SamplingOp(bigmask, zero_pad(self.b, big))


def add_noise(b: ComplexGrid, target_snr_db: float, seed: int,
              mask: np.ndarray | None = None) -> ComplexGrid:
    """Add circular complex Gaussian noise rescaled to hit the target SNR.

    The noise is confined to the masked entries when a mask is given, and
    scaled so that 10 log10(||b||^2 / ||n||^2) equals the target exactly.
    """
    signal_norm = np.linalg.norm(b.values)
    if signal_norm == 0:
        raise ValueError("cannot set an SNR against zero measurements")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(b.box.extent) + 1j * rng.standard_normal(b.box.extent)
    if mask is not None:
        raw = np.where(mask, raw, 0.0)
    raw_norm = np.linalg.norm(raw)
    if raw_norm == 0:
        raise ValueError("empty noise support")
    scale = signal_norm * 10 ** (-target_snr_db / 20) / raw_norm
    return ComplexGrid(b.box, b.values + scale * raw)


def nmse(x, x0) -> float:
    """Normalized mean squared error ||x - x0||^2 / ||x0||^2."""
    xv = x.values if isinstance(x, ComplexGrid) else np.asarray(x)
    rv = x0.values if isinstance(x0, ComplexGrid) else np.asarray(x0)
    denom = np.linalg.norm(rv) ** 2
    if denom == 0:
        raise ValueError("reference signal is zero")
    return float(np.linalg.norm(xv - rv) ** 2 / denom)


def snr_db(x, x0) -> float:
    """Reconstruction SNR in dB, -10 log10(NMSE); inf for an exact match."""
    err = nmse(x, x0)
    return math.inf if err == 0.0 else -10.0 * math.log10(err)


def random_diracs(r: int, seed: int, min_separation: float,
                  amplitude_range=(0.5, 1.5)) -> DiracSignal:
    """Draw r well-separated 1-D point sources with random complex
    amplitudes bounded away from zero."""
    rng = np.random.default_rng(seed)
    while True:
        loc = np.sort(rng.uniform(0, 1, size=r))
        gaps = np.diff(np.concatenate([loc, [loc[0] + 1.0]]))
        if np.min(gaps) >= min_separation:
            break
    mag = rng.uniform(*amplitude_range, size=r)
    phase = rng.uniform(0, 2 * np.pi, size=r)
    return DiracSignal(loc[:, None], mag * np.exp(1j * phase))


def pwc_phantom() -> RectPhantom:
    """The PWC1 fixture: a 65 x 65-ready piecewise-constant phantom whose
    edge set lies on two vertical and two horizontal lines, so a 9 x 9
    gradient lifting has numerical rank 32."""
    return RectPhantom(((1.0, ((0.23, 0.61), (0.34, 0.77))),))
