"""Multi-level Toeplitz liftings of gridded data and their circulant
surrogates.

A lifting maps a grid x on a data box to a stack of K structured blocks, one
per weighting operator M_j. Block j realizes valid-region convolution by the
weighted data: acting on a filter h supported on the filter box, it returns
(M_j x) convolved with h, restricted to the valid set. The exact block is a
multi-level Toeplitz matrix; replacing valid-region convolution with circular
convolution on the full data box gives the half-circulant surrogate, whose
rows are a superset of the exact rows, so the surrogate dominates the exact
lifting singular value by singular value.

The surrogate's Gram matrix never needs the lifted matrix: it is a windowed
circular autocorrelation, computed with two FFTs per block and indexed by
filter-index differences.

Dense materializations are oracles for tests and small problems only and are
capped by ORACLE_BUDGET entries; exceeding the cap raises BudgetError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import (
    ComplexGrid,
    IndexBox,
    circ_conv,
    restrict,
    valid_set,
)

__all__ = [
    "BudgetError",
    "ORACLE_BUDGET",
    "WeightingOp",
    "LiftingSpec",
    "apply_lift",
    "materialize_exact",
    "materialize_surrogate",
    "gram_surrogate",
    "diff_index",
    "lift_adjoint",
    "lift_normal_diagonal",
]

ORACLE_BUDGET = 10**7


class BudgetError(Exception):
    """Dense materialization would exceed the entry budget."""


@dataclass(frozen=True, eq=True)
class WeightingOp:
    """Diagonal weighting applied to the data grid before lifting.

    kind "identity" multiplies by one, "fourier_derivative" by 2j*pi*k along
    one axis (k the absolute index), "elementwise" by a fixed grid.
    """

    kind: str
    axis: int | None = None
    data: ComplexGrid | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "fourier_derivative", "elementwise"):
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        if self.kind == "fourier_derivative" and self.axis is None:
            raise ValueError("fourier_derivative weighting needs an axis")
        if self.kind == "elementwise" and self.data is None:
            raise ValueError("elementwise weighting needs a grid")

    @classmethod
    def identity(cls) -> "WeightingOp":
        return cls("identity")

    @classmethod
    def fourier_derivative(cls, axis: int) -> "WeightingOp":
        return cls("fourier_derivative", axis=axis)

    @classmethod
    def elementwise(cls, data: ComplexGrid) -> "WeightingOp":
        return cls("elementwise", data=data)

    def weights_on(self, box: IndexBox) -> np.ndarray:
        """Dense weight array on the given box."""
        if self.kind == "identity":
            return np.ones(box.extent, dtype=np.complex128)
        if self.kind == "fourier_derivative":
            if not 0 <= self.axis < box.ndim:
                raise ValueError("derivative axis out of range for box")
            k = box.axis_indices(self.axis).astype(np.complex128)
            shape = [1] * box.ndim
            shape[self.axis] = box.extent[self.axis]
            return np.broadcast_to(2j * np.pi * k.reshape(shape), box.extent).copy()
        if self.data.box != box:
            raise ValueError("elementwise weighting grid does not match the box")
        return self.data.values


@dataclass(frozen=True, eq=True)
class LiftingSpec:
    """Data box, filter box, and the weighting stack defining a lifting."""

    data_box: IndexBox
    filter_box: IndexBox
    weightings: tuple[WeightingOp, ...] = (WeightingOp.identity(),)

    def __post_init__(self):
        if not isinstance(self.weightings, tuple):
            object.__setattr__(self, "weightings", tuple(self.weightings))
        if len(self.weightings) == 0:
            raise ValueError("at least one weighting is required")
        if not self.data_box.contains(self.filter_box):
            raise ValueError("filter box must be contained in the data box")
        for w in self.weightings:
            w.weights_on(self.data_box)  # validates axes / elementwise boxes

    @property
    def valid_box(self) -> IndexBox:
        return valid_set(self.data_box, self.filter_box)

    @property
    def n_blocks(self) -> int:
        return len(self.weightings)

    @property
    def n_filter(self) -> int:
        return self.filter_box.size

    @property
    def shape_exact(self) -> tuple[int, int]:
        return (self.n_blocks * self.valid_box.size, self.n_filter)

    @property
    def shape_surrogate(self) -> tuple[int, int]:
        return (self.n_blocks * self.data_box.size, self.n_filter)

    def weighted_data(self, x: ComplexGrid) -> list[np.ndarray]:
        """Per-block weighted data arrays M_j x on the data box."""
        if x.box != self.data_box:
            raise ValueError("grid box does not match the lifting data box")
        return [w.weights_on(self.data_box) * x.values for w in self.weightings]

    def with_data_box(self, box: IndexBox) -> "LiftingSpec":
        """Same lifting on a different (typically enlarged) data box."""
        if any(w.kind == "elementwise" for w in self.weightings):
            raise ValueError("elementwise weightings cannot be transplanted")
        return LiftingSpec(box, self.filter_box, self.weightings)


def _check_budget(rows: int, cols: int) -> None:
    if rows * cols > ORACLE_BUDGET:
        raise BudgetError(f"dense lifting of {rows} x {cols} entries exceeds "
                          f"the {ORACLE_BUDGET} entry budget")


@lru_cache(maxsize=32)
def diff_index(a: IndexBox, b: IndexBox, target: IndexBox, wrap: bool = False) -> np.ndarray:
    """Flat indices into the target box of the differences a_i - b_j over
    all index pairs, shape (a.size, b.size). With wrap the differences are
    taken mod the target extent (relative to its offset) instead of having
    to fall inside it. The result is cached, so it is returned read-only."""
    diff = a.indices()[:, None, :] - b.indices()[None, :, :] - np.asarray(target.offset)
    if wrap:
        diff = np.mod(diff, np.asarray(target.extent))
    flat = np.ravel_multi_index(tuple(diff[..., k] for k in range(target.ndim)),
                                target.extent)
    flat.flags.writeable = False
    return flat


@lru_cache(maxsize=32)
def _valid_gather(data_box: IndexBox, filter_box: IndexBox) -> np.ndarray:
    """Flat indices into the data array for the exact lifted matrix:
    entry [row k, col l] reads the data at k - l."""
    gamma = valid_set(data_box, filter_box)
    _check_budget(gamma.size, filter_box.size)
    return diff_index(gamma, filter_box, data_box)


def apply_lift(spec: LiftingSpec, x: ComplexGrid, h: ComplexGrid) -> list[ComplexGrid]:
    """Lifted matrix times a filter, via FFTs: one valid-region convolution
    per block."""
    if h.box != spec.filter_box:
        raise ValueError("filter grid must live on the lifting filter box")
    gamma = spec.valid_box
    out = []
    for y in spec.weighted_data(x):
        conv = circ_conv(ComplexGrid(spec.data_box, y), h)
        out.append(restrict(conv, gamma))
    return out


def materialize_exact(spec: LiftingSpec, x: ComplexGrid) -> np.ndarray:
    """Dense exact lifting, blocks stacked vertically (oracle scale only)."""
    rows, cols = spec.shape_exact
    _check_budget(rows, cols)
    flat = _valid_gather(spec.data_box, spec.filter_box)
    return np.concatenate([y.ravel()[flat] for y in spec.weighted_data(x)], axis=0)


def materialize_surrogate(spec: LiftingSpec, x: ComplexGrid) -> np.ndarray:
    """Dense circulant surrogate, blocks stacked vertically."""
    rows, cols = spec.shape_surrogate
    _check_budget(rows, cols)
    # row position m reads the data at position (m - l) mod extent
    flat = diff_index(spec.data_box, spec.filter_box, spec.data_box, wrap=True)
    return np.concatenate([y.ravel()[flat] for y in spec.weighted_data(x)], axis=0)


def gram_surrogate(spec: LiftingSpec, x: ComplexGrid) -> np.ndarray:
    """Gram matrix of the surrogate lifting, by windowed FFT autocorrelation.

    Per block the circular autocorrelation g = ifft(|fft(M_j x)|^2) generates
    the circulant normal matrix; generators are summed over blocks and then
    windowed once: G[a, b] = g[(k_a - k_b) mod extent] over absolute filter
    indices k_a, k_b.
    """
    g = np.zeros(spec.data_box.extent, dtype=np.complex128)
    for y in spec.weighted_data(x):
        spectrum = np.fft.fftn(y)
        g += np.fft.ifftn(np.abs(spectrum) ** 2)
    lags = IndexBox((0,) * spec.data_box.ndim, spec.data_box.extent)
    G = g.ravel()[diff_index(spec.filter_box, spec.filter_box, lags, wrap=True)]
    return 0.5 * (G + G.conj().T)


def lift_adjoint(spec: LiftingSpec, X: np.ndarray) -> ComplexGrid:
    """Adjoint of x -> exact lifted matrix, applied to a stacked matrix X."""
    rows, cols = spec.shape_exact
    if X.shape != (rows, cols):
        raise ValueError(f"expected stacked matrix of shape {(rows, cols)}")
    flat = _valid_gather(spec.data_box, spec.filter_box)
    L = spec.data_box.size
    out = np.zeros(spec.data_box.extent, dtype=np.complex128)
    m_gamma = spec.valid_box.size
    for j, w in enumerate(spec.weightings):
        acc = np.zeros(L, dtype=np.complex128)
        np.add.at(acc, flat, X[j * m_gamma:(j + 1) * m_gamma])
        out += np.conj(w.weights_on(spec.data_box)) * acc.reshape(spec.data_box.extent)
    return ComplexGrid(spec.data_box, out)


def lift_normal_diagonal(spec: LiftingSpec) -> np.ndarray:
    """Diagonal of T*T for the exact lifting: per-entry lift multiplicity
    times the summed squared weights."""
    flat = _valid_gather(spec.data_box, spec.filter_box)
    count = np.zeros(spec.data_box.size)
    np.add.at(count, flat, 1.0)
    wsq = sum(np.abs(w.weights_on(spec.data_box)) ** 2 for w in spec.weightings)
    return count.reshape(spec.data_box.extent) * wsq
