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
circular autocorrelation, computed with one FFT per block and one inverse
FFT of the summed power spectra, and indexed by filter-index differences
(lags). Its real form Q^* G Q is one gather from the autocorrelation through
a cached lag index (real_gram), and the adjoint of that gather
(real_gram_adjoint) scatter-adds a real weight matrix's blocks back to lags
through the same index.

Every layer reads the per-block weight arrays M_j from the spec that
defines them: LiftingSpec.block_weights builds them once, on first use, as
one read-only (K, *extent) stack, and hands it to the Gram, the inner
least-squares solvers and the exact lifting. Iterating the stack yields the
per-block arrays; the FFT layers transform the whole stack in one call per
direction (block_fftn, block_ifftn). The inner solvers' F diag(s) F^-1
(fourier_diagonal) is that FFT pair on large grids and one dense circulant
matrix per block on small ones, where an FFT call costs mostly overhead.

Dense materializations are oracles for tests and small problems only and are
capped by ORACLE_BUDGET entries; exceeding the cap raises BudgetError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grids import (
    ComplexGrid,
    IndexBox,
    circ_conv,
    diff_index,
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
    "autocorrelation",
    "gram_surrogate",
    "real_gram",
    "real_gram_adjoint",
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
    one axis (k the absolute index).
    """

    kind: str
    axis: int | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "fourier_derivative"):
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        if self.kind == "fourier_derivative" and (self.axis is None or self.axis < 0):
            raise ValueError("fourier_derivative weighting needs a nonnegative axis")

    @classmethod
    def identity(cls) -> "WeightingOp":
        return cls("identity")

    @classmethod
    def fourier_derivative(cls, axis: int) -> "WeightingOp":
        return cls("fourier_derivative", axis=axis)

    def weights_on(self, box: IndexBox) -> np.ndarray:
        """Dense weight array on the given box."""
        if self.kind == "identity":
            return np.ones(box.extent, dtype=np.complex128)
        k = box.axis_indices(self.axis).astype(np.complex128)
        shape = [1] * box.ndim
        shape[self.axis] = box.extent[self.axis]
        return np.broadcast_to(2j * np.pi * k.reshape(shape), box.extent).copy()


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
        if any(w.axis is not None and w.axis >= self.data_box.ndim for w in self.weightings):
            raise ValueError("derivative axis out of range for the data box")

    @cached_property
    def block_weights(self) -> np.ndarray:
        """Weight arrays M_j of the weightings on the data box, stacked into
        one (K, *extent) array: built on first use and shared by every
        caller, so read-only (and so is each block it iterates over)."""
        ws = np.stack([w.weights_on(self.data_box) for w in self.weightings])
        ws.flags.writeable = False
        return ws

    @cached_property
    def weight_energy(self) -> np.ndarray:
        """sum_j |M_j|^2 of block_weights: built on first use, read-only."""
        wsq = sum(np.abs(w) ** 2 for w in self.block_weights)
        wsq.flags.writeable = False
        return wsq

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

    def weighted_data(self, x: ComplexGrid) -> np.ndarray:
        """Weighted data arrays M_j x on the data box, stacked like
        block_weights."""
        if x.box != self.data_box:
            raise ValueError("grid box does not match the lifting data box")
        return self.block_weights * x.values

    def with_data_box(self, box: IndexBox) -> "LiftingSpec":
        """Same lifting on a different (typically enlarged) data box."""
        return LiftingSpec(box, self.filter_box, self.weightings)


def _check_budget(rows: int, cols: int) -> None:
    if rows * cols > ORACLE_BUDGET:
        raise BudgetError(f"dense lifting of {rows} x {cols} entries exceeds "
                          f"the {ORACLE_BUDGET} entry budget")


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
    return _gather_blocks(spec, spec.weighted_data(x))


def _gather_blocks(spec: LiftingSpec, ys: np.ndarray) -> np.ndarray:
    """Exact lifting on arrays: the valid gather of each per-block weighted
    data array in the stack ys, blocks stacked vertically."""
    flat = _valid_gather(spec.data_box, spec.filter_box)
    return np.concatenate([y.ravel()[flat] for y in ys], axis=0)


def materialize_surrogate(spec: LiftingSpec, x: ComplexGrid) -> np.ndarray:
    """Dense circulant surrogate, blocks stacked vertically."""
    rows, cols = spec.shape_surrogate
    _check_budget(rows, cols)
    # row position m reads the data at position (m - l) mod extent
    flat = diff_index(spec.data_box, spec.filter_box, spec.data_box, wrap=True)
    return np.concatenate([y.ravel()[flat] for y in spec.weighted_data(x)], axis=0)


def block_fftn(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """fftn of each block of a (K, *extent) stack, in one call. The extent
    and the axes are passed explicitly: given axes alone, numpy derives the
    shape through np.take, a cost per call. Each block gets the bits of its
    own fftn."""
    return np.fft.fftn(a, s=a.shape[1:], axes=tuple(range(1, a.ndim)), out=out)


def block_ifftn(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ifftn of each block of a (K, *extent) stack, in one call (see
    block_fftn)."""
    return np.fft.ifftn(a, s=a.shape[1:], axes=tuple(range(1, a.ndim)), out=out)


def interleaved(factor: np.ndarray) -> np.ndarray:
    """A real factor repeated along the last axis, to scale the float64 view
    of a complex array (real and imaginary parts alike) in one pass."""
    return np.repeat(factor, 2, axis=-1)


# Grids of at most this many points apply F diag(s) F^-1 as one dense
# matrix: the measured crossover (1 BLAS thread, matrix build included)
# against the FFT pair, which costs mostly per-call overhead on small grids.
_DENSE_GRID = 240


def fourier_diagonal(s: np.ndarray):
    """The operator V -> fftn(s * ifftn(V)) on each block of a (K, *extent)
    stack, for a real s on the data box, returned as apply(V, out): it
    writes into out, a C-contiguous stack of V's shape that is not V, and
    returns it.

    Above _DENSE_GRID points, apply runs block_ifftn into out, scales it by
    s and runs block_fftn in place. Up to _DENSE_GRID points the operator is
    circulant in the Fourier-index domain, out[k] = sum_j V[j] c[j - k] with
    c = ifftn(s) (multi-level, indices mod the extent), so it is built once
    as the dense matrix CT[j, k] = c[(j - k) mod extent], one gather through
    the cached wrapped difference index, and apply multiplies each block's
    flat vector by CT. It does so as one matmul over a (K, 1, N) stack,
    which numpy runs as one vector-matrix product per block and so gives
    each block the bits of its own v @ CT; a (K, N) @ CT product would run
    one matrix-matrix product, whose bits differ."""
    if s.size > _DENSE_GRID:
        factor = interleaved(s)

        def apply(V, out):
            block_ifftn(V, out=out)
            flat = out.view(np.float64)
            np.multiply(flat, factor, out=flat)
            return block_fftn(out, out=out)

        return apply

    lags = IndexBox((0,) * s.ndim, s.shape)
    CT = np.fft.ifftn(s).ravel()[diff_index(lags, lags, lags, wrap=True)]

    def apply(V, out):
        np.matmul(V.reshape(len(V), 1, -1), CT, out=out.reshape(len(out), 1, -1))
        return out

    return apply


def block_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the blocks of a (K, *extent) stack, added block by block in
    order onto zeros, as a loop of += would; written into out if given."""
    return np.add.reduce(a, axis=0, initial=0.0, out=out)


def autocorrelation(spec: LiftingSpec, x: ComplexGrid) -> np.ndarray:
    """Circular autocorrelation g = ifft(sum_j |fft(M_j x)|^2) of the
    weighted data on the lag grid (data extent, lag 0 first), the generator
    of the surrogate's circulant normal matrix: one FFT over the stacked
    blocks, squared in place as re^2 + im^2 on its float view (the sum
    written over the real parts), the K power spectra added block by block
    onto zeros into one real grid, and one inverse FFT of that sum.
    Returned as its Hermitian part, so g[-d] == conj(g[d]) to the last
    bit."""
    f = block_fftn(spec.weighted_data(x)).view(np.float64)
    np.multiply(f, f, out=f)
    power = f[..., ::2]
    np.add(power, f[..., 1::2], out=power)
    g = np.fft.ifftn(block_sum(power))
    negated = np.roll(np.flip(g), 1, axis=tuple(range(g.ndim)))  # g[-d mod extent]
    return 0.5 * (g + negated.conj())


def gram_surrogate(spec: LiftingSpec, x: ComplexGrid) -> np.ndarray:
    """Complex Gram matrix of the surrogate lifting, G[a, b] = g[(k_a - k_b)
    mod extent] over absolute filter indices, g the autocorrelation. The
    solver works on its real form (real_gram) and never forms it."""
    return autocorrelation(spec, x).ravel()[_lag_index(spec)]


def _lag_index(spec: LiftingSpec, rows: int | None = None) -> np.ndarray:
    """Flat indices into the lag grid (data extent, lag 0 first) of the
    filter-index differences k_a - k_b mod the extent, over the first `rows`
    filter positions a (all of them by default) and every position b."""
    lags = IndexBox((0,) * spec.data_box.ndim, spec.data_box.extent)
    return diff_index(spec.filter_box, spec.filter_box, lags, wrap=True, rows=rows)


def real_gram(spec: LiftingSpec, g: np.ndarray) -> np.ndarray:
    """Real symmetric form R = Q^* G Q of the surrogate Gram matrix G, of the
    same order and eigenvalues (G is centrohermitian), gathered straight
    from the Hermitian autocorrelation g. Q has columns, k < m = n // 2:
    (e_k + e_{n-1-k}) / sqrt(2); e_m for odd n; i (e_k - e_{n-1-k}) / sqrt(2).
    With t = G[:m, :m] and h = G[:m, ::-1][:, :m], one gather of g through
    the top half of the lag index, R has blocks Re(t + h), Im(t + h) and its
    transpose, Re(t - h); for odd n its middle column is sqrt(2) G[:m, m],
    real and imaginary parts around Re g[0]."""
    n = spec.n_filter
    m, lo = n // 2, n - n // 2
    v = g.ravel()[_lag_index(spec, m)]
    t, h = v[:, :m], v[:, ::-1][:, :m]
    R = np.empty((n, n))
    np.add(t.real, h.real, out=R[:m, :m])
    np.subtract(t.real, h.real, out=R[lo:, lo:])
    np.add(t.imag, h.imag, out=R[lo:, :m])
    R[:m, lo:] = R[lo:, :m].T
    if n % 2:
        np.multiply(v[:, m].real, math.sqrt(2.0), out=R[:m, m])
        np.multiply(v[:, m].imag, math.sqrt(2.0), out=R[lo:, m])
        R[m, m] = g.flat[0].real
        R[m] = R[:, m]
    return R


def real_gram_adjoint(spec: LiftingSpec, M: np.ndarray) -> np.ndarray:
    """Adjoint of real_gram: the lag vector a with <real_gram(g), M> = Re <g,
    a> for every Hermitian g and every real M. Each top-half lag index entry
    gets the weight real_gram read it with, straight from M's blocks: M11 +
    M33 and M11 - M33 at Toeplitz and Hankel positions in the real part,
    M31 + M13^T at both in the imaginary part, sqrt(2) (M[:m, m] + M[m, :m])
    and sqrt(2) (M[lo:, m] + M[m, lo:]) in the middle column, and lag 0 gets
    M[m, m]. The Hermitian part of a, whose inverse FFT is ifftn(a).real, is
    the filter-difference sum of Q (M + M^T) Q^* / 2. np.add.at scatters
    through the cached, read-only lag index in place; np.bincount copies it."""
    n = spec.n_filter
    m, lo = n // 2, n - n // 2
    wr, wi = np.zeros((m, n)), np.zeros((m, n))
    np.add(M[:m, :m], M[lo:, lo:], out=wr[:, :m])  # Toeplitz
    np.subtract(M[:m, :m], M[lo:, lo:], out=wr[:, ::-1][:, :m])  # Hankel
    np.add(M[lo:, :m], M[:m, lo:].T, out=wi[:, :m])
    wi[:, ::-1][:, :m] = wi[:, :m]
    if n % 2:
        np.multiply(M[:m, m] + M[m, :m], math.sqrt(2.0), out=wr[:, m])
        np.multiply(M[lo:, m] + M[m, lo:], math.sqrt(2.0), out=wi[:, m])
    top = _lag_index(spec, m).ravel()
    ar, ai = np.zeros(spec.data_box.size), np.zeros(spec.data_box.size)
    np.add.at(ar, top, wr.ravel())
    np.add.at(ai, top, wi.ravel())
    a = ar + 1j * ai
    if n % 2:
        a[0] += M[m, m]
    return a.reshape(spec.data_box.extent)


def _scatter_blocks(spec: LiftingSpec, X: np.ndarray) -> np.ndarray:
    """Adjoint of the exact lifting on arrays: the sum over blocks j of
    conj(M_j) times block j of X scatter-added through the valid gather.
    np.add.at gets the flat index, whose fast path sums in the same row-major
    order as the (row, filter) index."""
    gather = _valid_gather(spec.data_box, spec.filter_box)
    m_gamma, flat = gather.shape[0], gather.ravel()
    out = np.zeros(spec.data_box.extent, dtype=np.complex128)
    for j, w in enumerate(spec.block_weights):
        acc = np.zeros(spec.data_box.size, dtype=np.complex128)
        np.add.at(acc, flat, X[j * m_gamma:(j + 1) * m_gamma].ravel())
        out += np.conj(w) * acc.reshape(spec.data_box.extent)
    return out


def lift_adjoint(spec: LiftingSpec, X: np.ndarray) -> ComplexGrid:
    """Adjoint of x -> exact lifted matrix, applied to a stacked matrix X."""
    rows, cols = spec.shape_exact
    if X.shape != (rows, cols):
        raise ValueError(f"expected stacked matrix of shape {(rows, cols)}")
    return ComplexGrid(spec.data_box, _scatter_blocks(spec, X))


def lift_normal_diagonal(spec: LiftingSpec) -> np.ndarray:
    """Diagonal of T*T for the exact lifting: per-entry lift multiplicity
    times the summed squared weights."""
    flat = _valid_gather(spec.data_box, spec.filter_box)
    count = np.zeros(spec.data_box.size)
    np.add.at(count, flat.ravel(), 1.0)
    return count.reshape(spec.data_box.extent) * spec.weight_energy
