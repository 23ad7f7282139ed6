"""Iteratively reweighted annihilating-filter recovery (GIRAF).

The solver alternates two matrix-free steps on gridded Fourier data:

1. Filter update. All it needs from the lifting is the circular
   autocorrelation g of the weighted data at lags between filter positions.
   The surrogate Gram matrix G[a, b] = g[k_a - k_b] is centrohermitian, so
   a sparse unitary Q makes R = Q^* G Q real symmetric with the same
   eigenvalues; R is gathered straight from g through one cached lag index,
   and G is never formed. One _GramPenalty per outer iterate gives the loop
   three things from R, in real arithmetic: eigenvalues (the smoothing
   schedule and the singular-value range; for p = 0 only at the first and
   the last iterate, and at the first only the largest, by Lanczos, on
   large Grams), the smoothed penalty at eps, and the weights from
   (R + eps I)^(p/2 - 1), by an eigendecomposition for p > 0 and for p = 0
   by the inverse of a Cholesky factor L, formed blockwise on matrix
   products (L^-T L^-1, cost sum log diag L). The adjoint
   of the gather scatters the weight matrix back to lags, and one inverse
   FFT gives the nonnegative spatial weights d. Direct IRLS supplies the
   same three from an SVD of the exact lifting, through the same loop.

2. Least squares. Minimize ||A x - b||^2 + lam * C_p * sum_j ||D^{1/2} F^*
   M_j x||^2 with D = diag(d), solved either by ADMM with a splitting
   y_j = F^* M_j x (every subproblem is diagonal) or by conjugate gradients
   on the normal equations. Each pass of either applies F D' F^* for a real
   diagonal D' (lifting.fourier_diagonal): an FFT pair over the stacked
   blocks on large grids, and on grids of at most lifting._DENSE_GRID points
   one dense circulant matrix per block, built once per solve from one
   inverse FFT.

An epsilon smoothing schedule eps_n = max(eps0 * eta^-n, eps_min) steers the
reweighting from convex-like to sharply rank-seeking; with eps frozen the
iteration is a majorize-minimize scheme and the smoothed objective is
non-increasing.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import get_args, get_type_hints

import numpy as np

from .grids import ComplexGrid, IndexBox, minkowski_sum, reflect, restrict
from .lifting import (
    LiftingSpec,
    autocorrelation,
    block_sum,
    fourier_diagonal,
    interleaved,
    real_gram,
    real_gram_adjoint,
)
from .models import SamplingOp, nmse

__all__ = [
    "ConfigError",
    "SolverError",
    "SolverConfig",
    "IterationRecord",
    "RecoveryTrace",
    "filter_update",
    "admm_ls",
    "cg_ls",
    "eps_schedule",
    "first_step",
    "giraf_solve",
    "oversampled_box",
]


class ConfigError(Exception):
    """Invalid solver or experiment configuration."""


class SolverError(Exception):
    """Numerical failure inside a solver."""


def _field_types(cls) -> dict[str, tuple[type, ...]]:
    """The types each field of a config dataclass admits, read off its type
    hints (X | None admits NoneType): the source of the CLI's solver schema
    and of validate()'s integer check."""
    return {name: get_args(hint) or (hint,) for name, hint in get_type_hints(cls).items()}


def _check_integers(config) -> None:
    """An int-hinted field holds an integer (not a bool), or None where its
    hint admits None: an integral float such as 2.0 is refused here, since
    the solvers count with these fields."""
    for name, types in _field_types(type(config)).items():
        value = getattr(config, name)
        if int not in types or (value is None and type(None) in types):
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_reweighting(config) -> None:
    """Checks of the fields GIRAF and direct IRLS both read."""
    if not 0.0 <= config.p <= 1.0:
        raise ConfigError("p must lie in [0, 1]")
    if config.eps0 != "auto" and not (isinstance(config.eps0, (int, float)) and config.eps0 > 0):
        raise ConfigError("eps0 must be 'auto' or a positive number")
    if not config.eta > 1.0:
        raise ConfigError("eta must exceed 1")
    if config.eps_min is not None and not config.eps_min > 0:
        raise ConfigError("eps_min must be positive")
    if config.inner_iters < 1:
        raise ConfigError("inner_iters must be at least 1")
    if not config.cg_tol >= 0:
        raise ConfigError("cg_tol must be nonnegative")


@dataclass
class SolverConfig:
    """Knobs for giraf_solve.

    lam is the regularization weight; lam=None selects the equality-
    constrained mode where measured samples are held exactly. eps0="auto"
    sets the initial smoothing to lambda_max/100 from the first iterate's
    Gram spectrum. eps_min=None defaults to eps0 * eta^-outer_iters, floored
    at 1e-9 * eps0. oversample_factor sizes the box that oversample turns on
    (see oversampled_box) and is refused without it.
    """

    p: float = 0.0
    lam: float | None = None
    eps0: float | str = "auto"
    eta: float = 1.2
    eps_min: float | None = None
    outer_iters: int = 12
    ls_solver: str = "admm"
    inner_iters: int = 20
    delta: float = 10.0
    cg_tol: float = 1e-12
    oversample: bool = False
    oversample_factor: float | None = None

    def validate(self) -> None:
        _check_integers(self)
        _check_reweighting(self)
        if self.lam is not None and not self.lam > 0:
            raise ConfigError("lambda must be positive (or None for equality mode)")
        if self.outer_iters < 1:
            raise ConfigError("outer_iters must be at least 1")
        if self.ls_solver not in ("admm", "cg"):
            raise ConfigError("ls_solver must be 'admm' or 'cg'")
        if not self.delta >= 1:
            raise ConfigError("delta must be at least 1")
        if self.oversample_factor is not None and not self.oversample_factor >= 1.0:
            raise ConfigError("oversample factor must be at least 1")
        if self.oversample_factor is not None and not self.oversample:
            raise ConfigError("oversample_factor needs oversample")


def schatten_weight(p: float) -> float:
    """The constant C_p multiplying the reweighted quadratic: p/2 for p > 0
    and 1/2 for p = 0."""
    return p / 2 if p > 0 else 0.5


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    eps: float
    nmse: float | None
    cost: float | None
    sigma_min: float | None
    sigma_max: float | None
    seconds: float


@dataclass
class RecoveryTrace:
    """Final iterate plus per-iteration diagnostics."""

    x: ComplexGrid
    records: list[IterationRecord]
    algorithm: str
    eps0: float | None = None
    phase_seconds: dict = field(default_factory=dict)

    @property
    def final_nmse(self) -> float | None:
        return self.records[-1].nmse if self.records else None


_TRIL_BLOCK = 64  # rows up to which np.linalg.cholesky and inv factor a block
# Gram orders above which Lanczos, not eigvalsh, gives the first lambda_max:
# on 2-D Grams at one BLAS thread eigvalsh took 6.8 ms at order 324 against
# 7.5 ms, Lanczos 7.9 ms at 361 against 8.9 ms, and 13 against 28 ms at 625
_LANCZOS_ORDER = 350
_LANCZOS_STEPS = 128  # Lanczos steps before eigvalsh takes over
_LANCZOS_TOL = 1e-12  # Ritz residual, relative to the Ritz value, that stops Lanczos


def _cholesky_inverse(A: np.ndarray, inverse: bool = True) -> float:
    """Return sum log diag L for L the lower Cholesky factor of the symmetric
    positive definite A, and with inverse overwrite A with L^-1. One halving
    recursion on matrix products: with A = [[A11, .], [A21, A22]], L11 the
    factor of A11, L21 = A21 L11^-T, L22 the factor of the Schur complement
    A22 - L21 L21^T, the inverse is [[L11^-1, 0], [-L22^-1 L21 L11^-1,
    L22^-1]]. Without inverse the off-diagonal block and the base blocks'
    inv are skipped (L21 still needs L11^-1), the same sum comes out to the
    last bit and A is left as scratch. np.linalg.cholesky and inv run on
    blocks of at most _TRIL_BLOCK rows only. Reads the lower triangle of A;
    with inverse, leaves zeros above the diagonal. A block that is not
    positive definite raises np.linalg.LinAlgError, with A partly
    overwritten."""
    n = A.shape[0]
    if n <= _TRIL_BLOCK:
        L = np.linalg.cholesky(A)
        if inverse:
            A[...] = np.tril(np.linalg.inv(L))
        return float(np.log(L.diagonal()).sum())
    h = n // 2
    A11, A21, A22 = A[:h, :h], A[h:, :h], A[h:, h:]
    logdet = _cholesky_inverse(A11)
    L21 = A21 @ A11.T
    A22 -= L21 @ L21.T
    logdet += _cholesky_inverse(A22, inverse)
    if inverse:
        np.matmul(A22 @ L21, A11, out=A21)
        np.negative(A21, out=A21)
        A[:h, h:] = 0.0
    return logdet


def _lanczos_lam_max(R: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric R by a Lanczos iteration with full
    reorthogonalization (Lanczos 1950; Parlett, The Symmetric Eigenvalue
    Problem), from a fixed start vector, so that reruns give the same bits.
    It stops once the Ritz residual beta_k |s_k| of the largest Ritz value
    (s the Ritz vector in the Krylov basis) is at most _LANCZOS_TOL of the
    value, which is then within that residual of an eigenvalue; an
    invariant subspace (beta_k = 0) stops it too. Without a stop within
    _LANCZOS_STEPS steps, eigvalsh gives the value."""
    n = R.shape[0]
    steps = min(n, _LANCZOS_STEPS)
    basis = np.empty((steps, n))
    T = np.zeros((steps, steps))  # the tridiagonal projection of R, row by row
    q = np.random.default_rng(0).standard_normal(n)
    basis[0] = q / np.linalg.norm(q)
    for k in range(steps):
        w = R @ basis[k]
        T[k, k] = basis[k] @ w
        Q = basis[:k + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice is enough
            w -= (Q @ w) @ Q
        beta = np.linalg.norm(w)
        ritz, S = np.linalg.eigh(T[:k + 1, :k + 1])
        top = ritz[-1]
        if not math.isfinite(top) or beta * abs(S[-1, -1]) <= _LANCZOS_TOL * abs(top):
            return float(top)
        if k + 1 < steps:
            basis[k + 1] = w / beta
            T[k, k + 1] = T[k + 1, k] = beta
    return float(np.linalg.eigvalsh(R)[-1])


def _weights_from(spec: LiftingSpec, M: np.ndarray) -> np.ndarray:
    """Spatial weights (real) of the real weight matrix M: real_gram_adjoint
    scatters it to lags, numpy's unnormalized ifftn takes them to space. That
    is the unitary inverse over sqrt(L), the scale making d the sum over
    eigenfilters h_i of |unitary inverse DFT of padded h_i|^2. A non-finite M
    spreads everywhere: one scan checks."""
    draw = np.fft.ifftn(real_gram_adjoint(spec, M)).real
    top = float(np.max(np.abs(draw)))
    if not math.isfinite(top):
        raise SolverError("annihilation weights are not finite")
    if np.min(draw) < -1e-12 * max(1.0, top):
        raise SolverError("annihilation weights lost positivity")
    return np.maximum(draw, 0.0)


class _GramPenalty:
    """The smoothed penalty of the surrogate lifting at one iterate x, as the
    four members _reweighted_loop reads: eigvals (the Gram eigenvalues
    clipped at zero, or None), lam_max (the largest of them, or None),
    cost(eps) and weights(eps). The linear algebra runs on the real form R
    (real_gram), which has the Gram's eigenvalues, and computes only what is
    asked for. With weighted, p > 0 takes eigh, whose vectors give the
    weight matrix V diag((eigvals + eps)^(p/2 - 1)) V^T, and p = 0 keeps R
    for the inverse L^-1 of a Cholesky factor L of R + eps I, whose L^-T
    L^-1 is (R + eps I)^-1; there values asks for lam_max only, which
    Lanczos gives above _LANCZOS_ORDER. Otherwise eigvalsh runs when values
    is set. R + eps I is positive definite, so a failed factorization means
    the data overflowed or eps fell below R's rounding: a SolverError."""

    def __init__(self, spec: LiftingSpec, x: ComplexGrid, p: float, values: bool = True,
                 weighted: bool = True):
        self.spec, self.p = spec, p
        self._R = self._V = w = None
        self.lam_max = None
        R = real_gram(spec, autocorrelation(spec, x))
        try:
            if weighted and p > 0:
                w, self._V = np.linalg.eigh(R)
            elif values and weighted and R.shape[0] > _LANCZOS_ORDER:
                self.lam_max = max(_lanczos_lam_max(R), 0.0)
            elif values:
                w = np.linalg.eigvalsh(R)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Gram eigendecomposition failed: {exc}") from exc
        if weighted and p == 0:
            self._R = R
        self.eigvals = None if w is None else np.maximum(w, 0.0)
        if self.eigvals is not None:
            self.lam_max = float(np.max(self.eigvals))

    @staticmethod
    def _factor(A: np.ndarray, eps: float, inverse: bool) -> float:
        """_cholesky_inverse of A + eps I, formed in A."""
        A.flat[::A.shape[0] + 1] += eps
        try:
            return _cholesky_inverse(A, inverse)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Gram Cholesky factorization failed: {exc}") from exc

    def cost(self, eps: float) -> float:
        """Smoothed Schatten penalty at eps: from the eigenvalues where they
        were taken, else (p = 0) sum log diag L, by a log-det-only pass on
        a copy of R."""
        if self.eigvals is not None:
            return _smoothed_schatten_eigs(self.eigvals, self.p, eps)
        return self._factor(self._R.copy(), eps, inverse=False)

    def weights(self, eps: float) -> np.ndarray:
        """Spatial weights d of the weight matrix (R + eps I)^(p/2 - 1), the
        last use of this object: for p = 0, L^-1 is formed in R's storage and
        let go once L^-T L^-1 is, so that neither R nor L^-1 is held while
        the weights are assembled."""
        if eps <= 0:
            raise SolverError("filter update needs a positive epsilon")
        if self.p > 0:
            M = (self._V * (self.eigvals + eps) ** (self.p / 2.0 - 1.0)) @ self._V.T
        else:
            Linv, self._R = self._R, None
            self._factor(Linv, eps, inverse=True)
            M = Linv.T @ Linv
            del Linv
        return _weights_from(self.spec, M)


def filter_update(spec: LiftingSpec, x: ComplexGrid, eps: float, p: float) -> np.ndarray:
    """Spatial weights d of the annihilating filter at the current iterate, the
    diagonal D of the least-squares step: a real array of the data box's extent."""
    return _GramPenalty(spec, x, p, values=False).weights(eps)


def _check_coverage(spec: LiftingSpec, sampling: SamplingOp) -> np.ndarray:
    """Summed squared block weights sum_j |M_j|^2 of the lifting on its data
    box (spec.weight_energy), once checked to cover every unmeasured entry."""
    wsq = spec.weight_energy
    dead = (wsq == 0) & ~sampling.mask
    if np.any(dead):
        raise ConfigError(
            "weighting vanishes on unmeasured entries (sample k = 0 when "
            "using derivative weightings)")
    return wsq


def _check_weights(spec: LiftingSpec, d: np.ndarray) -> None:
    """d is real and of the data box's extent; another shape would broadcast."""
    if np.iscomplexobj(d) or np.shape(d) != spec.data_box.extent:
        raise ValueError(f"weights must be a real array of shape {spec.data_box.extent}")


def admm_ls(spec: LiftingSpec, sampling: SamplingOp, d: np.ndarray,
            lam: float | None, p: float, iters: int = 200, delta: float = 10.0,
            x0: ComplexGrid | None = None, callback=None) -> ComplexGrid:
    """ADMM for the weighted least-squares step.

    Splitting z_j = F y_j = M_j x with scaled duals u_j in the Fourier index
    domain; the y update is a diagonal shrinkage in space, the x update a
    diagonal solve in Fourier indices, with penalty gamma = max(d)/delta.
    lam=None holds the measured samples fixed (equality mode).

    The K blocks are stacked in (K, *extent) buffers allocated once, so an
    iteration allocates only its new iterate x, and the shrinkage F
    diag(gamma/(d + gamma)) F^* is one lifting.fourier_diagonal, built once
    per call: an FFT per direction over the stack, or on small grids one
    dense matrix product per block. The dual update of an iteration runs at
    the top of the next one, so that the last iteration skips it. Sums and
    differences run on float64 views and the real factors scale both parts
    of a float64 view, which gives the bits of the complex operations they
    replace (numpy divides a complex by a real as a product with its
    reciprocal). A final iterate that is not finite is a SolverError.
    """
    _check_weights(spec, d)
    wsq = _check_coverage(spec, sampling)
    gam = float(np.max(d)) / delta
    bvals = sampling.b.values
    if gam <= 0 or (lam is not None and lam * schatten_weight(p) == 0):
        # no effective regularizer: the least-squares solution is A* b
        return ComplexGrid(spec.data_box, bvals.copy())

    shrink = fourier_diagonal(gam / (d + gam))
    if lam is None:
        rden = interleaved(1.0 / np.where(wsq > 0, wsq, 1.0))
        measured = np.flatnonzero(sampling.mask)
        bmeasured = bvals.ravel()[measured]
    else:
        rho = gam * lam * schatten_weight(p)
        rden = interleaved(1.0 / (sampling.mask.astype(float) + rho * wsq))
        bflat = bvals.view(np.float64)

    W = spec.block_weights
    Wc = np.conj(W)
    x = (x0.values if x0 is not None else bvals).copy()
    WX = np.empty_like(W)
    U = np.zeros_like(W)
    Z = np.empty_like(W)
    S = np.empty_like(W)
    WXf, Uf, Zf, Sf = (a.view(np.float64) for a in (WX, U, Z, S))

    for it in range(iters):
        np.multiply(W, x, out=WX)
        if it:  # the previous iteration's dual update
            np.subtract(Zf, WXf, out=Sf)
            np.add(Uf, Sf, out=Uf)
        np.subtract(WXf, Uf, out=Sf)
        shrink(S, out=Z)
        np.add(Zf, Uf, out=Sf)
        np.multiply(Wc, S, out=S)
        x = block_sum(S)
        xf = x.view(np.float64)
        if lam is None:
            np.multiply(xf, rden, out=xf)
            x.ravel()[measured] = bmeasured
        else:
            np.multiply(xf, rho, out=xf)
            np.add(xf, bflat, out=xf)
            np.multiply(xf, rden, out=xf)
        if callback is not None:
            callback(it + 1, x)
    if not np.all(np.isfinite(x.view(np.float64))):
        raise SolverError("ADMM iterate is not finite")
    return ComplexGrid(spec.data_box, x)


def cg_ls(spec: LiftingSpec, sampling: SamplingOp, d: np.ndarray,
          lam: float | None, p: float, iters: int = 200, tol: float = 1e-12,
          x0: ComplexGrid | None = None, callback=None) -> ComplexGrid:
    """Conjugate gradients on the normal equations of the weighted
    least-squares step. Equality mode optimizes only the unmeasured entries
    with the measured ones pinned to the data. The regularizer applies F D
    F^* as one lifting.fourier_diagonal, built once per call, and writes
    into two (K, *extent) buffers allocated once."""
    _check_weights(spec, d)
    _check_coverage(spec, sampling)
    bvals = sampling.b.values
    if float(np.max(d)) <= 0 or (lam is not None and lam * schatten_weight(p) == 0):
        return ComplexGrid(spec.data_box, bvals.copy())

    W = spec.block_weights
    Wc = np.conj(W)
    reg = fourier_diagonal(d)
    V = np.empty_like(W)
    Y = np.empty_like(W)

    def reg_op(v):
        np.multiply(W, v, out=V)
        reg(V, out=Y)
        np.multiply(Wc, Y, out=Y)
        return block_sum(Y)

    x = _cg_normal(reg_op, sampling, lam, p, None if x0 is None else x0.values,
                   iters, tol, callback)
    return ComplexGrid(spec.data_box, x)


def _inner_solve(spec: LiftingSpec, sampling: SamplingOp, d: np.ndarray,
                 lam: float | None, p: float, config: SolverConfig,
                 x0: ComplexGrid | None = None, callback=None) -> ComplexGrid:
    """The weighted least-squares step by the inner solver config.ls_solver
    names, with config's inner_iters and its delta (admm) or cg_tol (cg).
    Both solvers return the measured samples in place in equality mode."""
    if config.ls_solver == "admm":
        return admm_ls(spec, sampling, d, lam, p, iters=config.inner_iters,
                       delta=config.delta, x0=x0, callback=callback)
    return cg_ls(spec, sampling, d, lam, p, iters=config.inner_iters,
                 tol=config.cg_tol, x0=x0, callback=callback)


def _cg_normal(penalty, sampling: SamplingOp, lam: float | None, p: float,
               x0: np.ndarray | None, iters: int, tol: float,
               callback=None) -> np.ndarray:
    """Conjugate gradients for min ||A x - b||^2 + lam C_p <x, penalty(x)>,
    penalty a Hermitian positive semidefinite operator on grid arrays.
    lam=None pins the measured samples and solves for the others only.
    callback(it, x) sees every iterate with the samples reinserted. A step
    length or residual that is not finite (data near the float range's
    ends) is a SolverError."""
    bvals = sampling.b.values
    if lam is None:
        free = ~sampling.mask

        def operator(v):
            return np.where(free, penalty(v), 0.0)

        def full(v):
            return np.where(free, v, bvals)

        rhs = np.where(free, -penalty(np.where(free, 0.0, bvals)), 0.0)
        x = np.where(free, x0, 0.0) if x0 is not None else np.zeros_like(bvals)
    else:
        maskf = sampling.mask.astype(float)
        weight = lam * schatten_weight(p)

        def operator(v):
            return maskf * v + weight * penalty(v)

        def full(v):
            return v

        rhs = bvals.copy()
        x = (x0 if x0 is not None else bvals).copy()

    r = rhs - operator(x)
    pvec = r.copy()
    rs = np.vdot(r, r).real
    rhs_norm = math.sqrt(np.vdot(rhs, rhs).real) or 1.0
    for it in range(iters):
        if math.sqrt(rs) <= tol * rhs_norm:
            break
        Ap = operator(pvec)
        alpha = rs / np.vdot(pvec, Ap).real
        x = x + alpha * pvec
        r = r - alpha * Ap
        rs_new = np.vdot(r, r).real
        if not (math.isfinite(alpha) and math.isfinite(rs_new)):
            raise SolverError(f"conjugate gradients went non-finite at step {it + 1}")
        pvec = r + (rs_new / rs) * pvec
        rs = rs_new
        if callback is not None:
            callback(it + 1, full(x))
    return full(x)


def oversampled_box(box: IndexBox, filter_box: IndexBox,
                    factor: float | None = None) -> IndexBox:
    """Enlarged working box: by default a margin of (filter extent - 1) per
    side (the doubled filter support), or symmetric margins reaching the
    requested oversampling factor."""
    if factor is None:
        doubled = minkowski_sum(filter_box, reflect(filter_box))
        return minkowski_sum(box, doubled)
    margins = [math.ceil((factor - 1.0) * e / 2.0) for e in box.extent]
    return IndexBox(tuple(o - m for o, m in zip(box.offset, margins)),
                    tuple(e + 2 * m for e, m in zip(box.extent, margins)))


def _smoothed_schatten_eigs(eigvals: np.ndarray, p: float, eps: float) -> float:
    """Smoothed Schatten penalty from squared singular values (equivalently
    Gram eigenvalues): sum (lambda + eps)^(p/2), or 1/2 sum log(lambda + eps)
    for p = 0. Summed in the order given."""
    if p > 0:
        return float(np.sum((eigvals + eps) ** (p / 2)))
    return float(0.5 * np.sum(np.log(eigvals + eps)))


def eps_schedule(lam_max: float, n_outer: int, eps0: float | str = "auto",
                 eta: float = 1.2, eps_min: float | None = None):
    """Smoothing schedule of a reweighted solve, set from the largest Gram
    eigenvalue lam_max of the first iterate's lifting.

    Returns (eps0, [eps_1, ..., eps_n_outer]) with eps_n = max(eps0 *
    eta^-(n-1), eps_min). eps0="auto" means lam_max/100; eps_min=None means
    eps0 * eta^-n_outer, floored at 1e-9 * eps0.
    """
    if not math.isfinite(lam_max):
        raise SolverError(f"largest eigenvalue of the first iterate's lifting is {lam_max}")
    if lam_max <= 0:
        raise SolverError("first iterate has an identically zero lifting")
    eps0 = lam_max / 100.0 if eps0 == "auto" else float(eps0)
    if eps_min is None:
        eps_min = max(eps0 * eta ** (-n_outer), 1e-9 * eps0)
    return eps0, [max(eps0 * eta ** (-(n - 1)), eps_min) for n in range(1, n_outer + 1)]


def _relative_step(new: np.ndarray, old: np.ndarray) -> float:
    """||new - old||^2 / ||old||^2, infinite when old is zero."""
    denom = float(np.linalg.norm(old) ** 2)
    return float(np.linalg.norm(new - old) ** 2) / denom if denom else math.inf


def _reweighted_loop(config, n_outer: int, lam: float | None, x: ComplexGrid,
                     sampling: SamplingOp, penalty_at, least_squares,
                     error, algorithm: str, tol: float) -> RecoveryTrace:
    """Outer iteration shared by GIRAF and direct IRLS.

    penalty_at(x, values, weighted) gives the smoothed penalty of the lifting
    at x as an object with four members: eigvals, its squared singular
    values (None where they were not taken), lam_max, the largest of them
    (None where not taken), cost(eps), the penalty at eps, and weights(eps),
    the reweighting least_squares(weights, x) -> x solves with. The penalty
    at the first iterate sets the smoothing schedule from its lam_max. Each
    iteration n solves at weights(eps_n) of the penalty in hand, then takes
    the penalty at its new iterate: that one gives row n its cost at eps_n
    and its singular-value range (None without eigenvalues), and the next
    iteration its weights. Eigenvalues are asked for (values=True) at the
    first iterate, where a weighted penalty may give lam_max alone, and at
    the last, whose penalty is unweighted; a penalty may have them anyway.
    config supplies p, eps0, eta and eps_min; lam=None is equality mode;
    error(x) gives the NMSE or is None. A relative step (_relative_step)
    below tol makes an iterate the last.
    """
    records: list[IterationRecord] = []
    t0 = time.perf_counter()
    penalty = penalty_at(x, True, True)
    eps0, schedule = eps_schedule(penalty.lam_max, n_outer, config.eps0, config.eta,
                                  config.eps_min)
    phases = {"filter_update": time.perf_counter() - t0, "least_squares": 0.0}
    for n, eps_n in enumerate(schedule, 1):
        tf = time.perf_counter()
        # without eigenvalues (p = 0, and its first iterate above
        # _LANCZOS_ORDER) a failed Cholesky factorization and the
        # finiteness scan of the weights stand in for this check
        if penalty.eigvals is not None:
            smallest = np.min(penalty.eigvals) + eps_n
            with np.errstate(divide="ignore", over="ignore"):
                if not np.isfinite(smallest ** (config.p / 2 - 1)):
                    raise SolverError(f"reweighting overflowed at iteration {n}: smallest "
                                      f"eigenvalue plus eps is {smallest:g}")
        weights = penalty.weights(eps_n)
        tl = time.perf_counter()
        x_prev, x = x, least_squares(weights, x)
        phases["least_squares"] += time.perf_counter() - tl
        data_term = float(np.linalg.norm((x.values - sampling.b.values)[sampling.mask]) ** 2)
        err = None if error is None else error(x)
        seconds = time.perf_counter() - t0
        last = n == n_outer or (tol > 0 and _relative_step(x.values, x_prev.values) < tol)
        tp = time.perf_counter()
        penalty = penalty_at(x, last, not last)
        sigma_min = sigma_max = None
        if penalty.eigvals is not None:
            sigma_min = math.sqrt(max(float(np.min(penalty.eigvals)), 0.0))
            sigma_max = math.sqrt(max(float(np.max(penalty.eigvals)), 0.0))
        sch = penalty.cost(eps_n)
        records.append(IterationRecord(
            iteration=n, eps=eps_n, nmse=err,
            cost=sch if lam is None else data_term + lam * sch,
            sigma_min=sigma_min, sigma_max=sigma_max, seconds=seconds))
        phases["filter_update"] += tl - tf + time.perf_counter() - tp
        if last:
            break
    return RecoveryTrace(x=x, records=records, algorithm=algorithm, eps0=eps0,
                         phase_seconds=phases)


def _working_problem(spec: LiftingSpec, sampling: SamplingOp, config: SolverConfig):
    """Spec and sampling operator a solve works on, config validated: on the
    oversampled box when config asks for it, checked for weighting coverage."""
    config.validate()
    if sampling.box != spec.data_box:
        raise ConfigError("sampling operator does not live on the data box")
    if config.oversample:
        big = oversampled_box(spec.data_box, spec.filter_box, config.oversample_factor)
        spec, sampling = spec.with_data_box(big), sampling.embed(big)
    _check_coverage(spec, sampling)
    return spec, sampling


def first_step(spec: LiftingSpec, sampling: SamplingOp, config: SolverConfig):
    """(work_spec, work_sampling, d, eps0): the working problem of giraf_solve,
    the weights d of its first step (zero-filled iterate, eps = max(eps0,
    eps_min), the schedule's first) and the resolved eps0."""
    spec, sampling = _working_problem(spec, sampling, config)
    penalty = _GramPenalty(spec, sampling.zero_filled(), config.p)
    eps0, schedule = eps_schedule(penalty.lam_max, config.outer_iters, config.eps0,
                                  config.eta, config.eps_min)
    return spec, sampling, penalty.weights(schedule[0]), eps0


def giraf_solve(spec: LiftingSpec, sampling: SamplingOp, config: SolverConfig,
                ground_truth: ComplexGrid | None = None) -> RecoveryTrace:
    """Run the full reweighted recovery; returns the iterate restricted to
    the original data box plus per-iteration diagnostics."""
    work_spec, samp = _working_problem(spec, sampling, config)
    error = None if ground_truth is None else (
        lambda x: nmse(restrict(x, spec.data_box), ground_truth))
    trace = _reweighted_loop(
        config, config.outer_iters, config.lam, samp.zero_filled(), samp,
        penalty_at=lambda x, values, weighted: _GramPenalty(work_spec, x, config.p,
                                                            values, weighted),
        least_squares=lambda d, x: _inner_solve(work_spec, samp, d, config.lam, config.p,
                                                config, x0=x),
        error=error, algorithm=f"giraf{config.p:g}", tol=0.0)
    trace.x = restrict(trace.x, spec.data_box)
    return trace
