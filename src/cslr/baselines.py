"""Reference algorithms operating on the exact (non-circulant) lifting:
direct IRLS, alternating projections (Cadzow), its proximal relaxation,
singular value thresholding, and the UV-factorized variant.

All solvers consume a LiftingSpec + SamplingOp pair and emit the same
RecoveryTrace as the reweighted solver. They materialize the lifted matrix
densely each iteration, so they are subject to the lifting module's entry
budget; exceeding it raises BudgetError (reported as a memory failure by the
benchmark front end). Each solver takes a dataclass of the fields it reads,
and stops once the relative mean squared step between iterates is below tol.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .giraf import (
    ConfigError,
    IterationRecord,
    RecoveryTrace,
    SolverError,
    _cg_normal,
    _check_integers,
    _check_reweighting,
    _relative_step,
    _reweighted_loop,
    _smoothed_schatten_eigs,
)
from .grids import ComplexGrid
from .lifting import (
    LiftingSpec,
    _gather_blocks,
    _scatter_blocks,
    lift_adjoint,
    lift_normal_diagonal,
    materialize_exact,
)
from .models import SamplingOp, nmse

__all__ = [
    "APConfig",
    "APProxConfig",
    "SVTConfig",
    "SVTUVConfig",
    "IRLSConfig",
    "irls_direct",
    "ap_solve",
    "ap_prox_solve",
    "svt_solve",
    "svt_uv_solve",
]


class _Checked:
    """validate() of the baseline configs: a declared rank_r, and lam where
    needs_lam, is given and positive; beta > 0 and max_iters >= 1."""

    def validate(self, needs_lam: bool = True) -> None:
        _check_integers(self)
        if hasattr(self, "rank_r") and (self.rank_r is None or self.rank_r < 1):
            raise ConfigError("rank_r must be given and at least 1")
        if hasattr(self, "lam") and needs_lam and (self.lam is None or not self.lam > 0):
            raise ConfigError("lam must be given and positive")
        if hasattr(self, "beta") and not self.beta > 0:
            raise ConfigError("beta must be positive")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")


@dataclass
class APConfig(_Checked):
    """Fields of ap_solve, which always pins the measured samples."""

    rank_r: int | None = None
    max_iters: int = 100
    tol: float = 1e-8


@dataclass
class APProxConfig(_Checked):
    """Fields of ap_prox_solve, which never pins them."""

    rank_r: int | None = None
    lam: float | None = None
    max_iters: int = 100
    tol: float = 1e-8


@dataclass
class SVTConfig(_Checked):
    """Fields of svt_solve; equality pins the samples."""

    lam: float | None = None
    beta: float = 1.0
    equality: bool = True
    max_iters: int = 100
    tol: float = 1e-8


@dataclass
class SVTUVConfig(_Checked):
    """Fields of svt_uv_solve; rank_r is the factor width."""

    rank_r: int | None = None
    lam: float | None = None
    beta: float = 1.0
    equality: bool = True
    max_iters: int = 100
    tol: float = 1e-8
    seed: int = 0


@dataclass
class IRLSConfig(_Checked):
    """Fields of irls_direct, which reads lam only without equality."""

    p: float = 0.0
    lam: float | None = None
    equality: bool = True
    eps0: float | str = "auto"
    eta: float = 1.2
    eps_min: float | None = None
    max_iters: int = 100
    inner_iters: int = 200
    cg_tol: float = 1e-12
    tol: float = 1e-8

    def validate(self) -> None:
        if self.equality and self.lam is not None:
            raise ConfigError("irls reads lam only without equality")
        super().validate(needs_lam=not self.equality)
        _check_reweighting(self)


def _truncate_svd(r: int, scale: float):
    """Low-rank step of ap and ap_prox: the best rank-r approximation of W,
    penalized by scale times the energy it discards."""
    def step(W):
        U, s, Vh = np.linalg.svd(W, full_matrices=False)
        return (U[:, :r] * s[:r]) @ Vh[:r], s, scale * float(np.sum(s[r:] ** 2))
    return step


def _diagonal_solve(rhs: np.ndarray, denom: np.ndarray,
                    fallback: np.ndarray) -> np.ndarray:
    """Entrywise rhs / denom; entries with a zero denominator keep fallback."""
    live = denom > 0
    return np.where(live, rhs / np.where(live, denom, 1.0), fallback)


def _structured_average(spec: LiftingSpec, X: np.ndarray,
                        diag: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the lifting: multiplicity-weighted averaging.
    Entries the lifting never touches keep their current value."""
    return _diagonal_solve(lift_adjoint(spec, X).values, diag, fallback)


def _fit_lifted(spec: LiftingSpec, sampling: SamplingOp, X: np.ndarray,
                diag: np.ndarray, x: np.ndarray, weight: float | None) -> np.ndarray:
    """Grid whose exact lifting best fits the stacked matrix X: the
    minimizer of ||A x - b||^2 + weight ||T(x) - X||^2, diagonal because T*T
    is, or with weight=None the structured average of X with the measured
    samples put back. diag is lift_normal_diagonal(spec); entries with no
    equation keep their value in x."""
    if weight is None:
        return sampling.insert_data(_structured_average(spec, X, diag, x))
    rhs = sampling.b.values + weight * lift_adjoint(spec, X).values
    return _diagonal_solve(rhs, sampling.mask.astype(float) + weight * diag, x)


def _lifted_solve(spec: LiftingSpec, sampling: SamplingOp, config,
                  algorithm: str, step, phases: tuple[str, str], weight: float | None,
                  dual: bool, ground_truth: ComplexGrid | None,
                  x0: ComplexGrid | None) -> RecoveryTrace:
    """Iteration shared by the lifted-matrix solvers.

    Each iteration applies the low-rank step W -> (X, sigmas, penalty), the
    sigmas in descending order, to the exact lifting W of the iterate, fits
    the grid to X with _fit_lifted's weight and re-lifts it. With dual set,
    W and the fit target carry a scaled dual, which then moves by the lifting
    residual (ADMM). The cost is the penalty plus, unless weight is None
    (equality mode), the data residual; a cost that is not finite (data
    near the float range's ends) is a SolverError. The run stops once the
    relative step drops below config.tol. phases names the timers of the
    two steps.
    """
    config.validate()
    box = spec.data_box
    diag = lift_normal_diagonal(spec)
    bvals = sampling.b.values
    x = (x0.values if x0 is not None else bvals).copy()
    T = materialize_exact(spec, ComplexGrid(box, x.copy()))
    D = np.zeros(spec.shape_exact, dtype=np.complex128) if dual else None
    records = []
    low_rank, fit = phases
    seconds = {low_rank: 0.0, fit: 0.0}
    t0 = time.perf_counter()
    for i in range(1, config.max_iters + 1):
        ts = time.perf_counter()
        X, s, penalty = step(T if D is None else T + D)
        tp = time.perf_counter()
        seconds[low_rank] += tp - ts
        x_new = _fit_lifted(spec, sampling, X if D is None else X - D, diag, x, weight)
        T = _gather_blocks(spec, spec.block_weights * x_new)
        if D is not None:
            D = D + T - X
        seconds[fit] += time.perf_counter() - tp
        cost = penalty
        if weight is not None:
            cost = float(np.linalg.norm((x_new - bvals)[sampling.mask]) ** 2) + penalty
        if not math.isfinite(cost):
            raise SolverError(f"{algorithm} cost is {cost} at iteration {i}")
        err = None if ground_truth is None else nmse(x_new, ground_truth)
        records.append(IterationRecord(
            iteration=i, eps=0.0, nmse=err, cost=cost,
            sigma_min=float(s[-1]), sigma_max=float(s[0]),
            seconds=time.perf_counter() - t0))
        change = _relative_step(x_new, x)
        x = x_new
        if change < config.tol:
            break
    return RecoveryTrace(x=ComplexGrid(box, x), records=records,
                         algorithm=algorithm, phase_seconds=seconds)


def ap_solve(spec: LiftingSpec, sampling: SamplingOp, config: APConfig,
             ground_truth: ComplexGrid | None = None,
             x0: ComplexGrid | None = None) -> RecoveryTrace:
    """Alternating projections (Cadzow): rank-r truncation of the lifted
    matrix, structured-space averaging, measured-data re-insertion."""
    return _lifted_solve(spec, sampling, config, "ap", _truncate_svd(config.rank_r, 1.0),
                         ("svd", "projection"), None, False, ground_truth, x0)


def ap_prox_solve(spec: LiftingSpec, sampling: SamplingOp, config: APProxConfig,
                  ground_truth: ComplexGrid | None = None,
                  x0: ComplexGrid | None = None) -> RecoveryTrace:
    """Proximal relaxation of alternating projections: penalize the
    distance of the lifted matrix to the rank-r set with weight lam instead
    of enforcing the rank constraint."""
    return _lifted_solve(spec, sampling, config, "ap_prox",
                         _truncate_svd(config.rank_r, config.lam),
                         ("svd", "least_squares"), config.lam, False, ground_truth, x0)


def _soft_threshold_svd(Y: np.ndarray, tau: float):
    U, s, Vh = np.linalg.svd(Y, full_matrices=False)
    keep = np.maximum(s - tau, 0.0)
    return (U * keep) @ Vh, s, keep


def svt_solve(spec: LiftingSpec, sampling: SamplingOp, config: SVTConfig,
              ground_truth: ComplexGrid | None = None,
              x0: ComplexGrid | None = None) -> RecoveryTrace:
    """Nuclear-norm recovery by ADMM with singular-value soft-thresholding
    of the lifted matrix; threshold lam/beta."""
    def threshold(W):
        X, s, kept = _soft_threshold_svd(W, config.lam / config.beta)
        return X, s, config.lam * float(np.sum(kept))

    weight = None if config.equality else config.beta / 2.0
    return _lifted_solve(spec, sampling, config, "svt", threshold,
                         ("svd", "least_squares"), weight, True, ground_truth, x0)


def _factor_sigmas(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    ru = np.linalg.qr(U, mode="r")
    rv = np.linalg.qr(V, mode="r")
    return np.linalg.svd(ru @ rv.conj().T, compute_uv=False)


def svt_uv_solve(spec: LiftingSpec, sampling: SamplingOp, config: SVTUVConfig,
                 ground_truth: ComplexGrid | None = None,
                 x0: ComplexGrid | None = None) -> RecoveryTrace:
    """Nuclear-norm recovery through the factorization penalty
    (lam/2)(|U|_F^2 + |V|_F^2) with U V* pinned to the lifted matrix by
    ADMM; the SVD is replaced by two ridge solves of width rank_r."""
    rng = np.random.default_rng(config.seed)
    V = None

    def factor(W):
        nonlocal V
        beta, lam, R = config.beta, config.lam, config.rank_r
        if V is None:  # drawn at the first step, once the config is checked
            cols = W.shape[1]
            V = (rng.standard_normal((cols, R))
                 + 1j * rng.standard_normal((cols, R))) / math.sqrt(2 * cols)
        eye = np.eye(R)
        U = beta * (W @ V) @ np.linalg.inv(lam * eye + beta * (V.conj().T @ V))
        V = beta * (W.conj().T @ U) @ np.linalg.inv(lam * eye + beta * (U.conj().T @ U))
        pen = (lam / 2.0) * float(np.linalg.norm(U) ** 2 + np.linalg.norm(V) ** 2)
        return U @ V.conj().T, _factor_sigmas(U, V), pen

    weight = None if config.equality else config.beta / 2.0
    return _lifted_solve(spec, sampling, config, "svt_uv", factor,
                         ("factor", "least_squares"), weight, True, ground_truth, x0)


class _ExactPenalty:
    """The smoothed penalty of the exact lifting T(x) in the protocol of the
    reweighted loop (see giraf._gram_penalty), from its dense SVD T(x) = U
    diag(sigma) V^*: eigvals are the squared singular values sigma^2, lam_max
    the largest of them, cost(eps) their smoothed Schatten sum, and
    weights(eps) the Hermitian IRLS weight matrix V diag((sigma^2 +
    eps)^(p/2 - 1)) V^*. Without weighted, the SVD takes no singular
    vectors."""

    def __init__(self, spec: LiftingSpec, x: ComplexGrid, p: float, weighted: bool = True):
        T = materialize_exact(spec, x)
        if weighted:
            _, s, self._Vh = np.linalg.svd(T, full_matrices=False)
        else:
            s, self._Vh = np.linalg.svd(T, compute_uv=False), None
        self.eigvals, self.p = s ** 2, p
        self.lam_max = float(np.max(self.eigvals))

    def cost(self, eps: float) -> float:
        return _smoothed_schatten_eigs(self.eigvals, self.p, eps)

    def weights(self, eps: float) -> np.ndarray:
        return (self._Vh.conj().T * (self.eigvals + eps) ** (self.p / 2.0 - 1.0)) @ self._Vh


def _irls_penalty(spec: LiftingSpec, W: np.ndarray):
    """IRLS penalty v -> T^*(T(v) W) on grid arrays, T the exact lifting:
    one gather, one (rows x n_filter)(n_filter x n_filter) matmul and one
    scatter per call."""
    def penalty(v):
        return _scatter_blocks(spec, _gather_blocks(spec, spec.block_weights * v) @ W)

    return penalty


def irls_direct(spec: LiftingSpec, sampling: SamplingOp, config: IRLSConfig,
                ground_truth: ComplexGrid | None = None) -> RecoveryTrace:
    """Direct iteratively reweighted least squares on the exact lifting T.

    Each outer iteration takes a dense SVD T(x) = U diag(sigma) V^*, forms
    the Hermitian weight matrix W = V diag((sigma^2 + eps)^(p/2 - 1)) V^*
    (see _ExactPenalty), and solves the weighted least-squares problem by
    conjugate gradients with the penalty v -> T^*(T(v) W) (see
    _irls_penalty), whose quadratic
    form ||T(v) W^(1/2)||_F^2 applies every reweighting filter
    (sigma_i^2 + eps)^(p/4 - 1/2) v_i through the exact lifting at once.
    """
    config.validate()
    lam = None if config.equality else config.lam

    def least_squares(W, x):
        return ComplexGrid(spec.data_box, _cg_normal(
            _irls_penalty(spec, W), sampling, lam, config.p, x.values,
            config.inner_iters, config.cg_tol))

    error = None if ground_truth is None else (lambda x: nmse(x, ground_truth))
    return _reweighted_loop(config, config.max_iters, lam, sampling.b.copy(), sampling,
                            lambda x, values, weighted: _ExactPenalty(spec, x, config.p,
                                                                      weighted),
                            least_squares, error, f"irls{config.p:g}", config.tol)
