"""Reference algorithms operating on the exact (non-circulant) lifting:
direct IRLS, alternating projections (Cadzow), its proximal relaxation,
singular value thresholding, and the UV-factorized variant, plus Schatten
penalty utilities and the majorizer gap check.

All solvers consume a LiftingSpec + SamplingOp pair and emit the same
RecoveryTrace as the reweighted solver. They materialize the lifted matrix
densely each iteration, so they are subject to the lifting module's entry
budget; exceeding it raises BudgetError (reported as a memory failure by the
benchmark front end).
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
    _cg_normal,
    _reweighted_loop,
    _smoothed_schatten_eigs,
    schatten_weight,
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
    "BaselineConfig",
    "schatten_p",
    "smoothed_schatten",
    "majorizer_gap",
    "irls_direct",
    "ap_solve",
    "ap_prox_solve",
    "svt_solve",
    "svt_uv_solve",
]


@dataclass
class BaselineConfig:
    """Shared knob set for the reference algorithms.

    rank_r is required by ap, ap_prox, and svt_uv (factor width). lam is the
    regularization weight; equality=True pins measured samples exactly
    instead (ap is always equality-constrained, ap_prox never is). beta is
    the ADMM penalty for svt/svt_uv. tol stops a solver once the relative
    mean squared difference between iterates drops below it.
    """

    algorithm: str = "ap"
    rank_r: int | None = None
    lam: float | None = None
    beta: float = 1.0
    equality: bool = True
    max_iters: int = 100
    tol: float = 1e-8
    p: float = 0.0
    eps0: float | str = "auto"
    eta: float = 1.2
    eps_min: float | None = None
    inner_iters: int = 200
    cg_tol: float = 1e-12
    seed: int = 0

    def validate(self) -> None:
        algos = ("irls", "ap", "ap_prox", "svt", "svt_uv")
        if self.algorithm not in algos:
            raise ConfigError(f"algorithm must be one of {algos}")
        if self.algorithm in ("ap", "ap_prox", "svt_uv"):
            if self.rank_r is None or self.rank_r < 1:
                raise ConfigError(f"{self.algorithm} needs a positive rank_r")
        needs_lam = {"ap_prox": True, "svt": True, "svt_uv": True,
                     "irls": not self.equality, "ap": False}
        if needs_lam[self.algorithm] and (self.lam is None or not self.lam > 0):
            raise ConfigError(f"{self.algorithm} needs a positive lam")
        if self.algorithm == "ap" and not self.equality:
            raise ConfigError("ap is equality-constrained; use ap_prox for a data term")
        if self.algorithm == "ap_prox" and self.equality:
            raise ConfigError("ap_prox keeps a data term; use ap for equality mode")
        if not self.beta > 0:
            raise ConfigError("beta must be positive")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("p must lie in [0, 1]")
        if not self.eta > 1.0:
            raise ConfigError("eta must exceed 1")


def _check_config(config: BaselineConfig, algorithm: str) -> None:
    config.validate()
    if config.algorithm != algorithm:
        raise ConfigError(f"config.algorithm must be {algorithm!r}")


def schatten_p(m: np.ndarray, p: float) -> float:
    """Schatten-p norm for p in (0, 1], log-determinant surrogate for p=0
    (sum of log singular values; error if the matrix is rank-deficient)."""
    s = np.linalg.svd(m, compute_uv=False)
    if p == 0:
        if s[-1] <= 0:
            raise ValueError("log-det Schatten value is -inf for a singular matrix")
        return float(np.sum(np.log(s)))
    if not 0 < p <= 1:
        raise ValueError("p must lie in [0, 1]")
    return float(np.sum(s ** p) ** (1.0 / p))


def smoothed_schatten(m: np.ndarray, p: float, eps: float) -> float:
    """Smoothed Schatten penalty: sum (sigma^2 + eps)^(p/2), or the p=0
    limit 1/2 sum log(sigma^2 + eps)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    # the penalty counts all min(shape) singular values, which svd returns
    s2 = np.linalg.svd(m, compute_uv=False) ** 2
    if p == 0 and eps == 0 and s2[-1] <= 0:
        raise ValueError("log-det Schatten value is -inf for a singular matrix")
    return _smoothed_schatten_eigs(s2, p, eps)


def majorizer_gap(X: np.ndarray, X0: np.ndarray, p: float, eps: float) -> float:
    """Value of the quadratic tangent majorizer of the smoothed Schatten
    penalty at X0, evaluated at X, minus the penalty at X. Nonnegative by
    the matrix form of Klein's inequality; zero at X = X0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    cp = schatten_weight(p)
    gram0 = X0.conj().T @ X0
    w, V = np.linalg.eigh(gram0)
    w = np.maximum(w, 0.0)
    H0 = (V * (w + eps) ** (p / 2 - 1)) @ V.conj().T
    quad = np.trace(H0 @ (X.conj().T @ X - gram0)).real
    major = smoothed_schatten(X0, p, eps) + cp * quad
    return float(major - smoothed_schatten(X, p, eps))


def _relative_step(new: np.ndarray, old: np.ndarray) -> float:
    denom = float(np.linalg.norm(old) ** 2)
    if denom == 0:
        return math.inf
    return float(np.linalg.norm(new - old) ** 2) / denom


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


def _lifted_solve(spec: LiftingSpec, sampling: SamplingOp, config: BaselineConfig,
                  algorithm: str, step, phases: tuple[str, str], weight: float | None,
                  dual: bool, ground_truth: ComplexGrid | None,
                  x0: ComplexGrid | None) -> RecoveryTrace:
    """Iteration shared by the lifted-matrix solvers.

    Each iteration applies the low-rank step W -> (X, sigmas, penalty), the
    sigmas in descending order, to the exact lifting W of the iterate, fits
    the grid to X with _fit_lifted's weight and re-lifts it. With dual set,
    W and the fit target carry a scaled dual, which then moves by the lifting
    residual (ADMM). The cost is the penalty plus, unless in equality mode,
    the data residual; the run stops once the relative step drops below
    config.tol. phases names the timers of the low-rank step and of the fit.
    """
    _check_config(config, algorithm)
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
        T = materialize_exact(spec, ComplexGrid(box, x_new.copy()))
        if D is not None:
            D = D + T - X
        seconds[fit] += time.perf_counter() - tp
        cost = penalty
        if not config.equality:
            cost = float(np.linalg.norm((x_new - bvals)[sampling.mask]) ** 2) + penalty
        err = None if ground_truth is None else nmse(ComplexGrid(box, x_new.copy()), ground_truth)
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


def ap_solve(spec: LiftingSpec, sampling: SamplingOp, config: BaselineConfig,
             ground_truth: ComplexGrid | None = None,
             x0: ComplexGrid | None = None) -> RecoveryTrace:
    """Alternating projections (Cadzow): rank-r truncation of the lifted
    matrix, structured-space averaging, measured-data re-insertion."""
    return _lifted_solve(spec, sampling, config, "ap", _truncate_svd(config.rank_r, 1.0),
                         ("svd", "projection"), None, False, ground_truth, x0)


def ap_prox_solve(spec: LiftingSpec, sampling: SamplingOp, config: BaselineConfig,
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


def svt_solve(spec: LiftingSpec, sampling: SamplingOp, config: BaselineConfig,
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


def svt_uv_solve(spec: LiftingSpec, sampling: SamplingOp, config: BaselineConfig,
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


def _irls_weights(s2: np.ndarray, Vh: np.ndarray, eps: float, p: float) -> np.ndarray:
    """Hermitian IRLS weight matrix W = V diag((s2 + eps)^(p/2 - 1)) V^* from
    the squared singular values s2 and right singular vectors Vh of the
    exact lifting."""
    return (Vh.conj().T * (s2 + eps) ** (p / 2.0 - 1.0)) @ Vh


def _irls_penalty(spec: LiftingSpec, W: np.ndarray):
    """IRLS penalty v -> T^*(T(v) W) on grid arrays, T the exact lifting:
    one gather, one (rows x n_filter)(n_filter x n_filter) matmul and one
    scatter per call."""
    ws = [w.weights_on(spec.data_box) for w in spec.weightings]

    def penalty(v):
        return _scatter_blocks(spec, ws, _gather_blocks(spec, [w * v for w in ws]) @ W)

    return penalty


def irls_direct(spec: LiftingSpec, sampling: SamplingOp, config: BaselineConfig,
                ground_truth: ComplexGrid | None = None) -> RecoveryTrace:
    """Direct iteratively reweighted least squares on the exact lifting T.

    Each outer iteration takes a dense SVD T(x) = U diag(sigma) V^*, forms
    the Hermitian weight matrix W = V diag((sigma^2 + eps)^(p/2 - 1)) V^*,
    and solves the weighted least-squares problem by conjugate gradients
    with the penalty v -> T^*(T(v) W) (see _irls_penalty), whose quadratic
    form ||T(v) W^(1/2)||_F^2 applies every reweighting filter
    (sigma_i^2 + eps)^(p/4 - 1/2) v_i through the exact lifting at once.
    """
    _check_config(config, "irls")
    lam = None if config.equality else config.lam

    def spectrum(x, vectors):
        T = materialize_exact(spec, x)
        if not vectors:
            return np.linalg.svd(T, compute_uv=False) ** 2, None
        _, s, Vh = np.linalg.svd(T, full_matrices=False)
        return s ** 2, Vh

    def reweight(s2, Vh, eps):
        return _irls_weights(s2, Vh, eps, config.p)

    def least_squares(W, x):
        return ComplexGrid(spec.data_box, _cg_normal(
            _irls_penalty(spec, W), sampling, lam, config.p, x.values,
            config.inner_iters, config.cg_tol))

    error = None if ground_truth is None else (lambda x: nmse(x, ground_truth))
    return _reweighted_loop(config, config.max_iters, lam, sampling.b.copy(), sampling,
                            spectrum, reweight, least_squares, error,
                            algorithm=f"irls{config.p:g}")
