"""Iteratively reweighted annihilating-filter recovery (GIRAF).

The solver alternates two matrix-free steps on gridded Fourier data:

1. Filter update. Form the small Gram matrix G of the circulant surrogate
   lifting at the current iterate and its weight matrix
   H = (G + eps I)^(p/2 - 1). G is multi-level Toeplitz, hence
   centrohermitian, so a sparse unitary Q turns it into a real symmetric
   matrix R = Q^* G Q of the same order and the same eigenvalues; all the
   linear algebra runs on R in real arithmetic (one matrix inverse for
   p = 0, an eigendecomposition for p > 0) and the weight matrix comes back
   as H = Q (R + eps I)^(p/2 - 1) Q^*. The reweighted annihilating filter
   sums H along its filter-difference diagonals (the eigenvalue-weighted
   sum of eigenvector autocorrelations), and one inverse FFT of that filter
   gives a nonnegative spatial weight image d (the annihilation weights).
   The eigenvalues of R, computed without eigenvectors for p = 0, set the
   smoothing schedule, the cost and the singular-value range.

2. Least squares. Minimize ||A x - b||^2 + lam * C_p * sum_j ||D^{1/2} F^*
   M_j x||^2 with D = diag(d), solved either by ADMM with a splitting
   y_j = F^* M_j x (every subproblem is diagonal, a few FFTs per pass) or by
   conjugate gradients on the normal equations.

An epsilon smoothing schedule eps_n = max(eps0 * eta^-n, eps_min) steers the
reweighting from convex-like to sharply rank-seeking; with eps frozen the
iteration is a majorize-minimize scheme and the smoothed objective is
non-increasing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grids import (
    ComplexGrid,
    IndexBox,
    minkowski_sum,
    reflect,
    restrict,
    wrap_embed,
)
from .lifting import LiftingSpec, diff_index, gram_surrogate
from .models import SamplingOp, nmse

__all__ = [
    "ConfigError",
    "SolverError",
    "SolverConfig",
    "FilterState",
    "IterationRecord",
    "RecoveryTrace",
    "filter_update",
    "admm_ls",
    "cg_ls",
    "eps_schedule",
    "giraf_solve",
    "oversampled_box",
]


class ConfigError(Exception):
    """Invalid solver or experiment configuration."""


class SolverError(Exception):
    """Numerical failure inside a solver."""


@dataclass
class SolverConfig:
    """Knobs for giraf_solve.

    lam is the regularization weight; lam=None selects the equality-
    constrained mode where measured samples are held exactly. eps0="auto"
    sets the initial smoothing to lambda_max/100 from the first iterate's
    Gram spectrum. eps_min=None defaults to eps0 * eta^-outer_iters, floored
    at 1e-9 * eps0.
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
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("p must lie in [0, 1]")
        if self.lam is not None and not self.lam > 0:
            raise ConfigError("lambda must be positive (or None for equality mode)")
        if self.eps0 != "auto" and not (isinstance(self.eps0, (int, float)) and self.eps0 > 0):
            raise ConfigError("eps0 must be 'auto' or a positive number")
        if not self.eta > 1.0:
            raise ConfigError("eta must exceed 1")
        if self.eps_min is not None and not self.eps_min > 0:
            raise ConfigError("eps_min must be positive")
        if self.outer_iters < 1:
            raise ConfigError("outer_iters must be at least 1")
        if self.ls_solver not in ("admm", "cg"):
            raise ConfigError("ls_solver must be 'admm' or 'cg'")
        if self.inner_iters < 1:
            raise ConfigError("inner_iters must be at least 1")
        if not self.delta >= 1:
            raise ConfigError("delta must be at least 1")
        if self.oversample_factor is not None and not self.oversample_factor >= 1.0:
            raise ConfigError("oversample factor must be at least 1")

    @property
    def equality(self) -> bool:
        return self.lam is None


def schatten_weight(p: float) -> float:
    """The constant C_p multiplying the reweighted quadratic: p/2 for p > 0
    and 1/2 for p = 0."""
    return p / 2 if p > 0 else 0.5


@dataclass
class FilterState:
    """Annihilating filter and induced spatial weights at one iterate."""

    h: ComplexGrid
    d: ComplexGrid
    eigvals: np.ndarray


@dataclass
class IterationRecord:
    iteration: int
    eps: float
    nmse: float | None
    cost: float | None
    sigma_min: float
    sigma_max: float
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


def _real_form(G: np.ndarray) -> np.ndarray:
    """The real symmetric matrix R = Q^* G Q of a centrohermitian G
    (G[::-1, ::-1] == conj(G), as for every Gram matrix of a lifting).

    Q is unitary with two nonzeros per column, in this order, k < m = n // 2:
    (e_k + e_{n-1-k}) / sqrt(2); e_m when n is odd; i (e_k - e_{n-1-k}) /
    sqrt(2). With A = G[:m, :m] and P = G[:m, ::-1][:, :m] (symmetric) the
    blocks of R are Re(A + P), Im(A + P)^T, Im(A + P) and Re(A - P), and for
    odd n the middle row and column are sqrt(2) G[:m, m] split into real and
    imaginary parts around G[m, m]. Every block is written in place: at
    small orders the call count, not the arithmetic, is the cost."""
    n = G.shape[0]
    m, lo = n // 2, n - n // 2
    A, P = G[:m, :m], G[:m, ::-1][:, :m]
    R = np.empty((n, n))
    np.add(A.real, P.real, out=R[:m, :m])
    np.add(A.imag, P.imag, out=R[lo:, :m])
    np.subtract(A.real, P.real, out=R[lo:, lo:])
    R[:m, lo:] = R[lo:, :m].T
    if n % 2:
        np.multiply(G[:m, m].real, math.sqrt(2.0), out=R[:m, m])
        np.multiply(G[:m, m].imag, math.sqrt(2.0), out=R[lo:, m])
        R[m, m] = G[m, m].real
        R[m] = R[:, m]
    return R


def _complex_form(M: np.ndarray) -> np.ndarray:
    """The centrohermitian matrix Q S Q^* of the symmetric part S = (M +
    M^T) / 2 of a real M, Q as in _real_form. The top rows (and the middle
    one for odd n) come from the blocks of S, the bottom rows from
    H[::-1, ::-1] == conj(H)."""
    n = M.shape[0]
    m, lo = n // 2, n - n // 2
    S = M + M.T  # twice the symmetric part, exactly symmetric
    S11, S13, S31, S33 = S[:m, :m], S[:m, lo:], S[lo:, :m], S[lo:, lo:]
    H = np.empty((n, n), dtype=np.complex128)
    top, right = H[:m], H[:m, lo:][:, ::-1]
    np.add(S11, S33, out=top.real[:, :m])
    np.subtract(S31, S13, out=top.imag[:, :m])
    np.subtract(S11, S33, out=right.real)
    np.add(S31, S13, out=right.imag)
    if n % 2:
        np.multiply(S[:m, m], math.sqrt(2.0), out=top.real[:, m])
        np.multiply(S[lo:, m], math.sqrt(2.0), out=top.imag[:, m])
    top *= 0.25
    if n % 2:
        np.conjugate(top[:, m], out=H[m, :m])
        H[m, lo:] = top[::-1, m]
        H[m, m] = 0.5 * S[m, m]
    np.conjugate(top[::-1, ::-1], out=H[lo:])
    return H


def _gram_spectrum(spec: LiftingSpec, x: ComplexGrid, p: float, vectors: bool):
    """Spectrum of the surrogate Gram matrix G at x: (eigenvalues clipped at
    zero, basis). Every decomposition runs on R = _real_form(G), the real
    symmetric matrix of the same order and the same eigenvalues. The basis
    is what _reweight needs, so only p > 0 pays for eigenvectors: the real
    eigenvectors of R for p > 0, R itself for p = 0 (its weight matrix
    (R + eps I)^-1 is one inverse), None when vectors is false."""
    R = _real_form(gram_surrogate(spec, x))
    try:
        if vectors and p > 0:
            w, basis = np.linalg.eigh(R)
        else:
            w, basis = np.linalg.eigvalsh(R), R if vectors else None
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Gram eigendecomposition failed: {exc}") from exc
    return np.maximum(w, 0.0), basis


@lru_cache(maxsize=32)
def _filter_gather(filter_box: IndexBox):
    """Box of the filter-box differences, and the flat index into it of the
    difference of every pair of filter-box positions."""
    diff_box = minkowski_sum(filter_box, reflect(filter_box))
    return diff_box, diff_index(filter_box, filter_box, diff_box).ravel()


def _filter_from_H(spec: LiftingSpec, H: np.ndarray, eigvals: np.ndarray) -> FilterState:
    """Filter and spatial weights of the Hermitian weight matrix H, indexed
    by pairs of filter-box positions."""
    diff_box, flat = _filter_gather(spec.filter_box)
    hr = np.bincount(flat, weights=H.real.ravel(), minlength=diff_box.size)
    hi = np.bincount(flat, weights=H.imag.ravel(), minlength=diff_box.size)
    h = ComplexGrid._trusted(diff_box, (hr + 1j * hi).reshape(diff_box.extent))

    # one inverse FFT of the padded filter; numpy's unnormalized ifftn equals
    # the unitary inverse transform divided by sqrt(L), which is exactly the
    # scale making d the sum of |idft(padded h_i)|^2 over eigenfilters. A
    # non-finite h spreads to every real part of draw, so one scan checks both
    draw = np.fft.ifftn(wrap_embed(h, spec.data_box).values)
    top = float(np.max(np.abs(draw.real)))
    if not math.isfinite(top):
        raise SolverError("annihilation weights are not finite")
    scale = max(1.0, top)
    if np.max(np.abs(draw.imag)) > 1e-12 * scale:
        raise SolverError("annihilation weights came out non-real")
    if np.min(draw.real) < -1e-12 * scale:
        raise SolverError("annihilation weights lost positivity")
    d = ComplexGrid._trusted(spec.data_box,
                             np.maximum(draw.real, 0.0).astype(np.complex128))
    return FilterState(h=h, d=d, eigvals=eigvals)


def _reweight(spec: LiftingSpec, eigvals: np.ndarray, basis: np.ndarray,
              eps: float, p: float) -> FilterState:
    """Filter state from a _gram_spectrum result taken with vectors=True:
    the weight matrix (R + eps I)^(p/2 - 1) in the real basis, as
    V diag((eigvals + eps)^(p/2 - 1)) V^T for p > 0 and one inverse for
    p = 0, mapped back to the filter-box basis by _complex_form."""
    if eps <= 0:
        raise SolverError("filter update needs a positive epsilon")
    if p > 0:
        M = (basis * (eigvals + eps) ** (p / 2.0 - 1.0)) @ basis.T
    else:
        try:
            M = np.linalg.inv(basis + eps * np.eye(basis.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Gram inverse failed: {exc}") from exc
    return _filter_from_H(spec, _complex_form(M), eigvals)


def filter_update(spec: LiftingSpec, x: ComplexGrid, eps: float, p: float) -> FilterState:
    """Annihilating filter and spatial weights for the current iterate."""
    w, basis = _gram_spectrum(spec, x, p, True)
    return _reweight(spec, w, basis, eps, p)


def _block_weights(spec: LiftingSpec):
    ws = [w.weights_on(spec.data_box) for w in spec.weightings]
    wsq = sum(np.abs(w) ** 2 for w in ws)
    return ws, wsq


def _check_coverage(spec: LiftingSpec, sampling: SamplingOp) -> None:
    _, wsq = _block_weights(spec)
    dead = (wsq == 0) & ~sampling.mask
    if np.any(dead):
        raise ConfigError(
            "weighting vanishes on unmeasured entries (sample k = 0 when "
            "using derivative weightings)")


def admm_ls(spec: LiftingSpec, sampling: SamplingOp, d: ComplexGrid,
            lam: float | None, p: float, iters: int = 200, delta: float = 10.0,
            gamma: float | None = None, x0: ComplexGrid | None = None,
            callback=None) -> ComplexGrid:
    """ADMM for the weighted least-squares step.

    Splitting z_j = F y_j = M_j x with scaled duals u_j in the Fourier index
    domain; the y update is a diagonal shrinkage in space, the x update a
    diagonal solve in Fourier indices. lam=None holds the measured samples
    fixed (equality mode).
    """
    _check_coverage(spec, sampling)
    dvals = d.values.real
    gam = float(np.max(dvals)) / delta if gamma is None else float(gamma)
    bvals = sampling.b.values
    if gam <= 0 or (lam is not None and lam * schatten_weight(p) == 0):
        # no effective regularizer: the least-squares solution is A* b
        return ComplexGrid(spec.data_box, bvals.copy())

    ws, wsq = _block_weights(spec)
    maskf = sampling.mask.astype(float)
    rho = None if lam is None else gam * lam * schatten_weight(p)
    shrink = gam / (dvals + gam)
    if lam is None:
        denom = np.where(wsq > 0, wsq, 1.0)
    else:
        denom = maskf + rho * wsq

    x = (x0.values if x0 is not None else bvals).copy()
    z = [np.zeros(spec.data_box.extent, dtype=np.complex128) for _ in ws]
    u = [np.zeros(spec.data_box.extent, dtype=np.complex128) for _ in ws]

    for it in range(iters):
        for j, w in enumerate(ws):
            z[j] = np.fft.fftn(shrink * np.fft.ifftn(w * x - u[j]))
        acc = np.zeros(spec.data_box.extent, dtype=np.complex128)
        for j, w in enumerate(ws):
            acc += np.conj(w) * (z[j] + u[j])
        if lam is None:
            x = sampling.insert_data(acc / denom)
        else:
            x = (bvals + rho * acc) / denom
        for j, w in enumerate(ws):
            u[j] += z[j] - w * x
        if callback is not None:
            callback(it + 1, x)
    return ComplexGrid(spec.data_box, x)


def cg_ls(spec: LiftingSpec, sampling: SamplingOp, d: ComplexGrid,
          lam: float | None, p: float, iters: int = 200, tol: float = 1e-12,
          x0: ComplexGrid | None = None, callback=None) -> ComplexGrid:
    """Conjugate gradients on the normal equations of the weighted
    least-squares step. Equality mode optimizes only the unmeasured entries
    with the measured ones pinned to the data."""
    _check_coverage(spec, sampling)
    dvals = d.values.real
    bvals = sampling.b.values
    if float(np.max(dvals)) <= 0 or (lam is not None and lam * schatten_weight(p) == 0):
        return ComplexGrid(spec.data_box, bvals.copy())

    ws, _ = _block_weights(spec)

    def reg_op(v):
        out = np.zeros_like(v)
        for w in ws:
            out += np.conj(w) * np.fft.fftn(dvals * np.fft.ifftn(w * v))
        return out

    x = _cg_normal(reg_op, sampling, lam, p, None if x0 is None else x0.values,
                   iters, tol, callback)
    return ComplexGrid(spec.data_box, x)


def _cg_normal(penalty, sampling: SamplingOp, lam: float | None, p: float,
               x0: np.ndarray | None, iters: int, tol: float,
               callback=None) -> np.ndarray:
    """Conjugate gradients for min ||A x - b||^2 + lam C_p <x, penalty(x)>,
    penalty a Hermitian positive semidefinite operator on grid arrays.
    lam=None pins the measured samples and solves for the others only.
    callback(it, x) sees every iterate with the samples reinserted."""
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


def _reweighted_loop(config, n_outer: int, lam: float | None, x: ComplexGrid,
                     sampling: SamplingOp, spectrum, reweight, least_squares,
                     error, algorithm: str) -> RecoveryTrace:
    """Outer iteration shared by GIRAF and direct IRLS.

    Each iteration takes the spectrum of the current lifting,
    spectrum(x, vectors) -> (eigenvalues, basis), sets the smoothing schedule
    from the first one, forms the reweighted penalty reweight(eigenvalues,
    basis, eps) and solves least_squares(penalty, x) -> x. The cost and the
    singular-value range of an iterate come from the spectrum taken at the
    start of the next iteration, or from a closing eigenvalue-only spectrum
    (vectors=False) after the last one. config supplies p, eps0, eta and
    eps_min; lam=None is equality mode; error(x) gives the NMSE or is None.
    """
    records: list[IterationRecord] = []
    phases = {"filter_update": 0.0, "least_squares": 0.0}
    t0 = time.perf_counter()
    data_term = 0.0

    def finish_record(rec, eigvals):
        rec.sigma_min = math.sqrt(max(float(np.min(eigvals)), 0.0))
        rec.sigma_max = math.sqrt(max(float(np.max(eigvals)), 0.0))
        sch = _smoothed_schatten_eigs(eigvals, config.p, rec.eps)
        rec.cost = sch if lam is None else data_term + lam * sch

    for n in range(1, n_outer + 1):
        tf = time.perf_counter()
        eigvals, basis = spectrum(x, True)
        if records:
            finish_record(records[-1], eigvals)
        if n == 1:
            eps0, schedule = eps_schedule(float(np.max(eigvals)), n_outer, config.eps0,
                                          config.eta, config.eps_min)
        eps_n = schedule[n - 1]
        smallest = np.min(eigvals) + eps_n
        with np.errstate(divide="ignore", over="ignore"):
            if not np.isfinite(smallest ** (config.p / 2 - 1)):
                raise SolverError(f"reweighting overflowed at iteration {n}: smallest "
                                  f"eigenvalue plus eps is {smallest:g}")
        penalty = reweight(eigvals, basis, eps_n)
        tl = time.perf_counter()
        phases["filter_update"] += tl - tf
        x = least_squares(penalty, x)
        phases["least_squares"] += time.perf_counter() - tl
        data_term = float(np.linalg.norm((x.values - sampling.b.values)[sampling.mask]) ** 2)
        records.append(IterationRecord(
            iteration=n, eps=eps_n, nmse=None if error is None else error(x), cost=None,
            sigma_min=float("nan"), sigma_max=float("nan"),
            seconds=time.perf_counter() - t0))

    tf = time.perf_counter()
    eigvals, _ = spectrum(x, False)
    phases["filter_update"] += time.perf_counter() - tf
    finish_record(records[-1], eigvals)
    return RecoveryTrace(x=x, records=records, algorithm=algorithm, eps0=eps0,
                         phase_seconds=phases)


def _working_problem(spec: LiftingSpec, sampling: SamplingOp, config: SolverConfig):
    """Spec and sampling operator a solve works on: on the oversampled box
    when config asks for it, checked for weighting coverage."""
    if sampling.box != spec.data_box:
        raise ConfigError("sampling operator does not live on the data box")
    if config.oversample:
        big = oversampled_box(spec.data_box, spec.filter_box, config.oversample_factor)
        spec, sampling = spec.with_data_box(big), sampling.embed(big)
    _check_coverage(spec, sampling)
    return spec, sampling


def giraf_solve(spec: LiftingSpec, sampling: SamplingOp, config: SolverConfig,
                ground_truth: ComplexGrid | None = None) -> RecoveryTrace:
    """Run the full reweighted recovery; returns the iterate restricted to
    the original data box plus per-iteration diagnostics."""
    config.validate()
    work_spec, samp = _working_problem(spec, sampling, config)

    def least_squares(d, x):
        if config.ls_solver == "admm":
            x = admm_ls(work_spec, samp, d, config.lam, config.p,
                        iters=config.inner_iters, delta=config.delta, x0=x)
        else:
            x = cg_ls(work_spec, samp, d, config.lam, config.p,
                      iters=config.inner_iters, tol=config.cg_tol, x0=x)
        if config.equality:
            x = ComplexGrid(work_spec.data_box, samp.insert_data(x.values))
        return x

    error = None if ground_truth is None else (
        lambda x: nmse(restrict(x, spec.data_box), ground_truth))
    trace = _reweighted_loop(
        config, config.outer_iters, config.lam, samp.zero_filled(), samp,
        spectrum=lambda x, vectors: _gram_spectrum(work_spec, x, config.p, vectors),
        reweight=lambda w, basis, eps: _reweight(work_spec, w, basis, eps, config.p).d,
        least_squares=least_squares, error=error, algorithm=f"giraf{config.p:g}")
    trace.x = restrict(trace.x, spec.data_box)
    return trace
