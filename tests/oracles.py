"""Brute-force reference implementations used to pin the fast paths.

Everything here favors obviousness over speed: python dicts keyed by absolute
index tuples, explicit O(L^2) transform matrices, and elementwise loops.
"""

import numpy as np

from cslr import lifting
from cslr.giraf import (
    _LANCZOS_ORDER,
    SolverError,
    _cg_normal,
    _check_coverage,
    _check_weights,
    _cholesky_inverse,
    _cholesky_logdet,
    _lanczos_lam_max,
    _smoothed_schatten_eigs,
    _tril_gram,
    _weights_from,
    schatten_weight,
)
from cslr.grids import ComplexGrid, IndexBox, minkowski_sum, reflect, valid_set, wrap_embed
from cslr.lifting import LiftingSpec, autocorrelation, diff_index, real_gram
from cslr.models import DiracSignal, RectPhantom, SamplingOp


def random_box(rng, ndim, min_extent=1, max_extent=9, max_abs_offset=6):
    extent = tuple(int(rng.integers(min_extent, max_extent + 1)) for _ in range(ndim))
    offset = tuple(int(rng.integers(-max_abs_offset, max_abs_offset + 1))
                   for _ in range(ndim))
    return IndexBox(offset, extent)


def random_grid(rng, box):
    vals = rng.standard_normal(box.extent) + 1j * rng.standard_normal(box.extent)
    return ComplexGrid(box, vals)


def grid_dict(x):
    return {tuple(idx): val for idx, val in zip(x.box.indices(), x.values.ravel())}


def brute_valid_conv(y, h):
    """Direct definition: out[k] = sum_l y[k-l] h[l] where all k-l stay in
    the data box. Scans the whole Minkowski sum box for valid outputs."""
    from cslr.grids import minkowski_sum

    yd = grid_dict(y)
    hd = grid_dict(h)
    rows = []
    valid = []
    for k in minkowski_sum(y.box, h.box).indices():
        terms = []
        ok = True
        for l, hv in hd.items():
            key = tuple(k - np.asarray(l))
            if key not in yd:
                ok = False
                break
            terms.append(yd[key] * hv)
        if ok:
            valid.append(tuple(k))
            rows.append(sum(terms))
    return valid, np.asarray(rows)


def brute_circ_conv(y, h):
    """Circular convolution with the data extended periodically in absolute
    index space: out[k] = sum_l h[l] y[wrap(k-l)]."""
    yd = grid_dict(y)
    hd = grid_dict(h)
    off = np.asarray(y.box.offset)
    ext = np.asarray(y.box.extent)
    out = np.zeros(y.box.extent, dtype=complex)
    for k in y.box.indices():
        acc = 0.0 + 0.0j
        for l, hv in hd.items():
            j = k - np.asarray(l)
            wrapped = tuple(off + np.mod(j - off, ext))
            acc += hv * yd[wrapped]
        out[tuple(k - off)] = acc
    return ComplexGrid(y.box, out)


def dense_dft_matrix(box):
    """Unitary DFT matrix over box positions, O(L^2) by explicit phases."""
    pos = box.indices() - np.asarray(box.offset)
    phase = np.zeros((box.size, box.size))
    for a in range(box.ndim):
        phase += np.multiply.outer(pos[:, a], pos[:, a]) / box.extent[a]
    return np.exp(-2j * np.pi * phase) / np.sqrt(box.size)


def linear_conv_valid(y, h):
    """Valid-region linear convolution, by direct summation.

    out[k] = sum over filter indices l of y[k - l] h[l], for every k such
    that all k - l stay inside the data box. Serves as the dense oracle the
    FFT paths are checked against.
    """
    gamma = valid_set(y.box, h.box)
    kk = gamma.indices()[:, None, :] - h.box.indices()[None, :, :]
    kk -= np.asarray(y.box.offset)
    flat = np.ravel_multi_index(tuple(kk[..., a] for a in range(y.box.ndim)),
                                y.box.extent)
    out = y.values.ravel()[flat] @ h.values.ravel()
    return ComplexGrid(gamma, out.reshape(gamma.extent))


def reverse_conjugate(h):
    """Conjugate reversal g[k] = conj(h[-k]), on the reflected box."""
    vals = np.conj(h.values[tuple(slice(None, None, -1) for _ in range(h.box.ndim))])
    return ComplexGrid(reflect(h.box), vals.copy())


def centro_unitary(n):
    """Dense unitary Q taking every centrohermitian matrix G of order n
    (G[::-1, ::-1] == conj(G)) to the real symmetric Q^* G Q, one column at
    a time, k < m = n // 2: (e_k + e_{n-1-k}) / sqrt(2); then e_m for odd n;
    then i (e_k - e_{n-1-k}) / sqrt(2)."""
    m, lo = n // 2, n - n // 2
    Q = np.zeros((n, n), dtype=complex)
    for k in range(m):
        Q[k, k] = Q[n - 1 - k, k] = 1 / np.sqrt(2)
        Q[k, lo + k] = 1j / np.sqrt(2)
        Q[n - 1 - k, lo + k] = -1j / np.sqrt(2)
    if n % 2:
        Q[m, m] = 1.0
    return Q


def complex_route_weights(spec, H):
    """Filter and raw spatial weights of a complex weight matrix H indexed by
    pairs of filter positions, the direct way: sum H along its filter-
    difference diagonals into a filter h on the difference box, place h on
    the data grid at (absolute index mod extent), one inverse FFT. Returns
    (h, complex ifftn result); a Hermitian H gives a conjugate-symmetric h
    and a real transform."""
    diff_box = minkowski_sum(spec.filter_box, reflect(spec.filter_box))
    flat = diff_index(spec.filter_box, spec.filter_box, diff_box).ravel()
    vals = (np.bincount(flat, weights=H.real.ravel(), minlength=diff_box.size)
            + 1j * np.bincount(flat, weights=H.imag.ravel(), minlength=diff_box.size))
    h = ComplexGrid(diff_box, vals.reshape(diff_box.extent))
    return h, np.fft.ifftn(wrap_embed(h, spec.data_box).values)


def irls_fft_penalty(spec, filters):
    """IRLS penalty as a bank of reweighting filters, the columns of filters,
    each applied by FFT: v -> sum_j conj(w_j) sum_i C_i^* G C_i (w_j v), with
    C_i circular convolution by filter i wrap-placed on the data box and G the
    gate onto the valid set, where circular and valid convolution agree."""
    box = spec.data_box
    axes = tuple(range(1, box.ndim + 1))
    ws = [w.weights_on(box) for w in spec.weightings]
    idx = spec.filter_box.indices()
    pos = np.ravel_multi_index(
        tuple(np.mod(idx[:, a], box.extent[a]) for a in range(box.ndim)), box.extent)
    bank = np.zeros((filters.shape[1], box.size), dtype=np.complex128)
    bank[:, pos] = filters.T
    bank = np.fft.fftn(bank.reshape((filters.shape[1],) + box.extent), axes=axes)
    # valid output k lands at array position (k - offset) mod extent
    rel = spec.valid_box.indices() - np.asarray(box.offset)
    gate = np.zeros(box.size)
    gate[np.ravel_multi_index(
        tuple(np.mod(rel[:, a], box.extent[a]) for a in range(box.ndim)), box.extent)] = 1.0
    gate = gate.reshape(box.extent)

    def penalty(v):
        out = np.zeros(box.extent, dtype=np.complex128)
        for w in ws:
            conv = np.fft.ifftn(np.fft.fftn(w * v)[None] * bank, axes=axes)
            back = np.fft.fftn(conv * gate[None], axes=axes) * bank.conj()
            out += np.conj(w) * np.fft.ifftn(back.sum(axis=0))
        return out

    return penalty


def annihilator_taps(points: np.ndarray) -> np.ndarray:
    """Filter taps of prod_i (1 - exp(-2j pi p_i) u): convolving them onto a
    sequence of exponentials with frequencies p_i yields exactly zero."""
    taps = np.array([1.0 + 0.0j])
    for p in np.asarray(points, dtype=float).ravel():
        taps = np.convolve(taps, [1.0, -np.exp(-2j * np.pi * p)])
    return taps


def dirac_annihilator(signal: DiracSignal, filter_box: IndexBox) -> ComplexGrid:
    """Zero-padded annihilating filter for a 1-D point-source signal."""
    if signal.locations.shape[1] != 1 or filter_box.ndim != 1:
        raise ValueError("dirac annihilators are one-dimensional")
    taps = annihilator_taps(signal.locations[:, 0])
    if len(taps) > filter_box.extent[0]:
        raise ValueError("filter box too small for the annihilator")
    vals = np.zeros(filter_box.extent, dtype=np.complex128)
    vals[: len(taps)] = taps
    return ComplexGrid(filter_box, vals)


def edge_coordinates(phantom: RectPhantom, axis: int) -> np.ndarray:
    """Distinct rectangle edge positions of the phantom along one axis."""
    coords = set()
    for _, bounds in phantom.rects:
        coords.add(bounds[axis][0])
        coords.add(bounds[axis][1])
    return np.asarray(sorted(coords))


def rect_annihilator(phantom: RectPhantom, filter_box: IndexBox) -> ComplexGrid:
    """Separable annihilating filter vanishing on every edge line of the
    phantom; annihilates both gradient-weighted lifting blocks."""
    if filter_box.ndim != phantom.ndim:
        raise ValueError("dimension mismatch")
    per_axis = [annihilator_taps(edge_coordinates(phantom, a))
                for a in range(phantom.ndim)]
    taps = per_axis[0]
    for t in per_axis[1:]:
        taps = np.multiply.outer(taps, t)
    if any(t > e for t, e in zip(taps.shape, filter_box.extent)):
        raise ValueError("filter box too small for the annihilator")
    vals = np.zeros(filter_box.extent, dtype=np.complex128)
    vals[tuple(slice(0, s) for s in taps.shape)] = taps
    return ComplexGrid(filter_box, vals)


def loop_fourier_diagonal(s: np.ndarray):
    """The reference for lifting.fourier_diagonal, on one block: the FFT
    pair fftn(s * ifftn(v)) above lifting._DENSE_GRID points, and up to it
    the flat vector times the dense matrix CT[j, k] = ifftn(s)[(j - k) mod
    extent], its entries placed one multi-index at a time."""
    if s.size > lifting._DENSE_GRID:
        return lambda v: np.fft.fftn(s * np.fft.ifftn(v))
    c = np.fft.ifftn(s)
    coords = list(np.ndindex(s.shape))
    CT = np.empty((s.size, s.size), dtype=np.complex128)
    for a, j in enumerate(coords):
        for b, k in enumerate(coords):
            CT[a, b] = c[tuple((jj - kk) % e for jj, kk, e in zip(j, k, s.shape))]
    return lambda v: (v.ravel() @ CT).reshape(s.shape)


def _admm_setup(spec: LiftingSpec, sampling: SamplingOp, d: np.ndarray,
                lam: float | None, p: float, delta: float):
    """What both ADMM references build before iterating: the per-block
    weights, sum_j |M_j|^2, the mask as floats, rho (None in equality mode)
    and the shrinkage; None where no effective regularizer leaves the
    least-squares solution at A* b."""
    _check_coverage(spec, sampling)
    gam = float(np.max(d)) / delta
    if gam <= 0 or (lam is not None and lam * schatten_weight(p) == 0):
        return None
    ws = [w.weights_on(spec.data_box) for w in spec.weightings]
    wsq = sum(np.abs(w) ** 2 for w in ws)
    rho = None if lam is None else gam * lam * schatten_weight(p)
    return ws, wsq, sampling.mask.astype(float), rho, loop_fourier_diagonal(gam / (d + gam))


def loop_admm_ls(spec: LiftingSpec, sampling: SamplingOp, d: np.ndarray,
                 lam: float | None, p: float, iters: int = 200, delta: float = 10.0,
                 x0: ComplexGrid | None = None, callback=None) -> ComplexGrid:
    """ADMM for the weighted least-squares step, carrying v_j = z_j + u_j.

    The reference for giraf.admm_ls: one block at a time, a fresh array per
    operation, with the arithmetic in the order the fast path keeps: s_j =
    M_j x; u_j = v_j - s_j and z_j = shrink(s_j - u_j) after the first
    iteration (z_j = shrink(s_j) on it); v_j = z_j + u_j; x = sum_j
    conj(M_j) r v_j + c, with the scale r and the offset c formed once.
    """
    bvals = sampling.b.values
    setup = _admm_setup(spec, sampling, d, lam, p, delta)
    if setup is None:
        return ComplexGrid(spec.data_box, bvals.copy())
    ws, wsq, maskf, rho, shrink = setup
    if lam is None:
        r, c = 1.0 / np.where(wsq > 0, wsq, 1.0), None
    else:
        denom = maskf + rho * wsq
        r, c = rho / denom, bvals / denom
    wr = [np.conj(w) * r for w in ws]

    x = (x0.values if x0 is not None else bvals).copy()
    u = [None for _ in ws]
    v = [None for _ in ws]
    for it in range(iters):
        for j, w in enumerate(ws):
            s = w * x
            if it:
                u[j] = v[j] - s
                v[j] = shrink(s - u[j]) + u[j]
            else:
                v[j] = shrink(s)
        acc = np.zeros(spec.data_box.extent, dtype=np.complex128)
        for j in range(len(ws)):
            acc += wr[j] * v[j]
        x = sampling.insert_data(acc) if lam is None else acc + c
        if callback is not None:
            callback(it + 1, x)
    return ComplexGrid(spec.data_box, x)


def z_carrying_admm_ls(spec: LiftingSpec, sampling: SamplingOp, d: np.ndarray,
                       lam: float | None, p: float, iters: int = 200, delta: float = 10.0,
                       x0: ComplexGrid | None = None, callback=None) -> ComplexGrid:
    """The same ADMM in its textbook scaled form (Boyd et al. 2011),
    carrying z_j and u_j: z_j = shrink(M_j x - u_j), x from sum_j conj(M_j)
    (z_j + u_j) divided by the x update's denominator, u_j += z_j - M_j x.
    giraf.admm_ls ran this order before it carried z + u; it agrees with
    that to rounding."""
    bvals = sampling.b.values
    setup = _admm_setup(spec, sampling, d, lam, p, delta)
    if setup is None:
        return ComplexGrid(spec.data_box, bvals.copy())
    ws, wsq, maskf, rho, shrink = setup
    denom = np.where(wsq > 0, wsq, 1.0) if lam is None else maskf + rho * wsq

    x = (x0.values if x0 is not None else bvals).copy()
    z = [np.zeros(spec.data_box.extent, dtype=np.complex128) for _ in ws]
    u = [np.zeros(spec.data_box.extent, dtype=np.complex128) for _ in ws]
    for it in range(iters):
        for j, w in enumerate(ws):
            z[j] = shrink(w * x - u[j])
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


def loop_cg_ls(spec: LiftingSpec, sampling: SamplingOp, d: np.ndarray,
               lam: float | None, p: float, iters: int = 200, tol: float = 1e-12,
               x0: ComplexGrid | None = None, callback=None) -> ComplexGrid:
    """The reference for giraf.cg_ls: the same conjugate gradients, with a
    regularizer that transforms one block at a time and adds the blocks
    onto zeros in order."""
    _check_weights(spec, d)
    _check_coverage(spec, sampling)
    bvals = sampling.b.values
    if float(np.max(d)) <= 0 or (lam is not None and lam * schatten_weight(p) == 0):
        return ComplexGrid(spec.data_box, bvals.copy())
    ws = [w.weights_on(spec.data_box) for w in spec.weightings]
    reg = loop_fourier_diagonal(d)

    def reg_op(v):
        out = np.zeros_like(v)
        for w in ws:
            out += np.conj(w) * reg(w * v)
        return out

    x = _cg_normal(reg_op, sampling, lam, p, None if x0 is None else x0.values,
                   iters, tol, callback)
    return ComplexGrid(spec.data_box, x)


def _hermitian_part(g: np.ndarray) -> np.ndarray:
    negated = np.roll(np.flip(g), 1, axis=tuple(range(g.ndim)))
    return 0.5 * (g + negated.conj())


def loop_autocorrelation(spec: LiftingSpec, x: ComplexGrid) -> np.ndarray:
    """The reference for lifting.autocorrelation: the power spectra
    re^2 + im^2 of fft(M_j x), one block at a time onto zeros, one inverse
    FFT of their sum, then its Hermitian part."""
    power = np.zeros(spec.data_box.extent)
    for op in spec.weightings:
        f = np.fft.fftn(op.weights_on(spec.data_box) * x.values)
        power += f.real * f.real + f.imag * f.imag
    return _hermitian_part(np.fft.ifftn(power))


def per_block_autocorrelation(spec: LiftingSpec, x: ComplexGrid) -> np.ndarray:
    """sum_j ifft(|fft(M_j x)|^2), one inverse FFT per block onto zeros, then
    its Hermitian part: the order lifting.autocorrelation ran before it took
    one inverse FFT of the summed power spectra."""
    g = np.zeros(spec.data_box.extent, dtype=np.complex128)
    for op in spec.weightings:
        g += np.fft.ifftn(np.abs(np.fft.fftn(op.weights_on(spec.data_box) * x.values)) ** 2)
    return _hermitian_part(g)


def halving_tril_inverse(L: np.ndarray, block: int = 64) -> np.ndarray:
    """Inverse of the lower-triangular L by halving, [[A, 0], [B, C]]^-1 =
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]], np.linalg.inv on blocks of at most
    `block` rows: the route (after np.linalg.cholesky) that the blocked
    Cholesky inverse of giraf replaced, kept as its accuracy yardstick."""
    n = L.shape[0]
    if n <= block:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    out = np.zeros_like(L)
    out[:h, :h] = halving_tril_inverse(L[:h, :h], block)
    out[h:, h:] = halving_tril_inverse(L[h:, h:], block)
    out[h:, :h] = -(out[h:, h:] @ L[h:, :h]) @ out[:h, :h]
    return out


def copied_cholesky_logdet(R: np.ndarray, eps: float) -> float:
    """sum log diag L for L the Cholesky factor of R + eps I, by the
    log-det-only pass of giraf._cholesky_inverse on a full copy of R + eps
    I: the route the p = 0 cost took before giraf._cholesky_logdet, kept
    as its bit-for-bit reference."""
    A = R.copy()
    A.flat[::A.shape[0] + 1] += eps
    return _cholesky_inverse(A, inverse=False)


def out_of_place_tril_gram(L: np.ndarray, out: np.ndarray, block: int = 64) -> None:
    """L^T L of the lower triangular L written into out, by the halving of
    giraf._tril_gram but out of place: the route it replaced above Gram
    order 350, kept as its bit-for-bit reference."""
    n = L.shape[0]
    if n <= block:
        np.matmul(L.T, L, out=out)
        return
    h = n // 2
    A, B, C = L[:h, :h], L[h:, :h], L[h:, h:]
    out_of_place_tril_gram(C, out[h:, h:], block)
    np.matmul(B.T, C, out=out[:h, h:])
    out[h:, :h] = out[:h, h:].T
    out_of_place_tril_gram(A, out[:h, :h], block)
    out[:h, :h] += B.T @ B


def symmetrized_real_gram_adjoint(spec: LiftingSpec, M: np.ndarray) -> np.ndarray:
    """The adjoint of lifting.real_gram in its symmetrized form: with S = M +
    M^T, (S11 + S33) / 2 and (S11 - S33) / 2 at the Toeplitz and Hankel
    positions of the real part, S31 in the imaginary part, sqrt(2) S's middle
    column and S[m, m] / 2 at lag 0, scattered by np.bincount. For an exactly
    symmetric M it gives lifting.real_gram_adjoint's bits."""
    n = spec.n_filter
    m, lo = n // 2, n - n // 2
    S = M + M.T
    wr, wi = np.zeros((m, n)), np.zeros((m, n))
    wr[:, :m] = (S[:m, :m] + S[lo:, lo:]) / 2
    wr[:, ::-1][:, :m] = (S[:m, :m] - S[lo:, lo:]) / 2
    wi[:, :m] = wi[:, ::-1][:, :m] = S[lo:, :m]
    if n % 2:
        wr[:, m] = S[:m, m] * np.sqrt(2.0)
        wi[:, m] = S[lo:, m] * np.sqrt(2.0)
    top = lifting._lag_index(spec, m).ravel()
    size = spec.data_box.size
    a = np.bincount(top, wr.ravel(), size) + 1j * np.bincount(top, wi.ravel(), size)
    if n % 2:
        a[0] += S[m, m] / 2
    return a.reshape(spec.data_box.extent)


def reference_p0_weights(spec: LiftingSpec, x: ComplexGrid, eps: float) -> np.ndarray:
    """Spatial p = 0 weights by the route giraf replaced: L^-1 of R + eps I
    from giraf._cholesky_inverse, L^-T L^-1 by one product up to Gram order
    350 and out_of_place_tril_gram above, and the symmetrized adjoint."""
    R = lifting.real_gram(spec, lifting.autocorrelation(spec, x))
    R.flat[::R.shape[0] + 1] += eps
    _cholesky_inverse(R)
    if R.shape[0] > 350:
        M = np.empty_like(R)
        out_of_place_tril_gram(R, M)
    else:
        M = R.T @ R
    return np.maximum(np.fft.ifftn(symmetrized_real_gram_adjoint(spec, M)).real, 0.0)


# giraf's one penalty class for every p, before it split into _EigenPenalty
# (p > 0) and _CholeskyPenalty (p = 0), verbatim but for its name: the
# bit-for-bit reference of giraf._gram_penalty. It reads _LANCZOS_ORDER
# from this module, so a test patches both modules' copies.
class BranchingGramPenalty:
    """The smoothed penalty of the surrogate lifting at one iterate x, as the
    four members _reweighted_loop reads: eigvals (the Gram eigenvalues
    clipped at zero, or None), lam_max (the largest of them, or None),
    cost(eps) and weights(eps). The linear algebra runs on the real form R
    (real_gram), which has the Gram's eigenvalues, and computes only what is
    asked for. With weighted, p > 0 takes eigh, whose vectors give the
    weight matrix V diag((eigvals + eps)^(p/2 - 1)) V^T. p = 0 keeps R, for
    the inverse L^-1 of a Cholesky factor L of R + eps I, whose L^-T L^-1
    (_tril_gram) is (R + eps I)^-1. Otherwise eigvalsh runs when values is
    set, except for p = 0 above _LANCZOS_ORDER: there values gives lam_max
    only, by Lanczos, and the kept R gives the cost by a log-det pass.
    R + eps I is positive definite, so a failed factorization means the data
    overflowed or eps fell below R's rounding: a SolverError."""

    def __init__(self, spec: LiftingSpec, x: ComplexGrid, p: float, values: bool = True,
                 weighted: bool = True):
        self.spec, self.p = spec, p
        self._V = w = self.lam_max = None
        R = real_gram(spec, autocorrelation(spec, x))
        try:
            if weighted and p > 0:
                w, self._V = np.linalg.eigh(R)
            elif values and p == 0 and R.shape[0] > _LANCZOS_ORDER:
                self.lam_max = max(_lanczos_lam_max(R), 0.0)
            elif values:
                w = np.linalg.eigvalsh(R)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Gram eigendecomposition failed: {exc}") from exc
        self._R = R if p == 0 else None
        self.eigvals = None if w is None else np.maximum(w, 0.0)
        if self.eigvals is not None:
            self.lam_max = float(np.max(self.eigvals))

    def cost(self, eps: float) -> float:
        """Smoothed Schatten penalty at eps: from the eigenvalues where they
        were taken, else (p = 0) sum log diag L, by _cholesky_logdet, which
        leaves R intact for the weights."""
        if self.eigvals is not None:
            return _smoothed_schatten_eigs(self.eigvals, self.p, eps)
        try:
            return _cholesky_logdet(self._R, eps)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Gram Cholesky factorization failed: {exc}") from exc

    def weights(self, eps: float) -> np.ndarray:
        """Spatial weights d of the weight matrix (R + eps I)^(p/2 - 1), the
        last use of this object: for p = 0, L^-1 and then L^-T L^-1 are
        formed in R's storage, which this object lets go."""
        if eps <= 0:
            raise SolverError("filter update needs a positive epsilon")
        if self.p > 0:
            M = (self._V * (self.eigvals + eps) ** (self.p / 2.0 - 1.0)) @ self._V.T
        else:
            M, self._R = self._R, None
            M.flat[::M.shape[0] + 1] += eps
            try:
                _cholesky_inverse(M)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"Gram Cholesky factorization failed: {exc}") from exc
            _tril_gram(M)
        return _weights_from(self.spec, M)



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
