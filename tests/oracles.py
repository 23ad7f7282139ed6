"""Brute-force reference implementations used to pin the fast paths.

Everything here favors obviousness over speed: python dicts keyed by absolute
index tuples, explicit O(L^2) transform matrices, and elementwise loops.
"""

import numpy as np

from cslr.grids import ComplexGrid, IndexBox, reflect, valid_set


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
