"""Lifted matrices, surrogates and Gram identities against dense oracles."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cslr import lifting
from cslr.giraf import _check_coverage
from cslr.grids import ComplexGrid, IndexBox, circ_conv, zero_pad
from cslr.lifting import (
    BudgetError,
    _valid_gather,
    LiftingSpec,
    WeightingOp,
    apply_lift,
    autocorrelation,
    fourier_diagonal,
    gram_surrogate,
    lift_adjoint,
    lift_normal_diagonal,
    materialize_exact,
    materialize_surrogate,
    real_gram,
    real_gram_adjoint,
)
from cslr.models import SamplingOp, gradient_weighting
from oracles import (
    grid_dict,
    loop_autocorrelation,
    per_block_autocorrelation,
    random_grid,
    symmetrized_real_gram_adjoint,
)


def brute_exact_lift(spec, x):
    """Entry-by-entry dense lifting from index dictionaries."""
    gamma = spec.valid_box
    blocks = []
    for w in spec.weightings:
        wd = ComplexGrid(spec.data_box, w.weights_on(spec.data_box) * x.values)
        yd = grid_dict(wd)
        block = np.zeros((gamma.size, spec.n_filter), dtype=complex)
        for r, k in enumerate(gamma.indices()):
            for c, l in enumerate(spec.filter_box.indices()):
                block[r, c] = yd[tuple(k - l)]
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def random_spec(rng, ndim, weightings=None, max_data=8, max_filt=3):
    fe = tuple(int(rng.integers(1, max_filt + 1)) for _ in range(ndim))
    fo = tuple(int(rng.integers(-(f - 1), 1)) if f > 1 else 0 for f in fe)
    de = tuple(f + int(rng.integers(2, max_data)) for f in fe)
    do = tuple(int(rng.integers(f + fext - dext, f + 1))
               for f, fext, dext in zip(fo, fe, de))
    w = weightings or (WeightingOp.identity(),)
    return LiftingSpec(IndexBox(do, de), IndexBox(fo, fe), w)


GRAD2D = (WeightingOp.fourier_derivative(0), WeightingOp.fourier_derivative(1))


@st.composite
def lifting_specs(draw):
    """LiftingSpecs in 1-D, 2-D and 3-D: any offsets, filter extents 1 to 4
    (so the flattened filter order takes both parities), the filter box
    anywhere inside the data box, identity or gradient weighting."""
    ndim = draw(st.integers(1, 3))
    fe = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    de = tuple(f + draw(st.integers(0, 4)) for f in fe)
    do = tuple(draw(st.integers(-6, 6)) for _ in range(ndim))
    fo = tuple(o + draw(st.integers(0, d - f)) for o, d, f in zip(do, de, fe))
    w = gradient_weighting(ndim) if draw(st.booleans()) else (WeightingOp.identity(),)
    return LiftingSpec(IndexBox(do, de), IndexBox(fo, fe), w)


# always-run cases: both parities of the filter order, 1-D to 3-D, both
# weightings
SPEC_EXAMPLES = (
    LiftingSpec(IndexBox((-5,), (11,)), IndexBox((-2,), (4,)), gradient_weighting(1)),
    LiftingSpec(IndexBox((2, -4), (6, 7)), IndexBox((3, -2), (3, 3)), gradient_weighting(2)),
    LiftingSpec(IndexBox((-3, 0, -2), (4, 5, 3)), IndexBox((-2, 1, -2), (2, 2, 2)),
                gradient_weighting(3)),
    LiftingSpec(IndexBox((-1, -1, -1), (4, 4, 4)), IndexBox((0, -1, 0), (3, 1, 3))),
)


def given_specs(test):
    """Run test(spec, seed) on drawn lifting specs and on SPEC_EXAMPLES."""
    for i, spec in enumerate(SPEC_EXAMPLES):
        test = example(spec=spec, seed=i)(test)
    test = given(spec=lifting_specs(), seed=st.integers(0, 2**32 - 1))(test)
    return settings(derandomize=True, deadline=None)(test)


def test_exact_lift_matches_dict_oracle():
    rng = np.random.default_rng(101)
    for _ in range(15):
        ndim = int(rng.integers(1, 3))
        w = GRAD2D if (ndim == 2 and rng.random() < 0.5) else None
        spec = random_spec(rng, ndim, weightings=w)
        x = random_grid(rng, spec.data_box)
        assert np.max(np.abs(materialize_exact(spec, x) - brute_exact_lift(spec, x))) < 1e-12


def test_exact_lift_toeplitz_rows():
    x = ComplexGrid(IndexBox((0,), (10,)),
                    (np.arange(10) + 1j * np.arange(10) ** 2).astype(complex))
    spec = LiftingSpec(x.box, IndexBox((0,), (3,)))
    T = materialize_exact(spec, x)
    assert T.shape == (8, 3)
    for r, k in enumerate(range(2, 10)):
        assert np.array_equal(T[r], x.values[[k, k - 1, k - 2]])


def test_apply_lift_equals_matrix_product():
    rng = np.random.default_rng(103)
    for _ in range(15):
        ndim = int(rng.integers(1, 3))
        w = GRAD2D if (ndim == 2 and rng.random() < 0.5) else None
        spec = random_spec(rng, ndim, weightings=w)
        x = random_grid(rng, spec.data_box)
        h = random_grid(rng, spec.filter_box)
        T = materialize_exact(spec, x)
        ref = (T @ h.values.ravel()).reshape(spec.n_blocks, -1)
        out = apply_lift(spec, x, h)
        got = np.stack([blk.values.ravel() for blk in out])
        assert np.max(np.abs(got - ref)) < 1e-12


def test_surrogate_columns_are_circular_convolutions():
    rng = np.random.default_rng(105)
    spec = random_spec(rng, 2)
    x = random_grid(rng, spec.data_box)
    S = materialize_surrogate(spec, x)
    for c, l in enumerate(spec.filter_box.indices()):
        delta = np.zeros(spec.filter_box.extent, dtype=complex)
        delta[tuple(np.asarray(l) - spec.filter_box.offset)] = 1.0
        col = circ_conv(x, ComplexGrid(spec.filter_box, delta)).values.ravel()
        assert np.max(np.abs(S[:, c] - col)) < 1e-12


def test_surrogate_contains_exact_rows_and_dominates():
    rng = np.random.default_rng(107)
    for _ in range(8):
        ndim = int(rng.integers(1, 3))
        w = GRAD2D if ndim == 2 else None
        spec = random_spec(rng, ndim, weightings=w)
        x = random_grid(rng, spec.data_box)
        T = materialize_exact(spec, x)
        S = materialize_surrogate(spec, x)
        srows = {S[r].tobytes() for r in range(S.shape[0])}
        assert all(T[r].tobytes() in srows for r in range(T.shape[0]))
        st = np.linalg.svd(T, compute_uv=False)
        ss = np.linalg.svd(S, compute_uv=False)
        assert np.all(st <= ss[: len(st)] + 1e-10)


def test_gram_matches_dense_surrogate():
    rng = np.random.default_rng(109)
    for _ in range(10):
        ndim = int(rng.integers(1, 3))
        w = GRAD2D if (ndim == 2 and rng.random() < 0.5) else None
        spec = random_spec(rng, ndim, weightings=w)
        x = random_grid(rng, spec.data_box)
        S = materialize_surrogate(spec, x)
        ref = S.conj().T @ S
        G = gram_surrogate(spec, x)
        assert np.linalg.norm(G - ref) / np.linalg.norm(ref) < 1e-12
        # hermitian PSD
        assert np.linalg.norm(G - G.conj().T) == 0
        assert np.linalg.eigvalsh(G)[0] > -1e-10 * max(1.0, np.linalg.eigvalsh(G)[-1])


@given_specs
def test_gram_is_centrohermitian(spec, seed):
    # G[a, b] = g[k_a - k_b] and reversing the flat filter index negates
    # every difference, so the reversal conjugates G to the last bit
    x = random_grid(np.random.default_rng(seed), spec.data_box)
    G = gram_surrogate(spec, x)
    assert np.array_equal(G[::-1, ::-1], G.conj())


@given_specs
def test_real_gram_adjoint_inner_product(spec, seed):
    # <real_gram(g), M> = Re <g, real_gram_adjoint(M)> for every Hermitian
    # lag vector g and every real M, symmetric or not
    rng = np.random.default_rng(seed)
    g = np.fft.ifftn(rng.standard_normal(spec.data_box.extent))
    M = rng.standard_normal((spec.n_filter, spec.n_filter))
    R = real_gram(spec, g)
    lhs = np.sum(R * M)
    rhs = np.vdot(g, real_gram_adjoint(spec, M)).real
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(R) * np.linalg.norm(M)


@given_specs
def test_real_gram_adjoint_of_a_symmetric_matrix_keeps_the_symmetrized_bits(spec, seed):
    # reading M's blocks directly gives, for an exactly symmetric M, the bits
    # of the S = M + M^T form it replaced: (2a +- 2b) / 2 = a +- b exactly
    B = np.random.default_rng(seed).standard_normal((spec.n_filter, spec.n_filter))
    M = B @ B.T
    assert np.array_equal(M, M.T)
    want = symmetrized_real_gram_adjoint(spec, M)
    assert real_gram_adjoint(spec, M).tobytes() == want.tobytes()


def test_real_gram_adjoint_does_not_copy_the_lag_index():
    # at Gram order 1089 the adjoint's peak above its input is its two
    # (m, n) weight arrays, numpy's (m, m) copy for the overlapping mirror
    # assignment and small lag-grid arrays; a copy of the cached lag index
    # (as np.bincount makes of a read-only index) would add its bytes.
    # Bound: the weight arrays plus 3/4 of the index
    spec = LiftingSpec(IndexBox((0, 0), (67, 67)), IndexBox((0, 0), (33, 33)))
    n = spec.n_filter
    M = np.random.default_rng(0).standard_normal((n, n))
    real_gram_adjoint(spec, M)  # builds the cached lag index
    index_bytes = lifting._lag_index(spec, n // 2).nbytes
    tracemalloc.start()
    try:
        real_gram_adjoint(spec, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (n // 2) * n * 8 + 0.75 * index_bytes


@given_specs
def test_gram_is_the_lag_gather_of_the_autocorrelation(spec, seed):
    # G[a, b] = g[(k_a - k_b) mod extent], with g Hermitian to the last bit
    x = random_grid(np.random.default_rng(seed), spec.data_box)
    g = autocorrelation(spec, x)
    reflected = np.roll(np.flip(g), 1, axis=tuple(range(g.ndim)))
    assert np.array_equal(reflected, g.conj())
    idx = spec.filter_box.indices()
    lag = np.mod(idx[:, None, :] - idx[None, :, :], spec.data_box.extent)
    assert np.array_equal(gram_surrogate(spec, x), g[tuple(np.moveaxis(lag, -1, 0))])


@given_specs
def test_autocorrelation_is_byte_identical_to_the_loop_reference(spec, seed):
    # one FFT per direction over the stacked blocks and a sum over the stack
    # give the bits of the block-by-block loop in tests/oracles.py
    x = random_grid(np.random.default_rng(seed), spec.data_box)
    assert autocorrelation(spec, x).tobytes() == loop_autocorrelation(spec, x).tobytes()


@given_specs
def test_autocorrelation_matches_one_inverse_fft_per_block(spec, seed):
    # one inverse FFT of the summed power spectra is sum_j ifft(|fft(M_j
    # x)|^2) up to rounding
    x = random_grid(np.random.default_rng(seed), spec.data_box)
    want = per_block_autocorrelation(spec, x)
    assert np.max(np.abs(autocorrelation(spec, x) - want)) <= 1e-14 * np.max(np.abs(want))


@given_specs
def test_dense_fourier_diagonal_matches_the_fft_pair(spec, seed):
    # below lifting._DENSE_GRID the operator is one dense circulant matrix
    # per block; it agrees with fftn(s * ifftn(v)) on each block, in 1-D to
    # 3-D, for a random real s
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(spec.data_box.extent)
    V = np.stack([random_grid(rng, spec.data_box).values for _ in range(spec.n_blocks)])
    got = {}
    for side, dense_grid in (("fft", 0), ("dense", spec.data_box.size)):
        with mock.patch.object(lifting, "_DENSE_GRID", dense_grid):
            got[side] = fourier_diagonal(s)(V, np.empty_like(V))
    want = np.stack([np.fft.fftn(s * np.fft.ifftn(v)) for v in V])
    assert got["fft"].tobytes() == want.tobytes()
    assert np.linalg.norm(got["dense"] - want) <= 1e-14 * np.linalg.norm(want)


def test_block_weights_are_one_read_only_stack():
    # K blocks of the data box's extent in one array; iterating it yields
    # the per-block weights, read-only like the stack
    spec = LiftingSpec(IndexBox((-4, -4), (9, 9)), IndexBox((-1, -1), (3, 3)), GRAD2D)
    ws = spec.block_weights
    assert ws.shape == (2, 9, 9) and not ws.flags.writeable
    for w, op in zip(ws, spec.weightings):
        assert np.array_equal(w, op.weights_on(spec.data_box))
        assert not w.flags.writeable
    assert spec.block_weights is ws


def test_weight_energy_is_one_read_only_sum():
    # sum_j |M_j|^2, summed in block order, built once and shared by the
    # exact lifting's normal diagonal and the inner solvers' coverage check
    spec = LiftingSpec(IndexBox((-4, -4), (9, 9)), IndexBox((-1, -1), (3, 3)), GRAD2D)
    wsq = spec.weight_energy
    assert wsq.tobytes() == sum(np.abs(w) ** 2 for w in spec.block_weights).tobytes()
    assert not wsq.flags.writeable and spec.weight_energy is wsq
    flat = _valid_gather(spec.data_box, spec.filter_box).ravel()
    count = np.bincount(flat, minlength=spec.data_box.size).reshape(spec.data_box.extent)
    assert lift_normal_diagonal(spec).tobytes() == (count * wsq).tobytes()
    sampling = SamplingOp(np.ones(spec.data_box.extent, dtype=bool),
                          ComplexGrid(spec.data_box, np.zeros(spec.data_box.extent)))
    assert _check_coverage(spec, sampling) is wsq


def test_gram_1d_generator_example():
    rng = np.random.default_rng(111)
    x = random_grid(rng, IndexBox((0,), (8,)))
    spec = LiftingSpec(x.box, IndexBox((0,), (2,)))
    g = np.fft.ifft(np.abs(np.fft.fft(x.values)) ** 2)
    G = gram_surrogate(spec, x)
    ref = np.array([[g[0], g[-1 % 8]], [g[1], g[0]]])
    assert np.max(np.abs(G - ref)) < 1e-12


def test_adjoint_inner_product():
    rng = np.random.default_rng(113)
    for _ in range(6):
        ndim = int(rng.integers(1, 3))
        w = GRAD2D if ndim == 2 else None
        spec = random_spec(rng, ndim, weightings=w)
        x = random_grid(rng, spec.data_box)
        X = rng.standard_normal(spec.shape_exact) + 1j * rng.standard_normal(spec.shape_exact)
        lhs = np.vdot(X, materialize_exact(spec, x))
        rhs = np.vdot(lift_adjoint(spec, X).values, x.values)
        assert abs(lhs - rhs) / abs(lhs) < 1e-12


@given_specs
def test_scatter_matches_2d_index_add_at(spec, seed):
    # the flat index takes np.add.at's fast path; the (row, filter) index
    # sums in the same order, so both agree to the last bit
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(spec.shape_exact) + 1j * rng.standard_normal(spec.shape_exact)
    flat = _valid_gather(spec.data_box, spec.filter_box)
    m = spec.valid_box.size
    want = np.zeros(spec.data_box.extent, dtype=complex)
    for j, w in enumerate(spec.weightings):
        acc = np.zeros(spec.data_box.size, dtype=complex)
        np.add.at(acc, flat, X[j * m:(j + 1) * m])
        want += np.conj(w.weights_on(spec.data_box)) * acc.reshape(spec.data_box.extent)
    assert np.array_equal(lift_adjoint(spec, X).values, want)
    count = np.zeros(spec.data_box.size)
    np.add.at(count, flat, 1.0)
    wsq = sum(np.abs(w.weights_on(spec.data_box)) ** 2 for w in spec.weightings)
    assert np.array_equal(lift_normal_diagonal(spec), count.reshape(spec.data_box.extent) * wsq)


def test_normal_diagonal_matches_operator_columns():
    rng = np.random.default_rng(115)
    spec = random_spec(rng, 2, weightings=GRAD2D, max_data=5)
    diag = lift_normal_diagonal(spec)
    for m, idx in enumerate(spec.data_box.indices()):
        e = np.zeros(spec.data_box.extent, dtype=complex)
        e[tuple(np.asarray(idx) - spec.data_box.offset)] = 1.0
        col = materialize_exact(spec, ComplexGrid(spec.data_box, e))
        assert abs(np.vdot(col, col).real - diag.ravel()[m]) < 1e-10


def test_budget_guard():
    spec = LiftingSpec(IndexBox((-300, -300), (600, 600)), IndexBox((-4, -4), (9, 9)))
    x = ComplexGrid(spec.data_box, np.zeros(spec.data_box.extent))
    with pytest.raises(BudgetError):
        materialize_exact(spec, x)
    with pytest.raises(BudgetError):
        materialize_surrogate(spec, x)


def test_with_data_box_transplants_index_weights():
    # the transplanted spec builds its own weights, whatever the source holds
    spec = LiftingSpec(IndexBox((-4, -4), (9, 9)), IndexBox((-1, -1), (3, 3)), GRAD2D)
    assert spec.block_weights[0][0, 0] == 2j * np.pi * (-4)
    big = spec.with_data_box(IndexBox((-6, -6), (13, 13)))
    w = big.block_weights[0]
    assert w.shape == (13, 13) and w[0, 0] == 2j * np.pi * (-6)


def test_weighting_validation():
    with pytest.raises(ValueError):
        WeightingOp("nope")
    with pytest.raises(ValueError):
        WeightingOp("fourier_derivative")
    with pytest.raises(ValueError):
        WeightingOp.fourier_derivative(-1)
    with pytest.raises(ValueError):
        LiftingSpec(IndexBox((0,), (4,)), IndexBox((0,), (6,)))
    # derivative axis out of range for a 1-D box
    with pytest.raises(ValueError):
        LiftingSpec(IndexBox((0,), (8,)), IndexBox((0,), (2,)),
                    (WeightingOp.fourier_derivative(1),))
