"""Solver-level tests: annihilation weights, inner least-squares solvers
against dense oracles, the outer reweighted iteration, and config guards."""

import numpy as np
import pytest
from hypothesis import assume

from cslr.giraf import (
    ConfigError,
    SolverConfig,
    SolverError,
    _complex_form,
    _filter_from_H,
    _gram_spectrum,
    _reweight,
    admm_ls,
    cg_ls,
    filter_update,
    giraf_solve,
    oversampled_box,
    schatten_weight,
)
from cslr.grids import ComplexGrid, IndexBox, idft, zero_pad
from cslr.lifting import LiftingSpec, gram_surrogate
from cslr.models import (
    SamplingOp,
    dirac_fourier,
    gradient_weighting,
    random_diracs,
    random_mask,
    rect_fourier,
    pwc_phantom,
)

from oracles import centro_unitary, dense_dft_matrix, random_grid, reverse_conjugate
from test_lifting import given_specs


def _random_grid(box, rng):
    vals = rng.standard_normal(box.extent) + 1j * rng.standard_normal(box.extent)
    return ComplexGrid(box, vals)


def direct_weights(spec, x, eps, p):
    """Oracle for the annihilation weights: eigendecompose the surrogate
    Gram, then sum |idft(padded eigenfilter)|^2 with the reweighting
    coefficients, one inverse transform per filter."""
    w, V = np.linalg.eigh(gram_surrogate(spec, x))
    w = np.maximum(w, 0.0)
    q = 1.0 - p / 2.0
    total = np.zeros(spec.data_box.extent)
    for i in range(len(w)):
        hi = ComplexGrid(spec.filter_box, V[:, i].reshape(spec.filter_box.extent))
        mu = idft(zero_pad(hi, spec.data_box))
        total += (w[i] + eps) ** (-q) * np.abs(mu.values) ** 2
    return total


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_weights_single_filter_path_matches_direct_sum(p):
    rng = np.random.default_rng(41)
    for _ in range(4):
        data = IndexBox((-6, -5), (13, 11))
        filt = IndexBox((-2, -1), (5, 3))
        spec = LiftingSpec(data, filt)
        x = _random_grid(data, rng)
        eps = 10.0 ** rng.uniform(-3, 1)
        fs = filter_update(spec, x, eps, p)
        want = direct_weights(spec, x, eps, p)
        rel = np.linalg.norm(fs.d.values.real - want) / np.linalg.norm(want)
        assert rel < 1e-10


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("data, filt", [
    (IndexBox((-6,), (13,)), IndexBox((-2,), (4,))),
    (IndexBox((-4, -3), (9, 8)), IndexBox((-1, -2), (2, 3))),
    (IndexBox((-2, -3, -1), (5, 6, 4)), IndexBox((-1, -1, 0), (2, 2, 2))),
])
def test_weights_even_filter_order_match_direct_sum(data, filt, p):
    # an even filter order has no middle basis vector in the real form
    rng = np.random.default_rng(43)
    spec = LiftingSpec(data, filt)
    for _ in range(3):
        x = _random_grid(data, rng)
        eps = 10.0 ** rng.uniform(-3, 1)
        fs = filter_update(spec, x, eps, p)
        want = direct_weights(spec, x, eps, p)
        rel = np.linalg.norm(fs.d.values.real - want) / np.linalg.norm(want)
        assert rel < 1e-10


def test_weights_gradient_lifting_and_offsets():
    rng = np.random.default_rng(42)
    data = IndexBox((-8, -8), (17, 17))
    filt = IndexBox((-3, -3), (7, 7))
    spec = LiftingSpec(data, filt, gradient_weighting(2))
    x = _random_grid(data, rng)
    fs = filter_update(spec, x, 0.05, 0.0)
    want = direct_weights(spec, x, 0.05, 0.0)
    rel = np.linalg.norm(fs.d.values.real - want) / np.linalg.norm(want)
    assert rel < 1e-10


def test_weights_at_zero_iterate_are_uniform():
    data = IndexBox((-10,), (21,))
    filt = IndexBox((-3,), (7,))
    spec = LiftingSpec(data, filt)
    eps, p = 0.37, 0.5
    fs = filter_update(spec, ComplexGrid.zeros(data), eps, p)
    # all Gram eigenvalues are zero, so every eigenfilter gets the same
    # weight and the spatial sum collapses to N/L times eps^-q
    expect = eps ** (-(1.0 - p / 2.0)) * filt.size / data.size
    assert np.max(np.abs(fs.d.values.real - expect)) < 1e-12 * expect


@pytest.mark.parametrize("data, filt, weighted", [
    (IndexBox((-6,), (13,)), IndexBox((-2,), (5,)), False),
    (IndexBox((-7,), (14,)), IndexBox((-3,), (6,)), True),
    (IndexBox((-5, -4), (11, 8)), IndexBox((-2, -1), (4, 3)), True),
    (IndexBox((-3, -2, -3), (6, 5, 7)), IndexBox((-1, -1, -1), (2, 3, 3)), False),
    (IndexBox((-2, -3, -2), (5, 6, 4)), IndexBox((0, -1, 0), (3, 2, 2)), True),
])
def test_p0_inverse_matches_eigenvector_weights(data, filt, weighted):
    # for p = 0 the weight matrix is (G + eps I)^-1: one inverse of the Gram
    # matrix must give the eigenvector path's filter and weights
    rng = np.random.default_rng(47)
    spec = LiftingSpec(data, filt, gradient_weighting(data.ndim)) if weighted \
        else LiftingSpec(data, filt)
    for _ in range(3):
        x = _random_grid(data, rng)
        w, V = np.linalg.eigh(gram_surrogate(spec, x))
        eps = 10.0 ** rng.uniform(-6, -2) * np.max(w)  # the schedule's range
        w = np.maximum(w, 0.0)
        want = _filter_from_H(spec, (V / (w + eps)) @ V.conj().T, w)
        eigvals, R = _gram_spectrum(spec, x, 0.0, True)
        got = _reweight(spec, eigvals, R, eps, 0.0)
        for a, b in ((got.d.values, want.d.values), (got.h.values, want.h.values)):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_eigenvectors_only_where_weights_need_them(monkeypatch, p):
    # p = 0 reweights with a matrix inverse and takes eigenvalues alone;
    # p > 0 needs one eigendecomposition per outer iteration and none for
    # the closing spectrum
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    box = IndexBox((-10,), (21,))
    spec = LiftingSpec(box, IndexBox((-2,), (5,)))
    truth = _random_grid(box, np.random.default_rng(48))
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=20))
    cfg = SolverConfig(p=p, lam=5.0, outer_iters=4, inner_iters=5)
    giraf_solve(spec, samp, cfg)
    assert len(calls) == (0 if p == 0 else cfg.outer_iters)


@given_specs
def test_real_form_matches_unitary_oracle(spec, seed):
    # the spectrum works on R = Q^* G Q: real symmetric with the spectrum
    # of G, and its weight matrix maps back to the complex one
    rng = np.random.default_rng(seed)
    x = random_grid(rng, spec.data_box)
    G = gram_surrogate(spec, x)
    Q = centro_unitary(G.shape[0])
    _, R = _gram_spectrum(spec, x, 0.0, True)
    assert R.dtype == np.float64 and np.array_equal(R, R.T)
    scale = np.linalg.norm(G)
    assert np.linalg.norm(R - Q.conj().T @ G @ Q) <= 1e-14 * scale

    lam_g, lam_r = np.linalg.eigvalsh(G), np.linalg.eigvalsh(R)
    assume(lam_g[-1] > 0)  # a gradient weighting can vanish on a 1-point box
    assert np.max(np.abs(lam_r - lam_g)) <= 1e-13 * lam_g[-1]

    eye = np.eye(G.shape[0])
    eps = 10.0 ** rng.uniform(-3, 0) * lam_g[-1]
    M = np.linalg.inv(R + eps * eye)
    want = np.linalg.inv(G + eps * eye)
    for H in (Q @ M @ Q.conj().T, _complex_form(M)):
        assert np.linalg.norm(H - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_gram_linear_algebra_is_real(monkeypatch, p):
    # every eigvalsh, eigh and inv of a solve runs on the real form
    dtypes = []
    for name in ("eigvalsh", "eigh", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, fn=fn, **kw: dtypes.append(a.dtype) or fn(a, **kw))
    box = IndexBox((-10,), (21,))
    spec = LiftingSpec(box, IndexBox((-2,), (5,)))
    truth = _random_grid(box, np.random.default_rng(49))
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=21))
    giraf_solve(spec, samp, SolverConfig(p=p, lam=5.0, outer_iters=4, inner_iters=5))
    assert dtypes and not any(np.issubdtype(d, np.complexfloating) for d in dtypes)


def test_filter_is_conjugate_symmetric():
    rng = np.random.default_rng(43)
    data = IndexBox((-6,), (13,))
    filt = IndexBox((-2,), (5,))
    spec = LiftingSpec(data, filt)
    fs = filter_update(spec, _random_grid(data, rng), 0.1, 0.0)
    mirrored = reverse_conjugate(fs.h)
    assert mirrored.box == fs.h.box
    np.testing.assert_allclose(mirrored.values, fs.h.values, atol=1e-12)


def test_non_finite_weight_matrix_is_a_solver_error():
    # the filter and weight grids are not re-scanned on construction, so a
    # blow-up in the weight matrix has to surface from the weights' own checks
    spec = LiftingSpec(IndexBox((-6,), (13,)), IndexBox((-2,), (5,)))
    H = np.eye(5, dtype=complex)
    for bad in (np.nan, np.inf, 1j * np.nan):
        H[1, 2] = bad
        with pytest.raises(SolverError, match="not finite"):
            _filter_from_H(spec, H, np.ones(5))


def _dense_normal_solution(spec, sampling, d, lam, p):
    """Dense oracle for the regularized least-squares step: assemble
    mask + lam*C_p*sum_j M_j^H F D F^H M_j explicitly and solve."""
    box = spec.data_box
    W = dense_dft_matrix(box)
    D = np.diag(d.values.real.ravel())
    Q = np.diag(sampling.mask.ravel().astype(float)).astype(complex)
    cp = schatten_weight(p)
    for op in spec.weightings:
        wj = np.diag(op.weights_on(box).ravel())
        Q += lam * cp * (wj.conj().T @ W @ D @ W.conj().T @ wj)
    x = np.linalg.solve(Q, sampling.b.values.ravel())
    return x.reshape(box.extent)


@pytest.mark.parametrize("weighted", [False, True])
def test_admm_matches_dense_normal_equations(weighted):
    rng = np.random.default_rng(44)
    box = IndexBox((-3, -3), (7, 7))
    filt = IndexBox((-1, -1), (3, 3))
    weightings = gradient_weighting(2) if weighted else None
    spec = LiftingSpec(box, filt, weightings) if weightings else LiftingSpec(box, filt)
    truth = _random_grid(box, rng)
    mask = random_mask(box, 0.6, seed=5, force_dc=weighted)
    samp = SamplingOp.measure(truth, mask)
    fs = filter_update(spec, samp.zero_filled(), 0.1, 0.0)
    lam = 3.0
    want = _dense_normal_solution(spec, samp, fs.d, lam, 0.0)
    got = admm_ls(spec, samp, fs.d, lam, 0.0, iters=500, delta=10.0)
    rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
    assert rel < 1e-6


def test_cg_matches_dense_normal_equations():
    rng = np.random.default_rng(45)
    box = IndexBox((-4,), (9,))
    filt = IndexBox((-2,), (5,))
    spec = LiftingSpec(box, filt)
    truth = _random_grid(box, rng)
    samp = SamplingOp.measure(truth, random_mask(box, 0.7, seed=6))
    fs = filter_update(spec, samp.zero_filled(), 0.2, 0.5)
    lam = 1.5
    want = _dense_normal_solution(spec, samp, fs.d, lam, 0.5)
    got = cg_ls(spec, samp, fs.d, lam, 0.5, iters=500, tol=1e-14)
    rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
    assert rel < 1e-10


def test_equality_mode_pins_measured_samples_and_solvers_agree():
    rng = np.random.default_rng(46)
    box = IndexBox((-6,), (13,))
    filt = IndexBox((-2,), (5,))
    spec = LiftingSpec(box, filt)
    truth = _random_grid(box, rng)
    samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=7))
    fs = filter_update(spec, samp.zero_filled(), 0.1, 0.0)
    xa = admm_ls(spec, samp, fs.d, None, 0.0, iters=3000, delta=10.0)
    xc = cg_ls(spec, samp, fs.d, None, 0.0, iters=2000, tol=1e-14)
    np.testing.assert_array_equal(xa.values[samp.mask], samp.b.values[samp.mask])
    np.testing.assert_array_equal(xc.values[samp.mask], samp.b.values[samp.mask])
    rel = np.linalg.norm(xa.values - xc.values) / np.linalg.norm(xc.values)
    assert rel < 1e-6


def test_zero_weights_return_zero_filled_data():
    box = IndexBox((-4,), (9,))
    spec = LiftingSpec(box, IndexBox((-1,), (3,)))
    truth = ComplexGrid(box, np.arange(9, dtype=complex).reshape(9) + 1j)
    samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=8))
    d = ComplexGrid.zeros(box)
    out = admm_ls(spec, samp, d, 2.0, 0.0, iters=50)
    np.testing.assert_array_equal(out.values, samp.b.values)
    out = cg_ls(spec, samp, d, 2.0, 0.0, iters=50)
    np.testing.assert_array_equal(out.values, samp.b.values)


def test_oversampled_box_margins():
    box = IndexBox((-63,), (127,))
    filt = IndexBox((-7,), (15,))
    assert oversampled_box(box, filt) == IndexBox((-77,), (155,))
    assert oversampled_box(box, filt, 2.0) == IndexBox((-127,), (255,))
    assert oversampled_box(box, filt, 1.0) == box
    sq = IndexBox((-32, -32), (65, 65))
    grown = oversampled_box(sq, IndexBox((-4, -4), (9, 9)), 1.25)
    assert grown == IndexBox((-41, -41), (83, 83))


def test_dirac_recovery_end_to_end():
    box = IndexBox((-31,), (63,))
    filt = IndexBox((-7,), (15,))
    spec = LiftingSpec(box, filt)
    truth = dirac_fourier(random_diracs(4, seed=3, min_separation=2.0 / 15), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=11))
    cfg = SolverConfig(p=0.0, lam=None, outer_iters=25, ls_solver="admm",
                       inner_iters=30, oversample=True)
    trace = giraf_solve(spec, samp, cfg, ground_truth=truth)
    assert trace.records[-1].nmse < 1e-4
    # measured samples survive exactly in equality mode
    np.testing.assert_array_equal(trace.x.values[samp.mask], samp.b.values[samp.mask])


def test_trace_contract():
    box = IndexBox((-10,), (21,))
    filt = IndexBox((-2,), (5,))
    spec = LiftingSpec(box, filt)
    rng = np.random.default_rng(9)
    truth = _random_grid(box, rng)
    samp = SamplingOp.measure(truth, random_mask(box, 0.7, seed=12))
    cfg = SolverConfig(p=0.5, lam=10.0, outer_iters=5, inner_iters=10)
    trace = giraf_solve(spec, samp, cfg, ground_truth=truth)
    assert [r.iteration for r in trace.records] == [1, 2, 3, 4, 5]
    eps = [r.eps for r in trace.records]
    assert all(b <= a for a, b in zip(eps, eps[1:]))
    assert trace.eps0 == pytest.approx(eps[0])
    secs = [r.seconds for r in trace.records]
    assert all(b >= a for a, b in zip(secs, secs[1:]))
    for rec in trace.records:
        assert rec.cost is not None
        assert 0.0 <= rec.sigma_min <= rec.sigma_max
        assert rec.nmse is not None
    assert trace.x.box == box


def test_monotone_cost_with_frozen_eps():
    box = IndexBox((-8, -8), (17, 17))
    filt = IndexBox((-2, -2), (5, 5))
    spec = LiftingSpec(box, filt, gradient_weighting(2))
    truth = rect_fourier(pwc_phantom(), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=13, force_dc=True))
    for p in (0.0, 1.0):
        cfg = SolverConfig(p=p, lam=50.0, eps0=1e-2, eps_min=1e-2, outer_iters=8,
                           ls_solver="cg", inner_iters=4000, cg_tol=1e-14)
        trace = giraf_solve(spec, samp, cfg)
        costs = [r.cost for r in trace.records]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-9 * abs(a)


def test_solver_runs_are_deterministic():
    box = IndexBox((-10,), (21,))
    spec = LiftingSpec(box, IndexBox((-2,), (5,)))
    rng = np.random.default_rng(14)
    truth = _random_grid(box, rng)
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=15))
    cfg = SolverConfig(p=0.0, lam=5.0, outer_iters=4, inner_iters=15)
    a = giraf_solve(spec, samp, cfg)
    b = giraf_solve(spec, samp, cfg)
    assert a.x.values.tobytes() == b.x.values.tobytes()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SolverConfig(p=1.5).validate()
    with pytest.raises(ConfigError):
        SolverConfig(lam=0.0).validate()
    with pytest.raises(ConfigError):
        SolverConfig(eta=1.0).validate()
    with pytest.raises(ConfigError):
        SolverConfig(delta=0.5).validate()
    with pytest.raises(ConfigError):
        SolverConfig(ls_solver="banana").validate()
    with pytest.raises(ConfigError):
        SolverConfig(eps0=-1.0).validate()
    with pytest.raises(ConfigError):
        SolverConfig(oversample_factor=0.5).validate()


def test_unsampled_dc_with_gradient_weighting_is_rejected():
    box = IndexBox((-4, -4), (9, 9))
    spec = LiftingSpec(box, IndexBox((-1, -1), (3, 3)), gradient_weighting(2))
    rng = np.random.default_rng(16)
    truth = _random_grid(box, rng)
    mask = random_mask(box, 0.5, seed=17, force_dc=True)
    dc = tuple(0 - o for o in box.offset)
    mask = mask.copy()
    mask[dc] = False
    samp = SamplingOp.measure(truth, mask)
    cfg = SolverConfig(p=0.0, lam=None, outer_iters=2, inner_iters=5)
    with pytest.raises(ConfigError):
        giraf_solve(spec, samp, cfg)


def test_sampling_box_mismatch_is_rejected():
    box = IndexBox((-4,), (9,))
    other = IndexBox((-5,), (11,))
    spec = LiftingSpec(box, IndexBox((-1,), (3,)))
    rng = np.random.default_rng(18)
    truth = _random_grid(other, rng)
    samp = SamplingOp.measure(truth, random_mask(other, 0.5, seed=19))
    with pytest.raises(ConfigError):
        giraf_solve(spec, samp, SolverConfig())
