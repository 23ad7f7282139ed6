"""Solver-level tests: annihilation weights, inner least-squares solvers
against dense oracles, the outer reweighted iteration, and config guards."""

import dataclasses
import inspect
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume

from cslr import baselines, giraf, grids, lifting
from cslr.baselines import IRLSConfig, irls_direct
from cslr.giraf import (
    ConfigError,
    SolverConfig,
    SolverError,
    _CholeskyPenalty,
    _cholesky_inverse,
    _cholesky_logdet,
    _gram_penalty,
    _inner_solve,
    _lanczos_lam_max,
    _smoothed_schatten_eigs,
    _tril_gram,
    _weights_from,
    admm_ls,
    cg_ls,
    filter_update,
    giraf_solve,
    oversampled_box,
    schatten_weight,
)
from cslr.grids import ComplexGrid, IndexBox, wrap_embed, zero_pad
from cslr.lifting import (
    LiftingSpec,
    autocorrelation,
    gram_surrogate,
    lift_adjoint,
    real_gram,
    real_gram_adjoint,
)
from cslr.models import (
    SamplingOp,
    dirac_fourier,
    gradient_weighting,
    random_diracs,
    random_mask,
    rect_fourier,
    pwc_phantom,
)

import oracles
from oracles import (
    BranchingGramPenalty,
    centro_unitary,
    complex_route_weights,
    copied_cholesky_logdet,
    dense_dft_matrix,
    halving_tril_inverse,
    loop_admm_ls,
    loop_autocorrelation,
    loop_cg_ls,
    random_grid,
    reference_p0_weights,
    reverse_conjugate,
    z_carrying_admm_ls,
)
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
        mu = np.fft.ifftn(zero_pad(hi, spec.data_box).values, norm="ortho")
        total += (w[i] + eps) ** (-q) * np.abs(mu) ** 2
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
        d = filter_update(spec, x, eps, p)
        want = direct_weights(spec, x, eps, p)
        rel = np.linalg.norm(d - want) / np.linalg.norm(want)
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
        d = filter_update(spec, x, eps, p)
        want = direct_weights(spec, x, eps, p)
        rel = np.linalg.norm(d - want) / np.linalg.norm(want)
        assert rel < 1e-10


def test_weights_gradient_lifting_and_offsets():
    rng = np.random.default_rng(42)
    data = IndexBox((-8, -8), (17, 17))
    filt = IndexBox((-3, -3), (7, 7))
    spec = LiftingSpec(data, filt, gradient_weighting(2))
    x = _random_grid(data, rng)
    d = filter_update(spec, x, 0.05, 0.0)
    want = direct_weights(spec, x, 0.05, 0.0)
    rel = np.linalg.norm(d - want) / np.linalg.norm(want)
    assert rel < 1e-10


def test_weights_at_zero_iterate_are_uniform():
    data = IndexBox((-10,), (21,))
    filt = IndexBox((-3,), (7,))
    spec = LiftingSpec(data, filt)
    eps, p = 0.37, 0.5
    d = filter_update(spec, ComplexGrid(data, np.zeros(data.extent)), eps, p)
    # all Gram eigenvalues are zero, so every eigenfilter gets the same
    # weight and the spatial sum collapses to N/L times eps^-q
    expect = eps ** (-(1.0 - p / 2.0)) * filt.size / data.size
    assert np.max(np.abs(d - expect)) < 1e-12 * expect


@pytest.mark.parametrize("data, filt, weighted", [
    (IndexBox((-6,), (13,)), IndexBox((-2,), (5,)), False),
    (IndexBox((-7,), (14,)), IndexBox((-3,), (6,)), True),
    (IndexBox((-5, -4), (11, 8)), IndexBox((-2, -1), (4, 3)), True),
    (IndexBox((-3, -2, -3), (6, 5, 7)), IndexBox((-1, -1, -1), (2, 3, 3)), False),
    (IndexBox((-2, -3, -2), (5, 6, 4)), IndexBox((0, -1, 0), (3, 2, 2)), True),
])
def test_p0_inverse_matches_eigenvector_weights(data, filt, weighted):
    # for p = 0 the weight matrix is (G + eps I)^-1: one inverse of the real
    # form, scattered back through the lag index, must give the weights of
    # the complex eigenvector route
    rng = np.random.default_rng(47)
    spec = LiftingSpec(data, filt, gradient_weighting(data.ndim)) if weighted \
        else LiftingSpec(data, filt)
    for _ in range(3):
        x = _random_grid(data, rng)
        w, V = np.linalg.eigh(gram_surrogate(spec, x))
        eps = 10.0 ** rng.uniform(-6, -2) * np.max(w)  # the schedule's range
        w = np.maximum(w, 0.0)
        _, want = complex_route_weights(spec, (V / (w + eps)) @ V.conj().T)
        got = _gram_penalty(spec, x, 0.0).weights(eps)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_eigenvectors_only_where_weights_need_them(monkeypatch, p):
    # p = 0 reweights through a Cholesky factor and takes eigenvalues alone;
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
    # the spectrum works on R = Q^* G Q gathered from the autocorrelation:
    # real symmetric with the spectrum of G; for every p its weight matrix,
    # scattered back through the lag index, gives the complex route's weights
    rng = np.random.default_rng(seed)
    x = random_grid(rng, spec.data_box)
    G = gram_surrogate(spec, x)
    Q = centro_unitary(G.shape[0])
    R = real_gram(spec, autocorrelation(spec, x))
    assert R.dtype == np.float64 and np.array_equal(R, R.T)
    scale = np.linalg.norm(G)
    assert np.linalg.norm(R - Q.conj().T @ G @ Q) <= 1e-14 * scale

    lam_g, V = np.linalg.eigh(G)
    assume(lam_g[-1] > 0)  # a gradient weighting can vanish on a 1-point box
    assert np.max(np.abs(np.linalg.eigvalsh(R) - lam_g)) <= 1e-13 * lam_g[-1]

    eps = 10.0 ** rng.uniform(-3, 0) * lam_g[-1]
    lam_g = np.maximum(lam_g, 0.0)
    for p in (0.0, 0.5, 1.0):
        _, want = complex_route_weights(spec, (V * (lam_g + eps) ** (p / 2 - 1)) @ V.conj().T)
        got = _gram_penalty(spec, x, p).weights(eps)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# values of giraf._LANCZOS_ORDER that put every drawn Gram on one side:
# Lanczos for lambda_max (0) or eigvalsh (above the largest drawn order)
LANCZOS_SIDES = (0, 10**6)


@given_specs
def test_penalty_per_p_keeps_the_branching_class_bits(spec, seed):
    """_gram_penalty's class for p gives the single branching class of
    tests/oracles.py bit for bit: eigvals, lam_max, the cost at two eps and
    the weights, for every (values, weighted) pair the loop and
    filter_update ask for, on both sides of giraf._LANCZOS_ORDER. Unweighted
    p > 0 penalties have no eigenvectors, so no weights."""
    rng = np.random.default_rng(seed)
    x = random_grid(rng, spec.data_box)
    top = max(np.linalg.eigvalsh(real_gram(spec, autocorrelation(spec, x)))[-1], 1.0)
    eps_pair = 10.0 ** np.sort(rng.uniform(-3, 0, 2))[::-1] * top
    for order in LANCZOS_SIDES:
        with mock.patch.object(giraf, "_LANCZOS_ORDER", order), \
                mock.patch.object(oracles, "_LANCZOS_ORDER", order):
            for p in (0.0, 0.5, 1.0):
                for values, weighted in ((True, True), (False, True), (True, False)):
                    got = _gram_penalty(spec, x, p, values, weighted)
                    want = BranchingGramPenalty(spec, x, p, values, weighted)
                    assert (got.eigvals is None) == (want.eigvals is None)
                    if want.eigvals is not None:
                        assert got.eigvals.tobytes() == want.eigvals.tobytes()
                    assert got.lam_max == want.lam_max
                    assert [got.cost(e) for e in eps_pair] == [want.cost(e) for e in eps_pair]
                    if p == 0 or weighted:
                        assert got.weights(eps_pair[1]).tobytes() == \
                            want.weights(eps_pair[1]).tobytes()


@given_specs
def test_cholesky_cost_matches_eigenvalue_sum(spec, seed):
    # the p = 0 cost between the first and the closing iterate is
    # sum log diag L for L L^T = R + eps I: it must equal 1/2 sum log(lambda
    # + eps) of the eigenvalue route, at each eps and at the same eps again
    # (as with eps frozen); the cost leaves R intact for the weights
    rng = np.random.default_rng(seed)
    x = random_grid(rng, spec.data_box)
    w = _gram_penalty(spec, x, 0.0, weighted=False).eigvals
    assume(w[-1] > 0)
    penalty = _gram_penalty(spec, x, 0.0, values=False)
    assert penalty.eigvals is None
    R = penalty._R.copy()
    for eps in 10.0 ** np.sort(rng.uniform(-3, 0, 2))[::-1] * w[-1]:
        want = _smoothed_schatten_eigs(w, 0.0, eps)
        # a sum of logs of both signs can cancel; scale by its terms
        scale = 0.5 * np.sum(np.abs(np.log(w + eps)))
        for _ in range(2):
            assert abs(penalty.cost(eps) - want) <= 1e-12 * scale
            assert penalty._R.tobytes() == R.tobytes()


def test_lagged_cost_and_weights_each_factor_once(monkeypatch):
    # whether or not the two epsilons are equal (frozen or floored eps), the
    # lagged cost runs one log-det-only pass on a copy of R and the weights
    # one full pass on R itself, which they let go
    calls = []
    blocked = giraf._cholesky_inverse
    monkeypatch.setattr(giraf, "_cholesky_inverse", lambda A, inverse=True: (
        calls.append((inverse, np.shares_memory(A, R))) or blocked(A, inverse)))
    spec = LiftingSpec(IndexBox((-8, -8), (17, 17)), IndexBox((-2, -2), (5, 5)),
                       gradient_weighting(2))
    x = _random_grid(spec.data_box, np.random.default_rng(52))
    for eps_weights in (1.0, 0.5):
        calls.clear()
        penalty = _gram_penalty(spec, x, 0.0, values=False)
        R = penalty._R
        assert np.isfinite(penalty.cost(1.0))
        assert np.all(np.isfinite(penalty.weights(eps_weights)))
        assert calls == [(False, False), (True, True)]
        assert penalty._R is None


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 130, 257, 625])
def test_cholesky_logdet_matches_the_copy_route(n):
    # copying only the leading half block gives the sum of the log-det pass
    # on a full copy of R + eps I (tests/oracles.py) to the last bit, on both
    # sides of _TRIL_BLOCK, and leaves R as it was
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n)) @ np.diag(np.logspace(0, -4, n))
    R = B @ B.T
    kept = R.copy()
    for rel in (1e-2, 1e-6):
        eps = rel * np.linalg.norm(R, 2)
        assert _cholesky_logdet(R, eps) == copied_cholesky_logdet(R, eps)
        assert R.tobytes() == kept.tobytes()


def test_p0_cost_does_not_copy_the_gram():
    # at Gram order 625 the log-det pass holds L21 and the Schur complement,
    # about n^2/4 floats each, and the recursion's smaller blocks; a copy
    # of R (n^2 floats) breaks the bound of 3/4 n^2 floats
    spec = LiftingSpec(IndexBox((0, 0), (40, 40)), IndexBox((0, 0), (25, 25)))
    x = _random_grid(spec.data_box, np.random.default_rng(57))
    penalty = _gram_penalty(spec, x, 0.0, values=False)
    n = penalty._R.shape[0]
    eps = 1e-3 * np.linalg.norm(penalty._R, 2)
    want = penalty.cost(eps)
    tracemalloc.start()
    try:
        assert penalty.cost(eps) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * n * n * 8


def _assert_tril_inverse(A):
    # the blocked routine overwrites A = L L^T with L^-1: the oracle and the
    # tolerance of the triangular inverse it replaced, on L = cholesky(A)
    L = np.linalg.cholesky(A)
    want = np.linalg.inv(L)
    got = A.copy()
    logdet = _cholesky_inverse(got)
    # the log-det-only pass gives the same sum to the last bit
    assert _cholesky_inverse(A.copy(), inverse=False) == logdet
    assert np.array_equal(got, np.tril(got))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    logs = np.log(L.diagonal())
    assert abs(logdet - logs.sum()) <= 1e-12 * np.sum(np.abs(logs))


@given_specs
def test_tril_inverse_of_gram_factor_matches_inv(spec, seed):
    # the shifted real forms of drawn Gram matrices, with the base block
    # shrunk so that their small orders run through every level of halving
    rng = np.random.default_rng(seed)
    penalty = _gram_penalty(spec, random_grid(rng, spec.data_box), 0.0)
    eps = 10.0 ** rng.uniform(-3, 0) * max(penalty.eigvals[-1], 1.0)
    A = penalty._R + eps * np.eye(len(penalty._R))
    for block in (1, 2, 3):
        with mock.patch.object(giraf, "_TRIL_BLOCK", block):
            _assert_tril_inverse(A)


@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 127, 128, 129, 255])
def test_tril_inverse_matches_inv_around_the_block_size(n):
    # orders on both sides of the base block (64) and of its double, odd
    # orders halving into unequal blocks; A is a Gram-like R + eps I with
    # eps in the schedule's range
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n)) @ np.diag(np.logspace(0, -4, n))
    R = B @ B.T
    _assert_tril_inverse(R + 1e-3 * np.linalg.norm(R, 2) * np.eye(n))


@pytest.mark.parametrize("n", [65, 130, 257, 700])
def test_blocked_inverse_is_as_accurate_as_factor_then_invert(n):
    # against the eigh oracle (R + eps I)^-1, the blocked L^-T L^-1 errs at
    # most twice as much as cholesky followed by the halving triangular
    # inverse, the route it replaced, down to eps = 1e-8 lambda_max. Its
    # sum log diag L matches cholesky's to 1e-12 relative, plus n eps
    # cond(A), the first-order change of log det A under a backward error of
    # eps ||A|| (eps the machine epsilon), by which any two stable
    # factorizations may differ: at cond(A) = 1e8 cholesky's own sum is
    # 6e-12 relative off the eigenvalues
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n)) @ np.diag(np.logspace(0, -5, n))
    R = B @ B.T
    w, V = np.linalg.eigh(R)
    w = np.maximum(w, 0.0)
    for rel in (1e-2, 1e-4, 1e-6, 1e-8):
        eps = rel * w[-1]
        want = (V / (w + eps)) @ V.T
        A = R + eps * np.eye(n)
        L = np.linalg.cholesky(A)
        old = halving_tril_inverse(L)
        new = A.copy()
        logdet = _cholesky_inverse(new)
        old_err = np.linalg.norm(old.T @ old - want)
        new_err = np.linalg.norm(new.T @ new - want)
        assert new_err <= 2.0 * old_err
        logs = np.log(L.diagonal())
        cond = (w[-1] + eps) / (w[0] + eps)
        assert abs(logdet - logs.sum()) <= (1e-12 * np.sum(np.abs(logs))
                                           + n * np.finfo(float).eps * cond)


def _gram_above_lanczos_order(spec, seed):
    rng = np.random.default_rng(seed)
    R = real_gram(spec, autocorrelation(spec, random_grid(rng, spec.data_box)))
    assert R.shape[0] > giraf._LANCZOS_ORDER
    return R


def _near_degenerate_top_pair(R):
    # R's eigenvectors with its top eigenvalue moved to 1 + 1e-9 times the next
    w, V = np.linalg.eigh(R)
    w[-1] = w[-2] * (1.0 + 1e-9)
    S = (V * w) @ V.T
    return 0.5 * (S + S.T)


def _ritz_checks(monkeypatch):
    # the orders of the tridiagonal eigh calls a Lanczos run makes
    orders = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, **kw: orders.append(len(a)) or eigh(a, **kw))
    return orders


def _check_ritz_cadence(orders):
    # the Ritz check runs on every _LANCZOS_CHECK-th step, on the last
    # allowed one and at an invariant subspace: for a stop after k steps
    # (the order of the last eigh) at most ceil(k / 4) + 1 of them
    steps = orders[-1]
    assert len(orders) <= math.ceil(steps / 4) + 1
    assert all(k % giraf._LANCZOS_CHECK == 0 for k in orders[:-1])
    assert orders == sorted(set(orders))


@pytest.mark.parametrize("which", ["1d-401", "2d-19x19", "near-degenerate"])
def test_lanczos_lam_max_matches_eigvalsh(monkeypatch, which):
    # real Grams above the order where Lanczos takes over: a 1-D filter of
    # 401 taps, a 2-D 19 x 19 filter with gradient weighting, and one matrix
    # whose top two eigenvalues lie 1e-9 apart; equal bytes on a rerun
    if which == "1d-401":
        R = _gram_above_lanczos_order(
            LiftingSpec(IndexBox((-300,), (601,)), IndexBox((-200,), (401,))), 53)
    else:
        R = _gram_above_lanczos_order(
            LiftingSpec(IndexBox((-20, -20), (41, 41)), IndexBox((-9, -9), (19, 19)),
                        gradient_weighting(2)), 54)
        if which == "near-degenerate":
            R = _near_degenerate_top_pair(R)
    want = np.linalg.eigvalsh(R)[-1]
    orders = _ritz_checks(monkeypatch)
    got = _lanczos_lam_max(R)
    _check_ritz_cadence(orders)
    assert abs(got - want) <= 1e-12 * want
    assert np.float64(_lanczos_lam_max(R)).tobytes() == np.float64(got).tobytes()


def test_lanczos_without_a_stop_within_its_steps_falls_back_to_eigvalsh():
    R = _gram_above_lanczos_order(
        LiftingSpec(IndexBox((-20, -20), (41, 41)), IndexBox((-9, -9), (19, 19)),
                    gradient_weighting(2)), 54)
    with mock.patch.object(giraf, "_LANCZOS_STEPS", 3):
        assert _lanczos_lam_max(R) == np.linalg.eigvalsh(R)[-1]


def test_lanczos_lam_max_of_a_zero_matrix_is_zero(monkeypatch):
    # the zero-data case: the first step spans an invariant subspace, which
    # the Ritz check sees at once
    orders = _ritz_checks(monkeypatch)
    assert _lanczos_lam_max(np.zeros((400, 400))) == 0.0
    assert orders == [1]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 349, 350, 351, 352, 401])
def test_tril_gram_matches_the_full_product(n):
    # the halving L^T L of a lower triangular L (here an L^-1 from
    # _cholesky_inverse) against numpy's symmetric product, around _TRIL_BLOCK
    # and _LANCZOS_ORDER: exactly symmetric, within 1e-14 relative
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n))
    L = B @ B.T + n * np.eye(n)
    _cholesky_inverse(L)
    want = L.T @ L
    got = L.copy()
    _tril_gram(got)
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("extent, exact", [((15,), True), ((8, 8), True), ((9, 9), False),
                                           ((13, 13), False), ((19, 19), True),
                                           ((25, 25), True)])
def test_p0_weights_match_the_out_of_place_route(extent, exact):
    # L^-T L^-1 formed in R's storage by _tril_gram and scattered from M's
    # blocks against the route it replaced (tests/oracles.py): one L.T @ L
    # up to Gram order 350, the out-of-place halving above, the symmetrized
    # bincount adjoint. Up to _TRIL_BLOCK and above 350 the products are the
    # same, so are the bits; between, the halving reorders sums
    ndim, f = len(extent), extent[0]
    data = IndexBox((-2 * f,) * ndim, (4 * f + 1,) * ndim)
    filt = IndexBox((-(f // 2),) * ndim, extent)
    spec = LiftingSpec(data, filt, gradient_weighting(2)) if ndim == 2 else LiftingSpec(data, filt)
    x = _random_grid(data, np.random.default_rng(spec.n_filter))
    lam_max = np.linalg.eigvalsh(real_gram(spec, autocorrelation(spec, x)))[-1]
    for rel in (1e-2, 1e-5):
        got = _gram_penalty(spec, x, 0.0, values=False).weights(rel * lam_max)
        want = reference_p0_weights(spec, x, rel * lam_max)
        if exact:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_p0_last_row_above_the_lanczos_order_takes_lanczos_and_a_log_det(monkeypatch):
    # above _LANCZOS_ORDER the closing row's sigma_max is sqrt(lambda_max)
    # by Lanczos, sigma_min stays empty, and every row's cost comes from a
    # log-det pass: each within 1e-12 of its eigenvalue counterpart
    box = IndexBox((-250,), (501,))
    spec = LiftingSpec(box, IndexBox((-180,), (361,)))
    truth = _random_grid(box, np.random.default_rng(55))
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=24))
    costs = []
    cost = _CholeskyPenalty.cost

    def checked_cost(self, eps):
        assert self.eigvals is None
        w = np.maximum(np.linalg.eigvalsh(self._R), 0.0)
        costs.append((cost(self, eps), _smoothed_schatten_eigs(w, 0.0, eps),
                      0.5 * np.sum(np.abs(np.log(w + eps)))))
        return costs[-1][0]

    monkeypatch.setattr(_CholeskyPenalty, "cost", checked_cost)
    trace = giraf_solve(spec, samp, SolverConfig(p=0.0, lam=5.0, outer_iters=3, inner_iters=5))
    assert len(costs) == len(trace.records) == 3
    for got, want, scale in costs:
        assert abs(got - want) <= 1e-12 * scale
    last = trace.records[-1]
    assert last.sigma_min is None
    R = real_gram(spec, autocorrelation(spec, trace.x))
    want = math.sqrt(np.linalg.eigvalsh(R)[-1])
    assert abs(last.sigma_max - want) <= 1e-12 * want


def test_p0_solve_above_the_lanczos_order_takes_no_spectrum(monkeypatch):
    # above _LANCZOS_ORDER the first iterate's and the closing row's
    # lambda_max come from Lanczos: the solve takes no order-n spectrum, and
    # every eigh is of a Lanczos tridiagonal, far below order n
    spectra, eighs = [], []
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, **kw: spectra.append(a.shape) or eigvalsh(a, **kw))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, **kw: eighs.append(a.shape[0]) or eigh(a, **kw))
    box = IndexBox((-250,), (501,))
    spec = LiftingSpec(box, IndexBox((-180,), (361,)))
    truth = _random_grid(box, np.random.default_rng(55))
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=24))
    trace = giraf_solve(spec, samp, SolverConfig(p=0.0, lam=5.0, outer_iters=3,
                                                 inner_iters=5))
    assert spectra == []
    assert eighs and max(eighs) <= giraf._LANCZOS_STEPS
    assert [r.sigma_max is None for r in trace.records] == [True, True, False]
    assert all(np.isfinite(r.cost) for r in trace.records)


@pytest.mark.parametrize("outer_iters", [3, 8])
def test_p0_solve_takes_two_spectra_and_no_gram_inverse(monkeypatch, outer_iters):
    # p = 0 takes eigenvalues only for the first iterate (the schedule) and
    # for the closing row, and reweights through a Cholesky factor: no
    # inverse of an order-n matrix, only of the triangular inverse's blocks
    spectra, inverses = [], []
    eigvalsh, inv = np.linalg.eigvalsh, np.linalg.inv
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, **kw: spectra.append(a.shape) or eigvalsh(a, **kw))
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a.shape) or inv(a))
    box = IndexBox((-10, -10), (21, 21))
    spec = LiftingSpec(box, IndexBox((-4, -4), (9, 9)), gradient_weighting(2))
    truth = rect_fourier(pwc_phantom(), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=23, force_dc=True))
    giraf_solve(spec, samp, SolverConfig(p=0.0, lam=5.0, outer_iters=outer_iters,
                                         inner_iters=5))
    assert spectra == [(81, 81)] * 2
    assert inverses and max(shape[0] for shape in inverses) <= 64


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_gram_linear_algebra_is_real(monkeypatch, p):
    # every eigvalsh, eigh, cholesky and inv of a solve runs on the real form
    dtypes = []
    for name in ("eigvalsh", "eigh", "cholesky", "inv"):
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
    # the filter of the weights is the Hermitian part of the lag vector that
    # real_gram_adjoint scatters from the real weight matrix M: the complex
    # route's filter of Q M Q^*, conjugate symmetric, placed on the lag grid
    rng = np.random.default_rng(43)
    for spec in (LiftingSpec(IndexBox((-6,), (13,)), IndexBox((-2,), (5,))),
                 LiftingSpec(IndexBox((-5, -4), (11, 8)), IndexBox((-2, -1), (4, 3)),
                             gradient_weighting(2))):
        R = real_gram(spec, autocorrelation(spec, _random_grid(spec.data_box, rng)))
        M = np.linalg.inv(R + 0.1 * np.eye(len(R)))
        Q = centro_unitary(len(R))
        h, _ = complex_route_weights(spec, Q @ M @ Q.conj().T)
        mirrored = reverse_conjugate(h)
        assert mirrored.box == h.box
        np.testing.assert_allclose(mirrored.values, h.values, atol=1e-12)

        a = real_gram_adjoint(spec, M)
        reflected = np.roll(np.flip(a), 1, axis=tuple(range(a.ndim)))
        np.testing.assert_allclose(0.5 * (a + reflected.conj()),
                                   wrap_embed(h, spec.data_box).values, atol=1e-12)


def test_non_finite_weight_matrix_is_a_solver_error():
    # nothing downstream scans the weight array, so a blow-up in the weight
    # matrix has to surface from the weights' own checks; (1, 2) sits in the
    # middle column, (4, 0) in the imaginary block
    spec = LiftingSpec(IndexBox((-6,), (13,)), IndexBox((-2,), (5,)))
    for where in ((1, 2), (4, 0)):
        for bad in (np.nan, np.inf, -np.inf):
            M = np.eye(5)
            M[where] = bad
            with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="not finite"):
                _weights_from(spec, M)


def test_failed_cholesky_and_nonpositive_eps_are_solver_errors():
    spec = LiftingSpec(IndexBox((-6,), (13,)), IndexBox((-2,), (5,)))
    x = _random_grid(spec.data_box, np.random.default_rng(50))
    penalty = _gram_penalty(spec, x, 0.0, values=False)
    # R - eps I with eps beyond the largest eigenvalue is not positive definite
    with pytest.raises(SolverError, match="Cholesky"):
        penalty.cost(-2.0 * np.linalg.eigvalsh(penalty._R)[-1])
    for eps in (0.0, -1.0):
        with pytest.raises(SolverError, match="positive epsilon"):
            penalty.weights(eps)


def test_non_finite_admm_iterate_is_a_solver_error():
    # data near 1e150 and weights near 1e300 give rho near 1e299, which the
    # x update meets only inside its scale rho/(mask + rho sum_j |M_j|^2),
    # so both modes stay finite; with a 1-D gradient weighting (|M_j| up to
    # 12 pi) data of largest modulus 1e307 make M_j x itself overflow, in
    # both modes
    spec = LiftingSpec(IndexBox((-6,), (13,)), IndexBox((-2,), (5,)))
    truth = _random_grid(spec.data_box, np.random.default_rng(51))
    samp = SamplingOp.measure(truth, random_mask(spec.data_box, 0.5, seed=7))
    d = 1e300 * filter_update(spec, samp.zero_filled(), 0.1, 0.0)
    big = SamplingOp(samp.mask, ComplexGrid(spec.data_box, 1e150 * samp.b.values))
    for lam in (None, 0.5):
        assert np.all(np.isfinite(admm_ls(spec, big, d, lam, 0.0, iters=5).values))

    spec = LiftingSpec(spec.data_box, spec.filter_box, gradient_weighting(1))
    samp = SamplingOp.measure(truth, random_mask(spec.data_box, 0.5, seed=7, force_dc=True))
    d = filter_update(spec, samp.zero_filled(), 0.1, 0.0)
    b = samp.b.values
    big = SamplingOp(samp.mask, ComplexGrid(spec.data_box, 1e307 / np.max(np.abs(b)) * b))
    with np.errstate(all="ignore"):
        for lam in (None, 0.5):
            with pytest.raises(SolverError, match="ADMM iterate is not finite"):
                admm_ls(spec, big, d, lam, 0.0, iters=5)


@pytest.mark.parametrize("instance", ["dirac", "pwc"])
def test_equality_admm_solve_is_scale_equivariant(instance):
    # equality-mode GIRAF with ADMM on the measurements times s returns s
    # times the unscaled grid, far from scale 1 too: eps0 (lambda_max / 100)
    # follows s^2, the p = 0 weights s^-2 and ADMM's gamma = max(d) / delta
    # with them. The README Dirac instance and a 33^2 gradient PWC one
    if instance == "dirac":
        box = IndexBox((-63,), (127,))
        spec = LiftingSpec(box, IndexBox((-7,), (15,)))
        truth = dirac_fourier(random_diracs(4, seed=0, min_separation=2 / 15), box)
        mask = random_mask(box, 0.5, seed=1)
    else:
        box = IndexBox((-16, -16), (33, 33))
        spec = LiftingSpec(box, IndexBox((-2, -2), (5, 5)), gradient_weighting(2))
        truth = rect_fourier(pwc_phantom(), box)
        mask = random_mask(box, 0.5, seed=1, force_dc=True)
    samp = SamplingOp.measure(truth, mask)
    cfg = SolverConfig(p=0.0, outer_iters=10, ls_solver="admm", oversample=True)
    want = giraf_solve(spec, samp, cfg).x.values
    for s in (2.0 ** 300, 2.0 ** -300, 1e100, 1e-100):
        scaled = SamplingOp(mask, ComplexGrid(box, s * samp.b.values))
        got = giraf_solve(spec, scaled, cfg).x.values / s
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("p, ls_solver", [(0.0, "admm"), (0.5, "cg")])
def test_solver_never_forms_the_complex_gram(monkeypatch, p, ls_solver):
    # the filter update gathers the real form straight from the
    # autocorrelation and scatters the weights back through the same lag
    # index: no complex Gram matrix and no periodized filter embedding
    def forbidden(*args, **kwargs):
        raise AssertionError("called on the solver path")

    for module in (giraf, grids, lifting):
        monkeypatch.setattr(module, "gram_surrogate", forbidden, raising=False)
        monkeypatch.setattr(module, "wrap_embed", forbidden, raising=False)
    box = IndexBox((-8, -8), (17, 17))
    spec = LiftingSpec(box, IndexBox((-2, -2), (5, 5)), gradient_weighting(2))
    truth = rect_fourier(pwc_phantom(), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=22, force_dc=True))
    cfg = SolverConfig(p=p, lam=5.0, outer_iters=3, ls_solver=ls_solver, inner_iters=5,
                       oversample=True)
    trace = giraf_solve(spec, samp, cfg, ground_truth=truth)
    assert np.all(np.isfinite(trace.x.values)) and np.isfinite(trace.final_nmse)


def test_solvers_read_the_spec_block_weights(monkeypatch):
    # once a spec's block weights are built, no layer rebuilds them from the
    # weightings: giraf (both inner solvers), direct IRLS and the adjoint
    # lifting all read the one cached, read-only set
    box = IndexBox((-8, -8), (17, 17))
    spec = LiftingSpec(box, IndexBox((-2, -2), (5, 5)), gradient_weighting(2))
    truth = rect_fourier(pwc_phantom(), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=22, force_dc=True))
    ws = spec.block_weights
    for w in ws:
        with pytest.raises(ValueError):
            w[0, 0] = 0.0

    def forbidden(self, box):
        raise AssertionError("block weights rebuilt")

    monkeypatch.setattr(lifting.WeightingOp, "weights_on", forbidden)
    for ls_solver in ("admm", "cg"):
        cfg = SolverConfig(p=0.0, lam=5.0, outer_iters=2, ls_solver=ls_solver, inner_iters=5)
        assert np.isfinite(giraf_solve(spec, samp, cfg, ground_truth=truth).final_nmse)
    irls = IRLSConfig(p=0.0, max_iters=2, inner_iters=5)
    assert np.isfinite(irls_direct(spec, samp, irls, ground_truth=truth).final_nmse)
    X = np.ones(spec.shape_exact, dtype=np.complex128)
    assert np.all(np.isfinite(lift_adjoint(spec, X).values))
    assert spec.block_weights is ws


def _dense_normal_solution(spec, sampling, d, lam, p):
    """Dense oracle for the regularized least-squares step: assemble
    mask + lam*C_p*sum_j M_j^H F D F^H M_j explicitly and solve."""
    box = spec.data_box
    W = dense_dft_matrix(box)
    D = np.diag(d.ravel())
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
    d = filter_update(spec, samp.zero_filled(), 0.1, 0.0)
    lam = 3.0
    want = _dense_normal_solution(spec, samp, d, lam, 0.0)
    got = admm_ls(spec, samp, d, lam, 0.0, iters=500, delta=10.0)
    rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
    assert rel < 1e-6


# values of lifting._DENSE_GRID that put every drawn grid on one side: the
# FFT pair (0) or the dense circulant matrix (above the largest drawn grid)
BOTH_SIDES = (0, 10**6)


@pytest.mark.parametrize("with_x0", [False, True])
@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("lam", [None, 0.5, 3e-4])
@given_specs
def test_admm_is_byte_identical_to_the_loop_reference(spec, seed, lam, p, with_x0):
    """The stacked-buffer ADMM keeps the arithmetic of the block-by-block
    loop in tests/oracles.py, on both sides of lifting._DENSE_GRID: the same
    bits in every iterate and the result."""
    for dense_grid in BOTH_SIDES:
        with mock.patch.object(lifting, "_DENSE_GRID", dense_grid):
            _admm_against_loop(spec, seed, lam, p, with_x0)


def _admm_against_loop(spec, seed, lam, p, with_x0):
    rng = np.random.default_rng(seed)
    truth = random_grid(rng, spec.data_box)
    wsq = sum(np.abs(w) ** 2 for w in spec.block_weights)
    mask = (rng.random(spec.data_box.extent) < 0.5) | (wsq == 0)
    samp = SamplingOp.measure(truth, mask)
    d = filter_update(spec, samp.zero_filled(), 0.1, p)
    x0 = random_grid(rng, spec.data_box) if with_x0 else None
    seen = {"fast": [], "loop": []}
    results = {}
    for name, solve in (("fast", admm_ls), ("loop", loop_admm_ls)):
        results[name] = solve(spec, samp, d, lam, p, iters=4, delta=10.0, x0=x0,
                              callback=lambda it, x, name=name: seen[name].append(
                                  (it, x.tobytes())))
    assert results["fast"].values.tobytes() == results["loop"].values.tobytes()
    assert seen["fast"] == seen["loop"]
    assert [it for it, _ in seen["fast"]] == [1, 2, 3, 4]


@pytest.mark.parametrize("with_x0", [False, True])
@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("lam", [None, 0.5, 3e-4])
@given_specs
def test_admm_matches_the_z_carrying_recurrence(spec, seed, lam, p, with_x0):
    """Carrying z + u in place of z is the same ADMM as the textbook scaled
    form in tests/oracles.py up to rounding: every iterate within 1e-13
    relative, on both sides of lifting._DENSE_GRID."""
    for dense_grid in BOTH_SIDES:
        with mock.patch.object(lifting, "_DENSE_GRID", dense_grid):
            _admm_against_z_carrying(spec, seed, lam, p, with_x0)


def _admm_against_z_carrying(spec, seed, lam, p, with_x0):
    rng = np.random.default_rng(seed)
    truth = random_grid(rng, spec.data_box)
    wsq = sum(np.abs(w) ** 2 for w in spec.block_weights)
    mask = (rng.random(spec.data_box.extent) < 0.5) | (wsq == 0)
    samp = SamplingOp.measure(truth, mask)
    d = filter_update(spec, samp.zero_filled(), 0.1, p)
    x0 = random_grid(rng, spec.data_box) if with_x0 else None
    seen = {"fast": [], "z": []}
    for name, solve in (("fast", admm_ls), ("z", z_carrying_admm_ls)):
        solve(spec, samp, d, lam, p, iters=4, delta=10.0, x0=x0,
              callback=lambda it, x, name=name: seen[name].append(x.copy()))
    assert len(seen["fast"]) == len(seen["z"]) == 4
    for got, want in zip(seen["fast"], seen["z"]):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("lam", [None, 0.5])
def test_admm_allocates_four_block_stacks(lam):
    # K = 2 on a 65^2 grid, on the FFT side of lifting._DENSE_GRID: one call
    # holds the stacks conj(M) r, S, U and V and grid arrays (the iterate x,
    # the shrinkage's interleaved factor, c or the measured samples). A
    # fifth stack, as when the loop carried z and conj(M) apart, breaks the
    # bound of 4.5 stacks and three complex grids
    box = IndexBox((-32, -32), (65, 65))
    spec = LiftingSpec(box, IndexBox((-2, -2), (5, 5)), gradient_weighting(2))
    truth = _random_grid(box, np.random.default_rng(56))
    samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=8, force_dc=True))
    d = filter_update(spec, samp.zero_filled(), 0.1, 0.0)
    assert box.size > lifting._DENSE_GRID and spec.n_blocks == 2
    admm_ls(spec, samp, d, lam, 0.0, iters=3)  # builds the cached weights
    tracemalloc.start()
    try:
        admm_ls(spec, samp, d, lam, 0.0, iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = truth.values.nbytes
    assert peak < 4.5 * spec.n_blocks * grid + 3 * grid


@pytest.mark.parametrize("lam", [None, 0.5])
@given_specs
def test_cg_is_byte_identical_to_the_loop_reference(spec, seed, lam):
    """cg_ls's regularizer, one FFT per direction over the stacked blocks or
    one dense matrix product per block (both sides of lifting._DENSE_GRID),
    gives the bits of the block-by-block loop in tests/oracles.py."""
    for dense_grid in BOTH_SIDES:
        with mock.patch.object(lifting, "_DENSE_GRID", dense_grid):
            _cg_against_loop(spec, seed, lam)


def _cg_against_loop(spec, seed, lam):
    rng = np.random.default_rng(seed)
    truth = random_grid(rng, spec.data_box)
    wsq = sum(np.abs(w) ** 2 for w in spec.block_weights)
    mask = (rng.random(spec.data_box.extent) < 0.5) | (wsq == 0)
    samp = SamplingOp.measure(truth, mask)
    d = filter_update(spec, samp.zero_filled(), 0.1, 0.0)
    seen = {"fast": [], "loop": []}
    results = {}
    for name, solve in (("fast", cg_ls), ("loop", loop_cg_ls)):
        results[name] = solve(spec, samp, d, lam, 0.0, iters=4, tol=0.0,
                              callback=lambda it, x, name=name: seen[name].append(
                                  (it, x.tobytes())))
    assert results["fast"].values.tobytes() == results["loop"].values.tobytes()
    assert seen["fast"] == seen["loop"]


@pytest.mark.parametrize("ls_solver", ["admm", "cg"])
def test_dirac_solve_agrees_on_both_sides_of_the_dense_grid(ls_solver):
    # the README example (155-point working grid) solved once with the FFT
    # pair and once with the dense circulant matrix in the inner solver
    box = IndexBox((-63,), (127,))
    spec = LiftingSpec(box, IndexBox((-7,), (15,)))
    truth = dirac_fourier(random_diracs(4, seed=0, min_separation=2 / 15), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=1))
    cfg = SolverConfig(p=0.0, outer_iters=40, ls_solver=ls_solver, inner_iters=20,
                       oversample=True)
    final = {}
    for dense_grid in BOTH_SIDES:
        with mock.patch.object(lifting, "_DENSE_GRID", dense_grid):
            final[dense_grid] = giraf_solve(spec, samp, cfg, ground_truth=truth).x.values
    fft, dense = (final[g] for g in BOTH_SIDES)
    assert np.linalg.norm(dense - fft) <= 1e-10 * np.linalg.norm(fft)


def test_cg_matches_dense_normal_equations():
    rng = np.random.default_rng(45)
    box = IndexBox((-4,), (9,))
    filt = IndexBox((-2,), (5,))
    spec = LiftingSpec(box, filt)
    truth = _random_grid(box, rng)
    samp = SamplingOp.measure(truth, random_mask(box, 0.7, seed=6))
    d = filter_update(spec, samp.zero_filled(), 0.2, 0.5)
    lam = 1.5
    want = _dense_normal_solution(spec, samp, d, lam, 0.5)
    got = cg_ls(spec, samp, d, lam, 0.5, iters=500, tol=1e-14)
    rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
    assert rel < 1e-10


def test_equality_mode_pins_measured_samples_and_solvers_agree():
    rng = np.random.default_rng(46)
    box = IndexBox((-6,), (13,))
    filt = IndexBox((-2,), (5,))
    spec = LiftingSpec(box, filt)
    truth = _random_grid(box, rng)
    samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=7))
    d = filter_update(spec, samp.zero_filled(), 0.1, 0.0)
    xa = admm_ls(spec, samp, d, None, 0.0, iters=3000, delta=10.0)
    xc = cg_ls(spec, samp, d, None, 0.0, iters=2000, tol=1e-14)
    np.testing.assert_array_equal(xa.values[samp.mask], samp.b.values[samp.mask])
    np.testing.assert_array_equal(xc.values[samp.mask], samp.b.values[samp.mask])
    rel = np.linalg.norm(xa.values - xc.values) / np.linalg.norm(xc.values)
    assert rel < 1e-6


def test_zero_weights_return_zero_filled_data():
    box = IndexBox((-4,), (9,))
    spec = LiftingSpec(box, IndexBox((-1,), (3,)))
    truth = ComplexGrid(box, np.arange(9, dtype=complex).reshape(9) + 1j)
    samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=8))
    d = np.zeros(box.extent)
    out = admm_ls(spec, samp, d, 2.0, 0.0, iters=50)
    np.testing.assert_array_equal(out.values, samp.b.values)
    out = cg_ls(spec, samp, d, 2.0, 0.0, iters=50)
    np.testing.assert_array_equal(out.values, samp.b.values)


def test_inner_solvers_refuse_weights_off_the_data_box():
    # a bare array of another shape would broadcast silently
    box = IndexBox((-4,), (9,))
    spec = LiftingSpec(box, IndexBox((-1,), (3,)))
    samp = SamplingOp.measure(_random_grid(box, np.random.default_rng(51)),
                              random_mask(box, 0.5, seed=8))
    good = filter_update(spec, samp.zero_filled(), 0.1, 0.0)
    bad = (good.astype(complex), good[:1], good[:, None], ComplexGrid(box, good))
    for ls_solver in ("admm", "cg"):
        cfg = SolverConfig(ls_solver=ls_solver, inner_iters=2)
        for d in bad:
            with pytest.raises(ValueError, match="weights must be a real array"):
                _inner_solve(spec, samp, d, 2.0, 0.0, cfg)
    for solve in (admm_ls, cg_ls):
        for d in bad:
            with pytest.raises(ValueError, match="weights must be a real array"):
                solve(spec, samp, d, 2.0, 0.0, iters=2)


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


def test_p0_trace_contract():
    # p = 0 takes no spectrum between the first and the last iterate:
    # rows before the last carry their cost from a Cholesky factor and no
    # singular-value range (None); the last row's range and cost come from
    # the eigenvalues at the last iterate
    box = IndexBox((-10,), (21,))
    spec = LiftingSpec(box, IndexBox((-2,), (5,)))
    truth = _random_grid(box, np.random.default_rng(9))
    samp = SamplingOp.measure(truth, random_mask(box, 0.7, seed=12))
    cfg = SolverConfig(p=0.0, lam=10.0, outer_iters=5, inner_iters=10)
    trace = giraf_solve(spec, samp, cfg, ground_truth=truth)
    assert [r.iteration for r in trace.records] == [1, 2, 3, 4, 5]
    for rec in trace.records[:-1]:
        assert rec.sigma_min is None and rec.sigma_max is None
    for rec in trace.records:
        assert np.isfinite(rec.cost)

    last = trace.records[-1]
    w = _gram_penalty(spec, trace.x, 0.0, weighted=False).eigvals
    assert last.sigma_min == np.sqrt(w[0]) and last.sigma_max == np.sqrt(w[-1])
    data_term = np.linalg.norm((trace.x.values - samp.b.values)[samp.mask]) ** 2
    assert last.cost == data_term + cfg.lam * _smoothed_schatten_eigs(w, 0.0, last.eps)


def _spy_penalty_at(monkeypatch, module):
    """(values, weighted, eigvals) of every penalty the reweighted loop takes
    through the module's solver, in order."""
    calls = []
    loop = module._reweighted_loop

    def spying(*args, **kwargs):
        bound = inspect.signature(loop).bind(*args, **kwargs)
        penalty_at = bound.arguments["penalty_at"]

        def spy(x, values, weighted):
            penalty = penalty_at(x, values, weighted)
            calls.append((values, weighted, penalty.eigvals))
            return penalty

        bound.arguments["penalty_at"] = spy
        return loop(*bound.args, **bound.kwargs)

    monkeypatch.setattr(module, "_reweighted_loop", spying)
    return calls


@pytest.mark.parametrize("solver", ["giraf0", "giraf0.5", "irls0.5-tol"])
def test_each_row_is_complete_when_appended(monkeypatch, solver):
    # one penalty per iterate: the first, weighted and with values, sets the
    # schedule; each later one gives its row the cost and sigma range and
    # the next step its weights; the last is unweighted and takes values
    box = IndexBox((-31,), (63,))
    spec = LiftingSpec(box, IndexBox((-7,), (15,)))
    truth = dirac_fourier(random_diracs(4, seed=4, min_separation=2.0 / 15), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.6, seed=5))
    if solver == "irls0.5-tol":
        calls = _spy_penalty_at(monkeypatch, baselines)
        cfg = IRLSConfig(p=0.5, max_iters=20, inner_iters=40, tol=1e-3)
        trace = irls_direct(spec, samp, cfg, ground_truth=truth)
        assert len(trace.records) < cfg.max_iters
    else:
        calls = _spy_penalty_at(monkeypatch, giraf)
        cfg = SolverConfig(p=float(solver[5:]), outer_iters=5, inner_iters=10)
        trace = giraf_solve(spec, samp, cfg, ground_truth=truth)
    records = trace.records
    assert [c[:2] for c in calls] == (
        [(True, True)] + [(False, True)] * (len(records) - 1) + [(True, False)])
    for rec, (_, _, eigvals) in zip(records, calls[1:]):
        assert rec.cost is not None and np.isfinite(rec.cost)
        if eigvals is None:
            assert rec.sigma_min is None and rec.sigma_max is None
        else:
            assert rec.sigma_min == np.sqrt(max(np.min(eigvals), 0.0))
            assert rec.sigma_max == np.sqrt(max(np.max(eigvals), 0.0))
            assert rec.cost == _smoothed_schatten_eigs(eigvals, cfg.p, rec.eps)
    assert (calls[-2][2] is None) == (cfg.p == 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        records[0].cost = 0.0


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
        SolverConfig(oversample=True, oversample_factor=0.5).validate()
    with pytest.raises(ConfigError, match="needs oversample"):
        SolverConfig(oversample_factor=2.0).validate()


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
