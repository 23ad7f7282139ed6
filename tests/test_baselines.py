"""Reference-algorithm tests: Schatten penalty utilities against dense
oracles, the majorizer inequality, prox and averaging building blocks, and
end-to-end recovery for each solver on a small Dirac instance."""

import dataclasses
import math

import numpy as np
import pytest

from cslr.baselines import (
    APConfig,
    APProxConfig,
    IRLSConfig,
    SVTConfig,
    SVTUVConfig,
    _ExactPenalty,
    _irls_penalty,
    _soft_threshold_svd,
    _structured_average,
    ap_prox_solve,
    ap_solve,
    irls_direct,
    svt_solve,
    svt_uv_solve,
)
from cslr.giraf import (
    ConfigError,
    SolverConfig,
    SolverError,
    _relative_step,
    giraf_solve,
    schatten_weight,
)
from cslr.grids import ComplexGrid, IndexBox
from cslr.lifting import BudgetError, LiftingSpec, lift_normal_diagonal, materialize_exact
from cslr.models import (
    SamplingOp,
    dirac_fourier,
    gradient_weighting,
    pwc_phantom,
    random_diracs,
    random_mask,
    rect_fourier,
)
from oracles import irls_fft_penalty, majorizer_gap, random_grid, schatten_p, smoothed_schatten
from test_lifting import given_specs


def _random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _dirac_instance():
    """Shared 1-d test problem: 4 spikes, 63 uniform samples, 60% kept."""
    box = IndexBox((-31,), (63,))
    spec = LiftingSpec(data_box=box, filter_box=IndexBox((-7,), (15,)))
    truth = dirac_fourier(random_diracs(4, seed=3, min_separation=2 / 15), box)
    sampling = SamplingOp.measure(truth, random_mask(box, 0.6, seed=11))
    return spec, sampling, truth


def test_schatten_p_known_values():
    assert schatten_p(np.eye(4), 1.0) == pytest.approx(4.0, abs=1e-12)
    assert schatten_p(np.diag([2.0, 1.0]), 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
    # p = 1/2: (sum sqrt(sigma))^2
    assert schatten_p(np.diag([4.0, 1.0]), 0.5) == pytest.approx(9.0, abs=1e-10)
    with pytest.raises(ValueError):
        schatten_p(np.diag([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        schatten_p(np.eye(2), 1.5)


def test_schatten_p_matches_gram_eigenvalues():
    rng = np.random.default_rng(0)
    for p in (0.25, 0.5, 1.0):
        m = _random_matrix(rng, 6, 4)
        w = np.linalg.eigvalsh(m.conj().T @ m)
        want = float(np.sum(np.maximum(w, 0.0) ** (p / 2)) ** (1.0 / p))
        assert schatten_p(m, p) == pytest.approx(want, rel=1e-10)


def test_smoothed_schatten_values():
    rng = np.random.default_rng(1)
    m = _random_matrix(rng, 5, 5)
    s = np.linalg.svd(m, compute_uv=False)
    for p in (0.5, 1.0):
        assert smoothed_schatten(m, p, 0.0) == pytest.approx(float(np.sum(s ** p)), rel=1e-12)
    # p = 0 limit on a diagonal matrix
    want = 0.5 * (math.log(4.0 + 1.0) + math.log(1.0 + 1.0))
    assert smoothed_schatten(np.diag([2.0, 1.0]), 0.0, 1.0) == pytest.approx(want, abs=1e-12)
    # zero singular values still count toward the sum
    rank1 = np.outer([1.0, 0.0, 0.0], [3.0, 0.0, 0.0])
    assert smoothed_schatten(rank1, 1.0, 1.0) == pytest.approx(math.sqrt(10.0) + 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        smoothed_schatten(m, 1.0, -1e-3)
    with pytest.raises(ValueError):
        smoothed_schatten(rank1, 0.0, 0.0)


def test_majorizer_dominates_penalty():
    rng = np.random.default_rng(2)
    worst = 0.0
    for p in (0.0, 0.5, 1.0):
        for _ in range(50):
            X0 = _random_matrix(rng, 8, 5)
            X = _random_matrix(rng, 8, 5)
            eps = float(10.0 ** rng.uniform(-3, 1))
            gap = majorizer_gap(X, X0, p, eps)
            worst = min(worst, gap)
            assert gap >= -1e-10
            assert abs(majorizer_gap(X0, X0, p, eps)) <= 1e-10
    assert worst >= -1e-10


def test_soft_threshold_matches_scalar_prox():
    # scalar grid scan: argmin over x of 0.5 (x - y)^2 + tau |x|
    for y, tau in ((3.7, 1.2), (0.9, 1.2), (-2.5, 0.4)):
        grid = np.linspace(-6.0, 6.0, 1200001)
        obj = 0.5 * (grid - y) ** 2 + tau * np.abs(grid)
        best = grid[int(np.argmin(obj))]
        want = math.copysign(max(abs(y) - tau, 0.0), y)
        assert best == pytest.approx(want, abs=2e-5)

    X, s, kept = _soft_threshold_svd(np.diag([5.0, 2.0, 0.8]).astype(complex), 1.0)
    assert np.allclose(X, np.diag([4.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(kept, [4.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(s, [5.0, 2.0, 0.8], atol=1e-12)

    # thresholding the whole spectrum returns the zero matrix
    rng = np.random.default_rng(3)
    Y = _random_matrix(rng, 6, 4)
    smax = np.linalg.svd(Y, compute_uv=False)[0]
    Xz, _, _ = _soft_threshold_svd(Y, smax + 1.0)
    assert np.linalg.norm(Xz) == pytest.approx(0.0, abs=1e-12)

    # prox optimality: no random perturbation improves the objective
    tau = 1.5
    Xs, _, _ = _soft_threshold_svd(Y, tau)

    def objective(M):
        return 0.5 * np.linalg.norm(M - Y) ** 2 + tau * np.linalg.svd(M, compute_uv=False).sum()

    base = objective(Xs)
    for _ in range(20):
        trial = Xs + 1e-3 * _random_matrix(rng, 6, 4)
        assert objective(trial) >= base - 1e-12


def test_structured_average_inverts_lifting():
    rng = np.random.default_rng(4)
    # identity weighting touches every data entry, so the multiplicity
    # average recovers x exactly
    box = IndexBox((-6, -3), (13, 9))
    spec = LiftingSpec(data_box=box, filter_box=IndexBox((-1, -1), (3, 3)))
    x = ComplexGrid(box, _random_matrix(rng, *box.extent))
    diag = lift_normal_diagonal(spec)
    assert np.all(diag > 0)
    back = _structured_average(spec, materialize_exact(spec, x), diag, np.zeros(box.extent))
    assert np.allclose(back, x.values, atol=1e-12)

    # derivative weighting kills the dc entry; averaging recovers the rest
    # and keeps the fallback value at dc
    gspec = LiftingSpec(data_box=box, filter_box=IndexBox((-1, -1), (3, 3)),
                        weightings=gradient_weighting(2))
    gdiag = lift_normal_diagonal(gspec)
    dc = tuple(-o for o in box.offset)
    assert gdiag[dc] == 0 and np.sum(gdiag == 0) == 1
    fallback = np.full(box.extent, 7.0 + 0j)
    gback = _structured_average(gspec, materialize_exact(gspec, x), gdiag, fallback)
    live = gdiag > 0
    assert np.allclose(gback[live], x.values[live], atol=1e-10)
    assert gback[dc] == 7.0 + 0j


def test_uv_ridge_updates_solve_nuclear_prox():
    """Alternating the two ridge solves on a fixed matrix converges to the
    singular value soft-threshold of it, with the factor penalty matching
    the nuclear norm of the product."""
    rng = np.random.default_rng(7)
    W = _random_matrix(rng, 12, 5) @ _random_matrix(rng, 5, 8)
    lam, beta, R = 0.1, 1.0, 6
    V = _random_matrix(rng, 8, R) / math.sqrt(16)
    eye = np.eye(R)
    for _ in range(500):
        U = beta * (W @ V) @ np.linalg.inv(lam * eye + beta * (V.conj().T @ V))
        V = beta * (W.conj().T @ U) @ np.linalg.inv(lam * eye + beta * (U.conj().T @ U))
    X = U @ V.conj().T
    pen = 0.5 * (np.linalg.norm(U) ** 2 + np.linalg.norm(V) ** 2)
    nuc = np.linalg.svd(X, compute_uv=False).sum()
    assert pen == pytest.approx(nuc, rel=1e-6)
    Uo, so, Vho = np.linalg.svd(W, full_matrices=False)
    prox = (Uo * np.maximum(so - lam / beta, 0.0)) @ Vho
    assert np.linalg.norm(X - prox) / np.linalg.norm(W) < 1e-5


def test_truth_is_fixed_point():
    """An exact-rank, data-consistent signal is a fixed point of the
    truncation solver and of its proximal relaxation at any weight."""
    spec, sampling, truth = _dirac_instance()
    scale = np.linalg.norm(truth.values)
    tr = ap_solve(spec, sampling, APConfig(rank_r=4, max_iters=5), x0=truth)
    assert np.linalg.norm(tr.x.values - truth.values) / scale < 1e-12
    for lam in (1.0, 1e8):
        cfg = APProxConfig(rank_r=4, lam=lam, max_iters=5)
        tr = ap_prox_solve(spec, sampling, cfg, x0=truth)
        assert np.linalg.norm(tr.x.values - truth.values) / scale < 1e-12


def test_ap_recovers_diracs_and_stops():
    spec, sampling, truth = _dirac_instance()
    cfg = APConfig(rank_r=4, max_iters=100)
    tr = ap_solve(spec, sampling, cfg, ground_truth=truth)
    assert tr.final_nmse < 1e-6
    # relative-step rule fires well before the iteration cap
    assert len(tr.records) < 40
    assert tr.algorithm == "ap"
    assert set(tr.phase_seconds) == {"svd", "projection"}
    assert all(r.cost is not None for r in tr.records)


def test_ap_prox_recovers_with_moderate_weight():
    spec, sampling, truth = _dirac_instance()
    cfg = APProxConfig(rank_r=4, lam=0.05, max_iters=200)
    tr = ap_prox_solve(spec, sampling, cfg, ground_truth=truth)
    assert tr.final_nmse < 1e-6
    assert tr.algorithm == "ap_prox"


def test_svt_recovers_diracs():
    spec, sampling, truth = _dirac_instance()
    cfg = SVTConfig(lam=6.74, beta=1.0, equality=True, max_iters=60)
    tr = svt_solve(spec, sampling, cfg, ground_truth=truth)
    assert tr.final_nmse < 1e-6
    assert len(tr.records) < 40
    assert tr.algorithm == "svt"


def test_svt_uv_recovers_diracs():
    spec, sampling, truth = _dirac_instance()
    cfg = SVTUVConfig(rank_r=8, lam=0.027, beta=1.0, equality=True, max_iters=60,
                      seed=0)
    tr = svt_uv_solve(spec, sampling, cfg, ground_truth=truth)
    assert tr.final_nmse < 1e-6
    assert len(tr.records) < 40
    assert set(tr.phase_seconds) == {"factor", "least_squares"}


def test_irls_matches_reweighted_solver():
    """Both solvers drive the same objective; final errors agree to the
    scale set by the half-circulant approximation."""
    spec, sampling, truth = _dirac_instance()
    icfg = IRLSConfig(p=0.0, equality=True, max_iters=10, inner_iters=80, cg_tol=1e-12)
    itr = irls_direct(spec, sampling, icfg, ground_truth=truth)
    gcfg = SolverConfig(p=0.0, outer_iters=10, ls_solver="cg", inner_iters=80,
                        cg_tol=1e-12, oversample=True)
    gtr = giraf_solve(spec, sampling, gcfg, ground_truth=truth)
    assert itr.final_nmse < 1e-4
    assert gtr.final_nmse < 1e-3
    assert abs(itr.final_nmse - gtr.final_nmse) < 1e-3
    assert itr.algorithm == "irls0"
    eps = [r.eps for r in itr.records]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    assert all(r.cost is not None for r in itr.records)
    assert itr.eps0 is not None and eps[0] == pytest.approx(itr.eps0)


@given_specs
def test_irls_penalty_matches_fft_filter_bank(spec, seed):
    # T^*(T(v) W) against the reweighting filters (sigma_i^2 + eps)^(p/4 -
    # 1/2) v_i applied one by one as gated FFT convolutions
    rng = np.random.default_rng(seed)
    x = random_grid(rng, spec.data_box)
    v = random_grid(rng, spec.data_box).values
    _, s, Vh = np.linalg.svd(materialize_exact(spec, x), full_matrices=False)
    s2 = s ** 2
    for p in (0.0, 0.5, 1.0):
        eps = float(10.0 ** rng.uniform(-3, 0)) * max(s2[0], 1.0)
        want = irls_fft_penalty(spec, Vh.conj().T * (s2 + eps) ** (p / 4 - 0.5))(v)
        got = _irls_penalty(spec, _ExactPenalty(spec, x, p).weights(eps))(v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("max_iters", [1, 4])
def test_irls_takes_one_full_svd_per_iteration_and_a_values_only_close(monkeypatch,
                                                                        max_iters):
    # the penalty of each outer iterate needs the singular vectors for its
    # weights; the closing penalty only prices the last iterate, so its SVD
    # takes singular values alone
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(
        kw.get("compute_uv", True)) or svd(a, **kw))
    spec, sampling, truth = _dirac_instance()
    cfg = IRLSConfig(p=0.0, max_iters=max_iters, inner_iters=5)
    trace = irls_direct(spec, sampling, cfg, ground_truth=truth)
    assert calls == [True] * max_iters + [False]
    assert len(trace.records) == max_iters
    for rec in trace.records:
        assert 0.0 <= rec.sigma_min <= rec.sigma_max and np.isfinite(rec.cost)


def _frozen_eps_irls(**fields):
    """Direct IRLS (p = 1, eps frozen at 1e-2, by default 8 iterations) on
    a 17x17 piecewise-constant instance, fields overriding the config."""
    box = IndexBox((-8, -8), (17, 17))
    spec = LiftingSpec(data_box=box, filter_box=IndexBox((-2, -2), (5, 5)),
                       weightings=gradient_weighting(2))
    truth = rect_fourier(pwc_phantom(), box)
    sampling = SamplingOp.measure(truth, random_mask(box, 0.5, seed=4, force_dc=True))
    cfg = IRLSConfig(**{"p": 1.0, "lam": 50.0, "equality": False, "eps0": 1e-2,
                        "eps_min": 1e-2, "max_iters": 8, "inner_iters": 4000,
                        "cg_tol": 1e-14, **fields})
    return irls_direct(spec, sampling, cfg)


def test_irls_descends_with_frozen_eps():
    # tol=0 runs all 8 iterations: at the default tol the run stops at the
    # second, whose relative step is about 2e-9
    tr = _frozen_eps_irls(tol=0)
    costs = [r.cost for r in tr.records]
    assert len(costs) == 8
    for prev, cur in zip(costs, costs[1:]):
        assert cur <= prev + 1e-9 * abs(prev)


def test_irls_stops_once_the_relative_step_drops_below_tol():
    # at the default tol the frozen-eps run stops after its second iterate,
    # the first whose relative step falls below tol, and returns what a
    # two-iteration run returns; test_irls_descends_with_frozen_eps runs
    # the same instance to the end with tol=0
    stopped = _frozen_eps_irls()
    assert [r.iteration for r in stopped.records] == [1, 2]
    assert stopped.x.values.tobytes() == _frozen_eps_irls(max_iters=2, tol=0).x.values.tobytes()
    first = _frozen_eps_irls(max_iters=1).x.values
    assert _relative_step(stopped.x.values, first) < IRLSConfig().tol


def test_config_validation():
    for cfg in (APConfig(), APConfig(rank_r=0), SVTUVConfig(lam=1.0)):
        with pytest.raises(ConfigError, match="rank_r"):
            cfg.validate()
    for cfg in (APProxConfig(rank_r=4), SVTConfig(), SVTConfig(lam=0.0),
                SVTUVConfig(rank_r=4), IRLSConfig(equality=False)):
        with pytest.raises(ConfigError, match="lam"):
            cfg.validate()
    # irls does not read lam under equality, so it refuses one there
    with pytest.raises(ConfigError, match="lam"):
        IRLSConfig(lam=1.0).validate()
    IRLSConfig(lam=1.0, equality=False).validate()
    with pytest.raises(ConfigError, match="beta"):
        SVTConfig(lam=1.0, beta=0.0).validate()
    with pytest.raises(ConfigError, match="p must"):
        IRLSConfig(p=1.5).validate()
    for cfg in (IRLSConfig(max_iters=0), APConfig(rank_r=4, max_iters=0)):
        with pytest.raises(ConfigError, match="max_iters"):
            cfg.validate()


# the solver of each baseline config, and the values of one or more short
# runs that between them reach every field
_READS = [
    pytest.param(APConfig, ap_solve, [{"rank_r": 4}], id="ap"),
    pytest.param(APProxConfig, ap_prox_solve, [{"rank_r": 4, "lam": 0.05}], id="ap_prox"),
    pytest.param(SVTConfig, svt_solve, [{"lam": 6.74}], id="svt"),
    pytest.param(SVTUVConfig, svt_uv_solve, [{"rank_r": 8, "lam": 0.027}], id="svt_uv"),
    pytest.param(IRLSConfig, irls_direct, [{"inner_iters": 5},
                                           {"lam": 50.0, "equality": False, "inner_iters": 5}],
                 id="irls"),
]


@pytest.mark.parametrize("cls, solve, runs", _READS)
def test_every_config_field_is_read_by_its_solver(cls, solve, runs):
    # attribute reads of the config during the solve, validate() left out
    read, checking = set(), []

    class Recording(cls):
        def __getattribute__(self, name):
            if not checking:
                read.add(name)
            return object.__getattribute__(self, name)

        def validate(self):
            checking.append(True)
            try:
                cls.validate(self)
            finally:
                checking.pop()

    spec, sampling, truth = _dirac_instance()
    for values in runs:
        solve(spec, sampling, Recording(max_iters=2, **values), ground_truth=truth)
    names = {f.name for f in dataclasses.fields(cls)}
    assert names - read == set()


# the config classes an id's family names: giraf's SolverConfig, or the
# baseline configs, each with values its validate() accepts
_FAMILIES = {
    "SolverConfig": [(SolverConfig, {})],
    "BaselineConfig": [(APConfig, {"rank_r": 4}), (APProxConfig, {"rank_r": 4, "lam": 1.0}),
                       (SVTConfig, {"lam": 1.0}), (SVTUVConfig, {"rank_r": 4, "lam": 1.0}),
                       (IRLSConfig, {})],
}


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2"])
@pytest.mark.parametrize("family, name", [
    ("SolverConfig", "outer_iters"), ("SolverConfig", "inner_iters"),
    ("BaselineConfig", "rank_r"), ("BaselineConfig", "max_iters"),
    ("BaselineConfig", "inner_iters"), ("BaselineConfig", "seed")])
def test_integer_fields_refuse_non_integers(family, name, value):
    # every class of the family that declares the field
    classes = [(cls, base) for cls, base in _FAMILIES[family]
               if name in {f.name for f in dataclasses.fields(cls)}]
    assert classes
    for cls, base in classes:
        cls(**base).validate()
        cls(**{**base, name: 2}).validate()
        cls(**{**base, name: np.int64(2)}).validate()
        with pytest.raises(ConfigError, match=name):
            cls(**{**base, name: value}).validate()


def test_integral_float_count_is_a_config_error_not_a_crash():
    spec, sampling, truth = _dirac_instance()
    with pytest.raises(ConfigError, match="outer_iters"):
        giraf_solve(spec, sampling, SolverConfig(outer_iters=2.0), truth)
    with pytest.raises(ConfigError, match="max_iters"):
        irls_direct(spec, sampling, IRLSConfig(max_iters=2.0), truth)


def test_non_finite_cost_is_a_solver_error():
    # the Dirac data times 1e300: the energy alternating projections
    # discard, sum s^2, overflows, which must not pass as a normal result
    spec, sampling, _ = _dirac_instance()
    big = SamplingOp(sampling.mask, ComplexGrid(spec.data_box, 1e300 * sampling.b.values))
    with np.errstate(all="ignore"), pytest.raises(SolverError,
                                                  match="ap cost is inf at iteration 1"):
        ap_solve(spec, big, APConfig(rank_r=4, max_iters=10))


def test_dense_lifting_budget_guard():
    box = IndexBox((-300, -300), (600, 600))
    spec = LiftingSpec(data_box=box, filter_box=IndexBox((-22, -22), (45, 45)))
    truth = ComplexGrid(box, np.zeros(box.extent, dtype=complex))
    sampling = SamplingOp.measure(truth, random_mask(box, 0.5, seed=0))
    with pytest.raises(BudgetError):
        ap_solve(spec, sampling, APConfig(rank_r=4, max_iters=1))
