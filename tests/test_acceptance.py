"""Full acceptance suite: one test per shipped guarantee, each printing a
single pass/fail line with the measured numbers at the stated tolerance.

These run the solvers at realistic problem sizes, so the module takes a few
minutes; everything else in the test tree stays fast.
"""

import csv
import json
import time

import numpy as np

from cslr.baselines import (
    APConfig,
    IRLSConfig,
    SVTConfig,
    SVTUVConfig,
    ap_solve,
    irls_direct,
    svt_solve,
    svt_uv_solve,
)
from cslr.cli import main
from cslr.giraf import SolverConfig, admm_ls, filter_update, giraf_solve
from cslr.grids import ComplexGrid, IndexBox
from cslr.lifting import (
    LiftingSpec,
    apply_lift,
    gram_surrogate,
    materialize_exact,
    materialize_surrogate,
)
from cslr.models import (
    SamplingOp,
    add_noise,
    dirac_fourier,
    gradient_weighting,
    pwc_phantom,
    random_diracs,
    random_mask,
    rect_fourier,
)

from oracles import majorizer_gap
from test_giraf import _dense_normal_solution, direct_weights
from test_lifting import GRAD2D, random_spec


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _random_grid(box, rng):
    return ComplexGrid(box, rng.standard_normal(box.extent)
                       + 1j * rng.standard_normal(box.extent))


def _random_instance(rng, k, max_1d=390, max_2d=15):
    """Random 1-D or 2-D lifting spec, alternating dimension and weighting."""
    ndim = 1 + (k % 2)
    w = GRAD2D if (ndim == 2 and (k % 4) == 1) else None
    if ndim == 1:
        return random_spec(rng, 1, weightings=w, max_data=max_1d, max_filt=7)
    return random_spec(rng, 2, weightings=w, max_data=max_2d, max_filt=3)


def test_criterion_01_lifting_operator_matches_dense():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        spec = _random_instance(rng, k)
        x = _random_grid(spec.data_box, rng)
        h = _random_grid(spec.filter_box, rng)
        T = materialize_exact(spec, x)
        fast = np.concatenate([g.values.ravel() for g in apply_lift(spec, x, h)])
        worst = max(worst, float(np.max(np.abs(fast - T @ h.values.ravel()))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    _report(1, ok, f"50 instances, max abs err {worst:.2e} (< 1e-12), "
                   f"{elapsed:.2f}s (< 10s)")


def test_criterion_02_surrogate_dominates_exact_spectrum():
    rng = np.random.default_rng(12)
    worst = -np.inf
    for k in range(20):
        spec = _random_instance(rng, k, max_1d=138, max_2d=10)
        x = _random_grid(spec.data_box, rng)
        s_exact = np.linalg.svd(materialize_exact(spec, x), compute_uv=False)
        s_sur = np.linalg.svd(materialize_surrogate(spec, x), compute_uv=False)
        n = min(len(s_exact), len(s_sur))
        worst = max(worst, float(np.max(s_exact[:n] - s_sur[:n])))
    ok = worst <= 1e-10
    _report(2, ok, f"20 instances both weightings, max sigma_i(T) - sigma_i(surrogate) "
                   f"= {worst:.2e} (<= 1e-10)")


def test_criterion_03_fft_gram_matches_dense():
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in range(12):
        spec = _random_instance(rng, k, max_1d=138, max_2d=10)
        x = _random_grid(spec.data_box, rng)
        T = materialize_surrogate(spec, x)
        G_dense = T.conj().T @ T
        G_fft = gram_surrogate(spec, x)
        rel = np.linalg.norm(G_fft - G_dense) / np.linalg.norm(G_dense)
        worst = max(worst, float(rel))
    # two-block derivative lifting, explicitly
    spec = LiftingSpec(IndexBox((-5, -4), (11, 9)), IndexBox((-1, -1), (3, 3)),
                       weightings=gradient_weighting(2))
    x = _random_grid(spec.data_box, rng)
    T = materialize_surrogate(spec, x)
    G_dense = T.conj().T @ T
    rel = np.linalg.norm(gram_surrogate(spec, x) - G_dense) / np.linalg.norm(G_dense)
    worst = max(worst, float(rel))
    ok = worst < 1e-10
    _report(3, ok, f"12 random + two-block instance, max rel Frobenius err "
                   f"{worst:.2e} (< 1e-10)")


def test_criterion_04_weights_single_filter_path():
    rng = np.random.default_rng(14)
    worst = 0.0
    for p in (0.0, 0.5, 1.0):
        for k in range(4):
            spec = _random_instance(rng, k, max_1d=138, max_2d=10)
            x = _random_grid(spec.data_box, rng)
            eps = 10.0 ** rng.uniform(-3, 1)
            want = direct_weights(spec, x, eps, p)
            got = filter_update(spec, x, eps, p)
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            worst = max(worst, float(rel))
    ok = worst < 1e-10
    _report(4, ok, f"p in {{0, 0.5, 1}}, 4 instances each, max rel err "
                   f"{worst:.2e} (< 1e-10)")


def test_criterion_05_admm_reaches_dense_solution():
    rng = np.random.default_rng(15)
    worst = 0.0
    cases = [
        (LiftingSpec(IndexBox((-3, -3), (7, 7)), IndexBox((-1, -1), (3, 3))), False),
        (LiftingSpec(IndexBox((-4, -3), (8, 8)), IndexBox((-1, -1), (3, 3)),
                     weightings=gradient_weighting(2)), True),
        (LiftingSpec(IndexBox((-30,), (61,)), IndexBox((-2,), (5,))), False),
    ]
    for spec, force_dc in cases:
        truth = _random_grid(spec.data_box, rng)
        mask = random_mask(spec.data_box, 0.6, seed=15, force_dc=force_dc)
        samp = SamplingOp.measure(truth, mask)
        d = filter_update(spec, samp.zero_filled(), 0.1, 0.0)
        lam = 3.0
        want = _dense_normal_solution(spec, samp, d, lam, 0.0)
        got = admm_ls(spec, samp, d, lam, 0.0, iters=500, delta=10.0)
        rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
        worst = max(worst, float(rel))
    ok = worst < 1e-6
    _report(5, ok, f"3 instances |data| <= 64, delta=10, 500 iters, max rel err "
                   f"{worst:.2e} (< 1e-6)")


def test_criterion_06_dirac_rank_law():
    box = IndexBox((-63,), (127,))
    spec = LiftingSpec(box, IndexBox((-7,), (15,)))
    worst_drop, worst_keep = 0.0, np.inf
    for seed in range(5):
        truth = dirac_fourier(random_diracs(4, seed=seed, min_separation=2 / 15), box)
        s = np.linalg.svd(materialize_exact(spec, truth), compute_uv=False)
        worst_drop = max(worst_drop, float(s[4] / s[0]))
        worst_keep = min(worst_keep, float(s[3] / s[0]))
    ok = worst_drop < 1e-8 and worst_keep > 1e-4
    _report(6, ok, f"r=4, filter 15, 5 seeds: max sigma5/sigma1 {worst_drop:.2e} "
                   f"(< 1e-8), min sigma4/sigma1 {worst_keep:.2e} (> 1e-4)")


def _dirac_sweep(p: float, factor: float, n_seeds: int = 20):
    box = IndexBox((-63,), (127,))
    spec = LiftingSpec(box, IndexBox((-7,), (15,)))
    out = []
    slowest = 0.0
    for s in range(n_seeds):
        truth = dirac_fourier(random_diracs(4, seed=100 + s, min_separation=2 / 15), box)
        samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=200 + s))
        cfg = SolverConfig(p=p, outer_iters=40, ls_solver="admm", inner_iters=20,
                           oversample=True, oversample_factor=factor)
        t0 = time.perf_counter()
        tr = giraf_solve(spec, samp, cfg, ground_truth=truth)
        slowest = max(slowest, time.perf_counter() - t0)
        out.append(tr.final_nmse)
    return out, slowest


def test_criterion_07_dirac_recovery_sweep():
    nm0, slow0 = _dirac_sweep(0.0, 2.0)
    nm1, _ = _dirac_sweep(1.0, 2.0)
    hits = sum(v <= 1e-4 for v in nm0)
    med0, med1 = float(np.median(nm0)), float(np.median(nm1))
    ok = hits >= 18 and slow0 < 5.0 and med1 > med0
    _report(7, ok, f"p=0: {hits}/20 seeds <= 1e-4 (need >= 18), slowest solve "
                   f"{slow0:.2f}s (< 5s); medians p=0 {med0:.2e} < p=1 {med1:.2e}")


def test_criterion_08_oversampling_trend():
    factors = (1.0, 1.25, 1.5, 2.0)
    medians = []
    for f in factors:
        nm, _ = _dirac_sweep(0.0, f)
        medians.append(float(np.median(nm)))
    nm1, _ = _dirac_sweep(1.0, 2.0)
    med1 = float(np.median(nm1))
    inversions = [(a, b) for a, b in zip(medians, medians[1:]) if b > a]
    mono_ok = len(inversions) == 0 or (
        len(inversions) == 1 and inversions[0][1] <= 2.0 * inversions[0][0])
    ratio = medians[-1] / med1
    ok = mono_ok and ratio < 0.10
    txt = " -> ".join(f"{m:.3e}" for m in medians)
    _report(8, ok, f"p=0 medians over factors {factors}: {txt} "
                   f"({len(inversions)} inversions); at 2.0x ratio to p=1 "
                   f"{ratio:.2e} (< 0.10)")


def _pwc_instance():
    box = IndexBox((-32, -32), (65, 65))
    spec = LiftingSpec(box, IndexBox((-4, -4), (9, 9)),
                       weightings=gradient_weighting(2))
    truth = rect_fourier(pwc_phantom(), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=1, force_dc=True))
    return spec, samp, truth


def test_criterion_09_frozen_eps_cost_descends():
    spec, samp, _ = _pwc_instance()
    worst = -np.inf
    legs = []
    for p in (0.0, 0.5, 1.0):
        probe = giraf_solve(spec, samp, SolverConfig(
            p=p, lam=50.0, outer_iters=1, ls_solver="cg", inner_iters=2000,
            cg_tol=1e-14))
        eps = probe.eps0
        tr = giraf_solve(spec, samp, SolverConfig(
            p=p, lam=50.0, eps0=eps, eps_min=eps, outer_iters=8,
            ls_solver="cg", inner_iters=2000, cg_tol=1e-14))
        costs = [r.cost for r in tr.records]
        rel = max((b - a) / abs(a) for a, b in zip(costs, costs[1:]))
        worst = max(worst, rel)
        legs.append(f"giraf{p:g} {rel:.1e}")
    iprobe = irls_direct(spec, samp, IRLSConfig(
        p=1.0, lam=50.0, equality=False, max_iters=1, inner_iters=400, cg_tol=1e-14))
    ieps = iprobe.records[0].eps
    # tol=0: every iterate is compared, the second's relative step (~6e-9)
    # being below the default tol
    itr = irls_direct(spec, samp, IRLSConfig(
        p=1.0, lam=50.0, equality=False, eps0=ieps, eps_min=ieps, max_iters=4,
        inner_iters=400, cg_tol=1e-14, tol=0))
    icosts = [r.cost for r in itr.records]
    irel = max((b - a) / abs(a) for a, b in zip(icosts, icosts[1:]))
    worst = max(worst, irel)
    legs.append(f"irls1 {irel:.1e}")
    ok = worst <= 1e-9
    _report(9, ok, "max relative cost increase with frozen eps: "
                   + ", ".join(legs) + " (all <= 1e-9)")


def test_criterion_10_majorizer_inequality():
    rng = np.random.default_rng(20)
    ps = (0.0, 0.25, 0.5, 0.75, 1.0)
    min_gap = np.inf
    max_eq = 0.0
    for i in range(1000):
        rows = int(rng.integers(4, 11))
        cols = int(rng.integers(3, 8))
        X0 = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        X = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        p = ps[i % len(ps)]
        eps = float(10.0 ** rng.uniform(-3, 1))
        min_gap = min(min_gap, majorizer_gap(X, X0, p, eps))
        max_eq = max(max_eq, abs(majorizer_gap(X0, X0, p, eps)))
    ok = min_gap >= -1e-10 and max_eq <= 1e-10
    _report(10, ok, f"1000 tuples: min gap {min_gap:.2e} (>= -1e-10), "
                    f"max |gap| at X=X0 {max_eq:.2e} (<= 1e-10)")


def test_criterion_11_cross_algorithm_pwc():
    spec, samp, truth = _pwc_instance()

    t0 = time.perf_counter()
    gtr = giraf_solve(spec, samp, SolverConfig(
        p=0.0, outer_iters=6, ls_solver="admm", inner_iters=20, oversample=True),
        ground_truth=truth)
    gsecs = time.perf_counter() - t0
    ghit = next((r.iteration for r in gtr.records
                 if r.nmse is not None and r.nmse <= 1e-4), None)

    results = {"giraf0": gtr.final_nmse}
    results["ap"] = ap_solve(spec, samp, APConfig(rank_r=24, max_iters=40),
                             ground_truth=truth).final_nmse
    results["svt"] = svt_solve(spec, samp, SVTConfig(
        lam=6.5, beta=1.0, equality=True, max_iters=40), ground_truth=truth).final_nmse
    results["svt_uv"] = svt_uv_solve(spec, samp, SVTUVConfig(
        rank_r=40, lam=0.026, beta=1.0, equality=True, max_iters=40, seed=0),
        ground_truth=truth).final_nmse
    results["irls0"] = irls_direct(spec, samp, IRLSConfig(
        p=0.0, equality=True, max_iters=5, inner_iters=60, cg_tol=1e-10),
        ground_truth=truth).final_nmse

    all_hit = all(v <= 1e-4 for v in results.values())
    ok = all_hit and ghit is not None and ghit <= 6 and gsecs < 5.0
    txt = ", ".join(f"{k} {v:.1e}" for k, v in results.items())
    _report(11, ok, f"final NMSE: {txt} (all <= 1e-4); reweighted hit at "
                    f"iteration {ghit} (<= 6) in {gsecs:.2f}s (< 5s)")


def test_criterion_12_noisy_regularized_ordering():
    box = IndexBox((-32, -32), (65, 65))
    spec = LiftingSpec(box, IndexBox((-4, -4), (9, 9)),
                       weightings=gradient_weighting(2))
    truth = rect_fourier(pwc_phantom(), box)
    res = {0.0: [], 1.0: []}
    for seed in range(1, 11):
        mask = random_mask(box, 0.5, seed=seed, force_dc=True)
        clean = SamplingOp.measure(truth, mask)
        noisy = SamplingOp(mask, add_noise(clean.b, 22.0, seed=seed + 1000, mask=mask))
        for p in (0.0, 1.0):
            cfg = SolverConfig(p=p, lam=0.1, outer_iters=12, ls_solver="admm",
                               inner_iters=20, oversample=True)
            res[p].append(giraf_solve(spec, noisy, cfg, ground_truth=truth).final_nmse)
    med0, med1 = float(np.median(res[0.0])), float(np.median(res[1.0]))
    ok = med0 <= med1
    _report(12, ok, f"22 dB, 10 seeds: median NMSE p=0 {med0:.3e} <= p=1 {med1:.3e}")


def test_criterion_13_rerun_determinism(tmp_path):
    config = {
        "name": "dirac63",
        "data_box": {"offset": [-31], "extent": [63]},
        "filter_box": {"offset": [-7], "extent": [15]},
        "weighting": "identity",
        "signal": {"kind": "dirac", "r": 4, "seed": 3, "min_separation": 0.1333},
        "sampling": {"usf": 0.6, "seed": 11},
        "noise": {"snr_db": 30.0, "seed": 17},
        "timing": "none",
        "solver": {"algorithm": "giraf", "p": 0, "lam": 0.05, "outer_iters": 12,
                   "ls_solver": "admm", "inner_iters": 20, "oversample": True},
        "sweep": {"tol": 1e-3, "seeds": [0, 1],
                  "solvers": [{"algorithm": "giraf", "p": 0, "lam": 0.05,
                               "outer_iters": 12, "ls_solver": "admm",
                               "inner_iters": 20, "oversample": True}]},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))

    rec_files = ["recovered.cslr", "trace.csv", "summary.json", "manifest.json"]
    for d in ("r1", "r2"):
        assert main(["recover", "--config", str(cfg), "--out",
                     str(tmp_path / d), "--seed", "4"]) == 0
    same_rec = all((tmp_path / "r1" / f).read_bytes() ==
                   (tmp_path / "r2" / f).read_bytes() for f in rec_files)

    # the manifest's echoed config regenerates the identical run by itself
    manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    cfg2 = tmp_path / "from_manifest.json"
    cfg2.write_text(json.dumps(manifest["config"]))
    assert main(["recover", "--config", str(cfg2), "--out",
                 str(tmp_path / "r3")]) == 0
    same_regen = all((tmp_path / "r1" / f).read_bytes() ==
                     (tmp_path / "r3" / f).read_bytes()
                     for f in ["recovered.cslr", "trace.csv", "summary.json"])

    for d in ("b1", "b2"):
        assert main(["bench", "--config", str(cfg), "--out",
                     str(tmp_path / d)]) == 0
    same_bench = all((tmp_path / "b1" / f).read_bytes() ==
                     (tmp_path / "b2" / f).read_bytes()
                     for f in ["bench.csv", "manifest.json"])
    ok = same_rec and same_regen and same_bench
    _report(13, ok, f"recover rerun identical: {same_rec}; regenerated from "
                    f"manifest identical: {same_regen}; bench rerun identical: "
                    f"{same_bench}")


def test_large_scale_completion():
    """Scale check: a 255x255 grid with a 45x45 filter completes a short
    reweighted solve in under five minutes."""
    box = IndexBox((-127, -127), (255, 255))
    spec = LiftingSpec(box, IndexBox((-22, -22), (45, 45)),
                       weightings=gradient_weighting(2))
    truth = rect_fourier(pwc_phantom(), box)
    samp = SamplingOp.measure(truth, random_mask(box, 0.5, seed=1, force_dc=True))
    t0 = time.perf_counter()
    tr = giraf_solve(spec, samp, SolverConfig(
        p=0.0, outer_iters=3, ls_solver="admm", inner_iters=20, oversample=True),
        ground_truth=truth)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0 and tr.final_nmse is not None
    print(f"large-scale {'PASS' if ok else 'FAIL'}: 255x255/45x45 solve "
          f"{elapsed:.1f}s (< 300s), final NMSE {tr.final_nmse:.2e}")
    assert ok
