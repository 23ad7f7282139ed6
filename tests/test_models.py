"""Signal models, masks, noise and metrics."""

import numpy as np
import pytest

from cslr.grids import ComplexGrid, IndexBox
from cslr.lifting import LiftingSpec, materialize_exact
from cslr.models import (
    DiracSignal,
    RectPhantom,
    SamplingOp,
    add_noise,
    dirac_fourier,
    gradient_weighting,
    nmse,
    pwc_phantom,
    random_diracs,
    random_mask,
    rect_fourier,
    snr_db,
)
from oracles import annihilator_taps, dirac_annihilator, rect_annihilator


def test_dirac_fourier_matches_loop():
    sig = DiracSignal(np.array([[0.13], [0.55], [0.81]]),
                      np.array([1.0, -0.5 + 0.2j, 0.3j]))
    box = IndexBox((-5,), (11,))
    grid = dirac_fourier(sig, box)
    for k in range(-5, 6):
        ref = sum(c * np.exp(-2j * np.pi * k * x)
                  for x, c in zip(sig.locations[:, 0], sig.amplitudes))
        assert abs(grid.values[k + 5] - ref) < 1e-13


def test_rect_fourier_matches_quadrature():
    ph = RectPhantom(((1.5 - 0.5j, ((0.2, 0.45), (0.3, 0.8))),
                      (0.7, ((0.5, 0.9), (0.1, 0.35)))))
    box = IndexBox((-3, -2), (7, 5))
    grid = rect_fourier(ph, box)
    n = 4096
    t = (np.arange(n) + 0.5) / n
    img = np.zeros((n // 16, n // 16), dtype=complex)
    tt = (np.arange(n // 16) + 0.5) / (n // 16)
    for amp, ((a1, b1), (a2, b2)) in ph.rects:
        img += amp * np.outer((tt >= a1) & (tt < b1), (tt >= a2) & (tt < b2))
    for k1 in (-3, 0, 2):
        for k2 in (-2, 0, 1):
            ker = np.outer(np.exp(-2j * np.pi * k1 * tt), np.exp(-2j * np.pi * k2 * tt))
            ref = np.mean(img * ker)
            got = grid.values[k1 + 3, k2 + 2]
            assert abs(got - ref) < 5e-3


def test_rect_fourier_dc_and_symmetry():
    ph = RectPhantom(((2.0, ((0.25, 0.5), (0.25, 0.75))),))
    box = IndexBox((-4, -4), (9, 9))
    grid = rect_fourier(ph, box)
    assert abs(grid.values[4, 4] - 2.0 * 0.25 * 0.5) < 1e-14
    # real phantom: Hermitian symmetry
    assert np.max(np.abs(grid.values - np.conj(grid.values[::-1, ::-1]))) < 1e-13


def test_gradient_weighting_axes():
    w = gradient_weighting(2)
    assert len(w) == 2
    box = IndexBox((-2, 1), (4, 3))
    w0 = w[0].weights_on(box)
    w1 = w[1].weights_on(box)
    assert w0[0, 0] == 2j * np.pi * (-2)
    assert w1[0, 0] == 2j * np.pi * 1
    assert np.all(w0[:, 0] == w0[:, 1])


def test_random_mask_cardinality_and_dc():
    box = IndexBox((-32, -32), (65, 65))
    mask = random_mask(box, 0.5, seed=7)
    assert mask.sum() == int(np.ceil(0.5 * 65 * 65))
    again = random_mask(box, 0.5, seed=7)
    assert np.array_equal(mask, again)
    other = random_mask(box, 0.5, seed=8)
    assert not np.array_equal(mask, other)
    forced = random_mask(box, 0.1, seed=11, force_dc=True)
    assert forced[32, 32]
    assert forced.sum() == int(np.ceil(0.1 * 65 * 65))
    with pytest.raises(ValueError):
        random_mask(IndexBox((1,), (5,)), 0.5, seed=0, force_dc=True)
    with pytest.raises(ValueError):
        random_mask(box, 0.0, seed=0)


def test_sampling_op_roundtrip_and_embed():
    rng = np.random.default_rng(3)
    box = IndexBox((-4,), (9,))
    truth = ComplexGrid(box, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    mask = random_mask(box, 0.5, seed=5)
    op = SamplingOp.measure(truth, mask)
    zf = op.zero_filled()
    assert np.all(zf.values[~mask] == 0)
    assert np.all(zf.values[mask] == truth.values[mask])
    inserted = op.insert_data(np.zeros(9, dtype=complex))
    assert np.array_equal(inserted, zf.values)
    big = op.embed(IndexBox((-6,), (13,)))
    assert big.mask.sum() == mask.sum()
    assert np.array_equal(big.mask[2:11], mask)
    assert np.max(np.abs(big.b.values[2:11] - zf.values)) == 0


def test_add_noise_hits_snr_exactly():
    rng = np.random.default_rng(9)
    box = IndexBox((-16, -16), (33, 33))
    truth = ComplexGrid(box, rng.standard_normal(box.extent)
                        + 1j * rng.standard_normal(box.extent))
    mask = random_mask(box, 0.4, seed=1)
    op = SamplingOp.measure(truth, mask)
    noisy = add_noise(op.b, 22.0, seed=2, mask=mask)
    n = noisy.values - op.b.values
    assert np.all(n[~mask] == 0)
    got = 10 * np.log10(np.linalg.norm(op.b.values) ** 2 / np.linalg.norm(n) ** 2)
    assert abs(got - 22.0) < 0.01
    # still a valid sampling op (zero off mask)
    SamplingOp(mask, noisy)


def test_nmse_and_snr():
    rng = np.random.default_rng(13)
    box = IndexBox((0,), (32,))
    x0 = ComplexGrid(box, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert nmse(x0, x0) == 0.0
    x = ComplexGrid(box, x0.values * 1.01)
    assert abs(nmse(x, x0) - 0.01 ** 2) < 1e-12
    assert abs(snr_db(x, x0) - 40.0) < 1e-9


def test_random_diracs_separation_and_amplitudes():
    for seed in range(5):
        sig = random_diracs(4, seed=seed, min_separation=2 / 15)
        loc = np.sort(sig.locations[:, 0])
        gaps = np.diff(np.concatenate([loc, [loc[0] + 1]]))
        assert np.min(gaps) >= 2 / 15
        assert np.all(np.abs(sig.amplitudes) >= 0.5)
        assert np.all(np.abs(sig.amplitudes) <= 1.5)


def test_annihilator_taps_kill_exponentials():
    points = np.array([0.12, 0.47, 0.81])
    taps = annihilator_taps(points)
    k = np.arange(-20, 21)
    for x0 in points:
        seq = np.exp(-2j * np.pi * k * x0)
        out = np.convolve(seq, taps, mode="valid")
        assert np.max(np.abs(out)) < 1e-12


def test_dirac_rank_law_and_annihilation():
    sig = random_diracs(4, seed=0, min_separation=2 / 15)
    box = IndexBox((-63,), (127,))
    x = dirac_fourier(sig, box)
    spec = LiftingSpec(box, IndexBox((-7,), (15,)))
    s = np.linalg.svd(materialize_exact(spec, x), compute_uv=False)
    assert s[4] / s[0] < 1e-8
    assert s[3] / s[0] > 1e-4
    h = dirac_annihilator(sig, spec.filter_box)
    from cslr.lifting import apply_lift
    resid = np.linalg.norm(apply_lift(spec, x, h)[0].values)
    assert resid / (np.linalg.norm(x.values) * np.linalg.norm(h.values)) < 1e-10


def test_pwc_phantom_rank_and_annihilation():
    ph = pwc_phantom()
    box = IndexBox((-32, -32), (65, 65))
    x = rect_fourier(ph, box)
    spec = LiftingSpec(box, IndexBox((-4, -4), (9, 9)), gradient_weighting(2))
    s = np.linalg.svd(materialize_exact(spec, x), compute_uv=False)
    # exactly rank 32: a 3 x 3 separable annihilator leaves a 49-dim nullspace
    assert s[32] / s[0] < 1e-12
    assert s[31] / s[0] > 1e-8
    h = rect_annihilator(ph, spec.filter_box)
    from cslr.lifting import apply_lift
    blocks = apply_lift(spec, x, h)
    resid = np.sqrt(sum(np.linalg.norm(b.values) ** 2 for b in blocks))
    assert resid / (np.linalg.norm(x.values) * np.linalg.norm(h.values)) < 1e-10


def test_rank_is_amplitude_invariant():
    ph = pwc_phantom()
    box = IndexBox((-16, -16), (33, 33))
    spec = LiftingSpec(box, IndexBox((-3, -3), (7, 7)), gradient_weighting(2))
    ranks = []
    for scale in (1.0, 37.5):
        x = rect_fourier(ph, box)
        x = ComplexGrid(box, scale * x.values)
        s = np.linalg.svd(materialize_exact(spec, x), compute_uv=False)
        ranks.append(int(np.sum(s / s[0] > 1e-8)))
    assert ranks[0] == ranks[1]
