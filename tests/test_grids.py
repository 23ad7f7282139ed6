"""Grid and convolution primitives against brute-force oracles."""

import numpy as np
import pytest

from cslr.grids import (
    ComplexGrid,
    GridFormatError,
    IndexBox,
    circ_conv,
    load_grid,
    minkowski_sum,
    reflect,
    restrict,
    save_grid,
    valid_set,
    wrap_embed,
    zero_pad,
)
from oracles import (
    brute_circ_conv,
    brute_valid_conv,
    linear_conv_valid,
    random_box,
    random_grid,
    reverse_conjugate,
)


def test_box_validation():
    with pytest.raises(ValueError):
        IndexBox((0,), (0,))
    with pytest.raises(ValueError):
        IndexBox((0, 1), (3,))
    box = IndexBox((-4, -4), (9, 9))
    assert box.size == 81
    assert box.ndim == 2


def test_box_indices_row_major():
    box = IndexBox((-1, 2), (2, 3))
    idx = box.indices()
    assert idx.tolist() == [
        [-1, 2], [-1, 3], [-1, 4],
        [0, 2], [0, 3], [0, 4],
    ]


def test_valid_set_formula_matches_predicate():
    rng = np.random.default_rng(7)
    for _ in range(40):
        ndim = int(rng.integers(1, 3))
        data = random_box(rng, ndim, min_extent=2, max_extent=8)
        filt = IndexBox(
            tuple(int(rng.integers(-4, 5)) for _ in range(ndim)),
            tuple(int(rng.integers(1, e + 1)) for e in data.extent),
        )
        gamma = valid_set(data, filt)
        data_set = {tuple(i) for i in data.indices()}
        fil = [tuple(i) for i in filt.indices()]
        lo = np.asarray(gamma.offset) - 1
        hi = np.asarray(gamma.offset) + np.asarray(gamma.extent)
        probe = IndexBox(tuple(lo), tuple(hi - lo + 1))
        for k in probe.indices():
            inside = all(tuple(k - np.asarray(l)) in data_set for l in fil)
            claimed = all(
                gamma.offset[a] <= k[a] < gamma.offset[a] + gamma.extent[a]
                for a in range(ndim)
            )
            assert inside == claimed


def test_valid_set_example():
    gamma = valid_set(IndexBox((0, 0), (10, 10)), IndexBox((0, 0), (3, 3)))
    assert gamma == IndexBox((2, 2), (8, 8))
    with pytest.raises(ValueError):
        valid_set(IndexBox((0,), (3,)), IndexBox((0,), (5,)))


def test_minkowski_sum_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ndim = int(rng.integers(1, 3))
        a = random_box(rng, ndim, max_extent=5)
        b = random_box(rng, ndim, max_extent=5)
        s = minkowski_sum(a, b)
        sums = {tuple(i + j) for i in a.indices() for j in b.indices()}
        assert sums == {tuple(i) for i in s.indices()}


def test_minkowski_doubling_example():
    lam = IndexBox((-4, -4), (9, 9))
    assert minkowski_sum(lam, lam) == IndexBox((-8, -8), (17, 17))


def test_pad_restrict_adjoint_and_roundtrip():
    rng = np.random.default_rng(9)
    inner = IndexBox((-2, 1), (3, 4))
    outer = IndexBox((-5, -1), (9, 8))
    x = random_grid(rng, inner)
    y = random_grid(rng, outer)
    okd = zero_pad(x, outer)
    assert np.max(np.abs(restrict(okd, inner).values - x.values)) < 1e-15
    lhs = np.vdot(y.values, okd.values)
    rhs = np.vdot(restrict(y, inner).values, x.values)
    assert abs(lhs - rhs) < 1e-12
    with pytest.raises(ValueError):
        zero_pad(y, inner)
    with pytest.raises(ValueError):
        restrict(x, outer)


def test_wrap_embed_equals_zero_pad_at_origin():
    rng = np.random.default_rng(13)
    lam = IndexBox((1, 2), (2, 2))
    delta = IndexBox((0, 0), (5, 6))
    h = random_grid(rng, lam)
    assert np.max(np.abs(wrap_embed(h, delta).values - zero_pad(h, delta).values)) == 0


def test_wrap_embed_accumulates_collisions():
    h = ComplexGrid(IndexBox((0,), (5,)), np.arange(1.0, 6.0).astype(complex))
    out = wrap_embed(h, IndexBox((0,), (3,)))
    # indices 0..4 mod 3 -> slots 0,1,2,0,1
    assert np.allclose(out.values, [1 + 4, 2 + 5, 3])


def test_circ_conv_identity_and_shift():
    rng = np.random.default_rng(17)
    box = IndexBox((0,), (8,))
    y = random_grid(rng, box)
    delta0 = ComplexGrid(IndexBox((0,), (1,)), np.ones(1, dtype=complex))
    assert np.max(np.abs(circ_conv(y, delta0).values - y.values)) < 1e-12
    delta3 = ComplexGrid(IndexBox((3,), (1,)), np.ones(1, dtype=complex))
    assert np.max(np.abs(circ_conv(y, delta3).values - np.roll(y.values, 3))) < 1e-12


def test_circ_conv_matches_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(25):
        ndim = int(rng.integers(1, 3))
        data = random_box(rng, ndim, min_extent=2, max_extent=7)
        filt = IndexBox(
            tuple(int(rng.integers(o, o + e - ef + 1))
                  for o, e, ef in zip(data.offset, data.extent, data.extent)),
            tuple(int(rng.integers(1, e + 1)) for e in data.extent),
        )
        # keep the filter box inside the data box
        filt = IndexBox(
            tuple(int(rng.integers(o, o + e - fe + 1))
                  for o, e, fe in zip(data.offset, data.extent, filt.extent)),
            filt.extent,
        )
        y = random_grid(rng, data)
        h = random_grid(rng, filt)
        fast = circ_conv(y, h)
        ref = brute_circ_conv(y, h)
        assert np.max(np.abs(fast.values - ref.values)) < 1e-11


def test_circ_conv_commutes_after_padding():
    rng = np.random.default_rng(23)
    data = IndexBox((-3, 4), (6, 5))
    filt = IndexBox((-1, 5), (2, 3))
    y = random_grid(rng, data)
    h = random_grid(rng, filt)
    a = circ_conv(y, h)
    b = circ_conv(zero_pad(h, data), y)
    assert np.max(np.abs(a.values - b.values)) < 1e-11


def test_valid_conv_equals_restricted_circular():
    # filter boxes containing the origin keep the valid set inside the data
    # box, which is the regime every lifting uses
    rng = np.random.default_rng(29)
    for _ in range(25):
        ndim = int(rng.integers(1, 3))
        fe = tuple(int(rng.integers(1, 4)) for _ in range(ndim))
        fo = tuple(int(rng.integers(-(f - 1), 1)) for f in fe)
        de = tuple(f + int(rng.integers(2, 7)) for f in fe)
        do = tuple(int(rng.integers(f + fextent - dextent, f + 1))
                   for f, fextent, dextent in zip(fo, fe, de))
        data = IndexBox(do, de)
        h = random_grid(rng, IndexBox(fo, fe))
        assert data.contains(h.box)
        y = random_grid(rng, data)
        direct = linear_conv_valid(y, h)
        circ = restrict(circ_conv(y, zero_pad(h, data)), direct.box)
        assert np.max(np.abs(direct.values - circ.values)) < 1e-11


def test_valid_conv_matches_dict_oracle_and_numpy():
    rng = np.random.default_rng(31)
    for _ in range(10):
        data = random_box(rng, 2, min_extent=3, max_extent=7)
        fe = tuple(int(rng.integers(1, e)) for e in data.extent)
        fo = tuple(int(rng.integers(o, o + e - f + 1))
                   for o, e, f in zip(data.offset, data.extent, fe))
        y = random_grid(rng, data)
        h = random_grid(rng, IndexBox(fo, fe))
        out = linear_conv_valid(y, h)
        valid, rows = brute_valid_conv(y, h)
        assert valid == [tuple(i) for i in out.box.indices()]
        assert np.max(np.abs(out.values.ravel() - rows)) < 1e-11

    # 1-D cross-check against numpy's valid-mode convolution
    y = random_grid(rng, IndexBox((0,), (24,)))
    h = random_grid(rng, IndexBox((0,), (5,)))
    out = linear_conv_valid(y, h)
    ref = np.convolve(y.values, h.values, mode="valid")
    assert np.max(np.abs(out.values - ref)) < 1e-12
    assert out.box.offset == (4,)


def test_reverse_conjugate_involution_and_values():
    rng = np.random.default_rng(37)
    h = random_grid(rng, IndexBox((-1, 3), (3, 2)))
    g = reverse_conjugate(h)
    gd = {tuple(i): v for i, v in zip(g.box.indices(), g.values.ravel())}
    for idx, val in zip(h.box.indices(), h.values.ravel()):
        assert abs(gd[tuple(-idx)] - np.conj(val)) < 1e-15
    gg = reverse_conjugate(g)
    assert gg.box == h.box
    assert np.max(np.abs(gg.values - h.values)) == 0


def test_grid_validation():
    box = IndexBox((0,), (4,))
    with pytest.raises(ValueError):
        ComplexGrid(box, np.zeros(5, dtype=complex))
    bad = np.zeros(4, dtype=complex)
    bad[1] = np.nan
    with pytest.raises(ValueError):
        ComplexGrid(box, bad)
    bad[1] = np.inf
    with pytest.raises(ValueError):
        ComplexGrid(box, bad)


def test_cslr1_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(41)
    x = random_grid(rng, IndexBox((-63, 4), (12, 9)))
    p = tmp_path / "grid.cslr"
    save_grid(x, p)
    back = load_grid(p)
    assert back.box == x.box
    assert back.values.tobytes() == x.values.tobytes()
    save_grid(back, tmp_path / "again.cslr")
    assert (tmp_path / "again.cslr").read_bytes() == p.read_bytes()


def test_cslr1_rejects_malformed(tmp_path):
    rng = np.random.default_rng(43)
    x = random_grid(rng, IndexBox((0,), (6,)))
    p = tmp_path / "grid.cslr"
    save_grid(x, p)
    raw = bytearray(p.read_bytes())

    bad_magic = tmp_path / "bad_magic.cslr"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(GridFormatError):
        load_grid(bad_magic)

    truncated = tmp_path / "trunc.cslr"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(GridFormatError):
        load_grid(truncated)

    bad_version = tmp_path / "ver.cslr"
    v = bytearray(raw)
    v[4] = 9
    bad_version.write_bytes(bytes(v))
    with pytest.raises(GridFormatError):
        load_grid(bad_version)
