"""Integer index boxes and complex grids sampled on them.

This module is the coordinate layer everything else builds on: rectangular
index boxes with arbitrary integer offsets, complex-valued grids over a box,
the unitary DFT pair on a box, zero padding / restriction / periodized
embedding between boxes, and the circular convolution that realizes
multi-level Toeplitz products. A small binary file format (CSLR1)
serializes grids for the command line tools.

Conventions:

* An index box with ``offset`` o and ``extent`` E covers the absolute integer
  indices o, o+1, ..., o+E-1 along each axis. Grid values are stored in a
  C-ordered ndarray of shape E; array position m holds the value at absolute
  index o + m.
* ``dft``/``idft`` are unitary (1/sqrt(L) both ways) over the box positions.
* ``circ_conv`` places filter taps at (absolute index mod extent) before the
  FFT product. With that placement the restriction of the circular result to
  the valid set equals the direct valid-region linear convolution for any box
  offsets, which is the identity the lifted-matrix factorizations rely on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "IndexBox",
    "ComplexGrid",
    "GridFormatError",
    "valid_set",
    "minkowski_sum",
    "reflect",
    "dft",
    "idft",
    "zero_pad",
    "restrict",
    "wrap_embed",
    "circ_conv",
    "save_grid",
    "load_grid",
]


class GridFormatError(Exception):
    """Raised when a CSLR1 file is malformed or inconsistent."""


@dataclass(frozen=True, eq=True)
class IndexBox:
    """Axis-aligned box of integer indices with an absolute offset."""

    offset: tuple[int, ...]
    extent: tuple[int, ...]

    def __post_init__(self):
        offset = tuple(int(v) for v in self.offset)
        extent = tuple(int(v) for v in self.extent)
        if len(offset) != len(extent):
            raise ValueError("offset and extent must have the same length")
        if len(extent) == 0:
            raise ValueError("box must have at least one axis")
        if any(e < 1 for e in extent):
            raise ValueError("extents must be positive")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "extent", extent)

    @property
    def ndim(self) -> int:
        return len(self.extent)

    @property
    def size(self) -> int:
        return int(np.prod(self.extent))

    def axis_indices(self, axis: int) -> np.ndarray:
        """Absolute index values along one axis."""
        return self.offset[axis] + np.arange(self.extent[axis])

    def indices(self) -> np.ndarray:
        """All absolute indices, shape (size, ndim), C order."""
        grids = np.meshgrid(*[self.axis_indices(a) for a in range(self.ndim)],
                            indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def contains(self, other: "IndexBox") -> bool:
        return all(
            self.offset[a] <= other.offset[a]
            and other.offset[a] + other.extent[a] <= self.offset[a] + self.extent[a]
            for a in range(self.ndim)
        ) and self.ndim == other.ndim


def valid_set(data: IndexBox, filt: IndexBox) -> IndexBox:
    """Box of output indices k with k - l inside the data box for every
    filter index l."""
    if data.ndim != filt.ndim:
        raise ValueError("dimension mismatch")
    if any(f > d for f, d in zip(filt.extent, data.extent)):
        raise ValueError("filter extent exceeds data extent; valid set empty")
    offset = tuple(do + fo + fe - 1
                   for do, fo, fe in zip(data.offset, filt.offset, filt.extent))
    extent = tuple(de - fe + 1 for de, fe in zip(data.extent, filt.extent))
    return IndexBox(offset, extent)


def minkowski_sum(a: IndexBox, b: IndexBox) -> IndexBox:
    """Box of all sums of an index from a and an index from b."""
    if a.ndim != b.ndim:
        raise ValueError("dimension mismatch")
    offset = tuple(ao + bo for ao, bo in zip(a.offset, b.offset))
    extent = tuple(ae + be - 1 for ae, be in zip(a.extent, b.extent))
    return IndexBox(offset, extent)


def reflect(box: IndexBox) -> IndexBox:
    """Box of the negated indices, same extents."""
    offset = tuple(-(o + e - 1) for o, e in zip(box.offset, box.extent))
    return IndexBox(offset, box.extent)


@dataclass(frozen=True, eq=False)
class ComplexGrid:
    """Complex128 values on an index box. Treated as immutable once built."""

    box: IndexBox
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if values.shape != self.box.extent:
            raise ValueError(
                f"values shape {values.shape} does not match extent {self.box.extent}")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(cls, box: IndexBox, values: np.ndarray) -> "ComplexGrid":
        """Grid over values the package computed itself: a C-contiguous
        complex128 array of the box's extent, finite by construction, so
        the conversion and the finiteness scan are skipped."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "box", box)
        object.__setattr__(grid, "values", values)
        return grid

    @classmethod
    def zeros(cls, box: IndexBox) -> "ComplexGrid":
        return cls(box, np.zeros(box.extent, dtype=np.complex128))

    def copy(self) -> "ComplexGrid":
        return ComplexGrid(self.box, self.values.copy())


def dft(x: ComplexGrid) -> ComplexGrid:
    """Unitary DFT over the box positions."""
    return ComplexGrid(x.box, np.fft.fftn(x.values, norm="ortho"))


def idft(x: ComplexGrid) -> ComplexGrid:
    """Unitary inverse DFT over the box positions."""
    return ComplexGrid(x.box, np.fft.ifftn(x.values, norm="ortho"))


def zero_pad(x: ComplexGrid, target: IndexBox) -> ComplexGrid:
    """Embed a grid into a containing box, preserving absolute indices."""
    if not target.contains(x.box):
        raise ValueError("target box does not contain the grid box")
    out = np.zeros(target.extent, dtype=np.complex128)
    sl = tuple(slice(xo - to, xo - to + xe)
               for xo, to, xe in zip(x.box.offset, target.offset, x.box.extent))
    out[sl] = x.values
    return ComplexGrid(target, out)


def restrict(x: ComplexGrid, sub: IndexBox) -> ComplexGrid:
    """Restrict a grid to a contained sub-box (adjoint of zero_pad)."""
    if not x.box.contains(sub):
        raise ValueError("grid box does not contain the requested sub-box")
    sl = tuple(slice(so - xo, so - xo + se)
               for so, xo, se in zip(sub.offset, x.box.offset, sub.extent))
    return ComplexGrid(sub, x.values[sl].copy())


def wrap_embed(x: ComplexGrid, target: IndexBox) -> ComplexGrid:
    """Periodized embedding: each value lands at (absolute index mod extent).

    Values whose indices collide modulo the target extent accumulate. This is
    the embedding under which circular shifts, circulant Gram generators and
    annihilation weights are all independent of box offsets.
    """
    if x.box.ndim != target.ndim:
        raise ValueError("dimension mismatch")
    out = np.zeros(target.extent, dtype=np.complex128)
    np.add.at(out.reshape(-1), _wrap_slots(x.box, target), x.values.ravel())
    return ComplexGrid._trusted(target, out)


@lru_cache(maxsize=32)
def _wrap_slots(box: IndexBox, target: IndexBox) -> np.ndarray:
    """Flat index into target of each position of box, mod the target
    extent. Cached, so it is returned read-only."""
    idx = box.indices()
    flat = np.ravel_multi_index(
        tuple(np.mod(idx[:, a], target.extent[a]) for a in range(target.ndim)), target.extent)
    flat.flags.writeable = False
    return flat


def circ_conv(y: ComplexGrid, h: ComplexGrid) -> ComplexGrid:
    """Circular convolution of y with filter h, on y's box.

    Filter taps enter at (absolute index mod extent), so a tap at absolute
    index l shifts the data cyclically by l.
    """
    if not y.box.contains(h.box):
        raise ValueError("filter box must be contained in the data box")
    hw = wrap_embed(h, y.box)
    out = np.fft.ifftn(np.fft.fftn(y.values) * np.fft.fftn(hw.values))
    return ComplexGrid(y.box, out)


# CSLR1 binary format: magic "CSLR", u32 version, u32 ndim, then per axis
# (i64 offset, u64 extent), then size complex values as (f64 re, f64 im),
# row-major, all little-endian.

_MAGIC = b"CSLR"
_VERSION = 1


def save_grid(x: ComplexGrid, path) -> None:
    """Write a grid to a CSLR1 file."""
    box = x.box
    with open(path, "wb") as f:
        f.write(struct.pack("<4sII", _MAGIC, _VERSION, box.ndim))
        for o, e in zip(box.offset, box.extent):
            f.write(struct.pack("<qQ", o, e))
        flat = np.empty(2 * box.size, dtype="<f8")
        flat[0::2] = x.values.real.ravel()
        flat[1::2] = x.values.imag.ravel()
        f.write(flat.tobytes())


def load_grid(path) -> ComplexGrid:
    """Read a grid from a CSLR1 file."""
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) != 12:
            raise GridFormatError("truncated header")
        magic, version, ndim = struct.unpack("<4sII", head)
        if magic != _MAGIC:
            raise GridFormatError("bad magic")
        if version != _VERSION:
            raise GridFormatError(f"unsupported version {version}")
        if not 1 <= ndim <= 16:
            raise GridFormatError(f"implausible ndim {ndim}")
        offset, extent = [], []
        for _ in range(ndim):
            axis = f.read(16)
            if len(axis) != 16:
                raise GridFormatError("truncated axis table")
            o, e = struct.unpack("<qQ", axis)
            offset.append(o)
            extent.append(e)
        try:
            box = IndexBox(tuple(offset), tuple(extent))
        except ValueError as exc:
            raise GridFormatError(str(exc)) from exc
        payload = f.read(16 * box.size + 1)
        if len(payload) != 16 * box.size:
            raise GridFormatError("payload size does not match extents")
        flat = np.frombuffer(payload, dtype="<f8")
        values = (flat[0::2] + 1j * flat[1::2]).reshape(box.extent)
        try:
            return ComplexGrid(box, values)
        except ValueError as exc:
            raise GridFormatError(str(exc)) from exc
