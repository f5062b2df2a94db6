"""Deterministic numerical primitives shared by the whole pipeline.

Block-structured flat vectors, block-diagonal symmetric matrices held
as upper triangles, in memory or streamed a block at a time, fixed-point
quantization, reproducible reductions and digests.  Everything here is
pure and immutable after construction; file formats live in
``artifacts``, which also supplies the walk of a Fisher read from disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# The package's two failure types.  A command's exit code is a property
# of the type (``cli.ReportCommand``): a StructuralError exits 2 and a
# NumericError 3.  The one other type, ``zkp.UnsatisfiableWitnessError``,
# is a rejection and exits 1.


class StructuralError(ValueError):
    """A bad input: a shape or layout mismatch between structured
    operands, or an artifact that is unreadable or references an input
    whose digest does not match."""


class NumericError(ArithmeticError):
    """Well-formed inputs on which the arithmetic fails: diverged
    training, a curvature that is not positive definite, an infeasible
    compensation or a value out of its fixed-point range."""


def check_ints(what: str, values) -> None:
    """Raise StructuralError unless every value is a JSON integer: a float,
    string or bool read from an artifact header is not."""
    for v in values:
        if type(v) is not int:
            raise StructuralError(f"{what}: {v!r} is not an integer")


def check_number(what: str, value) -> None:
    """Raise StructuralError unless ``value`` is a JSON number: a string,
    bool, list or null read from an artifact header is not."""
    if type(value) not in (int, float):
        raise StructuralError(f"{what}: {value!r} is not a number")


# ---------------------------------------------------------------------------
# layouts and vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockLayout:
    """Contiguous partition of [0, d) into labelled blocks."""

    blocks: tuple[tuple[int, int, str], ...]  # (offset, size, label)
    total_dim: int

    def __post_init__(self):
        expected = 0
        seen = set()
        for offset, size, label in self.blocks:
            if offset != expected:
                raise StructuralError(
                    f"block {label!r} starts at {offset}, expected {expected}"
                )
            if size < 1:
                raise StructuralError(f"block {label!r} has size {size} < 1")
            if label in seen:
                raise StructuralError(f"duplicate block label {label!r}")
            seen.add(label)
            expected += size
        if expected != self.total_dim:
            raise StructuralError(
                f"blocks cover [0, {expected}) but total_dim is {self.total_dim}"
            )

    @classmethod
    def from_sizes(cls, sizes_and_labels) -> "BlockLayout":
        blocks = []
        offset = 0
        for size, label in sizes_and_labels:
            blocks.append((offset, int(size), label))
            offset += int(size)
        return cls(blocks=tuple(blocks), total_dim=offset)

    @property
    def labels(self) -> list[str]:
        return [label for _, _, label in self.blocks]

    def slices(self):
        for offset, size, label in self.blocks:
            yield slice(offset, offset + size), label

    def block_slice(self, label: str) -> slice:
        for offset, size, lab in self.blocks:
            if lab == label:
                return slice(offset, offset + size)
        raise KeyError(label)

    def to_json(self) -> list[dict]:
        return [
            {"offset": o, "size": s, "label": l} for o, s, l in self.blocks
        ]

    @classmethod
    def from_json(cls, entries) -> "BlockLayout":
        blocks = tuple((e["offset"], e["size"], e["label"]) for e in entries)
        check_ints("layout offsets and sizes", (x for b in blocks for x in b[:2]))
        total = blocks[-1][0] + blocks[-1][1] if blocks else 0
        return cls(blocks=blocks, total_dim=total)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ParamVector:
    """Flat f64 vector tied to a block layout."""

    values: np.ndarray
    layout: BlockLayout

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1 or self.values.size != self.layout.total_dim:
            raise StructuralError(
                f"vector length {self.values.size} != layout dim "
                f"{self.layout.total_dim}"
            )
        if not np.all(np.isfinite(self.values)):
            raise StructuralError("non-finite entries in ParamVector")

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values=values, layout=self.layout)


@lru_cache(maxsize=None)
def upper_mask(size: int) -> np.ndarray:
    """The boolean mask of a size x size block's upper triangle.  Indexing
    a block with it gathers the triangle row by row, and assigning through
    it scatters a triangle back into place."""
    mask = np.triu(np.ones((size, size), dtype=bool))
    mask.setflags(write=False)
    return mask


def pack_upper(block: np.ndarray) -> np.ndarray:
    """The upper triangle of a square block, row-major: the one form in
    which the package holds a symmetric block."""
    return block[upper_mask(len(block))]


def upper_diagonal(size: int) -> np.ndarray:
    """The positions of a size x size block's diagonal in its triangle."""
    i = np.arange(size)
    return i * size - i * (i - 1) // 2


def unpack_upper(tri: np.ndarray, size: int, diag=0) -> np.ndarray:
    """The symmetric block B with ``pack_upper(B) == tri``, as B + diag * I
    bit for bit."""
    if tri.shape != (size * (size + 1) // 2,):
        raise StructuralError(f"a triangle of shape {tri.shape} for size {size}")
    out = np.empty((size, size), dtype=tri.dtype)
    upper = upper_mask(size)
    out[upper] = out.T[upper] = tri
    out += 0  # -0.0 becomes +0.0, as the zeros of diag * I make it
    out.flat[:: size + 1] += diag
    return out


def upper_matvec(tri: np.ndarray, v: np.ndarray, diag=0) -> np.ndarray:
    """(B + diag * I) v for the symmetric block B with ``pack_upper(B) ==
    tri``, as U v + U'v + (diag - diag B) v with U the triangle in a
    square: one scatter and no mirrored copy of the block."""
    size = v.size
    up = np.zeros((size, size))
    up[upper_mask(size)] = tri
    return up @ v + up.T @ v + (diag - tri[upper_diagonal(size)]) * v


def _checked(blocks, layout: BlockLayout):
    """Each of ``blocks`` frozen, once it is checked to be the finite upper
    triangle of its layout block; the blocks must be as many as the
    layout's."""
    blocks = iter(blocks)
    for _, size, label in layout.blocks:
        tri = next(blocks, None)
        if tri is None:
            raise StructuralError("block count does not match layout")
        tri = _freeze(tri)
        if tri.shape != (size * (size + 1) // 2,):
            raise StructuralError(f"block {label!r} of shape {tri.shape} is "
                                  f"not a {size} x {size} upper triangle")
        if not np.all(np.isfinite(tri)):
            raise StructuralError(f"block {label!r} has non-finite entries")
        yield tri
    if next(blocks, None) is not None:
        raise StructuralError("block count does not match layout")


class BlockStream:
    """The blocks of a block-diagonal matrix, formed or read one at a time.
    Each walk over it calls ``walk()`` afresh and checks every block as it
    comes, so a walk holds one block and never the whole matrix."""

    def __init__(self, walk, layout: BlockLayout):
        self._walk = walk
        self.layout = layout

    def __len__(self) -> int:
        return len(self.layout.blocks)

    def __iter__(self):
        return _checked(self._walk(), self.layout)


@dataclass(frozen=True)
class BlockDiagMatrix:
    """Symmetric block-diagonal matrix, each block held as its upper
    triangle (``pack_upper``): a tuple of them, checked on construction,
    or a ``BlockStream`` of them, checked as each walk reaches them."""

    blocks: tuple[np.ndarray, ...] | BlockStream
    layout: BlockLayout

    def __post_init__(self):
        if isinstance(self.blocks, BlockStream):
            if self.blocks.layout != self.layout:
                raise StructuralError("block stream layout does not match")
        else:
            object.__setattr__(self, "blocks",
                               tuple(_checked(self.blocks, self.layout)))


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


def quantize(x: np.ndarray, frac_bits: int, bound: float) -> np.ndarray:
    """Round-half-to-even quantization of in-range values: the int64
    integers of ``x`` with ``frac_bits`` fractional bits."""
    if frac_bits > 40:
        raise ValueError("frac_bits must be <= 40")
    x = np.asarray(x, dtype=np.float64).ravel()
    over = ~(np.abs(x) <= bound)  # NaN is out of range too
    if over.any():
        idx = int(np.argmax(over))
        raise NumericError(f"|x[{idx}]| = {abs(x[idx])} exceeds bound {bound}")
    return np.rint(x * 2.0**frac_bits).astype(np.int64)


# ---------------------------------------------------------------------------
# deterministic reductions
# ---------------------------------------------------------------------------

_CHUNK = 1024


def _pairwise(a: np.ndarray) -> np.ndarray:
    # reduce along axis 0 in a fixed binary-tree order
    while a.shape[0] > 1:
        n = a.shape[0]
        even = a[0 : n - (n % 2) : 2] + a[1::2]
        if n % 2:
            a = np.concatenate([even, a[-1:]], axis=0)
        else:
            a = even
    return a[0]


def tree_sum(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Fixed-chunk pairwise summation; bit-identical across runs."""
    a = np.moveaxis(np.asarray(a, dtype=np.float64), axis, 0)
    if a.shape[0] == 0:
        return np.zeros(a.shape[1:])
    chunks = [
        _pairwise(a[i : i + _CHUNK]) for i in range(0, a.shape[0], _CHUNK)
    ]
    return _pairwise(np.stack(chunks, axis=0))


def tree_mean(a: np.ndarray, axis: int = 0) -> np.ndarray:
    n = np.asarray(a).shape[axis]
    return tree_sum(a, axis=axis) / n


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
