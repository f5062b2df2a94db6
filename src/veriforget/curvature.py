"""Damped block-wise empirical Fisher estimation and diagonal curvature.

The Fisher's blocks are the model's blocks (``mlp.<i>.w``, ``mlp.<i>.b``)
in layout order, each split contiguously at the block cap (``--block-cap``)
into parts ``<label>/part<j>`` of ``cap`` coordinates and a shorter last one; a part
of a weight block may start mid-row.  ``model.grad_formers`` makes the
split, so the layout of a Fisher is the labels and widths it yields.
Each block is held as its upper triangle (``numkit.pack_upper``): the
estimator gathers it straight from the exactly symmetric product of the
gradient columns, formed in one reused square.  The estimate is a
``numkit.BlockStream``: a walk or a ``map`` forms one block at a time, so
a caller that maps it once, as ``artifacts.save_fisher`` does, never
holds the whole Fisher, and a large Fisher's blocks are formed in forked
workers.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Dataset,
    MlpModel,
    column_layout,
    grad_columns,
    grad_formers,
    stream_rng,
)
from .numkit import (
    BlockDiagMatrix,
    BlockLayout,
    BlockStream,
    StructuralError,
    canonical_json,
    pack_upper,
    scratch_squares,
    sha256_hex,
)

DEFAULT_DAMPING = 1e-3
DEFAULT_MAX_SAMPLES = 1024
DEFAULT_BLOCK_CAP = 256


@dataclass(frozen=True)
class BlockFisher:
    """Empirical Fisher F stored per block; damping applied lazily as +lam*I."""

    fisher: BlockDiagMatrix
    lam: float
    sample_count: int
    source_digest: str

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError("damping must be finite and > 0")

    @property
    def layout(self) -> BlockLayout:
        return self.fisher.layout

    def materialized(self) -> "BlockFisher":
        """This Fisher with every block in memory, its stream walked once,
        for a caller that walks it more than once."""
        return replace(self, fisher=BlockDiagMatrix(
            blocks=tuple(self.fisher.blocks), layout=self.layout))


@dataclass(frozen=True)
class DiagCurvature:
    diag: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.diag, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "diag", d)
        if d.size and d.min() < 0:
            raise ValueError("diagonal curvature must be >= 0")


def _subsample(data: Dataset, max_samples: int, seed: int) -> tuple[Dataset, np.ndarray]:
    rng = stream_rng(seed, "fisher/subsample")
    order = rng.permutation(len(data))
    take = order[: min(len(data), max_samples)]
    return data.subset(take), take


def empirical_fisher_blockwise(
    model: MlpModel,
    data: Dataset,
    lam: float = DEFAULT_DAMPING,
    block_cap: int = DEFAULT_BLOCK_CAP,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    seed: int = 0,
) -> BlockFisher:
    """F^(b) = (1/n) sum_i g_i^(b) g_i^(b)T over a seeded subsample, one
    block per ``grad_columns(model, ., block_cap)`` block, streamed: each
    walk or ``map`` over the blocks runs one backward pass, in the calling
    process, and forms each block from its factors (``grad_formers``) as
    it is reached, in whichever process reaches it."""
    if len(data) == 0:
        raise StructuralError("empty dataset")
    if not 0 < lam < np.inf:
        raise ValueError("damping must be finite and > 0")
    if max_samples < 1:
        raise ValueError("max_samples must be >= 1")
    layout = column_layout(model, block_cap)
    sub, indices = _subsample(data, max_samples, seed)
    n = len(sub)

    @contextlib.contextmanager
    def form():
        formers = [former for _, former in grad_formers(model, sub, block_cap)]
        square = scratch_squares(layout)

        def block(i, out):
            gb = formers[i]()  # n x s
            if gb.shape[1] == 1 and gb.strides[0] == gb.itemsize:
                # numpy hands an n x 1 product to BLAS dot, whose unit-stride
                # kernel sums in another order than the strided one that a
                # column of the n x d matrix always took: keep that order
                wide = np.empty((n, 2))
                wide[:, :1] = gb
                gb = wide[:, :1]
            # numpy computes gb.T @ gb by syrk and mirrors the triangle it
            # computed, so the product is exactly symmetric: its upper
            # triangle is the whole block, and only that triangle is divided
            product = np.matmul(gb.T, gb, out=square(gb.shape[1]))
            return np.divide(pack_upper(product), n, out=out)

        yield block

    digest = sha256_hex(
        canonical_json(
            {
                "dataset": data.digest(),
                "seed": seed,
                "indices": indices.tolist(),
            }
        )
    )
    return BlockFisher(
        fisher=BlockDiagMatrix(blocks=BlockStream(form, layout), layout=layout),
        lam=lam,
        sample_count=n,
        source_digest=digest,
    )


def diag_curvature(
    model: MlpModel,
    data: Dataset,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    seed: int = 0,
) -> DiagCurvature:
    """Diagonal empirical Fisher: mean squared per-coordinate gradients."""
    if len(data) == 0:
        raise StructuralError("empty dataset")
    sub, _ = _subsample(data, max_samples, seed)
    # Capped blocks keep each block's gradient columns at n x 256 at most.
    # Summed row after row, as a mean over the rows of an n x d matrix
    # is; numpy would sum an n x 1 column pairwise, in another order.
    # Each sum is a copy: a view of the cumsum's last row would keep the
    # whole n x s cumsum alive until the concatenation.
    sums = [np.cumsum(cols**2, axis=0)[-1].copy()
            for _, cols in grad_columns(model, sub, DEFAULT_BLOCK_CAP)]
    return DiagCurvature(diag=np.concatenate(sums) / len(sub))
