"""Damped block-wise empirical Fisher estimation and diagonal curvature.

The Fisher's blocks are the model's blocks (``mlp.<i>.w``, ``mlp.<i>.b``)
in layout order, each split contiguously at the block cap (``--block-cap``)
into parts ``<label>/part<j>`` of ``cap`` coordinates and a shorter last
one; a part of a weight block may start mid-row.  That rule is
``model.column_blocks``, the one the certificate's statement derives its
blocks by from the same cap, so the layout of a Fisher is
``model.column_layout(model, cap)`` and no artifact lists it.

An estimate is a fixed function of its **recipe**, ``FisherRecipe``: the
model it is taken at, the rows of its seeded subsample in subsample
order, and the block cap; the damping rides beside it.  The artifact
stores the recipe, never a block.  Each block is formed from the
recipe's per-layer factors (``model.grad_blocks``) as a caller reaches
it: the exactly symmetric square that the product of its gradient
columns gives, divided by n in place.  The estimate's blocks are a
``numkit.BlockStream``: a walk or a ``map`` forms one block at a time
per process, and a ``map`` over many entries runs the backward pass and
forms the blocks in forked workers.  A product with a block needs no
block: ``model.GradBlock.matvec`` and ``rmatvec`` form it from the
factors, as ``certify`` does, and ``obs`` may solve a block through its
n x n Gram (``model.GradBlock.sample_gram``) without forming it.  A
Fisher may also be given by its blocks alone, with no recipe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    MlpModel,
    check_fits,
    column_layout,
    grad_blocks,
    grad_columns,
    stream_rng,
)
from .numkit import (
    BlockDiagMatrix,
    BlockLayout,
    BlockStream,
    StructuralError,
    canonical_json,
    sha256_hex,
)

DEFAULT_DAMPING = 1e-3
DEFAULT_MAX_SAMPLES = 1024
DEFAULT_BLOCK_CAP = 256
# The block caps a Fisher artifact or a statement (``zkp.PublicInputs``)
# may name, so that a client cannot choose the layout (one block of d
# coordinates makes every coordinate touched).  An estimate or a statement
# in memory may use any cap.
BLOCK_CAPS = (256, 512)


def check_block_cap(cap) -> None:
    """Raise StructuralError unless ``cap`` is one of ``BLOCK_CAPS``."""
    if type(cap) is not int or cap not in BLOCK_CAPS:
        raise StructuralError(f"block cap {cap!r} is not one of {BLOCK_CAPS}")


@dataclass(frozen=True)
class FisherRecipe:
    """The exact inputs of an estimate: the model it is taken at, its
    sample rows in subsample order, and the block cap."""

    model: MlpModel
    rows: Dataset
    block_cap: int

    def blocks(self) -> list:
        """Each block's ``model.GradBlock``, from one backward pass."""
        return [block for _, block in grad_blocks(self.model, self.rows,
                                                  self.block_cap)]


@dataclass(frozen=True)
class BlockFisher:
    """Empirical Fisher F stored per block; damping applied lazily as +lam*I.
    ``recipe`` is the estimate's inputs, or None for a Fisher given by its
    blocks alone."""

    fisher: BlockDiagMatrix
    lam: float
    sample_count: int
    source_digest: str
    recipe: FisherRecipe | None = None

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError("damping must be finite and > 0")

    @property
    def layout(self) -> BlockLayout:
        return self.fisher.layout


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


def block_former(parts: list, n: int):
    """``block(i, out)``: F_i = G_i'G_i / n, G_i the columns of
    ``parts[i]``, a ``model.GradBlock`` over n rows, written into the
    square ``out`` (a ``numkit.BlockStream`` source's block)."""

    def block(i, out):
        gb = parts[i].columns()  # n x s
        if gb.shape[1] == 1 and gb.strides[0] == gb.itemsize:
            # numpy hands an n x 1 product to BLAS dot, whose unit-stride
            # kernel sums in another order than the strided one that a
            # column of the n x d matrix always took: keep that order
            wide = np.empty((n, 2))
            wide[:, :1] = gb
            gb = wide[:, :1]
        # numpy computes gb.T @ gb by syrk and mirrors the triangle it
        # computed, so the product, and the block, are exactly symmetric
        return np.divide(np.matmul(gb.T, gb, out=out), n, out=out)

    return block


def fisher_from_recipe(recipe: FisherRecipe, lam: float,
                       source_digest: str) -> BlockFisher:
    """F^(b) = (1/n) sum_i g_i^(b) g_i^(b)T over the recipe's n rows, one
    block per ``column_layout(model, cap)`` block, streamed: the process
    that forms the first block it is given runs the backward pass, and
    forms each block from its factors as it is reached.  The rows must fit
    the model (StructuralError)."""
    if not 0 < lam < np.inf:
        raise ValueError("damping must be finite and > 0")
    check_fits(recipe.model, recipe.rows)
    layout = column_layout(recipe.model, recipe.block_cap)
    n = len(recipe.rows)

    def form():
        return block_former(recipe.blocks(), n)

    return BlockFisher(
        fisher=BlockDiagMatrix(BlockStream(form, layout)),
        lam=lam,
        sample_count=n,
        source_digest=source_digest,
        recipe=recipe,
    )


def empirical_fisher_blockwise(
    model: MlpModel,
    data: Dataset,
    lam: float = DEFAULT_DAMPING,
    block_cap: int = DEFAULT_BLOCK_CAP,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    seed: int = 0,
) -> BlockFisher:
    """The estimate over a seeded subsample of ``data`` of at most
    ``max_samples`` rows (``fisher_from_recipe``); no block is formed
    until a walk or a ``map`` reaches it."""
    if len(data) == 0:
        raise StructuralError("empty dataset")
    if max_samples < 1:
        raise ValueError("max_samples must be >= 1")
    sub, indices = _subsample(data, max_samples, seed)
    digest = sha256_hex(
        canonical_json(
            {
                "dataset": data.digest(),
                "seed": seed,
                "indices": indices.tolist(),
            }
        )
    )
    return fisher_from_recipe(FisherRecipe(model, sub, block_cap), lam, digest)


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
