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
stores the recipe, never a block.  A process readies the blocks with
one backward pass (``BlockFisher.ready``), which gives each block's
per-layer factors (``model.GradBlock``) and forms a block from them as a
caller reaches it: the exactly symmetric square that the product of its
gradient columns gives, divided by n in place.  A product with a block
needs no block: ``BlockFisher.damped_products`` forms it from the
factors (``model.GradBlock.matvec`` and ``rmatvec``), and ``obs`` may
solve a block through its n x n Gram (``model.GradBlock.sample_gram``)
without forming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    Dataset,
    MlpModel,
    check_fits,
    column_layout,
    grad_blocks,
    grad_columns,
    layer_grad_blocks,
    stream_rng,
)
from .numkit import (
    BlockDiagMatrix,
    BlockLayout,
    BlockStream,
    ParamVector,
    StructuralError,
    canonical_json,
    check_number,
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
# The largest damping a Fisher artifact may name.  ``certify``'s tolerance
# is absolute, and an honest step's stationarity residual grows like
# lam eps |theta_M|: on the demo's theta_p, mask and rows, lam = 1e10 fails
# both certify and prove.  2^10 is the top of the range over which
# test_honest_curvature_within_bound proves.  An estimate in memory may use
# any damping, as it may any cap.
MAX_DAMPING = 2**10
# The least damping a Fisher artifact may name.  Below it an honest
# client's request stops certifying: on the demo's theta_p, mask and
# rows, lam = 1e-20 unlearns but fails certify's stationarity (6.5e-3
# against 1e-6) and prove, and lam = 1e-24 leaves a block whose
# sample-space Cholesky pivot is not positive; 1e-12 certifies and proves.
# 2^-40 is the power of two just below 1e-12.
MIN_DAMPING = 2**-40


def check_block_cap(cap) -> None:
    """Raise StructuralError unless ``cap`` is one of ``BLOCK_CAPS``."""
    if type(cap) is not int or cap not in BLOCK_CAPS:
        raise StructuralError(f"block cap {cap!r} is not one of {BLOCK_CAPS}")


def check_damping(lam) -> None:
    """Raise StructuralError unless ``lam`` is a number in [MIN_DAMPING,
    MAX_DAMPING]."""
    check_number("damping", lam)
    if not MIN_DAMPING <= lam <= MAX_DAMPING:
        raise StructuralError(
            f"damping {lam!r} is not in [MIN_DAMPING = {MIN_DAMPING}, "
            f"MAX_DAMPING = {MAX_DAMPING}]")


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
    """The empirical Fisher F of ``recipe``, damped lazily as F + lam*I.
    The recipe's rows must fit its model (StructuralError) and its cap be
    at least 1 (ValueError)."""

    recipe: FisherRecipe
    lam: float
    source_digest: str

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError("damping must be finite and > 0")
        check_fits(self.recipe.model, self.recipe.rows)
        self.layout  # built here, so that a bad cap fails at construction

    @cached_property
    def layout(self) -> BlockLayout:
        return column_layout(self.recipe.model, self.recipe.block_cap)

    @property
    def sample_count(self) -> int:
        return len(self.recipe.rows)

    def ready(self) -> tuple[list, object]:
        """This process's blocks, from one backward pass: each block's
        ``model.GradBlock``, and ``block(i, out)``, block i formed into the
        square ``out`` (``block_former``)."""
        parts = self.recipe.blocks()
        return parts, block_former(parts, self.sample_count)

    @property
    def fisher(self) -> BlockDiagMatrix:
        """F's blocks for a walk, formed one at a time as it reaches them."""
        return BlockDiagMatrix(BlockStream(lambda: self.ready()[1], self.layout))

    def damped_products(self, theta_p: ParamVector, dw: np.ndarray,
                        blocks) -> list:
        """(F_b + lam I) dw_b for each block b of ``blocks``, in order,
        from the layer factors of one backward pass, F_b v = G_b'(G_b v) / n
        (``model.GradBlock.matvec``, then ``rmatvec``), a layer at a time
        as the pass reaches it (``model.layer_grad_blocks``), forming
        neither G nor a block.  The recipe must be taken at ``theta_p``
        (StructuralError)."""
        recipe = self.recipe
        if not np.array_equal(recipe.model.params.values, theta_p.values):
            raise StructuralError(
                "the Fisher is taken at another model than theta_p")
        slices = [sl for sl, _ in self.layout.slices()]
        products = dict.fromkeys(blocks)
        for layer in layer_grad_blocks(recipe.model, recipe.rows,
                                       recipe.block_cap):
            for b, _, part in layer:
                if b in products:
                    v = dw[slices[b]]
                    products[b] = (part.rmatvec(part.matvec(v))
                                   / self.sample_count + self.lam * v)
        return list(products.values())


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
    square ``out``, a C-order f64 square of its size."""

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


def empirical_fisher_blockwise(
    model: MlpModel,
    data: Dataset,
    lam: float = DEFAULT_DAMPING,
    block_cap: int = DEFAULT_BLOCK_CAP,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    seed: int = 0,
) -> BlockFisher:
    """F^(b) = (1/n) sum_i g_i^(b) g_i^(b)T over a seeded subsample of
    ``data`` of n <= ``max_samples`` rows, one block per
    ``column_layout(model, block_cap)`` block; no block is formed until a
    caller reaches it."""
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
    return BlockFisher(FisherRecipe(model, sub, block_cap), lam, digest)


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
