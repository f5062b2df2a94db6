"""Damped block-wise empirical Fisher estimation and diagonal curvature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, MlpModel, grad_columns, stream_rng
from .numkit import (
    BlockDiagMatrix,
    BlockLayout,
    StructuralError,
    canonical_json,
    pack_upper,
    sha256_hex,
    unpack_upper,
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

    def damped_blocks(self):
        for tri, (_, size, _) in zip(self.fisher.blocks, self.layout.blocks):
            yield unpack_upper(tri, size, diag=self.lam)


@dataclass(frozen=True)
class DiagCurvature:
    diag: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.diag, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "diag", d)
        if d.size and d.min() < 0:
            raise ValueError("diagonal curvature must be >= 0")


def curvature_layout(model_layout: BlockLayout, cap: int = DEFAULT_BLOCK_CAP) -> BlockLayout:
    """Model layout with oversize blocks split contiguously at `cap`."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    sizes = []
    for _, size, label in model_layout.blocks:
        if size <= cap:
            sizes.append((size, label))
        else:
            part = 0
            remaining = size
            while remaining > 0:
                take = min(cap, remaining)
                sizes.append((take, f"{label}/part{part}"))
                remaining -= take
                part += 1
    return BlockLayout.from_sizes(sizes)


def _subsample(data: Dataset, max_samples: int, seed: int) -> tuple[Dataset, np.ndarray]:
    rng = stream_rng(seed, "fisher/subsample")
    order = rng.permutation(len(data))
    take = order[: min(len(data), max_samples)]
    return data.subset(take), take


def empirical_fisher_blockwise(
    model: MlpModel,
    data: Dataset,
    layout: BlockLayout,
    lam: float = DEFAULT_DAMPING,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    seed: int = 0,
) -> BlockFisher:
    """F^(b) = (1/n) sum_i g_i^(b) g_i^(b)T over a seeded subsample."""
    if len(data) == 0:
        raise StructuralError("empty dataset")
    if not 0 < lam < np.inf:
        raise ValueError("damping must be finite and > 0")
    if max_samples < 1:
        raise ValueError("max_samples must be >= 1")
    if layout.total_dim != model.dim:
        raise StructuralError("curvature layout dim does not match model")
    sub, indices = _subsample(data, max_samples, seed)
    n = len(sub)
    blocks = []
    for gb in grad_columns(model, sub, layout):  # n x s each
        if gb.shape[1] == 1 and gb.strides[0] == gb.itemsize:
            # numpy hands an n x 1 product to BLAS dot, whose unit-stride
            # kernel sums in another order than the strided one that a
            # column of the n x d matrix always took: keep that order
            wide = np.empty((n, 2))
            wide[:, :1] = gb
            gb = wide[:, :1]
        f = gb.T @ gb / n
        blocks.append(pack_upper(0.5 * (f + f.T)))
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
        fisher=BlockDiagMatrix(blocks=tuple(blocks), layout=layout),
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
    layout = curvature_layout(model.params.layout)
    out = np.empty(model.dim)
    for (sl, _), cols in zip(layout.slices(), grad_columns(model, sub, layout)):
        # Summed row after row, as a mean over the rows of an n x d matrix
        # is; numpy would sum an n x 1 column pairwise, in another order.
        out[sl] = np.cumsum(cols**2, axis=0)[-1] / len(sub)
    return DiagCurvature(diag=out)
