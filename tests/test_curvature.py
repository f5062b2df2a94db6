import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from veriforget.curvature import (
    DEFAULT_MAX_SAMPLES,
    _subsample,
    block_former,
    diag_curvature,
    empirical_fisher_blockwise,
)
from veriforget.model import Dataset, grad_columns, init_mlp, per_example_grads
from veriforget.numkit import StructuralError

from conftest import (
    examples,
    dense,
    reference_curvature_layout,
    reference_damp,
    reference_diag_curvature,
    reference_fisher_blocks,
    small_dataset,
    square_blocks,
)


# -- fisher estimation ---------------------------------------------------------


def test_single_example_outer_product():
    rng = np.random.default_rng(0)
    model = init_mlp([2, 2], 0).with_params(rng.normal(size=6) * 0.3)
    data = small_dataset(rng, n=1, dim=2, classes=2)
    fisher = empirical_fisher_blockwise(model, data, lam=1e-3)
    g = per_example_grads(model, data)[0]
    for blk, (sl, _) in zip(square_blocks(fisher.fisher), fisher.layout.slices()):
        assert np.abs(blk - np.outer(g[sl], g[sl])).max() <= 1e-14


def test_two_example_average():
    rng = np.random.default_rng(1)
    model = init_mlp([2, 2], 1).with_params(rng.normal(size=6) * 0.3)
    data = small_dataset(rng, n=2, dim=2, classes=2)
    fisher = empirical_fisher_blockwise(model, data, lam=1e-3)
    g = per_example_grads(model, data)
    want = (np.outer(g[0], g[0]) + np.outer(g[1], g[1])) / 2.0
    for blk, (sl, _) in zip(square_blocks(fisher.fisher), fisher.layout.slices()):
        assert np.abs(blk - want[sl, sl]).max() <= 1e-13


def test_blocks_psd_and_damped_spd():
    rng = np.random.default_rng(2)
    model = init_mlp([4, 6, 3], 2)
    data = small_dataset(rng, n=40)
    fisher = empirical_fisher_blockwise(model, data, lam=1e-3, block_cap=16)
    for block in fisher.fisher.blocks:
        assert np.linalg.eigvalsh(block).min() >= -1e-10
        damped = reference_damp(block, fisher.lam)
        assert np.linalg.eigvalsh(damped).min() >= 1e-3 - 1e-10


def test_fisher_deterministic_and_subsample_order_invariant():
    rng = np.random.default_rng(3)
    model = init_mlp([4, 6, 3], 3)
    data = small_dataset(rng, n=50)
    a = empirical_fisher_blockwise(model, data, lam=1e-3, max_samples=20,
                                   seed=9)
    b = empirical_fisher_blockwise(model, data, lam=1e-3, max_samples=20,
                                   seed=9)
    assert all(np.array_equal(x, y)
               for x, y in zip(a.fisher.blocks, b.fisher.blocks))
    assert a.source_digest == b.source_digest


def test_fisher_empty_dataset_rejected():
    model = init_mlp([2, 2], 0)
    with pytest.raises(StructuralError):
        Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64),
                name="empty")


def test_grad_columns_labels_and_widths():
    model = init_mlp([60, 10, 2], 0)  # mlp.0.w has 600 coordinates
    data = small_dataset(np.random.default_rng(0), n=5, dim=60, classes=2)
    got = [(label, cols.shape) for label, cols in grad_columns(model, data, 256)]
    assert got == [
        ("mlp.0.w/part0", (5, 256)),
        ("mlp.0.w/part1", (5, 256)),
        ("mlp.0.w/part2", (5, 88)),
        ("mlp.0.b", (5, 10)),
        ("mlp.1.w", (5, 20)),
        ("mlp.1.b", (5, 2)),
    ]


def test_grad_columns_rejects_cap_below_one():
    model = init_mlp([3, 4, 2], 0)
    data = small_dataset(np.random.default_rng(7), n=5, dim=3, classes=2)
    for cap in (0, -3):
        with pytest.raises(ValueError):
            list(grad_columns(model, data, cap))
        with pytest.raises(ValueError):
            empirical_fisher_blockwise(model, data, block_cap=cap)


@settings(max_examples=examples(60), deadline=None)
@given(
    dims=st.lists(st.integers(1, 9), min_size=3, max_size=5),
    n=st.integers(1, 40),
    cap=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_blockwise_fisher_bit_exact_against_nxd_oracle(dims, n, cap, seed):
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, 0)
    model = model.with_params(rng.normal(size=model.dim))
    data = small_dataset(rng, n=n, dim=dims[0], classes=dims[-1])
    fisher = empirical_fisher_blockwise(model, data, block_cap=cap, seed=seed)
    layout = reference_curvature_layout(model.params.layout, cap)
    assert fisher.layout == layout
    want = reference_fisher_blocks(model, data, layout, seed=seed)
    assert len(fisher.fisher.blocks) == len(want)
    for got, ref in zip(fisher.fisher.blocks, want):
        assert np.array_equal(got, ref)
    # blocks may start mid-row; filled column by column they still give
    # the per-example gradient matrix exactly
    filled = np.empty((n, model.dim))
    for (sl, _), (_, cols) in zip(layout.slices(),
                                  grad_columns(model, data, cap)):
        filled[:, sl] = cols
    assert np.array_equal(filled, per_example_grads(model, data))


def test_block_former_in_a_used_buffer_is_bit_equal():
    """A block formed into a buffer that holds another block's entries, as
    a map's reused buffer does, has the bits of one formed into zeros, at
    caps that give blocks of one column, mid-row parts and whole layers."""
    rng = np.random.default_rng(0)
    model = init_mlp([4, 6, 3], 0)
    data = small_dataset(rng, n=9)
    for cap in (1, 5, 16):
        fisher = empirical_fisher_blockwise(model, data, block_cap=cap)
        block = block_former(fisher.recipe.blocks(), len(fisher.recipe.rows))
        for i, (_, size, _) in enumerate(fisher.layout.blocks):
            used = rng.normal(size=(size, size))
            assert (block(i, used).tobytes()
                    == block(i, np.zeros((size, size))).tobytes())


def test_fisher_memory_excludes_nxd_gradient_matrix():
    # staged-wide's shape: an n x d gradient matrix would be 190 MB and the
    # Fisher 86.5 MB; a walk over the estimate may hold a few cap-wide
    # column blocks and the block in hand, never the whole Fisher
    rng = np.random.default_rng(8)
    model = init_mlp([32, 256, 128, 8], 0)
    data = small_dataset(rng, n=560, dim=32, classes=8)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fisher = empirical_fisher_blockwise(model, data, block_cap=512)
        fisher_bytes = sum(b.nbytes for b in fisher.fisher.blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fisher_bytes > 80 * 2**20
    assert peak <= 32 * 2**20


# -- diagonal proxy --------------------------------------------------------------


@settings(max_examples=examples(60), deadline=None)
@given(
    dims=st.lists(st.integers(1, 9), min_size=3, max_size=5),
    n=st.integers(1, 40),
    max_samples=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_diag_bit_exact_against_nxd_oracle(dims, n, max_samples, seed):
    # widths of 1 give n x 1 gradient columns, which numpy sums pairwise
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, 0)
    model = model.with_params(rng.normal(size=model.dim))
    data = small_dataset(rng, n=n, dim=dims[0], classes=dims[-1])
    got = diag_curvature(model, data, max_samples=max_samples, seed=seed).diag
    want = reference_diag_curvature(model, data, max_samples, seed)
    assert got.tobytes() == want.tobytes()


def test_diag_bit_exact_on_capped_blocks():
    # each 257-wide block is split at 256 into a part that ends mid-row
    # and a 1-wide part, which numpy would sum pairwise
    rng = np.random.default_rng(8)
    model = init_mlp([1, 257, 1, 3], 7)
    model = model.with_params(rng.normal(size=model.dim))
    data = small_dataset(rng, n=300, dim=1, classes=3)
    got = diag_curvature(model, data, seed=3).diag
    assert got.tobytes() == reference_diag_curvature(model, data, seed=3).tobytes()


def test_diag_keeps_no_cumsum_alive():
    # each block's column sums are copied out of its n x s cumsum, so the
    # 150 x 42,376 cumsums (51 MB) are never alive together
    rng = np.random.default_rng(9)
    model = init_mlp([32, 256, 128, 8], 0)
    data = small_dataset(rng, n=150, dim=32, classes=8)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = diag_curvature(model, data).diag
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sub, _ = _subsample(data, DEFAULT_MAX_SAMPLES, 0)
    want = np.concatenate([np.cumsum(cols**2, axis=0)[-1]
                           for _, cols in grad_columns(model, sub, 256)])
    assert got.tobytes() == (want / len(sub)).tobytes()
    assert peak < 8 * 2**20


def test_diag_single_example():
    rng = np.random.default_rng(4)
    model = init_mlp([3, 4, 2], 4)
    data = small_dataset(rng, n=1, dim=3, classes=2)
    g = per_example_grads(model, data)[0]
    c = diag_curvature(model, data)
    assert np.abs(c.diag - g**2).max() <= 1e-14


def test_diag_matches_blockwise_diagonal():
    rng = np.random.default_rng(5)
    model = init_mlp([3, 4, 2], 5)
    data = small_dataset(rng, n=25, dim=3, classes=2)
    fisher = empirical_fisher_blockwise(model, data, lam=1e-3,
                                        max_samples=1024, seed=0)
    c = diag_curvature(model, data, seed=0)
    assert np.abs(np.diag(dense(fisher.fisher)) - c.diag).max() <= 1e-12


def test_diag_zero_for_zero_gradient_model():
    # one-class problem: loss identically zero, so gradients vanish
    rng = np.random.default_rng(6)
    model = init_mlp([3, 4, 1], 6)
    data = small_dataset(rng, n=5, dim=3, classes=1)
    c = diag_curvature(model, data)
    assert np.abs(c.diag).max() <= 1e-14
