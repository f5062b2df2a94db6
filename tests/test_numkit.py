import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from veriforget import numkit
from veriforget.numkit import (
    BlockLayout,
    BlockStream,
    NumericError,
    ParamVector,
    StructuralError,
    canonical_json,
    check_block,
    fork_blocks,
    fork_map,
    quantize,
    tree_sum,
    triangle_entries,
)

from conftest import block_matrix, report_cpus


def single_block_layout(d, label="b"):
    return BlockLayout.from_sizes([(d, label)])


# -- layouts ------------------------------------------------------------------


def test_layout_partition():
    layout = BlockLayout.from_sizes([(3, "a"), (5, "b"), (2, "c")])
    covered = []
    for sl, _ in layout.slices():
        covered.extend(range(sl.start, sl.stop))
    assert covered == list(range(10))
    assert layout.total_dim == 10


def test_layout_gap_rejected():
    with pytest.raises(StructuralError):
        BlockLayout(blocks=((0, 3, "a"), (4, 2, "b")), total_dim=6)


def test_layout_duplicate_label_rejected():
    with pytest.raises(StructuralError):
        BlockLayout.from_sizes([(2, "a"), (3, "a")])


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
def test_layout_partition_property(sizes):
    layout = BlockLayout.from_sizes((s, f"b{i}") for i, s in enumerate(sizes))
    seen = np.zeros(layout.total_dim, dtype=int)
    for sl, _ in layout.slices():
        seen[sl] += 1
    assert (seen == 1).all()


# -- vectors / matrices ---------------------------------------------------------


def test_paramvector_rejects_nan():
    layout = single_block_layout(2)
    with pytest.raises(StructuralError):
        ParamVector(values=np.array([1.0, np.nan]), layout=layout)


def test_paramvector_immutable():
    v = ParamVector(values=np.ones(2), layout=single_block_layout(2))
    with pytest.raises(ValueError):
        v.values[0] = 2.0


def test_blockdiag_holds_symmetric_squares():
    layout = single_block_layout(2, "b0")
    square = np.array([[0.0, 1.0], [1.0, 2.0]])
    mat = block_matrix((square,), layout)
    assert mat.layout == layout
    assert [block.tolist() for block in mat.blocks] == [square.tolist()]
    # an asymmetric square, the packed triangle of a symmetric one, a
    # square of another size and squares with a NaN or an inf are refused,
    # naming the block, where a walk reaches them
    for bad in (np.array([[1.0, 2.0], [0.0, 1.0]]),
                square[np.triu_indices(len(square))],
                np.eye(3), np.array([[1.0, np.nan], [np.nan, 1.0]]),
                np.array([[np.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(StructuralError, match="block 'b0'"):
            list(block_matrix((bad,), layout).blocks)


# -- forked workers --------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fork_map_returns_in_order_what_fn_returns(monkeypatch, cpus):
    report_cpus(monkeypatch, cpus)
    scale = np.arange(3.0)  # a closure, which a pickling pool could not send
    got = fork_map(lambda i: (i, os.getpid(), scale * i), 7)
    assert [i for i, _, _ in got] == list(range(7))
    assert all(np.array_equal(v, scale * i) for i, _, v in got)
    pids = {pid for _, pid, _ in got}
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= cpus
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fork_map_raises_the_first_exception_in_index_order(monkeypatch, cpus):
    """Indices 3 and 6 fail, in different workers when there are two or
    three; index 3's exception reaches the caller with its type."""
    report_cpus(monkeypatch, cpus)

    def fn(i):
        if i in (3, 6):
            raise KeyError(i)
        return i

    with pytest.raises(KeyError) as caught:
        fork_map(fn, 8)
    assert caught.value.args == (3,)
    assert multiprocessing.active_children() == []


def test_fork_map_raises_without_waiting_for_later_indices(monkeypatch):
    """Index 0 fails at once while every other index sleeps a minute:
    index 0's exception reaches the caller without waiting for them, and
    the sleeping worker is gone."""
    report_cpus(monkeypatch, 2)

    def fn(i):
        if i == 0:
            raise KeyError(i)
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyError) as caught:
        fork_map(fn, 4)
    assert caught.value.args == (0,)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_fork_map_keeps_writes_in_the_worker(monkeypatch):
    report_cpus(monkeypatch, 2)
    seen = []
    assert fork_map(lambda i: seen.append(i) or len(seen), 4) == [1, 1, 2, 2]
    assert seen == []


def _counting_stream(sizes, nan_at=None):
    """A stream whose block i is the square of sizes[i], filled with i,
    and NaN at block ``nan_at``."""
    layout = BlockLayout.from_sizes((s, f"b{i}") for i, s in enumerate(sizes))

    def block(i, out):
        out.fill(np.nan if i == nan_at else i)
        return out

    return BlockStream(lambda: block, layout)


@pytest.mark.parametrize("cpus, threshold, blas_threads, in_parent", [
    # 2^20 stands for any threshold above the 10 entries
    (1, 0, "1", True), (2, 2**20, "1", True),
    (2, 0, "1", False), (3, 1, "1", False), (2, 0, "2", True),
    (2, 0, None, True),
])
def test_block_map_forks_from_the_threshold(monkeypatch, cpus, threshold,
                                            blas_threads, in_parent):
    """Blocks of sizes 1, 2 and 3 cost triangle_entries(1) + (2) + (3) =
    1 + 3 + 6 entries, ``fork_blocks``'s one cost measure: they fork when
    that sum reaches the threshold, more than one CPU is there and BLAS
    runs one thread, and fn gets each index with the state ``ready``
    gave, in order."""
    assert [triangle_entries(s) for s in (1, 2, 3)] == [1, 3, 6]
    report_cpus(monkeypatch, cpus)
    monkeypatch.setattr(numkit, "FORK_MIN_ENTRIES", threshold)
    if blas_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    got = fork_blocks(lambda: "ready", lambda state, i: (os.getpid(), state, i),
                      range(3), [triangle_entries(s) for s in (1, 2, 3)])
    assert [(state, i) for _, state, i in got] == [("ready", i) for i in range(3)]
    assert ({pid for pid, _, _ in got} == {os.getpid()}) == in_parent
    assert multiprocessing.active_children() == []


def test_block_map_forms_only_the_blocks_asked_for(workers):
    """fork_blocks gives fn the indices asked for, in the order asked;
    ``ready`` is run by the process that takes them: a forked worker's,
    never this one's."""
    readied = []

    def ready():
        readied.append(os.getpid())
        return lambda i: np.full((2, 2), float(i))

    got = fork_blocks(ready, lambda block, i: (i, block(i).tolist()),
                      (3, 1, 4), [triangle_entries(2)] * 3)
    assert got == [(i, [[float(i)] * 2] * 2) for i in (3, 1, 4)]
    assert fork_blocks(ready, lambda block, i: i, (), []) == []
    assert readied == ([os.getpid()] if workers == "in_process" else [])


def test_block_map_and_walk_check_each_block(workers):
    """A pass through ``fork_blocks`` that checks each block it forms
    (``check_block``, as the solves in ``obs`` do), in-process or forked,
    and a walk both refuse block b1's NaN, naming it."""
    stream = _counting_stream([2, 2, 2], nan_at=1)
    blocks = stream.layout.blocks

    def ready():
        return lambda i, out: out.fill(np.nan if i == 1 else i) or out

    def check(block, i):
        _, size, label = blocks[i]
        return check_block(block(i, np.empty((size, size))), size, label)

    with pytest.raises(StructuralError, match="block 'b1' has non-finite"):
        fork_blocks(ready, check, range(3), [triangle_entries(2)] * 3)
    with pytest.raises(StructuralError, match="block 'b1' has non-finite"):
        list(stream)


# -- fixed point -----------------------------------------------------------------


def test_quantize_zero_vector():
    ints = quantize(np.zeros(5), 8, 1.0)
    assert ints.dtype == np.int64
    assert (ints == 0).all()


def test_quantize_dyadic_exact():
    ints = quantize(np.array([1.0]), 4, 2.0)
    assert ints[0] == 16
    assert ints[0] * 2.0**-4 == 1.0


def test_quantize_out_of_range_names_index():
    for bad in (3.0, np.nan):
        with pytest.raises(NumericError, match=r"x\[2\]"):
            quantize(np.array([0.0, 0.5, bad]), 8, 1.0)


def test_round_half_even():
    # 0.5 * 2^1 = 1.0 rounds to 0 under half-even at frac_bits=0... use
    # explicit midpoints at frac_bits=1: 0.25 -> int 0.5 -> rounds to 0,
    # 0.75 -> int 1.5 -> rounds to 2
    assert quantize(np.array([0.25, 0.75]), 1, 2.0).tolist() == [0, 2]


def test_round_trip_bound_exhaustive():
    rng = np.random.default_rng(4)
    x = rng.uniform(-8.0, 8.0, size=10_000)
    ints = quantize(x, 24, 8.0)
    assert np.abs(ints * 2.0**-24 - x).max() <= 2.0**-25


@given(
    st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=30),
)
def test_round_trip_property(xs, f):
    x = np.array(xs)
    ints = quantize(x, f, 4.0)
    assert np.abs(ints * 2.0**-f - x).max() <= 2.0 ** (-f - 1)


def test_codec_dequantize_pair():
    layout = single_block_layout(3)
    v = ParamVector(values=np.array([0.5, -0.25, 1.0]), layout=layout)
    ints = quantize(v.values, 10, 2.0)
    back = v.with_values(ints * 2.0**-10)
    assert np.array_equal(back.values, v.values)


def test_frac_bits_cap():
    with pytest.raises(ValueError):
        quantize(np.zeros(1), 41, 1.0)


# -- reductions / io ----------------------------------------------------------------


def test_tree_sum_deterministic():
    rng = np.random.default_rng(5)
    a = rng.normal(size=5000)
    s1 = tree_sum(a)
    s2 = tree_sum(a.copy())
    assert s1 == s2


def test_tree_sum_matches_exact():
    rng = np.random.default_rng(6)
    a = rng.normal(size=3000)
    assert abs(tree_sum(a) - np.sum(a, dtype=np.longdouble)) < 1e-10


def test_canonical_json_stable():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
