import numpy as np
import pytest
from hypothesis import given, strategies as st

from veriforget.numkit import (
    BlockDiagMatrix,
    BlockLayout,
    ParamVector,
    RangeError,
    StructuralError,
    canonical_json,
    quantize,
    tree_sum,
)


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


def test_layout_json_round_trip():
    layout = BlockLayout.from_sizes([(3, "x"), (4, "y")])
    assert BlockLayout.from_json(layout.to_json()) == layout


# -- vectors / matrices ---------------------------------------------------------


def test_paramvector_rejects_nan():
    layout = single_block_layout(2)
    with pytest.raises(StructuralError):
        ParamVector(values=np.array([1.0, np.nan]), layout=layout)


def test_paramvector_immutable():
    v = ParamVector(values=np.ones(2), layout=single_block_layout(2))
    with pytest.raises(ValueError):
        v.values[0] = 2.0


def test_blockdiag_rejects_asymmetric():
    layout = single_block_layout(2)
    with pytest.raises(StructuralError):
        BlockDiagMatrix(blocks=(np.array([[1.0, 2.0], [0.0, 1.0]]),),
                        layout=layout)


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
        with pytest.raises(RangeError, match=r"x\[2\]"):
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
