import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from veriforget.curvature import DiagCurvature
from veriforget.masking import (
    MaskArtifact,
    SaliencyScores,
    _ranges_from_indexset,
    hidden_weight_eligible,
    make_mask,
    saliency_drift_report,
    saliency_scores,
    select_topk,
)
from veriforget.model import mlp_layout
from veriforget.numkit import ParamVector, StructuralError


def scores_from(values):
    v = np.asarray(values, dtype=np.float64)
    return SaliencyScores(scores=v)


def all_eligible(d):
    return np.arange(d, dtype=np.int64)


# -- saliency ------------------------------------------------------------------


def pv(values):
    from veriforget.numkit import BlockLayout
    v = np.asarray(values, dtype=np.float64)
    return ParamVector(values=v,
                       layout=BlockLayout.from_sizes([(v.size, "b")]))


def test_saliency_zero_theta():
    theta = pv([0.0, 0.0, 0.0])
    g = pv([1.0, -2.0, 3.0])
    c = DiagCurvature(diag=np.array([1.0, 1.0, 1.0]))
    s = saliency_scores(theta, g, c)
    assert (s.scores == 0).all()


def test_saliency_hand_case():
    theta = pv([0.5, 1.0])
    g = pv([1.0, -2.0])
    c = DiagCurvature(diag=np.array([2.0, 4.0]))
    s = saliency_scores(theta, g, c)
    assert np.abs(s.scores - np.array([-0.25, 4.0])).max() <= 1e-15


def test_saliency_curvature_off_limit():
    rng = np.random.default_rng(0)
    theta = pv(rng.normal(size=6))
    g = pv(rng.normal(size=6))
    c = DiagCurvature(diag=np.zeros(6))
    s = saliency_scores(theta, g, c)
    assert np.abs(s.scores + g.values * theta.values).max() <= 1e-15


def test_saliency_length_mismatch():
    with pytest.raises(StructuralError):
        saliency_scores(pv([1.0, 2.0]), pv([1.0]),
                        DiagCurvature(diag=np.zeros(2)))


# -- top-k selection --------------------------------------------------------------


def test_topk_empty():
    s = scores_from([1.0, 2.0, 3.0])
    m = select_topk(s, 0, all_eligible(3))
    assert m.support.size == 0
    assert m.budget == 0


def test_topk_full_eligible():
    s = scores_from([1.0, 2.0, 3.0, 4.0])
    elig = np.array([1, 3], dtype=np.int64)
    m = select_topk(s, 2, elig)
    assert m.support.tolist() == [1, 3]


def test_topk_tie_breaks_to_lower_index():
    s = scores_from([-0.25, 4.0, 4.0, 1.0])
    m = select_topk(s, 2, all_eligible(4))
    assert m.support.tolist() == [1, 2]


def test_topk_budget_exceeds_eligible():
    s = scores_from([1.0, 2.0])
    with pytest.raises(ValueError):
        select_topk(s, 3, all_eligible(2))


def test_topk_brute_force_oracle():
    rng = np.random.default_rng(1)
    for trial in range(30):
        d = int(rng.integers(4, 17))
        scores = np.round(rng.normal(size=d), 3)  # rounding induces ties
        k = int(rng.integers(1, d))
        m = select_topk(scores_from(scores), k, all_eligible(d))
        best = max(itertools.combinations(range(d), k),
                   key=lambda sub: sum(scores[list(sub)]))
        assert sum(scores[m.support]) == pytest.approx(
            sum(scores[list(best)]), abs=1e-12
        )


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=20),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_topk_positive_scaling_invariance(vals, c):
    # a positive scaling never reverses two scores in floating point, but
    # it can round two of them to one value (-5e-324 * 0.5 is -0.0, equal
    # to 0.0); the property holds for the scalings that create no tie
    scores = np.asarray(vals)
    assume(np.unique(scores * c).size == np.unique(scores).size)
    k = len(vals) // 2
    a = select_topk(scores_from(scores), k, all_eligible(len(vals)))
    b = select_topk(scores_from(scores * c), k, all_eligible(len(vals)))
    assert a.support.tolist() == b.support.tolist()


def test_topk_scaling_underflow_tie_breaks_to_lower_index():
    scores = np.array([-5e-324, 0.0])
    scaled = scores * 0.5
    assert scaled[0] == scaled[1] == 0.0
    for s, top in ((scores, [1]), (scaled, [0])):
        assert select_topk(scores_from(s), 1, all_eligible(2)).support.tolist() == top


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=999))
def test_topk_budget_property(k, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=12)
    m = select_topk(scores_from(scores), k, all_eligible(12))
    assert m.support.size == k == m.budget
    assert np.isin(m.support, all_eligible(12)).all()


# -- mask artifact ------------------------------------------------------------------


def test_mask_digest_binds_contents():
    elig = all_eligible(10)
    a = make_mask(10, 2, elig, np.array([1, 4], dtype=np.int64))
    b = make_mask(10, 2, elig, np.array([1, 5], dtype=np.int64))
    assert a.digest != b.digest


def test_mask_rejects_support_outside_eligible():
    elig = np.array([0, 1, 2], dtype=np.int64)
    with pytest.raises(StructuralError):
        make_mask(10, 1, elig, np.array([7], dtype=np.int64))


def test_mask_rejects_unsorted_support():
    with pytest.raises(StructuralError):
        MaskArtifact(
            support=np.array([4, 1], dtype=np.int64),
            budget=2,
            model_dim=10,
            eligible=all_eligible(10),
            digest="x",
        )


def test_mask_json_round_trip():
    m = make_mask(10, 2, all_eligible(10), np.array([3, 7], dtype=np.int64))
    m2 = MaskArtifact.from_json(m.to_json())
    assert m2.support.tolist() == m.support.tolist()
    assert m2.digest == m.digest


def test_mask_json_rejects_tampered_digest():
    m = make_mask(10, 2, all_eligible(10), np.array([3, 7], dtype=np.int64))
    obj = m.to_json()
    obj["support"] = [3, 8]
    with pytest.raises(StructuralError):
        MaskArtifact.from_json(obj)


def reference_ranges(indices):
    """Oracle: the [lo, hi) runs of a sorted index set, one index at a time."""
    ranges = []
    for i in indices:
        i = int(i)
        if ranges and ranges[-1][1] == i:
            ranges[-1][1] = i + 1
        else:
            ranges.append([i, i + 1])
    return ranges


@given(st.one_of(
    st.just(frozenset()),
    st.builds(lambda lo, n: frozenset(range(lo, lo + n)),
              st.integers(0, 2**40), st.integers(1, 50)),
    st.frozensets(st.integers(0, 2**62), max_size=60),
    st.frozensets(st.integers(0, 80), max_size=60),
))
@example(frozenset())
@example(frozenset(range(5, 9)))
def test_ranges_match_the_loop_oracle(indices):
    arr = np.array(sorted(indices), dtype=np.int64)
    got = _ranges_from_indexset(arr)
    assert got == reference_ranges(arr)
    assert all(type(x) is int for r in got for x in r)


def test_indicator():
    m = make_mask(5, 2, all_eligible(5), np.array([0, 3], dtype=np.int64))
    assert m.indicator().tolist() == [1, 0, 0, 1, 0]


# -- eligibility / drift ----------------------------------------------------------------


def test_hidden_weight_eligible_excludes_bias_and_output():
    layout = mlp_layout([8, 32, 4])
    elig = hidden_weight_eligible(layout)
    w0 = layout.block_slice("mlp.0.w")
    assert elig.min() >= w0.start and elig.max() < w0.stop
    assert elig.size == 8 * 32


def test_hidden_weight_eligible_two_hidden():
    layout = mlp_layout([8, 16, 16, 4])
    elig = hidden_weight_eligible(layout)
    assert elig.size == 8 * 16 + 16 * 16


def test_drift_identical_scores():
    s = scores_from(np.arange(10.0))
    rep = saliency_drift_report(s, s, 3)
    assert rep["topk_overlap"] == 1.0
    assert rep["max_score_diff"] == 0.0


def test_drift_disjoint_topk():
    s0 = scores_from([9.0, 8.0, 0.0, 0.0])
    sp = scores_from([0.0, 0.0, 9.0, 8.0])
    rep = saliency_drift_report(s0, sp, 2)
    assert rep["topk_overlap"] == 0.0
