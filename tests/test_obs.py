import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from veriforget import numkit, obs
from veriforget.certify import check_kkt
from veriforget.curvature import BlockFisher, empirical_fisher_blockwise
from veriforget.masking import make_mask
from veriforget.model import init_mlp
from veriforget.numkit import (
    BlockLayout,
    NumericError,
    ParamVector,
    touched,
    triangle_entries,
)
from veriforget.obs import apply_unlearn, group_obs_solve, sample_space
from veriforget.pipeline import demo_config, run_pipeline

from conftest import (
    examples,
    block_matrix,
    damped,
    dense,
    dense_kkt_solve,
    dense_oracle,
    random_fisher,
    random_instance,
    random_mask,
    random_spd_blockdiag,
    reference_fisher_squares,
    reference_group_obs_solve,
    report_cpus,
    small_dataset,
)


def identity_fisher(layout, lam=0.0):
    # F = I - lam*I so that the damped matrix F + lam*I is exactly I
    blocks = tuple(
        (1.0 - lam) * np.eye(s) for _, s, _ in layout.blocks
    )
    return BlockFisher(
        fisher=block_matrix(blocks, layout),
        lam=lam if lam > 0 else 1e-12,
        sample_count=1,
        source_digest="t",
    )


# -- hand and trivial cases ------------------------------------------------------


def test_identity_curvature_collapses():
    layout = BlockLayout.from_sizes([(5, "b")])
    fisher = identity_fisher(layout, lam=1e-12)
    theta = ParamVector(values=np.array([1.0, -2.0, 3.0, 0.5, 4.0]),
                        layout=layout)
    mask = make_mask(5, 2, np.arange(5, dtype=np.int64),
                     np.array([1, 3], dtype=np.int64))
    comp = group_obs_solve(fisher, theta, mask)
    want = np.zeros(5)
    want[[1, 3]] = -theta.values[[1, 3]]
    assert np.abs(comp.delta_w.values - want).max() <= 1e-9
    assert np.abs(comp.multipliers - theta.values[[1, 3]]).max() <= 1e-9


def test_empty_mask():
    layout = BlockLayout.from_sizes([(4, "b")])
    rng = np.random.default_rng(0)
    fisher = random_fisher(rng, layout)
    theta = ParamVector(values=rng.normal(size=4), layout=layout)
    mask = make_mask(4, 0, np.arange(4, dtype=np.int64),
                     np.zeros(0, dtype=np.int64))
    comp = group_obs_solve(fisher, theta, mask)
    assert (comp.delta_w.values == 0).all()
    assert comp.multipliers.size == 0
    theta_u = apply_unlearn(theta, comp, mask)
    assert np.array_equal(theta_u.values, theta.values)


def test_hand_2x2_kkt():
    layout = BlockLayout.from_sizes([(2, "b")])
    c = np.array([[2.0, 1.0], [1.0, 2.0]])
    fisher = BlockFisher(
        fisher=block_matrix([c - 1e-9 * np.eye(2)], layout),
        lam=1e-9, sample_count=1, source_digest="t",
    )
    theta = ParamVector(values=np.array([1.0, 1.0]), layout=layout)
    mask = make_mask(2, 1, np.arange(2, dtype=np.int64),
                     np.array([0], dtype=np.int64))
    comp = group_obs_solve(fisher, theta, mask)
    assert np.abs(comp.delta_w.values - np.array([-1.0, 0.5])).max() <= 1e-8
    assert abs(comp.multipliers[0] - 1.5) <= 1e-8
    # stationarity: C dw + E lam = 0
    resid = c @ comp.delta_w.values
    resid[0] += comp.multipliers[0]
    assert np.abs(resid).max() <= 1e-8
    theta_u = apply_unlearn(theta, comp, mask)
    assert np.abs(theta_u.values - np.array([0.0, 1.5])).max() <= 1e-8
    assert theta_u.values[0] == 0.0


# -- oracle equivalence ------------------------------------------------------------


def test_schur_matches_dense_oracle_random():
    rng = np.random.default_rng(1)
    for trial in range(25):
        fisher, theta, mask = random_instance(rng)
        comp = group_obs_solve(fisher, theta, mask)
        dw_o, lam_o = dense_oracle(fisher, theta, mask)
        scale = max(np.abs(dw_o).max(), 1e-12)
        assert np.abs(comp.delta_w.values - dw_o).max() / scale <= 1e-8
        lscale = max(np.abs(lam_o).max(), 1e-12)
        assert np.abs(comp.multipliers - lam_o).max() / lscale <= 1e-8


def test_large_block_matches_dense_oracle():
    # larger than any block --block-cap produces (at most 512)
    rng = np.random.default_rng(2)
    layout = BlockLayout.from_sizes([(600, "b")])
    fisher = BlockFisher(
        fisher=random_spd_blockdiag(rng, layout, damping=0.5),
        lam=1e-3, sample_count=1, source_digest="t",
    )
    theta = ParamVector(values=rng.normal(size=600), layout=layout)
    mask = random_mask(rng, layout, 40)
    comp = group_obs_solve(fisher, theta, mask)
    assert comp.method == "schur"
    dw_o, lam_o = dense_kkt_solve(
        dense(damped(fisher)), theta.values, mask.support
    )
    scale = max(np.abs(dw_o).max(), 1e-12)
    assert np.abs(comp.delta_w.values - dw_o).max() / scale <= 1e-8
    lscale = max(np.abs(lam_o).max(), 1e-12)
    assert np.abs(comp.multipliers - lam_o).max() / lscale <= 1e-8


def test_package_dense_oracle_agrees_with_local():
    rng = np.random.default_rng(3)
    fisher, theta, mask = random_instance(rng)
    dw_a, lam_a = dense_kkt_solve(
        dense(damped(fisher)), theta.values, mask.support
    )
    dw_b, lam_b = dense_oracle(fisher, theta, mask)
    assert np.abs(dw_a - dw_b).max() <= 1e-10
    assert np.abs(lam_a - lam_b).max() <= 1e-10


# -- optimality and feasibility -------------------------------------------------------


def test_optimality_vs_random_feasible_alternatives():
    rng = np.random.default_rng(4)
    for trial in range(5):
        fisher, theta, mask = random_instance(rng)
        comp = group_obs_solve(fisher, theta, mask)
        c = dense(damped(fisher))
        dw = comp.delta_w.values
        obj_star = 0.5 * dw @ c @ dw
        for _ in range(200):
            alt = rng.normal(size=theta.dim)
            alt[mask.support] = -theta.values[mask.support]
            assert obj_star <= 0.5 * alt @ c @ alt + 1e-12


def test_feasibility_bit_exact():
    rng = np.random.default_rng(5)
    for trial in range(20):
        fisher, theta, mask = random_instance(rng)
        comp = group_obs_solve(fisher, theta, mask)
        theta_u = apply_unlearn(theta, comp, mask)
        assert (theta_u.values[mask.support] == 0.0).all()


def test_compensation_never_worse_than_mask_only():
    rng = np.random.default_rng(6)
    for trial in range(10):
        fisher, theta, mask = random_instance(rng)
        comp = group_obs_solve(fisher, theta, mask)
        c = dense(damped(fisher))
        dw = comp.delta_w.values
        dw_m = np.zeros(theta.dim)
        dw_m[mask.support] = -theta.values[mask.support]
        assert 0.5 * dw @ c @ dw <= 0.5 * dw_m @ c @ dw_m + 1e-12


def test_apply_unlearn_rejects_large_residue():
    layout = BlockLayout.from_sizes([(3, "b")])
    rng = np.random.default_rng(7)
    fisher = random_fisher(rng, layout)
    theta = ParamVector(values=np.array([1.0, 2.0, 3.0]), layout=layout)
    mask = make_mask(3, 1, np.arange(3, dtype=np.int64),
                     np.array([0], dtype=np.int64))
    comp = group_obs_solve(fisher, theta, mask)
    bad = comp.delta_w.values.copy()
    bad[0] += 1e-6  # breaks delta_w[0] = -theta[0]
    from veriforget.obs import CompensationResult
    tampered = CompensationResult(
        delta_w=theta.with_values(bad),
        multipliers=comp.multipliers,
        method=comp.method,
    )
    with pytest.raises(NumericError, match="compensation infeasible"):
        apply_unlearn(theta, tampered, mask)


def test_non_spd_block_named():
    layout = BlockLayout.from_sizes([(2, "good"), (2, "bad")])
    fisher = BlockFisher(
        fisher=block_matrix([np.eye(2), np.diag([1.0, -1.0])], layout),
        lam=1e-3, sample_count=1, source_digest="t",
    )
    theta = ParamVector(values=np.ones(4), layout=layout)
    mask = make_mask(4, 2, np.arange(4, dtype=np.int64),
                     np.array([0, 2], dtype=np.int64))
    with pytest.raises(NumericError, match="bad"):
        group_obs_solve(fisher, theta, mask)


def test_stationarity_residual_reported_small():
    rng = np.random.default_rng(8)
    fisher, theta, mask = random_instance(rng)
    comp = group_obs_solve(fisher, theta, mask)
    theta_u = apply_unlearn(theta, comp, mask)
    assert check_kkt(theta, theta_u, comp, fisher, mask).inf_norms[2] <= 1e-9


# -- formed blocks against the square-block oracle ---------------------------------


def _synthetic_case(dims, n, cap, max_samples, k):
    rng = np.random.default_rng(sum(dims) + n + cap)
    model = init_mlp(dims, 0)
    model = model.with_params(rng.normal(size=model.dim))
    data = small_dataset(rng, n=n, dim=dims[0], classes=dims[-1])
    mask = random_mask(rng, model.params.layout, k)
    return model, data, cap, max_samples, mask


def _demo_case():
    r = run_pipeline(7, demo_config(run_zk=False, run_gold=False))
    return r.theta_p, r.task.personal, 256, 1024, r.mask


TRIANGLE_CASES = {
    # mlp.0.b is one coordinate wide: its gradient column is n x 1
    "one-column-block": lambda: _synthetic_case((3, 1, 2), 30, 256, 1024, 4),
    # mlp.0.w has 5 rows of 7: parts of 10 start mid-row
    "part-starts-mid-row": lambda: _synthetic_case((5, 7, 3), 40, 10, 1024, 12),
    "cap-above-every-block": lambda: _synthetic_case((4, 6, 3), 25, 1000, 1024, 9),
    "max-samples-below-n": lambda: _synthetic_case((4, 6, 3), 50, 8, 20, 9),
    "demo": _demo_case,
}


def _triangle_case(case):
    model, data, cap, max_samples, mask = TRIANGLE_CASES[case]()
    fisher = empirical_fisher_blockwise(model, data, block_cap=cap,
                                        max_samples=max_samples, seed=7)
    return model, data, cap, max_samples, mask, fisher


@pytest.mark.parametrize("case", list(TRIANGLE_CASES))
def test_triangle_path_bit_identical_to_square_path(case):
    """The Fisher's blocks, formed in place, are the symmetrized square
    oracle's, byte for byte."""
    model, data, cap, max_samples, _, fisher = _triangle_case(case)
    want = reference_fisher_squares(model, data, cap, max_samples, seed=7)
    assert [t.tobytes() for t in fisher.fisher.blocks] == [
        t.tobytes() for t in want]


@pytest.mark.parametrize("case", list(TRIANGLE_CASES))
def test_elimination_solve_matches_square_path(case):
    """The elimination solve sums in another order than the square path's
    Schur-complement solve: it sets dw_M = -theta_M exactly, agrees with
    that solve to 1e-12 relative, and leaves a stationarity residual no
    larger than 1e-15."""
    model, _, _, _, mask, fisher = _triangle_case(case)
    theta = model.params
    comp = group_obs_solve(fisher, theta, mask)
    dw_m = comp.delta_w.values[mask.support]
    assert dw_m.tobytes() == (-theta.values[mask.support]).tobytes()
    dw, lam = reference_group_obs_solve(fisher, theta, mask)
    assert np.abs(comp.delta_w.values - dw).max() <= 1e-12 * np.abs(dw).max()
    assert np.abs(comp.multipliers - lam).max() <= 1e-12 * np.abs(lam).max()
    theta_u = apply_unlearn(theta, comp, mask)
    cert = check_kkt(theta, theta_u, comp, fisher, mask)
    assert cert.inf_norms[2] <= 1e-15


_COVER = st.sampled_from(["none", "one", "some", "all"])


@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       blocks=st.lists(st.tuples(st.integers(1, 9), _COVER),
                       min_size=1, max_size=4))
def test_elimination_matches_dense_kkt(seed, blocks):
    """Per block, the mask covers none, one, some or all of its
    coordinates; a fully masked block eliminates an empty U."""
    rng = np.random.default_rng(seed)
    layout = BlockLayout.from_sizes(
        [(size, f"b{i}") for i, (size, _) in enumerate(blocks)])
    support = []
    for (sl, _), (size, cover) in zip(layout.slices(), blocks):
        count = {"none": 0, "one": 1, "all": size}.get(
            cover, int(rng.integers(1, size + 1)))
        support.extend(sl.start + rng.choice(size, size=count, replace=False))
    d = layout.total_dim
    mask = make_mask(d, len(support), np.arange(d, dtype=np.int64),
                     np.sort(np.array(support, dtype=np.int64)))
    fisher = random_fisher(rng, layout)
    theta = ParamVector(values=rng.normal(size=d), layout=layout)
    comp = group_obs_solve(fisher, theta, mask)
    dw_o, lam_o = dense_kkt_solve(dense(damped(fisher)), theta.values,
                                  mask.support)
    assert np.array_equal(comp.delta_w.values[mask.support],
                          -theta.values[mask.support])
    scale = max(np.abs(dw_o).max(), 1e-12)
    assert np.abs(comp.delta_w.values - dw_o).max() <= 1e-9 * scale
    lscale = max(np.abs(lam_o).max(initial=0.0), 1e-12)
    assert np.abs(comp.multipliers - lam_o).max(initial=0.0) <= 1e-9 * lscale


# -- the sample-space form ---------------------------------------------------------


def _solve_in(space, fisher, theta, mask):
    """group_obs_solve with every touched block solved in ``space``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obs, "SAMPLE_SPACE_RATIO",
                   math.inf if space == "sample" else 0.0)
        return group_obs_solve(fisher, theta, mask)


def test_sample_space_predicate():
    """Both benchmark shapes solve their touched weight parts in sample
    space; the staged chain at the default cap, or a Fisher over 1,024
    rows, in coordinate space."""
    assert sample_space(240, 256) and sample_space(560, 512)
    assert sample_space(320, 256) and not sample_space(321, 256)
    assert not sample_space(560, 256) and not sample_space(1024, 512)


@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(2, 4)),
       rows=st.integers(1, 40), cap=st.integers(2, 20),
       lam=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8]))
# parts of 7 of a 3 x 5 weight start mid-row; few rows, so n < u
@example(seed=0, dims=(3, 5, 3), rows=4, cap=7, lam=1e-8)
# every block fits the cap, biases included, and n = 40 > u
@example(seed=1, dims=(2, 3, 2), rows=40, cap=20, lam=1e-8)
def test_sample_space_matches_dense_oracle_and_coordinate_space(seed, dims,
                                                                rows, cap, lam):
    """On random models, rows, caps and masks, each touched block holding
    1 to s_b - 1 masked coordinates, the sample-space form agrees with the
    dense KKT oracle and with the coordinate-space form to within the
    forward-error bound 16 d eps lambda_max(C) / lam, relative: the
    damping sets the conditioning of both systems.  dw_M = -theta_M
    exactly, and the certificate passes."""
    rng = np.random.default_rng(seed)
    model = init_mlp(list(dims), seed % 1000)
    model = model.with_params(rng.normal(size=model.dim))
    data = small_dataset(rng, n=rows, dim=dims[0], classes=dims[-1])
    fisher = empirical_fisher_blockwise(model, data, lam=lam, block_cap=cap,
                                        max_samples=rows, seed=0)
    wide = [(o, s) for o, s, _ in fisher.layout.blocks if s >= 2]
    hit = [b for b in wide if rng.random() < 0.5] or [max(wide, key=lambda b: b[1])]
    support = np.sort(np.concatenate([
        o + rng.choice(s, size=int(rng.integers(1, s)), replace=False)
        for o, s in hit]))
    d, theta = model.dim, model.params
    mask = make_mask(d, support.size, np.arange(d), support)
    kappa = np.linalg.eigvalsh(dense(damped(fisher))).max() / lam
    tol = 16 * d * np.finfo(np.float64).eps * kappa
    dw_o, lam_o = dense_oracle(fisher, theta, mask)
    coordinate = _solve_in("coordinate", fisher, theta, mask)
    comp = _solve_in("sample", fisher, theta, mask)
    assert np.array_equal(comp.delta_w.values[support], -theta.values[support])
    for want in ((dw_o, lam_o),
                 (coordinate.delta_w.values, coordinate.multipliers)):
        for got, ref in zip((comp.delta_w.values, comp.multipliers), want):
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()
    theta_u = apply_unlearn(theta, comp, mask)
    assert check_kkt(theta, theta_u, comp, fisher, mask).verdict


def _sample_case():
    """A 6-12-8-3 model at cap 16 over 18 rows: its parts of 16 (those of
    mlp.0.w start mid-row) are solved in sample space, and its blocks of
    12, 8 and 3 in coordinate space."""
    rng = np.random.default_rng(9)
    model = init_mlp([6, 12, 8, 3], 0)
    model = model.with_params(0.5 * rng.normal(size=model.dim))
    data = small_dataset(rng, n=18, dim=6, classes=3)
    fisher = empirical_fisher_blockwise(model, data, block_cap=16,
                                        max_samples=18, seed=0)
    return model.params, fisher, rng


def _record_forks(monkeypatch):
    """The ``fork`` argument of every ``numkit.fork_map`` call, in order."""
    calls, real = [], numkit.fork_map
    monkeypatch.setattr(numkit, "fork_map", lambda fn, count, fork=True: (
        calls.append(fork) or real(fn, count, fork)))
    return calls


def test_sample_space_bytes_forked_as_in_process(monkeypatch):
    """delta_w and the multipliers are the same bytes from two forked
    workers as from one process, with blocks in both spaces touched."""
    theta, fisher, rng = _sample_case()
    mask = random_mask(rng, theta.layout, 30)
    sizes = [s for _, s, _ in fisher.layout.blocks]
    spaces = {sample_space(18, sizes[i]) for i in touched(sizes, mask.support)}
    assert spaces == {True, False}
    report_cpus(monkeypatch, 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    forks = _record_forks(monkeypatch)
    monkeypatch.setattr(numkit, "FORK_MIN_ENTRIES", 2**62)
    serial = group_obs_solve(fisher, theta, mask)
    monkeypatch.setattr(numkit, "FORK_MIN_ENTRIES", 0)
    forked = group_obs_solve(fisher, theta, mask)
    assert forks == [False, True]
    assert forked.delta_w.values.tobytes() == serial.delta_w.values.tobytes()
    assert forked.multipliers.tobytes() == serial.multipliers.tobytes()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("above, forks", [(0, True), (1, False)])
def test_solve_forks_on_the_entries_of_its_systems(monkeypatch, above, forks):
    """A block solved in sample space costs n(n+1)/2 entries, one in
    coordinate space s(s+1)/2; the solve forks from FORK_MIN_ENTRIES of
    their sum."""
    theta, fisher, _ = _sample_case()
    part = fisher.layout.block_slice("mlp.0.w/part1").start
    bias = fisher.layout.block_slice("mlp.0.b").start
    d = theta.dim
    mask = make_mask(d, 2, np.arange(d), np.array([part, bias]))
    report_cpus(monkeypatch, 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    calls = _record_forks(monkeypatch)
    monkeypatch.setattr(numkit, "FORK_MIN_ENTRIES",
                        triangle_entries(18) + triangle_entries(12) + above)
    group_obs_solve(fisher, theta, mask)
    assert calls == [forks]
