import tracemalloc

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from veriforget.certify import (
    _damped_products,
    check_kkt,
    exact_hessian,
    forget_gain_report,
    measured_forget_gap,
)
from veriforget.masking import make_mask
from veriforget.curvature import BlockFisher, empirical_fisher_blockwise
from veriforget.model import (
    TrainConfig,
    batch_grad,
    grad_columns,
    init_mlp,
    per_example_grads,
    train_sgd,
)
from veriforget.numkit import (
    BlockLayout,
    NumericError,
    ParamVector,
    StructuralError,
)
from veriforget.obs import CompensationResult, apply_unlearn, group_obs_solve

from conftest import (
    block_matrix,
    examples,
    held,
    quadratic_gain,
    random_instance,
    random_spd_block,
    reference_damp,
    small_dataset,
)


def honest_instance(seed):
    rng = np.random.default_rng(seed)
    fisher, theta, mask = random_instance(rng)
    comp = group_obs_solve(fisher, theta, mask)
    return fisher, theta, mask, comp, apply_unlearn(theta, comp, mask)


# -- kkt certificate ------------------------------------------------------------

# The factored and the block form of (F_b + lam I) v sum the same
# products in other orders.  Each rounds within gamma_k = k * eps of the
# sums of absolute values, |G|'(|G| |v|) / n + lam |v|, where k bounds
# the terms of any one sum: n + s + din + dout <= 2 * (n + d).  The bound
# is fixed from float64's epsilon, plus a subnormal per term for
# products that underflow.
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


@settings(max_examples=examples(60), deadline=None)
@given(
    dims=st.lists(st.integers(1, 9), min_size=3, max_size=4),
    n=st.integers(1, 30),
    cap=st.integers(1, 12),
    lam=st.floats(1e-6, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
# parts of 10 of a 5 x 7 weight start mid-row, and n = 4 < s = 10
@example(dims=[5, 7, 3], n=4, cap=10, lam=1e-3, seed=3)
def test_factored_stationarity_matches_the_triangle_form(dims, n, cap, lam,
                                                         seed):
    """check_kkt's product with each block from the layer factors, for a
    Fisher given by its recipe, against the product with the square
    block, for the same Fisher given by its blocks alone."""
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, 0)
    model = model.with_params(rng.normal(size=model.dim))
    theta = model.params
    data = small_dataset(rng, n=n, dim=dims[0], classes=dims[-1])
    fisher = empirical_fisher_blockwise(model, data, lam=lam, block_cap=cap,
                                        seed=seed)
    blocks_only = replace(held(fisher), recipe=None)
    dw = rng.normal(size=theta.dim) * rng.integers(0, 2, size=theta.dim)
    moved = sorted(set(rng.choice(len(fisher.layout.blocks),
                                  size=int(rng.integers(0, 4))).tolist()))
    factored = _damped_products(fisher, theta, dw, moved)
    oracle = _damped_products(blocks_only, theta, dw, moved)
    sub = fisher.recipe.rows
    cols = dict(grad_columns(model, sub, cap))
    slices = list(fisher.layout.slices())
    bound_terms = 2 * (len(sub) + theta.dim)
    for b, got, want in zip(moved, factored, oracle):
        sl, label = slices[b]
        v = dw[sl]
        g = np.abs(cols[label])
        scale = g.T @ (g @ np.abs(v)) / len(sub) + lam * np.abs(v)
        tol = bound_terms * _EPS * scale + bound_terms * _TINY
        assert np.all(np.abs(got - want) <= tol), label


_FINITE = st.floats(-1e6, 1e6)


@given(st.integers(1, 40), st.floats(1e-6, 1e3), st.data())
def test_blocks_only_product_matches_the_damped_block(size, lam, data):
    """check_kkt's product for a Fisher given by its blocks alone,
    F_b v + lam v, against the damped square block's (F_b + lam I) v.
    Each side is a sum of size + 1 products in its own order, so each
    rounds within (size + 1) * eps of |F_b + lam I| |v|, plus a
    subnormal per product that underflows."""
    raw = data.draw(arrays(np.float64, (size, size), elements=_FINITE))
    block = np.where(np.triu(np.ones((size, size), dtype=bool)), raw, raw.T)
    v = data.draw(arrays(np.float64, size, elements=_FINITE))
    layout = BlockLayout.from_sizes([(size, "b")])
    fisher = BlockFisher(fisher=block_matrix([block], layout), lam=lam,
                         sample_count=1, source_digest="test")
    (got,) = _damped_products(fisher, ParamVector(np.zeros(size), layout),
                              v, [0])
    scale = np.abs(block) @ np.abs(v) + lam * np.abs(v)
    tol = 2 * (size + 1) * (_EPS * scale + _TINY)
    assert np.all(np.abs(got - reference_damp(block, lam) @ v) <= tol)


def test_factored_stationarity_needs_the_fisher_at_theta_p():
    rng = np.random.default_rng(5)
    model = init_mlp([3, 4, 2], 0)
    data = small_dataset(rng, dim=3, classes=2)
    fisher = empirical_fisher_blockwise(model, data)
    other = model.params.with_values(model.params.values + 1.0)
    with pytest.raises(StructuralError, match="another model"):
        _damped_products(fisher, other, np.ones(model.dim), [0])


def test_honest_run_passes_tightly():
    for seed in range(10):
        fisher, theta, mask, comp, theta_u = honest_instance(seed)
        cert = check_kkt(theta, theta_u, comp, fisher, mask)
        assert cert.verdict
        assert max(cert.inf_norms) <= 1e-9


def test_assembly_tamper_fails():
    fisher, theta, mask, comp, theta_u = honest_instance(42)
    bad = theta_u.values.copy()
    # tamper an off-mask coordinate so feasibility stays clean
    free = np.setdiff1d(np.arange(theta.dim), mask.support)
    bad[free[0]] += 1e-3
    cert = check_kkt(theta, theta_u.with_values(bad), comp, fisher, mask)
    assert not cert.verdict
    assert cert.inf_norms[0] >= 1e-3 - 1e-12


def test_multiplier_tamper_fails_on_stationarity():
    fisher, theta, mask, comp, theta_u = honest_instance(43)
    bad = CompensationResult(
        delta_w=comp.delta_w,
        multipliers=comp.multipliers + 1e-3,
        method=comp.method,
    )
    cert = check_kkt(theta, theta_u, bad, fisher, mask)
    assert not cert.verdict
    assert cert.inf_norms[2] >= 1e-3 - 1e-9


def test_empty_mask_exact_zeros():
    rng = np.random.default_rng(44)
    fisher, theta, _ = random_instance(rng)
    mask = make_mask(theta.dim, 0, np.arange(theta.dim, dtype=np.int64),
                     np.zeros(0, dtype=np.int64))
    comp = group_obs_solve(fisher, theta, mask)
    cert = check_kkt(theta, theta, comp, fisher, mask)
    assert cert.verdict
    assert cert.inf_norms == (0.0, 0.0, 0.0)


def test_verdict_json_shape():
    fisher, theta, mask, comp, theta_u = honest_instance(45)
    obj = check_kkt(theta, theta_u, comp, fisher, mask).to_json()
    assert obj["verdict"] == "pass"
    assert obj["tolerance"] == 1e-6


# -- hessians -----------------------------------------------------------------------


def test_exact_hessian_symmetric_and_matches_double_fd():
    rng = np.random.default_rng(0)
    model = init_mlp([2, 4, 2], 0)
    data = small_dataset(rng, n=6, dim=2, classes=2)
    h = exact_hessian(model, data)
    assert np.abs(h - h.T).max() == 0.0
    # independent oracle: second differences of the scalar loss
    from veriforget.model import mean_loss
    theta = model.params.values
    step = 1e-4
    for i, j in [(0, 0), (1, 3), (5, 2)]:
        def loss_at(di, dj):
            v = theta.copy()
            v[i] += di
            v[j] += dj
            return mean_loss(model.with_params(v), data)
        fd = (loss_at(step, step) - loss_at(step, -step)
              - loss_at(-step, step) + loss_at(-step, -step)) / (4 * step**2)
        assert abs(h[i, j] - fd) <= 1e-4 * (1 + abs(fd))


def test_exact_hessian_dim_cap():
    rng = np.random.default_rng(1)
    model = init_mlp([50, 50, 10], 0)
    data = small_dataset(rng, n=2, dim=50, classes=10)
    with pytest.raises(ValueError):
        exact_hessian(model, data)


def test_fisher_mode_q_min_eig_at_least_lam_q():
    # H = G'G is PSD by construction, so Q = H_cc + lam_q I has no
    # eigenvalue below lam_q
    for seed in range(5):
        for lam_q in (1e-6, 1e-3, 0.5):
            rep, *_ = pipeline_report(seed, hessian_mode="fisher", lam_q=lam_q)
            assert rep.q_min_eig >= lam_q


# -- quadratic-model identities ---------------------------------------------------------


def test_completion_of_square_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        q = random_spd_block(rng, n, damping=0.5)
        b = rng.normal(size=n)
        x = rng.normal(size=n)
        eigvals, eigvecs = np.linalg.eigh(q)
        sq = eigvecs @ (np.sqrt(eigvals)[:, None] * eigvecs.T)
        isq = eigvecs @ ((1 / np.sqrt(eigvals))[:, None] * eigvecs.T)
        u = isq @ b
        lhs = quadratic_gain(b, q, x)
        rhs = 0.5 * np.linalg.norm(sq @ x + u) ** 2 - 0.5 * np.linalg.norm(u) ** 2
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_minimizer_attains_worst_case():
    rng = np.random.default_rng(4)
    n = 12
    q = random_spd_block(rng, n, damping=0.5)
    b = rng.normal(size=n)
    x_star = -np.linalg.solve(q, b)
    eigvals, eigvecs = np.linalg.eigh(q)
    isq = eigvecs @ ((1 / np.sqrt(eigvals))[:, None] * eigvecs.T)
    worst = -0.5 * np.linalg.norm(isq @ b) ** 2
    assert abs(quadratic_gain(b, q, x_star) - worst) <= 1e-8 * (1 + abs(worst))


def test_lower_bound_never_violated():
    rng = np.random.default_rng(5)
    n = 10
    q = random_spd_block(rng, n, damping=0.5)
    b = rng.normal(size=n)
    eigvals, eigvecs = np.linalg.eigh(q)
    isq = eigvecs @ ((1 / np.sqrt(eigvals))[:, None] * eigvecs.T)
    worst = -0.5 * np.linalg.norm(isq @ b) ** 2
    for _ in range(1000):
        x = rng.normal(size=n) * rng.uniform(0.1, 10)
        assert quadratic_gain(b, q, x) >= worst - 1e-10


def pipeline_report(seed, hessian_mode="exact", lam_q=0.5):
    rng = np.random.default_rng(seed)
    model0 = init_mlp([3, 6, 2], seed)
    data = small_dataset(rng, n=30, dim=3, classes=2)
    model = train_sgd(model0, data, TrainConfig(epochs=8, seed=seed))
    d = model.dim
    from veriforget.curvature import empirical_fisher_blockwise
    fisher = empirical_fisher_blockwise(model, data, lam=1e-3, block_cap=64)
    elig = np.arange(d, dtype=np.int64)
    support = np.sort(rng.choice(d, size=4, replace=False)).astype(np.int64)
    mask = make_mask(d, 4, elig, support)
    comp = group_obs_solve(fisher, model.params, mask)
    rep = forget_gain_report(model, mask, comp, data, lam_q=lam_q,
                             hessian_mode=hessian_mode)
    return rep, model, comp, mask, data


def test_two_formula_agreement_on_pipeline():
    for seed in range(5):
        rep, *_ = pipeline_report(seed)
        scale = 1 + abs(rep.f_obs)
        assert abs(rep.f_obs - rep.f_obs_normform) <= 1e-8 * scale


def test_sandwich_bounds_on_pipeline():
    for seed in range(5):
        rep, *_ = pipeline_report(seed)
        assert rep.worst_case <= rep.f_obs + 1e-10
        assert rep.f_obs <= rep.upper_bound + 1e-10
        if rep.guarantee_flag:
            assert rep.f_obs >= -1e-10


def test_spectral_chain():
    for seed in range(5):
        rep, *_ = pipeline_report(seed)
        u_sq = float(np.linalg.norm(rep.u) ** 2)
        b_sq = float(np.linalg.norm(rep.b) ** 2)
        assert u_sq <= b_sq / rep.q_min_eig + 1e-8
        assert b_sq / rep.q_min_eig <= rep.spectral_bound + 1e-8
        assert -0.5 * rep.spectral_bound <= rep.worst_case + 1e-8


def test_b_zero_construction():
    # a critical point of the C-restricted quadratic: b = 0 forces
    # worst_case = 0 and f_obs = 0.5 ||v||^2 >= 0
    rng = np.random.default_rng(6)
    n, k = 8, 2
    q = random_spd_block(rng, n, damping=0.5)
    b = np.zeros(n)
    x = rng.normal(size=n)
    val = quadratic_gain(b, q, x)
    eigvals, eigvecs = np.linalg.eigh(q)
    sq = eigvecs @ (np.sqrt(eigvals)[:, None] * eigvecs.T)
    assert val >= 0
    assert abs(val - 0.5 * np.linalg.norm(sq @ x) ** 2) <= 1e-10


def test_q_not_spd_raises_with_advice():
    with pytest.raises(NumericError, match="lam_q"):
        pipeline_report(0, lam_q=-100.0)


def test_measured_gap_report():
    rep, model, comp, mask, data = pipeline_report(1)
    theta_u = model.with_params(
        np.where(mask.indicator() == 1, 0.0,
                 model.params.values + comp.delta_w.values)
    )
    out = measured_forget_gap(model, theta_u, data, rep.predicted_delta_lf)
    assert set(out) == {"actual_delta_lf", "predicted_delta_lf",
                        "cubic_remainder_gap"}
    assert out["cubic_remainder_gap"] >= 0


# -- the spectral path against dense formulas ------------------------------------


def dense_oracle(h, g, theta_p, mask, comp, lam_q):
    """Every ForgetBudget field from the dense H by the dense formulas:
    eigh(Q) and the two matrix roots of Q = H_cc + lam_q I."""
    m_idx = mask.support
    c_idx = np.setdiff1d(np.arange(theta_p.dim), m_idx)
    a_m = theta_p.values[m_idx]
    h_cm = h[np.ix_(c_idx, m_idx)]
    s_mask = float(-g[m_idx] @ a_m + 0.5 * a_m @ (h[np.ix_(m_idx, m_idx)] @ a_m))
    b = g[c_idx] - h_cm @ a_m
    q = h[np.ix_(c_idx, c_idx)] + lam_q * np.eye(c_idx.size)
    eigvals, eigvecs = np.linalg.eigh(q)
    sqrt_q = eigvecs @ (np.sqrt(eigvals)[:, None] * eigvecs.T)
    inv_sqrt_q = eigvecs @ ((1.0 / np.sqrt(eigvals))[:, None] * eigvecs.T)
    dw_c = comp.delta_w.values[c_idx]
    u, v = inv_sqrt_q @ b, -sqrt_q @ dw_c
    u_n, v_n = np.linalg.norm(u), np.linalg.norm(v)
    f_obs = quadratic_gain(b, q, dw_c)
    h_cm_norm = np.linalg.norm(h_cm, 2) if m_idx.size else 0.0
    return {
        "s_mask": s_mask, "b": b, "q_min_eig": eigvals.min(), "u": u, "v": v,
        "f_obs": f_obs,
        "f_obs_normform": 0.5 * np.linalg.norm(v - u) ** 2 - 0.5 * u_n**2,
        "worst_case": -0.5 * u_n**2,
        "spectral_bound": (np.linalg.norm(g[c_idx])
                           + h_cm_norm * np.linalg.norm(a_m)) ** 2 / eigvals.min(),
        "upper_bound": 0.5 * v_n**2 + u_n * v_n,
        "guarantee_flag": v_n >= 2.0 * u_n,
        "predicted_delta_lf": s_mask + f_obs,
    }


@pytest.mark.parametrize("hessian_mode", ["exact", "fisher"])
@pytest.mark.parametrize("square", [False, True], ids=["complement", "square"])
@settings(max_examples=examples(15), deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.tuples(st.integers(2, 4), st.integers(2, 6), st.integers(2, 3)),
       shift=st.floats(1e-3, 2.0))
def test_spectral_path_matches_dense_oracle(hessian_mode, square, seed, dims,
                                            shift):
    """Both modes against the dense oracle.  Fisher mode's V has
    min(n, d - k) columns, so n < d - k leaves a complement and n >= d - k
    makes V square; exact mode's V is always square."""
    rng = np.random.default_rng(seed)
    model = init_mlp(list(dims), seed % 1000)
    d = model.dim
    k = int(rng.integers(0, 7))
    n = int(rng.integers(d - k, d - k + 6)) if square else int(rng.integers(1, d - k))
    data = small_dataset(rng, n=n, dim=dims[0], classes=dims[-1])
    support = rng.choice(d, size=k, replace=False)
    mask = make_mask(d, k, np.arange(d), support)
    comp = CompensationResult(
        delta_w=model.params.with_values(rng.normal(size=d)),
        multipliers=np.zeros(k), method="schur",
    )
    if hessian_mode == "exact":
        h = exact_hessian(model, data)
        c_idx = np.setdiff1d(np.arange(d), mask.support)
        shift += max(0.0, -np.linalg.eigvalsh(h[np.ix_(c_idx, c_idx)]).min())
    else:
        grads = per_example_grads(model, data) / np.sqrt(n)
        h = grads.T @ grads
    oracle = dense_oracle(h, batch_grad(model, data).values, model.params, mask,
                          comp, shift)
    rep = forget_gain_report(model, mask, comp, data, lam_q=shift,
                             hessian_mode=hessian_mode)
    for name, want in oracle.items():
        got = getattr(rep, name)
        if name == "guarantee_flag":
            assert got == want
        else:
            assert np.all(np.abs(got - want) <= 1e-9 * (1 + np.abs(want))), name


@pytest.mark.parametrize("hessian_mode", ["exact", "fisher"])
def test_negative_lam_q_matches_dense_oracle(hessian_mode):
    """A negative lam_q is a valid damping while Q stays positive definite:
    with the last layer masked, H_cc is, and lam_q at half its smallest
    eigenvalue, below 0, gives the dense oracle's fields."""
    rng = np.random.default_rng(171)  # exact H_cc is positive definite too
    model = init_mlp([2, 2, 2], 0)
    model = model.with_params(rng.normal(size=model.dim))
    data = small_dataset(rng, n=60, dim=2, classes=2)
    mask = make_mask(12, 6, np.arange(12), np.arange(6, 12))
    comp = CompensationResult(
        delta_w=model.params.with_values(rng.normal(size=12)),
        multipliers=np.zeros(6), method="schur",
    )
    if hessian_mode == "exact":
        h = exact_hessian(model, data)
    else:
        grads = per_example_grads(model, data) / np.sqrt(60)
        h = grads.T @ grads
    lam_q = -0.5 * np.linalg.eigvalsh(h[:6, :6]).min()
    assert lam_q < 0
    oracle = dense_oracle(h, batch_grad(model, data).values, model.params, mask,
                          comp, lam_q)
    rep = forget_gain_report(model, mask, comp, data, lam_q=lam_q,
                             hessian_mode=hessian_mode)
    for name, want in oracle.items():
        got = getattr(rep, name)
        if name == "guarantee_flag":
            assert got == want
        else:
            assert np.all(np.abs(got - want) <= 1e-9 * (1 + np.abs(want))), name


def test_fisher_mode_never_densifies():
    """At d >= 5,000, fisher mode's traced allocations stay below a tenth of
    one dense d x d float64 matrix."""
    rng = np.random.default_rng(8)
    model = init_mlp([20, 200, 5], 8)
    d = model.dim
    assert d >= 5000
    data = small_dataset(rng, n=40, dim=20, classes=5)
    support = np.sort(rng.choice(4000, size=200, replace=False))
    mask = make_mask(d, 200, np.arange(4000), support)
    comp = CompensationResult(
        delta_w=model.params.with_values(rng.normal(size=d) * 1e-2),
        multipliers=np.zeros(200), method="schur",
    )
    tracemalloc.start()
    try:
        rep = forget_gain_report(model, mask, comp, data, hessian_mode="fisher")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(rep.spectral_bound)
    assert peak < 0.1 * 8 * d * d
