import numpy as np
import pytest

from veriforget.certify import (
    CurvatureNotSPDError,
    check_kkt,
    exact_hessian,
    fisher_hessian_surrogate,
    forget_gain_report,
    measured_forget_gap,
    quadratic_gain,
)
from veriforget.masking import make_mask
from veriforget.model import TrainConfig, init_mlp, train_sgd
from veriforget.obs import CompensationResult, apply_unlearn, group_obs_solve

from conftest import (
    random_instance,
    random_spd_block,
    small_dataset,
)


def honest_instance(seed):
    rng = np.random.default_rng(seed)
    fisher, theta, mask = random_instance(rng)
    comp = group_obs_solve(fisher, theta, mask)
    return fisher, theta, mask, comp, apply_unlearn(theta, comp, mask)


# -- kkt certificate ------------------------------------------------------------


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
        kkt_residual_inf=comp.kkt_residual_inf,
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


def test_fisher_surrogate_psd():
    rng = np.random.default_rng(2)
    model = init_mlp([3, 4, 2], 3)
    data = small_dataset(rng, n=10, dim=3, classes=2)
    h = fisher_hessian_surrogate(model, data)
    assert np.linalg.eigvalsh(h).min() >= -1e-10


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
    from veriforget.curvature import curvature_layout, empirical_fisher_blockwise
    layout = curvature_layout(model.params.layout, cap=64)
    fisher = empirical_fisher_blockwise(model, data, layout, lam=1e-3)
    elig = np.arange(d, dtype=np.int64)
    support = np.sort(rng.choice(d, size=4, replace=False)).astype(np.int64)
    mask = make_mask(d, 4, elig, support)
    comp = group_obs_solve(fisher, model.params, mask)
    rep = forget_gain_report(
        model.params, mask, comp, data, model,
        lam_q=lam_q, hessian_mode=hessian_mode,
    )
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
    with pytest.raises(CurvatureNotSPDError, match="lam_q"):
        pipeline_report(0, lam_q=-100.0)


def test_measured_gap_report():
    rep, model, comp, mask, data = pipeline_report(1)
    theta_u = model.params.with_values(
        np.where(mask.indicator() == 1, 0.0,
                 model.params.values + comp.delta_w.values)
    )
    out = measured_forget_gap(model.params, theta_u, data, model,
                              rep.predicted_delta_lf)
    assert set(out) == {"actual_delta_lf", "predicted_delta_lf",
                        "cubic_remainder_gap"}
    assert out["cubic_remainder_gap"] >= 0
