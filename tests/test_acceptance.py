"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line on the real stdout so the
verdicts survive pytest's capture in the logged output.
"""

import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from veriforget import artifacts as art
from veriforget import zkp
from veriforget.certify import check_kkt
from veriforget.curvature import empirical_fisher_blockwise
from veriforget.evals import forward_kl_alignment
from veriforget.masking import make_mask
from veriforget.model import (
    TrainConfig,
    batch_grad,
    init_mlp,
    mean_loss,
    per_example_grads,
    train_sgd,
)
from veriforget.numkit import (
    BlockLayout,
    ParamVector,
    StructuralError,
    quantize,
)
from veriforget.obs import (
    CompensationResult,
    apply_unlearn,
    group_obs_solve,
)
from veriforget.pipeline import demo_config, run_pipeline
from veriforget.zkp.witness import FRAC_BITS_F, FRAC_BITS_T

from conftest import (
    damped,
    dense,
    dense_oracle,
    exact_hessian,
    quadratic_gain,
    random_fisher,
    random_instance,
    random_mask,
    reference_residual,
    small_dataset,
    square_blocks,
    statement,
    tiny_config,
    with_u,
)


RESULTS: list[str] = []


def report(num, name, ok):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def obs_instance(rng):
    """d <= 64, 1-4 blocks, k <= d/4."""
    n_blocks = int(rng.integers(1, 5))
    sizes = []
    remaining = 64
    for i in range(n_blocks):
        hi = max(2, remaining // (n_blocks - i))
        sizes.append(int(rng.integers(2, hi + 1)))
        remaining -= sizes[-1]
    layout = BlockLayout.from_sizes(
        (s, f"b{i}") for i, s in enumerate(sizes)
    )
    d = layout.total_dim
    fisher = random_fisher(rng, layout)
    theta = ParamVector(values=rng.normal(size=d), layout=layout)
    k = int(rng.integers(1, max(2, d // 4 + 1)))
    mask = random_mask(rng, layout, k)
    return fisher, theta, mask


def test_criterion_1_obs_oracle_equivalence():
    rng = np.random.default_rng(100)
    t0 = time.time()
    ok = True
    for _ in range(100):
        fisher, theta, mask = obs_instance(rng)
        comp = group_obs_solve(fisher, theta, mask)
        dw_o, lam_o = dense_oracle(fisher, theta, mask)
        s = max(np.abs(dw_o).max(), 1e-12)
        ls = max(np.abs(lam_o).max(), 1e-12)
        if (np.abs(comp.delta_w.values - dw_o).max() / s > 1e-8
                or np.abs(comp.multipliers - lam_o).max() / ls > 1e-8):
            ok = False
    elapsed = time.time() - t0
    report(1, "OBS oracle equivalence", ok and elapsed <= 10.0)


def test_criterion_2_exact_mask_feasibility():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(200 + seed)
        fisher, theta, mask = random_instance(rng)
        comp = group_obs_solve(fisher, theta, mask)
        theta_u = apply_unlearn(theta, comp, mask)
        if not (theta_u.values[mask.support] == 0.0).all():
            ok = False
    report(2, "exact mask feasibility", ok)


def test_criterion_3_kkt_certificate(tmp_path):
    rng = np.random.default_rng(300)
    ok = True
    # honest side
    for _ in range(10):
        fisher, theta, mask = random_instance(rng)
        comp = group_obs_solve(fisher, theta, mask)
        theta_u = apply_unlearn(theta, comp, mask)
        cert = check_kkt(theta, theta_u, comp, fisher, mask)
        if not cert.verdict or max(cert.inf_norms) > 1e-9:
            ok = False
    # 50 single-coordinate tampers >= 1e-3, rotating targets
    for trial in range(50):
        fisher, theta, mask = random_instance(rng)
        comp = group_obs_solve(fisher, theta, mask)
        theta_u = apply_unlearn(theta, comp, mask)
        eps = 1e-3 * float(rng.uniform(1.0, 10.0))
        kind = trial % 3
        c2 = comp
        if kind == 0:
            vals = theta_u.values.copy()
            vals[int(rng.integers(theta.dim))] += eps
            theta_u = theta_u.with_values(vals)
        elif kind == 1:
            dw = comp.delta_w.values.copy()
            dw[int(rng.integers(theta.dim))] += eps
            c2 = CompensationResult(
                delta_w=comp.delta_w.with_values(dw),
                multipliers=comp.multipliers,
                method=comp.method,
            )
        else:
            lam = comp.multipliers.copy()
            lam[int(rng.integers(mask.budget))] += eps
            c2 = CompensationResult(
                delta_w=comp.delta_w,
                multipliers=lam,
                method=comp.method,
            )
        if check_kkt(theta, theta_u, c2, fisher, mask).verdict:
            ok = False
    # the one-block forgery: a Fisher artifact whose block cap is d would
    # make every coordinate touched, so that a free curvature block could
    # pass any step off the mask; its header does not load
    model = init_mlp([4, 8, 3], 0)
    path = str(tmp_path / "fisher")
    art.save_fisher(path, empirical_fisher_blockwise(
        model, small_dataset(rng, n=20, dim=4, classes=3)))
    with open(path) as fh:
        header = json.load(fh)
    header["block_cap"] = model.dim
    with open(path, "w") as fh:
        json.dump(header, fh)
    try:
        art.load_fisher(path, model)
        ok = False
    except StructuralError:
        pass
    report(3, "KKT certificate honest/tamper", ok)


def test_criterion_4_optimality():
    rng = np.random.default_rng(400)
    ok = True
    for _ in range(20):
        fisher, theta, mask = random_instance(rng, max_block=16)
        comp = group_obs_solve(fisher, theta, mask)
        c = dense(damped(fisher))
        dw = comp.delta_w.values
        obj_star = 0.5 * dw @ c @ dw
        for _ in range(1000):
            alt = rng.normal(size=theta.dim) * rng.uniform(0.1, 5.0)
            alt[mask.support] = -theta.values[mask.support]
            if obj_star > 0.5 * alt @ c @ alt + 1e-12:
                ok = False
    report(4, "OBS optimality vs random feasible", ok)


def quad_instance(seed):
    """Trained tiny model -> exact-Hessian quadratic-model quantities."""
    rng = np.random.default_rng(seed)
    model = train_sgd(
        init_mlp([3, 6, 2], seed),
        small_dataset(rng, n=30, dim=3, classes=2),
        TrainConfig(epochs=8, seed=seed),
    )
    data = small_dataset(rng, n=20, dim=3, classes=2, name="forget")
    d = model.dim
    g = batch_grad(model, data).values
    h = exact_hessian(model, data)
    support = np.sort(rng.choice(d, size=4, replace=False)).astype(np.int64)
    c_idx = np.setdiff1d(np.arange(d), support)
    a_m = model.params.values[support]
    b = g[c_idx] - h[np.ix_(c_idx, support)] @ a_m
    q = h[np.ix_(c_idx, c_idx)] + 0.5 * np.eye(c_idx.size)
    return b, q, rng


def test_criterion_5_quadratic_model_identities():
    ok = True
    for seed in range(5):
        b, q, rng = quad_instance(500 + seed)
        eigvals, eigvecs = np.linalg.eigh(q)
        if eigvals.min() <= 0:
            ok = False
            continue
        sq = eigvecs @ (np.sqrt(eigvals)[:, None] * eigvecs.T)
        isq = eigvecs @ ((1 / np.sqrt(eigvals))[:, None] * eigvecs.T)
        u = isq @ b
        u_n = np.linalg.norm(u)
        worst = -0.5 * u_n**2
        for _ in range(20):
            # completion of the square and the two-formula agreement
            x = rng.normal(size=b.size) * rng.uniform(0.1, 5.0)
            direct = quadratic_gain(b, q, x)
            v = sq @ x  # compensation in whitened coordinates
            normform = 0.5 * np.linalg.norm(v + u) ** 2 - 0.5 * u_n**2
            if abs(direct - normform) > 1e-8 * (1 + abs(direct)):
                ok = False
            # sandwich, with v defined as -Q^{1/2} dw_c => flip the sign
            v_n = np.linalg.norm(v)
            if not (worst - 1e-10 <= direct
                    <= 0.5 * v_n**2 + u_n * v_n + 1e-10):
                ok = False
        for _ in range(1000):
            x = rng.normal(size=b.size) * rng.uniform(0.1, 10.0)
            if quadratic_gain(b, q, x) < worst - 1e-10:
                ok = False
    report(5, "quadratic-model identities and bounds", ok)


def test_criterion_6_desk_scale_direction():
    t0 = time.time()
    cfg = demo_config(run_zk=False)
    drops, recov, kl_u, kl_m, mia_u, mia_p = [], [], [], [], [], []
    for seed in range(10):
        r = run_pipeline(seed, cfg)
        rep = r.reports
        drops.append(rep["personalized"].forget_acc - rep["unlearned"].forget_acc)
        recov.append(rep["unlearned"].personal_acc - rep["mask_only"].personal_acc)
        kl_u.append(rep["unlearned"].align_personal)
        kl_m.append(rep["mask_only"].align_personal)
        mia_u.append(rep["unlearned"].mia)
        mia_p.append(rep["personalized"].mia)
    med = lambda x: float(np.median(x))
    ok = (
        med(drops) >= 0.25
        and med(recov) >= 0.02
        and med(kl_u) <= med(kl_m)
        and med(mia_u) <= med(mia_p)
        and (time.time() - t0) <= 300
    )
    report(6, "desk-scale unlearning direction", ok)


def _factor_tamper(w, circ, trial):
    """``w`` with the output error of sample ``trial`` mod n in the column
    of the first touched block's first masked coordinate moved by the
    least power of two units that takes a row's residual past 4 t_int,
    and u recomputed, as a prover that keeps matvec honest would."""
    public = circ.public
    b = circ.touched[0]
    layer, bias, lo, _ = circ.spans[b]
    start = sum(circ.sizes[:b])
    j = next(i for i in circ.support if i >= start)
    col = lo + j - start
    c = col if bias else col % public.layer_dims[layer + 1]
    k = circ.layers.index(layer)
    a, d = w.factors[k]
    window = 4 * public.t_int * (public.sample_count << (
        public.shift + 4 * FRAC_BITS_F - FRAC_BITS_T))
    for bits in range(FRAC_BITS_F + 6):
        moved = d.copy()
        moved[trial % len(d), c] += 1 << bits
        factors = list(w.factors)
        factors[k] = (a, moved)
        bad = with_u(replace(w, factors=tuple(factors)), circ)
        if max(map(abs, reference_residual(bad, circ).values())) > window:
            return bad
    raise AssertionError("no output error moves a residual past 4 t_int")


def test_criterion_7_zk_smoke():
    cfg = tiny_config()
    ok = True
    runs = []
    for seed in range(50):
        r = run_pipeline(seed, cfg)
        if not r.verified:
            ok = False
        runs.append(r)
    for trial in range(50):
        r = runs[trial % len(runs)]
        w, circ, rnd = r.witness, r.circuit, r.randomness
        kind = trial % 4
        bad = None
        if kind == 0:  # theta_u, one int
            ints = w.theta_u.copy()
            ints[trial % ints.size] += 1
            bad = dict(theta_u=ints)
        elif kind == 1:  # delta_w, one int
            ints = w.delta_w.copy()
            ints[trial % ints.size] += 1
            bad = dict(delta_w=ints)
        elif kind == 2:  # lambda: the minimal calibrated tamper 2^{-f_w+4}
            ints = w.lam.copy()
            ints[trial % ints.size] += 16
            bad = dict(lam=ints)
        else:  # an output error of a touched block's masked column
            violation = zkp.mock_prove(circ, _factor_tamper(w, circ, trial),
                                       rnd, check_commitments=False)
            if not (violation or "").startswith("stationarity["):
                ok = False
            continue
        tampered = replace(w, **bad)
        if zkp.mock_prove(circ, tampered, rnd, check_commitments=False) is None:
            ok = False
    # honest residual vs the analytic bound that calibrated T_int
    for r in runs[:5]:
        bound = zkp.stationarity_bound_int(
            r.witness, r.fisher, r.mask, r.certificate.inf_norms[2]
        )
        t_int = r.circuit.public.t_int
        if not bound <= t_int:
            ok = False
        if not t_int < zkp.T_INT_THRESHOLD:
            ok = False
    report(7, "ZK completeness/soundness smoke", ok)


def test_criterion_8_constraint_scaling():
    # one layer of db // 4 inputs and 4 outputs split at a cap of db, its
    # weight block of db coordinates touched and its bias of 4 not, over
    # n = 16 rows: the factored products are
    # n * db rows each, linear in the block where C_b dw_b was db^2
    sizes = [64, 128, 256, 512]
    counts = []
    ok = True
    for db in sizes:
        k, n = 4, 16
        mask = make_mask(db + 4, k, np.arange(db + 4, dtype=np.int64),
                         np.arange(k, dtype=np.int64))
        circ = zkp.synthesize(
            statement(mask, db, 1 << 30, (db // 4, 4), n), mask)
        counts.append(circ.counts["matvec"])
        if (circ.counts["assembly"] != db + 4 or circ.counts["feasibility"] != k
                or not circ.counts["matvec"] == circ.counts["rmatvec"] == n * db):
            ok = False
    slope = np.polyfit(np.log(sizes), np.log(counts), 1)[0]
    report(8, "constraint-count scaling",
           ok and abs(slope - 1.0) <= 0.05)


def test_criterion_9_numerical_hygiene():
    ok = True
    # gradients vs central differences, 20 coordinates x 10 models
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        model = init_mlp([3, 6, 2], seed)
        data = small_dataset(rng, n=1, dim=3, classes=2)
        g = per_example_grads(model, data)[0]
        idx = rng.choice(g.size, size=20, replace=False)
        for i in idx:
            h = 1e-5
            vp = model.params.values.copy()
            vp[i] += h
            vm = model.params.values.copy()
            vm[i] -= h
            fd = (mean_loss(model.with_params(vp), data)
                  - mean_loss(model.with_params(vm), data)) / (2 * h)
            if abs(g[i] - fd) > 1e-5 * (1 + abs(fd)):
                ok = False
    # fisher PSD
    rng = np.random.default_rng(901)
    model = init_mlp([4, 8, 3], 0)
    data = small_dataset(rng, n=40)
    fisher = empirical_fisher_blockwise(model, data, lam=1e-3, block_cap=32)
    for blk in square_blocks(fisher.fisher):
        if np.linalg.eigvalsh(blk).min() < -1e-10:
            ok = False
    # KL(theta, theta) = 0
    if forward_kl_alignment(model, model, data) != 0.0:
        ok = False
    # fixed-point round trip
    rng = np.random.default_rng(902)
    xs = rng.uniform(-4, 4, size=5000)
    for f in (8, 16, 24):
        if np.abs(quantize(xs, f, 4.0) * 2.0**-f - xs).max() > 2.0 ** (-f - 1):
            ok = False
    report(9, "numerical hygiene", ok)


def test_criterion_10_demo_determinism(tmp_path):
    from click.testing import CliRunner
    from veriforget.cli import main as cli_main
    digests = []
    for run in range(2):
        out = str(tmp_path / f"run{run}")
        res = CliRunner().invoke(
            cli_main, ["demo", "--seed", "7", "--out-dir", out],
            catch_exceptions=False,
        )
        assert res.exit_code == 0, res.output
        with open(os.path.join(out, "digests.json")) as fh:
            digests.append(json.load(fh))
    report(10, "demo determinism", digests[0] == digests[1])
