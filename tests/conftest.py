"""Shared builders for randomized test instances, and the oracles that
only tests use."""

import json
import math
import multiprocessing
import os
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import rankdata

from veriforget import artifacts as art
from veriforget import numkit
from veriforget.curvature import (
    DEFAULT_MAX_SAMPLES,
    BlockFisher,
    _subsample,
)
from veriforget.masking import make_mask
from veriforget.model import (
    MOMENTUM,
    Dataset,
    batch_grad,
    grad_columns,
    init_mlp,
    make_synthetic_task,
    mean_loss,
    per_example_grads,
    stream_rng,
)
from veriforget.numkit import (
    BlockDiagMatrix,
    BlockLayout,
    BlockStream,
    NumericError,
    ParamVector,
    block_slices,
    canonical_json,
    sha256_hex,
)
from veriforget.pipeline import (
    DEFAULT_PERSONALIZE,
    DEFAULT_PRETRAIN,
    PipelineConfig,
)
from veriforget.zkp import PublicInputs
from veriforget.zkp.witness import FRAC_BITS_F, factor_parts
from veriforget.zkp.field import (
    _MDS,
    _RC,
    FULL_ROUNDS,
    LEAF_CHUNK,
    MODULUS,
    PARTIAL_ROUNDS,
    _blinding,
    sponge,
    to_field,
)


# ``pytest --hypothesis-profile=deep`` runs every property test on twenty
# times its default number of examples, with no deadline.
settings.register_profile("deep", max_examples=2000, deadline=None)


def examples(n: int) -> int:
    """A property test's example count: ``n`` under the default profile,
    scaled with the loaded profile's ``max_examples``."""
    return n * settings.default.max_examples // 100


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion verdict lines past output capture."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    for line in RESULTS:
        terminalreporter.write_line(line)


def assert_no_child_process():
    """No worker is left: none that multiprocessing tracks, and no child
    of this process at all, running or exited and unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report_cpus(monkeypatch, n):
    """Make ``numkit.fork_start`` see n CPUs, so a 1-CPU runner still forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(params=["in_process", "forked"])
def workers(request, monkeypatch):
    """Run the test with every per-block pass in-process (1 CPU reported),
    and again in two forked workers (2 CPUs reported, a fork threshold of
    0 entries and one BLAS thread); either way, no worker process may be
    left after it."""
    if request.param == "forked":
        report_cpus(monkeypatch, 2)
        monkeypatch.setattr(numkit, "FORK_MIN_ENTRIES", 0)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    else:
        report_cpus(monkeypatch, 1)
    yield request.param
    assert multiprocessing.active_children() == []


def tiny_config(**overrides) -> PipelineConfig:
    """Small fast pipeline (4-8-3 MLP) for high-repetition ZK checks."""
    base = dict(
        layer_dims=(4, 8, 3),
        mask_k=12,
        pretrain=replace(DEFAULT_PRETRAIN, epochs=15),
        personalize=replace(DEFAULT_PERSONALIZE, epochs=6),
        run_gold=False,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def quadratic_gain(b: np.ndarray, q: np.ndarray, dw_c: np.ndarray) -> float:
    """Direct evaluation of f(dw_c) = b'dw_c + 0.5 dw_c' Q dw_c."""
    return float(b @ dw_c + 0.5 * dw_c @ (q @ dw_c))


def dense_kkt_solve(
    c_dense: np.ndarray, theta: np.ndarray, support: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: solve the full (d+k) x (d+k) KKT system densely."""
    d = theta.size
    k = support.size
    e = np.zeros((d, k))
    e[support, np.arange(k)] = 1.0
    kkt = np.zeros((d + k, d + k))
    kkt[:d, :d] = c_dense
    kkt[:d, d:] = e
    kkt[d:, :d] = e.T
    rhs = np.zeros(d + k)
    rhs[d:] = -theta[support]
    sol = np.linalg.solve(kkt, rhs)
    return sol[:d], sol[d:]


def block_matrix(blocks, layout) -> BlockDiagMatrix:
    """The block-diagonal matrix of square symmetric ``blocks``, one per
    layout block, held in memory."""
    blocks = tuple(blocks)
    return BlockDiagMatrix(BlockStream(lambda: lambda i, _: blocks[i], layout))


@dataclass(frozen=True)
class HeldFisher:
    """A test double of ``curvature.BlockFisher``: an arbitrary curvature
    given by its square ``blocks`` alone, held in memory, with the members
    ``obs`` and ``certify`` read.  Its sample count is infinite, so
    ``obs`` solves every block from its square, and ``ready`` gives no
    factors."""

    blocks: list
    layout: BlockLayout
    lam: float
    sample_count: float = math.inf

    @property
    def fisher(self) -> BlockDiagMatrix:
        return block_matrix(self.blocks, self.layout)

    def ready(self):
        return None, lambda i, _: self.blocks[i]

    def damped_products(self, theta_p, dw, blocks) -> list:
        """Oracle: F_b dw_b + lam dw_b from each square block b."""
        slices = [sl for sl, _ in self.layout.slices()]
        return [self.blocks[b] @ dw[slices[b]] + self.lam * dw[slices[b]]
                for b in blocks]


def square_blocks(mat: BlockDiagMatrix) -> list[np.ndarray]:
    """The blocks of ``mat``, each a copy of its own."""
    return [block.copy() for block in mat.blocks]


def dense(mat: BlockDiagMatrix) -> np.ndarray:
    """The d x d matrix of ``mat``."""
    d = mat.layout.total_dim
    out = np.zeros((d, d))
    for block, (sl, _) in zip(square_blocks(mat), mat.layout.slices()):
        out[sl, sl] = block
    return out


def reference_damp(block: np.ndarray, lam: float) -> np.ndarray:
    """Oracle: a square block damped in its defining form, B + lam * I."""
    return block + lam * np.eye(block.shape[0])


def damped(fisher: BlockFisher) -> BlockDiagMatrix:
    """Oracle: the damped curvature F + lam * I."""
    return block_matrix([reference_damp(b, fisher.lam)
                         for b in square_blocks(fisher.fisher)], fisher.layout)


def dense_oracle(fisher, theta, mask):
    """Oracle: (dw, lam) from one dense solve of the KKT system
    [[C, E], [E', 0]] [dw; lam] = [0; -theta_M], C = F + lam * I."""
    c = dense(damped(fisher))
    d, k = theta.dim, mask.budget
    e = np.zeros((d, k))
    e[mask.support, np.arange(k)] = 1.0
    kkt = np.block([[c, e], [e.T, np.zeros((k, k))]])
    rhs = np.concatenate([np.zeros(d), -theta.values[mask.support]])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:d], sol[d:]


def held(fisher: BlockFisher) -> HeldFisher:
    """The double of ``fisher``: its blocks formed once and held in
    memory, at its damping."""
    return HeldFisher(square_blocks(fisher.fisher), fisher.layout, fisher.lam)


def resave(src, dst, arrays, **header_edits):
    """The array artifact at ``src`` written to ``dst`` with ``arrays`` as
    its arrays, whatever their shapes, each with its digest, and its
    header's keys set to ``header_edits``."""
    with open(src) as fh:
        header = json.load(fh)
    del header["arrays"]
    header.update(header_edits)
    art._save(dst, header, arrays)


def reference_curvature_layout(model_layout, cap):
    """Oracle: ``model_layout`` with each block wider than ``cap`` split
    contiguously into parts of ``cap`` and a shorter last one, labelled
    ``<label>/part<j>``."""
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


def reference_fisher_blocks(model, data, layout, max_samples=DEFAULT_MAX_SAMPLES,
                            seed=0):
    """Oracle: the square Fisher blocks sliced from the full n x d
    per-example gradient matrix, over the estimator's own seeded
    subsample."""
    sub, _ = _subsample(data, max_samples, seed)
    grads = per_example_grads(model, sub)
    n = grads.shape[0]
    blocks = []
    for sl, _ in layout.slices():
        gb = grads[:, sl]
        f = gb.T @ gb / n
        blocks.append(0.5 * (f + f.T))
    return blocks


def reference_fisher_squares(model, data, cap, max_samples=DEFAULT_MAX_SAMPLES,
                             seed=0):
    """Oracle: the Fisher's blocks as 0.5 * (F + F') of F = gb'gb / n,
    symmetric by construction, over the estimator's own subsample and
    gradient columns."""
    sub, _ = _subsample(data, max_samples, seed)
    n = len(sub)
    out = []
    for _, gb in grad_columns(model, sub, cap):
        if gb.shape[1] == 1 and gb.strides[0] == gb.itemsize:
            wide = np.empty((n, 2))  # the estimator's strided n x 1 column
            wide[:, :1] = gb
            gb = wide[:, :1]
        f = gb.T @ gb / n
        out.append(0.5 * (f + f.T))
    return out


def reference_group_obs_solve(c_p, theta_p, mask):
    """Oracle: the Group-OBS solve on square damped blocks, each factored
    by ``cho_factor``; returns (delta_w, multipliers)."""
    theta = theta_p.values
    masked = mask.indicator()
    delta = np.zeros(theta_p.dim)
    multipliers = np.empty(mask.budget)
    for block, (sl, _) in zip(c_p.fisher.blocks, c_p.layout.slices()):
        mloc = np.flatnonzero(masked[sl])
        if mloc.size == 0:
            continue
        damped = reference_damp(block, c_p.lam)
        rhs = np.zeros((damped.shape[0], mloc.size))
        rhs[mloc, np.arange(mloc.size)] = 1.0
        x = cho_solve(cho_factor(damped, lower=True), rhs)
        schur = x[mloc, :]
        schur = 0.5 * (schur + schur.T)
        lam_b = cho_solve(cho_factor(schur, lower=True), theta[sl][mloc])
        delta[sl] = -x @ lam_b
        multipliers[np.searchsorted(mask.support, sl.start + mloc)] = lam_b
    return delta, multipliers


def reference_diag_curvature(model, data, max_samples=DEFAULT_MAX_SAMPLES,
                             seed=0):
    """Oracle: the mean squared column of the full n x d per-example
    gradient matrix, over the estimator's own seeded subsample."""
    sub, _ = _subsample(data, max_samples, seed)
    return (per_example_grads(model, sub) ** 2).mean(axis=0)


def reference_train_sgd(init, data, cfg, stream="train"):
    """Oracle: momentum SGD as one object-building loop, a Dataset, a
    gradient ParamVector and a model per step, and the mean loss over all
    of ``data`` computed after every epoch.

    It raises StructuralError, not NumericError, when a batch gradient is
    non-finite: the gradient's ParamVector rejects it before the
    parameters are checked."""
    theta = init.params.values.copy()
    velocity = np.zeros_like(theta)
    n = len(data)
    model = init
    for epoch in range(cfg.epochs):
        rng = stream_rng(cfg.seed, f"{stream}/shuffle/epoch-{epoch}")
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = data.subset(idx)
            g = batch_grad(model, batch).values
            velocity = MOMENTUM * velocity - cfg.learning_rate * g
            theta = theta + velocity
            if not np.all(np.isfinite(theta)):
                raise NumericError(f"parameters diverged at epoch {epoch}")
            model = init.with_params(theta)
        loss = mean_loss(model, data)
        if not np.isfinite(loss):
            raise NumericError(f"loss diverged at epoch {epoch}")
    return model


def reference_mia_auc(member_losses, nonmember_losses):
    """Oracle: the Mann-Whitney AUC from the midranks of the pooled
    losses, P(nonmember loss > member loss) with ties counted one half."""
    n_m, n_n = len(member_losses), len(nonmember_losses)
    ranks = rankdata(np.concatenate([member_losses, nonmember_losses]))
    u = ranks[n_m:].sum() - n_n * (n_n + 1) / 2.0
    return float(u / (n_m * n_n))


def reference_permute(state):
    """Oracle: the sponge permutation in its defining form, with a
    full-width MDS product and reduction in every round."""
    p = MODULUS
    a, b, c = ((int(x) + int(rc)) % p for x, rc in zip(state, _RC[0]))
    half = FULL_ROUNDS // 2
    total = FULL_ROUNDS + PARTIAL_ROUNDS
    m0, m1, m2 = ([int(m) for m in row] for row in _MDS)
    for r in range(total):
        a = pow(a, 5, p)
        if r < half or r >= total - half:
            b = pow(b, 5, p)
            c = pow(c, 5, p)
        rc = [int(x) for x in _RC[r + 1]] if r + 1 < total else [0, 0, 0]
        a, b, c = (
            (a * m0[0] + b * m0[1] + c * m0[2] + rc[0]) % p,
            (a * m1[0] + b * m1[1] + c * m1[2] + rc[1]) % p,
            (a * m2[0] + b * m2[1] + c * m2[2] + rc[2]) % p,
        )
    return a, b, c


def reference_merkle_root(ints, randomness):
    """Oracle: the Merkle root with its leaves hashed one after another
    in this process."""
    if isinstance(ints, np.ndarray):
        ints = [int(x) for x in ints.ravel()]
    leaves = []
    for li in range(0, max(len(ints), 1), LEAF_CHUNK):
        chunk = [to_field(x) for x in ints[li : li + LEAF_CHUNK]]
        chunk.append(_blinding(randomness, li // LEAF_CHUNK))
        leaves.append(sponge(chunk, "leaf"))
    level = 0
    while len(leaves) > 1:
        nxt = []
        for i in range(0, len(leaves) - 1, 2):
            nxt.append(sponge([leaves[i], leaves[i + 1]], f"node/{level}"))
        if len(leaves) % 2:
            nxt.append(leaves[-1])
        leaves = nxt
        level += 1
    return leaves[0]


def random_layout(rng, n_blocks=None, max_block=24):
    n_blocks = n_blocks or int(rng.integers(1, 5))
    sizes = [int(rng.integers(2, max_block + 1)) for _ in range(n_blocks)]
    return BlockLayout.from_sizes((s, f"blk{i}") for i, s in enumerate(sizes))


def random_spd_block(rng, size, damping=0.1):
    g = rng.normal(size=(size + 2, size))
    a = g.T @ g / (size + 2) + damping * np.eye(size)
    return (a + a.T) / 2.0


def random_fisher(rng, layout, lam=1e-3, damping=0.1):
    """SPD F so that F + lam*I has well-understood conditioning."""
    return HeldFisher([random_spd_block(rng, size, damping)
                       for _, size, _ in layout.blocks], layout, lam)


def random_mask(rng, layout, k):
    d = layout.total_dim
    eligible = np.arange(d, dtype=np.int64)
    support = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
    return make_mask(d, k, eligible, support)


def random_instance(rng, max_block=24, k_cap=None):
    """(fisher, theta_p, mask) triple for OBS / certificate tests."""
    layout = random_layout(rng, max_block=max_block)
    d = layout.total_dim
    fisher = random_fisher(rng, layout)
    theta = ParamVector(values=rng.normal(size=d), layout=layout)
    k = int(rng.integers(1, max(2, (k_cap or d // 4) + 1)))
    mask = random_mask(rng, layout, min(k, d - 1))
    return fisher, theta, mask


def statement(mask, cap, t_int, layer_dims, sample_count=5):
    """Public inputs for ``mask`` over a Fisher of ``sample_count`` rows of
    a model of ``layer_dims``, split at the block cap ``cap``, with damping
    1e-3, both shifts 0 and all-zero commitment roots."""
    return PublicInputs(mask.digest, cap, tuple(layer_dims),
                        sample_count, 1e-3, 0, 0, 0, 0, 0, t_int)


def with_u(w, circuit):
    """``w`` with u recomputed from its factors and delta_w, as an honest
    prover would after changing either."""
    parts = factor_parts(circuit.spans, circuit.touched, circuit.layers,
                         w.factors, circuit.public.factor_shift, exact=True)
    slices = block_slices(circuit.sizes)
    dw = w.delta_w.astype(object)
    return replace(w, u=tuple(part.matvec(dw[slices[b]]) for b, part
                              in zip(circuit.touched, parts)))


def reference_residual(w, circuit):
    """Oracle: the integer stationarity residual R of every row of a
    touched block, by its definition G_b'(G_b dw_b) + n lam dw_b +
    n E lam_M, with G_b formed entry by entry from the factors scaled by
    2^-e, e the factor shift: a_r delta_c for a weight block and
    2^(f_f - e) delta_c for a bias block, and lam the damping scaled by
    2^-4e."""
    public = circuit.public
    n, dims, e = public.sample_count, public.layer_dims, public.factor_shift
    factors = dict(zip(circuit.layers, w.factors))
    lam = np.zeros(w.delta_w.size, dtype=object)
    lam[list(circuit.support)] = [
        n * int(x) * 2 ** (4 * FRAC_BITS_F + public.shift) for x in w.lam]
    damping = n * round(public.damping * 2.0 ** (4 * (FRAC_BITS_F - e)))
    rows = {}
    for b in circuit.touched:
        layer, bias, lo, hi = circuit.spans[b]
        a, d = factors[layer]
        dout = dims[layer + 1]
        g = np.empty((n, hi - lo), dtype=object)
        for j, col in enumerate(range(lo, hi)):
            for i in range(n):
                left = (2 ** (FRAC_BITS_F - e) if bias
                        else int(a[i, col // dout]))
                g[i, j] = left * int(d[i, col % dout])
        sl = block_slices(circuit.sizes)[b]
        dw = w.delta_w[sl].astype(object)
        r = g.T.dot(g.dot(dw)) + damping * dw + lam[sl]
        rows.update(zip(range(sl.start, sl.stop), r))
    return rows


def tag_over(statement_hash, public):
    """A mock proof tag by its documented formula: the sha256 of the
    domain, a circuit hash and the public inputs."""
    return sha256_hex(canonical_json({
        "domain": "veriforget-mock-proof-v1",
        "circuit_hash": statement_hash,
        "public": public.to_json(),
    }))


def small_dataset(rng, n=12, dim=4, classes=3, name="toy"):
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, classes, size=n).astype(np.int64)
    return Dataset(features=x, labels=y, name=name)


@pytest.fixture(scope="session")
def tiny_task():
    return make_synthetic_task(
        0, n_per_class=40, dim=4, n_classes=3, forget_class=2,
        n_personal_per_class=30,
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_task):
    return init_mlp([4, 8, 3], 0)
