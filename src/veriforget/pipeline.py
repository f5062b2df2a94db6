"""The protocol's stages, shared by the staged CLI commands and
``run_pipeline``: pretrain, personalize, provider-side mask, client-side
Fisher + compensation, certificate checks, the ZK layer, and evaluation
against the retrain-then-personalize gold standard.  Each stage is one
function, here or, when it is one call, in the module that computes it
(the Fisher is ``curvature.empirical_fisher_blockwise``); a CLI command
loads its artifacts, calls the stage and saves the result, while
``run_pipeline`` chains the stages in memory, the gold standard in a
background worker beside the client's stages."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import zkp
from .certify import KktCertificate, check_kkt
from .curvature import BlockFisher, diag_curvature, empirical_fisher_blockwise
from .evals import EvalReport, evaluate, gold_standard
from .masking import (
    DEFAULT_BUDGET_FRACTION,
    MaskArtifact,
    SaliencyScores,
    hidden_weight_eligible,
    saliency_drift_report,
    saliency_scores,
    select_topk,
)
from .model import (
    Dataset,
    MlpModel,
    SyntheticTask,
    TrainConfig,
    batch_grad,
    init_mlp,
    make_synthetic_task,
    personalize,
    stream_rng,
    train_sgd,
)
from .numkit import StructuralError, blas_one_thread, fork_start
from .obs import CompensationResult, apply_unlearn, group_obs_solve

# Defaults of the demo pipeline, which the CLI options share.
DEFAULT_LAYERS = (8, 32, 4)
DEFAULT_PRETRAIN = TrainConfig(learning_rate=0.05, epochs=40, batch_size=32)
DEFAULT_PERSONALIZE = TrainConfig(learning_rate=0.03, epochs=12, batch_size=32)


@dataclass(frozen=True)
class PipelineConfig:
    mask_k: int
    layer_dims: tuple[int, ...] = DEFAULT_LAYERS
    pretrain: TrainConfig = DEFAULT_PRETRAIN
    personalize: TrainConfig = DEFAULT_PERSONALIZE
    run_zk: bool = True
    run_gold: bool = True


def demo_config(**overrides) -> PipelineConfig:
    """Desk-scale class-unlearning configuration used by the demo and the
    acceptance experiment: 8-32-4 MLP, forget one of four Gaussian
    classes, mask 160 of the 256 hidden-layer weights."""
    base = dict(mask_k=160)
    base.update(overrides)
    return PipelineConfig(**base)


@dataclass
class PipelineResult:
    task: SyntheticTask
    theta0_init: MlpModel
    theta0: MlpModel
    theta_p: MlpModel
    mask: MaskArtifact
    fisher: BlockFisher
    comp: CompensationResult
    theta_u: MlpModel
    certificate: KktCertificate
    drift_report: dict
    gold: MlpModel | None = None
    reports: dict[str, EvalReport] = field(default_factory=dict)
    witness: zkp.FixedWitness | None = None
    circuit: zkp.CertificateCircuit | None = None
    proof: zkp.Proof | None = None
    verified: bool | None = None
    randomness: tuple[int, int, int] | None = None


def synthetic_task(seed: int, layer_dims: tuple[int, ...]) -> SyntheticTask:
    """The built-in task for a model shape: forget the last class."""
    if layer_dims[-1] < 2:
        raise StructuralError(
            "the synthetic task forgets the model's last class, so the last "
            f"layer dim must be at least 2, not {layer_dims[-1]}"
        )
    return make_synthetic_task(
        seed,
        dim=layer_dims[0],
        n_classes=layer_dims[-1],
        forget_class=layer_dims[-1] - 1,
    )


def saliency_at(model: MlpModel, data: Dataset, seed: int) -> SaliencyScores:
    """Saliency of ``model``'s weights from its gradient and diagonal
    Fisher on ``data``."""
    g = batch_grad(model, data)
    c = diag_curvature(model, data, seed=seed)
    return saliency_scores(model.params, g, c)


def select_mask(
    theta0: MlpModel,
    d_f: Dataset,
    seed: int,
    k: int | None = None,
    frac: float = DEFAULT_BUDGET_FRACTION,
) -> tuple[MaskArtifact, SaliencyScores]:
    """Provider step: saliency at the pretrained weights, top-k support.
    Without ``k`` the budget is ``frac`` of the eligible coordinates."""
    scores = saliency_at(theta0, d_f, seed)
    eligible = hidden_weight_eligible(theta0.params.layout)
    if k is None:
        k = max(1, int(round(frac * eligible.size)))
    return select_topk(scores, k, eligible), scores


def compensate(
    theta_p: MlpModel, mask: MaskArtifact, fisher: BlockFisher
) -> tuple[CompensationResult, MlpModel]:
    """Client step: Group-OBS compensation; returns it and theta_u."""
    comp = group_obs_solve(fisher, theta_p.params, mask)
    theta_u = apply_unlearn(theta_p.params, comp, mask)
    return comp, theta_p.with_params(theta_u.values)


def mask_only_model(theta_p: MlpModel, mask: MaskArtifact) -> MlpModel:
    vals = theta_p.params.values.copy()
    vals[mask.support] = 0.0
    return theta_p.with_params(vals)


def run_zk_layer(
    theta_p: MlpModel,
    theta_u: MlpModel,
    comp: CompensationResult,
    fisher: BlockFisher,
    mask: MaskArtifact,
    seed: int,
    certificate: KktCertificate | None = None,
):
    """Encode the fixed-point witness, then commit, synthesize and prove.

    ``t_int``'s solver slack is the stationarity residual of these inputs'
    KKT certificate, computed here unless ``certificate`` is given.
    Returns (witness, circuit, proof, randomness), the public inputs being
    ``circuit.public``; raises StructuralError from ``check_kkt``, and
    ``zkp.UnsatisfiableWitnessError`` when the certificate fails or the
    prover rejects the witness.
    """
    cert = certificate or check_kkt(theta_p.params, theta_u.params, comp,
                                    fisher, mask)
    if not cert.verdict:
        raise zkp.UnsatisfiableWitnessError(
            f"KKT residuals (assembly, feasibility, stationarity) "
            f"{cert.inf_norms} exceed {cert.tolerance}")
    witness = zkp.encode_fixed_witness(
        theta_p.params, theta_u.params, comp.delta_w, comp.multipliers,
        fisher, mask)
    statement = zkp.PublicInputs(
        mask.digest, fisher.recipe.block_cap,
        theta_p.layer_dims, fisher.sample_count, float(fisher.lam),
        witness.shift, witness.factor_shift, 0, 0, 0,
        zkp.default_t_int(witness, fisher, mask, cert.inf_norms[2]))
    rng = stream_rng(seed, "commit")
    randomness = tuple(int(x) for x in rng.integers(0, 2**63, size=3))
    circuit, proof = zkp.MockBackend().prove(witness, mask, statement,
                                             randomness)
    return witness, circuit, proof, randomness


def run_pipeline(seed: int, cfg: PipelineConfig) -> PipelineResult:
    """Every stage in memory.  The gold standard needs only theta0_init
    and the task, so with ``run_gold`` it trains in one background worker
    (``numkit.fork_start``) while the client's stages run, and is
    collected before evaluation.  It forks only when the process may use
    more than one CPU and BLAS runs on one thread
    (``numkit.blas_one_thread``), and otherwise trains in-process when
    collected."""
    task = synthetic_task(seed, cfg.layer_dims)

    theta0_init = init_mlp(list(cfg.layer_dims), seed)

    def train_gold(_):
        return gold_standard(
            theta0_init,
            task.retain,
            task.personal,
            replace(cfg.pretrain, seed=seed),
            replace(cfg.personalize, seed=seed),
        ).params.values

    with fork_start(train_gold, int(cfg.run_gold),
                    blas_one_thread()) as pending_gold:
        theta0 = train_sgd(theta0_init, task.train,
                           replace(cfg.pretrain, seed=seed))
        theta_p = personalize(theta0, task.personal,
                              replace(cfg.personalize, seed=seed))

        mask, s0 = select_mask(theta0, task.forget, seed, k=cfg.mask_k)

        # diagnostic: how stable is the provider-side saliency under drift
        sp = saliency_at(theta_p, task.forget, seed)
        drift_l2 = float(np.linalg.norm(theta_p.params.values
                                        - theta0.params.values))
        drift = saliency_drift_report(
            s0, sp, mask.budget, mask.eligible, theta_drift_l2=drift_l2
        )

        fisher = empirical_fisher_blockwise(theta_p, task.personal, seed=seed)
        comp, theta_u = compensate(theta_p, mask, fisher)
        certificate = check_kkt(theta_p.params, theta_u.params, comp, fisher,
                                mask)

        result = PipelineResult(
            task=task,
            theta0_init=theta0_init,
            theta0=theta0,
            theta_p=theta_p,
            mask=mask,
            fisher=fisher,
            comp=comp,
            theta_u=theta_u,
            certificate=certificate,
            drift_report=drift,
        )

        if cfg.run_zk:
            (result.witness, result.circuit, result.proof,
             result.randomness) = run_zk_layer(
                theta_p, theta_u, comp, fisher, mask, seed,
                certificate=certificate,
            )
            result.verified = zkp.MockBackend().verify(result.proof,
                                                       result.circuit.public)

        if not cfg.run_gold:
            return result
        # rebuilt from its values, so that they are read-only as a model's
        gold = theta0_init.with_params(*pending_gold.result())

    result.gold = gold
    for name, model in (
        ("personalized", theta_p),
        ("mask_only", mask_only_model(theta_p, mask)),
        ("unlearned", theta_u),
        ("gold", gold),
    ):
        result.reports[name] = evaluate(
            model,
            gold,
            task.holdout_forget,
            task.holdout_personal,
            mia_members=task.forget,
            mia_nonmembers=task.holdout_forget,
            seeds=[seed],
        )
    return result
