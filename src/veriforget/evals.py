"""Unlearning-quality evaluation: accuracy, forward-KL alignment to the
retrain-then-personalize gold standard, and a loss-threshold membership
inference attack."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    Dataset,
    MlpModel,
    TrainConfig,
    check_fits,
    per_example_losses,
    personalize,
    predictive_dist,
    train_sgd,
)
from .numkit import StructuralError, tree_mean

PROB_FLOOR = 1e-12


def forward_kl_alignment(
    model_a: MlpModel, model_b: MlpModel, data: Dataset
) -> float:
    """Mean forward KL between the two models' predictive distributions."""
    if len(data) == 0:
        raise StructuralError("empty dataset")
    if model_a.layer_dims != model_b.layer_dims:
        raise StructuralError("architectures differ")
    pa = np.clip(predictive_dist(model_a, data.features), PROB_FLOOR, None)
    pb = np.clip(predictive_dist(model_b, data.features), PROB_FLOOR, None)
    kls = (pa * (np.log(pa) - np.log(pb))).sum(axis=1)
    return float(tree_mean(kls))


def gold_standard(
    init: MlpModel,
    d_r: Dataset,
    d_p: Dataset,
    cfg_r: TrainConfig,
    cfg_p: TrainConfig,
) -> MlpModel:
    """Exact-unlearning counterfactual: retrain on D_r, then personalize."""
    if len(d_r) == 0:
        raise StructuralError("empty retain set")
    retrained = train_sgd(init, d_r, cfg_r)
    return personalize(retrained, d_p, cfg_p)


def evaluate_accuracy(model: MlpModel, data: Dataset) -> float:
    """Top-1 accuracy, argmax ties broken to the lowest class index."""
    if len(data) == 0:
        raise StructuralError("empty dataset")
    pred = np.argmax(predictive_dist(model, data.features), axis=1)
    return float(np.mean(pred == data.labels))


def mia_auc(model: MlpModel, members: Dataset, nonmembers: Dataset) -> float:
    """AUC of per-example loss separating members (lower) from nonmembers.

    Exact Mann-Whitney AUC with ties counted one half.  Each nonmember
    loss scores the members strictly below it plus half those equal to
    it, so U is a sum of half-integers: exact in floating point, and
    equal to the midrank formula's value.
    """
    if len(members) == 0 or len(nonmembers) == 0:
        raise StructuralError("both member and nonmember sets must be non-empty")
    lm = np.sort(per_example_losses(model, members))
    ln = per_example_losses(model, nonmembers)
    below = np.searchsorted(lm, ln, side="left")
    not_above = np.searchsorted(lm, ln, side="right")
    # members score lower -> AUC = P(loss_nonmember > loss_member)
    u = below.sum() + 0.5 * (not_above - below).sum()
    return float(u / (lm.size * ln.size))


@dataclass
class EvalReport:
    forget_acc: float
    personal_acc: float
    align_personal: float  # mean forward KL to gold on D_p
    align_forget: float  # mean forward KL to gold on D_f
    mia: float
    seeds: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "forget_acc": self.forget_acc,
            "personal_acc": self.personal_acc,
            "align_personal": self.align_personal,
            "align_forget": self.align_forget,
            "mia_auc": self.mia,
            "seeds": self.seeds,
        }


def evaluate(
    model: MlpModel,
    gold: MlpModel,
    forget: Dataset,
    personal: Dataset,
    mia_members: Dataset,
    mia_nonmembers: Dataset,
    seeds: list | None = None,
) -> EvalReport:
    """The report of ``model`` against ``gold``.  Each set must fit the
    model (StructuralError): the accuracy and alignment sets are checked
    here, the membership sets where ``mia_auc`` computes their losses."""
    for data in (forget, personal):
        check_fits(model, data)
    return EvalReport(
        forget_acc=evaluate_accuracy(model, forget),
        personal_acc=evaluate_accuracy(model, personal),
        align_personal=forward_kl_alignment(model, gold, personal),
        align_forget=forward_kl_alignment(model, gold, forget),
        mia=mia_auc(model, mia_members, mia_nonmembers),
        seeds=seeds or [],
    )
