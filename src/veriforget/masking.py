"""Provider-side saliency scoring, top-k mask selection, and drift report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import DiagCurvature
from .numkit import (
    BlockLayout,
    ParamVector,
    StructuralError,
    canonical_json,
    check_ints,
    sha256_hex,
)

DEFAULT_BUDGET_FRACTION = 0.04


@dataclass(frozen=True)
class SaliencyScores:
    scores: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(self.scores, dtype=np.float64)
        s.setflags(write=False)
        object.__setattr__(self, "scores", s)
        if not np.all(np.isfinite(s)):
            raise StructuralError("non-finite saliency scores")

    @property
    def dim(self) -> int:
        return self.scores.size


def _ranges_from_indexset(indices: np.ndarray) -> list[list[int]]:
    """Compress a sorted index set into half-open [lo, hi) ranges."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return []
    # a run ends wherever the next index is not one more than this one
    ends = np.flatnonzero(np.diff(indices) != 1)
    lo = indices[np.concatenate(([0], ends + 1))]
    hi = indices[np.append(ends, indices.size - 1)] + 1
    return np.stack([lo, hi], axis=1).tolist()


def _mask_body(d: int, k: int, eligible: np.ndarray, support: np.ndarray) -> dict:
    """A mask's contents, as its file holds them and its digest hashes them."""
    return {
        "d": int(d),
        "k": int(k),
        "eligible_ranges": _ranges_from_indexset(eligible),
        "support": [int(i) for i in support],
    }


def mask_digest(d: int, k: int, eligible: np.ndarray, support: np.ndarray) -> str:
    return sha256_hex(canonical_json(_mask_body(d, k, eligible, support)))


@dataclass(frozen=True)
class MaskArtifact:
    """Public traceability artifact: the support M of the zeroed coordinates."""

    support: np.ndarray  # sorted, unique
    budget: int
    model_dim: int
    eligible: np.ndarray  # sorted, unique
    digest: str

    def __post_init__(self):
        m = np.ascontiguousarray(self.support, dtype=np.int64)
        e = np.ascontiguousarray(self.eligible, dtype=np.int64)
        m.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "support", m)
        object.__setattr__(self, "eligible", e)
        if m.size != self.budget:
            raise StructuralError("|support| != budget")
        if m.size and (m.min() < 0 or m.max() >= self.model_dim):
            raise StructuralError("support index out of range")
        if np.any(np.diff(m) <= 0):
            raise StructuralError("support must be sorted and unique")
        if np.any(np.diff(e) <= 0):
            raise StructuralError("eligible must be sorted and unique")
        if m.size and not np.all(np.isin(m, e)):
            raise StructuralError("support not contained in eligible set")
        expected = mask_digest(self.model_dim, self.budget, e, m)
        if self.digest != expected:
            raise StructuralError("mask digest does not bind its contents")

    def indicator(self) -> np.ndarray:
        m = np.zeros(self.model_dim, dtype=bool)
        m[self.support] = True
        return m

    def to_json(self) -> dict:
        return {**_mask_body(self.model_dim, self.budget, self.eligible,
                             self.support), "digest": self.digest}

    @classmethod
    def from_json(cls, obj: dict) -> "MaskArtifact":
        check_ints("mask d, k, support and eligible ranges",
                   (obj["d"], obj["k"], *obj["support"],
                    *(x for r in obj["eligible_ranges"] for x in r)))
        # each range bounded before any is expanded, so that one of 10^13
        # coordinates is refused rather than allocated
        start = 0
        for r in obj["eligible_ranges"]:
            if len(r) != 2 or not start <= r[0] < r[1] <= obj["d"]:
                raise StructuralError(f"eligible range {r} is not a non-empty "
                                      f"range within [{start}, {obj['d']})")
            start = r[1]
        eligible = np.concatenate(
            [np.arange(lo, hi) for lo, hi in obj["eligible_ranges"]]
        ) if obj["eligible_ranges"] else np.empty(0, dtype=np.int64)
        return cls(
            support=np.asarray(obj["support"], dtype=np.int64),
            budget=obj["k"],
            model_dim=obj["d"],
            eligible=eligible,
            digest=obj["digest"],
        )


def make_mask(d: int, k: int, eligible: np.ndarray, support: np.ndarray) -> MaskArtifact:
    eligible = np.sort(np.asarray(eligible, dtype=np.int64))
    support = np.sort(np.asarray(support, dtype=np.int64))
    return MaskArtifact(
        support=support,
        budget=int(k),
        model_dim=int(d),
        eligible=eligible,
        digest=mask_digest(d, k, eligible, support),
    )


def hidden_weight_eligible(layout: BlockLayout) -> np.ndarray:
    """Hidden-layer weight coordinates: excludes biases and the output layer."""
    weight_labels = [l for l in layout.labels if l.endswith(".w")]
    if not weight_labels:
        raise StructuralError("layout has no weight blocks")
    last = weight_labels[-1]
    parts = []
    for sl, label in layout.slices():
        if label.endswith(".w") and label != last:
            parts.append(np.arange(sl.start, sl.stop, dtype=np.int64))
    if not parts:
        raise StructuralError("no hidden-layer weight blocks to mask")
    return np.concatenate(parts)


def saliency_scores(
    theta: ParamVector,
    g_f: ParamVector,
    c_f: DiagCurvature,
) -> SaliencyScores:
    """Per-coordinate predicted forget-loss gain from zeroing each weight.

    S_i = -g_i * theta_i + 0.5 * c_i * theta_i^2
    """
    if g_f.dim != theta.dim or c_f.diag.size != theta.dim:
        raise StructuralError("saliency operand lengths differ")
    t = theta.values
    s = -g_f.values * t + 0.5 * c_f.diag * t * t
    return SaliencyScores(scores=s)


def select_topk(S: SaliencyScores, k: int, eligible: np.ndarray) -> MaskArtifact:
    """The k eligible indices with the largest scores; ties to lower index."""
    eligible = np.sort(np.asarray(eligible, dtype=np.int64))
    if k > eligible.size:
        raise StructuralError(f"k = {k} exceeds eligible size {eligible.size}")
    cand = S.scores[eligible]
    # lexsort: primary key last; descending score, ascending index on ties
    order = np.lexsort((eligible, -cand))
    support = eligible[order[:k]]
    return make_mask(S.dim, k, eligible, support)


def saliency_drift_report(
    s0: SaliencyScores,
    sp: SaliencyScores,
    k: int,
    eligible: np.ndarray | None = None,
    theta_drift_l2: float = 0.0,
) -> dict:
    """Diagnostic overlap between pretrained- and personalized-anchor masks."""
    if s0.dim != sp.dim:
        raise StructuralError("score lengths differ")
    if eligible is None:
        eligible = np.arange(s0.dim, dtype=np.int64)
    m0 = set(select_topk(s0, k, eligible).support.tolist())
    mp = set(select_topk(sp, k, eligible).support.tolist())
    overlap = len(m0 & mp) / k if k > 0 else 1.0
    return {
        "topk_overlap": overlap,
        "max_score_diff": float(np.abs(s0.scores - sp.scores).max()),
        "theta_drift_l2": float(theta_drift_l2),
        "k": int(k),
    }
