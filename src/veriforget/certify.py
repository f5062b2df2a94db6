"""Plain-arithmetic KKT certificate checks and forgetting-gain bounds.

check_kkt re-evaluates the three linear identities (assembly, mask
feasibility, stationarity) that uniquely characterize the Group-OBS
solution; feasibility also holds the step to zero on every block the
mask does not touch, where the solution is exactly zero.  Stationarity
needs each damped curvature block only as a product with the step, on
the blocks where the step or a multiplier is nonzero.  For a Fisher
given by its recipe (every Fisher a command reads) it multiplies from
the layer factors of one backward pass, F_b dw_b = G_b'(G_b dw_b) / n
(``model.GradBlock.matvec``, then ``rmatvec``), a layer at a time as
the pass reaches it (``model.layer_grad_blocks``), forming neither G
nor a block; for a Fisher given by its blocks, as F_b dw_b + lam dw_b
from each square block.  It uses numpy alone: certifying loads no scipy.
forget_gain_report computes the quadratic-model quantities that bound
how much compensation on the unmasked coordinates can offset the
mask-induced forget-loss increase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import BlockFisher
from .masking import MaskArtifact
from .model import (
    Dataset,
    MlpModel,
    batch_grad,
    layer_grad_blocks,
    mean_loss,
    per_example_grads,
)
from .numkit import (
    NumericError,
    ParamVector,
    StructuralError,
    touched,
)
from .obs import CompensationResult

DEFAULT_TAU_REAL = 1e-6
DEFAULT_LAM_Q = 1e-3
MAX_EXACT_HESSIAN_DIM = 2000
FD_STEP = 1e-4  # relative step of exact_hessian's central differences


@dataclass(frozen=True)
class KktCertificate:
    inf_norms: tuple[float, float, float]
    tolerance: float
    verdict: bool

    def to_json(self) -> dict:
        return {
            "assembly_inf": self.inf_norms[0],
            "feasibility_inf": self.inf_norms[1],
            "stationarity_inf": self.inf_norms[2],
            "tolerance": self.tolerance,
            "verdict": "pass" if self.verdict else "fail",
        }


def _inf(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def check_kkt(
    theta_p: ParamVector,
    theta_u: ParamVector,
    comp: CompensationResult,
    c_p: BlockFisher,
    mask: MaskArtifact,
    tau_real: float = DEFAULT_TAU_REAL,
) -> KktCertificate:
    """Evaluate assembly, feasibility, and stationarity residuals; raise
    StructuralError unless the inputs share one dimension d and hold one
    multiplier per masked coordinate."""
    dims = {theta_p.dim, theta_u.dim, comp.delta_w.dim, c_p.layout.total_dim,
            mask.model_dim}
    if len(dims) != 1 or comp.multipliers.shape != (mask.budget,):
        raise StructuralError(
            f"dimensions {sorted(dims)} and {comp.multipliers.size} "
            f"multipliers for a mask of {mask.budget} coordinates")
    dw = comp.delta_w.values
    slices = [sl for sl, _ in c_p.layout.slices()]
    hit = set(touched([sl.stop - sl.start for sl in slices], mask.support))
    r_asm = theta_u.values - theta_p.values - dw
    r_feas = np.concatenate([dw[mask.support] + theta_p.values[mask.support],
                             *(dw[sl] for b, sl in enumerate(slices)
                               if b not in hit)])
    lam_full = np.zeros(theta_p.dim)
    lam_full[mask.support] = comp.multipliers
    # a block with no step and no multiplier has a residual of exactly 0
    moved = [b for b, sl in enumerate(slices) if dw[sl].any() or lam_full[sl].any()]
    r_stat = np.zeros(theta_p.dim)
    for b, product in zip(moved, _damped_products(c_p, theta_p, dw, moved)):
        r_stat[slices[b]] = product + lam_full[slices[b]]
    norms = (_inf(r_asm), _inf(r_feas), _inf(r_stat))
    return KktCertificate(
        inf_norms=norms,
        tolerance=tau_real,
        verdict=all(n <= tau_real for n in norms),
    )


def _damped_products(c_p: BlockFisher, theta_p: ParamVector, dw: np.ndarray,
                     blocks: list) -> list:
    """(F_b + lam I) dw_b for each block b of ``blocks``: from the layer
    factors of the Fisher's recipe, which must be taken at ``theta_p``,
    or from each block when it has no recipe."""
    slices = [sl for sl, _ in c_p.layout.slices()]
    recipe = c_p.recipe
    if recipe is None:
        def product(b, block):
            v = dw[slices[b]]
            return block @ v + c_p.lam * v

        return c_p.fisher.map(product, only=blocks)
    if not np.array_equal(recipe.model.params.values, theta_p.values):
        raise StructuralError("the Fisher is taken at another model than theta_p")
    n, products = len(recipe.rows), {b: None for b in blocks}
    # one layer's factors at a time, as the backward pass reaches it
    for layer in layer_grad_blocks(recipe.model, recipe.rows, recipe.block_cap):
        for b, _, part in layer:
            if b in products:
                v = dw[slices[b]]
                products[b] = part.rmatvec(part.matvec(v)) / n + c_p.lam * v
    return list(products.values())


# ---------------------------------------------------------------------------
# forgetting-gain bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForgetBudget:
    """Quadratic-model forgetting quantities on the forget-set.

    S_mask is the mask-only predicted loss increase; f_obs the
    contribution of the actual compensation; worst_case the most
    negative value any compensation could reach under damping.
    """

    s_mask: float
    b: np.ndarray
    q_min_eig: float
    u: np.ndarray
    v: np.ndarray
    f_obs: float
    f_obs_normform: float
    worst_case: float
    spectral_bound: float
    upper_bound: float
    guarantee_flag: bool
    predicted_delta_lf: float

    def to_json(self) -> dict:
        return {
            "s_mask": self.s_mask,
            "q_min_eig": self.q_min_eig,
            "f_obs": self.f_obs,
            "f_obs_normform": self.f_obs_normform,
            "worst_case": self.worst_case,
            "spectral_bound": self.spectral_bound,
            "upper_bound": self.upper_bound,
            "guarantee_flag": bool(self.guarantee_flag),
            "predicted_delta_lf": self.predicted_delta_lf,
            "u_norm": float(np.linalg.norm(self.u)),
            "v_norm": float(np.linalg.norm(self.v)),
        }


def exact_hessian(model: MlpModel, data: Dataset) -> np.ndarray:
    """Central finite differences of the analytic gradient, symmetrized."""
    d = model.dim
    if d > MAX_EXACT_HESSIAN_DIM:
        raise StructuralError(
            f"exact Hessian limited to d <= {MAX_EXACT_HESSIAN_DIM}, got {d}"
        )
    theta = model.params.values
    cols = np.empty((d, d))
    for i in range(d):
        h = FD_STEP * (1.0 + abs(theta[i]))
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        gp = batch_grad(model.with_params(tp), data).values
        gm = batch_grad(model.with_params(tm), data).values
        cols[:, i] = (gp - gm) / (2.0 * h)
    return 0.5 * (cols + cols.T)


def forget_gain_report(
    model: MlpModel,
    mask: MaskArtifact,
    comp: CompensationResult,
    d_f: Dataset,
    lam_q: float = DEFAULT_LAM_Q,
    hessian_mode: str = "exact",
) -> ForgetBudget:
    """Compute the mask gain, compensation contribution, and its bounds
    for the update ``comp`` of the personalized model ``model``.

    Each Hessian mode supplies a'H_mm a, H_cm a, a matrix with the 2-norm
    of H_cm, the eigenvalues of H_cc, and eigenvectors B of H_cc with
    their eigenvalues w and squared norms; the bounds apply powers of
    Q = H_cc + lam_q I through B and never form Q.
    """
    if len(d_f) == 0:
        raise StructuralError("empty forget set")
    theta_p = model.params
    g = batch_grad(model, d_f).values
    m_idx = mask.support
    c_idx = np.setdiff1d(np.arange(theta_p.dim), m_idx)
    a_m = theta_p.values[m_idx]
    if hessian_mode == "exact":
        h = exact_hessian(model, d_f)
        h_cm = h[np.ix_(c_idx, m_idx)]
        a_h_a, h_cm_a = a_m @ (h[np.ix_(m_idx, m_idx)] @ a_m), h_cm @ a_m
        w, basis = np.linalg.eigh(h[np.ix_(c_idx, c_idx)])
        spectrum, norm = w, np.ones_like(w)
    elif hessian_mode == "fisher":
        # H = G'G, G the per-example gradients over sqrt(n), is never formed,
        # nor any SVD of G_c: the n x n Gram G_c G_c' = U W U' gives
        # H_cc = B B' with B = G_c'U and B'B = W, so H_cc's eigenvalues are
        # the Gram's largest min(n, |C|) and 0 on the rest of C, and
        # H_cm = B U'G_m has the 2-norm of W^(1/2) U'G_m.
        grads = per_example_grads(model, d_f)
        grads /= np.sqrt(len(d_f))
        g_c, g_m = grads[:, c_idx], grads[:, m_idx]
        del grads  # hold one n x d matrix, split in two
        w, left = np.linalg.eigh(g_c @ g_c.T)
        np.maximum(w, 0.0, out=w)  # the Gram is PSD; below 0 is rounding
        basis = g_c.T @ left
        top = w[w.size - min(w.size, c_idx.size):]
        spectrum, norm = np.append(top, np.zeros(c_idx.size - top.size)), w
        g_a = g_m @ a_m
        a_h_a, h_cm_a = g_a @ g_a, g_c.T @ g_a
        h_cm = np.sqrt(w)[:, None] * (left.T @ g_m)
    else:
        raise ValueError(f"unknown hessian_mode {hessian_mode!r}")

    mu_min = float(spectrum.min() + lam_q)
    if not mu_min > 0:
        raise NumericError(
            f"Q has min eigenvalue {mu_min:.3e} <= 0; "
            f"increase the damping lam_q (currently {lam_q})"
        )

    def q_pow(p: float, x: np.ndarray) -> np.ndarray:
        """Q^p x through the columns b_i of B, each an eigenvector of H_cc
        at w_i of squared norm ``norm``: Q^p = lam_q^p I + sum_i b_i b_i'
        ((w_i + lam_q)^p - lam_q^p) / norm_i, the difference computed
        without cancellation and taken at its limit p lam_q^(p-1) where
        norm_i = w_i = 0, so a direction B leaves out, or holds at w = 0,
        is Q's at lam_q exactly.  For lam_q <= 0, Q is positive definite
        only if H_cc's |C| eigenvectors among the b_i span C, and Q^p is
        their sum at (w_i + lam_q)^p."""
        if lam_q > 0:
            c = lam_q**p * np.expm1(p * np.log1p(w / lam_q))
            c = np.divide(c, norm, out=np.full_like(c, p * lam_q ** (p - 1)),
                          where=norm != 0)
            return lam_q**p * x + basis @ (c * (basis.T @ x))
        top = slice(w.size - c_idx.size, None)
        c = (w[top] + lam_q) ** p / norm[top]
        return basis[:, top] @ (c * (basis[:, top].T @ x))

    s_mask = float(-g[m_idx] @ a_m + 0.5 * a_h_a)
    b = g[c_idx] - h_cm_a
    dw_c = comp.delta_w.values[c_idx]
    u = q_pow(-0.5, b)
    v = -q_pow(0.5, dw_c)  # v = Q^{1/2} A a_M with dw_c = -A a_M
    f_direct = float(b @ dw_c + 0.5 * dw_c @ q_pow(1.0, dw_c))
    u_n = float(np.linalg.norm(u))
    v_n = float(np.linalg.norm(v))
    h_cm_norm = float(np.linalg.norm(h_cm, 2)) if m_idx.size else 0.0
    spectral = float(
        (np.linalg.norm(g[c_idx]) + h_cm_norm * np.linalg.norm(a_m)) ** 2 / mu_min
    )
    return ForgetBudget(
        s_mask=s_mask,
        b=b,
        q_min_eig=mu_min,
        u=u,
        v=v,
        f_obs=f_direct,
        f_obs_normform=float(0.5 * np.linalg.norm(v - u) ** 2 - 0.5 * u_n**2),
        worst_case=float(-0.5 * u_n**2),
        spectral_bound=spectral,
        upper_bound=float(0.5 * v_n**2 + u_n * v_n),
        guarantee_flag=v_n >= 2.0 * u_n,
        predicted_delta_lf=s_mask + f_direct,
    )


def measured_forget_gap(
    theta_p: MlpModel,
    theta_u: MlpModel,
    d_f: Dataset,
    predicted: float,
) -> dict:
    """Actual forget-loss change vs. the quadratic-model prediction."""
    actual = mean_loss(theta_u, d_f) - mean_loss(theta_p, d_f)
    return {
        "actual_delta_lf": float(actual),
        "predicted_delta_lf": float(predicted),
        "cubic_remainder_gap": float(abs(actual - predicted)),
    }
