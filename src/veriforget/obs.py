"""Group-OBS compensation: closed-form solve of the equality-constrained QP

    min 0.5 dw' C dw   s.t.  dw_M + theta_M = 0

with block-diagonal damped curvature C.  The solve decouples per block
through the k_b x k_b Schur complement of the masked columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import BlockFisher
from .masking import MaskArtifact
from .numkit import NumericError, ParamVector, StructuralError

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class CompensationResult:
    delta_w: ParamVector  # includes the -theta_M components on M
    multipliers: np.ndarray  # aligned to sorted mask support
    method: str  # always "schur"; kept in the comp artifact format

    def __post_init__(self):
        lam = np.ascontiguousarray(self.multipliers, dtype=np.float64)
        lam.setflags(write=False)
        object.__setattr__(self, "multipliers", lam)
        if not np.all(np.isfinite(lam)):
            raise StructuralError("non-finite multipliers")
        if self.method != "schur":
            raise ValueError(f"unknown method {self.method!r}")


def group_obs_solve(
    c_p: BlockFisher,
    theta_p: ParamVector,
    mask: MaskArtifact,
) -> CompensationResult:
    """Closed-form KKT solution of the Group-OBS program, block by block.
    Its residuals are evaluated in one place, ``certify.check_kkt``."""
    # Imported on first use: scipy takes longer to load than most commands run.
    from scipy.linalg import cho_factor, cho_solve

    if mask.model_dim != theta_p.dim:
        raise StructuralError("mask dimension does not match parameters")
    if c_p.layout.total_dim != theta_p.dim:
        raise StructuralError("curvature dimension does not match parameters")
    theta = theta_p.values
    masked = mask.indicator()
    delta = np.zeros(theta_p.dim)
    multipliers = np.empty(mask.budget)
    for damped, (sl, label) in zip(c_p.damped_blocks(), c_p.layout.slices()):
        mloc = np.flatnonzero(masked[sl])
        if mloc.size == 0:
            continue
        d_b = damped.shape[0]
        rhs = np.zeros((d_b, mloc.size))
        rhs[mloc, np.arange(mloc.size)] = 1.0
        try:
            c = cho_factor(damped, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"block {label!r} is not SPD: {exc}") from exc
        x = cho_solve(c, rhs)  # K E_M per block
        schur = x[mloc, :]  # E' K E, SPD for SPD C
        schur = 0.5 * (schur + schur.T)
        w_m = theta[sl][mloc]
        try:
            sc = cho_factor(schur, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"singular Schur complement in block {label!r}: {exc}"
            ) from exc
        lam_b = cho_solve(sc, w_m)
        dw_b = -x @ lam_b
        delta[sl] = dw_b
        # multipliers aligned to global sorted support: blocks are in
        # layout order, so per-block masked coords are already ordered
        global_idx = sl.start + mloc
        positions = np.searchsorted(mask.support, global_idx)
        multipliers[positions] = lam_b
    feas = delta[mask.support] + theta[mask.support]
    if feas.size and np.abs(feas).max() > FEASIBILITY_TOL:
        raise NumericError(
            f"feasibility residual {np.abs(feas).max():.3e} exceeds "
            f"{FEASIBILITY_TOL}"
        )
    return CompensationResult(
        delta_w=theta_p.with_values(delta),
        multipliers=multipliers,
        method="schur",
    )


def apply_unlearn(
    theta_p: ParamVector,
    comp: CompensationResult,
    mask: MaskArtifact,
) -> ParamVector:
    """theta_u = theta_p + delta_w, with the masked coordinates set to 0.

    Floating residue up to 1e-9 on M is clamped to an exact zero; a
    larger residue means the compensation is infeasible for this mask.
    """
    if comp.delta_w.dim != theta_p.dim or mask.model_dim != theta_p.dim:
        raise StructuralError("dimension mismatch in apply_unlearn")
    out = theta_p.values + comp.delta_w.values
    residue = out[mask.support]
    if residue.size and np.abs(residue).max() > FEASIBILITY_TOL:
        idx = mask.support[int(np.argmax(np.abs(residue)))]
        raise NumericError(
            f"|theta_p + delta_w| = {np.abs(residue).max():.3e} at masked "
            f"coordinate {idx}; compensation infeasible for this mask"
        )
    out[mask.support] = 0.0
    return theta_p.with_values(out)

