"""Group-OBS compensation: closed-form solve of the equality-constrained QP

    min 0.5 dw' C dw   s.t.  dw_M + theta_M = 0

with block-diagonal damped curvature C.  The solve decouples per block
and eliminates the masked coordinates, as Optimal Brain Surgeon does:
each block that holds a masked coordinate is reordered with its
unmasked coordinates U first and its masked ones M last and factored
once, C = L L' with L = [[L11, 0], [L21, L22]].  Then dw_M = -theta_M
exactly, dw_U = L11^-T L21' theta_M, and the multipliers are
lam_M = L22 L22' theta_M, the Schur complement of C_UU applied to
theta_M.  The solve reads only the upper triangle of such a block and
never forms or factors a block without a masked coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import BlockFisher
from .masking import MaskArtifact
from .numkit import (
    NumericError,
    ParamVector,
    StructuralError,
    scratch_squares,
    touched,
    upper_mask,
)

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
    """Closed-form KKT solution of the Group-OBS program, block by block:
    only the blocks that hold a masked coordinate are formed, each solved
    by the process that forms it (``BlockDiagMatrix.map``).  Its residuals
    are evaluated in one place, ``certify.check_kkt``."""
    # Imported on first use, in this process before any worker is forked:
    # scipy takes longer to load than most commands run.
    from scipy.linalg.blas import dtrmv
    from scipy.linalg.lapack import dpotrf, dtrtrs

    if mask.model_dim != theta_p.dim:
        raise StructuralError("mask dimension does not match parameters")
    if c_p.layout.total_dim != theta_p.dim:
        raise StructuralError("curvature dimension does not match parameters")
    theta = theta_p.values
    masked = mask.indicator()
    slices = list(c_p.layout.slices())
    hit = touched([sl.stop - sl.start for sl, _ in slices], mask.support)
    square, swap = scratch_squares(c_p.layout), scratch_squares(c_p.layout)

    def solve(i, tri):
        """Block i's (dw_b, lam_b)."""
        sl, label = slices[i]
        is_m = masked[sl]
        mloc = np.flatnonzero(is_m)
        d_b = sl.stop - sl.start
        ku = d_b - mloc.size
        order = np.concatenate([np.flatnonzero(~is_m), mloc])
        # F + lam*I in the upper triangle of a C-order square, damped as
        # unpack_upper damps it, then reordered to (U, M); a (u, m) entry
        # with m < u lands below the diagonal and is folded back above it
        sq, tmp = square(d_b), swap(d_b)
        sq.fill(0.0)
        sq[upper_mask(d_b)] = tri
        sq += 0
        sq.flat[:: d_b + 1] += c_p.lam
        # "clip" takes the indices as "raise" does; "raise" copies via a buffer
        np.take(sq, order, axis=0, out=tmp, mode="clip")
        np.take(tmp, order, axis=1, out=sq, mode="clip")
        sq[:ku, ku:] += sq[ku:, :ku].T
        # the transpose is the Fortran-order lower triangle potrf reads:
        # L = [[L11, 0], [L21, L22]] with C_UU = L11 L11'
        low, info = dpotrf(sq.T, lower=1, overwrite_a=1, clean=0)
        if info > 0:
            raise NumericError(
                f"block {label!r} is not SPD: its Cholesky pivot at "
                f"coordinate {sl.start + order[info - 1]} is not positive")
        w_m = theta[sl][mloc]
        t = np.zeros(d_b)
        t[ku:] = w_m
        t = dtrmv(low, t, lower=1, trans=1)  # [L21' w_M; L22' w_M]
        dw_b = np.zeros(d_b)
        dw_b[mloc] = -w_m
        if ku:
            # dw_U = -C_UU^-1 C_UM dw_M; low[:, :ku] holds L11 at lda = d_b
            x, _ = dtrtrs(low[:, :ku], t[:ku, None], lower=1, trans=1)
            dw_b[order[:ku]] = x[:, 0]
        t[:ku] = 0.0
        # lam_M = (C_MM - C_MU C_UU^-1 C_UM) w_M = L22 L22' w_M
        return dw_b, dtrmv(low, t, lower=1)[ku:]

    delta = np.zeros(theta_p.dim)
    multipliers = [np.empty(0)]
    for i, (dw_b, lam_b) in zip(hit, c_p.fisher.map(solve, only=hit)):
        # multipliers aligned to global sorted support: blocks are in
        # layout order, so per-block masked coords are already ordered
        delta[slices[i][0]] = dw_b
        multipliers.append(lam_b)
    return CompensationResult(
        delta_w=theta_p.with_values(delta),
        multipliers=np.concatenate(multipliers),
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

