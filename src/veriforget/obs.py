"""Group-OBS compensation: closed-form solve of the equality-constrained QP

    min 0.5 dw' C dw   s.t.  dw_M + theta_M = 0

with block-diagonal damped curvature C = F + lam I, F_b = G_b'G_b / n on
block b, G_b the n x s_b gradient columns of the Fisher's n rows.  The
solve decouples per block; a block without a masked coordinate has
dw_b = 0 and is never formed.  A block that holds one, with masked
coordinates M and unmasked ones U, is solved in one of two spaces, which
give the same solution up to rounding.

Coordinate space.  As Optimal Brain Surgeon does, the block is reordered
with U first and M last and factored once, C = L L' with
L = [[L11, 0], [L21, L22]].  Then dw_M = -theta_M exactly,
dw_U = L11^-T L21' theta_M, and the multipliers are
lam_M = L22 L22' theta_M, the Schur complement of C_UU applied to
theta_M.  Cost: forming the block, O(n s_b^2), and its Cholesky,
s_b^3 / 3.

Sample space (when ``sample_space(n, s_b)``).  By the push-through
identity

    C_UU^-1 C_UM theta_M = G_U'(G_U G_U' + n lam I)^-1 G_M theta_M,

with y = G_M theta_M and K = G_U G_U' + n lam I, one n x n Cholesky gives
z = K^-1 y, and dw_U = G_U'z, dw_M = -theta_M.  Since
G_b dw_b = G_U G_U'z - y = -n lam z, the multipliers need no second
solve: lam_M = -(C dw)_M = lam (G_M'z + theta_M), the Schur complement
(at least lam I) applied to theta_M, so the sum does not cancel.  K is
built once, by BLAS syrk from the layer's K-FAC factors, as the lower
triangle potrf factors in place (``model.GradBlock.sample_gram``):
(A_R A_R') o (Delta Delta') over the rows R of W the block covers whole,
plus each partial row's Gram, less G_M G_M', plus n lam I.  A process
holds two n x n squares, K and its layer's Delta Delta'; G'z =
A' diag(z) Delta.  A refinement step, on the residual of K z = y through
the factors, recovers what subtracting G_M G_M' rounded away.  When
n > |U|, K is rank |U| plus n lam I, so the damping sets its
conditioning, as it sets C's.  Cost: n^2 (rows + |M|) / 2 multiply-adds
for K and n^3 / 6 for its Cholesky.

The crossover (``SAMPLE_SPACE_RATIO``), on 2 vCPU with one BLAS thread in
one process (32-256-128-8 model, 16 touched parts of mlp.1.w with 6
masked coordinates each, backward pass and Delta Delta' counted in):
sample-space over coordinate-space time per block, at (n, s_b), was
0.50 (560, 512), 0.78 (720, 512), 0.96 (800, 512), 1.10 (880, 512);
0.51 (240, 256), 0.78 (320, 256), 0.93 (360, 256), 1.07 (400, 256).
The sample form pays up to about 1.45 s_b at s_b = 256 and 1.6 s_b at
512; the ratio, 1.25, lies below both, and no benchmark shape falls
between.  The demo's (240, 256) and staged-wide's (560, 512) are solved
in sample space; the staged chain at the default cap of 256
(n = 2.19 s_b) and any Fisher over 1,024 rows, in coordinate space.
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
    check_block,
    fork_blocks,
    scratch_squares,
    touched,
    triangle_entries,
)

FEASIBILITY_TOL = 1e-9
# The largest n / s_b solved in sample space (module docstring: crossover)
SAMPLE_SPACE_RATIO = 1.25


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


def sample_space(n: int, size: int) -> bool:
    """Whether a block of ``size`` coordinates of a Fisher over n rows is
    solved in sample space: whether n <= SAMPLE_SPACE_RATIO * size."""
    return n <= SAMPLE_SPACE_RATIO * size


def solve_spaces(c_p: BlockFisher, support) -> tuple[tuple, set]:
    """The blocks the sorted ``support`` touches, in layout order, and the
    set of those solved in sample space."""
    sizes = [size for _, size, _ in c_p.layout.blocks]
    hit = touched(sizes, support)
    return hit, {i for i in hit if sample_space(c_p.sample_count, sizes[i])}


def group_obs_solve(
    c_p: BlockFisher,
    theta_p: ParamVector,
    mask: MaskArtifact,
) -> CompensationResult:
    """Closed-form KKT solution of the Group-OBS program, block by block:
    only the blocks that hold a masked coordinate are solved, each by the
    process that reaches it (``numkit.fork_blocks``), in the space
    ``solve_spaces`` picks.  Its residuals are evaluated in one place,
    ``certify.check_kkt``."""
    # Imported on first use, in this process before any worker is forked:
    # scipy takes longer to load than most commands run.
    from scipy.linalg.blas import dsyrk, dtrmv
    from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

    if mask.model_dim != theta_p.dim:
        raise StructuralError("mask dimension does not match parameters")
    if c_p.layout.total_dim != theta_p.dim:
        raise StructuralError("curvature dimension does not match parameters")
    theta = theta_p.values
    masked = mask.indicator()
    slices = list(c_p.layout.slices())
    sizes = [sl.stop - sl.start for sl, _ in slices]
    hit, sampled = solve_spaces(c_p, mask.support)
    square, swap = scratch_squares(c_p.layout), scratch_squares(c_p.layout)

    def solve(i, block):
        """Block i's (dw_b, lam_b) in coordinate space, from the block."""
        sl, label = slices[i]
        is_m = masked[sl]
        mloc = np.flatnonzero(is_m)
        d_b = sl.stop - sl.start
        ku = d_b - mloc.size
        order = np.concatenate([np.flatnonzero(~is_m), mloc])
        # F reordered to (U, M), its rows and then its columns, and damped
        # to F + lam*I; -0.0 becomes +0.0, as the zeros of lam*I make it.
        # "clip" takes the indices as "raise" does; "raise" copies via a buffer
        sq, tmp = square(d_b), swap(d_b)
        np.take(block, order, axis=0, out=tmp, mode="clip")
        np.take(tmp, order, axis=1, out=sq, mode="clip")
        sq += 0
        sq.flat[:: d_b + 1] += c_p.lam
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

    n = c_p.sample_count
    layer = [None]  # the errors whose Delta Delta' ``outer`` holds

    def sample_solve(i, part, outer, gram):
        """Block i's (dw_b, lam_b) in sample space, from its factors."""
        sl, label = slices[i]
        mloc = np.flatnonzero(masked[sl])
        w_m = theta[sl][mloc]
        if part.a_prev is not None and layer[0] is not part.delta:
            dsyrk(1.0, part.delta.T, c=outer, trans=1, lower=1,
                  overwrite_c=1)
            layer[0] = part.delta
        # K = G_U G_U' + n lam I = G G' - G_M G_M' + n lam I, its lower
        # triangle; the diagonal is one stride of the C-order transpose
        g_m = part.columns_at(mloc)
        part.sample_gram(outer, out=gram)
        dsyrk(-1.0, g_m.T, beta=1.0, c=gram, trans=1, lower=1,
              overwrite_c=1)
        gram.T.flat[:: n + 1] += n * c_p.lam
        low, info = dpotrf(gram, lower=1, overwrite_a=1, clean=0)
        if info > 0:
            raise NumericError(
                f"block {label!r} is not SPD: its sample-space Cholesky "
                f"pivot at row {info - 1} is not positive")
        y = g_m @ w_m
        z, _ = dpotrs(low, y, lower=1)  # K^-1 G_M theta_M
        # one step of refinement through the factors (module docstring)
        h = part.rmatvec(z)
        h[mloc] = 0.0
        rho = y - part.matvec(h) - n * c_p.lam * z
        z += dpotrs(low, rho, lower=1)[0]
        # dw_U = G_U' z, lam_M = lam (G_M' z + theta_M) (module docstring)
        dw_b = part.rmatvec(z)
        lam_b = c_p.lam * (dw_b[mloc] + w_m)
        dw_b[mloc] = -w_m
        return dw_b, lam_b

    def ready():
        side = (n, n) if sampled else (0, 0)
        # Delta Delta', ones above its diagonal (``sample_gram``), and K
        return (*c_p.ready(), np.ones(side, order="F"),
                np.zeros(side, order="F"))

    def task(state, i):
        parts, block, outer, gram = state
        if i in sampled:
            return sample_solve(i, parts[i], outer, gram)
        # formed in ``square``: solve reads it once, into ``swap``
        out = block(i, square(sizes[i]))
        return solve(i, check_block(out, sizes[i], slices[i][1]))

    results = fork_blocks(ready, task, hit, [
        triangle_entries(n if i in sampled else sizes[i]) for i in hit])

    delta = np.zeros(theta_p.dim)
    multipliers = [np.empty(0)]
    for i, (dw_b, lam_b) in zip(hit, results):
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

