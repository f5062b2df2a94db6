"""Fixed-point witness encoding for the certificate circuit.

Assembly and feasibility are made exact in integer arithmetic: theta_p
and the off-mask compensation are quantized first, then the masked
compensation entries and theta_u are *defined* from those integers.
All quantization slack therefore lands in the stationarity residual,
which the circuit checks against an integer tolerance window T_int.

Only the curvature blocks the mask touches enter the witness: Group-OBS
decouples by block, so a block with no masked coordinate has delta_w = 0
exactly, and the circuit states that instead of its stationarity rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..curvature import BlockFisher
from ..masking import MaskArtifact
from ..numkit import (
    NumericError,
    ParamVector,
    pack_upper,
    quantize,
    touched,
    unpack_upper,
)

# f_c exceeds f_w by more than 4 bits so that the honest stationarity
# residual window T_int stays below the detectability threshold of a
# single-coordinate multiplier tamper of 2^{-f_w+4} (which lands at
# 2^{f_c+4} integer units): the dominant honest error term is
# 2^{-f_c-1} * sum_j |dw_j|, so pushing f_c up shrinks it relative to
# the tamper signal while f_w + f_c stays within the 60-bit budget of an
# int64 product.  Like the bounds below, they are the circuit's, not the
# prover's: the circuit hash binds them.
FRAC_BITS_W = 22  # f_w
FRAC_BITS_C = 32  # f_c
# 2^(f_c + 4): the residual shift of a minimal single-coordinate
# multiplier tamper, which T_int must stay strictly below.
T_INT_THRESHOLD = 1 << (FRAC_BITS_C + 4)
# Magnitude limits of the statement: weights (theta_p, theta_u, delta_w),
# curvature entries and multipliers.  The circuit's range family checks
# them and its hash binds them, so they are constants, not prover inputs.
BOUND_W = 64.0
BOUND_LAM = 64.0
# The stationarity identity C dw + E lam = 0 is invariant under a joint
# scaling of C and lam, so the encoder normalizes both by a power of two
# until every row sum of a touched curvature block is at most BOUND_C;
# no honest entry then exceeds it.  The dominant honest residual term is
# (row sum)/2 in units of 2^{f_c}; capping row sums at 2 keeps it at
# 2^{f_c}, a factor 16 below the 2^{f_c+4} detectability threshold of
# the minimal multiplier tamper.  At f_c = 32 a curvature limb is 35
# bits, 7 to a field element; at 4 it would be 36 bits, 6 to an element.
BOUND_C = 2.0

# default_t_int's factor on the analytic honest residual bound.
T_INT_SLACK = 2


@dataclass(frozen=True)
class FixedWitness:
    """The integer witness: int64 arrays with FRAC_BITS_W fractional bits
    for the weight-side vectors, with FRAC_BITS_C for the damped triangles
    of the touched curvature blocks, one per block in layout order."""

    theta_p: np.ndarray
    theta_u: np.ndarray
    delta_w: np.ndarray
    lam: np.ndarray  # scaled like c_blocks, see BOUND_C
    c_blocks: tuple[np.ndarray, ...]


def damp(block: np.ndarray, lam: float) -> tuple[float, np.ndarray]:
    """The damped square block B + lam * I's largest absolute row sum and
    its upper triangle (``numkit.pack_upper``), the form it is committed
    in."""
    damped = block + 0  # -0.0 becomes +0.0, as the zeros of lam * I make it
    damped.flat[:: len(block) + 1] += lam
    return float(np.abs(damped).sum(axis=1).max()), pack_upper(damped)


def encode_fixed_witness(
    theta_p: ParamVector,
    theta_u: ParamVector,
    delta_w: ParamVector,
    lam: np.ndarray,
    c_p: BlockFisher,
    mask: MaskArtifact,
) -> FixedWitness:
    f_w = FRAC_BITS_W
    tp = quantize(theta_p.values, f_w, BOUND_W)
    dw = quantize(delta_w.values, f_w, BOUND_W)
    dw[mask.support] = -tp[mask.support]
    tu = tp + dw
    # theta_p and delta_w are each in range, but their sum off the mask
    # need not be
    over = np.abs(tu) > BOUND_W * 2.0**f_w
    if over.any():
        raise NumericError(f"theta_p + delta_w at [{int(np.argmax(over))}] "
                           f"exceeds the weight bound {BOUND_W}")
    # the float-side theta_u must agree with the constructed integers
    # within quantization error; a mismatch means inconsistent inputs
    if np.abs(tu * 2.0**-f_w - theta_u.values).max() > 2.0 ** (-f_w + 1):
        raise NumericError("theta_u inconsistent with theta_p + delta_w")
    sizes = [size for _, size, _ in c_p.layout.blocks]
    blocks = c_p.fisher.map(lambda _, block: damp(block, c_p.lam),
                            only=touched(sizes, mask.support))
    row_max = max([0.0] + [row for row, _ in blocks])
    # the least shift >= 0 with row_max * 2^-shift <= BOUND_C, exactly:
    # BOUND_C is a power of two, so the division rounds nothing, and
    # frexp's mantissa is 0.5 only on a power of two
    mantissa, exponent = math.frexp(row_max / BOUND_C)
    scale = 2.0 ** -max(exponent - (mantissa == 0.5), 0)
    c_blocks = []
    for i, (_, tri) in enumerate(blocks):
        # drop each float triangle as it is quantized, so that the next
        # int triangle can take its place on the heap
        blocks[i] = None
        c_blocks.append(quantize(tri * scale, FRAC_BITS_C, BOUND_C))
    return FixedWitness(
        theta_p=tp,
        theta_u=tu,
        delta_w=dw,
        lam=quantize(np.asarray(lam, dtype=np.float64) * scale, f_w, BOUND_LAM),
        c_blocks=tuple(c_blocks),
    )


def stationarity_bound_int(
    w: FixedWitness,
    c_p: BlockFisher,
    mask: MaskArtifact,
    solver_residual_inf: float = 0.0,
) -> int:
    """Analytic honest-residual bound, in 2^{-(f_w+f_c)} integer units.

    With per-entry rounding errors eps_w = 2^{-f_w-1} on the weight-side
    quantities and eps_c = 2^{-f_c-1} on the curvature entries, the
    integer stationarity residual of an honestly quantized witness obeys

      |r_i| <= sum_j |C_ij^int| / 2 + sum_j |dw_j^int| / 2 + d_b / 4
               + 2^{f_c - 1} + solver_residual * 2^{f_w + f_c}

    where the sums run over the block containing coordinate i.  Only the
    touched blocks have stationarity rows, and each holds a multiplier.
    """
    slices = [sl for sl, _ in c_p.layout.slices()]
    sizes = [sl.stop - sl.start for sl in slices]
    worst = 0.0
    for c_int, b in zip(w.c_blocks, touched(sizes, mask.support)):
        sl, d_b = slices[b], sizes[b]
        dw_sum = float(np.abs(w.delta_w[sl].astype(np.float64)).sum())
        row_sums = np.abs(unpack_upper(c_int, d_b).astype(np.float64)).sum(axis=1)
        block_worst = (
            0.5 * float(row_sums.max()) + 0.5 * dw_sum + 0.25 * d_b
            + 2.0 ** (FRAC_BITS_C - 1)
        )
        worst = max(worst, block_worst)
    worst += solver_residual_inf * 2.0 ** (FRAC_BITS_W + FRAC_BITS_C)
    return int(math.ceil(worst))


def default_t_int(
    w: FixedWitness,
    c_p: BlockFisher,
    mask: MaskArtifact,
    solver_residual_inf: float = 0.0,
) -> int:
    """Smallest power of two >= T_INT_SLACK * analytic honest bound,
    clamped strictly below the detectability threshold.

    The analytic bound already dominates every honestly quantized
    residual, so the factor only absorbs slack in the reported solver
    residual.  A minimal single-coordinate multiplier tamper of
    2^{-f_w+4} shifts the integer residual by 2^{f_c+4}; T_int must stay
    strictly below that so the tamper is always rejected.  When the
    power-of-two inflation would cross the threshold, fall back to half
    the threshold; if even the raw bound does not fit, the circuit's
    precision cannot separate this witness's honest noise from tampering.
    """
    bound = stationarity_bound_int(w, c_p, mask, solver_residual_inf)
    t_int = 1 << max(int(T_INT_SLACK * max(bound, 1)) - 1, 0).bit_length()
    if t_int >= T_INT_THRESHOLD:
        t_int = T_INT_THRESHOLD >> 1
    if bound >= t_int:
        raise NumericError(
            f"honest residual bound {bound} cannot be separated from the "
            f"minimal multiplier tamper at 2^{FRAC_BITS_C + 4}"
        )
    return t_int
