"""Fixed-point witness encoding for the certificate circuit.

Assembly and feasibility are made exact in integer arithmetic: theta_p
and the off-mask compensation are quantized first, then the masked
compensation entries and theta_u are *defined* from those integers.
All quantization slack therefore lands in the stationarity residual,
which the circuit checks against an integer tolerance window T_int.

Only the blocks the mask touches have stationarity rows (Group-OBS
decouples by block).  The blocks are the model's split at the Fisher's
block cap (``model.column_blocks``), which the statement derives from the
cap it names, and no curvature block is formed: a touched block's
Fisher is G_b'G_b / n with rows a_i (x) delta_i (``model.GradBlock``), so
the witness holds the layer factors, input activations A (n x din) and
output errors Delta (n x dout), of each layer that holds a touched block,
from one backward pass over the Fisher's rows.  The layer factors are a
free witness: no constraint derives them from theta_p or the data.
Stationarity is homogeneous: factors scaled by 2^-e scale G'G by 2^-4e,
and the damping and multipliers scaled alike keep it, so the factors are
scaled into BOUND_F by the least such e, the public ``factor_shift``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..curvature import BlockFisher
from ..masking import MaskArtifact
from ..model import GradBlock, column_blocks, layer_grad_blocks
from ..numkit import (
    NumericError,
    ParamVector,
    block_slices,
    quantize,
    touched,
)

# Fractional bits and magnitude limits, the circuit's and not the
# prover's: the range family checks the limits and the circuit hash binds
# them.  Both factors, A and Delta, are held at 40 bits, the most
# ``numkit.quantize`` takes, after the public scaling by 2^-factor_shift
# that brings them within BOUND_F: an entry of G_b is then off by at most
# (max|A| + max|Delta|) 2^-41, under 0.1% of the step's rounding in the
# honest residual on the demo's and the 4-8-3 shapes.
FRAC_BITS_W = 22  # f_w
FRAC_BITS_F = 40  # f_f: A and Delta, so an entry a_r delta_c of G_b at 2 f_f
BOUND_W = 64.0
BOUND_LAM = 64.0  # the multipliers, and the damping scaled as they are
BOUND_F = 64.0
# t_int bounds the residual R / n in units of 2^(shift - f_w - FRAC_BITS_T),
# and a multiplier tamper of 16 units, 2^(shift - f_w + 4), moves it by
# T_INT_THRESHOLD.  The shift is the least >= 0 that brings the row-sum
# bound S (``_row_sum_bound``) within ROW_SUM_CAP, so the honest rounding
# terms are at most 2^FRAC_BITS_T units, 16 times below the threshold.
# An honest S is at most s_b BOUND_F^4 plus the scaled damping, so
# MAX_SHIFT admits blocks of up to 2^17 columns at the factors' bound,
# and keeps residuals below p/2.
FRAC_BITS_T = 32
T_INT_THRESHOLD = 1 << (FRAC_BITS_T + 4)
ROW_SUM_CAP = 2.0
MAX_SHIFT = 40


@dataclass(frozen=True)
class FixedWitness:
    """The integer witness: the weight-side vectors and the multipliers
    scaled by 2^-(4 factor_shift + shift) at f_w bits, the factors (A,
    Delta) of each touched layer scaled by 2^-factor_shift at f_f bits and
    u_b = G_b dw_b of each touched block, in order; both shifts public."""

    theta_p: np.ndarray
    theta_u: np.ndarray
    delta_w: np.ndarray
    lam: np.ndarray
    factors: tuple[tuple[np.ndarray, np.ndarray], ...]
    u: tuple[np.ndarray, ...]
    shift: int
    factor_shift: int


def factor_parts(spans, blocks, layers, factors, factor_shift,
                 exact=False) -> list:
    """The ``model.GradBlock`` of each block of ``blocks`` over the factors
    (A, Delta) of its layer, ``factors`` being those of ``layers`` scaled by
    2^-factor_shift (a bias block's A is ones, scaled alike); ``exact``:
    over integer factors at f_f bits as Python ints."""
    one = (1 << (FRAC_BITS_F - factor_shift) if exact
           else 2.0**-factor_shift)
    by_layer = {layer: [f.astype(object) for f in pair] if exact else pair
                for layer, pair in zip(layers, factors)}
    parts = []
    for b in blocks:
        layer, bias, lo, hi = spans[b]
        a, d = by_layer[layer]
        if bias:
            a = np.full((len(d), 1), one, dtype=d.dtype)
        parts.append(GradBlock(a, d, lo, hi))
    return parts


def _layout(c_p: BlockFisher, mask: MaskArtifact):
    """The block slices, touched blocks, spans (layer, bias, lo, hi) of
    ``model.column_blocks`` and touched layers."""
    sizes = [size for _, size, _ in c_p.layout.blocks]
    hit = touched(sizes, mask.support)
    spans = [span for _, *span in column_blocks(c_p.recipe.model.layer_dims,
                                                c_p.recipe.block_cap)]
    return block_slices(sizes), hit, spans, sorted({spans[b][0] for b in hit})


def _row_sum_bound(factors, dw, factor_shift, c_p: BlockFisher,
                   mask: MaskArtifact) -> float:
    """S = max over touched b of (4 e_b |dw_b|_1 max(Gbar'1) + max(Gbar'Gbar
    1)) / n + lam + 2^(-4 f_f) max|dw_b|, and at least lam, the damping
    scaled by 2^(-4 factor_shift), dw in integer units: per row and sample,
    in units of 2^(-f_w - 1), the rounding of the factors, of dw through
    G'G + n lam I and of the damping.  Gbar = (|A| + eps) (x) (|Delta| +
    eps), eps = 2^(-f_f - 1), bounds |G_b| and its quantized |G_b^q|; e_b =
    (max(|A| + eps) + max(|Delta| + eps)) eps bounds |G_b^q - G_b|."""
    slices, hit, spans, layers = _layout(c_p, mask)
    eps = 2.0 ** (-FRAC_BITS_F - 1)
    gbar = [(np.abs(a) * 2.0**-FRAC_BITS_F + eps,
             np.abs(d) * 2.0**-FRAC_BITS_F + eps) for a, d in factors]
    n, lam = c_p.sample_count, math.ldexp(c_p.lam, -4 * factor_shift)
    worst = lam
    for b, part in zip(hit, factor_parts(spans, hit, layers, gbar,
                                         factor_shift)):
        x = np.abs(dw[slices[b]]).astype(np.float64)
        e_b = (part.a_prev.max() + part.delta.max()) * eps
        cols = part.rmatvec(np.ones(n)).max()
        rows = part.rmatvec(part.matvec(np.ones(x.size))).max()
        worst = max(worst, (4 * e_b * x.sum() * cols + rows) / n + lam
                    + 2.0 ** (-4 * FRAC_BITS_F) * x.max())
    return worst


def _least_shift(x: float, cap: float) -> int:
    """The least e >= 0 with x 2^-e <= cap, exactly: the cap is a power of
    two, and frexp's mantissa is 0.5 only on one."""
    mantissa, exponent = math.frexp(x / cap)
    return max(exponent - (mantissa == 0.5), 0)


def encode_fixed_witness(theta_p: ParamVector, theta_u: ParamVector,
                         delta_w: ParamVector, lam: np.ndarray,
                         c_p: BlockFisher, mask: MaskArtifact) -> FixedWitness:
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
    slices, hit, spans, layers = _layout(c_p, mask)
    recipe = c_p.recipe
    # the layers come last first; each one's first part is its weight's,
    # which holds both factors
    factors = [(part.a_prev, part.delta) for (b, _, part), *_ in
               layer_grad_blocks(recipe.model, recipe.rows, recipe.block_cap)
               if spans[b][0] in layers][::-1]
    # quantize refuses NaN, infinities and entries past BOUND_F 2^f_f,
    # where a bias block's ones would need negative fractional bits
    factor_shift = min(_least_shift(max(
        [0.0] + [float(np.abs(f).max()) for pair in factors for f in pair]),
        BOUND_F), FRAC_BITS_F)
    factors = tuple(tuple(
        quantize(f * 2.0**-factor_shift, FRAC_BITS_F, BOUND_F).reshape(f.shape)
        for f in pair) for pair in factors)
    shift = _least_shift(_row_sum_bound(factors, dw, factor_shift, c_p, mask),
                         ROW_SUM_CAP)
    if shift > MAX_SHIFT:
        raise NumericError(f"the row-sum bound needs a shift of {shift}, "
                           f"beyond MAX_SHIFT {MAX_SHIFT}")
    parts = factor_parts(spans, hit, layers, factors, factor_shift, exact=True)
    lam = quantize(np.ldexp(np.asarray(lam, dtype=float),
                            -4 * factor_shift - shift), f_w, BOUND_LAM)
    return FixedWitness(tp, tu, dw, lam, factors, tuple(
        part.matvec(dw[slices[b]].astype(object))
        for b, part in zip(hit, parts)), shift, factor_shift)


def stationarity_bound_int(w: FixedWitness, c_p: BlockFisher,
                           mask: MaskArtifact,
                           solver_residual_inf: float = 0.0) -> int:
    """Analytic honest-residual bound, in t_int's units: the float
    residual G'G dw / n + lam dw + E lam_M is at most the solver residual,
    scaled by 2^(-4 factor_shift) with the statement, and R / n differs
    from it by the roundings ``_row_sum_bound`` bounds and the
    multipliers', 2^(FRAC_BITS_T - 1) units."""
    rows = _row_sum_bound(w.factors, w.delta_w, w.factor_shift, c_p, mask)
    worst = (rows * 2.0 ** (FRAC_BITS_T - 1 - w.shift)
             + 2.0 ** (FRAC_BITS_T - 1)
             + solver_residual_inf * 2.0 ** (FRAC_BITS_W + FRAC_BITS_T
                                             - 4 * w.factor_shift - w.shift))
    return int(math.ceil(worst))


def default_t_int(w: FixedWitness, c_p: BlockFisher, mask: MaskArtifact,
                  solver_residual_inf: float = 0.0) -> int:
    """Smallest power of two >= twice the honest bound (the factor absorbs
    slack in the solver residual), clamped to half of T_INT_THRESHOLD, the
    minimal multiplier tamper's shift; a bound that does not fit even so
    is honest noise the circuit's precision cannot tell from tampering."""
    bound = stationarity_bound_int(w, c_p, mask, solver_residual_inf)
    t_int = 1 << max(int(2 * max(bound, 1)) - 1, 0).bit_length()
    if t_int >= T_INT_THRESHOLD:
        t_int = T_INT_THRESHOLD >> 1
    if bound >= t_int:
        raise NumericError(f"honest residual bound {bound} cannot be separated "
                           f"from the minimal multiplier tamper at "
                           f"2^{FRAC_BITS_T + 4}")
    return t_int
