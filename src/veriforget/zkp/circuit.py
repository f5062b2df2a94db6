"""Certificate constraint system and the mock prover.

Every constraint family is one entry of the ordered table ``FAMILIES``,
its row count and its check, which the mock prover and the constraint
report read.  The statement lives in ``PublicInputs``; a circuit is those
public inputs plus the mask support their digest binds.  The statement
names the Fisher's block cap, not its blocks: the blocks, their sizes and
their columns of each layer are ``model.column_blocks`` of the layer dims
at that cap, derived by the circuit and never read from a file.  The
circuit hash is a function of the statement (every public field but the
roots) and of the circuit's constants, so a verifier derives it and never
reads it from a proof, and neither it nor the verifier lists a block.
The mock prover evaluates every constraint directly over the field and
is the normative semantics of the certificate.

Stationarity has rows only on the touched blocks, those that hold a
masked coordinate; Group-OBS decouples by block, so ``untouched`` states
delta_w = 0 on every other block.  The curvature is committed as its
layer factors (A, Delta), a free witness scaled by the public
2^-factor_shift, and checked in factored form:
``matvec`` states u_b = G_b dw_b and ``rmatvec`` bounds G_b'u_b +
n lam dw_b + n E lam_M, n s_b rows each for a block of s_b columns.

Each committed vector is limb-packed: several offset fixed-point values
share one field element (``pack_limbs``).  The packing is injective
exactly when every value fits its limb, which ``range`` already proves,
so it adds no family and ``commit`` stays one row per committed vector.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from ..curvature import BLOCK_CAPS
from ..masking import MaskArtifact
from ..model import column_blocks, mlp_layout
from ..numkit import (
    StructuralError,
    block_slices,
    canonical_json,
    sha256_hex,
    touched,
)
from .field import MODULUS, from_field, hashing, to_field, verify_commit
from .witness import (
    BOUND_F,
    BOUND_LAM,
    BOUND_W,
    FRAC_BITS_F,
    FRAC_BITS_T,
    FRAC_BITS_W,
    MAX_SHIFT,
    T_INT_THRESHOLD,
    FixedWitness,
    factor_parts,
)


@dataclass(frozen=True)
class PublicInputs:
    """The statement: the mask's digest, the Fisher's block cap, layer
    dims, sample count n and damping, the encoder's shifts of the
    multipliers and of the factors, the roots of the committed vectors and
    the stationarity window t_int.  On disk the cap is one of
    ``curvature.BLOCK_CAPS``; in memory it may be any int >= 1, as a
    Fisher's may."""

    mask_digest: str
    block_cap: int
    layer_dims: tuple[int, ...]
    sample_count: int
    damping: float
    shift: int
    factor_shift: int
    com_theta_p: int
    com_theta_u: int
    com_c_p: int
    t_int: int

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["layer_dims"] = list(self.layer_dims)
        for name, _ in COMMITTED:
            obj[f"com_{name}"] = f"{obj[f'com_{name}']:064x}"
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PublicInputs":
        values = {f.name: obj[f.name] for f in fields(cls)}
        hex64 = lambda v: isinstance(v, str) and re.fullmatch("[0-9a-f]{64}", v)
        for key, ok, what in (
            ("block_cap", lambda v: type(v) is int and v in BLOCK_CAPS,
             f"one of {BLOCK_CAPS}"),
            ("layer_dims", lambda v: isinstance(v, list) and v and all(
                type(s) is int and s > 0 for s in v),
             "a list of positive ints"),
            ("sample_count", lambda v: type(v) is int and v > 0, "an int > 0"),
            ("shift", lambda v: type(v) is int and 0 <= v <= MAX_SHIFT,
             f"an int in [0, {MAX_SHIFT}]"),
            ("factor_shift",
             lambda v: type(v) is int and 0 <= v <= FRAC_BITS_F,
             f"an int in [0, {FRAC_BITS_F}]"),
            # read after both shifts are checked
            ("damping", lambda v: type(v) is float and 0 < math.ldexp(
                v, -4 * values["factor_shift"] - values["shift"]) <= BOUND_LAM,
             f"a float > 0 within {BOUND_LAM}, scaled as the multipliers"),
            ("t_int", lambda v: type(v) is int and 0 <= v < T_INT_THRESHOLD,
             f"an int >= 0 below the multiplier tamper threshold "
             f"2^{FRAC_BITS_T + 4}"),
            ("mask_digest", hex64, "64 lowercase hex digits"),
            *((f"com_{name}", lambda v: hex64(v) and int(v, 16) < MODULUS,
               "64 lowercase hex digits below the field modulus")
              for name, _ in COMMITTED),
        ):
            if not ok(values[key]):
                raise ValueError(f"{key} {values[key]!r} is not {what}")
            if key.startswith("com_"):
                values[key] = int(values[key], 16)
        values["layer_dims"] = tuple(values["layer_dims"])
        return cls(**values)


@dataclass(frozen=True)
class CertificateCircuit:
    """The circuit of a statement: its public inputs and the mask support,
    which the public inputs bind only through the mask digest."""

    public: PublicInputs
    support: tuple[int, ...]

    @property
    def spans(self) -> list:
        """(layer, bias, lo, hi) of each block, in layout order: its columns
        [lo, hi) of its layer's weight or bias (``model.column_blocks``)."""
        return [tuple(span) for _, *span in column_blocks(
            self.public.layer_dims, self.public.block_cap)]

    @property
    def sizes(self) -> list[int]:
        """Each block's number of coordinates, in layout order."""
        return [hi - lo for *_, lo, hi in self.spans]

    @property
    def touched(self) -> tuple[int, ...]:
        """The blocks that hold a masked coordinate, in layout order."""
        return touched(self.sizes, self.support)

    @property
    def layers(self) -> list[int]:
        """The layers that hold a touched block, in order."""
        spans = self.spans
        return sorted({spans[b][0] for b in self.touched})

    @property
    def counts(self) -> dict:
        """Rows per family, in table order."""
        sizes, dims = self.sizes, self.public.layer_dims
        n = self.public.sample_count
        args = (sum(sizes), len(self.support), n,
                sum(sizes[b] for b in self.touched),
                sum(n * (dims[l] + dims[l + 1]) for l in self.layers))
        return {f.name: int(f.count(*args)) for f in FAMILIES}


# Limb packing of the committed vectors: each element holds
# ELEMENT_BITS // bits limbs, least-significant first, and is below
# 2^ELEMENT_BITS < p/2, so merkle_root embeds it without wraparound.
ELEMENT_BITS = 251
LIMB_PACKING = "offset-limbs-lsb-first"


def limb_bits(bound: float, frac_bits: int) -> int:
    """Width of a limb that holds any value of magnitude at most
    bound * 2^frac_bits once offset by 2^(bits - 1)."""
    return int(bound * 2**frac_bits).bit_length() + 1


LIMB_BITS_W = limb_bits(BOUND_W, FRAC_BITS_W)
LIMB_BITS_F = limb_bits(BOUND_F, FRAC_BITS_F)


def pack_limbs(ints, bits: int) -> list[int]:
    """Field elements of an array of signed integers, flattened row by
    row: the value plus 2^(bits - 1) in each ``bits``-wide limb.  Total
    on any integers: a carry or borrow out of an element's top limb is
    dropped, and no vector whose values fit their limbs produces one."""
    per = ELEMENT_BITS // bits
    offset, top = 1 << (bits - 1), (1 << (per * bits)) - 1
    ints = np.asarray(ints).ravel()
    elements = []
    for start in range(0, ints.size, per):
        element = 0
        for v in reversed(ints[start : start + per].tolist()):
            element = (element << bits) + v + offset
        elements.append(element & top)
    return elements


# The committed vectors, in public-input order: com_<name> is the Merkle
# root of get(witness); com_c_p's is A then Delta of each touched layer.
COMMITTED = (
    ("theta_p", lambda w: pack_limbs(w.theta_p, LIMB_BITS_W)),
    ("theta_u", lambda w: pack_limbs(w.theta_u, LIMB_BITS_W)),
    ("c_p", lambda w: [e for a, d in w.factors for e in (
        *pack_limbs(a, LIMB_BITS_F), *pack_limbs(d, LIMB_BITS_F))]),
)


def committing(witness: FixedWitness, randomness: tuple[int, int, int]):
    """``field.hashing`` of the ``COMMITTED`` vectors: their leaves hash in
    one pass while the caller runs the ``with`` block, and ``roots()``
    gives their Merkle roots, in order."""
    return hashing([(get(witness), rand)
                    for (_, get), rand in zip(COMMITTED, randomness)])


def commit_witness(
    witness: FixedWitness, randomness: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Merkle roots of the ``COMMITTED`` vectors."""
    with committing(witness, randomness) as roots:
        return tuple(roots())


# -- constraint families: each check returns its first violation or None ----


def _first(violations) -> str | None:
    return next(iter(violations), None)


def _field(ints, i: int) -> int:
    return to_field(int(ints[i]))


def _range(circuit, w, randomness):
    lim_w, lim_lam = (int(b * 2**FRAC_BITS_W) for b in (BOUND_W, BOUND_LAM))
    lim_f = int(BOUND_F * 2**FRAC_BITS_F)
    vectors = [("theta_p", w.theta_p, lim_w), ("theta_u", w.theta_u, lim_w),
               ("delta_w", w.delta_w, lim_w), ("lam", w.lam, lim_lam)]
    for layer, (a, d) in zip(circuit.layers, w.factors):
        vectors += [(f"a[layer {layer}]", a.ravel(), lim_f),
                    (f"delta[layer {layer}]", d.ravel(), lim_f)]
    return _first(f"range/{name}[{i}]" for name, vec, limit in vectors
                  for i, x in enumerate(vec) if abs(int(x)) > limit)


def _assembly(circuit, w, randomness):
    """theta_u - theta_p - delta_w == 0 over the field."""
    tp, tu, dw = w.theta_p, w.theta_u, w.delta_w
    return _first(f"assembly[{i}]" for i in range(sum(circuit.sizes))
                  if (_field(tu, i) - _field(tp, i) - _field(dw, i)) % MODULUS)


def _feasibility(circuit, w, randomness):
    """delta_w + theta_p == 0 on the mask support."""
    return _first(f"feasibility[{j}]" for j, i in enumerate(circuit.support)
                  if (_field(w.delta_w, i) + _field(w.theta_p, i)) % MODULUS)


def _untouched(circuit, w, randomness):
    """delta_w == 0 over the field on every coordinate of a block the mask
    does not touch."""
    slices = block_slices(circuit.sizes)
    hit = set(circuit.touched)
    return _first(f"untouched[{i}]" for b, sl in enumerate(slices)
                  if b not in hit for i in range(sl.start, sl.stop)
                  if _field(w.delta_w, i) % MODULUS)


def _products(circuit, w):
    """(block, slice, exact ``model.GradBlock``) of each touched block."""
    slices = block_slices(circuit.sizes)
    parts = factor_parts(circuit.spans, circuit.touched, circuit.layers,
                         w.factors, circuit.public.factor_shift, exact=True)
    return [(b, slices[b], part) for b, part in zip(circuit.touched, parts)]


def _matvec(circuit, w, randomness):
    """u_b == G_b dw_b exactly, per sample of a touched block b."""
    dw = w.delta_w.astype(object)
    return _first(f"matvec[block {b}, sample {i}]"
                  for (b, sl, part), u in zip(_products(circuit, w), w.u)
                  for i in np.flatnonzero(part.matvec(dw[sl]) != u))


def _stationarity(circuit, w, randomness):
    """|G_b'u_b + n lam dw_b + n E lam_M| <= n t_int 2^(shift + 4 f_f -
    FRAC_BITS_T) over the field per row of a touched block, G_b over the
    factors scaled by 2^-factor_shift, lam the public damping scaled by
    2^(-4 factor_shift) at 4 f_f bits and lam_M at f_w bits scaled by
    2^-shift further."""
    public = circuit.public
    n, weight = public.sample_count, 4 * FRAC_BITS_F + public.shift
    lam = np.zeros(sum(circuit.sizes), dtype=object)
    for j, i in enumerate(circuit.support):
        lam[i] = n * int(w.lam[j]) << weight
    damping = n * round(math.ldexp(public.damping,
                                   4 * (FRAC_BITS_F - public.factor_shift)))
    window = n * public.t_int << (weight - FRAC_BITS_T)
    dw = w.delta_w.astype(object)
    return _first(f"stationarity[{sl.start + i}]"
                  for (_, sl, part), u in zip(_products(circuit, w), w.u)
                  for i, r in enumerate(part.rmatvec(u) + damping * dw[sl]
                                        + lam[sl])
                  if abs(from_field(to_field(int(r)))) > window)


def _commit(circuit, w, randomness):
    return _first(
        f"commit/{name}" for (name, get), rand in zip(COMMITTED, randomness)
        if not verify_commit(getattr(circuit.public, f"com_{name}"),
                             get(w), rand)
    )


@dataclass(frozen=True)
class ConstraintFamily:
    name: str
    # (d, k, n, columns of the touched blocks, factor values) -> rows
    count: Callable[[int, int, int, int, int], int]
    check: Callable[..., str | None]  # (circuit, witness, randomness)


# Checked in this order.  range bounds theta_p, theta_u, delta_w, lam,
# every factor value and the residual of each row of a touched block,
# which rmatvec computes, checks and names stationarity[i].
FAMILIES = (
    ConstraintFamily("range", lambda d, k, n, s, v: 3 * d + k + v + s, _range),
    ConstraintFamily("assembly", lambda d, k, n, s, v: d, _assembly),
    ConstraintFamily("feasibility", lambda d, k, n, s, v: k, _feasibility),
    ConstraintFamily("untouched", lambda d, k, n, s, v: d - s, _untouched),
    ConstraintFamily("matvec", lambda d, k, n, s, v: n * s, _matvec),
    ConstraintFamily("rmatvec", lambda d, k, n, s, v: n * s, _stationarity),
    ConstraintFamily("commit", lambda d, k, n, s, v: len(COMMITTED), _commit),
)


def circuit_hash(public: PublicInputs) -> str:
    """The hash of the circuit of the statement ``public`` carries, every
    field but the roots; the mask digest binds d, k and the support."""
    return sha256_hex(canonical_json({
        **{k: v for k, v in public.to_json().items()
           if not k.startswith("com_")},
        **precision(), "t_bits": FRAC_BITS_T,
        "families": [f.name for f in FAMILIES],
        "bounds": {"w": BOUND_W, "f": BOUND_F, "lam": BOUND_LAM},
        "limb_packing": {"scheme": LIMB_PACKING, "element_bits": ELEMENT_BITS},
    }))


def precision() -> dict:
    """The fractional bits and limb widths of the weight-side vectors and
    of the layer factors A and Delta, as ``prove`` and ``verify`` report."""
    return {"frac_bits": {"w": FRAC_BITS_W, "f": FRAC_BITS_F},
            "limb_bits": {"w": LIMB_BITS_W, "f": LIMB_BITS_F}}


def synthesize(public: PublicInputs, mask: MaskArtifact) -> CertificateCircuit:
    """The circuit of ``public``, from the mask its digest names: all an
    auditor holding public.pub and the mask needs.  The layer dims must
    give the mask's d, counted per layer before any block is formed."""
    if mask.digest != public.mask_digest:
        raise StructuralError("the mask's digest is not the public mask_digest")
    d = mlp_layout(public.layer_dims).total_dim
    if d != mask.model_dim:
        raise StructuralError(f"layer dims {list(public.layer_dims)} give "
                              f"{d} coordinates, the mask {mask.model_dim}")
    return CertificateCircuit(public, tuple(int(i) for i in mask.support))


def constraint_report(circuit: CertificateCircuit) -> dict:
    """Rows per family in table order, their total and the circuit hash."""
    counts = circuit.counts
    return {**counts, "total": sum(counts.values()),
            "circuit_hash": circuit_hash(circuit.public)}


def _shape(circuit, w) -> str | None:
    """shape/<name> of the first witness vector not shaped as the statement
    says: d weights, k multipliers, A and Delta per layer, u per block."""
    public = circuit.public
    d, k, n = sum(circuit.sizes), len(circuit.support), public.sample_count
    dims = public.layer_dims
    return _first(
        f"shape/{name}" for name, ok in (
            ("theta_p", np.shape(w.theta_p) == (d,)),
            ("theta_u", np.shape(w.theta_u) == (d,)),
            ("delta_w", np.shape(w.delta_w) == (d,)),
            ("lam", np.shape(w.lam) == (k,)),
            ("factors", [tuple(map(np.shape, f)) for f in w.factors]
             == [((n, dims[l]), (n, dims[l + 1])) for l in circuit.layers]),
            ("u", [np.shape(u) for u in w.u] == [(n,)] * len(circuit.touched)),
        ) if not ok
    )


def mock_prove(circuit: CertificateCircuit, witness: FixedWitness,
               randomness: tuple[int, int, int],
               check_commitments: bool = True) -> str | None:
    """Check the witness's shape, then every family in table order; return
    the first violation, or None when the witness satisfies them all.
    ``check_commitments=False`` skips the commit family, for a prover
    whose commitments were just computed from this witness."""
    return _shape(circuit, witness) or _first(filter(None, (
        family.check(circuit, witness, randomness) for family in FAMILIES
        if check_commitments or family.name != "commit"
    )))
