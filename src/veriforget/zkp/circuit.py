"""Certificate constraint system and the mock prover.

Every constraint family is one entry of the ordered table ``FAMILIES``:
its row count from (block sizes, touched block sizes, mask budget) and
its check.  The circuit description, the mock prover and the constraint
report all read that table.  The statement lives in one place,
``PublicInputs``; a circuit is those public inputs plus the mask support
their digest binds.  The circuit hash is a function of the public
inputs' statement (the block sizes, the mask digest and ``T_int``) and
of the circuit's own constants (the family table, the range bounds, the
fixed-point precision, the curvature layout and the limb packing), so a
verifier derives it and never reads it from a proof.  The mock prover
evaluates every constraint directly over the field and is the normative
semantics of the certificate.

The curvature enters the statement only on the touched blocks, those
that hold a masked coordinate (``numkit.touched``).  Group-OBS decouples
by block, so every other block's compensation is exactly zero: the
``untouched`` family states delta_w = 0 there, in place of stationarity
rows over a curvature the prover would otherwise commit.  A verifier
derives the touched blocks from the block sizes and the mask its digest
binds.

Each committed vector is limb-packed before it is hashed: several
offset fixed-point values share one field element (see ``pack_limbs``).
Packing adds no constraint family.  Its recomposition is injective
exactly when every value fits its limb, and that is what the ``range``
family already proves of every committed value; a packing family would
only check it again.  So ``commit`` stays one row per committed vector.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from ..masking import MaskArtifact
from ..numkit import (
    StructuralError,
    block_slices,
    canonical_json,
    sha256_hex,
    touched,
    unpack_upper,
)
from .field import MODULUS, from_field, merkle_root, to_field, verify_commit
from .witness import (
    BOUND_C,
    BOUND_LAM,
    BOUND_W,
    FRAC_BITS_C,
    FRAC_BITS_W,
    T_INT_THRESHOLD,
    FixedWitness,
)


@dataclass(frozen=True)
class PublicInputs:
    mask_digest: str
    block_sizes: tuple[int, ...]
    com_theta_p: int
    com_theta_u: int
    com_c_p: int
    t_int: int

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["block_sizes"] = list(self.block_sizes)
        for name, _ in COMMITTED:
            obj[f"com_{name}"] = f"{obj[f'com_{name}']:064x}"
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PublicInputs":
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(obj) - set(names))
        if unknown:
            raise ValueError(f"public inputs hold unknown keys {unknown}")
        values = {name: obj[name] for name in names}
        sizes, t_int = values["block_sizes"], values["t_int"]
        if not (isinstance(sizes, list) and sizes
                and all(type(s) is int and s > 0 for s in sizes)):
            raise ValueError(f"block_sizes {sizes!r} is not a list of "
                             f"positive ints")
        if not (type(t_int) is int and t_int >= 0):
            raise ValueError(f"t_int {t_int!r} is not a non-negative int")
        if t_int >= T_INT_THRESHOLD:
            raise ValueError(f"t_int {t_int} is not below the multiplier "
                             f"tamper threshold 2^{FRAC_BITS_C + 4}")
        for key in ("mask_digest", *(f"com_{name}" for name, _ in COMMITTED)):
            if not (isinstance(values[key], str)
                    and re.fullmatch("[0-9a-f]{64}", values[key])):
                raise ValueError(f"{key} {values[key]!r} is not 64 lowercase "
                                 f"hex digits")
        for name, _ in COMMITTED:
            root = values[f"com_{name}"] = int(values[f"com_{name}"], 16)
            if root >= MODULUS:
                raise ValueError(f"com_{name} is not below the field modulus")
        values["block_sizes"] = tuple(sizes)
        return cls(**values)


# How com_c_p lays out the curvature: the witness's triangles (see
# ``numkit.pack_upper``) of the touched blocks alone, in layout order, so C
# is symmetric by construction.
C_P_PACKING = "touched-blocks-upper-triangle-row-major"


@dataclass(frozen=True)
class CertificateCircuit:
    """The circuit of a statement: its public inputs and the mask support,
    which the public inputs bind only through the mask digest."""

    public: PublicInputs
    support: tuple[int, ...]

    @property
    def touched(self) -> tuple[int, ...]:
        """The blocks that hold a masked coordinate, in layout order."""
        return touched(self.public.block_sizes, self.support)

    @property
    def counts(self) -> dict:
        """Rows per family, in table order."""
        sizes, k = self.public.block_sizes, len(self.support)
        hit = tuple(sizes[b] for b in self.touched)
        return {f.name: int(f.count(sizes, hit, k)) for f in FAMILIES}


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
LIMB_BITS_C = limb_bits(BOUND_C, FRAC_BITS_C)


def pack_limbs(ints, bits: int) -> list[int]:
    """Field elements of a vector of signed integers: the value plus
    2^(bits - 1) in each ``bits``-wide limb.  Total on any integers: a
    carry or borrow out of an element's top limb is dropped, and no
    vector whose values fit their limbs produces one."""
    per = ELEMENT_BITS // bits
    offset, top = 1 << (bits - 1), (1 << (per * bits)) - 1
    ints = np.asarray(ints)
    elements = []
    for start in range(0, ints.size, per):
        element = 0
        for v in reversed(ints[start : start + per].tolist()):
            element = (element << bits) + v + offset
        elements.append(element & top)
    return elements


# The committed vectors, in public-input order: com_<name> is the Merkle
# root of get(witness).
COMMITTED = (
    ("theta_p", lambda w: pack_limbs(w.theta_p, LIMB_BITS_W)),
    ("theta_u", lambda w: pack_limbs(w.theta_u, LIMB_BITS_W)),
    ("c_p", lambda w: pack_limbs(np.concatenate((np.empty(0, np.int64),
                                                 *w.c_blocks)), LIMB_BITS_C)),
)


def commit_witness(
    witness: FixedWitness, randomness: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Merkle roots of the ``COMMITTED`` vectors."""
    return tuple(merkle_root(get(witness), rand)
                 for (_, get), rand in zip(COMMITTED, randomness))


# -- constraint families: each check returns its first violation or None ----


def _first(violations) -> str | None:
    return next(iter(violations), None)


def _field(ints, i: int) -> int:
    return to_field(int(ints[i]))


def _range(circuit, w, randomness):
    lim_w, lim_lam = (int(b * 2**FRAC_BITS_W) for b in (BOUND_W, BOUND_LAM))
    vectors = (("theta_p", w.theta_p, lim_w), ("theta_u", w.theta_u, lim_w),
               ("delta_w", w.delta_w, lim_w), ("lam", w.lam, lim_lam))
    lim_c = int(BOUND_C * 2**FRAC_BITS_C)
    return _first(
        f"range/{name}[{i}]" for name, vec, limit in vectors
        for i, x in enumerate(vec) if abs(int(x)) > limit
    ) or _first(
        f"range/c_p[block {b}]" for b, tri in zip(circuit.touched, w.c_blocks)
        if tri.size and (tri.max() > lim_c or tri.min() < -lim_c)
    )


def _assembly(circuit, w, randomness):
    """theta_u - theta_p - delta_w == 0 over the field."""
    tp, tu, dw = w.theta_p, w.theta_u, w.delta_w
    d = sum(circuit.public.block_sizes)
    return _first(f"assembly[{i}]" for i in range(d)
                  if (_field(tu, i) - _field(tp, i) - _field(dw, i)) % MODULUS)


def _feasibility(circuit, w, randomness):
    """delta_w + theta_p == 0 on the mask support."""
    return _first(f"feasibility[{j}]" for j, i in enumerate(circuit.support)
                  if (_field(w.delta_w, i) + _field(w.theta_p, i)) % MODULUS)


def _untouched(circuit, w, randomness):
    """delta_w == 0 over the field on every coordinate of a block the mask
    does not touch."""
    slices = block_slices(circuit.public.block_sizes)
    hit = set(circuit.touched)
    return _first(f"untouched[{i}]" for b, sl in enumerate(slices)
                  if b not in hit for i in range(sl.start, sl.stop)
                  if _field(w.delta_w, i) % MODULUS)


def _stationarity(circuit, w, randomness):
    """|C dw + 2^{f_c} E lam| <= T_int per row of a touched block, over
    the field; every masked coordinate lies in one."""
    public = circuit.public
    r = np.zeros(sum(public.block_sizes), dtype=object)
    for j, i in enumerate(circuit.support):
        r[i] = int(w.lam[j]) << FRAC_BITS_C
    dw = w.delta_w.astype(object)
    slices = block_slices(public.block_sizes)
    rows = []
    for tri, b in zip(w.c_blocks, circuit.touched):
        sl = slices[b]
        r[sl] += unpack_upper(tri, sl.stop - sl.start).astype(object) @ dw[sl]
        rows.extend(range(sl.start, sl.stop))
    return _first(f"stationarity[{i}]" for i in rows
                  if abs(from_field(to_field(int(r[i])))) > public.t_int)


def _commit(circuit, w, randomness):
    return _first(
        f"commit/{name}" for (name, get), rand in zip(COMMITTED, randomness)
        if not verify_commit(getattr(circuit.public, f"com_{name}"),
                             get(w), rand)
    )


@dataclass(frozen=True)
class ConstraintFamily:
    name: str
    # (block sizes, touched block sizes, k) -> rows
    count: Callable[[tuple[int, ...], tuple[int, ...], int], int]
    check: Callable[..., str | None]  # (circuit, witness, randomness)


# Checked in this order.  range bounds theta_p, theta_u, delta_w (d
# each), lam (k), every committed curvature entry and the stationarity
# residual, both on the touched blocks alone; matvec computes that
# residual from the full touched blocks, so its check also bounds it and
# names the row stationarity[i].  untouched pins every other coordinate.
FAMILIES = (
    ConstraintFamily("range", lambda s, t, k: 3 * sum(s) + k
                     + sum(b * (b + 1) // 2 + b for b in t), _range),
    ConstraintFamily("assembly", lambda s, t, k: sum(s), _assembly),
    ConstraintFamily("feasibility", lambda s, t, k: k, _feasibility),
    ConstraintFamily("untouched", lambda s, t, k: sum(s) - sum(t), _untouched),
    ConstraintFamily("matvec", lambda s, t, k: sum(b * b for b in t),
                     _stationarity),
    ConstraintFamily("commit", lambda s, t, k: len(COMMITTED), _commit),
)


def circuit_hash(public: PublicInputs) -> str:
    """The hash of the certificate circuit for the statement ``public``
    carries.  The mask digest binds the model dimension, the budget and
    the support."""
    return sha256_hex(canonical_json({
        "block_sizes": public.block_sizes,
        "mask_digest": public.mask_digest,
        "t_int": public.t_int,
        "f_w": FRAC_BITS_W,
        "f_c": FRAC_BITS_C,
        "families": [f.name for f in FAMILIES],
        "bounds": {"w": BOUND_W, "c": BOUND_C, "lam": BOUND_LAM},
        "c_p_packing": C_P_PACKING,
        "limb_packing": {"scheme": LIMB_PACKING, "element_bits": ELEMENT_BITS,
                         "w": LIMB_BITS_W, "c": LIMB_BITS_C},
    }))


def precision() -> dict:
    """The circuit's fixed-point precision, as ``prove`` and ``verify``
    report it: the fractional bits and limb widths of the weight-side and
    the curvature vectors."""
    return {"frac_bits": {"w": FRAC_BITS_W, "c": FRAC_BITS_C},
            "limb_bits": {"w": LIMB_BITS_W, "c": LIMB_BITS_C}}


def synthesize(public: PublicInputs, mask: MaskArtifact) -> CertificateCircuit:
    """The circuit of ``public``, from the mask its digest names: all an
    auditor holding public.pub and the mask needs."""
    if mask.digest != public.mask_digest:
        raise StructuralError("the mask's digest is not the public mask_digest")
    if sum(public.block_sizes) != mask.model_dim:
        raise StructuralError(
            f"block sizes cover {sum(public.block_sizes)} coordinates, "
            f"the mask {mask.model_dim}"
        )
    return CertificateCircuit(public, tuple(int(i) for i in mask.support))


def constraint_report(circuit: CertificateCircuit) -> dict:
    """Rows per family in table order, their total and the circuit hash."""
    counts = circuit.counts
    return {**counts, "total": sum(counts.values()),
            "circuit_hash": circuit_hash(circuit.public)}


def _shape(circuit, w) -> str | None:
    """shape/<name> for the first witness vector whose shape is not the
    statement's: d weights each, k multipliers, one triangle per touched
    block."""
    sizes, k = circuit.public.block_sizes, len(circuit.support)
    d = sum(sizes)
    triangles = [(sizes[b] * (sizes[b] + 1) // 2,) for b in circuit.touched]
    return _first(
        f"shape/{name}" for name, ok in (
            ("theta_p", np.shape(w.theta_p) == (d,)),
            ("theta_u", np.shape(w.theta_u) == (d,)),
            ("delta_w", np.shape(w.delta_w) == (d,)),
            ("lam", np.shape(w.lam) == (k,)),
            ("c_p", [np.shape(c) for c in w.c_blocks] == triangles),
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
