"""Certificate constraint system and the mock prover.

Every constraint family is one entry of the ordered table ``FAMILIES``:
its row count from (block sizes, mask budget) and its check.  The
circuit description, the mock prover and the constraint report all read
that table.  The statement lives in one place, ``PublicInputs``; a
circuit is those public inputs plus the mask support their digest
binds.  The circuit hash is a function of the public inputs' statement
(the block sizes, the mask digest, ``T_int`` and the fractional bits)
and of the circuit's own constants (the family table, the range bounds,
the curvature layout and the limb packing), so a verifier derives it and
never reads it from a proof.  The mock prover evaluates every constraint
directly over the field and is the normative semantics of the
certificate.

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
from ..numkit import StructuralError, canonical_json, sha256_hex, unpack_upper
from .field import MODULUS, from_field, merkle_root, to_field, verify_commit
from .witness import (
    BOUND_C,
    BOUND_LAM,
    BOUND_W,
    FixedWitness,
    check_frac_bits,
    t_int_threshold,
)


@dataclass(frozen=True)
class PublicInputs:
    mask_digest: str
    block_sizes: tuple[int, ...]
    com_theta_p: int
    com_theta_u: int
    com_c_p: int
    t_int: int
    f_w: int
    f_c: int

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["block_sizes"] = list(self.block_sizes)
        for name, _ in COMMITTED:
            obj[f"com_{name}"] = f"{obj[f'com_{name}']:064x}"
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PublicInputs":
        values = {f.name: obj[f.name] for f in fields(cls)}
        sizes, t_int = values["block_sizes"], values["t_int"]
        if not (isinstance(sizes, list) and sizes
                and all(type(s) is int and s > 0 for s in sizes)):
            raise ValueError(f"block_sizes {sizes!r} is not a list of "
                             f"positive ints")
        if not (type(t_int) is int and t_int >= 0):
            raise ValueError(f"t_int {t_int!r} is not a non-negative int")
        check_frac_bits(values["f_w"], values["f_c"])
        if t_int >= t_int_threshold(values["f_c"]):
            raise ValueError(f"t_int {t_int} is not below the multiplier "
                             f"tamper threshold 2^{values['f_c'] + 4}")
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


# How com_c_p lays out the curvature: the witness's block triangles (see
# ``numkit.pack_upper``) in layout order, so C is symmetric by construction.
C_P_PACKING = "upper-triangle-row-major"


@dataclass(frozen=True)
class CertificateCircuit:
    """The circuit of a statement: its public inputs and the mask support,
    which the public inputs bind only through the mask digest."""

    public: PublicInputs
    support: tuple[int, ...]

    @property
    def counts(self) -> dict:
        """Rows per family, in table order."""
        sizes, k = self.public.block_sizes, len(self.support)
        return {f.name: int(f.count(sizes, k)) for f in FAMILIES}


# Limb packing of the committed vectors: each element holds
# ELEMENT_BITS // bits limbs, least-significant first, and is below
# 2^ELEMENT_BITS < p/2, so merkle_root embeds it without wraparound.
ELEMENT_BITS = 251
LIMB_PACKING = "offset-limbs-lsb-first"


def limb_bits(bound: float, frac_bits: int) -> int:
    """Width of a limb that holds any value of magnitude at most
    bound * 2^frac_bits once offset by 2^(bits - 1)."""
    return int(bound * 2**frac_bits).bit_length() + 1


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
# root of get(witness, s), packed at the limb widths of s.f_w and s.f_c.
# The prover passes the witness as s; the commit family passes the
# public inputs, never the witness.
COMMITTED = (
    ("theta_p", lambda w, s: pack_limbs(w.theta_p, limb_bits(BOUND_W, s.f_w))),
    ("theta_u", lambda w, s: pack_limbs(w.theta_u, limb_bits(BOUND_W, s.f_w))),
    ("c_p", lambda w, s: pack_limbs(np.concatenate(w.c_blocks),
                                    limb_bits(BOUND_C, s.f_c))),
)


def commit_witness(
    witness: FixedWitness, randomness: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Merkle roots of the ``COMMITTED`` vectors."""
    return tuple(merkle_root(get(witness, witness), rand)
                 for (_, get), rand in zip(COMMITTED, randomness))


# -- constraint families: each check returns its first violation or None ----


def _first(violations) -> str | None:
    return next(iter(violations), None)


def _field(ints, i: int) -> int:
    return to_field(int(ints[i]))


def _range(circuit, w, randomness):
    public = circuit.public
    lim_w, lim_lam = (int(b * 2**public.f_w) for b in (BOUND_W, BOUND_LAM))
    vectors = (("theta_p", w.theta_p, lim_w), ("theta_u", w.theta_u, lim_w),
               ("delta_w", w.delta_w, lim_w), ("lam", w.lam, lim_lam))
    lim_c = int(BOUND_C * 2**public.f_c)
    return _first(
        f"range/{name}[{i}]" for name, vec, limit in vectors
        for i, x in enumerate(vec) if abs(int(x)) > limit
    ) or _first(
        f"range/c_p[block {bi}]" for bi, b in enumerate(w.c_blocks)
        if b.size and (b.max() > lim_c or b.min() < -lim_c)
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


def _stationarity(circuit, w, randomness):
    """|C dw + 2^{f_c} E lam| <= T_int per row, over the field."""
    public = circuit.public
    r = np.zeros(sum(public.block_sizes), dtype=object)
    for j, i in enumerate(circuit.support):
        r[i] = int(w.lam[j]) << public.f_c
    dw = w.delta_w.astype(object)
    offset = 0
    for tri, size in zip(w.c_blocks, public.block_sizes):
        end = offset + size
        r[offset:end] += unpack_upper(tri, size).astype(object) @ dw[offset:end]
        offset = end
    return _first(f"stationarity[{i}]" for i, x in enumerate(r)
                  if abs(from_field(to_field(int(x)))) > public.t_int)


def _commit(circuit, w, randomness):
    return _first(
        f"commit/{name}" for (name, get), rand in zip(COMMITTED, randomness)
        if not verify_commit(getattr(circuit.public, f"com_{name}"),
                             get(w, circuit.public), rand)
    )


@dataclass(frozen=True)
class ConstraintFamily:
    name: str
    count: Callable[[tuple[int, ...], int], int]  # (block sizes, k) -> rows
    check: Callable[..., str | None]  # (circuit, witness, randomness)


# Checked in this order.  range bounds theta_p, theta_u, delta_w (d
# each), lam (k), every committed curvature entry and the stationarity
# residual (d); matvec computes that residual from the full blocks, so
# its check also bounds it and names the row stationarity[i].
FAMILIES = (
    ConstraintFamily("range", lambda s, k: 4 * sum(s) + k
                     + sum(b * (b + 1) // 2 for b in s), _range),
    ConstraintFamily("assembly", lambda s, k: sum(s), _assembly),
    ConstraintFamily("feasibility", lambda s, k: k, _feasibility),
    ConstraintFamily("matvec", lambda s, k: sum(b * b for b in s), _stationarity),
    ConstraintFamily("commit", lambda s, k: len(COMMITTED), _commit),
)


def circuit_hash(public: PublicInputs) -> str:
    """The hash of the certificate circuit for the statement ``public``
    carries.  The mask digest binds the model dimension, the budget and
    the support."""
    return sha256_hex(canonical_json({
        "block_sizes": public.block_sizes,
        "mask_digest": public.mask_digest,
        "t_int": public.t_int,
        "f_w": public.f_w,
        "f_c": public.f_c,
        "families": [f.name for f in FAMILIES],
        "bounds": {"w": BOUND_W, "c": BOUND_C, "lam": BOUND_LAM},
        "c_p_packing": C_P_PACKING,
        "limb_packing": {"scheme": LIMB_PACKING, "element_bits": ELEMENT_BITS,
                         "w": limb_bits(BOUND_W, public.f_w),
                         "c": limb_bits(BOUND_C, public.f_c)},
    }))


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


def mock_prove(circuit: CertificateCircuit, witness: FixedWitness,
               randomness: tuple[int, int, int],
               check_commitments: bool = True) -> str | None:
    """Check every family in table order; return the first violation, or
    None when the witness satisfies them all.  ``check_commitments=False``
    skips the commit family, for a prover whose commitments were just
    computed from this witness."""
    return _first(filter(None, (
        family.check(circuit, witness, randomness) for family in FAMILIES
        if check_commitments or family.name != "commit"
    )))
