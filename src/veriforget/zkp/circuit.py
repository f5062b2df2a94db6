"""Certificate constraint system and the mock prover.

Every constraint family is one entry of the ordered table ``FAMILIES``:
its row count from (block sizes, mask budget) and its check.  The
circuit description, the mock prover and the constraint report all read
that table.  The circuit hash is a function of the statement the public
inputs carry (the block sizes, the mask digest, ``T_int`` and the
fractional bits) and of the circuit's own constants (the family table,
the range bounds and the curvature packing), so a verifier derives it
and never reads it from a proof.  The mock prover evaluates every
constraint directly over the field and is the normative semantics of the
certificate.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from ..masking import MaskArtifact
from ..numkit import BlockLayout, canonical_json, sha256_hex
from .field import MODULUS, from_field, merkle_root, to_field, verify_commit
from .witness import BOUND_C, BOUND_LAM, BOUND_W, FixedWitness, check_frac_bits


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
        sizes, t_int, digest = (values["block_sizes"], values["t_int"],
                                values["mask_digest"])
        if not (isinstance(sizes, list) and sizes
                and all(type(s) is int and s > 0 for s in sizes)):
            raise ValueError(f"block_sizes {sizes!r} is not a list of "
                             f"positive ints")
        if not (type(t_int) is int and t_int >= 0):
            raise ValueError(f"t_int {t_int!r} is not a non-negative int")
        if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
            raise ValueError(f"mask_digest {digest!r} is not 64 lowercase hex digits")
        check_frac_bits(values["f_w"], values["f_c"])
        values["block_sizes"] = tuple(sizes)
        for name, _ in COMMITTED:
            values[f"com_{name}"] = int(obj[f"com_{name}"], 16)
        return cls(**values)


# How com_c_p lays out the curvature blocks (see ``pack_curvature``).
C_P_PACKING = "upper-triangle-row-major"


@dataclass(frozen=True)
class CertificateCircuit:
    block_sizes: tuple[int, ...]
    support: tuple[int, ...]
    mask_digest: str
    t_int: int
    f_w: int
    f_c: int
    counts: dict
    circuit_hash: str


@dataclass(frozen=True)
class MockVerdict:
    ok: bool
    first_violation: str | None

    def __bool__(self) -> bool:
        return self.ok


def pack_curvature(c_blocks) -> np.ndarray:
    """Each block's upper triangle, row-major, in layout order.  The
    symmetry constraints tie the strict lower triangles to it."""
    return np.concatenate([b[np.triu_indices(b.shape[0])] for b in c_blocks])


# The committed vectors, in public-input order: com_<name> is the Merkle
# root of get(witness).
COMMITTED = (
    ("theta_p", lambda w: w.theta_p),
    ("theta_u", lambda w: w.theta_u),
    ("c_p", lambda w: pack_curvature(w.c_blocks)),
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


def _range(circuit, w, public, randomness):
    lim_w, lim_lam = (int(b * 2**circuit.f_w) for b in (BOUND_W, BOUND_LAM))
    vectors = (("theta_p", w.theta_p, lim_w), ("theta_u", w.theta_u, lim_w),
               ("delta_w", w.delta_w, lim_w), ("lam", w.lam, lim_lam))
    lim_c = int(BOUND_C * 2**circuit.f_c)
    return _first(
        f"range/{name}[{i}]" for name, vec, limit in vectors
        for i, x in enumerate(vec) if abs(int(x)) > limit
    ) or _first(
        f"range/c_p[block {bi}]" for bi, b in enumerate(w.c_blocks)
        if b.size and (b.max() > lim_c or b.min() < -lim_c)
    )


def _symmetry(circuit, w, public, randomness):
    return _first(f"symmetry/c_p[block {bi}]" for bi, b in enumerate(w.c_blocks)
                  if not np.array_equal(b, b.T))


def _assembly(circuit, w, public, randomness):
    """theta_u - theta_p - delta_w == 0 over the field."""
    tp, tu, dw = w.theta_p, w.theta_u, w.delta_w
    return _first(f"assembly[{i}]" for i in range(sum(circuit.block_sizes))
                  if (_field(tu, i) - _field(tp, i) - _field(dw, i)) % MODULUS)


def _feasibility(circuit, w, public, randomness):
    """delta_w + theta_p == 0 on the mask support."""
    return _first(f"feasibility[{j}]" for j, i in enumerate(circuit.support)
                  if (_field(w.delta_w, i) + _field(w.theta_p, i)) % MODULUS)


def _stationarity(circuit, w, public, randomness):
    """|C dw + 2^{f_c} E lam| <= T_int per row, over the field."""
    r = np.zeros(sum(circuit.block_sizes), dtype=object)
    for j, i in enumerate(circuit.support):
        r[i] = int(w.lam[j]) << circuit.f_c
    dw = w.delta_w.astype(object)
    offset = 0
    for block in w.c_blocks:
        end = offset + block.shape[0]
        r[offset:end] += block.astype(object) @ dw[offset:end]
        offset = end
    return _first(f"stationarity[{i}]" for i, x in enumerate(r)
                  if abs(from_field(to_field(int(x)))) > circuit.t_int)


def _commit(circuit, w, public, randomness):
    return _first(
        f"commit/{name}" for (name, get), rand in zip(COMMITTED, randomness)
        if not verify_commit(getattr(public, f"com_{name}"), get(w), rand)
    )


@dataclass(frozen=True)
class ConstraintFamily:
    name: str
    count: Callable[[tuple[int, ...], int], int]  # (block sizes, k) -> rows
    check: Callable[..., str | None]  # (circuit, witness, public, randomness)


def _squares(sizes) -> int:
    return sum(s * s for s in sizes)


# Checked in this order.  range bounds theta_p, theta_u, delta_w (d
# each), lam (k), every curvature entry and the stationarity residual
# (d); matvec computes that residual, so its check also bounds it and
# names the row stationarity[i].
FAMILIES = (
    ConstraintFamily("range", lambda s, k: 4 * sum(s) + k + _squares(s), _range),
    ConstraintFamily("symmetry", lambda s, k: sum(b * (b - 1) // 2 for b in s),
                     _symmetry),
    ConstraintFamily("assembly", lambda s, k: sum(s), _assembly),
    ConstraintFamily("feasibility", lambda s, k: k, _feasibility),
    ConstraintFamily("matvec", lambda s, k: _squares(s), _stationarity),
    ConstraintFamily("commit", lambda s, k: len(COMMITTED), _commit),
)


def circuit_hash(block_sizes, mask_digest: str, t_int: int, f_w: int,
                 f_c: int) -> str:
    """The hash of the certificate circuit for a statement.  The mask
    digest binds the model dimension, the budget and the support."""
    return sha256_hex(canonical_json({
        "block_sizes": block_sizes,
        "mask_digest": mask_digest,
        "t_int": t_int,
        "f_w": f_w,
        "f_c": f_c,
        "families": [f.name for f in FAMILIES],
        "bounds": {"w": BOUND_W, "c": BOUND_C, "lam": BOUND_LAM},
        "c_p_packing": C_P_PACKING,
    }))


def synthesize(layout: BlockLayout, mask: MaskArtifact, t_int: int,
               f_w: int, f_c: int) -> CertificateCircuit:
    sizes = tuple(size for _, size, _ in layout.blocks)
    return CertificateCircuit(
        block_sizes=sizes,
        support=tuple(int(i) for i in mask.support),
        mask_digest=mask.digest,
        t_int=t_int,
        f_w=f_w,
        f_c=f_c,
        counts={f.name: int(f.count(sizes, mask.budget)) for f in FAMILIES},
        circuit_hash=circuit_hash(sizes, mask.digest, t_int, f_w, f_c),
    )


def constraint_report(circuit: CertificateCircuit) -> dict:
    """Rows per family in table order, their total and the circuit hash."""
    counts = {f.name: circuit.counts[f.name] for f in FAMILIES}
    return {**counts, "total": sum(counts.values()),
            "circuit_hash": circuit.circuit_hash}


def mock_prove(circuit: CertificateCircuit, witness: FixedWitness,
               public: PublicInputs, randomness: tuple[int, int, int],
               check_commitments: bool = True) -> MockVerdict:
    """Check every family in table order; report the first violation.
    ``check_commitments=False`` skips the commit family, for a prover
    whose commitments were just computed from this witness."""
    for family in FAMILIES:
        if family.name == "commit" and not check_commitments:
            continue
        violation = family.check(circuit, witness, public, randomness)
        if violation:
            return MockVerdict(False, violation)
    return MockVerdict(True, None)
