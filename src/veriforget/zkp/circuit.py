"""Certificate constraint system and the mock prover.

The mock prover evaluates every constraint directly over the field and
is the normative semantics of the certificate; succinct backends plug
in behind the same circuit description.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..masking import MaskArtifact
from ..numkit import BlockLayout, canonical_json, sha256_hex
from .field import MODULUS, from_field, merkle_root, to_field, verify_commit
from .witness import FixedWitness


@dataclass(frozen=True)
class PublicInputs:
    mask_digest: str
    com_theta_p: int
    com_theta_u: int
    com_c_p: int
    t_int: int
    f_w: int
    f_c: int

    def to_json(self) -> dict:
        return {
            "mask_digest": self.mask_digest,
            "com_theta_p": f"{self.com_theta_p:064x}",
            "com_theta_u": f"{self.com_theta_u:064x}",
            "com_c_p": f"{self.com_c_p:064x}",
            "t_int": self.t_int,
            "f_w": self.f_w,
            "f_c": self.f_c,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PublicInputs":
        return cls(
            mask_digest=obj["mask_digest"],
            com_theta_p=int(obj["com_theta_p"], 16),
            com_theta_u=int(obj["com_theta_u"], 16),
            com_c_p=int(obj["com_c_p"], 16),
            t_int=obj["t_int"],
            f_w=obj["f_w"],
            f_c=obj["f_c"],
        )


# How com_c_p lays out the curvature blocks (see ``pack_curvature``).
C_P_PACKING = "upper-triangle-row-major"


@dataclass(frozen=True)
class CertificateCircuit:
    block_sizes: tuple[int, ...]
    support: tuple[int, ...]
    dim: int
    t_int: int
    f_w: int
    f_c: int
    counts: dict
    circuit_hash: str


def synthesize(
    layout: BlockLayout,
    mask: MaskArtifact,
    t_int: int,
    f_w: int,
    f_c: int,
) -> CertificateCircuit:
    sizes = tuple(size for _, size, _ in layout.blocks)
    d = layout.total_dim
    k = mask.budget
    counts = {
        "matvec": int(sum(s * s for s in sizes)),
        "assembly": d,
        "feasibility": k,
        "range": 3 * d + k + d,  # theta_p, theta_u, delta_w, lam, residual
        "symmetry": int(sum(s * (s - 1) // 2 for s in sizes)),
        "commit": 3,
    }
    desc = {
        "block_sizes": list(sizes),
        "support": [int(i) for i in mask.support],
        "dim": d,
        "t_int": t_int,
        "f_w": f_w,
        "f_c": f_c,
        "counts": counts,
        "c_p_packing": C_P_PACKING,
    }
    return CertificateCircuit(
        block_sizes=sizes,
        support=tuple(int(i) for i in mask.support),
        dim=d,
        t_int=t_int,
        f_w=f_w,
        f_c=f_c,
        counts=counts,
        circuit_hash=sha256_hex(canonical_json(desc)),
    )


def constraint_report(circuit: CertificateCircuit) -> dict:
    report = dict(circuit.counts)
    report["total"] = sum(circuit.counts.values())
    report["circuit_hash"] = circuit.circuit_hash
    return report


def pack_curvature(c_blocks) -> np.ndarray:
    """Each block's upper triangle, row-major, in layout order.  The
    symmetry constraints tie the strict lower triangles to it."""
    return np.concatenate([b[np.triu_indices(b.shape[0])] for b in c_blocks])


def _committed_vectors(witness: FixedWitness) -> tuple[np.ndarray, ...]:
    """The vectors behind (com_theta_p, com_theta_u, com_c_p)."""
    return (
        witness.theta_p.ints,
        witness.theta_u.ints,
        pack_curvature(witness.c_blocks),
    )


def commit_witness(
    witness: FixedWitness, randomness: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Merkle roots of theta_p, theta_u and the packed curvature."""
    return tuple(
        merkle_root(ints, rand)
        for ints, rand in zip(_committed_vectors(witness), randomness)
    )


@dataclass(frozen=True)
class MockVerdict:
    ok: bool
    first_violation: str | None

    def __bool__(self) -> bool:
        return self.ok


def _field_vec(ints: np.ndarray) -> list[int]:
    return [to_field(int(x)) for x in ints]


def mock_prove(
    circuit: CertificateCircuit,
    witness: FixedWitness,
    public: PublicInputs,
    randomness: tuple[int, int, int],
    check_commitments: bool = True,
) -> MockVerdict:
    """Evaluate every constraint family; identify the first violation."""
    f_w, f_c = circuit.f_w, circuit.f_c
    limit_w = int(witness.bound_w * 2**f_w)
    limit_lam = int(witness.bound_lam * 2**f_w)
    limit_c = int(witness.bound_c * 2**f_c)

    def _range(ints, limit, family):
        for i, x in enumerate(ints):
            if abs(int(x)) > limit:
                return f"range/{family}[{i}]"
        return None

    for ints, limit, family in (
        (witness.theta_p.ints, limit_w, "theta_p"),
        (witness.theta_u.ints, limit_w, "theta_u"),
        (witness.delta_w.ints, limit_w, "delta_w"),
        (witness.lam.ints, limit_lam, "lam"),
    ):
        v = _range(ints, limit, family)
        if v:
            return MockVerdict(False, v)
    for bi, block in enumerate(witness.c_blocks):
        if block.size and int(np.abs(block).max()) > limit_c:
            return MockVerdict(False, f"range/c_p[block {bi}]")
    for bi, block in enumerate(witness.c_blocks):
        if not np.array_equal(block, block.T):
            return MockVerdict(False, f"symmetry/c_p[block {bi}]")

    # assembly: theta_u - theta_p - delta_w == 0 over the field
    tp = _field_vec(witness.theta_p.ints)
    tu = _field_vec(witness.theta_u.ints)
    dw = _field_vec(witness.delta_w.ints)
    for i in range(circuit.dim):
        if (tu[i] - tp[i] - dw[i]) % MODULUS != 0:
            return MockVerdict(False, f"assembly[{i}]")

    # feasibility: delta_w_M + theta_p_M == 0
    for j, i in enumerate(circuit.support):
        if (dw[i] + tp[i]) % MODULUS != 0:
            return MockVerdict(False, f"feasibility[{j}]")

    # stationarity per block: |C dw + 2^{f_c} E lam| <= T_int
    lam_scaled = np.zeros(circuit.dim, dtype=object)
    for j, i in enumerate(circuit.support):
        lam_scaled[i] = int(witness.lam.ints[j]) << f_c
    offset = 0
    for block in witness.c_blocks:
        d_b = block.shape[0]
        dw_b = witness.delta_w.ints[offset : offset + d_b].astype(object)
        r = block.astype(object) @ dw_b + lam_scaled[offset : offset + d_b]
        for i in range(d_b):
            val = from_field(to_field(int(r[i])))
            if abs(val) > circuit.t_int:
                return MockVerdict(False, f"stationarity[{offset + i}]")
        offset += d_b

    if check_commitments:
        digests = (public.com_theta_p, public.com_theta_u, public.com_c_p)
        for digest, ints, rand, family in zip(
            digests, _committed_vectors(witness), randomness,
            ("theta_p", "theta_u", "c_p"),
        ):
            if not verify_commit(digest, ints, rand):
                return MockVerdict(False, f"commit/{family}")

    return MockVerdict(True, None)
