"""The mock proof backend: prove and verify over the certificate circuit.

The mock backend commits to the witness once, builds the public inputs
from those commitments and the statement, synthesizes their circuit and
binds a proof to the public inputs after the mock prover accepts the
witness.  The verifier derives the circuit hash from the public inputs,
so a proof carries only its tag.  That tag is a hash anyone holding the
public data can compute: the backend checks constraint semantics only
and gives neither knowledge soundness nor zero knowledge.  Nor does the
statement bind the curvature to theta_p or to the client's data: the
circuit checks only that it is in range (it is symmetric by
construction), so a prover may choose it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..masking import MaskArtifact
from ..numkit import canonical_json, sha256_hex
from .circuit import (
    CertificateCircuit,
    PublicInputs,
    circuit_hash,
    commit_witness,
    mock_prove,
    synthesize,
)
from .witness import FixedWitness

_PROOF_DOMAIN = "veriforget-mock-proof-v1"


class UnsatisfiableWitnessError(ValueError):
    """The witness violates the statement: its float KKT certificate
    fails, or the mock prover found a constraint it violates."""


@dataclass(frozen=True)
class Proof:
    tag: str


def _tag(public: PublicInputs) -> str:
    return sha256_hex(canonical_json({
        "domain": _PROOF_DOMAIN,
        "circuit_hash": circuit_hash(public),
        "public": public.to_json(),
    }))


class MockBackend:
    guarantee = ("mock: constraint semantics only, no soundness, no zero "
                 "knowledge; the curvature is a free witness, bound to "
                 "neither theta_p nor the data")

    def prove(
        self,
        witness: FixedWitness,
        mask: MaskArtifact,
        block_sizes: tuple[int, ...],
        t_int: int,
        randomness: tuple[int, int, int],
    ) -> tuple[CertificateCircuit, Proof]:
        """Commit to the witness once, build the public inputs from those
        roots, synthesize their circuit, then check every other constraint
        family; the commitments open to the witness by construction."""
        com_theta_p, com_theta_u, com_c_p = commit_witness(witness, randomness)
        public = PublicInputs(
            mask_digest=mask.digest,
            block_sizes=tuple(block_sizes),
            com_theta_p=com_theta_p,
            com_theta_u=com_theta_u,
            com_c_p=com_c_p,
            t_int=t_int,
            f_w=witness.f_w,
            f_c=witness.f_c,
        )
        circuit = synthesize(public, mask)
        violation = mock_prove(circuit, witness, randomness,
                               check_commitments=False)
        if violation:
            raise UnsatisfiableWitnessError(
                f"witness violates constraint {violation}"
            )
        return circuit, Proof(_tag(public))

    def verify(self, proof: Proof, public: PublicInputs) -> bool:
        """Accept when the tag binds the public inputs to the circuit
        they determine."""
        return proof.tag == _tag(public)
