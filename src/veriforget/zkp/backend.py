"""The mock proof backend: prove and verify over the certificate circuit.

The mock backend commits to the witness once, builds the public inputs
from those commitments, and binds a proof to (circuit hash, public
inputs) after the mock prover accepts the witness.  Its proof is a hash
tag that anyone holding the public data can compute: it checks
constraint semantics only and gives neither knowledge soundness nor
zero knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..numkit import canonical_json, sha256_hex
from .circuit import (
    CertificateCircuit,
    MockVerdict,
    PublicInputs,
    commit_witness,
    mock_prove,
)
from .witness import FixedWitness

_PROOF_DOMAIN = "veriforget-mock-proof-v1"


class UnsatisfiableWitnessError(ValueError):
    def __init__(self, verdict: MockVerdict):
        super().__init__(f"witness violates constraint {verdict.first_violation}")
        self.verdict = verdict


@dataclass(frozen=True)
class Proof:
    circuit_hash: str
    tag: str


def _tag(circuit_hash: str, public: PublicInputs) -> str:
    return sha256_hex(
        canonical_json(
            {
                "domain": _PROOF_DOMAIN,
                "circuit_hash": circuit_hash,
                "public": public.to_json(),
            }
        )
    )


class MockBackend:
    guarantee = "mock: constraint semantics only, no soundness, no zero knowledge"

    def prove(
        self,
        circuit: CertificateCircuit,
        witness: FixedWitness,
        mask_digest: str,
        randomness: tuple[int, int, int],
    ) -> tuple[PublicInputs, Proof]:
        """Commit to the witness once, then check every other constraint
        family; the commitments open to the witness by construction."""
        com_theta_p, com_theta_u, com_c_p = commit_witness(witness, randomness)
        public = PublicInputs(
            mask_digest=mask_digest,
            com_theta_p=com_theta_p,
            com_theta_u=com_theta_u,
            com_c_p=com_c_p,
            t_int=circuit.t_int,
            f_w=circuit.f_w,
            f_c=circuit.f_c,
        )
        verdict = mock_prove(
            circuit, witness, public, randomness, check_commitments=False
        )
        if not verdict.ok:
            raise UnsatisfiableWitnessError(verdict)
        return public, Proof(circuit.circuit_hash,
                             _tag(circuit.circuit_hash, public))

    def verify(self, proof: Proof, public: PublicInputs) -> bool:
        return proof.tag == _tag(proof.circuit_hash, public)
