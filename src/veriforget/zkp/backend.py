"""The mock proof backend: prove and verify over the certificate circuit.

The mock backend commits to the witness once, builds the public inputs
from those commitments and the circuit's statement, and binds a proof to
(circuit hash, public inputs) after the mock prover accepts the witness.
The verifier derives the circuit hash from the public inputs, so a proof
carries only its tag.  That tag is a hash anyone holding the public data
can compute: the backend checks constraint semantics only and gives
neither knowledge soundness nor zero knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..numkit import canonical_json, sha256_hex
from .circuit import (
    CertificateCircuit,
    PublicInputs,
    circuit_hash,
    commit_witness,
    mock_prove,
)
from .witness import FixedWitness

_PROOF_DOMAIN = "veriforget-mock-proof-v1"


class UnsatisfiableWitnessError(ValueError):
    """The mock prover found a constraint the witness violates."""


@dataclass(frozen=True)
class Proof:
    tag: str


def _tag(statement_hash: str, public: PublicInputs) -> str:
    return sha256_hex(canonical_json({
        "domain": _PROOF_DOMAIN,
        "circuit_hash": statement_hash,
        "public": public.to_json(),
    }))


class MockBackend:
    guarantee = "mock: constraint semantics only, no soundness, no zero knowledge"

    def prove(
        self,
        circuit: CertificateCircuit,
        witness: FixedWitness,
        randomness: tuple[int, int, int],
    ) -> tuple[PublicInputs, Proof]:
        """Commit to the witness once, then check every other constraint
        family; the commitments open to the witness by construction."""
        com_theta_p, com_theta_u, com_c_p = commit_witness(witness, randomness)
        public = PublicInputs(
            mask_digest=circuit.mask_digest,
            block_sizes=circuit.block_sizes,
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
            raise UnsatisfiableWitnessError(
                f"witness violates constraint {verdict.first_violation}"
            )
        return public, Proof(_tag(circuit.circuit_hash, public))

    def verify(self, proof: Proof, public: PublicInputs) -> bool:
        """Accept when the tag binds the public inputs to the circuit
        they determine."""
        statement_hash = circuit_hash(public.block_sizes, public.mask_digest,
                                      public.t_int, public.f_w, public.f_c)
        return proof.tag == _tag(statement_hash, public)
