"""The mock proof backend: prove and verify over the certificate circuit.

The mock backend commits to the witness once, puts those roots into the
statement, synthesizes its circuit and binds a proof to the public
inputs after the mock prover accepts the witness.  The verifier derives
the circuit hash from the public inputs, so a proof carries only its
tag, a hash anyone holding the public data can compute: the backend
checks constraint semantics only and gives neither knowledge soundness
nor zero knowledge.  Nor does the statement bind the curvature to
theta_p or the client's data: the layer factors are a free witness,
checked only to be in range.  The step of every block the mask does not
touch is pinned at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..masking import MaskArtifact
from ..numkit import canonical_json, sha256_hex
from .circuit import (
    COMMITTED,
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
                 "knowledge; the layer factors are a free witness, bound to "
                 "neither theta_p nor the data, and the step of every block "
                 "the mask does not touch is pinned at zero")

    def prove(
        self,
        witness: FixedWitness,
        mask: MaskArtifact,
        statement: PublicInputs,
        randomness: tuple[int, int, int],
    ) -> tuple[CertificateCircuit, Proof]:
        """Commit to the witness once, put the roots into ``statement``,
        synthesize its circuit, then check every other constraint family;
        the commitments open to the witness by construction."""
        roots = commit_witness(witness, randomness)
        public = replace(statement, **{f"com_{name}": root for (name, _), root
                                       in zip(COMMITTED, roots)})
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
