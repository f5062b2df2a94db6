"""The mock proof backend: prove and verify over the certificate circuit.

The mock backend synthesizes the statement's circuit and starts
committing to the witness once, in one pass of forked workers over
every leaf; meanwhile it runs the mock prover's other families, and
once they accept the witness it puts the roots into the statement and
binds a proof to the public inputs.  The verifier derives the circuit
hash from the public inputs, so a proof carries only its tag, a hash
anyone holding the public data can compute: the backend checks
constraint semantics only and gives neither knowledge soundness nor
zero knowledge.  Nor does the statement bind the curvature to
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
    committing,
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
        """Synthesize the statement's circuit and start hashing the
        witness's commitments; while the leaves hash, check every other
        constraint family, and only once they pass put the roots into the
        statement.  The commitments open to the witness by construction."""
        circuit = synthesize(statement, mask)
        with committing(witness, randomness) as roots:
            violation = mock_prove(circuit, witness, randomness,
                                   check_commitments=False)
            if violation:
                raise UnsatisfiableWitnessError(
                    f"witness violates constraint {violation}"
                )
            public = replace(statement, **{
                f"com_{name}": root
                for (name, _), root in zip(COMMITTED, roots())})
        return replace(circuit, public=public), Proof(_tag(public))

    def verify(self, proof: Proof, public: PublicInputs) -> bool:
        """Accept when the tag binds the public inputs to the circuit
        they determine."""
        return proof.tag == _tag(public)
