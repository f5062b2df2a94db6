"""Pluggable proof backend behind a prove/verify contract.

The mock backend commits to the witness once, builds the public inputs
from those commitments, and binds a proof to (circuit, public inputs)
after the mock prover accepts the witness.  Knowledge soundness and zero
knowledge are properties of a real succinct backend registered under
the same interface; the mock's satisfiability check is the normative
semantics either way.
"""

from __future__ import annotations

import json
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
    payload: bytes
    backend: str
    circuit_hash: str


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
    name = "mock"
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
        payload = canonical_json(
            {
                "backend": self.name,
                "circuit_hash": circuit.circuit_hash,
                "tag": _tag(circuit.circuit_hash, public),
            }
        )
        return public, Proof(
            payload=payload, backend=self.name, circuit_hash=circuit.circuit_hash
        )

    def verify(self, payload: bytes, public: PublicInputs) -> bool:
        try:
            obj = json.loads(payload)
            if obj.get("backend") != self.name:
                return False
            return obj.get("tag") == _tag(obj["circuit_hash"], public)
        except (ValueError, KeyError, TypeError):
            return False


BACKENDS = {"mock": MockBackend()}


def get_backend(name: str = "mock"):
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown proof backend {name!r}") from None
