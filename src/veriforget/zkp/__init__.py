from ..numkit import touched
from .backend import MockBackend, Proof, UnsatisfiableWitnessError
from .circuit import (
    CertificateCircuit,
    PublicInputs,
    circuit_hash,
    commit_witness,
    constraint_report,
    mock_prove,
    synthesize,
)
from .field import (
    MODULUS,
    from_field,
    merkle_root,
    permute,
    sponge,
    to_field,
    verify_commit,
)
from .witness import (
    BOUND_C,
    BOUND_LAM,
    BOUND_W,
    DEFAULT_FRAC_BITS_C,
    DEFAULT_FRAC_BITS_W,
    FixedWitness,
    default_t_int,
    encode_fixed_witness,
    stationarity_bound_int,
)

__all__ = [
    "BOUND_C",
    "BOUND_LAM",
    "BOUND_W",
    "MODULUS",
    "CertificateCircuit",
    "FixedWitness",
    "MockBackend",
    "Proof",
    "PublicInputs",
    "UnsatisfiableWitnessError",
    "circuit_hash",
    "commit_witness",
    "constraint_report",
    "default_t_int",
    "encode_fixed_witness",
    "from_field",
    "merkle_root",
    "mock_prove",
    "permute",
    "sponge",
    "stationarity_bound_int",
    "synthesize",
    "to_field",
    "touched",
    "verify_commit",
]
