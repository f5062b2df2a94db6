from ..numkit import touched
from .backend import MockBackend, Proof, UnsatisfiableWitnessError
from .circuit import (
    CertificateCircuit,
    PublicInputs,
    circuit_hash,
    commit_witness,
    constraint_report,
    mock_prove,
    precision,
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
    BOUND_LAM,
    BOUND_W,
    FRAC_BITS_W,
    T_INT_THRESHOLD,
    FixedWitness,
    default_t_int,
    encode_fixed_witness,
    stationarity_bound_int,
)

