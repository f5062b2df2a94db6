"""Prime-field arithmetic, an algebraic sponge, and Merkle commitments.

The field is the BN254 scalar field (the scalar field of a standard
SNARK-friendly curve).  The sponge is a Poseidon-style permutation with
state width 3, x^5 S-box, 8 full and 56 partial rounds, and
nothing-up-my-sleeve constants derived by hashing a fixed tag.
Commitments are arity-2 Merkle trees over blinded leaf chunks.
"""

from __future__ import annotations

import hashlib

import numpy as np

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    def mpz(x):
        return x

MODULUS = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)

FULL_ROUNDS = 8
PARTIAL_ROUNDS = 56
LEAF_CHUNK = 1024


class WraparoundError(ValueError):
    """A signed value too large to embed without modular wraparound."""


def to_field(x: int) -> int:
    """Signed integer -> field element; magnitude must stay below p/2."""
    if abs(x) >= MODULUS // 2:
        raise WraparoundError(f"|{x}| >= p/2; cannot encode without wraparound")
    return x % MODULUS


def from_field(x: int) -> int:
    """Field element -> centered signed representative in (-p/2, p/2)."""
    x %= MODULUS
    return x - MODULUS if x > MODULUS // 2 else x


def _nums_constant(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest(), "big") % MODULUS


_RC = [
    [mpz(_nums_constant(f"veriforget/poseidon/rc/{r}/{j}")) for j in range(3)]
    for r in range(FULL_ROUNDS + PARTIAL_ROUNDS)
]
# Cauchy-style MDS row generators: m[i][j] = 1 / (x_i + y_j) with
# x = (0,1,2), y = (3,4,5); invertible over a prime field.
_MDS = [
    [mpz(pow(xi + yj, MODULUS - 2, MODULUS)) for yj in (3, 4, 5)]
    for xi in (0, 1, 2)
]
_P = mpz(MODULUS)
# The round constants of round r + 1, added inside round r's MDS
# reduction; the last round adds nothing.
_RC_NEXT = _RC[1:] + [[mpz(0)] * 3]


def permute(state: tuple[int, int, int]) -> tuple[int, int, int]:
    p = _P
    rc = _RC[0]
    a = (mpz(state[0]) + rc[0]) % p
    b = (mpz(state[1]) + rc[1]) % p
    c = (mpz(state[2]) + rc[2]) % p
    half = FULL_ROUNDS // 2
    total = FULL_ROUNDS + PARTIAL_ROUNDS
    m0, m1, m2 = _MDS
    for r in range(total):
        a = pow(a, 5, p)
        if r < half or r >= total - half:
            b = pow(b, 5, p)
            c = pow(c, 5, p)
        rc = _RC_NEXT[r]
        a, b, c = (
            (a * m0[0] + b * m0[1] + c * m0[2] + rc[0]) % p,
            (a * m1[0] + b * m1[1] + c * m1[2] + rc[1]) % p,
            (a * m2[0] + b * m2[1] + c * m2[2] + rc[2]) % p,
        )
    return int(a), int(b), int(c)


def sponge(elements, domain: str) -> int:
    """Absorb field elements at rate 2; squeeze one element."""
    a, b = 0, 0
    c = _nums_constant(f"veriforget/sponge/{domain}/{len(elements)}")
    n = len(elements)
    for i in range(0, n, 2):
        a = (a + elements[i]) % MODULUS
        if i + 1 < n:
            b = (b + elements[i + 1]) % MODULUS
        a, b, c = permute((a, b, c))
    return a


def _blinding(randomness: int, index: int) -> int:
    return _nums_constant(f"veriforget/blind/{randomness}/{index}")


def merkle_root(ints, randomness: int) -> int:
    """Binding, hiding commitment to a vector of signed integers: the
    Merkle root over blinded leaf chunks of LEAF_CHUNK field elements."""
    if isinstance(ints, np.ndarray):
        ints = [int(x) for x in ints.ravel()]
    leaves = []
    for li in range(0, max(len(ints), 1), LEAF_CHUNK):
        chunk = [to_field(x) for x in ints[li : li + LEAF_CHUNK]]
        chunk.append(_blinding(randomness, li // LEAF_CHUNK))
        leaves.append(sponge(chunk, "leaf"))
    level = 0
    while len(leaves) > 1:
        nxt = []
        for i in range(0, len(leaves) - 1, 2):
            nxt.append(sponge([leaves[i], leaves[i + 1]], f"node/{level}"))
        if len(leaves) % 2:
            nxt.append(leaves[-1])
        leaves = nxt
        level += 1
    return leaves[0]


def verify_commit(digest: int, ints, randomness: int) -> bool:
    try:
        return merkle_root(ints, randomness) == digest
    except WraparoundError:
        return False
