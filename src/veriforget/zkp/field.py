"""Prime-field arithmetic, an algebraic sponge, and Merkle commitments.

The field is the BN254 scalar field (the scalar field of a standard
SNARK-friendly curve).  The sponge is a Poseidon-style permutation with
state width 3, x^5 S-box, 8 full and 56 partial rounds, and
nothing-up-my-sleeve constants derived by hashing a fixed tag.
Commitments are arity-2 Merkle trees over blinded leaf chunks.

``permute`` evaluates the permutation on a scaled state.  The Cauchy MDS
matrix is K / 420 for a small integer matrix K, so the state is carried
as c_r * v with a per-round scale c_r fixed at import time; every MDS
step is then a product by small integers, a partial round pays one
full-width product to align its S-box output with the other lanes, and
the output is unscaled once.  The constants are derived from the round
constants and the MDS matrix, and the tests check the result against
the permutation's defining form.

Each leaf is an independent sponge, so ``hashing`` hashes the leaves of
several vectors in one pass of forked worker processes
(``numkit.fork_start``), one per CPU the process may run on, longest
leaf first, while its caller works on; every chunk is built and checked
in the caller before the fork and dropped there after it, and the trees
above the leaves are hashed in the caller once the leaves come back.
``merkle_root`` is that pass over one vector, whose single leaf, if it
has only one, is hashed in-process.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager

import numpy as np

from ..numkit import NumericError, fork_start

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


def to_field(x: int) -> int:
    """Signed integer -> field element; magnitude must stay below p/2."""
    if abs(x) >= MODULUS // 2:
        raise NumericError(f"|{x}| >= p/2; cannot encode without wraparound")
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
_MDS_X, _MDS_Y = (0, 1, 2), (3, 4, 5)
_MDS = [
    [mpz(pow(xi + yj, MODULUS - 2, MODULUS)) for yj in _MDS_Y]
    for xi in _MDS_X
]
_P = mpz(MODULUS)


def _scaled_schedule():
    """The constants of ``permute``'s scaled evaluation.

    The MDS matrix is K / L over the field, with L the least common
    multiple of the x_i + y_j and K a small integer matrix.  ``permute``
    carries U = c_r * v, where v is the state entering round r's S-box
    and c_0 = 1.  After a full round c_{r+1} = L * c_r^5; after a partial
    round, whose one S-box output is first multiplied by c_r^-4,
    c_{r+1} = L * c_r.  Returns K, each round's (c_{r+1} * rc_{r+1},
    c_r^-4 or None for a full round), and c_R^-1 for the output."""
    den = math.lcm(*(xi + yj for xi in _MDS_X for yj in _MDS_Y))
    half = FULL_ROUNDS // 2
    rounds, scale = [], 1
    for r, rc in enumerate(_RC[1:] + [[0] * 3]):
        if r < half or r >= half + PARTIAL_ROUNDS:
            unscale = None
            scale = den * pow(scale, 5, MODULUS) % MODULUS
        else:
            unscale = mpz(pow(scale, -4, MODULUS))
            scale = den * scale % MODULUS
        rounds.append(([mpz(scale * int(x) % MODULUS) for x in rc], unscale))
    k = [[mpz(int(m) * den % MODULUS) for m in row] for row in _MDS]
    return k, rounds, mpz(pow(scale, -1, MODULUS))


_K, _ROUNDS, _UNSCALE = _scaled_schedule()


def permute(state: tuple[int, int, int]) -> tuple[int, int, int]:
    """The permutation on a scaled state (see ``_scaled_schedule``).  A
    full round leaves the MDS outputs unreduced, since each lane's S-box
    reduces its input; a partial round reduces the two lanes it does
    not raise to the fifth power."""
    p = _P
    a, b, c = (mpz(x) + rc for x, rc in zip(state, _RC[0]))
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = _K
    for (r0, r1, r2), unscale in _ROUNDS:
        if unscale is None:
            a, b, c = pow(a, 5, p), pow(b, 5, p), pow(c, 5, p)
        else:
            a, b, c = pow(a, 5, p) * unscale % p, b % p, c % p
        a, b, c = (
            k00 * a + k01 * b + k02 * c + r0,
            k10 * a + k11 * b + k12 * c + r1,
            k20 * a + k21 * b + k22 * c + r2,
        )
    u = _UNSCALE
    return int(a * u % p), int(b * u % p), int(c * u % p)


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


def _leaf_chunks(ints, randomness: int) -> list[list[int]]:
    """The blinded leaf chunks of a vector of signed integers: LEAF_CHUNK
    field elements each, raising NumericError on a value that would wrap,
    then the chunk's blinding element."""
    if isinstance(ints, np.ndarray):
        ints = [int(x) for x in ints.ravel()]
    chunks = []
    for li in range(0, max(len(ints), 1), LEAF_CHUNK):
        chunk = [to_field(x) for x in ints[li : li + LEAF_CHUNK]]
        chunk.append(_blinding(randomness, li // LEAF_CHUNK))
        chunks.append(chunk)
    return chunks


def _tree_root(leaves: list[int]) -> int:
    """The root of the arity-2 Merkle tree over the leaf digests; an odd
    node is carried up a level unhashed."""
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


def _leaves(vectors):
    """Each vector's leaf count, the leaves' indices longest first, and
    ``leaf(i)``, the i-th of those leaves' digest: only ``leaf`` holds
    the chunks."""
    chunks = [_leaf_chunks(ints, randomness) for ints, randomness in vectors]
    flat = [chunk for vector in chunks for chunk in vector]
    order = sorted(range(len(flat)), key=lambda j: -len(flat[j]))
    return ([len(vector) for vector in chunks], order,
            lambda i: sponge(flat[order[i]], "leaf"))


@contextmanager
def hashing(vectors):
    """Start hashing the leaves of every (ints, randomness) of ``vectors``
    in one ``numkit.fork_start`` pass, longest leaf first, once every
    chunk is built and checked; yield ``roots()``, which waits for the
    leaves and returns each vector's Merkle root, in order.  A single leaf
    is hashed in-process, when ``roots`` is called.  Once workers are
    forked, this process holds no chunk, nor any vector ``vectors``
    generates.  Leaving the block stops every worker not yet collected."""
    counts, order, leaf = _leaves(vectors)

    def roots() -> list[int]:
        leaves = [0] * len(order)
        for j, digest in zip(order, pending.result()):
            leaves[j] = digest
        in_order = iter(leaves)
        return [_tree_root([next(in_order) for _ in range(count)])
                for count in counts]

    with fork_start(leaf, len(order), fork=len(order) > 1) as pending:
        del leaf
        yield roots


def merkle_root(ints, randomness: int) -> int:
    """Binding, hiding commitment to a vector of signed integers: the
    Merkle root over blinded leaf chunks of LEAF_CHUNK field elements."""
    with hashing([(ints, randomness)]) as roots:
        return roots()[0]


def verify_commit(digest: int, ints, randomness: int) -> bool:
    try:
        return merkle_root(ints, randomness) == digest
    except NumericError:
        return False
