import functools
import gc
import math
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import veriforget
from veriforget.certify import check_kkt
from veriforget.curvature import BLOCK_CAPS, empirical_fisher_blockwise
from veriforget.masking import make_mask
from veriforget.model import column_layout, init_mlp, layer_grad_blocks
from veriforget.numkit import NumericError, StructuralError, block_slices
from veriforget.obs import apply_unlearn
from veriforget.pipeline import compensate, run_zk_layer
from veriforget.zkp import (
    BOUND_LAM,
    BOUND_W,
    MODULUS,
    MockBackend,
    Proof,
    PublicInputs,
    UnsatisfiableWitnessError,
    circuit_hash,
    constraint_report,
    default_t_int,
    encode_fixed_witness,
    from_field,
    merkle_root,
    mock_prove,
    permute,
    sponge,
    stationarity_bound_int,
    synthesize,
    to_field,
    touched,
    verify_commit,
)
from veriforget.zkp import field
from veriforget.zkp.circuit import (
    COMMITTED,
    ELEMENT_BITS,
    FAMILIES,
    LIMB_BITS_F,
    LIMB_BITS_W,
    committing,
    limb_bits,
    pack_limbs,
)
from veriforget.zkp.field import LEAF_CHUNK
from veriforget.zkp.witness import (
    BOUND_F,
    FRAC_BITS_F,
    FRAC_BITS_T,
    FRAC_BITS_W,
    MAX_SHIFT,
    ROW_SUM_CAP,
    T_INT_THRESHOLD,
    FixedWitness,
    factor_parts,
)

from conftest import (
    assert_no_child_process,
    examples,
    random_mask,
    reference_merkle_root,
    reference_curvature_layout,
    reference_permute,
    reference_residual,
    report_cpus,
    small_dataset,
    statement,
    tag_over,
    tiny_config,
    with_u,
)
from veriforget.pipeline import demo_config


def honest_zk_instance(seed, dims=(3, 4, 2), cap=4):
    """An honest instance proved by the mock backend, the public inputs
    being ``circuit.public``: a random model of ``dims`` and a Fisher over
    40 random rows at block cap ``cap``, so that weight blocks start
    mid-row and bias blocks are blocks of their own, with a random mask
    over every coordinate."""
    rng = np.random.default_rng(seed)
    model = init_mlp(list(dims), seed)
    model = model.with_params(rng.normal(0.0, 0.7, model.dim))
    data = small_dataset(rng, n=40, dim=dims[0], classes=dims[-1])
    fisher = empirical_fisher_blockwise(model, data, block_cap=cap, seed=seed)
    mask = random_mask(rng, fisher.layout, int(rng.integers(1, 5)))
    comp, theta_u = compensate(model, mask, fisher)
    w, circuit, proof, rnd = run_zk_layer(model, theta_u, comp, fisher, mask,
                                          seed)
    return fisher, model.params, mask, comp, w, circuit, proof, rnd


def with_public(circuit, **changes):
    """``circuit`` with some of its public inputs replaced."""
    return replace(circuit, public=replace(circuit.public, **changes))


# -- field / sponge ------------------------------------------------------------


def test_field_round_trip():
    for x in (0, 1, -1, 12345, -(1 << 60), (1 << 60)):
        assert from_field(to_field(x)) == x


def test_field_wraparound_guard():
    with pytest.raises(NumericError, match="wraparound"):
        to_field(MODULUS // 2)
    with pytest.raises(NumericError, match="wraparound"):
        to_field(-(MODULUS // 2) - 1)


def test_permute_deterministic_and_nontrivial():
    a = permute((1, 2, 3))
    b = permute((1, 2, 3))
    assert a == b
    assert a != (1, 2, 3)
    assert all(0 <= x < MODULUS for x in a)


_ELEMENT = st.integers(0, MODULUS - 1)


@given(st.tuples(_ELEMENT, _ELEMENT, _ELEMENT))
@example((0, 0, 0))
@example((MODULUS - 1, MODULUS - 1, MODULUS - 1))
def test_permute_matches_dense_reference(state):
    assert permute(state) == reference_permute(state)


def test_mds_is_small_integer_matrix_over_its_denominator():
    from veriforget.zkp.field import _K, _MDS
    inv = pow(420, -1, MODULUS)
    assert [[int(k) for k in row] for row in _K] == [
        [140, 105, 84], [105, 84, 70], [84, 70, 60]]
    assert all(int(k) * inv % MODULUS == int(m)
               for krow, mrow in zip(_K, _MDS) for k, m in zip(krow, mrow))


def test_sponge_domain_separation():
    assert sponge([1, 2, 3], "a") != sponge([1, 2, 3], "b")


def test_sponge_length_binding():
    assert sponge([1, 2], "a") != sponge([1, 2, 0], "a")


def test_sponge_matches_permute_composition():
    # one absorb step of a 2-element message is a single permutation
    from veriforget.zkp.field import _nums_constant
    cap = _nums_constant("veriforget/sponge/x/2")
    assert sponge([5, 7], "x") == permute((5, 7, cap))[0]


# merkle_root(range(3000), 9): three leaves
ROOT_3000 = (
    15658109783776964317420728018405543078597802654730398729018368309240798195223
)


def test_known_answers():
    # pinned before the round constants were folded into the MDS step
    assert permute((0, 1, 2)) == (
        19785140422513759282627613124295928383683915246854563434950732499495010118751,
        15506766169187333254738443777187011903144418096234530098558779048727245430660,
        3245390161249358200552738614242671236545877240580540466832358720729913247823,
    )
    assert sponge(range(5), "leaf") == (
        17528720717860874537268767389095613517573119957523274042998254144061356903447
    )
    assert merkle_root(range(3000), 9) == ROOT_3000


# -- commitments ------------------------------------------------------------------


def test_commit_deterministic():
    v = np.arange(10, dtype=np.int64)
    assert merkle_root(v, 5) == merkle_root(v, 5)


def test_commit_hiding_randomness_changes_digest():
    v = np.arange(10, dtype=np.int64)
    assert merkle_root(v, 5) != merkle_root(v, 6)


def test_commit_avalanche():
    v = np.arange(10, dtype=np.int64)
    w = v.copy()
    w[3] += 1
    assert merkle_root(v, 5) != merkle_root(w, 5)


def test_commit_collision_smoke():
    rng = np.random.default_rng(0)
    digests = set()
    for _ in range(300):
        v = rng.integers(-(1 << 20), 1 << 20, size=8)
        digests.add(merkle_root(v, 1))
    assert len(digests) == 300


def test_commit_multi_chunk_tree():
    rng = np.random.default_rng(1)
    v = rng.integers(-1000, 1000, size=3000)  # three leaf chunks
    root = merkle_root(v, 9)
    assert verify_commit(root, v, 9)
    v2 = v.copy()
    v2[2500] += 1  # tamper in the last chunk
    assert not verify_commit(root, v2, 9)


def committed_roots(witness, randomness) -> tuple[int, int, int]:
    """The Merkle roots of the witness's ``COMMITTED`` vectors."""
    with committing(witness, randomness) as roots:
        return tuple(roots())


# -- leaves hashed in worker processes ---------------------------------------


class LeafFault(RuntimeError):
    """Raised by a sponge that the workers inherit."""


@settings(max_examples=examples(6), deadline=None)
@given(st.integers(0, 3 * LEAF_CHUNK + 1), st.integers(), st.integers(0, 2**32))
@example(0, 0, 0)
@example(1, 0, 0)
@example(LEAF_CHUNK, 0, 0)
@example(LEAF_CHUNK + 1, 0, 0)
@example(3 * LEAF_CHUNK + 1, 0, 0)
def test_merkle_root_matches_in_process_oracle(n, randomness, seed):
    rng = random.Random(seed)
    half = MODULUS // 2
    ints = [rng.randrange(-half + 1, half) for _ in range(n)]
    with pytest.MonkeyPatch.context() as mp:
        report_cpus(mp, 3)
        root = merkle_root(ints, randomness)
    assert root == reference_merkle_root(ints, randomness)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@settings(max_examples=examples(4), deadline=None)
@given(st.lists(st.integers(0, LEAF_CHUNK + 1), min_size=1, max_size=4),
       st.integers(0, 2**32))
@example([1, LEAF_CHUNK + 1, 0, LEAF_CHUNK], 0)
def test_one_pass_roots_match_in_process_oracle(cpus, lengths, seed):
    """The leaves of 1-4 vectors hashed in one pass, longest first, give
    each vector its own root."""
    rng = random.Random(seed)
    half = MODULUS // 2
    vectors = [([rng.randrange(-half + 1, half) for _ in range(n)],
                rng.randrange(2**63)) for n in lengths]
    with pytest.MonkeyPatch.context() as mp:
        report_cpus(mp, cpus)
        with field.hashing(vectors) as roots:
            got = roots()
    assert got == [reference_merkle_root(ints, r) for ints, r in vectors]
    assert_no_child_process()


@pytest.mark.parametrize("cpus, leaves, in_parent",
                         [(1, 3, True), (4, 1, True), (2, 3, False)])
def test_one_pass_hashes_in_process_only_with_one_worker(monkeypatch, cpus,
                                                         leaves, in_parent):
    # one-leaf vectors, whose roots are their leaves: here the pid of the
    # process that hashed each
    report_cpus(monkeypatch, cpus)
    monkeypatch.setattr(field, "sponge", lambda elements, domain: os.getpid())
    with field.hashing([([i], i) for i in range(leaves)]) as roots:
        pids = set(roots())
    if in_parent:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= cpus


def test_no_chunk_is_held_once_the_workers_fork(monkeypatch):
    """Inside ``hashing``'s block, once the workers have forked, this
    process holds neither the leaf function nor the chunks it held, nor a
    vector passed as a generator: what it has allocated since entering is
    a small part of the chunks' 4 x 1,025 field elements of 254 bits."""
    report_cpus(monkeypatch, 2)
    leaf_fns, real = [], field.fork_start

    def spy(fn, count, fork=True):
        leaf_fns.append(weakref.ref(fn))
        return real(fn, count, fork)

    monkeypatch.setattr(field, "fork_start", spy)
    rng = np.random.default_rng(0)
    # negative values, so that each field element is an int of its own
    data = [(rng.integers(-2**62, 0, size=2 * LEAF_CHUNK), r) for r in (3, 4)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with field.hashing((v.tolist(), r) for v, r in data) as roots:
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
            freed = leaf_fns[0]() is None
            got = roots()
    finally:
        tracemalloc.stop()
    assert got == [reference_merkle_root(v, r) for v, r in data]
    assert freed
    assert held < 64 * 1024
    assert_no_child_process()


def test_committing_leaves_no_child_process(monkeypatch, tmp_path):
    rng = np.random.default_rng(0)
    # 6,000 factor values, 1,200 packed elements: two leaves
    a, d = rng.integers(-1000, 1000, size=(2, 600, 5))
    vec = rng.integers(-1000, 1000, size=40)
    w = FixedWitness(theta_p=vec, theta_u=vec + 1, delta_w=np.ones(40, np.int64),
                     lam=np.zeros(0, np.int64), factors=((a, d),), u=(),
                     shift=0, factor_shift=0)
    randomness = (4, 5, 6)
    expected = tuple(reference_merkle_root(get(w), r)
                     for (_, get), r in zip(COMMITTED, randomness))
    log, real = tmp_path / "leaf-pids", field.sponge

    def logging_sponge(elements, domain):
        if domain == "leaf":
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        return real(elements, domain)

    report_cpus(monkeypatch, 2)
    monkeypatch.setattr(field, "sponge", logging_sponge)
    assert committed_roots(w, randomness) == expected
    assert multiprocessing.active_children() == []
    assert set(map(int, log.read_text().split())) - {os.getpid()}


def test_worker_exception_reaches_caller(monkeypatch):
    def faulty(elements, domain):
        raise LeafFault(domain)

    report_cpus(monkeypatch, 2)
    monkeypatch.setattr(field, "sponge", faulty)
    with pytest.raises(LeafFault):
        merkle_root(range(3000), 9)
    assert multiprocessing.active_children() == []


def test_verify_commit_false_on_wraparound_with_workers(monkeypatch):
    report_cpus(monkeypatch, 2)
    v = list(range(3000))
    assert verify_commit(ROOT_3000, v, 9)
    v[2500] = MODULUS // 2
    assert not verify_commit(ROOT_3000, v, 9)


def test_killed_worker_raises_instead_of_hanging():
    # A fresh interpreter, so that a hang fails on the timeout.
    script = textwrap.dedent("""
        import multiprocessing, os, signal
        from concurrent.futures.process import BrokenProcessPool
        from veriforget.zkp import field
        os.sched_getaffinity = lambda pid: {0, 1}
        field.sponge = lambda e, d: os.kill(os.getpid(), signal.SIGKILL)
        try:
            field.merkle_root(range(3000), 9)
        except BrokenProcessPool:
            print("broken", len(multiprocessing.active_children()))
    """)
    src = os.path.dirname(os.path.dirname(veriforget.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["broken", "0"], proc.stderr


def test_run_zk_layer_hashes_each_vector_once(monkeypatch):
    from veriforget import pipeline
    from veriforget.zkp import circuit, field
    r = pipeline.run_pipeline(3, tiny_config(run_zk=False))
    passes = []
    real = field.hashing

    def counting(vectors):
        passes.append([len(ints) for ints, _ in vectors])
        return real(vectors)

    # field's own, so that a merkle_root call is counted too
    for module in (field, circuit):
        monkeypatch.setattr(module, "hashing", counting)
    pipeline.run_zk_layer(r.theta_p, r.theta_u, r.comp, r.fisher, r.mask, 3)
    d, n = r.theta_p.params.dim, r.fisher.sample_count
    sizes = [s for _, s, _ in r.fisher.layout.blocks]
    # 30-bit weight limbs, 8 per element; 48- and 46-bit factor limbs, 5
    # each, of the layer that holds the touched block alone: the 4-8-3
    # model's first weight block, so A is n x 4 and Delta n x 8
    assert touched(sizes, r.mask.support) == (0,)
    assert passes == [[-(-d // 8), -(-d // 8),
                       -(-n * 4 // 5) - (-n * 8 // 5)]] == [[9, 9, 384]]


def tampered_proof_inputs():
    """A tiny pipeline's witness with delta_w[0] moved by one unit, its
    mask, statement and randomness: the witness fails assembly[0]."""
    from veriforget import pipeline
    r = pipeline.run_pipeline(3, tiny_config())
    dw = r.witness.delta_w.copy()
    dw[0] += 1
    return replace(r.witness, delta_w=dw), r.mask, r.circuit.public, r.randomness


def test_prove_rejection_stops_the_hashing_workers(monkeypatch):
    """The mock prover's rejection reaches the caller at once while the
    leaves, made to take a minute each, still hash; no worker is left."""
    args = tampered_proof_inputs()
    report_cpus(monkeypatch, 2)
    monkeypatch.setattr(field, "sponge", lambda elements, domain: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(UnsatisfiableWitnessError, match=r"assembly\[0\]"):
        MockBackend().prove(*args)
    assert time.monotonic() - start < 30
    assert_no_child_process()


def test_killed_hashing_worker_fails_prove_instead_of_hanging():
    # A fresh interpreter, so that a hang fails on the timeout.
    script = textwrap.dedent("""
        import multiprocessing, os, signal
        from concurrent.futures.process import BrokenProcessPool
        from veriforget.pipeline import demo_config, run_pipeline
        from veriforget.zkp import MockBackend, field
        r = run_pipeline(3, demo_config(layer_dims=(4, 8, 3), mask_k=12,
                                        run_gold=False))
        os.sched_getaffinity = lambda pid: {0, 1}
        field.sponge = lambda e, d: os.kill(os.getpid(), signal.SIGKILL)
        try:
            MockBackend().prove(r.witness, r.mask, r.circuit.public,
                                r.randomness)
        except BrokenProcessPool:
            print("broken", len(multiprocessing.active_children()))
    """)
    src = os.path.dirname(os.path.dirname(veriforget.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["broken", "0"], proc.stderr


def unpack_limbs(elements, bits, n):
    """Oracle inverse of ``pack_limbs`` on vectors whose values fit their
    limbs: the first n limbs, least-significant first, less the offset."""
    per, mask = ELEMENT_BITS // bits, (1 << bits) - 1
    return [((e >> (bits * j)) & mask) - (1 << (bits - 1))
            for e in elements for j in range(per)][:n]


def test_default_limb_widths():
    assert (LIMB_BITS_W, LIMB_BITS_F) == (30, 48)
    assert (limb_bits(BOUND_W, 22), limb_bits(BOUND_F, 40)) == (30, 48)
    assert (ELEMENT_BITS // 30, ELEMENT_BITS // 48) == (8, 5)


def test_precision_constants_fit_their_budgets():
    # each within quantize's 40 bits; the factor limb at most 50 bits, 5
    # to a field element; and each term of the largest residual the
    # circuit forms, at n = 2^10 rows, blocks of 2^9 columns and MAX_SHIFT,
    # the damping scaled as the multipliers within BOUND_LAM, below p/8
    assert all(0 <= f <= 40 for f in (FRAC_BITS_W, FRAC_BITS_F))
    assert LIMB_BITS_F <= 50
    assert T_INT_THRESHOLD == 1 << (FRAC_BITS_T + 4)
    g = int(BOUND_F * 2**FRAC_BITS_F) ** 2
    w, lam = int(BOUND_W * 2**FRAC_BITS_W), int(BOUND_LAM * 2**FRAC_BITS_W)
    n, s, weight = 2**10, 2**9, 4 * FRAC_BITS_F + MAX_SHIFT
    assert n * s * g * g * w < MODULUS // 8
    assert n * lam << weight < MODULUS // 8
    assert n * (int(BOUND_LAM) << weight) * w < MODULUS // 8
    assert n * T_INT_THRESHOLD << weight < MODULUS // 8


@st.composite
def in_range_vectors(draw):
    """A bound, a number of fractional bits quantize accepts, and a vector
    within bound * 2^frac that includes both extremes."""
    bound = draw(st.sampled_from([BOUND_W, BOUND_F]))
    frac = draw(st.integers(0, 40))
    lim = int(bound * 2**frac)
    values = draw(st.lists(st.integers(-lim, lim), min_size=0, max_size=40))
    return frac, bound, np.array([-lim, lim, *values], dtype=np.int64)


@given(in_range_vectors())
def test_packing_is_injective_in_range(case):
    # unpacking inverts packing on in-range vectors of a known length,
    # so no two of them pack alike
    frac, bound, vec = case
    bits = limb_bits(bound, frac)
    packed = pack_limbs(vec, bits)
    assert len(packed) == -(-vec.size // (ELEMENT_BITS // bits))
    assert all(0 <= e < 1 << ELEMENT_BITS for e in packed)
    assert unpack_limbs(packed, bits, vec.size) == vec.tolist()


def test_packing_is_total_on_int64():
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max] * 9)
    for bits in (LIMB_BITS_W, LIMB_BITS_F):
        assert all(0 <= e < 1 << ELEMENT_BITS
                   for e in pack_limbs(extremes, bits))


def _alias(vec, i, bits):
    """vec with 2^bits carried into limb i and borrowed from limb i + 1:
    the same packed element, limb i no longer in range."""
    out = vec.copy()
    out[i] += 1 << bits
    out[i + 1] -= 1
    return out


def test_weight_limb_alias_fails_range():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(22)
    bits = LIMB_BITS_W
    i = 0  # limbs 0 and 1 share the first element
    bad = replace(w, theta_p=_alias(w.theta_p, i, bits),
                  theta_u=_alias(w.theta_u, i, bits))
    public = circuit.public
    assert committed_roots(bad, rnd) == (
        public.com_theta_p, public.com_theta_u, public.com_c_p)
    assert mock_prove(circuit, bad, rnd) == f"range/theta_p[{i}]"


def test_curvature_limb_alias_fails_range():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(23)
    # packed limbs 0 and 1 of the committed factors are the first touched
    # layer's A[0, 0] and A[0, 1]
    a, d = w.factors[0]
    bad = replace(w, factors=(
        (_alias(a.ravel(), 0, LIMB_BITS_F).reshape(a.shape), d),
        *w.factors[1:]))
    assert committed_roots(bad, rnd)[2] == circuit.public.com_c_p
    assert (mock_prove(circuit, bad, rnd)
            == f"range/a[layer {circuit.layers[0]}][0]")


def test_verify_commit_wrong_randomness():
    v = np.arange(5, dtype=np.int64)
    root = merkle_root(v, 5)
    assert verify_commit(root, v, 5)
    assert not verify_commit(root, v, 6)


# -- witness encoding ----------------------------------------------------------------


def test_zero_witness():
    fisher, theta, mask, comp, w, *_ = honest_zk_instance(0)
    zero = theta.with_values(np.zeros(theta.dim))
    empty = make_mask(theta.dim, 0, np.arange(theta.dim, dtype=np.int64),
                      np.zeros(0, dtype=np.int64))
    wz = encode_fixed_witness(zero, zero, zero, np.zeros(0), fisher, empty)
    assert (wz.theta_p == 0).all()
    assert (wz.theta_u == 0).all()
    assert (wz.delta_w == 0).all()


def test_forced_masked_coordinate():
    # theta_p = 1.0 on a masked coordinate forces ints(dw) = -2^f_w there
    fisher, theta, mask, comp, w, *_ = honest_zk_instance(1)
    i = mask.support[0]
    assert w.delta_w[i] == -w.theta_p[i]
    assert w.theta_u[i] == 0


def test_integer_assembly_and_feasibility_exact():
    for seed in range(5):
        _, _, mask, _, w, *_ = honest_zk_instance(seed)
        assert (w.theta_u == w.theta_p + w.delta_w).all()
        assert (w.delta_w[mask.support] == -w.theta_p[mask.support]).all()


def test_theta_u_beyond_weight_bound_rejected():
    # theta_p and delta_w each within BOUND_W at an unmasked coordinate,
    # their sum (and a consistent float theta_u) beyond it
    fisher, theta, mask, comp, *_ = honest_zk_instance(21)
    i = next(i for i in range(theta.dim) if i not in mask.support)
    tp, dw = theta.values.copy(), comp.delta_w.values.copy()
    tp[i], dw[i] = 0.75 * BOUND_W, 0.5 * BOUND_W
    tu = tp + dw
    tu[mask.support] = 0.0
    with pytest.raises(NumericError, match=rf"\[{i}\] exceeds the weight bound"):
        encode_fixed_witness(theta.with_values(tp), theta.with_values(tu),
                             comp.delta_w.with_values(dw), comp.multipliers,
                             fisher, mask)


def test_inconsistent_theta_u_rejected():
    fisher, theta, mask, comp, *_ = honest_zk_instance(3)
    theta_u = apply_unlearn(theta, comp, mask)
    bad = theta_u.with_values(theta_u.values + 0.01)
    with pytest.raises(NumericError, match="theta_u inconsistent"):
        encode_fixed_witness(theta, bad, comp.delta_w, comp.multipliers,
                             fisher, mask)


def window_units(circuit):
    """One unit of t_int in the circuit's integer residual R."""
    public = circuit.public
    return public.sample_count << (public.shift + 4 * FRAC_BITS_F
                                   - FRAC_BITS_T)


def test_honest_residual_below_analytic_bound_and_t_int():
    for seed in range(5):
        fisher, theta, mask, comp, w, circuit, *_ = honest_zk_instance(seed)
        theta_u = apply_unlearn(theta, comp, mask)
        residual = check_kkt(theta, theta_u, comp, fisher, mask).inf_norms[2]
        bound = stationarity_bound_int(w, fisher, mask, residual)
        t_int = circuit.public.t_int
        assert bound <= t_int
        worst = max(map(abs, reference_residual(w, circuit).values()))
        assert worst <= bound * window_units(circuit)


@functools.lru_cache(maxsize=None)
def _pipeline_run(shape, seed):
    from veriforget import pipeline
    cfg = {"4-8-3": tiny_config(), "8-32-4": demo_config(run_gold=False)}
    return pipeline.run_pipeline(seed, cfg[shape])


@settings(max_examples=examples(6), deadline=None)
@given(st.sampled_from(["4-8-3", "8-32-4"]), st.integers(0, 9), st.data())
def test_honest_window_holds_and_the_minimal_multiplier_tamper_leaves_it(
        shape, seed, data):
    """On the tiny and the demo shapes: the honest witness's integer
    residual, by its definition, is within stationarity_bound_int; that
    bound is below T_INT_THRESHOLD; and a multiplier moved by 16 units,
    2^(-f_w + 4) at the witness's scale, is rejected at its row."""
    r = _pipeline_run(shape, seed)
    w, circuit = r.witness, r.circuit
    bound = stationarity_bound_int(w, r.fisher, r.mask,
                                   r.certificate.inf_norms[2])
    worst = max(map(abs, reference_residual(w, circuit).values()))
    assert worst <= bound * window_units(circuit)
    assert bound < circuit.public.t_int < T_INT_THRESHOLD
    j = data.draw(st.integers(0, w.lam.size - 1))
    lam = w.lam.copy()
    lam[j] += data.draw(st.sampled_from([16, -16]))
    assert (mock_prove(circuit, replace(w, lam=lam), r.randomness)
            == f"stationarity[{circuit.support[j]}]")


def test_t_int_below_lambda_tamper_threshold():
    for seed in range(5):
        fisher, theta, mask, comp, w, circuit, *_ = honest_zk_instance(seed)
        assert circuit.public.t_int < T_INT_THRESHOLD


def test_t_int_inseparable_at_the_circuit_precision():
    # a solver residual of 2^(shift - 17) adds 2^37 units to the honest
    # bound, past the largest t_int below the minimal multiplier tamper,
    # 2^35; one of 2^(shift - 26) adds 2^28
    fisher, theta, mask, comp, w, *_ = honest_zk_instance(2)
    assert default_t_int(w, fisher, mask, 2.0 ** (w.shift - 26)) < T_INT_THRESHOLD
    with pytest.raises(NumericError, match="cannot be separated"):
        default_t_int(w, fisher, mask, 2.0 ** (w.shift - 17))


@pytest.mark.parametrize("e", range(4, 13))
def test_row_sum_just_above_a_power_of_two_scales_into_bound(monkeypatch, e):
    # a row-sum bound S of ROW_SUM_CAP * 2^e * (1 + 2^-52): a log2-derived
    # shift rounded down to e would leave it at ROW_SUM_CAP * (1 + 2^-52),
    # beyond the cap; at ROW_SUM_CAP * 2^e exactly the shift is e
    from veriforget.zkp import witness
    fisher, theta, mask, comp, w, *_ = honest_zk_instance(3)
    for rows, want in ((ROW_SUM_CAP * 2.0**e * (1 + 2.0**-52), e + 1),
                       (ROW_SUM_CAP * 2.0**e, e)):
        monkeypatch.setattr(witness, "_row_sum_bound", lambda *a: rows)
        got = encode_fixed_witness(theta, apply_unlearn(theta, comp, mask),
                                   comp.delta_w, comp.multipliers, fisher, mask)
        assert got.shift == want
        assert rows * 2.0**-got.shift <= ROW_SUM_CAP


def scaled_instance(seed, log_scale, log_lam):
    """A random 3-5-4-2 model, its Fisher over 30 random rows scaled by
    2^log_scale at damping 2^log_lam and block cap 8, a mask of a block of
    every layer, and the compensation and theta_u."""
    rng = np.random.default_rng(seed)
    model = init_mlp([3, 5, 4, 2], seed)
    model = model.with_params(rng.normal(0.0, 1.0, model.dim))
    data = small_dataset(rng, n=30, dim=3, classes=2)
    data = replace(data, features=data.features * 2.0**log_scale)
    fisher = empirical_fisher_blockwise(model, data, lam=2.0**log_lam,
                                        block_cap=8)
    mask = make_mask(model.dim, 3, np.arange(model.dim),
                     np.array([0, 20, 44]))  # a block of every layer
    comp, theta_u = compensate(model, mask, fisher)
    return model, fisher, mask, comp, theta_u


@settings(max_examples=examples(20), deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-20, 15), st.floats(-30, 10))
def test_honest_curvature_within_bound(seed, log_scale, log_lam):
    # an honest instance over rows at any feature scale from 2^-20 to 2^15
    # and any damping from 2^-30 to 2^10 proves: its factors, scaled by
    # the public factor shift, fit their range bound and so their limbs,
    # and verify loads its statement at a cap a file may name
    model, fisher, mask, comp, theta_u = scaled_instance(seed, log_scale,
                                                         log_lam)
    w, circuit, proof, rnd = run_zk_layer(model, theta_u, comp, fisher, mask,
                                          seed)
    assert len(w.factors) == 3
    for a, d in w.factors:
        assert np.abs(a).max() <= int(BOUND_F * 2**FRAC_BITS_F)
        assert np.abs(d).max() <= int(BOUND_F * 2**FRAC_BITS_F)
    public = circuit.public
    on_disk = replace(public, block_cap=BLOCK_CAPS[0])
    assert PublicInputs.from_json(on_disk.to_json()) == on_disk
    assert MockBackend().verify(proof, public)


# An instance test_honest_curvature_within_bound once drew: its KKT
# certificate passes, but its step's delta_w[22] is -72.14, past BOUND_W.
BEYOND_BOUND_W = (298046, -0.5, -21.0)


def test_a_step_beyond_the_weight_bound_is_named():
    model, fisher, mask, comp, theta_u = scaled_instance(*BEYOND_BOUND_W)
    assert check_kkt(model.params, theta_u.params, comp, fisher, mask).verdict
    with pytest.raises(NumericError, match=r"^delta_w\[22\] = -72\.144\d* "
                       r"exceeds the circuit's weight bound BOUND_W = 64$"):
        run_zk_layer(model, theta_u, comp, fisher, mask, BEYOND_BOUND_W[0])


@pytest.mark.xfail(strict=True, raises=NumericError,
                   reason="the circuit bounds every weight-side value by "
                          "BOUND_W, an honest step's too")
def test_honest_step_beyond_the_weight_bound_proves():
    model, fisher, mask, comp, theta_u = scaled_instance(*BEYOND_BOUND_W)
    w, circuit, proof, rnd = run_zk_layer(model, theta_u, comp, fisher, mask,
                                          BEYOND_BOUND_W[0])
    assert MockBackend().verify(proof, circuit.public)


# -- circuit / constraint counts --------------------------------------------------------


def test_hand_constraint_count():
    mask = make_mask(12, 2, np.arange(12, dtype=np.int64),
                     np.array([1, 5], dtype=np.int64))
    circ = synthesize(statement(mask, 8, 1 << 20, (2, 4), 5), mask)
    # a 2-4 layer over n = 5 rows: its weight block of 8 coordinates, which
    # the mask touches, and its bias of 4, which it does not (d = 12),
    # mask budget k = 2:
    # range: theta_p, theta_u, delta_w 3 * 12 + lam 2 + the committed
    #   factors of the layer, A 5 x 2 and Delta 5 x 4, 30 + the touched
    #   block's stationarity residual 8 = 76
    # assembly: one row per coordinate, 12; feasibility: one per masked, 2
    # untouched: delta_w = 0 on the 4 coordinates of the untouched block
    # matvec: u = G dw, n * 8 = 40; rmatvec: G'u, n * 8 = 40
    # commit: theta_p, theta_u, c_p = 3
    assert circ.touched == (0,) and circ.layers == [0]
    assert list(circ.counts.items()) == [
        ("range", 76), ("assembly", 12), ("feasibility", 2), ("untouched", 4),
        ("matvec", 40), ("rmatvec", 40), ("commit", 3),
    ]
    assert constraint_report(circ)["total"] == 177


@given(st.lists(st.integers(1, 6), min_size=1, max_size=6), st.data())
def test_touched_lists_the_blocks_that_hold_a_masked_coordinate(sizes, data):
    d = sum(sizes)
    support = sorted(data.draw(st.sets(st.integers(0, d - 1))))
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]
    assert touched(sizes, support) == tuple(sorted({owner[i] for i in support}))


@given(st.lists(st.integers(1, 5), min_size=2, max_size=4),
       st.integers(1, 12))
def test_the_fisher_and_the_statement_split_the_model_alike(dims, cap):
    """One split rule: the blocks of ``column_layout``, those
    ``layer_grad_blocks`` yields and those a statement's circuit derives
    from the same cap agree on label, columns and size, each block a part
    of one layer's weight or bias, as an independent splitter gives."""
    model = init_mlp(dims, 0)
    rows = small_dataset(np.random.default_rng(0), n=3, dim=dims[0],
                         classes=dims[-1])
    layout = column_layout(model, cap)
    assert layout == reference_curvature_layout(model.params.layout, cap)
    yielded = sorted(
        (i, label, layer, np.array_equal(part.a_prev, np.ones((3, 1))),
         part.lo, part.hi)
        for layer, blocks in zip(range(len(dims) - 2, -1, -1),
                                 layer_grad_blocks(model, rows, cap))
        for i, label, part in blocks)
    mask = make_mask(model.dim, 1, np.arange(model.dim), np.array([0]))
    circuit = synthesize(statement(mask, cap, 0, dims), mask)
    assert [i for i, *_ in yielded] == list(range(len(layout.blocks)))
    assert [(label, size) for _, size, label in layout.blocks] == [
        (label, hi - lo) for _, label, *_, lo, hi in yielded]
    assert circuit.spans == [tuple(span) for _, _, *span in yielded]
    assert circuit.sizes == [size for _, size, _ in layout.blocks]


def test_matvec_linear_scaling():
    # both product families are n s_b rows: linear in the block's columns
    # and in the rows, where C_b dw_b was s_b^2
    def count(db, n):
        mask = make_mask(db + 4, 2, np.arange(db + 4, dtype=np.int64),
                         np.array([0, 1], dtype=np.int64))
        circ = synthesize(statement(mask, db, 1 << 20, (db // 4, 4), n),
                          mask)
        assert circ.counts["rmatvec"] == circ.counts["matvec"]
        return circ.counts["matvec"]

    assert count(128, 10) == 2 * count(64, 10) == count(64, 20) == 1280


def _one_block_statement(t_int=1 << 20):
    mask = make_mask(12, 1, np.arange(12, dtype=np.int64),
                     np.array([3], dtype=np.int64))
    return statement(mask, 8, t_int, (2, 4))


def test_circuit_hash_sensitive_to_t_int():
    assert (circuit_hash(_one_block_statement(1 << 20))
            != circuit_hash(_one_block_statement(1 << 21)))


@pytest.mark.parametrize("field, value", [
    ("layer_dims", (4, 2)), ("sample_count", 6), ("damping", 2e-3),
    ("shift", 1), ("factor_shift", 1), ("block_cap", 4)])
def test_circuit_hash_binds_the_fisher_statement(field, value):
    a = _one_block_statement()
    assert circuit_hash(replace(a, **{field: value})) != circuit_hash(a)


def test_circuit_hash_binds_c_p_packing():
    # the packing the circuit hash's factor limb width binds: com_c_p's
    # vector is A then Delta of each touched layer, row by row, each
    # packed at LIMB_BITS_F from an element boundary
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(24)
    elements, at = dict(COMMITTED)["c_p"](w), 0
    for f in (f for pair in w.factors for f in pair):
        count = -(-f.size // (ELEMENT_BITS // LIMB_BITS_F))
        assert (unpack_limbs(elements[at : at + count], LIMB_BITS_F, f.size)
                == f.ravel().tolist())
        at += count
    assert at == len(elements)
    assert merkle_root(elements, rnd[2]) == circuit.public.com_c_p


@pytest.mark.parametrize("name, value", [
    ("LIMB_PACKING", "offset-limbs-msb-first"), ("ELEMENT_BITS", 250),
    ("LIMB_BITS_W", LIMB_BITS_W + 1), ("LIMB_BITS_F", LIMB_BITS_F + 1)])
def test_circuit_hash_binds_limb_packing(monkeypatch, name, value):
    from veriforget.zkp import circuit as circuit_module
    a = circuit_hash(_one_block_statement())
    monkeypatch.setattr(circuit_module, name, value)
    assert circuit_hash(_one_block_statement()) != a


def test_circuit_hash_binds_range_bounds(monkeypatch):
    from veriforget.zkp import circuit as circuit_module
    a = circuit_hash(_one_block_statement())
    for name in ("BOUND_W", "BOUND_F", "BOUND_LAM"):
        with monkeypatch.context() as m:
            m.setattr(circuit_module, name, 2 * getattr(circuit_module, name))
            assert circuit_hash(_one_block_statement()) != a


@pytest.mark.parametrize("name", ["FRAC_BITS_W", "FRAC_BITS_F", "FRAC_BITS_T"])
def test_circuit_hash_binds_precision(monkeypatch, name):
    from veriforget.zkp import circuit as circuit_module
    a = circuit_hash(_one_block_statement())
    monkeypatch.setattr(circuit_module, name, getattr(circuit_module, name) + 1)
    assert circuit_hash(_one_block_statement()) != a


def test_synthesize_rejects_mask_of_another_digest():
    fisher, theta, mask, comp, w, circuit, *_ = honest_zk_instance(4)
    other = make_mask(mask.model_dim, mask.budget, mask.eligible,
                      np.setdiff1d(mask.eligible, mask.support)[:mask.budget])
    assert other.digest != mask.digest
    with pytest.raises(StructuralError, match="digest"):
        synthesize(circuit.public, other)
    assert synthesize(circuit.public, mask) == circuit


def test_synthesize_rejects_layer_dims_not_giving_d():
    """The layer dims must give the mask's d; they are counted per layer,
    so dims of 2^40 are refused at once, before any block is formed."""
    fisher, theta, mask, comp, w, circuit, *_ = honest_zk_instance(4)
    dims = circuit.public.layer_dims
    for bad in ((*dims[:-1], dims[-1] + 1), (2**40, 2**40)):
        with pytest.raises(StructuralError, match="coordinates, the mask"):
            synthesize(replace(circuit.public, layer_dims=bad), mask)


def test_constraint_report_totals():
    fisher, theta, mask, comp, w, circuit, *_ = honest_zk_instance(4)
    rep = constraint_report(circuit)
    assert rep["total"] == sum(circuit.counts.values())
    assert rep["circuit_hash"] == circuit_hash(circuit.public)


# -- mock prover --------------------------------------------------------------------


def test_mock_prove_honest_pass():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(5)
    assert mock_prove(circuit, w, rnd) is None


def test_mock_prove_assembly_tamper_located():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(6)
    ints = w.theta_u.copy()
    free = np.setdiff1d(np.arange(theta.dim), mask.support)
    i = int(free[0])
    ints[i] += 1
    bad = replace(w, theta_u=ints)
    violation = mock_prove(circuit, bad, rnd, check_commitments=False)
    assert violation == f"assembly[{i}]"


def test_mock_prove_feasibility_tamper():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(7)
    ints = w.delta_w.copy()
    i = int(mask.support[0])
    ints[i] += 1
    bad = replace(w, delta_w=ints)
    # the broken coordinate shows up in assembly first (theta_u was built
    # from the honest delta_w), never silently passes
    assert mock_prove(circuit, bad, rnd, check_commitments=False) is not None


def test_mock_prove_lambda_scaling_fails_stationarity():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(8)
    bad = replace(w, lam=w.lam * 2)
    violation = mock_prove(circuit, bad, rnd, check_commitments=False)
    assert violation.startswith("stationarity")


def test_mock_prove_commit_mismatch():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(9)
    wrong = with_public(
        circuit, com_theta_u=(circuit.public.com_theta_u + 1) % MODULUS)
    assert mock_prove(wrong, w, rnd) == "commit/theta_u"


def test_block_order_independence():
    # moving every output error of any touched layer by 1/16, with u
    # recomputed, is caught by the stationarity rows, whichever layer it
    # is: instance 10 touches one layer, 11 two
    for seed in (10, 11):
        *_, w, circuit, proof, rnd = honest_zk_instance(seed)
        for i, (a, d) in enumerate(w.factors):
            factors = list(w.factors)
            factors[i] = (a, d + (1 << (FRAC_BITS_F - 4)))
            bad = with_u(replace(w, factors=tuple(factors)), circuit)
            violation = mock_prove(circuit, bad, rnd, check_commitments=False)
            assert violation.startswith("stationarity[")


def test_unit_factor_tamper_fails_only_commitment():
    # a +-1 change to a factor entry, with u recomputed, moves the residual
    # by far less than T_int; only the commitment to the factors sees it
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(17)
    for sign in (1, -1):
        a, d = w.factors[0]
        a = a.copy()
        a[0, 0] += sign
        bad = with_u(replace(w, factors=((a, d), *w.factors[1:])), circuit)
        assert mock_prove(circuit, bad, rnd, check_commitments=False) is None
        assert mock_prove(circuit, bad, rnd) == "commit/c_p"


def _tamper_range(w, circuit):
    a, d = w.factors[0]
    a = a.copy()
    a[0, 0] = int(BOUND_F * 2**FRAC_BITS_F) + 1
    return replace(w, factors=((a, d), *w.factors[1:])), circuit


def _tamper_assembly(w, circuit):
    ints = w.theta_u.copy()
    ints[0] += 1
    return replace(w, theta_u=ints), circuit


def _tamper_feasibility(w, circuit):
    # move delta_w and theta_u together on a masked coordinate, so that
    # assembly still holds and only feasibility sees it
    i = circuit.support[0]
    dw, tu = w.delta_w.copy(), w.theta_u.copy()
    dw[i] += 1
    tu[i] += 1
    return replace(w, delta_w=dw, theta_u=tu), circuit


def _tamper_untouched(w, circuit):
    # move delta_w and theta_u together on the first coordinate of a block
    # the mask does not touch: assembly holds, and no curvature row sees it
    sizes = circuit.sizes
    b = next(b for b in range(len(sizes)) if b not in circuit.touched)
    i = sum(sizes[:b])
    dw, tu = w.delta_w.copy(), w.theta_u.copy()
    dw[i] += 1
    tu[i] += 1
    return replace(w, delta_w=dw, theta_u=tu), circuit


def _tamper_matvec(w, circuit):
    u = list(w.u)
    u[0] = u[0].copy()
    u[0][0] += 1
    return replace(w, u=tuple(u)), circuit


def _tamper_rmatvec(w, circuit):
    return replace(w, lam=w.lam * 2), circuit


def _tamper_commit(w, circuit):
    return w, with_public(circuit,
                          com_c_p=(circuit.public.com_c_p + 1) % MODULUS)


# family -> (tamper, prefix of the first violation it must produce)
TAMPERS = {
    "range": (_tamper_range, "range/"),
    "assembly": (_tamper_assembly, "assembly["),
    "feasibility": (_tamper_feasibility, "feasibility["),
    "untouched": (_tamper_untouched, "untouched["),
    "matvec": (_tamper_matvec, "matvec["),
    "rmatvec": (_tamper_rmatvec, "stationarity["),
    "commit": (_tamper_commit, "commit/"),
}


def test_range_catches_int64_min_curvature():
    # the smallest int64, whose np.abs is itself, as a factor entry
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(19)
    a, d = w.factors[0]
    d = d.copy()
    d[0, 0] = np.iinfo(np.int64).min
    bad = replace(w, factors=((a, d), *w.factors[1:]))
    violation = mock_prove(circuit, bad, rnd, check_commitments=False)
    assert violation == f"range/delta[layer {circuit.layers[0]}][0]"


def test_range_bounds_are_circuit_constants():
    # theta_p[i] and theta_u[i] moved together past the weight bound keep
    # assembly, and at an unmasked i nothing else reads them; only the
    # circuit's own BOUND_W can reject them
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(20)
    i = next(i for i in range(theta.dim) if i not in circuit.support)
    shift = 2 * int(BOUND_W * 2**FRAC_BITS_W)
    tp, tu = w.theta_p.copy(), w.theta_u.copy()
    tp[i] += shift
    tu[i] += shift
    bad = replace(w, theta_p=tp, theta_u=tu)
    roots = committed_roots(bad, rnd)
    bad_circuit = with_public(circuit, com_theta_p=roots[0],
                              com_theta_u=roots[1], com_c_p=roots[2])
    for family in FAMILIES:
        if family.name != "range":
            assert family.check(bad_circuit, bad, rnd) is None, family.name
    assert mock_prove(bad_circuit, bad, rnd) == f"range/theta_p[{i}]"


def test_counts_follow_family_table():
    # a 3-4-2 model in blocks of 4, 4, 4, 4, 4, 4 and 2 coordinates over
    # n = 40 rows: the mask touches the second part of the first weight,
    # the second part of the last weight and the last bias, so the factors
    # of both layers are committed
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(1)
    names = [f.name for f in FAMILIES]
    assert list(circuit.counts) == names
    assert list(constraint_report(circuit))[:-2] == names
    assert sorted(TAMPERS) == sorted(names)
    assert circuit.public.block_cap == 4
    assert circuit.sizes == [4, 4, 4, 4, 4, 4, 2]
    assert (circuit.touched, circuit.layers) == ((1, 5, 6), [0, 1])
    k, n, s = mask.budget, 40, 4 + 4 + 2
    assert circuit.counts == {
        "range": 3 * 26 + k + n * (3 + 4) + n * (4 + 2) + s, "assembly": 26,
        "feasibility": k, "untouched": 26 - s, "matvec": n * s,
        "rmatvec": n * s, "commit": 3}


@pytest.mark.parametrize("family", [f.name for f in FAMILIES])
def test_each_family_catches_its_tamper(family):
    # blocks 0, 2, 3 and 4 of this instance hold no masked coordinate
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(1)
    tamper, prefix = TAMPERS[family]
    bad, bad_circuit = tamper(w, circuit)
    violation = mock_prove(bad_circuit, bad, rnd)
    assert violation is not None and violation.startswith(prefix), violation


@functools.lru_cache(maxsize=None)
def _cached_honest_instance(seed):
    return honest_zk_instance(seed)


@st.composite
def single_coordinate_edits(draw):
    """(seed, field, at, delta, want): entry ``at`` of an honest witness's
    ``field`` moved by delta, and the violation mock_prove must report,
    ``want``.  The edits the
    statement must catch: a theta_u entry without its delta_w entry
    (assembly), a delta_w entry on the mask (feasibility, which assembly
    reports first), and a multiplier by at least 2^(4 - f_w), 16 units
    (stationarity).  An edit past the field's bound is the range family's.
    The layer factors are left out: no family binds them to theta_p or
    the data, so they are a free witness
    (test_free_curvature_witness_rejected)."""
    seed = draw(st.integers(0, 5))
    *_, w, circuit, _, _ = _cached_honest_instance(seed)
    field = draw(st.sampled_from(["theta_u", "delta_w", "lam"]))
    if field == "theta_u":
        index = draw(st.integers(0, w.theta_u.size - 1))
    else:
        index = draw(st.integers(0, len(circuit.support) - 1))
    bound = BOUND_LAM if field == "lam" else BOUND_W
    limit = int(bound * 2**FRAC_BITS_W)
    delta = draw(st.integers(16 if field == "lam" else 1, 2 * limit))
    delta *= draw(st.sampled_from([1, -1]))
    vec = getattr(w, field)
    at = circuit.support[index] if field == "delta_w" else index
    if abs(int(vec[at]) + delta) > limit:
        want = f"range/{field}[{at}]"
    elif field == "lam":
        want = f"stationarity[{circuit.support[index]}]"
    else:
        want = f"assembly[{at}]"
    return seed, field, at, delta, want


@settings(max_examples=examples(60), deadline=None)
@given(single_coordinate_edits())
def test_single_coordinate_edit_rejected(edit):
    seed, field, at, delta, want = edit
    *_, w, circuit, _, rnd = _cached_honest_instance(seed)
    vec = getattr(w, field).copy()
    vec[at] += delta
    assert mock_prove(circuit, replace(w, **{field: vec}), rnd) == want


# -- backend -----------------------------------------------------------------------


def test_backend_prove_verify_round_trip():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(11)
    public = circuit.public
    assert public == PublicInputs(
        mask.digest, 4, (3, 4, 2), 40, 1e-3, w.shift, w.factor_shift,
        *committed_roots(w, rnd), public.t_int)
    assert proof.tag == tag_over(circuit_hash(public), public)
    assert MockBackend().verify(proof, public)


def test_backend_rejects_mismatched_public():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(12)
    public = circuit.public
    wrong = replace(public, com_theta_p=(public.com_theta_p + 1) % MODULUS)
    assert not MockBackend().verify(proof, wrong)


def test_backend_rejects_changed_tag_or_circuit_hash():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(13)
    backend, public = MockBackend(), circuit.public
    flip = lambda h: format(int(h[0], 16) ^ 1, "x") + h[1:]
    assert not backend.verify(Proof(flip(proof.tag)), public)
    # a tag over any circuit hash but the one the public inputs determine:
    # the hash the prover synthesized must be derived, never declared
    own = circuit_hash(public)
    other_t_int = circuit_hash(replace(public, t_int=2 * public.t_int))
    for foreign in ("00" * 32, flip(own), other_t_int):
        assert not backend.verify(Proof(tag_over(foreign, public)), public)
    assert backend.verify(Proof(tag_over(own, public)), public)


def test_backend_refuses_unsatisfiable_witness():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(14)
    ints = w.theta_u.copy()
    ints[0] += 12345
    bad = replace(w, theta_u=ints)
    with pytest.raises(UnsatisfiableWitnessError, match="assembly"):
        MockBackend().prove(bad, mask, circuit.public, rnd)


def _on_disk_public(seed):
    """An honest instance's statement at a block cap a file may name: the
    instance's own cap of 4 is in memory only."""
    circuit = honest_zk_instance(seed)[5]
    return replace(circuit.public, block_cap=BLOCK_CAPS[0])


def test_public_inputs_json_round_trip():
    public = _on_disk_public(15)
    assert PublicInputs.from_json(public.to_json()) == public
    for cap in (4, 8192, 256.0, True):
        with pytest.raises(ValueError, match="block_cap"):
            PublicInputs.from_json({**public.to_json(), "block_cap": cap})


def test_public_inputs_reject_t_int_at_tamper_threshold():
    obj = _on_disk_public(15).to_json()
    threshold = T_INT_THRESHOLD
    for t_int in (threshold - 1, threshold >> 1):
        assert PublicInputs.from_json({**obj, "t_int": t_int}).t_int == t_int
    for t_int in (threshold, 1 << 200):
        with pytest.raises(ValueError, match="tamper threshold"):
            PublicInputs.from_json({**obj, "t_int": t_int})


def forge_free_curvature(r, untouched_block=None, t=0.25):
    """The honest tiny-config run ``r``'s witness and circuit, forged: keep
    theta_p, the mask, the randomness, the public damping, shifts and t_int,
    move delta_w at one unmasked coordinate (r0, c0) of the touched block
    by ``t`` (and the first coordinate of block ``untouched_block`` too,
    when given), and pick layer factors that make it stationary.  With one
    sample row, a = e_r0 and Delta = e_c0 + beta e_c, c a masked column of
    row r0, G'G dw = g (g'dw) with g = a (x) Delta; beta = t (1 + n lam) /
    theta_(r0, c) makes row (r0, c0) equal -n lam t, every other unmasked
    row 0, and the multipliers absorb the masked rows; lam and the factors
    are those of the statement scaled by its factor shift.  Returns the
    forged witness and its circuit."""
    w, rnd, circuit = r.witness, r.randomness, r.circuit
    public, support = circuit.public, list(circuit.support)
    (b,), (layer,) = circuit.touched, circuit.layers
    n, (din, dout) = public.sample_count, public.layer_dims[layer:layer + 2]
    _, _, lo, hi = circuit.spans[b]
    start = block_slices(circuit.sizes)[b].start

    def coordinate(row, col):
        return start + row * dout + col - lo

    # the masked coordinate of largest |theta| whose row of W also holds an
    # unmasked coordinate of the block
    (r0, c, c0) = max(
        ((row, col, free) for row in range(din) for col in range(dout)
         for free in range(dout)
         if lo <= row * dout + min(col, free) <= row * dout + max(col, free)
         < hi and coordinate(row, col) in support
         and coordinate(row, free) not in support),
        key=lambda x: abs(int(w.theta_p[coordinate(x[0], x[1])])))
    theta = w.theta_p[coordinate(r0, c)] * 2.0**-FRAC_BITS_W
    beta = t * (1 + n * math.ldexp(public.damping,
                                   -4 * public.factor_shift)) / theta
    a, d = np.zeros((n, din)), np.zeros((n, dout))
    a[0, r0], d[0, c0], d[0, c] = 1.0, 1.0, beta
    factors = tuple(np.rint(f * 2**FRAC_BITS_F).astype(np.int64)
                    for f in (a, d)),
    dw = np.zeros_like(w.delta_w)
    dw[support] = -w.theta_p[support]
    dw[coordinate(r0, c0)] = round(t * 2**FRAC_BITS_W)
    if untouched_block is not None:
        dw[block_slices(circuit.sizes)[untouched_block].start] = 1
    forged = with_u(replace(w, theta_u=w.theta_p + dw, delta_w=dw,
                            factors=factors), circuit)
    # the multipliers that zero the masked rows: -(G'u + n lam dw) / n
    gtu = factor_parts(circuit.spans, (b,), [layer], factors,
                       public.factor_shift, exact=True)[0].rmatvec(forged.u[0])
    damping = n * round(math.ldexp(public.damping,
                                   4 * (FRAC_BITS_F - public.factor_shift)))
    unit = n << (4 * FRAC_BITS_F + public.shift)
    lam = [round(-(int(gtu[i - start]) + damping * int(dw[i])) / unit)
           for i in support]
    forged = replace(forged, lam=np.array(lam, dtype=np.int64))
    roots = committed_roots(forged, rnd)
    assert roots[0] == public.com_theta_p
    return forged, with_public(circuit, com_theta_u=roots[1], com_c_p=roots[2])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the circuit does not bind the layer factors to "
                          "theta_p or the data")
def test_free_curvature_witness_rejected():
    """An edit of theta_p off the mask within a touched block, by 0.25,
    with layer factors chosen to make it stationary, must be rejected."""
    from veriforget import pipeline
    r = pipeline.run_pipeline(3, tiny_config())
    forged, circuit = forge_free_curvature(r)
    assert mock_prove(circuit, forged, r.randomness) is not None


def test_free_curvature_forgery_on_an_untouched_block_rejected():
    """The same forgery carried onto a block the mask does not touch, the
    tiny model's output weights, fails at that block's first coordinate:
    no factors can make a step there stationary."""
    from veriforget import pipeline
    r = pipeline.run_pipeline(3, tiny_config())
    labels = r.fisher.layout.labels
    b = labels.index("mlp.1.w")
    assert b not in r.circuit.touched
    forged, circuit = forge_free_curvature(r, untouched_block=b)
    start = r.fisher.layout.blocks[b][0]
    assert mock_prove(circuit, forged, r.randomness) == f"untouched[{start}]"


def test_mock_prove_rejects_a_truncated_witness():
    """A witness one layer's factors short, whose last weight moved by
    12345 units with theta_u and the factors recommitted, fails on its
    shape: no touched layer may go unchecked."""
    from veriforget import pipeline
    r = pipeline.run_pipeline(7, demo_config(run_gold=False))
    w, rnd = r.witness, r.randomness
    dw, tu = w.delta_w.copy(), w.theta_u.copy()
    dw[-1] += 12345
    tu[-1] += 12345
    bad = replace(w, factors=w.factors[:-1], delta_w=dw, theta_u=tu)
    _, com_theta_u, com_c_p = committed_roots(bad, rnd)
    circuit = with_public(r.circuit, com_theta_u=com_theta_u, com_c_p=com_c_p)
    assert mock_prove(circuit, bad, rnd) == "shape/factors"


@pytest.mark.parametrize("name", ["theta_p", "theta_u", "delta_w", "lam"])
def test_mock_prove_rejects_a_short_vector(name):
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(1)
    bad = replace(w, **{name: getattr(w, name)[:-1]})
    assert mock_prove(circuit, bad, rnd) == f"shape/{name}"
