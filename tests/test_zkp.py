import functools
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import veriforget
from veriforget.certify import check_kkt
from veriforget.curvature import BlockFisher
from veriforget.masking import make_mask
from veriforget.numkit import (
    BlockDiagMatrix,
    BlockStream,
    NumericError,
    ParamVector,
    StructuralError,
    pack_upper,
    unpack_upper,
)
from veriforget.obs import apply_unlearn, group_obs_solve
from veriforget.zkp import (
    BOUND_C,
    BOUND_LAM,
    BOUND_W,
    MODULUS,
    MockBackend,
    Proof,
    PublicInputs,
    UnsatisfiableWitnessError,
    circuit_hash,
    commit_witness,
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
    LIMB_BITS_C,
    LIMB_BITS_W,
    limb_bits,
    pack_limbs,
)
from veriforget.zkp.field import LEAF_CHUNK
from veriforget.zkp.witness import (
    FRAC_BITS_C,
    FRAC_BITS_W,
    T_INT_THRESHOLD,
    FixedWitness,
    damp,
)

from conftest import (
    examples,
    block_matrix,
    random_fisher,
    random_instance,
    random_layout,
    reference_damp,
    reference_merkle_root,
    reference_permute,
    report_cpus,
    statement,
    tag_over,
    tiny_config,
)
from veriforget.pipeline import demo_config


def honest_zk_instance(seed):
    """An honest instance proved by the mock backend; the public inputs
    are ``circuit.public``."""
    rng = np.random.default_rng(seed)
    fisher, theta, mask = random_instance(rng, max_block=12)
    comp = group_obs_solve(fisher, theta, mask)
    theta_u = apply_unlearn(theta, comp, mask)
    w = encode_fixed_witness(
        theta, theta_u, comp.delta_w, comp.multipliers, fisher, mask)
    residual = check_kkt(theta, theta_u, comp, fisher, mask).inf_norms[2]
    t_int = default_t_int(w, fisher, mask, residual)
    sizes = tuple(size for _, size, _ in fisher.layout.blocks)
    randomness = (11, 22, 33)
    circuit, proof = MockBackend().prove(w, mask, sizes, t_int, randomness)
    return fisher, theta, mask, comp, w, circuit, proof, randomness


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


@pytest.mark.parametrize("cpus, leaves, in_parent",
                         [(1, 3, True), (4, 1, True), (2, 3, False)])
def test_leaves_hashed_in_process_only_with_one_worker(monkeypatch, cpus,
                                                       leaves, in_parent):
    report_cpus(monkeypatch, cpus)
    monkeypatch.setattr(field, "sponge", lambda elements, domain: os.getpid())
    pids = set(field._hash_leaves([[i] for i in range(leaves)]))
    if in_parent:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= cpus


def test_commit_witness_leaves_no_child_process(monkeypatch, tmp_path):
    rng = np.random.default_rng(0)
    g = rng.integers(-1000, 1000, size=(150, 150))  # 1,618 packed elements
    vec = rng.integers(-1000, 1000, size=40)
    w = FixedWitness(theta_p=vec, theta_u=vec + 1, delta_w=np.ones(40, np.int64),
                     lam=np.zeros(0, np.int64), c_blocks=(pack_upper(g + g.T),))
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
    assert commit_witness(w, randomness) == expected
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


def test_run_zk_layer_commits_each_vector_once(monkeypatch):
    from veriforget import pipeline
    from veriforget.zkp import circuit, field
    r = pipeline.run_pipeline(3, tiny_config(run_zk=False))
    lengths = []
    real = field.merkle_root

    def counting(ints, randomness):
        lengths.append(len(ints))
        return real(ints, randomness)

    for module in (field, circuit):
        monkeypatch.setattr(module, "merkle_root", counting)
    pipeline.run_zk_layer(r.theta_p, r.theta_u, r.comp, r.fisher, r.mask, 3)
    d = r.theta_p.params.dim
    sizes = [s for _, s, _ in r.fisher.layout.blocks]
    # 30-bit weight limbs, 8 per element; 35-bit curvature limbs, 7, of
    # the touched blocks alone: the 4-8-3 model's first weight block
    assert touched(sizes, r.mask.support) == (0,)
    packed = sizes[0] * (sizes[0] + 1) // 2
    assert lengths == [-(-d // 8), -(-d // 8), -(-packed // 7)] == [9, 9, 76]


def unpack_limbs(elements, bits, n):
    """Oracle inverse of ``pack_limbs`` on vectors whose values fit their
    limbs: the first n limbs, least-significant first, less the offset."""
    per, mask = ELEMENT_BITS // bits, (1 << bits) - 1
    return [((e >> (bits * j)) & mask) - (1 << (bits - 1))
            for e in elements for j in range(per)][:n]


def test_default_limb_widths():
    assert (LIMB_BITS_W, LIMB_BITS_C) == (30, 35)
    assert (limb_bits(BOUND_W, 22), limb_bits(BOUND_C, 32)) == (30, 35)
    assert (ELEMENT_BITS // 30, ELEMENT_BITS // 35) == (8, 7)


def test_precision_constants_fit_their_budgets():
    # each within quantize's 40 bits, an exact product of a weight and a
    # curvature entry within int64's 60-bit budget, and f_c - f_w > 4 so
    # that T_int can stay below the minimal multiplier tamper
    assert all(0 <= f <= 40 for f in (FRAC_BITS_W, FRAC_BITS_C))
    assert FRAC_BITS_W + FRAC_BITS_C <= 60
    assert FRAC_BITS_C - FRAC_BITS_W > 4
    assert T_INT_THRESHOLD == 1 << (FRAC_BITS_C + 4)


@st.composite
def in_range_vectors(draw):
    """A bound, a number of fractional bits quantize accepts, and a vector
    within bound * 2^frac that includes both extremes."""
    bound = draw(st.sampled_from([BOUND_W, BOUND_C]))
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
    for bits in (limb_bits(BOUND_W, 22), limb_bits(BOUND_C, 32)):
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
    assert commit_witness(bad, rnd) == (public.com_theta_p, public.com_theta_u,
                                        public.com_c_p)
    assert mock_prove(circuit, bad, rnd) == f"range/theta_p[{i}]"


def test_curvature_limb_alias_fails_range():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(23)
    bits = LIMB_BITS_C
    # packed limbs 0 and 1 are block 0's C[0, 0] and C[0, 1]
    blocks = [b.copy() for b in w.c_blocks]
    blocks[0][0] += 1 << bits
    blocks[0][1] -= 1
    bad = replace(w, c_blocks=tuple(blocks))
    assert commit_witness(bad, rnd)[2] == circuit.public.com_c_p
    assert mock_prove(circuit, bad, rnd) == "range/c_p[block 0]"


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


def test_honest_residual_below_analytic_bound_and_t_int():
    for seed in range(5):
        fisher, theta, mask, comp, w, circuit, *_ = honest_zk_instance(seed)
        theta_u = apply_unlearn(theta, comp, mask)
        residual = check_kkt(theta, theta_u, comp, fisher, mask).inf_norms[2]
        bound = stationarity_bound_int(w, fisher, mask, residual)
        t_int = circuit.public.t_int
        assert bound <= t_int
        # recompute the integer residual directly
        lam_full = np.zeros(theta.dim, dtype=object)
        lam_full[mask.support] = [int(x) << FRAC_BITS_C for x in w.lam]
        slices = [sl for sl, _ in fisher.layout.slices()]
        worst = 0
        for c_int, b in zip(w.c_blocks, circuit.touched):
            sl = slices[b]
            c = unpack_upper(c_int, sl.stop - sl.start)
            r = c.astype(object) @ w.delta_w[sl].astype(object) + lam_full[sl]
            worst = max(worst, max(abs(int(x)) for x in r))
        assert worst <= bound
        assert worst <= t_int


def test_t_int_below_lambda_tamper_threshold():
    for seed in range(5):
        fisher, theta, mask, comp, w, circuit, *_ = honest_zk_instance(seed)
        assert circuit.public.t_int < 1 << (FRAC_BITS_C + 4)


def test_t_int_inseparable_at_the_circuit_precision():
    # a solver residual of 2^-15 adds 2^39 units to the honest bound, past
    # the largest t_int below the minimal multiplier tamper, 2^35
    fisher, theta, mask, comp, w, *_ = honest_zk_instance(2)
    assert default_t_int(w, fisher, mask, 2.0**-22) < T_INT_THRESHOLD
    with pytest.raises(NumericError, match="cannot be separated"):
        default_t_int(w, fisher, mask, 2.0**-15)


def encode_curvature(fisher):
    """The curvature blocks the encoder commits for ``fisher`` at the
    default fractional bits, with zero weights and multipliers, square:
    every block, since the mask takes the first coordinate of each."""
    d = fisher.layout.total_dim
    zero = ParamVector(values=np.zeros(d), layout=fisher.layout)
    starts = np.array([start for start, _, _ in fisher.layout.blocks])
    mask = make_mask(d, starts.size, np.arange(d, dtype=np.int64), starts)
    w = encode_fixed_witness(zero, zero, zero, np.zeros(starts.size), fisher,
                             mask)
    assert len(w.c_blocks) == starts.size
    return [unpack_upper(tri, size)
            for tri, (_, size, _) in zip(w.c_blocks, fisher.layout.blocks)]


@pytest.mark.parametrize("e", range(4, 13))
def test_row_sum_just_above_a_power_of_two_scales_into_bound(e):
    # a dead unit's damped row holds lambda alone; at BOUND_C * 2^e * (1 +
    # 2^-52) a log2-derived shift rounded down to e and left the row at
    # BOUND_C * (1 + 2^-52), beyond the range bound
    lam = BOUND_C * 2.0**e * (1 + 2.0**-52)
    layout = random_layout(np.random.default_rng(e), n_blocks=2, max_block=4)
    fisher = BlockFisher(
        fisher=block_matrix([np.zeros((s, s)) for _, s, _ in layout.blocks],
                            layout),
        lam=lam, sample_count=1, source_digest="test")
    for c in encode_curvature(fisher):
        assert (c == np.diag(np.diag(c))).all()
        assert (np.diag(c) == int(BOUND_C * 2**(FRAC_BITS_C - 1))).all()


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(allow_nan=False, allow_infinity=False))


@given(st.integers(1, 64), st.floats(min_value=0.0, exclude_min=True,
                                     allow_infinity=False), st.data())
def test_damp_commits_the_oracle_damped_block_bit_for_bit(size, lam, data):
    """The witness damps a square block as B + lam * I in its defining
    form, signed zeros and entries that round to +-inf included, and
    commits that square's triangle and largest absolute row sum."""
    raw = data.draw(arrays(np.float64, (size, size), elements=_ENTRY))
    upper = np.triu(np.ones((size, size), dtype=bool))
    block = np.where(upper, raw, raw.T)  # symmetric, signed zeros kept
    with np.errstate(over="ignore"):  # both sides round alike to +-inf
        row, tri = damp(block, lam)
        want = reference_damp(block, lam)
        assert tri.tobytes() == pack_upper(want).tobytes()
        assert row == np.abs(want).sum(axis=1).max()


@given(st.integers(0, 2**32 - 1), st.floats(-20, 30), st.floats(-30, 10))
def test_honest_curvature_within_bound(seed, log_scale, log_lam):
    # every honest damped curvature entry, at any magnitude, fits the
    # range bound and so its limb
    rng = np.random.default_rng(seed)
    layout = random_layout(rng, max_block=8)
    base = random_fisher(rng, layout, lam=2.0**log_lam)
    fisher = replace(base, fisher=BlockDiagMatrix(BlockStream.held(
        (b * 2.0**log_scale for b in base.fisher.blocks), layout)))
    lim = int(BOUND_C * 2**FRAC_BITS_C)
    assert all(np.abs(c).max() <= lim for c in encode_curvature(fisher))


# -- circuit / constraint counts --------------------------------------------------------


def test_hand_constraint_count():
    mask = make_mask(12, 2, np.arange(12, dtype=np.int64),
                     np.array([1, 5], dtype=np.int64))
    circ = synthesize(statement(mask, [8, 4], 1 << 20), mask)
    # an 8x8 curvature block the mask touches and a 4x4 one it does not
    # (d = 12), mask budget k = 2:
    # range: theta_p, theta_u, delta_w 3 * 12 + lam 2 + the committed upper
    #   triangle of the touched block 8 * 9 / 2 + its stationarity
    #   residual 8 = 82
    # assembly: one row per coordinate, 12; feasibility: one per masked, 2
    # untouched: delta_w = 0 on the 4 coordinates of the untouched block
    # matvec: C dw on the touched block, 8 * 8 = 64
    # commit: theta_p, theta_u, c_p = 3
    assert circ.touched == (0,)
    assert list(circ.counts.items()) == [
        ("range", 82), ("assembly", 12), ("feasibility", 2), ("untouched", 4),
        ("matvec", 64), ("commit", 3),
    ]
    assert constraint_report(circ)["total"] == 167


@given(st.lists(st.integers(1, 6), min_size=1, max_size=6), st.data())
def test_touched_lists_the_blocks_that_hold_a_masked_coordinate(sizes, data):
    d = sum(sizes)
    support = sorted(data.draw(st.sets(st.integers(0, d - 1))))
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]
    assert touched(sizes, support) == tuple(sorted({owner[i] for i in support}))


def test_matvec_quadratic_scaling():
    def count(db):
        mask = make_mask(db, 2, np.arange(db, dtype=np.int64),
                         np.array([0, 1], dtype=np.int64))
        return synthesize(statement(mask, [db], 1 << 20), mask).counts["matvec"]

    assert count(128) == 4 * count(64)


def _one_block_statement(t_int=1 << 20):
    mask = make_mask(8, 1, np.arange(8, dtype=np.int64),
                     np.array([3], dtype=np.int64))
    return statement(mask, [8], t_int)


def test_circuit_hash_sensitive_to_t_int():
    assert (circuit_hash(_one_block_statement(1 << 20))
            != circuit_hash(_one_block_statement(1 << 21)))


def test_circuit_hash_binds_c_p_packing(monkeypatch):
    from veriforget.zkp import circuit as circuit_module
    a = circuit_hash(_one_block_statement())
    monkeypatch.setattr(circuit_module, "C_P_PACKING", "full-row-major")
    assert circuit_hash(_one_block_statement()) != a


@pytest.mark.parametrize("name, value", [
    ("LIMB_PACKING", "offset-limbs-msb-first"), ("ELEMENT_BITS", 250),
    ("LIMB_BITS_W", LIMB_BITS_W + 1), ("LIMB_BITS_C", LIMB_BITS_C + 1)])
def test_circuit_hash_binds_limb_packing(monkeypatch, name, value):
    from veriforget.zkp import circuit as circuit_module
    a = circuit_hash(_one_block_statement())
    monkeypatch.setattr(circuit_module, name, value)
    assert circuit_hash(_one_block_statement()) != a


def test_circuit_hash_binds_range_bounds(monkeypatch):
    from veriforget.zkp import circuit as circuit_module
    a = circuit_hash(_one_block_statement())
    monkeypatch.setattr(circuit_module, "BOUND_C", 2 * BOUND_C)
    assert circuit_hash(_one_block_statement()) != a


@pytest.mark.parametrize("name", ["FRAC_BITS_W", "FRAC_BITS_C"])
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


def test_synthesize_rejects_block_sizes_not_summing_to_d():
    fisher, theta, mask, comp, w, circuit, *_ = honest_zk_instance(4)
    sizes = circuit.public.block_sizes
    for bad in ((*sizes, 1), (*sizes[:-1], sizes[-1] - 1)):
        with pytest.raises(StructuralError, match="block sizes cover"):
            synthesize(replace(circuit.public, block_sizes=bad), mask)


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
    # evaluating with a permuted block order must give the same verdict;
    # mock_prove iterates blocks in layout order, so instead check that
    # tampering any single block is caught regardless of which block
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(10)
    for bi, b in enumerate(circuit.touched):
        blocks = list(w.c_blocks)
        c = unpack_upper(blocks[bi], circuit.public.block_sizes[b])
        c[0, 0] += 1 << (FRAC_BITS_C + 6)
        blocks[bi] = pack_upper(c)
        bad = replace(w, c_blocks=tuple(blocks))
        assert mock_prove(circuit, bad, rnd, check_commitments=False) is not None


def test_symmetric_pair_tamper_fails_commitment():
    # a +-1 change to the triangle entry C[0,1], which is also C[1,0],
    # moves the residual by |dw| units, far inside T_int; only the
    # commitment to the upper triangle sees it
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(17)
    for sign in (1, -1):
        blocks = [b.copy() for b in w.c_blocks]
        blocks[0][1] += sign
        bad = replace(w, c_blocks=tuple(blocks))
        assert mock_prove(circuit, bad, rnd, check_commitments=False) is None
        assert mock_prove(circuit, bad, rnd) == "commit/c_p"


def _tamper_range(w, circuit):
    blocks = [b.copy() for b in w.c_blocks]
    blocks[0][0] = int(BOUND_C * 2**FRAC_BITS_C) + 1  # C[0, 0]
    return replace(w, c_blocks=tuple(blocks)), circuit


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
    sizes = circuit.public.block_sizes
    b = next(b for b in range(len(sizes)) if b not in circuit.touched)
    i = sum(sizes[:b])
    dw, tu = w.delta_w.copy(), w.theta_u.copy()
    dw[i] += 1
    tu[i] += 1
    return replace(w, delta_w=dw, theta_u=tu), circuit


def _tamper_matvec(w, circuit):
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
    "matvec": (_tamper_matvec, "stationarity["),
    "commit": (_tamper_commit, "commit/"),
}


def test_range_catches_int64_min_curvature():
    # np.abs(int64 min) is int64 min, which a max-of-abs bound misses
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(19)
    blocks = [b.copy() for b in w.c_blocks]
    blocks[0][0] = np.iinfo(np.int64).min  # C[0, 0]
    bad = replace(w, c_blocks=tuple(blocks))
    violation = mock_prove(circuit, bad, rnd, check_commitments=False)
    assert violation == "range/c_p[block 0]"


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
    roots = commit_witness(bad, rnd)
    bad_circuit = with_public(circuit, com_theta_p=roots[0],
                              com_theta_u=roots[1], com_c_p=roots[2])
    for family in FAMILIES:
        if family.name != "range":
            assert family.check(bad_circuit, bad, rnd) is None, family.name
    assert mock_prove(bad_circuit, bad, rnd) == f"range/theta_p[{i}]"


def test_counts_follow_family_table():
    # blocks of 6, 4, 9 and 11 coordinates, the mask in the middle two
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(18)
    names = [f.name for f in FAMILIES]
    assert list(circuit.counts) == names
    assert list(constraint_report(circuit))[:-2] == names
    assert sorted(TAMPERS) == sorted(names)
    assert circuit.public.block_sizes == (6, 4, 9, 11)
    assert circuit.touched == (1, 2)
    k = mask.budget
    assert circuit.counts == {
        "range": 3 * 30 + k + (10 + 4) + (45 + 9), "assembly": 30,
        "feasibility": k, "untouched": 6 + 11, "matvec": 4 * 4 + 9 * 9,
        "commit": 3}


@pytest.mark.parametrize("family", [f.name for f in FAMILIES])
def test_each_family_catches_its_tamper(family):
    # blocks 0 and 3 of this instance hold no masked coordinate
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(18)
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
    The curvature is left out: no family binds it to theta_p or the
    data, so it is a free witness (test_free_curvature_witness_rejected)."""
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
        mask.digest, tuple(s for _, s, _ in fisher.layout.blocks),
        *commit_witness(w, rnd), public.t_int)
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
        MockBackend().prove(bad, mask, circuit.public.block_sizes,
                            circuit.public.t_int, rnd)


def test_public_inputs_json_round_trip():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(15)
    assert PublicInputs.from_json(circuit.public.to_json()) == circuit.public


def test_public_inputs_reject_t_int_at_tamper_threshold():
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(15)
    obj = circuit.public.to_json()
    threshold = 1 << (FRAC_BITS_C + 4)
    for t_int in (threshold - 1, threshold >> 1):
        assert PublicInputs.from_json({**obj, "t_int": t_int}).t_int == t_int
    for t_int in (threshold, 1 << 200):
        with pytest.raises(ValueError, match="tamper threshold"):
            PublicInputs.from_json({**obj, "t_int": t_int})


def forge_free_curvature(r, untouched_block=None):
    """The honest tiny-config run ``r``'s witness and circuit, forged: keep
    theta_p, the mask, the randomness and the honest t_int, set delta_w off
    the mask to arbitrary values up to 0.5 on every touched block, and on
    block ``untouched_block`` too when it is given, and pick each touched
    block C_b = I - u u'/|u|^2 with u = delta_w_b and lam = 0, so that
    C delta_w = 0 exactly.  Returns the forged witness and its circuit."""
    w, rnd, circuit = r.witness, r.randomness, r.circuit
    slices = [sl for sl, _ in r.fisher.layout.slices()]
    free = circuit.touched + (() if untouched_block is None
                              else (untouched_block,))
    rng = np.random.default_rng(3)
    dw = np.zeros_like(w.delta_w)
    for b in free:
        size = slices[b].stop - slices[b].start
        dw[slices[b]] = np.rint(rng.uniform(-0.5, 0.5, size) * 2**FRAC_BITS_W)
    support = list(circuit.support)
    dw[support] = -w.theta_p[support]
    blocks = []
    for b in circuit.touched:
        u = dw[slices[b]].astype(np.float64)
        c = np.eye(u.size) - np.outer(u, u) / (u @ u)
        blocks.append(pack_upper(np.rint(c * 2**FRAC_BITS_C).astype(np.int64)))
    forged = FixedWitness(
        theta_p=w.theta_p, theta_u=w.theta_p + dw, delta_w=dw,
        lam=np.zeros_like(w.lam), c_blocks=tuple(blocks))
    roots = commit_witness(forged, rnd)
    assert roots[0] == circuit.public.com_theta_p
    return forged, with_public(circuit, com_theta_u=roots[1], com_c_p=roots[2])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the circuit does not bind the touched blocks' "
                          "curvature to theta_p or the data")
def test_free_curvature_witness_rejected():
    """Any edit of theta_p off the mask within the touched blocks, with a
    curvature chosen to make it stationary, must be rejected."""
    from veriforget import pipeline
    r = pipeline.run_pipeline(3, tiny_config())
    forged, circuit = forge_free_curvature(r)
    assert mock_prove(circuit, forged, r.randomness) is not None


def test_free_curvature_forgery_on_an_untouched_block_rejected():
    """The same forgery carried onto a block the mask does not touch, the
    tiny model's output weights, fails at that block's first coordinate:
    no curvature can make a step there stationary."""
    from veriforget import pipeline
    r = pipeline.run_pipeline(3, tiny_config())
    labels = r.fisher.layout.labels
    b = labels.index("mlp.1.w")
    assert b not in r.circuit.touched
    forged, circuit = forge_free_curvature(r, untouched_block=b)
    start = r.fisher.layout.blocks[b][0]
    assert mock_prove(circuit, forged, r.randomness) == f"untouched[{start}]"


def test_mock_prove_rejects_a_truncated_witness():
    """A witness one curvature triangle short, whose last weight moved by
    12345 units with theta_u and the curvature recommitted, fails on its
    shape: no trailing block may go unchecked."""
    from veriforget import pipeline
    r = pipeline.run_pipeline(7, demo_config(run_gold=False))
    w, rnd = r.witness, r.randomness
    dw, tu = w.delta_w.copy(), w.theta_u.copy()
    dw[-1] += 12345
    tu[-1] += 12345
    bad = replace(w, c_blocks=w.c_blocks[:-1], delta_w=dw, theta_u=tu)
    _, com_theta_u, com_c_p = commit_witness(bad, rnd)
    circuit = with_public(r.circuit, com_theta_u=com_theta_u, com_c_p=com_c_p)
    assert mock_prove(circuit, bad, rnd) == "shape/c_p"


@pytest.mark.parametrize("name", ["theta_p", "theta_u", "delta_w", "lam"])
def test_mock_prove_rejects_a_short_vector(name):
    fisher, theta, mask, comp, w, circuit, proof, rnd = honest_zk_instance(18)
    bad = replace(w, **{name: getattr(w, name)[:-1]})
    assert mock_prove(circuit, bad, rnd) == f"shape/{name}"
