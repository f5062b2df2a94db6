"""The artifact container: round trips, integrity checks and fuzzing."""

import contextlib
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from veriforget import artifacts as art
from veriforget.curvature import BlockFisher
from veriforget.model import Dataset, init_mlp
from veriforget.numkit import (
    BlockDiagMatrix,
    BlockLayout,
    BlockStream,
    ParamVector,
    StructuralError,
)
from veriforget.obs import CompensationResult
from veriforget.zkp import Proof, PublicInputs

from conftest import (
    examples,
    random_fisher,
    random_layout,
    random_mask,
    read_fisher,
    resave_fisher,
    small_dataset,
    square_blocks,
)

ARRAY_KINDS = ("model", "dataset", "fisher", "comp")
JSON_KINDS = ("mask", "public", "proof")
INPUTS = {"model": "ab" * 32}


def sample(kind, bump=0.0):
    """One small artifact of each kind; ``bump`` shifts one array entry."""
    rng = np.random.default_rng(11)
    layout = random_layout(rng, n_blocks=2, max_block=6)
    if kind == "model":
        model = init_mlp([3, 4, 2], 0)
        vals = model.params.values.copy()
        vals[0] += bump
        return model.with_params(vals)
    if kind == "dataset":
        data = small_dataset(rng)
        x = data.features.copy()
        x[0, 0] += bump
        return Dataset(features=x, labels=data.labels, name=data.name)
    if kind == "fisher":
        f = random_fisher(rng, layout)
        blocks = [b.copy() for b in f.fisher.blocks]
        blocks[0][0] += bump  # the (0, 0) entry
        return BlockFisher(
            fisher=BlockDiagMatrix(blocks=tuple(blocks), layout=layout),
            lam=f.lam, sample_count=f.sample_count,
            source_digest=f.source_digest,
        )
    if kind == "comp":
        dw = rng.normal(size=layout.total_dim)
        dw[0] += bump
        return CompensationResult(
            delta_w=ParamVector(values=dw, layout=layout),
            multipliers=rng.normal(size=3), method="schur",
        )
    if kind == "mask":
        return random_mask(rng, layout, 3)
    if kind == "public":
        return PublicInputs("cd" * 32, (4, 2), 1, 2, 3, 1 << 30, 22, 32)
    return Proof(tag="01" * 32)


def save(kind, path, obj):
    if kind in ("dataset", "proof"):
        return getattr(art, f"save_{kind}")(path, obj)
    return getattr(art, f"save_{kind}")(path, obj, inputs=INPUTS)


def load(kind, path):
    if kind == "fisher":
        return read_fisher(path)
    return getattr(art, f"load_{kind}")(path)


def arrays_of(kind, obj):
    if kind == "model":
        return [obj.params.values]
    if kind == "dataset":
        return [obj.features, obj.labels]
    if kind == "fisher":
        return list(obj.fisher.blocks)
    return [obj.delta_w.values, obj.multipliers]


@pytest.mark.parametrize("kind", ARRAY_KINDS)
def test_round_trip(tmp_path, kind):
    obj = sample(kind)
    p = str(tmp_path / kind)
    assert sorted(save(kind, p, obj)) == [p, p + ".bin"]
    assert sorted(os.listdir(tmp_path)) == [kind, kind + ".bin"]
    back = load(kind, p)
    for a, b in zip(arrays_of(kind, obj), arrays_of(kind, back)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if kind == "model":
        assert back.layer_dims == obj.layer_dims
        assert back.params.layout == obj.params.layout
    elif kind == "dataset":
        assert back.name == obj.name
    elif kind == "fisher":
        assert (back.lam, back.sample_count, back.source_digest) == (
            obj.lam, obj.sample_count, obj.source_digest)
        assert back.layout == obj.layout
    else:
        assert back.delta_w.layout == obj.delta_w.layout
        assert back.method == obj.method
        assert art.comp_inputs(p) == INPUTS


def test_json_round_trip(tmp_path):
    mask = sample("mask")
    assert art.save_mask(str(tmp_path / "m"), mask) == [str(tmp_path / "m")]
    assert art.load_mask(str(tmp_path / "m")).digest == mask.digest
    for kind in ("public", "proof"):
        save(kind, str(tmp_path / kind), sample(kind))
        assert load(kind, str(tmp_path / kind)) == sample(kind)


@pytest.mark.parametrize("kind", ARRAY_KINDS)
def test_blob_corruption_detected(tmp_path, kind):
    p = str(tmp_path / kind)
    save(kind, p, sample(kind))
    with open(p + ".bin", "r+b") as fh:
        fh.seek(3)
        fh.write(b"\x11")
    with pytest.raises(StructuralError, match="digest mismatch for array 0"):
        load(kind, p)


@pytest.mark.parametrize("kind", ARRAY_KINDS)
def test_header_digest_binds_arrays(tmp_path, kind):
    """Equal metadata, one array entry apart: the headers differ."""
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    save(kind, a, sample(kind))
    save(kind, b, sample(kind, bump=1e-3))
    assert art.file_digest(a) != art.file_digest(b)


def _rewrite_header(path, edit):
    with open(path) as fh:
        header = json.load(fh)
    edit(header)
    with open(path, "w") as fh:
        json.dump(header, fh)


def _resize(delta):
    def edit(header):
        spec = header["arrays"][-1]
        spec["shape"] = [spec["shape"][0] + delta]

    return edit


@pytest.mark.parametrize("edit", [
    lambda h: h["arrays"][0].update(dtype="<u4"),
    lambda h: h["arrays"][0].update(dtype=">f8"),
    lambda h: h["arrays"][0].update(shape=[-1]),
    _resize(1),
    _resize(-1),  # trailing bytes: nothing else checks the multipliers
])
def test_header_must_describe_blob(tmp_path, edit):
    p = str(tmp_path / "comp")
    save("comp", p, sample("comp"))
    _rewrite_header(p, edit)
    with pytest.raises(StructuralError, match="not in|header declares"):
        art.load_comp(p)


@pytest.mark.parametrize("kind, key, value", [
    ("model", "activation", "tanh"),
    ("comp", "kkt_residual_inf", 1e-6),
])
def test_older_header_keys_still_load(tmp_path, kind, key, value):
    """Older headers also stored a value the code determines; the key is
    ignored."""
    p = str(tmp_path / kind)
    obj = sample(kind)
    save(kind, p, obj)
    _rewrite_header(p, lambda h: h.update({key: value}))
    for a, b in zip(arrays_of(kind, obj), arrays_of(kind, load(kind, p))):
        assert np.array_equal(a, b)


def test_load_fisher_rejects_blocks_not_upper_triangles(tmp_path):
    p = str(tmp_path / "fisher")
    fisher = sample("fisher")
    art.save_fisher(p, fisher)
    tri, *rest = fisher.fisher.blocks
    # one entry short or over, and the full square block of an older format
    for bad in (tri[:-1], np.append(tri, 0.0), square_blocks(fisher.fisher)[0]):
        resave_fisher(p, p, [bad, *rest])
        with pytest.raises(StructuralError):
            art.load_fisher(p)


def test_check_input_digests(tmp_path):
    model = str(tmp_path / "model")
    save("model", model, sample("model"))
    art.check_input_digests({"model": art.file_digest(model)}, model=model)
    art.check_input_digests({}, model=model)
    with pytest.raises(StructuralError, match="'model'"):
        art.check_input_digests(INPUTS, model=model)


# -- fuzzing -------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Bytes of each file of one saved artifact of every kind."""
    d = str(tmp_path_factory.mktemp("saved"))
    files = {}
    for kind in ARRAY_KINDS + JSON_KINDS:
        p = os.path.join(d, kind)
        save(kind, p, sample(kind))
        for suffix in ("", ".bin"):
            if os.path.exists(p + suffix):
                with open(p + suffix, "rb") as fh:
                    files[kind, suffix] = fh.read()
    return str(tmp_path_factory.mktemp("fuzz")), files


def _load_mutated(saved, kind, suffix, mutate, match=None):
    d, files = saved
    p = os.path.join(d, kind)
    for (k, sfx), data in files.items():
        if k == kind:
            with open(p + sfx, "wb") as fh:
                fh.write(mutate(data) if sfx == suffix else data)
    with pytest.raises(StructuralError, match=match):
        load(kind, p)


def _xor_byte(at, xor):
    """A mutation that XORs byte ``at`` with ``xor``."""
    def mutate(b):
        b = bytearray(b)
        b[at] ^= xor
        return bytes(b)

    return mutate


@settings(max_examples=examples(40), deadline=None)
@given(kind=st.sampled_from(ARRAY_KINDS), suffix=st.sampled_from(("", ".bin")),
       data=st.data())
def test_fuzz_truncated_array_artifact(saved, kind, suffix, data):
    cut = data.draw(st.integers(0, len(saved[1][kind, suffix]) - 1))
    _load_mutated(saved, kind, suffix, lambda b: b[:cut])


@settings(max_examples=examples(40), deadline=None)
@given(kind=st.sampled_from(ARRAY_KINDS), data=st.data())
def test_fuzz_bit_flipped_blob(saved, kind, data):
    """Any bits of any one byte of the blob flipped fail the digest of the
    array that holds it, before any other check sees the array."""
    at = data.draw(st.integers(0, len(saved[1][kind, ".bin"]) - 1))
    xor = data.draw(st.integers(1, 255))
    _load_mutated(saved, kind, ".bin", _xor_byte(at, xor),
                  match="digest mismatch for array")


@pytest.mark.parametrize("kind", ARRAY_KINDS)
def test_old_format_header_is_a_structural_error(saved, kind):
    """A header of the older format, one sha256 over the whole blob and
    none per array, does not load."""
    def mutate(raw):
        header = json.loads(raw)
        for spec in header["arrays"]:
            del spec["sha256"]
        header["sha256"] = hashlib.sha256(saved[1][kind, ".bin"]).hexdigest()
        return json.dumps(header).encode()

    _load_mutated(saved, kind, "", mutate)


@settings(max_examples=examples(30), deadline=None)
@given(kind=st.sampled_from(JSON_KINDS), data=st.data())
def test_fuzz_truncated_json_artifact(saved, kind, data):
    cut = data.draw(st.integers(0, len(saved[1][kind, ""]) - 1))
    _load_mutated(saved, kind, "", lambda b: b[:cut])


def _set_header(key, value):
    def mutate(raw):
        header = json.loads(raw)
        header[key] = value
        return json.dumps(header).encode()

    return mutate


@pytest.mark.parametrize("kind, key, value", [
    ("fisher", "lambda", True),
    ("fisher", "lambda", "0.001"),
    ("fisher", "lambda", [0.001]),
    ("fisher", "lambda", None),
])
def test_header_number_must_be_a_number(saved, kind, key, value):
    # a bool is an int to Python: damping True would load as 1
    _load_mutated(saved, kind, "", _set_header(key, value))


# -- streaming -------------------------------------------------------------------


@pytest.mark.parametrize("size", [0, 1, 3 * 2**18 + 5])
def test_file_digest_is_the_sha256_of_the_bytes(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    (tmp_path / "f").write_bytes(data)
    assert art.file_digest(str(tmp_path / "f")) == hashlib.sha256(data).hexdigest()


def test_file_digest_reads_in_chunks(tmp_path):
    path = tmp_path / "big"
    with open(path, "wb") as fh:
        fh.truncate(32 * 2**20)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        art.file_digest(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _streamed_fisher(n_blocks=8, size=256):
    """A Fisher of ``n_blocks`` random triangles, each formed when a walk
    or a map reaches it, with the blocks it forms."""
    layout = BlockLayout.from_sizes((size, f"b{i}") for i in range(n_blocks))

    def block(i, out):
        return np.random.default_rng([5, i]).standard_normal(out=out)

    fisher = BlockFisher(
        fisher=BlockDiagMatrix(
            blocks=BlockStream(lambda: contextlib.nullcontext(block), layout),
            layout=layout),
        lam=1e-3, sample_count=3, source_digest="test")
    tri = size * (size + 1) // 2
    return fisher, [block(i, np.empty(tri)) for i in range(n_blocks)]


def _peak_of(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fisher_saved_and_read_one_block_at_a_time(tmp_path):
    """Saving a streamed Fisher and walking its artifact each hold a block
    or two at a time; the whole Fisher is eight blocks."""
    p = str(tmp_path / "fisher")
    fisher, blocks = _streamed_fisher()
    block_bytes = blocks[0].nbytes
    assert _peak_of(lambda: art.save_fisher(p, fisher)) < 3 * block_bytes

    def walk():
        for got, want in zip(art.load_fisher(p).fisher.blocks, blocks):
            assert np.array_equal(got, want)

    assert _peak_of(walk) < 3 * block_bytes
    assert read_fisher(p).layout == fisher.layout


@settings(max_examples=examples(40), deadline=None)
@given(at=st.integers(0, 6 * 10 * 8 - 1), xor=st.integers(1, 255))
def test_fisher_walk_stops_at_the_changed_block(saved, at, xor):
    """A walk over a Fisher of six 4 x 4 blocks, one byte of its blob
    changed, yields every block before the changed one intact and raises
    at that block without yielding it."""
    fisher, blocks = _streamed_fisher(n_blocks=6, size=4)
    p = os.path.join(saved[0], "walked")
    art.save_fisher(p, fisher)
    with open(p + ".bin", "rb") as fh:
        data = fh.read()
    with open(p + ".bin", "wb") as fh:
        fh.write(_xor_byte(at, xor)(data))
    walked = []
    with pytest.raises(StructuralError, match="digest mismatch for array"):
        for tri in art.load_fisher(p).fisher.blocks:
            walked.append(tri)
    assert len(walked) == at // blocks[0].nbytes
    for got, want in zip(walked, blocks):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("edit", [
    lambda b: b[:-8], lambda b: b[:-1], lambda b: b + b"\0",
], ids=["one_entry_short", "one_byte_short", "one_byte_over"])
def test_fisher_reader_checks_the_blob_length_first(tmp_path, edit):
    p = str(tmp_path / "fisher")
    art.save_fisher(p, sample("fisher"))
    with open(p + ".bin", "rb") as fh:
        data = fh.read()
    with open(p + ".bin", "wb") as fh:
        fh.write(edit(data))
    with pytest.raises(StructuralError, match="header declares"):
        next(iter(art.load_fisher(p).fisher.blocks))


def test_fisher_header_must_list_the_layout_triangles(tmp_path):
    p = str(tmp_path / "fisher")
    art.save_fisher(p, sample("fisher"))
    _rewrite_header(p, lambda h: h["arrays"].pop())
    with pytest.raises(StructuralError, match="upper triangles"):
        art.load_fisher(p)


def test_failed_save_leaves_no_blob(tmp_path):
    def arrays():
        yield np.ones(3)
        raise StructuralError("the second array failed")

    p = str(tmp_path / "a")
    with pytest.raises(StructuralError, match="second array"):
        art._save(p, {}, arrays())
    assert os.listdir(tmp_path) == []
