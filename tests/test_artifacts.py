"""The artifact container: round trips, integrity checks and fuzzing."""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from veriforget import artifacts as art
from veriforget.curvature import BLOCK_CAPS, empirical_fisher_blockwise
from veriforget.model import Dataset, column_layout, init_mlp
from veriforget.numkit import StructuralError
from veriforget.obs import CompensationResult
from veriforget.zkp import Proof, PublicInputs

from conftest import (
    examples,
    random_layout,
    random_mask,
    resave,
    small_dataset,
)

ARRAY_KINDS = ("model", "dataset", "fisher", "comp")
JSON_KINDS = ("mask", "public", "proof")
INPUTS = {"model": "ab" * 32}
# The model the sample Fisher and compensation are taken at, which their
# loaders are given.
FISHER_MODEL = init_mlp([3, 4, 2], 1)


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
        data = small_dataset(rng, dim=3, classes=2)
        x = data.features.copy()
        x[0, 0] += bump
        return empirical_fisher_blockwise(
            FISHER_MODEL, Dataset(features=x, labels=data.labels), seed=4)
    if kind == "comp":
        dw = rng.normal(size=FISHER_MODEL.dim)
        dw[0] += bump
        return CompensationResult(
            delta_w=FISHER_MODEL.params.with_values(dw),
            multipliers=rng.normal(size=3), method="schur",
        )
    if kind == "mask":
        return random_mask(rng, layout, 3)
    if kind == "public":
        return PublicInputs("cd" * 32, 256, (2, 2), 7, 1e-3, 0, 0, 1, 2,
                            3, 1 << 30)
    return Proof(tag="01" * 32)


def save(kind, path, obj):
    if kind in ("dataset", "proof"):
        return getattr(art, f"save_{kind}")(path, obj)
    return getattr(art, f"save_{kind}")(path, obj, inputs=INPUTS)


def loader(kind):
    """The loader of ``kind``, taking the path and the caller's digests."""
    if kind in ("fisher", "comp"):
        return lambda path, **inputs: getattr(art, f"load_{kind}")(
            path, FISHER_MODEL, **inputs)
    return getattr(art, f"load_{kind}")


def load(kind, path):
    if kind == "fisher":
        return art.load_fisher(path, FISHER_MODEL)
    return loader(kind)(path)


def arrays_of(kind, obj):
    if kind == "model":
        return [obj.params.values]
    if kind == "dataset":
        return [obj.features, obj.labels]
    if kind == "fisher":
        return [obj.rows.features, obj.rows.labels,
                *obj.fisher.blocks]
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
        assert back.block_cap == obj.block_cap
        assert back.layout == obj.layout == column_layout(FISHER_MODEL, 256)
    else:
        assert back.delta_w.layout == obj.delta_w.layout
        assert back.method == obj.method
        with open(p) as fh:
            assert json.load(fh)["inputs"] == INPUTS


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


def _other_dtype(header):
    """The last array declared as the other of f64 and i64: a dataset's
    labels as floats, any other kind's last array as integers."""
    spec = header["arrays"][-1]
    spec["dtype"] = "<i8" if spec["dtype"] == "<f8" else "<f8"


def _extra_dimension(header):
    header["arrays"][0]["shape"].append(1)


def _missing_array(header):
    header["arrays"].pop()


def _extra_array(header):
    header["arrays"].append(dict(header["arrays"][-1]))


def _number_digest(header):
    header["arrays"][0]["sha256"] = 7


@pytest.mark.parametrize("edit", [
    lambda h: h["arrays"][0].update(dtype="<u4"),
    lambda h: h["arrays"][0].update(dtype=">f8"),
    lambda h: h["arrays"][0].update(shape=[-1]),
    _resize(1),
    _resize(-1),  # trailing bytes: nothing else checks the multipliers
    _other_dtype, _extra_dimension, _missing_array, _extra_array,
    _number_digest,
])
def test_header_must_describe_blob(tmp_path, edit):
    """A header of every array kind must declare exactly the arrays its
    kind holds, each with a string digest, and the blob must hold them."""
    for kind in ARRAY_KINDS:
        p = str(tmp_path / kind)
        save(kind, p, sample(kind))
        _rewrite_header(p, edit)
        with pytest.raises(StructuralError,
                           match="is not a digested|does not declare|"
                                 "header declares"):
            load(kind, p)


@pytest.mark.parametrize("kind, key, value", [
    ("model", "activation", "tanh"),
    ("comp", "kkt_residual_inf", 1e-6),
    ("comp", "layout", []),
    ("fisher", "n", 30),
    ("dataset", "zz", 1),
])
def test_stale_header_keys_are_refused(tmp_path, kind, key, value):
    """A header holds its kind's keys and no other: a key that older
    headers stored, a value the code or the blob determines, is refused
    like any unknown one."""
    p = str(tmp_path / kind)
    save(kind, p, sample(kind))
    _rewrite_header(p, lambda h: h.update({key: value}))
    with pytest.raises(StructuralError, match=rf"unknown keys \['{key}'\]"):
        load(kind, p)


def test_check_input_digests(tmp_path):
    """A loader checks each input the header records that the caller
    names, and only those; a header that records none is checked against
    none."""
    for kind in ("model", "fisher", "comp"):
        p = str(tmp_path / kind)
        save(kind, p, sample(kind))
        load_kind = loader(kind)
        load_kind(p, model=INPUTS["model"])
        load_kind(p, mask="cd" * 32)  # not recorded: not checked
        with pytest.raises(StructuralError, match="records another model"):
            load_kind(p, model="cd" * 32)
        getattr(art, f"save_{kind}")(p, sample(kind))
        load_kind(p, model="cd" * 32)


@pytest.mark.parametrize("kind", ("model", "fisher", "comp"))
@pytest.mark.parametrize("inputs", [
    ["model"], "model", {"model": 7}, {"model": None},
], ids=["list", "string", "number_digest", "null_digest"])
def test_recorded_inputs_must_be_digests_by_name(tmp_path, kind, inputs):
    p = str(tmp_path / kind)
    save(kind, p, sample(kind))
    _rewrite_header(p, lambda h: h.update(inputs=inputs))
    with pytest.raises(StructuralError, match="inputs are not digests"):
        loader(kind)(p, model=INPUTS["model"])


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


def _peak_of(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fisher_saved_and_read_without_forming_a_block(tmp_path):
    """Saving a Fisher and loading its artifact form no block: each holds
    less than one of its 256 x 256 triangles, and the artifact is the
    rows, far smaller than the blocks."""
    model = init_mlp([8, 64, 2], 0)
    data = small_dataset(np.random.default_rng(3), n=40, dim=8, classes=2)
    fisher = empirical_fisher_blockwise(model, data)
    block_bytes = 8 * 256 * 257 // 2
    p = str(tmp_path / "fisher")
    assert _peak_of(lambda: art.save_fisher(p, fisher)) < block_bytes
    assert _peak_of(lambda: art.load_fisher(p, model)) < block_bytes
    assert os.path.getsize(p + ".bin") == 40 * 8 * 8 + 40 * 8
    loaded = art.load_fisher(p, model)
    assert loaded.layout == fisher.layout
    for got, want in zip(loaded.fisher.blocks, fisher.fisher.blocks):
        assert got.tobytes() == want.tobytes()


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
        art.load_fisher(p, FISHER_MODEL)


def test_fisher_header_must_list_the_rows(tmp_path):
    """The features and the labels of the sample rows, and nothing else:
    a header of the older format, one triangle per block, does not load."""
    p = str(tmp_path / "fisher")
    fisher = sample("fisher")
    art.save_fisher(p, fisher)
    _rewrite_header(p, lambda h: h["arrays"].pop())
    with pytest.raises(StructuralError, match="does not declare 2 arrays"):
        art.load_fisher(p, FISHER_MODEL)
    resave(p, p, list(fisher.fisher.blocks))
    with pytest.raises(StructuralError, match="does not declare 2 arrays"):
        art.load_fisher(p, FISHER_MODEL)


def test_failed_save_leaves_no_blob(tmp_path):
    def arrays():
        yield np.ones(3)
        raise StructuralError("the second array failed")

    p = str(tmp_path / "a")
    with pytest.raises(StructuralError, match="second array"):
        art._save(p, {}, arrays())
    assert os.listdir(tmp_path) == []


def test_fisher_block_cap_is_one_of_the_allowed(tmp_path):
    """An estimate in memory may use any cap, but only one of BLOCK_CAPS
    is written or read, and the layout is always the model's own split at
    the cap: a header that declares one block of all d coordinates (the
    layout that makes every coordinate touched) is refused, as is a cap
    of d."""
    p = str(tmp_path / "fisher")
    fisher = sample("fisher")
    odd = empirical_fisher_blockwise(FISHER_MODEL, fisher.rows,
                                     block_cap=FISHER_MODEL.dim)
    with pytest.raises(StructuralError, match="block cap"):
        art.save_fisher(p, odd)
    assert os.listdir(tmp_path) == []
    for cap in BLOCK_CAPS:
        art.save_fisher(p, empirical_fisher_blockwise(
            FISHER_MODEL, fisher.rows, block_cap=cap))
        assert art.load_fisher(p, FISHER_MODEL).block_cap == cap
    assert art.load_fisher(p, FISHER_MODEL).layout == column_layout(
        FISHER_MODEL, BLOCK_CAPS[-1])
    one_block = [{"offset": 0, "size": FISHER_MODEL.dim, "label": "all"}]
    _rewrite_header(p, lambda h: h.update(layout=one_block))
    with pytest.raises(StructuralError, match="unknown keys"):
        art.load_fisher(p, FISHER_MODEL)
    _rewrite_header(p, lambda h: h.pop("layout"))
    for cap in (FISHER_MODEL.dim, 8, 256.0, True, "256", None):
        _rewrite_header(p, lambda h: h.update(block_cap=cap))
        with pytest.raises(StructuralError):
            art.load_fisher(p, FISHER_MODEL)


# n is the blob's row count: a header that counts the rows too, as it once
# did, is refused whatever the count
@pytest.mark.parametrize("edit", [
    lambda h: h.update(n=h["arrays"][1]["shape"][0] - 1),
    lambda h: h.update(n=float(h["arrays"][1]["shape"][0])),
    lambda h: h.update(source_digest=7),
    lambda h: h.pop("block_cap"),
], ids=["n_short", "n_float", "source_digest_number", "no_block_cap"])
def test_fisher_header_must_describe_the_rows(tmp_path, edit):
    p = str(tmp_path / "fisher")
    art.save_fisher(p, sample("fisher"))
    _rewrite_header(p, edit)
    with pytest.raises(StructuralError):
        art.load_fisher(p, FISHER_MODEL)


def test_fisher_rows_must_fit_the_model(tmp_path):
    """Rows of another width, a label beyond the model's classes, and a
    NaN feature, each under a renewed digest, do not load."""
    p = str(tmp_path / "fisher")
    art.save_fisher(p, sample("fisher"))
    rows = art.load_fisher(p, FISHER_MODEL).rows
    x, y = rows.features, rows.labels
    nan = x.copy()
    nan[3, 1] = np.nan
    for features, labels, message in (
        (x[:, :2], y, "features"), (x, y + 2, "out of range"),
        (nan, y, "non-finite features"),
    ):
        resave(p, str(tmp_path / "bad"), [features, labels])
        with pytest.raises(StructuralError, match=message):
            art.load_fisher(str(tmp_path / "bad"), FISHER_MODEL)
