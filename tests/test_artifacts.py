"""The artifact container: round trips, integrity checks and fuzzing."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from veriforget import artifacts as art
from veriforget.curvature import BlockFisher
from veriforget.model import Dataset, init_mlp
from veriforget.numkit import BlockDiagMatrix, ParamVector, StructuralError
from veriforget.obs import CompensationResult
from veriforget.zkp import Proof, PublicInputs

from conftest import (
    random_fisher,
    random_layout,
    random_mask,
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
    with pytest.raises(StructuralError, match="blob digest"):
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


def _load_mutated(saved, kind, suffix, mutate):
    d, files = saved
    p = os.path.join(d, kind)
    for (k, sfx), data in files.items():
        if k == kind:
            with open(p + sfx, "wb") as fh:
                fh.write(mutate(data) if sfx == suffix else data)
    with pytest.raises(StructuralError):
        load(kind, p)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(ARRAY_KINDS), suffix=st.sampled_from(("", ".bin")),
       data=st.data())
def test_fuzz_truncated_array_artifact(saved, kind, suffix, data):
    cut = data.draw(st.integers(0, len(saved[1][kind, suffix]) - 1))
    _load_mutated(saved, kind, suffix, lambda b: b[:cut])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(ARRAY_KINDS), data=st.data())
def test_fuzz_bit_flipped_blob(saved, kind, data):
    bit = data.draw(st.integers(0, 8 * len(saved[1][kind, ".bin"]) - 1))

    def flip(b):
        b = bytearray(b)
        b[bit // 8] ^= 1 << (bit % 8)
        return bytes(b)

    _load_mutated(saved, kind, ".bin", flip)


@settings(max_examples=30, deadline=None)
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
