"""File formats for every pipeline artifact.

An array artifact at ``P`` is two files: ``P``, a canonical-JSON header
with the artifact's metadata, its ``inputs``, and each array's dtype,
shape and sha256; and ``P.bin``, the arrays written back to back as
C-contiguous little-endian f64 or i64.  The header's own digest
therefore binds the whole artifact.  One reader, ``_blob``, reads every
blob, and checks each array against its digest before it hands it on.
Masks, public inputs and proofs are single JSON files.  Every writer
returns the paths of the files it wrote.  Every derived artifact records
the digests of the artifacts it was computed from, so downstream stages
can refuse mismatched inputs.  Every reader raises
``numkit.StructuralError`` when an artifact is missing, truncated or
malformed, or does not match the digest another artifact records for
it.  A Fisher is never held whole: ``save_fisher`` writes each block at
its offset in the blob from the process that formed it, and
``load_fisher`` gives a Fisher whose blocks are read by their offsets,
each checked before it is used.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict

import numpy as np

from .curvature import BlockFisher
from .masking import MaskArtifact
from .model import Dataset, MlpModel, mlp_layout
from .numkit import (
    BlockDiagMatrix,
    BlockLayout,
    BlockStream,
    ParamVector,
    StructuralError,
    canonical_json,
    check_ints,
    check_number,
    sha256_hex,
)
from .obs import CompensationResult
from .zkp import Proof, PublicInputs

_DTYPES = ("<f8", "<i8")


def _reader(fn):
    """Report a missing file, unparsable JSON, a missing key or a short
    blob in the artifact at ``path`` as a StructuralError."""

    @functools.wraps(fn)
    def wrapper(path: str):
        try:
            return fn(path)
        except StructuralError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise StructuralError(
                f"cannot read artifact {path}: {type(exc).__name__}: {exc}"
            ) from exc

    return wrapper


def _write_json(path: str, obj: dict) -> list[str]:
    with open(path, "wb") as fh:
        fh.write(canonical_json(obj))
    return [path]


def _read_json(path: str) -> dict:
    with open(path, "rb") as fh:
        return json.loads(fh.read())


def _save(path: str, header: dict, arrays) -> list[str]:
    """Stream ``arrays`` into ``path.bin``, then write ``header`` with each
    array's dtype, shape and sha256.  When ``arrays`` raises, the partial
    ``path.bin`` is removed and no header is written."""
    specs = []
    fh = open(path + ".bin", "wb")
    try:
        with fh:
            for a in arrays:
                a = np.ascontiguousarray(
                    a, dtype="<i8" if a.dtype.kind == "i" else "<f8")
                fh.write(a)
                specs.append({"dtype": a.dtype.str, "shape": list(a.shape),
                              "sha256": sha256_hex(a)})
    except BaseException:
        os.remove(path + ".bin")
        raise
    return [path + ".bin"] + _write_json(path, {**header, "arrays": specs})


@contextlib.contextmanager
def _blob(path: str, specs: list[dict]):
    """Open ``path.bin`` and give ``read(i, out)``: array i of those
    ``specs`` declares, read into ``out`` (flat, of the array's dtype and
    size) and returned once it matches its digest.  The dtypes, and the
    blob's length, are checked before any array is read."""
    for spec in specs:
        if spec["dtype"] not in _DTYPES:
            raise StructuralError(f"{path}: dtype {spec['dtype']!r} not in {_DTYPES}")
    offsets = [8 * n for n in itertools.accumulate(
        (math.prod(spec["shape"]) for spec in specs), initial=0)]
    try:
        fh = open(path + ".bin", "rb")
    except OSError as exc:
        raise StructuralError(f"cannot read artifact {path}: {exc}") from exc
    with fh:
        length = os.fstat(fh.fileno()).st_size
        if length != offsets[-1]:
            raise StructuralError(f"{path}: blob holds {length} bytes, "
                                  f"header declares {offsets[-1]}")

        def read(i: int, out: np.ndarray) -> np.ndarray:
            try:
                got = os.preadv(fh.fileno(), [out], offsets[i])
            except OSError as exc:
                raise StructuralError(f"cannot read artifact {path}: {exc}") from exc
            if got != out.nbytes:
                raise StructuralError(f"{path}.bin ended inside array {i}")
            if sha256_hex(out) != specs[i]["sha256"]:
                raise StructuralError(f"digest mismatch for array {i} of {path}")
            return out

        yield read


def _arrays(path: str, specs: list[dict]):
    """Yield each array ``specs`` declares in ``path.bin``, read into memory
    of its own by ``_blob``, once it matches its digest."""
    with _blob(path, specs) as read:
        for i, spec in enumerate(specs):
            out = np.empty(math.prod(spec["shape"]), dtype=spec["dtype"])
            yield read(i, out).reshape(spec["shape"])


def _load(path: str) -> tuple[dict, list[np.ndarray]]:
    """The header at ``path`` and the arrays of ``path.bin``, each checked
    against its digest."""
    header = _read_json(path)
    return header, list(_arrays(path, header["arrays"]))


@_reader
def file_digest(path: str) -> str:
    """The sha256 of the file at ``path``, read in 64 KiB chunks.

    ``hashlib.file_digest`` would zero a 256 KiB buffer on every call,
    which costs more than hashing a small header."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def input_digests(**paths: str) -> dict:
    """The ``inputs`` a derived artifact records: each named input's
    digest."""
    return {name: file_digest(path) for name, path in paths.items()}


def check_input_digests(inputs: dict, **paths: str) -> None:
    """Each named artifact the ``inputs`` of a derived artifact record must
    be the file at the given path."""
    for name, path in paths.items():
        if name in inputs and inputs[name] != file_digest(path):
            raise StructuralError(
                f"input {name!r} at {path} does not match the digest "
                f"recorded in the artifact"
            )


# -- models -----------------------------------------------------------------


def save_model(path: str, model: MlpModel, inputs: dict | None = None) -> list[str]:
    return _save(path, {
        "layer_dims": list(model.layer_dims),
        "inputs": inputs or {},
    }, [model.params.values])


@_reader
def load_model(path: str) -> MlpModel:
    header, (values,) = _load(path)
    layer_dims = tuple(header["layer_dims"])
    check_ints("layer_dims", layer_dims)
    return MlpModel(
        layer_dims=layer_dims,
        params=ParamVector(values=values, layout=mlp_layout(list(layer_dims))),
    )


# -- datasets ---------------------------------------------------------------


def save_dataset(path: str, data: Dataset) -> list[str]:
    return _save(path, {"name": data.name}, [data.features, data.labels])


@_reader
def load_dataset(path: str) -> Dataset:
    header, (x, y) = _load(path)
    return Dataset(features=x, labels=y, name=header["name"])


# -- masks ------------------------------------------------------------------


def save_mask(path: str, mask: MaskArtifact, inputs: dict | None = None) -> list[str]:
    obj = mask.to_json()
    obj["inputs"] = inputs or {}
    return _write_json(path, obj)


@_reader
def load_mask(path: str) -> MaskArtifact:
    return MaskArtifact.from_json(_read_json(path))


# -- fisher -----------------------------------------------------------------


def save_fisher(path: str, fisher: BlockFisher, inputs: dict | None = None) -> list[str]:
    """Write the Fisher as ``_save`` writes an artifact, each block at its
    offset in a blob sized up front, by the process that formed it
    (``BlockDiagMatrix.map``), which hands back only the block's digest.
    When a block fails, the blob is removed and no header is written."""
    counts = [size * (size + 1) // 2 for _, size, _ in fisher.layout.blocks]
    offsets = [8 * n for n in itertools.accumulate(counts, initial=0)]
    fd = os.open(path + ".bin", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)

    def write(i: int, tri: np.ndarray) -> str:
        tri = np.ascontiguousarray(tri, dtype="<f8")
        view, at = memoryview(tri).cast("B"), offsets[i]
        while view:
            written = os.pwrite(fd, view, at)
            view, at = view[written:], at + written
        return sha256_hex(tri)

    try:
        try:
            os.ftruncate(fd, offsets[-1])
            digests = fisher.fisher.map(write)
        finally:
            os.close(fd)
    except BaseException:
        os.remove(path + ".bin")
        raise
    return [path + ".bin"] + _write_json(path, {
        "lambda": fisher.lam,
        "n": fisher.sample_count,
        "source_digest": fisher.source_digest,
        "layout": fisher.layout.to_json(),
        "inputs": inputs or {},
        "arrays": [{"dtype": "<f8", "shape": [count], "sha256": digest}
                   for count, digest in zip(counts, digests)],
    })


@_reader
def load_fisher(path: str) -> BlockFisher:
    """The Fisher artifact at ``path``, its blocks streamed from ``path.bin``.

    Its array specs are checked against the layout it records before any
    block is read.  Each walk or ``map`` over the blocks opens the blob
    through ``_blob``, which checks its length once, and reads each block
    by its offset, so a block is checked against its digest, and then as
    ``BlockDiagMatrix`` checks it, before it is used."""
    header = _read_json(path)
    layout = BlockLayout.from_json(header["layout"])
    arrays = header["arrays"]
    specs = [{"dtype": "<f8", "shape": [size * (size + 1) // 2],
              "sha256": spec["sha256"]}
             for (_, size, _), spec in zip(layout.blocks, arrays)]
    if (len(arrays) != len(layout.blocks) or arrays != specs
            or not all(isinstance(spec["sha256"], str) for spec in specs)):
        raise StructuralError(f"{path}: arrays are not the digested upper "
                              f"triangles of the layout's "
                              f"{len(layout.blocks)} blocks")
    check_number("fisher lambda", header["lambda"])
    return BlockFisher(
        fisher=BlockDiagMatrix(
            blocks=BlockStream(lambda: _blob(path, specs), layout),
            layout=layout),
        lam=header["lambda"],
        sample_count=header["n"],
        source_digest=header["source_digest"],
    )


# -- compensation -----------------------------------------------------------


def save_comp(path: str, comp: CompensationResult, inputs: dict | None = None) -> list[str]:
    return _save(path, {
        "method": comp.method,
        "layout": comp.delta_w.layout.to_json(),
        "inputs": inputs or {},
    }, [comp.delta_w.values, comp.multipliers])


@_reader
def load_comp(path: str) -> CompensationResult:
    header, (dw, multipliers) = _load(path)
    return CompensationResult(
        delta_w=ParamVector(
            values=dw, layout=BlockLayout.from_json(header["layout"])
        ),
        multipliers=multipliers,
        method=header["method"],
    )


@_reader
def comp_inputs(path: str) -> dict:
    return _read_json(path)["inputs"]


def load_certificate_inputs(theta_p: str, theta_u: str, comp: str, mask: str,
                            fisher: str) -> tuple:
    """theta_p, theta_u, the comp, the mask and the streamed Fisher at these
    paths, after checking each input the comp records against its file."""
    check_input_digests(comp_inputs(comp), model=theta_p, mask=mask,
                        fisher=fisher)
    return (load_model(theta_p), load_model(theta_u), load_comp(comp),
            load_mask(mask), load_fisher(fisher))


# -- zk layer ---------------------------------------------------------------


def save_public(path: str, public: PublicInputs, inputs: dict | None = None) -> list[str]:
    obj = public.to_json()
    obj["inputs"] = inputs or {}
    return _write_json(path, obj)


@_reader
def load_public(path: str) -> PublicInputs:
    return PublicInputs.from_json(_read_json(path))


def save_proof(path: str, proof: Proof) -> list[str]:
    return _write_json(path, asdict(proof))


@_reader
def load_proof(path: str) -> Proof:
    obj = _read_json(path)
    proof = Proof(tag=obj["tag"])
    if not isinstance(proof.tag, str):
        raise StructuralError(f"{path}: proof tag is not a string")
    return proof


def out_digests(out_dir: str) -> dict:
    """Digest of every regular file in a directory, for determinism checks."""
    digests = {}
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir)
            digests[rel] = file_digest(full)
    return digests
