"""File formats for every pipeline artifact.

An array artifact at ``P`` is two files: ``P``, a canonical-JSON header
with the artifact's metadata, its ``inputs``, each array's dtype and
shape, and the sha256 of the blob; and ``P.bin``, the arrays written
back to back as C-contiguous little-endian f64 or i64.  The header's own
digest therefore binds the whole artifact.  Masks, public inputs and
proofs are single JSON files.  Every writer returns the paths of the
files it wrote.  Every derived artifact records the
digests of the artifacts it was computed from, so downstream stages can
refuse mismatched inputs.  Every reader raises ``numkit.StructuralError``
when an artifact is missing, truncated or malformed, or does not match
the digest another artifact records for it.
"""

from __future__ import annotations

import functools
import hashlib
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
    """Stream ``arrays`` into ``path.bin`` and its sha256 at once, then
    write ``header`` with each array's dtype and shape and that digest."""
    digest = hashlib.sha256()
    specs = []
    with open(path + ".bin", "wb") as fh:
        for a in arrays:
            a = np.ascontiguousarray(a, dtype="<i8" if a.dtype.kind == "i" else "<f8")
            digest.update(a)
            fh.write(a)
            specs.append({"dtype": a.dtype.str, "shape": list(a.shape)})
    return [path + ".bin"] + _write_json(
        path, {**header, "arrays": specs, "sha256": digest.hexdigest()})


def _load(path: str) -> tuple[dict, list[np.ndarray]]:
    """The header at ``path`` and read-only views of its arrays in
    ``path.bin``, after checking the blob against the header."""
    header = _read_json(path)
    with open(path + ".bin", "rb") as fh:
        blob = fh.read()
    if sha256_hex(blob) != header["sha256"]:
        raise StructuralError(f"blob digest mismatch for {path}")
    specs = header["arrays"]
    for spec in specs:
        if spec["dtype"] not in _DTYPES:
            raise StructuralError(f"{path}: dtype {spec['dtype']!r} not in {_DTYPES}")
    sizes = [8 * math.prod(spec["shape"]) for spec in specs]
    if sum(sizes) != len(blob):
        raise StructuralError(
            f"{path}: blob holds {len(blob)} bytes, header declares {sum(sizes)}"
        )
    arrays, pos = [], 0
    for spec, size in zip(specs, sizes):
        arrays.append(
            np.frombuffer(blob, dtype=spec["dtype"], count=size // 8, offset=pos)
            .reshape(spec["shape"])
        )
        pos += size
    return header, arrays


@_reader
def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_hex(fh.read())


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
    return _save(path, {
        "lambda": fisher.lam,
        "n": fisher.sample_count,
        "source_digest": fisher.source_digest,
        "layout": fisher.layout.to_json(),
        "inputs": inputs or {},
    }, fisher.fisher.blocks)


@_reader
def load_fisher(path: str) -> BlockFisher:
    header, blocks = _load(path)
    check_number("fisher lambda", header["lambda"])
    return BlockFisher(
        fisher=BlockDiagMatrix(
            blocks=tuple(blocks), layout=BlockLayout.from_json(header["layout"])
        ),
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
    """theta_p, theta_u, the comp, the mask and the Fisher at these paths,
    after checking each input the comp records against its file."""
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
