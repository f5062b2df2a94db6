"""File formats for every pipeline artifact.

Vectors and block matrices use the .pvec container (JSON manifest plus
a little-endian f64 sidecar blob).  Every derived artifact embeds the
digests of the artifacts it was computed from, so downstream stages can
refuse mismatched inputs.  Every reader raises IntegrityError when an
artifact is missing, truncated or malformed.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

from .curvature import BlockFisher
from .masking import MaskArtifact
from .model import Dataset, MlpModel
from .numkit import (
    StructuralError,
    canonical_json,
    load_blockdiag,
    load_pvec,
    save_blockdiag,
    save_pvec,
    sha256_hex,
)
from .obs import CompensationResult
from .zkp import Proof, PublicInputs


class IntegrityError(ValueError):
    """An artifact is unreadable, or references an input whose digest does
    not match."""


def _reader(fn):
    """Report a missing file, unparsable JSON, a missing key or a short
    blob in the artifact at ``path`` as an IntegrityError."""

    @functools.wraps(fn)
    def wrapper(path: str):
        try:
            return fn(path)
        except (IntegrityError, StructuralError):
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise IntegrityError(
                f"cannot read artifact {path}: {type(exc).__name__}: {exc}"
            ) from exc

    return wrapper


def _write_json(path: str, obj: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_json(obj))


def _read_json(path: str) -> dict:
    with open(path, "rb") as fh:
        return json.loads(fh.read())


@_reader
def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_hex(fh.read())


def check_input_digests(obj: dict, **paths: str) -> None:
    inputs = obj.get("inputs", {})
    for name, path in paths.items():
        if name in inputs and inputs[name] != file_digest(path):
            raise IntegrityError(
                f"input {name!r} at {path} does not match the digest "
                f"recorded in the artifact"
            )


# -- models -----------------------------------------------------------------


def save_model(path: str, model: MlpModel, inputs: dict | None = None) -> None:
    """path.pvec(.bin) for the parameters, path.arch.json for the shape."""
    save_pvec(path + ".pvec", model.params)
    _write_json(
        path + ".arch.json",
        {
            "layer_dims": list(model.layer_dims),
            "activation": model.activation,
            "inputs": inputs or {},
        },
    )


@_reader
def load_model(path: str) -> MlpModel:
    arch = _read_json(path + ".arch.json")
    params = load_pvec(path + ".pvec")
    return MlpModel(
        layer_dims=tuple(arch["layer_dims"]),
        params=params,
        activation=arch["activation"],
    )


def model_digest(path: str) -> str:
    return file_digest(path + ".pvec")


# -- datasets ---------------------------------------------------------------


def save_dataset(path: str, data: Dataset) -> None:
    """path (.dset JSON manifest) + .x.bin f64 features + .y.bin u32 labels."""
    xblob = data.features.astype("<f8").tobytes()
    yblob = data.labels.astype("<u4").tobytes()
    _write_json(
        path,
        {
            "name": data.name,
            "n": len(data),
            "m": data.features.shape[1],
            "features_sha256": sha256_hex(xblob),
            "labels_sha256": sha256_hex(yblob),
        },
    )
    with open(path + ".x.bin", "wb") as fh:
        fh.write(xblob)
    with open(path + ".y.bin", "wb") as fh:
        fh.write(yblob)


@_reader
def load_dataset(path: str) -> Dataset:
    manifest = _read_json(path)
    with open(path + ".x.bin", "rb") as fh:
        xblob = fh.read()
    with open(path + ".y.bin", "rb") as fh:
        yblob = fh.read()
    if sha256_hex(xblob) != manifest["features_sha256"]:
        raise StructuralError(f"feature blob digest mismatch for {path}")
    if sha256_hex(yblob) != manifest["labels_sha256"]:
        raise StructuralError(f"label blob digest mismatch for {path}")
    x = np.frombuffer(xblob, dtype="<f8").reshape(manifest["n"], manifest["m"])
    y = np.frombuffer(yblob, dtype="<u4").astype(np.int64)
    return Dataset(features=x, labels=y, name=manifest["name"])


# -- masks ------------------------------------------------------------------


def save_mask(path: str, mask: MaskArtifact, inputs: dict | None = None) -> None:
    obj = mask.to_json()
    obj["inputs"] = inputs or {}
    _write_json(path, obj)


@_reader
def load_mask(path: str) -> MaskArtifact:
    return MaskArtifact.from_json(_read_json(path))


# -- fisher -----------------------------------------------------------------


def save_fisher(path: str, fisher: BlockFisher, inputs: dict | None = None) -> None:
    save_blockdiag(path + ".mat", fisher.fisher)
    _write_json(
        path,
        {
            "lambda": fisher.lam,
            "n": fisher.sample_count,
            "source_digest": fisher.source_digest,
            "inputs": inputs or {},
        },
    )


@_reader
def load_fisher(path: str) -> BlockFisher:
    meta = _read_json(path)
    mat = load_blockdiag(path + ".mat")
    return BlockFisher(
        fisher=mat,
        lam=meta["lambda"],
        sample_count=meta["n"],
        source_digest=meta["source_digest"],
    )


# -- compensation -----------------------------------------------------------


def save_comp(path: str, comp: CompensationResult, inputs: dict | None = None) -> None:
    save_pvec(path + ".pvec", comp.delta_w)
    _write_json(
        path,
        {
            "lambda_M": [float(x) for x in comp.multipliers],
            "method": comp.method,
            "kkt_residual_inf": comp.kkt_residual_inf,
            "inputs": inputs or {},
        },
    )


@_reader
def load_comp(path: str) -> CompensationResult:
    meta = _read_json(path)
    dw = load_pvec(path + ".pvec")
    return CompensationResult(
        delta_w=dw,
        multipliers=np.asarray(meta["lambda_M"], dtype=np.float64),
        method=meta["method"],
        kkt_residual_inf=meta["kkt_residual_inf"],
    )


@_reader
def comp_inputs(path: str) -> dict:
    return _read_json(path).get("inputs", {})


# -- zk layer ---------------------------------------------------------------


def save_public(path: str, public: PublicInputs, inputs: dict | None = None) -> None:
    obj = public.to_json()
    obj["inputs"] = inputs or {}
    _write_json(path, obj)


@_reader
def load_public(path: str) -> PublicInputs:
    return PublicInputs.from_json(_read_json(path))


def save_proof(path: str, proof: Proof) -> None:
    _write_json(
        path,
        {
            "backend": proof.backend,
            "circuit_hash": proof.circuit_hash,
            "proof_hex": proof.payload.hex(),
        },
    )


@_reader
def load_proof(path: str) -> Proof:
    obj = _read_json(path)
    return Proof(
        payload=bytes.fromhex(obj["proof_hex"]),
        backend=obj["backend"],
        circuit_hash=obj["circuit_hash"],
    )


def out_digests(out_dir: str) -> dict:
    """Digest of every regular file in a directory, for determinism checks."""
    digests = {}
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir)
            digests[rel] = file_digest(full)
    return digests
