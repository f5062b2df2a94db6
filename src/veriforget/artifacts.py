"""File formats for every pipeline artifact.

An array artifact at ``P`` is two files: ``P``, a canonical-JSON header
with the artifact's metadata, its ``inputs`` (the digests of the
artifacts it was computed from) and each array's dtype, shape and
sha256; and ``P.bin``, the arrays back to back, little-endian, written
by one writer, ``_save``.  The header's digest binds the whole artifact.
One reader, ``_load``, first checks the header in one place,
``_checked``: it must hold no key but its kind's, which its loader
names, and ``arrays`` and ``inputs``; it must declare exactly the arrays
its kind holds; and each input it records that the caller names must
carry the caller's digest.  It then checks the blob's length and reads
each array, checked against its digest.  The Fisher artifact holds the
estimate's inputs (``curvature.BlockFisher``), never a curvature block:
its sample rows, the damping, the block cap and the source digest.  No
header restates what a blob or the model determines: n is the count of
the Fisher's rows, its layout is ``model.column_layout`` of theta_p at
the cap, and the compensation's layout is theta_p's.  Masks, public
inputs and proofs are single JSON files, also of exactly their keys.
Every writer returns the paths it wrote and leaves no file when a write
fails; every reader raises ``numkit.StructuralError`` on a missing,
truncated or malformed artifact.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
from dataclasses import asdict, fields

import numpy as np

from .curvature import (
    BlockFisher,
    check_block_cap,
    check_damping,
)
from .masking import MaskArtifact
from .model import Dataset, MlpModel, mlp_layout
from .numkit import (
    ParamVector,
    StructuralError,
    canonical_json,
    check_ints,
    sha256_hex,
)
from .obs import CompensationResult
from .zkp import Proof, PublicInputs


def _reader(fn):
    """Report a missing file, unparsable JSON, a missing key or a short
    blob in the artifact at ``path`` as a StructuralError."""

    @functools.wraps(fn)
    def wrapper(path: str, *args, **inputs: str):
        try:
            return fn(path, *args, **inputs)
        except StructuralError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise StructuralError(
                f"cannot read artifact {path}: {type(exc).__name__}: {exc}"
            ) from exc

    return wrapper


@contextlib.contextmanager
def removed_on_failure():
    """A list for the paths a run writes: when the block raises, each is
    removed, so that a run that fails leaves no file of its own."""
    written = []
    try:
        yield written
    except BaseException:
        for path in written:
            os.remove(path)
        raise


def _write(path: str, chunks) -> list[str]:
    """The one file writer: the byte ``chunks`` back to back at ``path``,
    which is removed if a write fails."""
    with removed_on_failure() as written, open(path, "wb") as fh:
        written.append(path)
        for chunk in chunks:
            fh.write(chunk)
    return written


def write_json(path: str, obj: dict) -> list[str]:
    """``obj`` as canonical JSON at ``path``; returns ``[path]``."""
    return _write(path, [canonical_json(obj)])


def _read_json(path: str) -> dict:
    with open(path, "rb") as fh:
        return json.loads(fh.read())


def _save(path: str, header: dict, arrays) -> list[str]:
    """The one blob writer: ``arrays``, as i64 when integral and f64
    otherwise, back to back in ``path.bin``, then ``header`` with each
    array's dtype, shape and sha256.  When a write fails, neither file is
    left."""
    arrays = [np.ascontiguousarray(a, dtype="<i8" if a.dtype.kind == "i" else "<f8")
              for a in arrays]
    with removed_on_failure() as written:
        written += _write(path + ".bin",
                          (memoryview(a.reshape(-1)).cast("B") for a in arrays))
        written += write_json(path, {**header, "arrays": [
            {"dtype": a.dtype.str, "shape": list(a.shape), "sha256": sha256_hex(a)}
            for a in arrays]})
    return written


def _exact_keys(path: str, obj: dict, keys) -> dict:
    """``obj``, once it holds no key outside ``keys``."""
    if set(obj) - set(keys):
        raise StructuralError(f"{path}: unknown keys "
                              f"{sorted(set(obj) - set(keys))}")
    return obj


def _checked(path: str, header: dict, keys, arrays, inputs: dict) -> list[dict]:
    """The array specs of the header at ``path``, once it holds no key but
    ``keys``, ``arrays`` and ``inputs``, its specs are exactly ``arrays``
    (dtype and shape, in blob order; a name in a shape is a length the
    header sets), each with a string sha256, and each input it records
    that ``inputs`` names has the digest ``inputs`` gives."""
    _exact_keys(path, header, (*keys, "arrays", "inputs"))
    specs = header["arrays"]
    if not isinstance(specs, list) or len(specs) != len(arrays):
        raise StructuralError(f"{path}: header does not declare {len(arrays)} arrays")
    for i, (spec, (dtype, shape)) in enumerate(zip(specs, arrays)):
        got = spec.get("shape") if isinstance(spec, dict) else None
        fits = isinstance(got, list) and len(got) == len(shape) and all(
            type(n) is int and n >= 0 and (isinstance(want, str) or want == n)
            for n, want in zip(got, shape))
        if not (fits and spec.get("dtype") == dtype
                and isinstance(spec.get("sha256"), str)):
            raise StructuralError(f"{path}: array {i} is not a digested {dtype} "
                                  f"array of shape ({', '.join(map(str, shape))})")
    recorded = header.get("inputs", {})
    if not isinstance(recorded, dict) or not all(
            isinstance(d, str) for d in recorded.values()):
        raise StructuralError(f"{path}: inputs are not digests by name")
    for name, digest in inputs.items():
        if recorded.get(name, digest) != digest:
            raise StructuralError(f"{path} records another {name} than the one given")
    return specs


def _load(path: str, keys, arrays,
          inputs: dict) -> tuple[dict, list[np.ndarray]]:
    """The header at ``path`` and its arrays, all checked: the header by
    ``_checked``, then the blob's length, before any array is read, then
    each array against its digest."""
    header = _read_json(path)
    specs = _checked(path, header, keys, arrays, inputs)
    declared = 8 * sum(math.prod(spec["shape"]) for spec in specs)
    out = []
    with open(path + ".bin", "rb") as fh:
        length = os.fstat(fh.fileno()).st_size
        if length != declared:
            raise StructuralError(f"{path}: blob holds {length} bytes, "
                                  f"header declares {declared}")
        for i, spec in enumerate(specs):
            a = np.empty(math.prod(spec["shape"]), spec["dtype"])
            if fh.readinto(a) != a.nbytes:
                raise StructuralError(f"{path}.bin ended inside array {i}")
            if sha256_hex(a) != spec["sha256"]:
                raise StructuralError(f"digest mismatch for array {i} of {path}")
            out.append(a.reshape(spec["shape"]))
    return header, out


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


# -- models -----------------------------------------------------------------


def save_model(path: str, model: MlpModel, inputs: dict | None = None) -> list[str]:
    return _save(path, {
        "layer_dims": list(model.layer_dims),
        "inputs": inputs or {},
    }, [model.params.values])


@_reader
def load_model(path: str, **inputs: str) -> MlpModel:
    header, (values,) = _load(path, ("layer_dims",), [("<f8", ("d",))],
                              inputs)
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
    header, (x, y) = _load(path, ("name",),
                           [("<f8", ("n", "m")), ("<i8", ("n",))], {})
    return Dataset(features=x, labels=y, name=header["name"])


# -- masks ------------------------------------------------------------------


def save_mask(path: str, mask: MaskArtifact, inputs: dict | None = None) -> list[str]:
    obj = mask.to_json()
    obj["inputs"] = inputs or {}
    return write_json(path, obj)


@_reader
def load_mask(path: str) -> MaskArtifact:
    return MaskArtifact.from_json(_exact_keys(path, _read_json(path), (
        "d", "k", "eligible_ranges", "support", "digest", "inputs")))


# -- fisher -----------------------------------------------------------------


def save_fisher(path: str, fisher: BlockFisher, inputs: dict | None = None) -> list[str]:
    """Write the Fisher as its inputs: the sample rows in subsample order,
    with the damping, the block cap and the source digest.  No block is
    formed or written.  The cap must be one of ``curvature.BLOCK_CAPS``
    and the damping within [``curvature.MIN_DAMPING``,
    ``curvature.MAX_DAMPING``]."""
    check_block_cap(fisher.block_cap)
    check_damping(fisher.lam)
    return _save(path, {
        "lambda": fisher.lam,
        "block_cap": fisher.block_cap,
        "source_digest": fisher.source_digest,
        "inputs": inputs or {},
    }, [fisher.rows.features, fisher.rows.labels])


@_reader
def load_fisher(path: str, theta_p: MlpModel, **inputs: str) -> BlockFisher:
    """The Fisher artifact at ``path``, taken at ``theta_p``: its inputs,
    checked.  The header must name one of ``curvature.BLOCK_CAPS`` and a
    damping within [``curvature.MIN_DAMPING``, ``curvature.MAX_DAMPING``],
    and the rows must fit the model.  The layout is ``column_layout(theta_p,
    cap)`` and n is the blob's row count: no header supplies either."""
    header, (features, labels) = _load(
        path, ("lambda", "block_cap", "source_digest"),
        [("<f8", ("n", "m")), ("<i8", ("n",))], inputs)
    check_damping(header["lambda"])
    check_block_cap(header["block_cap"])
    if not isinstance(header["source_digest"], str):
        raise StructuralError(f"{path}: source digest is not a string")
    return BlockFisher(theta_p, Dataset(features, labels), header["block_cap"],
                       header["lambda"], header["source_digest"])


# -- compensation -----------------------------------------------------------


def save_comp(path: str, comp: CompensationResult, inputs: dict | None = None) -> list[str]:
    return _save(path, {
        "method": comp.method,
        "inputs": inputs or {},
    }, [comp.delta_w.values, comp.multipliers])


@_reader
def load_comp(path: str, theta_p: MlpModel, **inputs: str) -> CompensationResult:
    """The compensation at ``path`` for ``theta_p``, whose layout its step
    takes: no header supplies it."""
    header, (dw, multipliers) = _load(
        path, ("method",), [("<f8", ("d",)), ("<f8", ("k",))], inputs)
    return CompensationResult(
        delta_w=theta_p.params.with_values(dw),
        multipliers=multipliers,
        method=header["method"],
    )


def load_certificate_inputs(theta_p: str, theta_u: str, comp: str, mask: str,
                            fisher: str) -> tuple:
    """theta_p, theta_u, the comp, the mask and the Fisher at theta_p, from
    these paths, each input that theta_u, the comp and the Fisher record
    checked."""
    given = input_digests(model=theta_p, mask=mask, fisher=fisher)
    model = load_model(theta_p)
    return (model, load_model(theta_u, **given),
            load_comp(comp, model, **given), load_mask(mask),
            load_fisher(fisher, model, model=given["model"]))


# -- zk layer ---------------------------------------------------------------


def save_public(path: str, public: PublicInputs, inputs: dict | None = None) -> list[str]:
    obj = public.to_json()
    obj["inputs"] = inputs or {}
    return write_json(path, obj)


@_reader
def load_public(path: str) -> PublicInputs:
    obj = _exact_keys(path, _read_json(path),
                      [f.name for f in fields(PublicInputs)] + ["inputs"])
    obj.pop("inputs", None)  # provenance, not statement
    return PublicInputs.from_json(obj)


def save_proof(path: str, proof: Proof) -> list[str]:
    return write_json(path, asdict(proof))


@_reader
def load_proof(path: str) -> Proof:
    proof = Proof(**_exact_keys(path, _read_json(path), ("tag",)))
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
