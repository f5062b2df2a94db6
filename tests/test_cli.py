import hashlib
import importlib
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import veriforget
from veriforget import artifacts as art
from veriforget import zkp
from veriforget.certify import check_kkt, measured_forget_gap
from veriforget.cli import main
from veriforget.curvature import MAX_DAMPING, MIN_DAMPING
from veriforget.masking import make_mask
from veriforget.model import init_mlp
from veriforget.numkit import (
    NumericError,
    StructuralError,
    touched,
)
from veriforget.obs import sample_space
from veriforget.pipeline import compensate, run_pipeline
from veriforget.zkp.circuit import FAMILIES

from conftest import (
    HeldFisher,
    report_cpus,
    resave,
    square_blocks,
    tag_over,
    tiny_config,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the staged pipeline once at tiny scale; reuse across tests."""
    root = str(tmp_path_factory.mktemp("cli"))
    w = os.path.join(root, "w")
    r = CliRunner()

    def run(*args):
        res = r.invoke(main, list(args), catch_exceptions=False)
        assert res.exit_code == 0, res.output
        return res

    run("train", "--out-dir", w, "--seed", "3", "--layers", "4,8,3",
        "--epochs", "10")
    run("personalize", "--model", f"{w}/theta0", "--data", f"{w}/personal.dset",
        "--out", f"{w}/theta_p", "--seed", "3", "--epochs", "4")
    run("mask", "--model", f"{w}/theta0", "--data", f"{w}/forget.dset",
        "--k", "12", "--seed", "3", "--out", f"{w}/mask.mask")
    run("fisher", "--model", f"{w}/theta_p", "--data", f"{w}/personal.dset",
        "--seed", "3", "--out", f"{w}/fisher")
    run("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
        "--fisher", f"{w}/fisher", "--out-dir", w)
    run("prove", "--theta-p", f"{w}/theta_p", "--theta-u", f"{w}/theta_u",
        "--comp", f"{w}/comp", "--mask", f"{w}/mask.mask",
        "--fisher", f"{w}/fisher", "--seed", "3", "--out-dir", w)
    return w


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def _staged_comp(w):
    """The staged run's compensation, read at its theta_p."""
    return art.load_comp(f"{w}/comp", art.load_model(f"{w}/theta_p"))


def test_certify_passes(workdir):
    w = workdir
    res = invoke("certify", "--theta-p", f"{w}/theta_p",
                 "--theta-u", f"{w}/theta_u", "--comp", f"{w}/comp",
                 "--mask", f"{w}/mask.mask", "--fisher", f"{w}/fisher",
                 "--json")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["verdict"] == "pass"


def test_certify_fails_on_tampered_model(workdir, tmp_path):
    """theta_u moved and saved with no inputs, as the staged-wide benchmark
    tampers it: it is checked against no digest and fails the certificate."""
    w = workdir
    model = art.load_model(f"{w}/theta_u")
    vals = model.params.values.copy()
    vals[-1] += 1e-2
    art.save_model(str(tmp_path / "bad"), model.with_params(vals))
    res = invoke("certify", "--theta-p", f"{w}/theta_p",
                 "--theta-u", str(tmp_path / "bad"), "--comp", f"{w}/comp",
                 "--mask", f"{w}/mask.mask", "--fisher", f"{w}/fisher")
    assert res.exit_code == 1


def test_certify_fails_on_free_curvature_forgery_off_the_touched_blocks(
        workdir, tmp_path):
    """Output weights moved by up to 0.5, a block the mask does not touch,
    with a Fisher block chosen so that its damped form I - u u'/|u|^2
    annihilates the step u: stationarity holds to rounding, and only the
    step's own pin to zero there rejects it.  Such a block can be given
    only in memory; certify forms the curvature from theta_p and the
    stored rows, and fails the same step."""
    w, tmp = workdir, str(tmp_path)
    theta_p = art.load_model(f"{w}/theta_p")
    fisher = art.load_fisher(f"{w}/fisher", theta_p)
    b = fisher.layout.labels.index("mlp.1.w")
    sl = list(fisher.layout.slices())[b][0]
    comp, theta_u = art.load_comp(f"{w}/comp", theta_p), art.load_model(
        f"{w}/theta_u")
    mask = art.load_mask(f"{w}/mask.mask")
    u = np.random.default_rng(7).uniform(-0.5, 0.5, sl.stop - sl.start)
    dw = comp.delta_w.values.copy()
    assert not dw[sl].any()
    dw[sl] = u
    tu = theta_u.params.values.copy()
    tu[sl] = theta_p.params.values[sl] + u
    forged_comp = replace(comp, delta_w=comp.delta_w.with_values(dw))
    blocks = [block.copy() for block in fisher.fisher.blocks]
    blocks[b] = (np.eye(u.size) - np.outer(u, u) / (u @ u)
                 - fisher.lam * np.eye(u.size))
    forged = HeldFisher(blocks, fisher.layout, fisher.lam)
    cert = check_kkt(theta_p.params, theta_u.params.with_values(tu),
                     forged_comp, forged, mask)
    assert not cert.verdict
    assert cert.inf_norms[2] <= cert.tolerance
    assert cert.inf_norms[1] == np.abs(u).max()
    art.save_comp(f"{tmp}/comp", forged_comp)
    art.save_model(f"{tmp}/theta_u", theta_u.with_params(tu))
    res = invoke(*_certify_args(w, theta_u=tmp, comp=tmp), "--json")
    assert res.exit_code == 1, res.output
    report = json.loads(res.output)
    assert report["stationarity_inf"] > report["tolerance"]
    assert report["feasibility_inf"] == np.abs(u).max()


def test_verify_passes(workdir):
    w = workdir
    res = invoke("verify", "--proof", f"{w}/proof.prf",
                 "--public", f"{w}/public.pub", "--json")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["verified"] is True
    assert obj["guarantee"] == (
        "mock: constraint semantics only, no soundness, no zero knowledge; "
        "the layer factors are a free witness, bound to neither theta_p nor "
        "the data, and the step of every block the mask does not touch is "
        "pinned at zero")


def test_verify_tampered_proof_exit_1(workdir, tmp_path):
    w = workdir
    with open(f"{w}/proof.prf") as fh:
        obj = json.load(fh)
    tag = obj["tag"]
    obj["tag"] = tag[:5] + format(int(tag[5], 16) ^ 1, "x") + tag[6:]
    bad = tmp_path / "bad.prf"
    bad.write_text(json.dumps(obj))
    res = invoke("verify", "--proof", str(bad), "--public", f"{w}/public.pub")
    assert res.exit_code == 1


def test_verify_foreign_circuit_hash_exit_1(workdir, tmp_path):
    """A tag computed over a circuit hash that public.pub does not
    determine is rejected."""
    w = workdir
    public = art.load_public(f"{w}/public.pub")
    for foreign in ("00" * 32, "ef" * 32):
        bad = tmp_path / "forged.prf"
        bad.write_text(json.dumps({"tag": tag_over(foreign, public)}))
        res = invoke("verify", "--proof", str(bad),
                     "--public", f"{w}/public.pub")
        assert res.exit_code == 1, res.output


def test_verify_tampered_public_exit_1(workdir, tmp_path):
    w = workdir
    with open(f"{w}/public.pub") as fh:
        obj = json.load(fh)
    obj["t_int"] = obj["t_int"] * 2
    bad = tmp_path / "bad.pub"
    bad.write_text(json.dumps(obj))
    res = invoke("verify", "--proof", f"{w}/proof.prf", "--public", str(bad))
    assert res.exit_code == 1


def test_mask_k_zero_unlearn_is_identity(workdir, tmp_path):
    w = workdir
    out = str(tmp_path)
    res = invoke("mask", "--model", f"{w}/theta0", "--data",
                 f"{w}/forget.dset", "--k", "0", "--seed", "3",
                 "--out", f"{out}/m0.mask")
    assert res.exit_code == 0
    res = invoke("unlearn", "--model", f"{w}/theta_p", "--mask",
                 f"{out}/m0.mask", "--fisher", f"{w}/fisher",
                 "--out-dir", out)
    assert res.exit_code == 0
    res = invoke("certify", "--theta-p", f"{w}/theta_p",
                 "--theta-u", f"{out}/theta_u", "--comp", f"{out}/comp",
                 "--mask", f"{out}/m0.mask", "--fisher", f"{w}/fisher")
    assert res.exit_code == 0
    a = art.load_model(f"{w}/theta_p")
    b = art.load_model(f"{out}/theta_u")
    assert np.array_equal(a.params.values, b.params.values)


def test_idempotent_artifacts(workdir, tmp_path):
    w = workdir
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    for out in (out1, out2):
        res = invoke("unlearn", "--model", f"{w}/theta_p", "--mask",
                     f"{w}/mask.mask", "--fisher", f"{w}/fisher",
                     "--out-dir", out)
        assert res.exit_code == 0
    assert art.out_digests(out1) == art.out_digests(out2)


def _truncated_public(w, tmp):
    with open(f"{w}/public.pub", "rb") as fh:
        data = fh.read()
    with open(f"{tmp}/public.pub", "wb") as fh:
        fh.write(data[: len(data) // 2])
    return ("verify", "--proof", f"{w}/proof.prf", "--public",
            f"{tmp}/public.pub")


def _public_field(field, name, value):
    """A case that verifies against public.pub with ``field`` set to
    ``value`` (to ``value(old)`` when it is callable), or removed when
    ``value`` is None."""
    def case(w, tmp):
        with open(f"{w}/public.pub") as fh:
            obj = json.load(fh)
        if value is None:
            del obj[field]
        else:
            obj[field] = value(obj[field]) if callable(value) else value
        with open(f"{tmp}/public.pub", "w") as fh:
            json.dump(obj, fh)
        return ("verify", "--proof", f"{w}/proof.prf", "--public",
                f"{tmp}/public.pub")

    case.__name__ = f"_public_{field}_{name}"
    return case


def _header(name, src, edit, *args):
    """A case that runs ``args`` after copying the artifact ``src`` of the
    staged run to ``{tmp}``, with ``edit`` applied to its JSON header;
    ``{w}`` and ``{tmp}`` in ``args`` are filled in."""
    def case(w, tmp):
        _copy_edited(w, tmp, src, edit)
        return tuple(a.format(w=w, tmp=tmp) for a in args)

    case.__name__ = f"_{name}"
    return case


def _copy_edited(w, tmp, src, edit):
    """Copy the artifact ``src`` of the staged run to ``tmp``, with ``edit``
    applied to its JSON header."""
    with open(f"{w}/{src}") as fh:
        header = json.load(fh)
    edit(header)
    with open(f"{tmp}/{src}", "w") as fh:
        json.dump(header, fh)
    if os.path.exists(f"{w}/{src}.bin"):
        shutil.copy(f"{w}/{src}.bin", f"{tmp}/{src}.bin")


def _set(key, value):
    return lambda header: header.update({key: value})


def _theta_u_without_blob(w, tmp):
    shutil.copy(f"{w}/theta_u", f"{tmp}/theta_u")
    return ("certify", "--theta-p", f"{w}/theta_p",
            "--theta-u", f"{tmp}/theta_u", "--comp", f"{w}/comp",
            "--mask", f"{w}/mask.mask", "--fisher", f"{w}/fisher")


def _with_nan(src, dst, index):
    """Copy the f64 array artifact at ``src`` to ``dst`` with entry ``index``
    of its blob set to NaN and each array's digest renewed, so that the
    load reaches the finiteness check."""
    values = np.fromfile(src + ".bin", dtype="<f8")
    values[index] = np.nan
    values.tofile(dst + ".bin")
    with open(src) as fh:
        header = json.load(fh)
    start = 0
    for spec in header["arrays"]:
        end = start + math.prod(spec["shape"])
        spec["sha256"] = hashlib.sha256(values[start:end]).hexdigest()
        start = end
    with open(dst, "w") as fh:
        json.dump(header, fh)


def _fisher_nan_entry(w, tmp):
    """The Fisher's first stored feature set to NaN, its digest renewed."""
    rows = art.load_fisher(f"{w}/fisher", art.load_model(f"{w}/theta_p")).recipe.rows
    features = rows.features.copy()
    features[0, 0] = np.nan
    resave(f"{w}/fisher", f"{tmp}/fisher", [features, rows.labels])
    return ("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
            "--fisher", f"{tmp}/fisher", "--out-dir", tmp)


def _comp_nan_multiplier(w, tmp):
    _with_nan(f"{w}/comp", f"{tmp}/comp", -1)  # the last multiplier
    return ("certify", "--theta-p", f"{w}/theta_p",
            "--theta-u", f"{w}/theta_u", "--comp", f"{tmp}/comp",
            "--mask", f"{w}/mask.mask", "--fisher", f"{w}/fisher")


# The one stderr line of cases that must get past the digest checks, a
# NaN whose array's digest was renewed, to the finiteness check.
_STDERR = {
    _fisher_nan_entry: "error: non-finite features",
    _comp_nan_multiplier: "error: non-finite multipliers",
}


def _certify_theta_p_not_recorded(w, tmp):
    return ("certify", "--theta-p", f"{w}/theta0",
            "--theta-u", f"{w}/theta_u", "--comp", f"{w}/comp",
            "--mask", f"{w}/mask.mask", "--fisher", f"{w}/fisher")


def _report_bounds_theta_p_not_recorded(w, tmp):
    return ("report-bounds", "--theta-p", f"{w}/theta0", "--comp", f"{w}/comp",
            "--mask", f"{w}/mask.mask", "--data", f"{w}/forget.dset",
            "--hessian", "fisher")


def _prove_fisher_not_recorded(w, tmp):
    res = invoke("fisher", "--model", f"{w}/theta_p", "--data",
                 f"{w}/personal.dset", "--seed", "4", "--out", f"{tmp}/fisher")
    assert res.exit_code == 0, res.output
    return ("prove", "--theta-p", f"{w}/theta_p", "--theta-u", f"{w}/theta_u",
            "--comp", f"{w}/comp", "--mask", f"{w}/mask.mask",
            "--fisher", f"{tmp}/fisher", "--out-dir", tmp)


def _certify_theta_u_records_another_fisher(w, tmp):
    # the comp records no inputs, so only theta_u's record names the Fisher
    res = invoke("fisher", "--model", f"{w}/theta_p", "--data",
                 f"{w}/personal.dset", "--seed", "4", "--out", f"{tmp}/fisher")
    assert res.exit_code == 0, res.output
    art.save_comp(f"{tmp}/comp", _staged_comp(w))
    return _certify_args(w, comp=tmp, fisher=tmp)


def _certify_args(w, theta_u=None, comp=None, fisher=None):
    """certify on the staged run, with theta_u, comp and the Fisher read
    from the given directories instead of the run's."""
    return ("certify", "--theta-p", f"{w}/theta_p",
            "--theta-u", f"{theta_u or w}/theta_u", "--comp", f"{comp or w}/comp",
            "--mask", f"{w}/mask.mask", "--fisher", f"{fisher or w}/fisher")


def _certify_without_inputs(w, tmp, fisher=None):
    """certify on the staged run's theta_u and comp, re-saved to ``tmp``
    with no inputs recorded, as the demo writes them, so that only the
    Fisher's own checks stand between the command and its certificate."""
    art.save_comp(f"{tmp}/comp", _staged_comp(w))
    art.save_model(f"{tmp}/theta_u", art.load_model(f"{w}/theta_u"))
    return _certify_args(w, theta_u=tmp, comp=tmp, fisher=fisher)


def _certify_truncated_fisher(w, tmp):
    # the stored blob cut to its first row's bytes under the header as it
    # was; the comp and theta_u record no inputs, as the demo writes them,
    # so only the Fisher's own check of the blob's length stands
    shutil.copy(f"{w}/fisher", f"{tmp}/fisher")
    width = 8 * (art.load_dataset(f"{w}/personal.dset").features.shape[1] + 1)
    with open(f"{w}/fisher.bin", "rb") as src, \
            open(f"{tmp}/fisher.bin", "wb") as dst:
        dst.write(src.read(width))
    return _certify_without_inputs(w, tmp, fisher=tmp)


def _fisher_block_cap(command, cap):
    """A case that runs ``command`` on the staged run's Fisher whose header
    names the block cap ``cap``: d = 67 is one block of every coordinate,
    the layout that makes every coordinate touched."""
    def case(w, tmp):
        with open(f"{w}/fisher") as fh:
            header = json.load(fh)
        header["block_cap"] = cap
        with open(f"{tmp}/fisher", "w") as fh:
            json.dump(header, fh)
        shutil.copy(f"{w}/fisher.bin", f"{tmp}/fisher.bin")
        if command == "unlearn":
            return tuple(a.format(w=w, tmp=tmp) for a in _UNLEARN_TMP_FISHER)
        args = _certify_without_inputs(w, tmp, fisher=tmp)
        if command == "prove":
            return ("prove", *args[1:], "--out-dir", tmp)
        return args

    case.__name__ = f"_{command}_fisher_block_cap_{cap}"
    return case


def _evaluate_labels_out_of_range(option):
    """A case that runs evaluate with the set of ``option`` relabelled to
    classes 5-7 of a 3-class model."""
    def case(w, tmp):
        data = art.load_dataset(f"{w}/holdout_forget.dset")
        art.save_dataset(f"{tmp}/bad.dset", replace(data, labels=data.labels + 5))
        sets = {"--forget": f"{w}/holdout_forget.dset",
                "--personal": f"{w}/holdout_personal.dset",
                option: f"{tmp}/bad.dset"}
        return ("evaluate", "--model", f"{w}/theta_u", "--gold", f"{w}/theta_p",
                *(a for item in sets.items() for a in item),
                "--members", f"{w}/forget.dset",
                "--nonmembers", f"{w}/holdout_forget.dset")

    case.__name__ = f"_evaluate_{option.lstrip('-')}_labels_out_of_range"
    return case


def _recorded_inputs(path):
    """The inputs the header of the artifact at ``path`` records."""
    with open(path) as fh:
        return json.load(fh)["inputs"]


def _multipliers(command, extra):
    """A case that runs ``command`` on a comp with ``extra`` multipliers
    more than the mask's budget, or fewer when ``extra`` is negative."""
    def case(w, tmp):
        comp = _staged_comp(w)
        lam = comp.multipliers
        lam = lam[:extra] if extra < 0 else np.append(lam, np.ones(extra))
        art.save_comp(f"{tmp}/comp", replace(comp, multipliers=lam),
                      inputs=_recorded_inputs(f"{w}/comp"))
        if command == "certify":
            return _certify_args(w, comp=tmp)
        return tuple(a.format(w=w, tmp=tmp) for a in _PROVE_TMP_COMP)

    case.__name__ = f"_{command}_multipliers_{extra:+d}"
    return case


def _square_fisher(command):
    """A case that runs ``command`` on the staged run's Fisher written as
    full square blocks, as an older format held the curvature, in place of
    its rows; certify gets a comp
    and theta_u that record no inputs, so no digest check stands in the
    way."""
    def case(w, tmp):
        fisher = art.load_fisher(f"{w}/fisher", art.load_model(f"{w}/theta_p"))
        resave(f"{w}/fisher", f"{tmp}/fisher", square_blocks(fisher.fisher))
        if command == "unlearn":
            return tuple(a.format(w=w, tmp=tmp) for a in _UNLEARN_TMP_FISHER)
        return _certify_without_inputs(w, tmp, fisher=tmp)

    case.__name__ = f"_{command}_square_fisher"
    return case


def _prove_args(w, tmp):
    return ("prove", "--theta-p", f"{w}/theta_p", "--theta-u", f"{w}/theta_u",
            "--comp", f"{w}/comp", "--mask", f"{w}/mask.mask",
            "--fisher", f"{w}/fisher", "--out-dir", tmp)


def _option(name, *args):
    """A case that runs ``args``, with ``{w}`` and ``{tmp}`` filled in."""
    def case(w, tmp):
        return tuple(a.format(w=w, tmp=tmp) for a in args)

    case.__name__ = f"_option_{name}"
    return case


_TRAIN = ("train", "--out-dir", "{tmp}")
_PERSONALIZE = ("personalize", "--model", "{w}/theta0",
                "--data", "{w}/personal.dset", "--out", "{tmp}/p")
_MASK = ("mask", "--model", "{w}/theta0", "--data", "{w}/forget.dset",
         "--out", "{tmp}/m.mask")
_CERTIFY = ("certify", "--theta-p", "{w}/theta_p", "--theta-u", "{w}/theta_u",
            "--comp", "{w}/comp", "--mask", "{w}/mask.mask",
            "--fisher", "{w}/fisher")
_FISHER = ("fisher", "--model", "{w}/theta_p", "--data", "{w}/personal.dset",
           "--out", "{tmp}/f")
_REPORT_BOUNDS = ("report-bounds", "--theta-p", "{w}/theta_p",
                  "--comp", "{w}/comp", "--mask", "{w}/mask.mask",
                  "--data", "{w}/forget.dset")
_UNLEARN_TMP_MASK = ("unlearn", "--model", "{w}/theta_p", "--mask",
                     "{tmp}/mask.mask", "--fisher", "{w}/fisher",
                     "--out-dir", "{tmp}")
_UNLEARN_TMP_FISHER = ("unlearn", "--model", "{w}/theta_p", "--mask",
                       "{w}/mask.mask", "--fisher", "{tmp}/fisher",
                       "--out-dir", "{tmp}")
_PROVE_TMP_COMP = ("prove", "--theta-p", "{w}/theta_p", "--theta-u",
                   "{w}/theta_u", "--comp", "{tmp}/comp", "--mask",
                   "{w}/mask.mask", "--fisher", "{w}/fisher", "--out-dir", "{tmp}")
_CERTIFY_TMP_COMP = ("certify", "--theta-p", "{w}/theta_p", "--theta-u",
                     "{w}/theta_u", "--comp", "{tmp}/comp", "--mask",
                     "{w}/mask.mask", "--fisher", "{w}/fisher")
_GOLD = ("gold", "--init", "{w}/theta0_init", "--retain", "{w}/retain.dset",
         "--personal", "{w}/personal.dset", "--out", "{tmp}/g")


def _eligible_ranges(name, ranges, bad, start, command):
    """A case that runs ``command``, unlearn or certify, on a copy of the
    staged mask whose eligible ranges are ``ranges``, which must be refused
    at ``bad`` (the ranges from ``start`` on, of the staged model's d = 67)
    before any is expanded."""
    def case(w, tmp):
        _copy_edited(w, tmp, "mask.mask", _set("eligible_ranges", ranges))
        if command == "unlearn":
            return tuple(a.format(w=w, tmp=tmp) for a in _UNLEARN_TMP_MASK)
        # theta_u and the comp record the copy, so that certify reads it
        digest = art.file_digest(f"{tmp}/mask.mask")
        for src in ("theta_u", "comp"):
            _copy_edited(w, tmp, src,
                         lambda h: h["inputs"].update({"mask": digest}))
        return ("certify", "--theta-p", f"{w}/theta_p", "--theta-u",
                f"{tmp}/theta_u", "--comp", f"{tmp}/comp",
                "--mask", f"{tmp}/mask.mask", "--fisher", f"{w}/fisher")

    case.__name__ = f"_mask_ranges_{name}_{command}"
    _STDERR[case] = (f"error: eligible range {bad} is not a non-empty range "
                     f"within [{start}, 67)")
    return case


# 10^13 coordinates would take 80 TB to expand
_BAD_RANGES = [
    _eligible_ranges(name, ranges, bad, start, command)
    for command in ("unlearn", "certify")
    for name, ranges, bad, start in (
        ("huge", [[0, 10**13]], [0, 10**13], 0),
        ("past_d", [[0, 68]], [0, 68], 0),
        ("negative", [[-5, 3]], [-5, 3], 0),
        ("empty", [[3, 3]], [3, 3], 0),
        ("overlapping", [[0, 10], [5, 20]], [5, 20], 10),
    )
]


def _misfit(name, dims, *args):
    """A case that runs ``args`` with ``{model}`` a fresh model of shape
    ``dims``, which the staged run's 4-feature, 3-class data do not fit."""
    def case(w, tmp):
        art.save_model(f"{tmp}/model", init_mlp(list(dims), 0))
        return tuple(a.format(w=w, tmp=tmp, model=f"{tmp}/model") for a in args)

    case.__name__ = f"_misfit_{name}"
    return case


def _on_file(name, *args):
    """A case that runs ``args`` with ``{file}`` an existing regular file,
    where a directory is wanted."""
    def case(w, tmp):
        open(f"{tmp}/file", "w").close()
        return tuple(a.format(w=w, tmp=tmp, file=f"{tmp}/file") for a in args)

    case.__name__ = f"_on_file_{name}"
    return case


def _personalize_one_layer_dim(w, tmp):
    art._save(f"{tmp}/model", {"layer_dims": [4], "inputs": {}},
              [np.zeros(0)])
    return ("personalize", "--model", f"{tmp}/model",
            "--data", f"{w}/personal.dset", "--out", f"{tmp}/p")


def _prove_frac_bits(w, tmp):
    # the precision is the circuit's: the option prove once took is a
    # usage error, not silently ignored
    return (*_prove_args(w, tmp), "--frac-bits", "22", "32")


def _exact_hessian_too_large(w, tmp):
    art.save_model(f"{tmp}/big", init_mlp([4, 400, 3], 0))  # d = 3,203
    for args in (
        ("mask", "--model", f"{tmp}/big", "--data", f"{w}/forget.dset",
         "--k", "12", "--out", f"{tmp}/big.mask"),
        ("fisher", "--model", f"{tmp}/big", "--data", f"{w}/personal.dset",
         "--out", f"{tmp}/big_fisher"),
        ("unlearn", "--model", f"{tmp}/big", "--mask", f"{tmp}/big.mask",
         "--fisher", f"{tmp}/big_fisher", "--out-dir", tmp),
    ):
        res = invoke(*args)
        assert res.exit_code == 0, res.output
    return ("report-bounds", "--theta-p", f"{tmp}/big", "--comp",
            f"{tmp}/comp", "--mask", f"{tmp}/big.mask",
            "--data", f"{w}/forget.dset", "--hessian", "exact")


def _mask_k_above_eligible(w, tmp):
    return ("mask", "--model", f"{w}/theta0", "--data", f"{w}/forget.dset",
            "--k", "100000", "--out", f"{tmp}/m.mask")


def _fisher_zero_damping(w, tmp):
    return ("fisher", "--model", f"{w}/theta_p", "--data",
            f"{w}/personal.dset", "--lambda", "0", "--out", f"{tmp}/f")


def _fisher_zero_samples(w, tmp):
    return ("fisher", "--model", f"{w}/theta_p", "--data",
            f"{w}/personal.dset", "--max-samples", "0", "--out", f"{tmp}/f")


@pytest.mark.parametrize(
    "case", [
        _truncated_public, _theta_u_without_blob,
        _exact_hessian_too_large, _mask_k_above_eligible,
        _fisher_zero_damping, _fisher_zero_samples,
        _certify_theta_p_not_recorded, _report_bounds_theta_p_not_recorded,
        _prove_fisher_not_recorded, _certify_theta_u_records_another_fisher,
        _fisher_nan_entry, _comp_nan_multiplier,
        _certify_truncated_fisher,
        _multipliers("certify", -1), _multipliers("certify", 1),
        _multipliers("prove", -1), _multipliers("prove", 1),
        _square_fisher("unlearn"), _square_fisher("certify"),
        _prove_frac_bits, *_BAD_RANGES,
        # the statement names the Fisher's block cap, one of BLOCK_CAPS as
        # in a Fisher artifact, and derives its blocks from it
        _public_field("block_cap", "missing", None),
        _public_field("block_cap", "8192", 8192),
        _public_field("block_cap", "float", 256.0),
        # block_sizes, the list public.pub held before the cap, is an
        # unknown key whatever it holds
        _public_field("block_sizes", "string", "4,8"),
        _public_field("block_sizes", "zero", [40, 0]),
        _public_field("block_sizes", "float", [40, 2.5]),
        _public_field("block_sizes", "readded", [32, 8, 24, 3]),
        _personalize_one_layer_dim,
        # a comp header holds its method and inputs, and no residual: t_int's
        # solver slack is computed from the artifacts
        _header("comp_residual", "comp", _set("kkt_residual_inf", 1e-6),
                *_PROVE_TMP_COMP),
        _header("comp_unknown", "comp", _set("zz", 1), *_CERTIFY_TMP_COMP),
        _header("theta_u_unknown", "theta_u", _set("zz", 1), "certify",
                "--theta-p", "{w}/theta_p", "--theta-u", "{tmp}/theta_u",
                "--comp", "{w}/comp", "--mask", "{w}/mask.mask",
                "--fisher", "{w}/fisher"),
        _option("train_one_class", *_TRAIN, "--layers", "4,8,1"),
        _option("train_lr_zero", *_TRAIN, "--lr", "0"),
        _option("train_batch_zero", *_TRAIN, "--batch", "0"),
        _option("train_epochs_negative", *_TRAIN, "--epochs", "-2"),
        _option("personalize_lr_negative", *_PERSONALIZE, "--lr", "-1"),
        _option("personalize_epochs_negative", *_PERSONALIZE, "--epochs", "-1"),
        _option("personalize_batch_zero", *_PERSONALIZE, "--batch", "0"),
        _option("mask_frac_negative", *_MASK, "--frac", "-1"),
        _option("mask_frac_above_one", *_MASK, "--frac", "1.5"),
        _option("mask_k_negative", *_MASK, "--k", "-1"),
        _option("certify_tau_negative", *_CERTIFY, "--tau", "-1"),
        _option("gold_lr_zero", *_GOLD, "--lr", "0"),
        _option("gold_p_lr_zero", *_GOLD, "--p-lr", "0"),
        _option("gold_epochs_negative", *_GOLD, "--epochs", "-1"),
        _option("gold_p_epochs_negative", *_GOLD, "--p-epochs", "-1"),
        _public_field("t_int", "string", "abc"),
        _public_field("t_int", "bool", True),
        # 2^(f_c + 4) at f_c = 32, the shift of the smallest multiplier tamper
        _public_field("t_int", "tamper_threshold", 1 << 36),
        # a statement key the circuit does not read, such as the fractional
        # bits that public.pub used to carry, is a bad artifact
        _public_field("f_w", "list", [1]),
        _public_field("f_c", "negative", -5),
        _public_field("zz", "unknown", 1),
        _public_field("mask_digest", "number", 7),
        # the Fisher's shape, damping and the encoder's shift, which the
        # statement names since the curvature is committed as layer factors
        _public_field("layer_dims", "missing", None),
        _public_field("layer_dims", "zero", [4, 0, 3]),
        _public_field("layer_dims", "float", [4.0, 8, 3]),
        # one block over the whole model, weights and biases of every
        # layer at once
        _public_field("block_sizes", "one_block", [67]),
        _public_field("sample_count", "zero", 0),
        _public_field("sample_count", "string", "160"),
        _public_field("damping", "zero", 0.0),
        _public_field("damping", "int", 1),
        # a damping beyond the multipliers' bound 64 even scaled as they
        # are by the largest shifts, 2^-(4 * 40 + 40)
        _public_field("damping", "above_bound", 2.0**207),
        _public_field("damping", "nan", float("nan")),
        _public_field("shift", "negative", -1),
        _public_field("shift", "bool", True),
        _public_field("shift", "above_max", 41),
        _public_field("factor_shift", "missing", None),
        _public_field("factor_shift", "negative", -1),
        _public_field("factor_shift", "float", 0.0),
        _public_field("factor_shift", "above_max", 41),
        # a proof holds its tag and no other key
        _header("proof_circuit_hash_added", "proof.prf",
                _set("circuit_hash", "00" * 32), "verify", "--proof",
                "{tmp}/proof.prf", "--public", "{w}/public.pub"),
        _header("fisher_lambda_nan", "fisher", _set("lambda", float("nan")),
                *_UNLEARN_TMP_FISHER),
        _header("fisher_lambda_inf", "fisher", _set("lambda", float("inf")),
                *_UNLEARN_TMP_FISHER),
        _header("fisher_lambda_bool", "fisher", _set("lambda", True),
                *_UNLEARN_TMP_FISHER),
        _header("fisher_lambda_above_max", "fisher", _set("lambda", 1e10),
                *_UNLEARN_TMP_FISHER),
        _header("fisher_lambda_below_min", "fisher", _set("lambda", 1e-24),
                *_UNLEARN_TMP_FISHER),
        _option("report_bounds_lambda_q_nan", *_REPORT_BOUNDS, "--lambda-q", "nan"),
        _option("report_bounds_lambda_q_inf", *_REPORT_BOUNDS, "--lambda-q", "inf"),
        _option("certify_tau_nan", *_CERTIFY, "--tau", "nan"),
        _option("certify_tau_inf", *_CERTIFY, "--tau", "inf"),
        _option("fisher_lambda_nan", *_FISHER, "--lambda", "nan"),
        _option("mask_frac_nan", *_MASK, "--frac", "nan"),
        _option("train_lr_nan", *_TRAIN, "--lr", "nan"),
        _option("gold_p_lr_nan", *_GOLD, "--p-lr", "nan"),
        _header("mask_d_float", "mask.mask", _set("d", 67.0), *_UNLEARN_TMP_MASK),
        _header("mask_k_float", "mask.mask", _set("k", 12.0), *_UNLEARN_TMP_MASK),
        _header("mask_support_float", "mask.mask",
                lambda h: h["support"].__setitem__(0, h["support"][0] + 0.7),
                *_UNLEARN_TMP_MASK),
        _header("personalize_layer_dims_float", "theta0",
                _set("layer_dims", [4.0, 8.0, 3.0]), "personalize", "--model",
                "{tmp}/theta0", "--data", "{w}/personal.dset",
                "--out", "{tmp}/p"),
        _header("fisher_layer_dims_float", "theta_p",
                _set("layer_dims", [4.0, 8.0, 3.0]), "fisher", "--model",
                "{tmp}/theta_p", "--data", "{w}/personal.dset",
                "--out", "{tmp}/f"),
        # the layout's one parameter, the block cap, as a float and a bool
        _header("layout_size_float", "fisher", _set("block_cap", 256.0),
                *_UNLEARN_TMP_FISHER),
        _header("layout_offset_bool", "fisher", _set("block_cap", False),
                *_UNLEARN_TMP_FISHER),
        _fisher_block_cap("unlearn", 67), _fisher_block_cap("certify", 67),
        _fisher_block_cap("prove", 67), _fisher_block_cap("certify", 8),
        _evaluate_labels_out_of_range("--forget"),
        _evaluate_labels_out_of_range("--personal"),
        _public_field("com_theta_p", "upper_case", str.upper),
        _public_field("com_theta_u", "0x_prefix", lambda r: "0x" + r),
        _public_field("com_c_p", "negative", lambda r: "-" + r),
        _public_field("com_c_p", "above_modulus",
                      lambda r: f"{int(r, 16) + zkp.MODULUS:064x}"),
        _option("misfit_train_width", *_TRAIN, "--data", "{w}/train.dset",
                "--layers", "5,8,3"),
        _option("misfit_train_classes", *_TRAIN, "--data", "{w}/train.dset",
                "--layers", "4,8,2"),
        _misfit("personalize", (5, 8, 3), "personalize", "--model", "{model}",
                "--data", "{w}/personal.dset", "--out", "{tmp}/p"),
        _misfit("gold", (5, 8, 3), "gold", "--init", "{model}",
                "--retain", "{w}/retain.dset", "--personal",
                "{w}/personal.dset", "--out", "{tmp}/g"),
        _misfit("fisher", (5, 8, 3), "fisher", "--model", "{model}",
                "--data", "{w}/personal.dset", "--out", "{tmp}/f"),
        _misfit("mask", (5, 8, 3), "mask", "--model", "{model}",
                "--data", "{w}/forget.dset", "--out", "{tmp}/m.mask"),
        _misfit("evaluate_classes", (4, 8, 2), "evaluate", "--model", "{model}",
                "--gold", "{model}", "--forget", "{w}/holdout_forget.dset",
                "--personal", "{w}/holdout_personal.dset",
                "--members", "{w}/forget.dset",
                "--nonmembers", "{w}/holdout_forget.dset"),
        _on_file("train", "train", "--out-dir", "{file}"),
        _on_file("unlearn", "unlearn", "--model", "{w}/theta_p",
                 "--mask", "{w}/mask.mask", "--fisher", "{w}/fisher",
                 "--out-dir", "{file}"),
        _on_file("prove", "prove", "--theta-p", "{w}/theta_p",
                 "--theta-u", "{w}/theta_u", "--comp", "{w}/comp",
                 "--mask", "{w}/mask.mask", "--fisher", "{w}/fisher",
                 "--out-dir", "{file}"),
        _on_file("demo", "demo", "--out-dir", "{file}"),
        _option("personalize_out_missing_dir", "personalize",
                "--model", "{w}/theta0", "--data", "{w}/personal.dset",
                "--out", "{tmp}/missing/p"),
    ]
)
def test_bad_artifact_or_option_exit_2(workdir, tmp_path, case):
    res = invoke(*case(workdir, str(tmp_path)))
    assert res.exit_code == 2, res.output
    if case in _STDERR:
        assert res.stderr.splitlines() == [_STDERR[case]], res.stderr


@pytest.mark.parametrize("command", ["certify", "prove"])
def test_mask_with_an_unknown_key_exit_2(workdir, tmp_path, command):
    """A mask.mask with a key a mask does not hold is a bad artifact, also
    when theta_u and the comp record its digest, so that only the key
    stops the command; the same copies without the key pass."""
    w, tmp = workdir, str(tmp_path)
    for key, code in (("zz", 2), (None, 0)):
        _copy_edited(w, tmp, "mask.mask",
                     _set(key, 1) if key else lambda header: None)
        digest = art.file_digest(f"{tmp}/mask.mask")
        for src in ("theta_u", "comp"):
            _copy_edited(w, tmp, src,
                         lambda header: header["inputs"].update(mask=digest))
        args = [command, "--theta-p", f"{w}/theta_p", "--theta-u",
                f"{tmp}/theta_u", "--comp", f"{tmp}/comp", "--mask",
                f"{tmp}/mask.mask", "--fisher", f"{w}/fisher"]
        res = invoke(*args, *(["--out-dir", f"{tmp}/out"]
                              if command == "prove" else []))
        assert res.exit_code == code, res.output
        if key:
            assert "unknown keys ['zz']" in res.stderr


# The input-artifact options and the output options of every command but
# demo, which reads no artifact.
_ARTIFACT_OPTIONS = {
    "train": (("--data",), ("--out-dir",)),
    "personalize": (("--model", "--data"), ("--out",)),
    "mask": (("--model", "--data"), ("--out",)),
    "fisher": (("--model", "--data"), ("--out",)),
    "unlearn": (("--model", "--mask", "--fisher"), ("--out-dir",)),
    "certify": (("--theta-p", "--theta-u", "--comp", "--mask", "--fisher"), ()),
    "report-bounds": (("--theta-p", "--comp", "--mask", "--data"), ()),
    "prove": (("--theta-p", "--theta-u", "--comp", "--mask", "--fisher"),
              ("--out-dir",)),
    "verify": (("--proof", "--public"), ()),
    "gold": (("--init", "--retain", "--personal"), ("--out",)),
    "evaluate": (("--model", "--gold", "--forget", "--personal", "--members",
                  "--nonmembers"), ()),
}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_missing_inputs_exit_2(tmp_path, command):
    """Every command takes --json, and one whose input artifacts are all
    missing exits 2 with one error line and creates no output."""
    assert set(_ARTIFACT_OPTIONS) == set(main.commands) - {"demo"}
    res = invoke(command, "--help")
    assert res.exit_code == 0
    assert any(line.split()[:1] == ["--json"] for line in res.output.splitlines())
    if command == "demo":
        pytest.skip("demo reads no artifact")
    inputs, outputs = _ARTIFACT_OPTIONS[command]
    args = [command]
    for opt in inputs:
        args += [opt, str(tmp_path / "missing")]
    for opt in outputs:
        args += [opt, str(tmp_path / "out" / opt.lstrip("-"))]
    res = invoke(*args)
    assert res.exit_code == 2, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert lines[0].startswith("error: cannot read artifact "), res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, code", [
    (("--layers", "4,0,3"), 2),
    (("--data", "{w}/train.dset", "--layers", "5,8,3"), 2),
    (("--layers", "4,8,1"), 2),
    (("--seed", "3", "--layers", "4,8,3", "--lr", "1e308"), 3),
], ids=["layer_width_zero", "data_misfit", "one_class_task", "diverged"])
def test_failed_train_writes_nothing(workdir, tmp_path, args, code):
    out = tmp_path / "t"
    res = invoke("train", "--out-dir", str(out),
                 *(a.format(w=workdir) for a in args))
    assert res.exit_code == code, res.output
    assert not out.exists()


def test_one_class_synthetic_task_names_its_cause(tmp_path):
    res = invoke("train", "--out-dir", str(tmp_path / "t"), "--layers", "4,8,1")
    assert res.exit_code == 2, res.output
    assert "last layer dim must be at least 2" in res.stderr, res.stderr


def test_usage_error_exit_2():
    res = invoke("unlearn", "--model", "nope")
    assert res.exit_code == 2


def test_numeric_error_exit_3(workdir):
    w = workdir
    res = invoke("report-bounds", "--theta-p", f"{w}/theta_p",
                 "--comp", f"{w}/comp", "--mask", f"{w}/mask.mask",
                 "--data", f"{w}/forget.dset", "--lambda-q", "-100")
    assert res.exit_code == 3


def _flip_last_block(w, path):
    with open(path + ".bin", "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        byte = fh.read(1)[0]
        fh.seek(-8, os.SEEK_END)
        fh.write(bytes([byte ^ 1]))


def _edit_first_row(w, path):
    """The first stored feature negated in place, its digest not renewed."""
    with open(path + ".bin", "r+b") as fh:
        value = -np.frombuffer(fh.read(8), dtype="<f8")
        fh.seek(0)
        fh.write(value.tobytes())


def _resize_blob(delta):
    def edit(w, path):
        with open(path + ".bin", "rb") as fh:
            data = fh.read()
        with open(path + ".bin", "wb") as fh:
            fh.write(data[:delta] if delta < 0 else data + b"\0" * delta)

    return edit


def _drop_last_array(w, path):
    with open(path) as fh:
        header = json.load(fh)
    header["arrays"].pop()
    with open(path, "w") as fh:
        json.dump(header, fh)


def _old_format_header(w, path):
    """One sha256 over the whole blob, as an older format wrote it, and
    none per array."""
    with open(path) as fh:
        header = json.load(fh)
    for spec in header["arrays"]:
        del spec["sha256"]
    header["sha256"] = art.file_digest(path + ".bin")
    with open(path, "w") as fh:
        json.dump(header, fh)


@pytest.mark.parametrize("command", ["unlearn", "certify"])
@pytest.mark.parametrize("edit", [
    _flip_last_block, _edit_first_row, _resize_blob(-8),
    _resize_blob(1), _drop_last_array, _old_format_header,
], ids=["flipped_last_block", "edited_first_row", "truncated",
        "trailing_byte", "one_array_fewer", "old_format_header"])
def test_bad_fisher_blob_exit_2(workdir, tmp_path, command, edit):
    """A Fisher edited in place with no digest renewed, or written in the
    older format, exits 2 with one error line; unlearn writes nothing."""
    w, tmp = workdir, str(tmp_path)
    for suffix in ("", ".bin"):
        shutil.copy(f"{w}/fisher{suffix}", f"{tmp}/fisher{suffix}")
    edit(w, f"{tmp}/fisher")
    if command == "unlearn":
        args = ("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
                "--fisher", f"{tmp}/fisher", "--out-dir", f"{tmp}/u")
    else:
        args = _certify_without_inputs(w, tmp, fisher=tmp)
    res = invoke(*args)
    assert res.exit_code == 2, res.output
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert not os.path.exists(f"{tmp}/u")


def test_failed_fisher_writes_nothing(workdir, tmp_path):
    """Data whose feature count does not fit the model fail at the first
    block, after the blob was opened: fisher exits 2 and removes it."""
    art.save_model(f"{tmp_path}/model", init_mlp([5, 8, 3], 0))
    res = invoke("fisher", "--model", f"{tmp_path}/model",
                 "--data", f"{workdir}/personal.dset",
                 "--out", f"{tmp_path}/fisher")
    assert res.exit_code == 2, res.output
    assert sorted(os.listdir(tmp_path)) == ["model", "model.bin"]


@pytest.mark.parametrize("command, blocked", [
    ("unlearn", "comp"), ("unlearn", "theta_u.bin"), ("prove", "proof.prf"),
    ("train", "theta0"), ("demo", "digests.json"),
])
def test_failed_write_leaves_no_file_of_the_run(workdir, tmp_path, command,
                                                blocked):
    """A command whose write fails, here at a path that is a directory,
    exits 2 and removes each file it wrote before, its blob's or those of
    an earlier artifact: the output directory holds only the directory."""
    w, out = workdir, str(tmp_path)
    os.mkdir(f"{out}/{blocked}")
    args = {
        "unlearn": ("unlearn", "--model", f"{w}/theta_p", "--mask",
                    f"{w}/mask.mask", "--fisher", f"{w}/fisher",
                    "--out-dir", out),
        "prove": _prove_args(w, out),
        "train": ("train", "--out-dir", out, "--seed", "3", "--layers",
                  "4,8,3", "--epochs", "1"),
        "demo": ("demo", "--skip-gold", "--out-dir", out),
    }[command]
    res = invoke(*args)
    assert res.exit_code == 2, res.output
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert os.listdir(out) == [blocked]
    assert os.listdir(f"{out}/{blocked}") == []


# -- the per-block passes, in-process and in forked workers --------------------


@pytest.mark.parametrize("on_mask", [True, False], ids=["on-mask", "off-mask"])
def test_unlearn_non_spd_block_exit_3(workdir, tmp_path, monkeypatch, workers,
                                      on_mask):
    """A damped block with a negative diagonal entry, on the mask or off
    it, is not positive definite: unlearn exits 3 with one error line
    naming the block and the coordinate, also from the worker that
    factored the block, and writes nothing.  A stored Fisher cannot hold
    such a block, since its blocks are formed from its rows, so the block
    enters in memory, through the loader, in a curvature held as its
    blocks (``conftest.HeldFisher``); the mask touches a second block, so
    that each of two workers factors one."""
    w, tmp = workdir, str(tmp_path)
    theta_p = art.load_model(f"{w}/theta_p")
    fisher = art.load_fisher(f"{w}/fisher", theta_p)
    d = theta_p.dim
    support = np.append(art.load_mask(f"{w}/mask.mask").support,
                        fisher.layout.block_slice("mlp.1.w").start)
    art.save_mask(f"{tmp}/mask.mask",
                  make_mask(d, support.size, np.arange(d), support))
    first = int(support[0])
    block = next(b for b in fisher.layout.blocks if b[0] <= first < b[0] + b[1])
    offset, size, label = block
    coord = first if on_mask else int(np.setdiff1d(
        np.arange(offset, offset + size), support)[-1])
    blocks = [block.copy() for block in fisher.fisher.blocks]
    j = coord - offset
    blocks[fisher.layout.blocks.index(block)][j, j] = -1.0
    tampered = HeldFisher(blocks, fisher.layout, fisher.lam)
    monkeypatch.setattr(art, "load_fisher", lambda *args, **inputs: tampered)
    res = invoke("unlearn", "--model", f"{w}/theta_p", "--mask",
                 f"{tmp}/mask.mask", "--fisher", f"{w}/fisher",
                 "--out-dir", f"{tmp}/u")
    assert res.exit_code == 3, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert f"block {label!r} is not SPD" in lines[0], res.stderr
    assert f"coordinate {coord} " in lines[0], res.stderr
    assert not os.path.exists(f"{tmp}/u")


def _nan_first_entry(w, path):
    _fisher_nan_entry(w, os.path.dirname(path))


@pytest.mark.parametrize("command", ["unlearn", "certify"])
@pytest.mark.parametrize("edit, message", [
    (_flip_last_block, "digest mismatch for array 1 of"),
    (_resize_blob(-8), "header declares"),
    (_nan_first_entry, "non-finite features"),
], ids=["digest_mismatch", "short_blob", "non_finite_block"])
def test_bad_fisher_exit_2_with_workers(workdir, tmp_path, workers, command,
                                        edit, message):
    """A Fisher with a changed byte, one entry short, or a NaN feature
    under a renewed digest exits 2 with one error line that names the
    fault, whether the blocks would be formed in-process or in workers:
    the rows are checked where they are read, before any block is formed;
    unlearn writes nothing."""
    w, tmp = workdir, str(tmp_path)
    for suffix in ("", ".bin"):
        shutil.copy(f"{w}/fisher{suffix}", f"{tmp}/fisher{suffix}")
    edit(w, f"{tmp}/fisher")
    if command == "unlearn":
        args = ("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
                "--fisher", f"{tmp}/fisher", "--out-dir", f"{tmp}/u")
    else:
        args = _certify_without_inputs(w, tmp, fisher=tmp)
    res = invoke(*args)
    assert res.exit_code == 2, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0], res.stderr
    assert not os.path.exists(f"{tmp}/u")


def _one_error_line(res, message):
    assert res.exit_code == 2, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0], res.stderr


def _comp_command(command, w, tmp):
    """``command`` on the staged run with the comp read from ``tmp``."""
    if command == "report-bounds":
        return ("report-bounds", "--theta-p", f"{w}/theta_p",
                "--comp", f"{tmp}/comp", "--mask", f"{w}/mask.mask",
                "--data", f"{w}/forget.dset")
    if command == "prove":
        return tuple(a.format(w=w, tmp=tmp) for a in _PROVE_TMP_COMP)
    return _certify_args(w, comp=tmp)


@pytest.mark.parametrize("command", ["certify", "prove", "report-bounds"])
@pytest.mark.parametrize("inputs", [["model", "mask", "fisher"], "model"],
                         ids=["list", "string"])
def test_comp_inputs_not_digests_by_name_exit_2(workdir, tmp_path, command,
                                                inputs):
    w, tmp = workdir, str(tmp_path)
    shutil.copy(f"{w}/comp.bin", f"{tmp}/comp.bin")
    with open(f"{w}/comp") as fh:
        header = json.load(fh)
    header["inputs"] = inputs
    with open(f"{tmp}/comp", "w") as fh:
        json.dump(header, fh)
    _one_error_line(invoke(*_comp_command(command, w, tmp)),
                    "inputs are not digests by name")
    assert not os.path.exists(f"{tmp}/public.pub")


def _resaved(src, dst, arrays):
    """The array artifact at ``src`` written to ``dst`` with ``arrays`` as
    its arrays, each as i64 when integral and f64 otherwise."""
    with open(src) as fh:
        header = json.load(fh)
    del header["arrays"]
    art._save(dst, header, arrays)


def _integer_multipliers(w, tmp):
    comp = _staged_comp(w)
    _resaved(f"{w}/comp", f"{tmp}/comp", [
        comp.delta_w.values, np.round(comp.multipliers).astype(np.int64)])
    return _certify_args(w, comp=tmp)


def _float_labels(w, tmp):
    # truncated back, the labels would be the run's own
    data = art.load_dataset(f"{w}/personal.dset")
    _resaved(f"{w}/personal.dset", f"{tmp}/personal.dset",
             [data.features, data.labels + 0.7])
    return ("fisher", "--model", f"{w}/theta_p",
            "--data", f"{tmp}/personal.dset", "--out", f"{tmp}/out")


def _integer_model(w, tmp):
    model = art.load_model(f"{w}/theta_p")
    _resaved(f"{w}/theta_p", f"{tmp}/theta_p",
             [np.round(model.params.values).astype(np.int64)])
    return ("fisher", "--model", f"{tmp}/theta_p",
            "--data", f"{w}/personal.dset", "--out", f"{tmp}/out")


@pytest.mark.parametrize("case", [
    _integer_multipliers, _float_labels, _integer_model,
], ids=["comp_i8_multipliers", "dataset_f8_labels", "model_i8_params"])
def test_array_of_another_dtype_exit_2(workdir, tmp_path, case):
    """An array stored as the other of f64 and i64 is a bad artifact: it is
    not cast to the dtype its kind holds."""
    tmp = str(tmp_path)
    _one_error_line(invoke(*case(workdir, tmp)), "is not a digested")
    assert not os.path.exists(f"{tmp}/out")


@pytest.mark.parametrize("command", ["unlearn", "certify", "prove"])
def test_fisher_of_another_model_exit_2(workdir, tmp_path, command):
    """A Fisher formed at theta0, whose header records theta0, used with
    theta_p: unlearn refuses it, and so do certify and prove on the comp
    and theta_u it gives, which record the Fisher and theta_p."""
    w, tmp = workdir, str(tmp_path)
    res = invoke("fisher", "--model", f"{w}/theta0", "--data",
                 f"{w}/personal.dset", "--seed", "3", "--out", f"{tmp}/fisher")
    assert res.exit_code == 0, res.output
    if command == "unlearn":
        args = ("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
                "--fisher", f"{tmp}/fisher", "--out-dir", f"{tmp}/u")
    else:
        comp, theta_u = compensate(
            art.load_model(f"{w}/theta_p"), art.load_mask(f"{w}/mask.mask"),
            art.load_fisher(f"{tmp}/fisher", art.load_model(f"{w}/theta0")))
        inputs = art.input_digests(model=f"{w}/theta_p",
                                   mask=f"{w}/mask.mask", fisher=f"{tmp}/fisher")
        art.save_comp(f"{tmp}/comp", comp, inputs=inputs)
        art.save_model(f"{tmp}/theta_u", theta_u, inputs=inputs)
        args = _certify_args(w, theta_u=tmp, comp=tmp, fisher=tmp)
        if command == "prove":
            args = ("prove", *args[1:], "--out-dir", f"{tmp}/u")
    _one_error_line(invoke(*args), "records another model than the one given")
    assert not os.path.exists(f"{tmp}/u")


def test_theta_u_without_inputs_is_checked_against_none(workdir, tmp_path):
    """A theta_u that records no inputs, as the demo writes it, loads and
    reaches the certificate, which it passes; moved, it fails there
    (``test_certify_fails_on_tampered_model``)."""
    w = workdir
    art.save_model(f"{tmp_path}/theta_u", art.load_model(f"{w}/theta_u"))
    res = invoke(*_certify_args(w, theta_u=str(tmp_path)), "--json")
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["verdict"] == "pass"


def _client(w, out):
    """fisher, unlearn, prove and certify --json on the chain at ``w``,
    written to ``out``; returns certify's stdout."""
    def run(*args):
        res = invoke(*args)
        assert res.exit_code == 0, res.output
        return res.stdout

    run("fisher", "--model", f"{w}/theta_p", "--data", f"{w}/personal.dset",
        "--seed", "3", "--out", f"{out}/fisher")
    run("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
        "--fisher", f"{out}/fisher", "--out-dir", out)
    run("prove", "--theta-p", f"{w}/theta_p", "--theta-u", f"{out}/theta_u",
        "--comp", f"{out}/comp", "--mask", f"{w}/mask.mask",
        "--fisher", f"{out}/fisher", "--seed", "3", "--out-dir", out)
    return run("certify", "--theta-p", f"{w}/theta_p",
               "--theta-u", f"{out}/theta_u", "--comp", f"{out}/comp",
               "--mask", f"{w}/mask.mask", "--fisher", f"{out}/fisher",
               "--json")


@pytest.fixture(scope="module")
def parted(tmp_path_factory):
    """A staged chain up to the mask on an 8-40-5 model, whose first weight
    block splits into parts of 256 and 64, and the client's outputs on it
    with every pass in-process, in ``<chain>/serial``."""
    w = str(tmp_path_factory.mktemp("parted"))
    for args in (
        ("train", "--out-dir", w, "--seed", "3", "--layers", "8,40,5",
         "--epochs", "5"),
        ("personalize", "--model", f"{w}/theta0", "--data",
         f"{w}/personal.dset", "--out", f"{w}/theta_p", "--seed", "3",
         "--epochs", "3"),
        ("mask", "--model", f"{w}/theta0", "--data", f"{w}/forget.dset",
         "--k", "60", "--seed", "3", "--out", f"{w}/mask.mask"),
    ):
        res = invoke(*args)
        assert res.exit_code == 0, res.output
    os.makedirs(f"{w}/serial")
    with pytest.MonkeyPatch.context() as mp:
        report_cpus(mp, 1)
        stdout = _client(w, f"{w}/serial")
    with open(f"{w}/serial/certify.json", "w") as fh:
        fh.write(stdout)
    return w


def test_client_bytes_do_not_depend_on_workers(parted, tmp_path, workers):
    """fisher.bin, comp.bin, theta_u.bin, public.pub, proof.prf and
    certify --json are the same bytes from forked workers as in-process."""
    w, out = parted, str(tmp_path)
    stdout = _client(w, out)
    fisher = art.load_fisher(f"{out}/fisher", art.load_model(f"{w}/theta_p"))
    assert fisher.layout.labels[:2] == ["mlp.0.w/part0", "mlp.0.w/part1"]
    for name in ("fisher.bin", "comp.bin", "theta_u.bin", "public.pub",
                 "proof.prf"):
        with open(f"{w}/serial/{name}", "rb") as a, open(f"{out}/{name}", "rb") as b:
            assert a.read() == b.read(), name
    with open(f"{w}/serial/certify.json") as fh:
        assert stdout == fh.read()
    assert json.loads(stdout)["verdict"] == "pass"


@pytest.mark.parametrize("data, max_samples, sample", [
    ("personal", 240, True), ("train", 1024, False)],
    ids=["sample-space", "coordinate-space"])
def test_unlearn_then_certify_on_each_side(parted, tmp_path, data, max_samples,
                                           sample):
    """On either side of obs.sample_space, unlearn and certify exit 0 and
    the verdict is pass: 240 personal rows put the 256-wide part of
    mlp.0.w in sample space, and the 750 training rows every touched
    block in coordinate space."""
    w, out = parted, str(tmp_path)
    res = invoke("fisher", "--model", f"{w}/theta_p", "--data",
                 f"{w}/{data}.dset", "--max-samples", str(max_samples),
                 "--seed", "3", "--out", f"{out}/fisher")
    assert res.exit_code == 0, res.output
    fisher = art.load_fisher(f"{out}/fisher", art.load_model(f"{w}/theta_p"))
    sizes = [s for _, s, _ in fisher.layout.blocks]
    hit = touched(sizes, art.load_mask(f"{w}/mask.mask").support)
    assert any(sample_space(fisher.sample_count, sizes[i]) for i in hit) == sample
    res = invoke("unlearn", "--model", f"{w}/theta_p", "--mask",
                 f"{w}/mask.mask", "--fisher", f"{out}/fisher", "--out-dir", out)
    assert res.exit_code == 0, res.output
    res = invoke("certify", "--theta-p", f"{w}/theta_p", "--theta-u",
                 f"{out}/theta_u", "--comp", f"{out}/comp", "--mask",
                 f"{w}/mask.mask", "--fisher", f"{out}/fisher", "--json")
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["verdict"] == "pass"


@pytest.mark.parametrize("cap, solved", [
    (512, {"sample_space": 1, "coordinate_space": 0}),
    (256, {"sample_space": 0, "coordinate_space": 2})])
def test_unlearn_reports_the_blocks_solved_in_each_space(parted, tmp_path, cap,
                                                          solved):
    """unlearn's report counts the touched blocks solved in each space and
    writes nothing more to --out-dir: on 360 training rows the mask touches
    only mlp.0.w, 320 wide, in sample space at cap 512 (360 <= 1.25 x 320)
    and as parts of 256 and 64 in coordinate space at cap 256."""
    w, out = parted, str(tmp_path / "out")
    res = invoke("fisher", "--model", f"{w}/theta_p", "--data",
                 f"{w}/train.dset", "--max-samples", "360", "--seed", "3",
                 "--block-cap", str(cap), "--out", f"{tmp_path}/fisher")
    assert res.exit_code == 0, res.output
    fisher = art.load_fisher(f"{tmp_path}/fisher", art.load_model(f"{w}/theta_p"))
    sizes = [s for _, s, _ in fisher.layout.blocks]
    hit = touched(sizes, art.load_mask(f"{w}/mask.mask").support)
    sample = sum(sample_space(fisher.sample_count, sizes[i]) for i in hit)
    assert solved == {"sample_space": sample,
                      "coordinate_space": len(hit) - sample}
    res = invoke("unlearn", "--model", f"{w}/theta_p", "--mask",
                 f"{w}/mask.mask", "--fisher", f"{tmp_path}/fisher",
                 "--out-dir", out, "--json")
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["blocks_solved"] == solved
    assert sorted(os.listdir(out)) == ["comp", "comp.bin", "theta_u",
                                       "theta_u.bin"]


_KILL_A_WORKER = """
import os, signal, sys
from veriforget import model, numkit
from veriforget.cli import main
from veriforget.zkp import field
os.sched_getaffinity = lambda pid: {0, 1}
numkit.FORK_MIN_ENTRIES = 0
parent = os.getpid()

def dying(real):
    def fn(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)
    return fn

# prove's leaf workers die on their first leaf, unlearn's block workers as
# they start the backward pass that readies their blocks
if sys.argv[1] == "prove":
    field.sponge = dying(field.sponge)
else:
    model._backprop = dying(model._backprop)
main(sys.argv[1:])
"""


@pytest.mark.parametrize("command", ["prove", "unlearn"])
def test_killed_worker_exit_2(tmp_path, command):
    """A worker killed by a signal, in a fresh interpreter: the command
    exits 2, not 1 (a rejection), with one error line, and writes
    nothing.  For unlearn, the demo's mask gains a coordinate of a second
    block, so that its touched blocks are formed in two workers."""
    d, out = tmp_path / "d", tmp_path / "out"
    res = invoke("demo", "--seed", "7", "--out-dir", str(d), "--skip-gold")
    assert res.exit_code == 0, res.output
    if command == "unlearn":
        mask = art.load_mask(f"{d}/mask.mask")
        support = np.append(mask.support, mask.model_dim - 1)
        art.save_mask(f"{d}/mask.mask", make_mask(
            mask.model_dim, support.size, np.arange(mask.model_dim), support))
    inputs = ["--mask", f"{d}/mask.mask", "--fisher", f"{d}/fisher",
              "--out-dir", str(out)]
    if command == "prove":
        args = ["prove", "--theta-p", f"{d}/theta_p", "--theta-u",
                f"{d}/theta_u", "--comp", f"{d}/comp", "--seed", "7", *inputs]
    else:
        args = ["unlearn", "--model", f"{d}/theta_p", *inputs]
    src = os.path.dirname(os.path.dirname(veriforget.__file__))
    proc = subprocess.run([sys.executable, "-c", _KILL_A_WORKER, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src,
                               "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "worker process died" in lines[0], proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    (*_TRAIN, "--seed", "3", "--layers", "4,8,3", "--lr", "1e308"),
    (*_PERSONALIZE, "--lr", "1e308"),
    (*_GOLD, "--p-lr", "1e308"),
], ids=["train", "personalize", "gold"])
def test_diverged_training_exit_3(workdir, tmp_path, args):
    # a non-finite batch gradient is divergence too, not a bad artifact
    with np.errstate(all="ignore"):
        res = invoke(*(a.format(w=workdir, tmp=tmp_path) for a in args))
    assert res.exit_code == 3, res.output
    assert "diverged at epoch" in res.output


def test_diverged_training_warns_nothing(tmp_path):
    """Divergence reads as one error line, with none of numpy's
    overflow warnings before it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = invoke("train", "--out-dir", str(tmp_path), "--seed", "3",
                     "--layers", "4,8,3", "--lr", "1e308")
    assert res.exit_code == 3, res.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_prove_perturbed_multipliers_exit_1(workdir, tmp_path):
    """A comp whose multipliers are moved, with their count and recorded
    inputs kept, is a genuine rejection: its KKT certificate fails."""
    w = workdir
    comp = _staged_comp(w)
    art.save_comp(f"{tmp_path}/comp",
                  replace(comp, multipliers=comp.multipliers + 1e-3),
                  inputs=_recorded_inputs(f"{w}/comp"))
    res = invoke(*(a.format(w=w, tmp=tmp_path) for a in _PROVE_TMP_COMP))
    assert res.exit_code == 1, res.output
    assert "witness unsatisfiable: KKT residuals" in res.output
    assert not os.path.exists(f"{tmp_path}/public.pub")


def test_every_error_type_has_an_exit_code():
    """The package defines exactly the exception types the commands map to
    an exit code, so no error of its own reads as a rejection by default."""
    defined = set()
    for info in pkgutil.walk_packages(veriforget.__path__, "veriforget."):
        module = importlib.import_module(info.name)
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == info.name}
    assert defined == {StructuralError, NumericError,
                       zkp.UnsatisfiableWitnessError}


def test_prove_json_reports_constraint_table(workdir, tmp_path):
    res = invoke(*_prove_args(workdir, str(tmp_path)), "--json")
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)["constraints"]
    families = {k: v for k, v in report.items()
                if k not in ("total", "circuit_hash")}
    assert set(families) == {f.name for f in FAMILIES}
    assert report["total"] == sum(families.values())
    public = art.load_public(str(tmp_path / "public.pub"))
    assert report["circuit_hash"] == zkp.circuit_hash(public)


def test_prove_and_verify_report_the_circuit_precision(workdir, tmp_path):
    """The fractional bits and limb widths are the circuit's: prove and
    verify print them, as lines and in --json, and public.pub does not
    carry them."""
    want = {"frac_bits": {"w": 22, "f": 40}, "limb_bits": {"w": 30, "f": 48}}
    out = str(tmp_path)
    verify = ("verify", "--proof", f"{out}/proof.prf",
              "--public", f"{out}/public.pub")
    for args in (_prove_args(workdir, out), verify):
        res = invoke(*args, "--json")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["precision"] == want
        res = invoke(*args)
        assert res.exit_code == 0, res.output
        assert f"precision: {want}" in res.output.splitlines()
    assert sorted(os.listdir(out)) == ["proof.prf", "public.pub"]
    with open(f"{out}/public.pub") as fh:
        assert not {"f_w", "f_c"} & set(json.load(fh))


def test_prove_at_a_large_damping(workdir, tmp_path):
    """A Fisher at damping 100, and at MAX_DAMPING, the largest that fisher
    accepts, certifies, proves and verifies: the statement scales the
    damping as it scales the multipliers."""
    w = workdir
    for lam, shift in ((100, 6), (MAX_DAMPING, 10)):
        out = f"{tmp_path}/{lam}"
        os.mkdir(out)
        for args in (
            ("fisher", "--model", f"{w}/theta_p", "--data",
             f"{w}/personal.dset", "--lambda", str(lam), "--seed", "3",
             "--out", f"{out}/fisher"),
            ("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
             "--fisher", f"{out}/fisher", "--out-dir", out),
            _certify_args(w, theta_u=out, comp=out, fisher=out),
            ("prove", *_certify_args(w, theta_u=out, comp=out, fisher=out)[1:],
             "--out-dir", out),
            ("verify", "--proof", f"{out}/proof.prf",
             "--public", f"{out}/public.pub"),
        ):
            res = invoke(*args)
            assert res.exit_code == 0, res.output
        public = art.load_public(f"{out}/public.pub")
        assert public.damping == lam and public.shift >= shift


def test_fisher_refuses_a_damping_above_the_ceiling(workdir, tmp_path):
    """A damping past MAX_DAMPING, where certify's absolute tolerance
    would reject an honest step, exits 2 with one error line and writes
    no fisher."""
    res = invoke("fisher", "--model", f"{workdir}/theta_p", "--data",
                 f"{workdir}/personal.dset", "--lambda", str(MAX_DAMPING + 1),
                 "--out", f"{tmp_path}/fisher")
    assert res.exit_code == 2, res.output
    assert res.stderr.splitlines() == [
        f"error: damping {MAX_DAMPING + 1.0} is not in [MIN_DAMPING = "
        f"{MIN_DAMPING}, MAX_DAMPING = {MAX_DAMPING}]"]
    assert os.listdir(tmp_path) == []


def test_fisher_refuses_a_damping_below_the_floor(workdir, tmp_path):
    """A damping below MIN_DAMPING, at which an honest step fails to
    certify, exits 2 with one error line and writes no fisher."""
    res = invoke("fisher", "--model", f"{workdir}/theta_p", "--data",
                 f"{workdir}/personal.dset", "--lambda", "1e-24",
                 "--out", f"{tmp_path}/fisher")
    assert res.exit_code == 2, res.output
    assert res.stderr.splitlines() == [
        f"error: damping 1e-24 is not in [MIN_DAMPING = {MIN_DAMPING}, "
        f"MAX_DAMPING = {MAX_DAMPING}]"]
    assert os.listdir(tmp_path) == []


def test_prove_records_every_input(workdir):
    w = workdir
    with open(f"{w}/public.pub") as fh:
        inputs = json.load(fh)["inputs"]
    assert inputs == {name: art.file_digest(f"{w}/{path}") for name, path in (
        ("theta_p", "theta_p"), ("theta_u", "theta_u"), ("comp", "comp"),
        ("mask", "mask.mask"), ("fisher", "fisher"))}


def test_report_bounds_fisher_mode(workdir):
    """``measured`` is the forget-loss change of the theta_u that unlearn
    wrote for the comp, bit for bit."""
    w = workdir
    res = invoke(*(a.format(w=w) for a in _REPORT_BOUNDS), "--hessian",
                 "fisher", "--json")
    assert res.exit_code == 0, res.output
    obj = json.loads(res.output)
    assert obj["worst_case"] <= obj["f_obs"] <= obj["upper_bound"] + 1e-10
    assert obj["measured"] == measured_forget_gap(
        art.load_model(f"{w}/theta_p"), art.load_model(f"{w}/theta_u"),
        art.load_dataset(f"{w}/forget.dset"), obj["predicted_delta_lf"])


def test_report_bounds_exact_mode_names_the_fisher_mode(tmp_path):
    """On demo --seed 7's own artifacts the exact mode's Q is indefinite:
    it exits 3 with one stderr line, which names --hessian fisher, the
    mode that passes on the same artifacts."""
    out = str(tmp_path)
    res = invoke("demo", "--seed", "7", "--skip-gold", "--out-dir", out)
    assert res.exit_code == 0, res.output
    args = ("report-bounds", "--theta-p", f"{out}/theta_p", "--comp",
            f"{out}/comp", "--mask", f"{out}/mask.mask",
            "--data", f"{out}/forget.dset")
    res = invoke(*args, "--hessian", "exact")
    assert res.exit_code == 3, res.output
    assert len(res.stderr.splitlines()) == 1
    assert "--hessian fisher" in res.stderr
    assert invoke(*args).exit_code == 0  # the default mode is fisher


def test_verify_lists_no_block_of_a_statement(workdir, tmp_path):
    """A public.pub of layer dims 2^40 by 2^40, which would split into 2^72
    blocks at its cap, is rejected by its tag alone, within a second:
    verify derives the circuit hash without listing a block."""
    w = workdir
    with open(f"{w}/public.pub") as fh:
        obj = json.load(fh)
    obj["layer_dims"] = [2**40, 2**40]
    with open(f"{tmp_path}/public.pub", "w") as fh:
        json.dump(obj, fh)
    start = time.perf_counter()
    res = invoke("verify", "--proof", f"{w}/proof.prf", "--public",
                 f"{tmp_path}/public.pub", "--json")
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 1, res.output
    assert json.loads(res.output)["verified"] is False


def test_gold_and_evaluate(workdir, tmp_path):
    w = workdir
    gold = str(tmp_path / "gold")
    res = invoke("gold", "--init", f"{w}/theta0_init", "--retain",
                 f"{w}/retain.dset", "--personal", f"{w}/personal.dset",
                 "--out", gold, "--seed", "3", "--epochs", "10",
                 "--p-epochs", "4")
    assert res.exit_code == 0, res.output
    res = invoke("evaluate", "--model", f"{w}/theta_u", "--gold", gold,
                 "--forget", f"{w}/holdout_forget.dset",
                 "--personal", f"{w}/holdout_personal.dset",
                 "--members", f"{w}/forget.dset",
                 "--nonmembers", f"{w}/holdout_forget.dset", "--json")
    assert res.exit_code == 0, res.output
    obj = json.loads(res.output)
    assert 0 <= obj["mia_auc"] <= 1


def test_dataset_corruption_detected(workdir, tmp_path):
    w = workdir
    d = str(tmp_path / "p.dset")
    shutil.copy(f"{w}/personal.dset", d)
    shutil.copy(f"{w}/personal.dset.bin", d + ".bin")
    with open(d + ".bin", "r+b") as fh:
        fh.seek(0)
        fh.write(b"\x11")
    res = invoke("fisher", "--model", f"{w}/theta_p", "--data", d,
                 "--out", str(tmp_path / "f"))
    assert res.exit_code == 2


def test_demo_digests_list_the_files_it_wrote(tmp_path):
    """digests.json holds the digest of every file the run wrote, and of
    nothing else: not itself, and not a file an earlier run left."""
    out = tmp_path / "d"
    out.mkdir()
    (out / "gold").write_text("left by a run with the gold standard")
    res = invoke("demo", "--seed", "7", "--out-dir", str(out), "--skip-gold")
    assert res.exit_code == 0, res.output
    digests = json.loads((out / "digests.json").read_text())
    assert set(digests) == set(os.listdir(out)) - {"digests.json", "gold"}
    assert digests == {rel: art.file_digest(str(out / rel)) for rel in digests}


def test_staged_chain_matches_run_pipeline(tmp_path):
    """The staged commands a client runs and run_pipeline produce the same
    theta_u, mask and public inputs at tiny_config's sizes."""
    seed, cfg = 5, tiny_config()
    ref = run_pipeline(seed, cfg)
    w = str(tmp_path)

    def run(*args):
        res = CliRunner().invoke(main, [str(a) for a in args],
                                 catch_exceptions=False)
        assert res.exit_code == 0, res.output

    run("train", "--out-dir", w, "--seed", seed,
        "--layers", ",".join(map(str, cfg.layer_dims)),
        "--lr", cfg.pretrain.learning_rate, "--epochs", cfg.pretrain.epochs,
        "--batch", cfg.pretrain.batch_size)
    run("personalize", "--model", f"{w}/theta0", "--data", f"{w}/personal.dset",
        "--out", f"{w}/theta_p", "--seed", seed,
        "--lr", cfg.personalize.learning_rate,
        "--epochs", cfg.personalize.epochs,
        "--batch", cfg.personalize.batch_size)
    run("mask", "--model", f"{w}/theta0", "--data", f"{w}/forget.dset",
        "--k", cfg.mask_k, "--seed", seed, "--out", f"{w}/mask.mask")
    run("fisher", "--model", f"{w}/theta_p", "--data", f"{w}/personal.dset",
        "--seed", seed, "--out", f"{w}/fisher")
    run("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
        "--fisher", f"{w}/fisher", "--out-dir", w)
    run("prove", "--theta-p", f"{w}/theta_p", "--theta-u", f"{w}/theta_u",
        "--comp", f"{w}/comp", "--mask", f"{w}/mask.mask",
        "--fisher", f"{w}/fisher", "--seed", seed, "--out-dir", w)

    theta_u = art.load_model(f"{w}/theta_u")
    assert np.array_equal(theta_u.params.values, ref.theta_u.params.values)
    assert art.load_mask(f"{w}/mask.mask").digest == ref.mask.digest
    assert art.load_public(f"{w}/public.pub") == ref.circuit.public


def test_no_command_imports_scipy():
    # scipy takes longer to import than most commands take to run; only
    # the OBS solve loads it, when it first runs.  A fresh interpreter, so
    # that no other test has imported it.
    script = ("import sys, veriforget.cli, veriforget.pipeline, "
              "veriforget.artifacts; print(sorted({m.split('.')[0] "
              "for m in sys.modules} & {'scipy'}))")
    src = os.path.dirname(os.path.dirname(veriforget.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_certify_loads_no_scipy(tmp_path):
    """certify on a demo directory, in a fresh interpreter, loads no scipy
    module at any point of its run."""
    out = tmp_path / "d"
    res = invoke("demo", "--seed", "7", "--out-dir", str(out), "--skip-gold")
    assert res.exit_code == 0, res.output
    args = ["certify", "--json"] + [
        a for name in ("theta-p", "theta-u", "comp", "fisher")
        for a in (f"--{name}", str(out / name.replace("-", "_")))
    ] + ["--mask", str(out / "mask.mask")]
    script = ("import sys\nfrom veriforget.cli import main\n"
              "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n"
              "    code = exc.code\n"
              "print(code, sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy'), file=sys.stderr)")
    src = os.path.dirname(os.path.dirname(veriforget.__file__))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert json.loads(proc.stdout)["verdict"] == "pass", proc.stderr
    assert proc.stderr.split() == ["0", "[]"], proc.stderr


def test_float_certificate_loads_no_zk_package():
    """The float certificate finds the touched blocks through numkit, so
    loading it, in a fresh interpreter, loads no module of veriforget.zkp,
    the sponge schedule included."""
    script = ("import sys, veriforget.certify; print(sorted(m for m in "
              "sys.modules if m.startswith('veriforget.zkp')))")
    src = os.path.dirname(os.path.dirname(veriforget.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
