import hashlib
import importlib
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import veriforget
from veriforget import artifacts as art
from veriforget import zkp
from veriforget.certify import measured_forget_gap
from veriforget.cli import main
from veriforget.model import init_mlp
from veriforget.numkit import (
    BlockDiagMatrix,
    BlockLayout,
    NumericError,
    StructuralError,
    upper_diagonal,
)
from veriforget.pipeline import run_pipeline
from veriforget.zkp.circuit import FAMILIES

from conftest import (
    read_fisher,
    report_cpus,
    resave_fisher,
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


def test_certify_passes(workdir):
    w = workdir
    res = invoke("certify", "--theta-p", f"{w}/theta_p",
                 "--theta-u", f"{w}/theta_u", "--comp", f"{w}/comp",
                 "--mask", f"{w}/mask.mask", "--fisher", f"{w}/fisher",
                 "--json")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["verdict"] == "pass"


def test_certify_fails_on_tampered_model(workdir, tmp_path):
    w = workdir
    model = art.load_model(f"{w}/theta_u")
    vals = model.params.values.copy()
    vals[-1] += 1e-2
    art.save_model(str(tmp_path / "bad"), model.with_params(vals))
    res = invoke("certify", "--theta-p", f"{w}/theta_p",
                 "--theta-u", str(tmp_path / "bad"), "--comp", f"{w}/comp",
                 "--mask", f"{w}/mask.mask", "--fisher", f"{w}/fisher")
    assert res.exit_code == 1


def test_verify_passes(workdir):
    w = workdir
    res = invoke("verify", "--proof", f"{w}/proof.prf",
                 "--public", f"{w}/public.pub", "--json")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["verified"] is True
    assert obj["guarantee"] == (
        "mock: constraint semantics only, no soundness, no zero knowledge; "
        "the curvature is a free witness, bound to neither theta_p nor the "
        "data")


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
    determine is rejected, whatever hash the proof file names."""
    w = workdir
    public = art.load_public(f"{w}/public.pub")
    for foreign in ("00" * 32, "ef" * 32):
        bad = tmp_path / "forged.prf"
        bad.write_text(json.dumps({"circuit_hash": foreign,
                                   "tag": tag_over(foreign, public)}))
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
        with open(f"{w}/{src}") as fh:
            header = json.load(fh)
        edit(header)
        with open(f"{tmp}/{src}", "w") as fh:
            json.dump(header, fh)
        if os.path.exists(f"{w}/{src}.bin"):
            shutil.copy(f"{w}/{src}.bin", f"{tmp}/{src}.bin")
        return tuple(a.format(w=w, tmp=tmp) for a in args)

    case.__name__ = f"_{name}"
    return case


def _set(key, value):
    return lambda header: header.update({key: value})


def _set_layout(index, key, value):
    return lambda header: header["layout"][index].update({key: value})


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
    _with_nan(f"{w}/fisher", f"{tmp}/fisher", 0)
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
    _fisher_nan_entry: "error: block 'mlp.0.w' has non-finite entries",
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


def _certify_args(w, theta_u=None, comp=None, fisher=None):
    """certify on the staged run, with theta_u, comp and the Fisher read
    from the given directories instead of the run's."""
    return ("certify", "--theta-p", f"{w}/theta_p",
            "--theta-u", f"{theta_u or w}/theta_u", "--comp", f"{comp or w}/comp",
            "--mask", f"{w}/mask.mask", "--fisher", f"{fisher or w}/fisher")


def _certify_truncated_fisher(w, tmp):
    # theta_u and comp moved by 0.5 off the mask at the last coordinate,
    # which a Fisher of the first block alone does not cover; the comp
    # records no inputs, as the demo writes it
    comp, theta_u = art.load_comp(f"{w}/comp"), art.load_model(f"{w}/theta_u")
    i = theta_u.dim - 1
    dw, tu = comp.delta_w.values.copy(), theta_u.params.values.copy()
    dw[i] += 0.5
    tu[i] += 0.5
    art.save_comp(f"{tmp}/comp", replace(comp, delta_w=comp.delta_w.with_values(dw)))
    art.save_model(f"{tmp}/theta_u", theta_u.with_params(tu))
    fisher = read_fisher(f"{w}/fisher")
    _, size, label = fisher.layout.blocks[0]
    art.save_fisher(f"{tmp}/fisher", replace(fisher, fisher=BlockDiagMatrix(
        blocks=fisher.fisher.blocks[:1],
        layout=BlockLayout.from_sizes([(size, label)]))))
    honest = invoke(*_certify_args(w, theta_u=tmp, comp=tmp))
    assert honest.exit_code == 1, honest.output
    return _certify_args(w, theta_u=tmp, comp=tmp, fisher=tmp)


def _multipliers(command, extra):
    """A case that runs ``command`` on a comp with ``extra`` multipliers
    more than the mask's budget, or fewer when ``extra`` is negative."""
    def case(w, tmp):
        comp = art.load_comp(f"{w}/comp")
        lam = comp.multipliers
        lam = lam[:extra] if extra < 0 else np.append(lam, np.ones(extra))
        art.save_comp(f"{tmp}/comp", replace(comp, multipliers=lam),
                      inputs=art.comp_inputs(f"{w}/comp"))
        if command == "certify":
            return _certify_args(w, comp=tmp)
        return tuple(a.format(w=w, tmp=tmp) for a in _PROVE_TMP_COMP)

    case.__name__ = f"_{command}_multipliers_{extra:+d}"
    return case


def _square_fisher(command):
    """A case that runs ``command`` on the staged run's Fisher written with
    full square blocks, as an older format held them; certify gets a comp
    that records no inputs, so no digest check stands in the way."""
    def case(w, tmp):
        resave_fisher(f"{w}/fisher", f"{tmp}/fisher",
                      square_blocks(read_fisher(f"{w}/fisher").fisher))
        if command == "unlearn":
            return tuple(a.format(w=w, tmp=tmp) for a in _UNLEARN_TMP_FISHER)
        art.save_comp(f"{tmp}/comp", art.load_comp(f"{w}/comp"))
        return _certify_args(w, comp=tmp, fisher=tmp)

    case.__name__ = f"_{command}_square_fisher"
    return case


def _prove_args(w, tmp, f_w, f_c):
    return ("prove", "--theta-p", f"{w}/theta_p", "--theta-u", f"{w}/theta_u",
            "--comp", f"{w}/comp", "--mask", f"{w}/mask.mask",
            "--fisher", f"{w}/fisher", "--frac-bits", str(f_w), str(f_c),
            "--out-dir", tmp)


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
_GOLD = ("gold", "--init", "{w}/theta0_init", "--retain", "{w}/retain.dset",
         "--personal", "{w}/personal.dset", "--out", "{tmp}/g")


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
    art._save(f"{tmp}/model", {"layer_dims": [4], "activation": "tanh",
                               "inputs": {}}, [np.zeros(0)])
    return ("personalize", "--model", f"{tmp}/model",
            "--data", f"{w}/personal.dset", "--out", f"{tmp}/p")


def _frac_bits_negative(w, tmp):
    return _prove_args(w, tmp, -3, 32)


def _frac_bits_over_budget(w, tmp):
    return _prove_args(w, tmp, 30, 40)


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
            "--data", f"{w}/forget.dset")


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
        _prove_fisher_not_recorded, _fisher_nan_entry, _comp_nan_multiplier,
        _certify_truncated_fisher,
        _multipliers("certify", -1), _multipliers("certify", 1),
        _multipliers("prove", -1), _multipliers("prove", 1),
        _square_fisher("unlearn"), _square_fisher("certify"),
        _frac_bits_negative, _frac_bits_over_budget,
        _public_field("block_sizes", "missing", None),
        _public_field("block_sizes", "string", "4,8"),
        _public_field("block_sizes", "zero", [40, 0]),
        _public_field("block_sizes", "float", [40, 2.5]),
        _personalize_one_layer_dim,
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
        _public_field("f_w", "list", [1]),
        _public_field("f_c", "negative", -5),
        _public_field("mask_digest", "number", 7),
        _header("fisher_lambda_nan", "fisher", _set("lambda", float("nan")),
                *_UNLEARN_TMP_FISHER),
        _header("fisher_lambda_inf", "fisher", _set("lambda", float("inf")),
                *_UNLEARN_TMP_FISHER),
        _header("fisher_lambda_bool", "fisher", _set("lambda", True),
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
        _header("layout_size_float", "fisher", _set_layout(-1, "size", 3.0),
                *_UNLEARN_TMP_FISHER),
        _header("layout_offset_bool", "fisher", _set_layout(0, "offset", False),
                *_UNLEARN_TMP_FISHER),
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


def _negate_masked_diagonal(w, path):
    """-1 on the diagonal at the first masked coordinate, which makes the
    solve fail at that block, before the walk reaches the digest."""
    fisher = read_fisher(path)
    first = int(art.load_mask(f"{w}/mask.mask").support[0])
    at = 0
    for offset, size, _ in fisher.layout.blocks:
        if offset <= first < offset + size:
            at += 8 * int(upper_diagonal(size)[first - offset])
            break
        at += 8 * size * (size + 1) // 2
    with open(path + ".bin", "r+b") as fh:
        fh.seek(at)
        fh.write(np.array([-1.0], dtype="<f8").tobytes())


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
    _flip_last_block, _negate_masked_diagonal, _resize_blob(-8),
    _resize_blob(1), _drop_last_array, _old_format_header,
], ids=["flipped_last_block", "negated_masked_diagonal", "truncated",
        "trailing_byte", "one_array_fewer", "old_format_header"])
def test_bad_fisher_blob_exit_2(workdir, tmp_path, command, edit):
    """A Fisher edited in place with no digest renewed, or written in the
    older format, exits 2 with one error line, even where the solve would
    fail first; unlearn writes nothing."""
    w, tmp = workdir, str(tmp_path)
    for suffix in ("", ".bin"):
        shutil.copy(f"{w}/fisher{suffix}", f"{tmp}/fisher{suffix}")
    edit(w, f"{tmp}/fisher")
    if command == "unlearn":
        args = ("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
                "--fisher", f"{tmp}/fisher", "--out-dir", f"{tmp}/u")
    else:
        art.save_comp(f"{tmp}/comp", art.load_comp(f"{w}/comp"))
        args = _certify_args(w, comp=tmp, fisher=tmp)
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


# -- the per-block passes, in-process and in forked workers --------------------


@pytest.mark.parametrize("on_mask", [True, False], ids=["on-mask", "off-mask"])
def test_unlearn_non_spd_block_exit_3(workdir, tmp_path, workers, on_mask):
    """A damped block with a negative diagonal entry, on the mask or off
    it, is not positive definite: unlearn exits 3 with one error line
    naming the block and the coordinate, also from the worker that
    factored the block, and writes nothing."""
    w, tmp = workdir, str(tmp_path)
    fisher = read_fisher(f"{w}/fisher")
    support = art.load_mask(f"{w}/mask.mask").support
    first = int(support[0])
    block = next(b for b in fisher.layout.blocks if b[0] <= first < b[0] + b[1])
    offset, size, label = block
    coord = first if on_mask else int(np.setdiff1d(
        np.arange(offset, offset + size), support)[-1])
    blocks = [tri.copy() for tri in fisher.fisher.blocks]
    blocks[fisher.layout.blocks.index(block)][
        upper_diagonal(size)[coord - offset]] = -1.0
    resave_fisher(f"{w}/fisher", f"{tmp}/fisher", blocks)
    res = invoke("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
                 "--fisher", f"{tmp}/fisher", "--out-dir", f"{tmp}/u")
    assert res.exit_code == 3, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert f"block {label!r} is not SPD" in lines[0], res.stderr
    assert f"coordinate {coord} " in lines[0], res.stderr
    assert not os.path.exists(f"{tmp}/u")


def _nan_first_entry(w, path):
    _with_nan(path, path, 0)


@pytest.mark.parametrize("command", ["unlearn", "certify"])
@pytest.mark.parametrize("edit, message", [
    (_flip_last_block, "digest mismatch for array 3 of"),
    (_resize_blob(-8), "header declares"),
    (_nan_first_entry, "block 'mlp.0.w' has non-finite entries"),
], ids=["digest_mismatch", "short_blob", "non_finite_block"])
def test_bad_fisher_exit_2_with_workers(workdir, tmp_path, workers, command,
                                        edit, message):
    """A Fisher with a changed byte, one entry short, or a NaN under a
    renewed digest exits 2 with one error line that names the fault, the
    same when the workers that read the blocks check them; unlearn writes
    nothing."""
    w, tmp = workdir, str(tmp_path)
    for suffix in ("", ".bin"):
        shutil.copy(f"{w}/fisher{suffix}", f"{tmp}/fisher{suffix}")
    edit(w, f"{tmp}/fisher")
    if command == "unlearn":
        args = ("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
                "--fisher", f"{tmp}/fisher", "--out-dir", f"{tmp}/u")
    else:
        art.save_comp(f"{tmp}/comp", art.load_comp(f"{w}/comp"))
        args = _certify_args(w, comp=tmp, fisher=tmp)
    res = invoke(*args)
    assert res.exit_code == 2, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0], res.stderr
    assert not os.path.exists(f"{tmp}/u")


def _client(w, out):
    """fisher, unlearn and certify --json on the chain at ``w``, written
    to ``out``; returns certify's stdout."""
    def run(*args):
        res = invoke(*args)
        assert res.exit_code == 0, res.output
        return res.stdout

    run("fisher", "--model", f"{w}/theta_p", "--data", f"{w}/personal.dset",
        "--seed", "3", "--out", f"{out}/fisher")
    run("unlearn", "--model", f"{w}/theta_p", "--mask", f"{w}/mask.mask",
        "--fisher", f"{out}/fisher", "--out-dir", out)
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
    """fisher.bin, comp.bin, theta_u.bin and certify --json are the same
    bytes from forked workers as in-process."""
    w, out = parted, str(tmp_path)
    stdout = _client(w, out)
    assert art.load_fisher(f"{out}/fisher").layout.labels[:2] == [
        "mlp.0.w/part0", "mlp.0.w/part1"]
    for name in ("fisher.bin", "comp.bin", "theta_u.bin"):
        with open(f"{w}/serial/{name}", "rb") as a, open(f"{out}/{name}", "rb") as b:
            assert a.read() == b.read(), name
    with open(f"{w}/serial/certify.json") as fh:
        assert stdout == fh.read()
    assert json.loads(stdout)["verdict"] == "pass"


_KILL_A_WORKER = """
import os, signal, sys
from veriforget import numkit
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

# prove's leaf workers die on their first leaf, the Fisher's block workers
# on their first block
if sys.argv[1] == "prove":
    field.sponge = dying(field.sponge)
else:
    numkit.FORK_MIN_ENTRIES = 0
    numkit._check_block = dying(numkit._check_block)
main(sys.argv[1:])
"""


@pytest.mark.parametrize("command", ["prove", "unlearn"])
def test_killed_worker_exit_2(tmp_path, command):
    """A worker killed by a signal, in a fresh interpreter: the command
    exits 2, not 1 (a rejection), with one error line, and writes
    nothing."""
    d, out = tmp_path / "d", tmp_path / "out"
    res = invoke("demo", "--seed", "7", "--out-dir", str(d), "--skip-gold")
    assert res.exit_code == 0, res.output
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
    comp = art.load_comp(f"{w}/comp")
    art.save_comp(f"{tmp_path}/comp",
                  replace(comp, multipliers=comp.multipliers + 1e-3),
                  inputs=art.comp_inputs(f"{w}/comp"))
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
    res = invoke(*_prove_args(workdir, str(tmp_path), 22, 32), "--json")
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)["constraints"]
    families = {k: v for k, v in report.items()
                if k not in ("total", "circuit_hash")}
    assert set(families) == {f.name for f in FAMILIES}
    assert report["total"] == sum(families.values())
    public = art.load_public(str(tmp_path / "public.pub"))
    assert report["circuit_hash"] == zkp.circuit_hash(public)


def test_prove_records_every_input(workdir):
    w = workdir
    with open(f"{w}/public.pub") as fh:
        inputs = json.load(fh)["inputs"]
    assert inputs == {name: art.file_digest(f"{w}/{path}") for name, path in (
        ("theta_p", "theta_p"), ("theta_u", "theta_u"), ("comp", "comp"),
        ("mask", "mask.mask"), ("fisher", "fisher"))}


def test_frac_bits_inseparable_exit_3(workdir, tmp_path):
    res = invoke(*_prove_args(workdir, str(tmp_path), 22, 20))
    assert res.exit_code == 3, res.output
    assert "cannot be separated" in res.output


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


def test_prove_ignores_a_stored_residual(workdir, tmp_path):
    """t_int's solver slack is recomputed from the artifacts: a residual
    the comp header also carries, as older headers did, does not widen
    it."""
    w = workdir
    case = _header("comp_residual", "comp", _set("kkt_residual_inf", 1e-6),
                   *_PROVE_TMP_COMP)
    res = invoke(*case(w, str(tmp_path)))
    assert res.exit_code == 0, res.output
    assert (art.load_public(f"{tmp_path}/public.pub").t_int
            == art.load_public(f"{w}/public.pub").t_int)


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
