"""Command line interface.

Every command is a ``ReportCommand``: its callback returns its report
(with whether the verdict passed, if it gives one) and prints nothing,
and the command class adds ``--json``, prints the report and sets the
exit code.  A command reads and checks all its inputs, and computes its
results, before it creates any output, and when a write fails it removes
the files it already wrote, so one that fails leaves no file of its run.
A command digests the files it was given once, and the loaders check
each input a derived artifact records against those digests.
No command writes or reads a curvature block: ``fisher`` writes the
estimate's recipe (its seeded sample rows, a damping within
[``curvature.MIN_DAMPING``, ``curvature.MAX_DAMPING``] and a block cap of
``curvature.BLOCK_CAPS``), and a command that reads it forms only what
it needs at theta_p.
``unlearn`` solves the blocks the mask touches, each from the block,
formed as its square, or, when the rows are few enough, from its n x n
Gram in sample space (``obs``), one block per process at a time; on
``numkit.FORK_MIN_ENTRIES`` entries or more, with
``OPENBLAS_NUM_THREADS=1``, in forked workers, one per CPU, each of
which runs its own backward pass; the outputs are the same bytes
either way.  ``certify`` and ``prove`` form no block: ``certify``
multiplies the step by the curvature from the layer factors, and
``prove`` commits the factors themselves.  ``prove`` and ``demo`` hash
the Merkle leaves of every commitment in one pass of forked workers,
while the mock prover checks the other constraint families, and
``demo`` trains the gold standard in a worker beside the client, when
BLAS runs on one thread.

Exit codes: 0 success (or verdict passed), 1 verdict failed or witness
unsatisfiable, 2 usage error, bad or missing artifact, unwritable
output, a damping outside [``curvature.MIN_DAMPING``,
``curvature.MAX_DAMPING``] or a worker process that died
(``StructuralError``, ``OSError``, ``BrokenProcessPool``), 3 numeric
failure (``NumericError``).
"""

from __future__ import annotations

import math
import os
from concurrent.futures.process import BrokenProcessPool

import click

from . import artifacts as art
from . import zkp
from .certify import (
    DEFAULT_LAM_Q,
    DEFAULT_TAU_REAL,
    check_kkt,
    forget_gain_report,
    measured_forget_gap,
)
from .curvature import (
    BLOCK_CAPS,
    DEFAULT_BLOCK_CAP,
    DEFAULT_DAMPING,
    DEFAULT_MAX_SAMPLES,
    empirical_fisher_blockwise,
)
from .evals import evaluate, gold_standard
from .masking import DEFAULT_BUDGET_FRACTION
from .model import (
    TrainConfig,
    init_mlp,
    personalize as personalize_model,
    train_sgd,
)
from .numkit import NumericError, StructuralError, canonical_json
from .obs import apply_unlearn, solve_spaces
from .pipeline import (
    DEFAULT_LAYERS,
    DEFAULT_PERSONALIZE,
    DEFAULT_PRETRAIN,
    compensate,
    demo_config,
    run_pipeline,
    run_zk_layer,
    select_mask,
    synthetic_task,
)


class FiniteFloat(click.FloatRange):
    """A FloatRange that also rejects NaN and +-inf."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number", param, ctx)
        return rv


class ReportCommand(click.Command):
    """A command whose callback returns its report, or ``(report, passed)``
    when it gives a verdict.  It takes ``--json``, prints the report as
    canonical JSON or as ``key: value`` lines, and exits 1 on a failed
    verdict; each error type the package raises is one stderr line and
    its exit code."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(["--json", "as_json"], is_flag=True))

    def invoke(self, ctx):
        as_json = ctx.params.pop("as_json")
        try:
            out = super().invoke(ctx)
        except NumericError as exc:
            click.echo(f"numeric error: {exc}", err=True)
            ctx.exit(3)
        except (StructuralError, OSError, BrokenProcessPool) as exc:
            # a worker that died says nothing of the inputs: no rejection
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)
        except zkp.UnsatisfiableWitnessError as exc:
            click.echo(f"witness unsatisfiable: {exc}", err=True)
            ctx.exit(1)
        report, passed = out if isinstance(out, tuple) else (out, True)
        if as_json:
            click.echo(canonical_json(report).decode())
        else:
            for key, val in report.items():
                click.echo(f"{key}: {val}")
        if not passed:
            ctx.exit(1)


class ReportGroup(click.Group):
    command_class = ReportCommand


def _save_splits(out_dir: str, task, written: list) -> None:
    """The six dataset splits of a synthetic task, as ``<split>.dset``,
    each path added to ``written`` as it is written."""
    for name in (
        "train", "forget", "retain", "personal",
        "holdout_forget", "holdout_personal",
    ):
        written += art.save_dataset(os.path.join(out_dir, name + ".dset"),
                                    getattr(task, name))


def _parse_layers(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise click.BadParameter(f"bad layer list {text!r}")
    if len(dims) < 2:
        raise click.BadParameter("need at least input and output dims")
    return dims


@click.group(cls=ReportGroup)
def main():
    """Verifiable approximate unlearning for personalized models."""


# -- training ---------------------------------------------------------------


@main.command()
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True)
@click.option("--layers", default=",".join(map(str, DEFAULT_LAYERS)),
              show_default=True)
@click.option("--data", default=None,
              help="Train on this .dset instead of generating a synthetic task.")
@click.option("--lr", default=DEFAULT_PRETRAIN.learning_rate, show_default=True,
              type=FiniteFloat(min=0, min_open=True))
@click.option("--epochs", default=DEFAULT_PRETRAIN.epochs, show_default=True,
              type=click.IntRange(min=0))
@click.option("--batch", default=DEFAULT_PRETRAIN.batch_size, show_default=True,
              type=click.IntRange(min=1))
def train(out_dir, seed, layers, data, lr, epochs, batch):
    """Pretrain a tanh MLP; without --data, also writes the synthetic
    class-unlearning splits (train/forget/retain/personal + holdouts)."""
    init = init_mlp(list(_parse_layers(layers)), seed)
    if data is None:
        task = synthetic_task(seed, init.layer_dims)
        train_set = task.train
    else:
        train_set = art.load_dataset(data)
    cfg = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=batch, seed=seed)
    model = train_sgd(init, train_set, cfg)  # checks that the data fit
    os.makedirs(out_dir, exist_ok=True)
    with art.removed_on_failure() as written:
        if data is None:
            _save_splits(out_dir, task, written)
            data = os.path.join(out_dir, "train.dset")
        written += art.save_model(os.path.join(out_dir, "theta0_init"), init)
        written += art.save_model(os.path.join(out_dir, "theta0"), model,
                                  inputs=art.input_digests(data=data))
    return {"model": os.path.join(out_dir, "theta0"), "seed": seed}


@main.command("personalize")
@click.option("--model", "model_path", required=True)
@click.option("--data", required=True)
@click.option("--out", required=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--lr", default=DEFAULT_PERSONALIZE.learning_rate, show_default=True,
              type=FiniteFloat(min=0, min_open=True))
@click.option("--epochs", default=DEFAULT_PERSONALIZE.epochs, show_default=True,
              type=click.IntRange(min=0))
@click.option("--batch", default=DEFAULT_PERSONALIZE.batch_size, show_default=True,
              type=click.IntRange(min=1))
def personalize_cmd(model_path, data, out, seed, lr, epochs, batch):
    """Fine-tune a pretrained model on client data."""
    model = art.load_model(model_path)
    d_p = art.load_dataset(data)
    cfg = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=batch, seed=seed)
    theta_p = personalize_model(model, d_p, cfg)
    art.save_model(out, theta_p,
                   inputs=art.input_digests(model=model_path, data=data))
    return {"model": out}


# -- provider / client artifacts ---------------------------------------------


@main.command()
@click.option("--model", "model_path", required=True,
              help="Pretrained model prefix (saliency anchor).")
@click.option("--data", required=True, help="Forget-set .dset.")
@click.option("--k", default=None, type=click.IntRange(min=0),
              help="Mask budget (coordinates).")
@click.option("--frac", default=DEFAULT_BUDGET_FRACTION, show_default=True,
              type=FiniteFloat(0, 1, min_open=True),
              help="Budget as a fraction of eligible coordinates.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True)
def mask(model_path, data, k, frac, seed, out):
    """Provider step: top-k saliency mask over hidden-layer weights."""
    model = art.load_model(model_path)
    d_f = art.load_dataset(data)
    m, _ = select_mask(model, d_f, seed, k=k, frac=frac)
    art.save_mask(out, m, inputs=art.input_digests(model=model_path, data=data))
    return {"mask": out, "k": m.budget, "digest": m.digest}


@main.command()
@click.option("--model", "model_path", required=True,
              help="Personalized model prefix.")
@click.option("--data", required=True, help="Client dataset .dset.")
@click.option("--lambda", "lam", default=DEFAULT_DAMPING, show_default=True,
              type=FiniteFloat(min=0.0, min_open=True))
@click.option("--block-cap", default=DEFAULT_BLOCK_CAP, show_default=True,
              type=click.Choice([str(cap) for cap in BLOCK_CAPS]))
@click.option("--max-samples", default=DEFAULT_MAX_SAMPLES, show_default=True,
              type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True)
def fisher(model_path, data, lam, block_cap, max_samples, seed, out):
    """Client step: damped block-wise empirical Fisher curvature, written
    as its recipe (the seeded sample rows), from which later steps form
    it at the model."""
    model = art.load_model(model_path)
    d_p = art.load_dataset(data)
    f = empirical_fisher_blockwise(model, d_p, lam=lam,
                                   block_cap=int(block_cap),
                                   max_samples=max_samples, seed=seed)
    art.save_fisher(out, f,
                    inputs=art.input_digests(model=model_path, data=data))
    return {"fisher": out, "lambda": lam, "n": f.sample_count}


@main.command()
@click.option("--model", "model_path", required=True,
              help="Personalized model prefix.")
@click.option("--mask", "mask_path", required=True)
@click.option("--fisher", "fisher_path", required=True)
@click.option("--out-dir", required=True, type=click.Path())
def unlearn(model_path, mask_path, fisher_path, out_dir):
    """Solve the masked compensation problem and assemble theta_u."""
    inputs = art.input_digests(model=model_path, mask=mask_path,
                               fisher=fisher_path)
    theta_p = art.load_model(model_path)
    m = art.load_mask(mask_path)
    fisher = art.load_fisher(fisher_path, theta_p, model=inputs["model"])
    comp, theta_u = compensate(theta_p, m, fisher)
    os.makedirs(out_dir, exist_ok=True)
    with art.removed_on_failure() as written:
        written += art.save_comp(os.path.join(out_dir, "comp"), comp,
                                 inputs=inputs)
        written += art.save_model(os.path.join(out_dir, "theta_u"), theta_u,
                                  inputs=inputs)
    hit, sampled = solve_spaces(fisher, m.support)
    return {
        "comp": os.path.join(out_dir, "comp"),
        "theta_u": os.path.join(out_dir, "theta_u"),
        "method": comp.method,
        "blocks_solved": {"sample_space": len(sampled),
                          "coordinate_space": len(hit) - len(sampled)},
    }


# -- certificates -------------------------------------------------------------


@main.command()
@click.option("--theta-p", "tp_path", required=True)
@click.option("--theta-u", "tu_path", required=True)
@click.option("--comp", "comp_path", required=True)
@click.option("--mask", "mask_path", required=True)
@click.option("--fisher", "fisher_path", required=True)
@click.option("--tau", default=DEFAULT_TAU_REAL, show_default=True,
              type=FiniteFloat(min=0))
def certify(tp_path, tu_path, comp_path, mask_path, fisher_path, tau):
    """Plain-arithmetic first-order certificate; exit 1 on failure."""
    theta_p, theta_u, comp, m, f = art.load_certificate_inputs(
        tp_path, tu_path, comp_path, mask_path, fisher_path)
    cert = check_kkt(theta_p.params, theta_u.params, comp, f, m, tau_real=tau)
    return cert.to_json(), cert.verdict


@main.command("report-bounds")
@click.option("--theta-p", "tp_path", required=True)
@click.option("--comp", "comp_path", required=True)
@click.option("--mask", "mask_path", required=True)
@click.option("--data", required=True, help="Forget-set .dset.")
@click.option("--lambda-q", default=DEFAULT_LAM_Q, show_default=True, type=FiniteFloat())
def report_bounds(tp_path, comp_path, mask_path, data, lambda_q):
    """Forget-loss gain bounds for the compensated update, and the
    measured forget-loss change it gives."""
    theta_p = art.load_model(tp_path)
    comp = art.load_comp(comp_path, theta_p, **art.input_digests(
        model=tp_path, mask=mask_path))
    m = art.load_mask(mask_path)
    d_f = art.load_dataset(data)
    theta_u = theta_p.with_params(apply_unlearn(theta_p.params, comp, m).values)
    budget = forget_gain_report(theta_p, m, comp, d_f, lam_q=lambda_q)
    return {**budget.to_json(), "measured": measured_forget_gap(
        theta_p, theta_u, d_f, budget.predicted_delta_lf)}


# -- zk layer -----------------------------------------------------------------


@main.command()
@click.option("--theta-p", "tp_path", required=True)
@click.option("--theta-u", "tu_path", required=True)
@click.option("--comp", "comp_path", required=True)
@click.option("--mask", "mask_path", required=True)
@click.option("--fisher", "fisher_path", required=True)
@click.option("--seed", default=0, show_default=True,
              help="Seed for the commitment blinding randomness.")
@click.option("--out-dir", required=True, type=click.Path())
def prove(tp_path, tu_path, comp_path, mask_path, fisher_path, seed, out_dir):
    """Encode the fixed-point witness, commit, and produce a proof."""
    theta_p, theta_u, comp, m, f = art.load_certificate_inputs(
        tp_path, tu_path, comp_path, mask_path, fisher_path)
    _, circuit, proof, _ = run_zk_layer(theta_p, theta_u, comp, f, m, seed)
    os.makedirs(out_dir, exist_ok=True)
    with art.removed_on_failure() as written:
        written += art.save_public(
            os.path.join(out_dir, "public.pub"), circuit.public,
            inputs=art.input_digests(theta_p=tp_path, theta_u=tu_path,
                                     comp=comp_path, mask=mask_path,
                                     fisher=fisher_path))
        written += art.save_proof(os.path.join(out_dir, "proof.prf"), proof)
    return {
        "public": os.path.join(out_dir, "public.pub"),
        "proof": os.path.join(out_dir, "proof.prf"),
        "t_int": circuit.public.t_int,
        "precision": zkp.precision(),
        "constraints": zkp.constraint_report(circuit),
    }


@main.command()
@click.option("--proof", "proof_path", required=True)
@click.option("--public", "public_path", required=True)
def verify(proof_path, public_path):
    """Check a proof against public inputs and the circuit they
    determine; exit 1 when rejected."""
    proof = art.load_proof(proof_path)
    public = art.load_public(public_path)
    ok = zkp.MockBackend().verify(proof, public)
    return {"verified": ok, "precision": zkp.precision(),
            "guarantee": zkp.MockBackend.guarantee}, ok


# -- evaluation ----------------------------------------------------------------


@main.command()
@click.option("--init", "init_path", required=True,
              help="Initialization model prefix (same seed as pretraining).")
@click.option("--retain", required=True)
@click.option("--personal", required=True)
@click.option("--out", required=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--lr", default=DEFAULT_PRETRAIN.learning_rate, show_default=True,
              type=FiniteFloat(min=0, min_open=True))
@click.option("--epochs", default=DEFAULT_PRETRAIN.epochs, show_default=True,
              type=click.IntRange(min=0))
@click.option("--p-lr", default=DEFAULT_PERSONALIZE.learning_rate, show_default=True,
              type=FiniteFloat(min=0, min_open=True))
@click.option("--p-epochs", default=DEFAULT_PERSONALIZE.epochs, show_default=True,
              type=click.IntRange(min=0))
def gold(init_path, retain, personal, out, seed, lr, epochs, p_lr, p_epochs):
    """Retrain-then-personalize gold standard."""
    init = art.load_model(init_path)
    d_r = art.load_dataset(retain)
    d_p = art.load_dataset(personal)
    model = gold_standard(
        init, d_r, d_p,
        TrainConfig(learning_rate=lr, epochs=epochs, seed=seed),
        TrainConfig(learning_rate=p_lr, epochs=p_epochs, seed=seed),
    )
    art.save_model(out, model, inputs=art.input_digests(
        init=init_path, retain=retain, personal=personal))
    return {"model": out}


@main.command("evaluate")
@click.option("--model", "model_path", required=True)
@click.option("--gold", "gold_path", required=True)
@click.option("--forget", required=True)
@click.option("--personal", required=True)
@click.option("--members", required=True,
              help="Forget-set members for the membership attack.")
@click.option("--nonmembers", required=True)
def evaluate_cmd(model_path, gold_path, forget, personal, members, nonmembers):
    """Accuracy, predictive alignment to gold, and membership AUC."""
    report = evaluate(
        art.load_model(model_path),
        art.load_model(gold_path),
        art.load_dataset(forget),
        art.load_dataset(personal),
        mia_members=art.load_dataset(members),
        mia_nonmembers=art.load_dataset(nonmembers),
    )
    return report.to_json()


# -- demo ----------------------------------------------------------------------


@main.command()
@click.option("--seed", default=7, show_default=True)
@click.option("--out-dir", default="demo_out", show_default=True,
              type=click.Path())
@click.option("--skip-gold", is_flag=True, help="Skip the retraining baseline.")
def demo(seed, out_dir, skip_gold):
    """Full pipeline on the synthetic task; writes every artifact."""
    result = run_pipeline(seed, demo_config(run_gold=not skip_gold))
    public = result.circuit.public if result.circuit else None
    saves = [(art.save_model, name, getattr(result, name)) for name in
             ("theta0_init", "theta0", "theta_p", "theta_u", "gold")]
    saves += [(art.save_mask, "mask.mask", result.mask),
              (art.save_fisher, "fisher", result.fisher),
              (art.save_comp, "comp", result.comp),
              (art.save_public, "public.pub", public),
              (art.save_proof, "proof.prf", result.proof)]
    summary = {
        "seed": seed,
        "certificate": result.certificate.to_json(),
        "mask": {"k": result.mask.budget, "digest": result.mask.digest},
        "drift": result.drift_report,
        "verified": result.verified,
        "t_int": public.t_int if public else None,
        "reports": {k: v.to_json() for k, v in result.reports.items()},
    }
    os.makedirs(out_dir, exist_ok=True)
    with art.removed_on_failure() as written:
        _save_splits(out_dir, result.task, written)
        for save, name, obj in saves:
            if obj is not None:
                written += save(os.path.join(out_dir, name), obj)
        written += art.write_json(os.path.join(out_dir, "summary.json"),
                                  summary)
        # the files this run wrote, not whatever else the directory holds
        digests = {os.path.relpath(p, out_dir): art.file_digest(p)
                   for p in written}
        written += art.write_json(os.path.join(out_dir, "digests.json"),
                                  digests)
    return summary, (result.certificate.verdict
                     and result.verified in (True, None))


if __name__ == "__main__":
    main()
