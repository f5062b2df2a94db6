import os
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from veriforget import evals, pipeline
from veriforget.evals import (
    evaluate,
    evaluate_accuracy,
    forward_kl_alignment,
    gold_standard,
    mia_auc,
)
from veriforget.model import (
    Dataset,
    TrainConfig,
    init_mlp,
    personalize,
    train_sgd,
)
from veriforget.numkit import StructuralError

from conftest import (
    assert_no_child_process,
    examples,
    reference_mia_auc,
    report_cpus,
    small_dataset,
    tiny_config,
)


# -- forward KL ---------------------------------------------------------------


def test_kl_self_is_zero():
    rng = np.random.default_rng(0)
    model = init_mlp([4, 6, 3], 0)
    data = small_dataset(rng)
    assert forward_kl_alignment(model, model, data) == 0.0


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(1)
    data = small_dataset(rng)
    for seed in range(10):
        a = init_mlp([4, 6, 3], seed)
        b = init_mlp([4, 6, 3], seed + 100)
        assert forward_kl_alignment(a, b, data) >= 0.0


def test_kl_hand_value():
    # p = [0.75, 0.25] vs uniform q: 0.75 ln 1.5 + 0.25 ln 0.5
    model_p = init_mlp([2, 2], 0)
    vals = np.zeros(model_p.params.dim)
    layout = model_p.params.layout
    w = np.zeros((2, 2))
    w[0, 0] = 1.0
    vals[layout.block_slice("mlp.0.w")] = w.ravel()
    model_p = model_p.with_params(vals)
    model_q = model_p.with_params(np.zeros(model_p.params.dim))
    data = Dataset(features=np.array([[np.log(3.0), 0.0]]),
                   labels=np.array([0]), name="one")
    want = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    got = forward_kl_alignment(model_p, model_q, data)
    assert abs(got - want) <= 1e-12
    assert abs(want - 0.1308) <= 5e-5


# -- accuracy ------------------------------------------------------------------


def test_uniform_model_chance_accuracy():
    rng = np.random.default_rng(2)
    c = 4
    n = 400
    model = init_mlp([3, 5, c], 0)
    model = model.with_params(np.zeros(model.params.dim))
    data = Dataset(
        features=rng.normal(size=(n, 3)),
        labels=np.repeat(np.arange(c), n // c).astype(np.int64),
        name="balanced",
    )
    acc = evaluate_accuracy(model, data)
    # uniform probs -> argmax ties resolve to class 0 -> accuracy 1/C exact
    assert abs(acc - 1.0 / c) <= 3 * np.sqrt(0.25 * 0.75 / n) + 1e-12


def test_perfect_memorizer():
    rng = np.random.default_rng(3)
    x = np.concatenate([
        rng.normal(-5, 0.3, size=(30, 2)), rng.normal(5, 0.3, size=(30, 2))
    ])
    y = np.concatenate([np.zeros(30, dtype=np.int64), np.ones(30, dtype=np.int64)])
    data = Dataset(features=x, labels=y, name="sep")
    model = train_sgd(init_mlp([2, 8, 2], 0), data, TrainConfig(epochs=40, seed=0))
    assert evaluate_accuracy(model, data) == 1.0


# -- membership inference -----------------------------------------------------------


def test_mia_same_set_is_half():
    rng = np.random.default_rng(4)
    model = init_mlp([4, 6, 3], 1)
    data = small_dataset(rng, n=15)
    assert mia_auc(model, data, data) == 0.5


def test_mia_perfect_separation():
    # craft a model and sets with disjoint loss ranges: members are
    # correctly classified with confidence, nonmembers mislabeled
    rng = np.random.default_rng(5)
    x = np.concatenate([
        rng.normal(-5, 0.3, size=(20, 2)), rng.normal(5, 0.3, size=(20, 2))
    ])
    y = np.concatenate([np.zeros(20, dtype=np.int64), np.ones(20, dtype=np.int64)])
    train = Dataset(features=x, labels=y, name="train")
    model = train_sgd(init_mlp([2, 8, 2], 0), train, TrainConfig(epochs=40, seed=0))
    members = train
    nonmembers = Dataset(features=x, labels=1 - y, name="flipped")
    assert mia_auc(model, members, nonmembers) == 1.0


# Losses drawn from a few values, so that most of them tie.
_TIED_LOSSES = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0]),
              st.floats(0.0, 4.0).map(lambda x: round(x, 1))),
    min_size=1, max_size=40,
)


@settings(max_examples=examples(200), deadline=None)
@given(lm=_TIED_LOSSES, ln=_TIED_LOSSES, dup=st.booleans())
@example(lm=[1.0], ln=[1.0], dup=False)
@example(lm=[0.5], ln=[0.5, 0.5, 2.0], dup=False)
def test_mia_matches_midrank_oracle_exactly(lm, ln, dup):
    if dup:
        ln = lm + ln  # every member loss also a nonmember loss
    lm, ln = np.array(lm), np.array(ln)
    members = Dataset(features=np.zeros((lm.size, 1)),
                      labels=np.zeros(lm.size, dtype=np.int64), name="m")
    nonmembers = Dataset(features=np.zeros((ln.size, 1)),
                         labels=np.zeros(ln.size, dtype=np.int64), name="n")
    with mock.patch.object(evals, "per_example_losses", side_effect=[lm, ln]):
        got = mia_auc(None, members, nonmembers)
    assert got == reference_mia_auc(lm, ln)


def test_mia_in_unit_interval():
    rng = np.random.default_rng(6)
    model = init_mlp([4, 6, 3], 2)
    a = small_dataset(rng, n=13)
    b = small_dataset(rng, n=7)
    auc = mia_auc(model, a, b)
    assert 0.0 <= auc <= 1.0


# -- gold standard ------------------------------------------------------------------


def test_gold_with_full_retain_reproduces_pipeline(tiny_task):
    init = init_mlp([4, 8, 3], 0)
    cfg_r = TrainConfig(epochs=8, seed=0)
    cfg_p = TrainConfig(learning_rate=0.03, epochs=4, seed=0)
    # gold on D_r = D must equal train-then-personalize bit-exactly
    direct = personalize(
        train_sgd(init, tiny_task.train, cfg_r), tiny_task.personal, cfg_p
    )
    gold = gold_standard(init, tiny_task.train, tiny_task.personal, cfg_r, cfg_p)
    assert np.array_equal(direct.params.values, gold.params.values)


def test_gold_forgets_the_class(tiny_task):
    init = init_mlp([4, 8, 3], 0)
    gold = gold_standard(
        init, tiny_task.retain, tiny_task.personal,
        TrainConfig(epochs=15, seed=0),
        TrainConfig(learning_rate=0.03, epochs=6, seed=0),
    )
    # never saw class 2: forget accuracy should be near zero
    assert evaluate_accuracy(gold, tiny_task.holdout_forget) <= 1 / 3 + 0.15


# -- the gold standard beside the client -------------------------------------------


class ClientFault(RuntimeError):
    """Raised by a patched client stage."""


def test_client_failure_while_gold_trains_leaves_no_child(monkeypatch,
                                                          tmp_path):
    """check_kkt raises once the gold standard's worker has started (and
    sleeps a minute): run_pipeline re-raises at once, and the worker is
    killed and reaped."""
    report_cpus(monkeypatch, 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    started = tmp_path / "gold-pid"

    def slow_gold(*args):
        (tmp_path / "pid").write_text(str(os.getpid()))
        os.rename(tmp_path / "pid", started)
        time.sleep(60)

    def failing_check(*args):
        deadline = time.monotonic() + 10
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ClientFault("check_kkt")

    monkeypatch.setattr(pipeline, "gold_standard", slow_gold)
    monkeypatch.setattr(pipeline, "check_kkt", failing_check)
    start = time.monotonic()
    with pytest.raises(ClientFault):
        pipeline.run_pipeline(3, tiny_config(run_gold=True, run_zk=False))
    assert time.monotonic() - start < 30
    assert int(started.read_text()) != os.getpid()
    assert_no_child_process()


class NoRows:
    """A retain set of no rows, which a ``Dataset`` cannot be."""

    def __len__(self):
        return 0


def test_gold_error_reaches_run_pipeline_with_its_type(monkeypatch, workers):
    task = pipeline.synthetic_task(3, (4, 8, 3))
    monkeypatch.setattr(pipeline, "synthetic_task",
                        lambda seed, dims: replace(task, retain=NoRows()))
    with pytest.raises(StructuralError, match="empty retain set"):
        pipeline.run_pipeline(3, tiny_config(run_gold=True, run_zk=False))


def test_gold_from_its_worker_is_the_gold_standard(workers):
    cfg = tiny_config(run_gold=True, run_zk=False)
    r = pipeline.run_pipeline(3, cfg)
    direct = gold_standard(r.theta0_init, r.task.retain, r.task.personal,
                           replace(cfg.pretrain, seed=3),
                           replace(cfg.personalize, seed=3))
    assert np.array_equal(r.gold.params.values, direct.params.values)
    assert not r.gold.params.values.flags.writeable


def test_evaluate_report_fields(tiny_task):
    model = init_mlp([4, 8, 3], 1)
    gold = init_mlp([4, 8, 3], 2)
    rep = evaluate(
        model, gold, tiny_task.holdout_forget, tiny_task.holdout_personal,
        mia_members=tiny_task.forget, mia_nonmembers=tiny_task.holdout_forget,
    )
    assert 0 <= rep.forget_acc <= 1
    assert 0 <= rep.personal_acc <= 1
    assert rep.align_personal >= 0
    assert rep.align_forget >= 0
    assert 0 <= rep.mia <= 1
    obj = rep.to_json()
    assert "mia_auc" in obj


def test_kl_empty_dataset_rejected():
    model = init_mlp([4, 6, 3], 0)
    with pytest.raises(StructuralError):
        Dataset(features=np.zeros((0, 4)), labels=np.zeros(0, dtype=np.int64),
                name="empty")
