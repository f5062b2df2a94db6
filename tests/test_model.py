import numpy as np
import pytest

from veriforget.model import (
    Dataset,
    TrainConfig,
    TrainingError,
    batch_grad,
    init_mlp,
    make_synthetic_task,
    mean_loss,
    mlp_layout,
    per_example_grads,
    personalize,
    predictive_dist,
    stream_rng,
    train_sgd,
)
from veriforget.numkit import StructuralError

from conftest import small_dataset


def fd_grad(model, x, y, h=1e-5):
    """Central finite differences of the per-example loss."""
    base = model.params.values
    out = np.zeros_like(base)
    data = Dataset(features=x[None, :], labels=np.array([y]), name="fd")
    for i in range(base.size):
        for sign in (+1, -1):
            v = base.copy()
            v[i] += sign * h
            out[i] += sign * mean_loss(model.with_params(v), data)
    return out / (2 * h)


# -- predictive distribution ---------------------------------------------------


def test_uniform_at_zero_params():
    model = init_mlp([3, 5, 4], 0)
    model = model.with_params(np.zeros(model.params.dim))
    p = predictive_dist(model, np.array([[1.0, -2.0, 0.5]]))
    assert np.abs(p - 0.25).max() <= 1e-12


def test_probabilities_normalized():
    rng = np.random.default_rng(0)
    model = init_mlp([4, 6, 3], 1)
    x = rng.normal(size=(20, 4))
    p = predictive_dist(model, x)
    assert (p > 0).all()
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_hand_softmax_linear_model():
    # 2-class linear model (no hidden layer): w = [[1],[0]] column per
    # class on the first input coordinate, zero bias
    model = init_mlp([2, 2], 0)
    vals = np.zeros(model.params.dim)
    layout = model.params.layout
    w = np.zeros((2, 2))
    w[0, 0] = 1.0  # logit_0 = x_0, logit_1 = 0
    vals[layout.block_slice("mlp.0.w")] = w.ravel()
    model = model.with_params(vals)
    p = predictive_dist(model, np.array([[np.log(3.0), 0.0]]))
    assert np.abs(p[0] - np.array([0.75, 0.25])).max() <= 1e-12


# -- gradients -------------------------------------------------------------------


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    model = init_mlp([2, 8, 2], 3)
    x = rng.normal(size=2)
    one = Dataset(features=x[None, :], labels=np.array([1]))
    g = per_example_grads(model, one)[0]
    fd = fd_grad(model, x, 1)
    idx = rng.choice(g.size, size=20, replace=False)
    rel = np.abs(g[idx] - fd[idx]) / (np.abs(fd[idx]) + 1e-8)
    assert rel.max() <= 1e-5


def test_batch_grad_is_mean_of_per_example():
    rng = np.random.default_rng(3)
    model = init_mlp([4, 6, 3], 4)
    data = small_dataset(rng, n=9)
    g = batch_grad(model, data).values
    per = per_example_grads(model, data)
    assert np.abs(g - per.mean(axis=0)).max() <= 1e-12


def test_grads_matrix_rows_match_single():
    rng = np.random.default_rng(4)
    model = init_mlp([4, 5, 3], 5)
    data = small_dataset(rng, n=5)
    per = per_example_grads(model, data)
    for i in range(len(data)):
        single = batch_grad(model, data.subset(np.array([i]))).values
        assert np.abs(per[i] - single).max() <= 1e-12


# -- training ---------------------------------------------------------------------


def test_epochs_zero_is_identity():
    rng = np.random.default_rng(5)
    model = init_mlp([4, 6, 3], 6)
    data = small_dataset(rng)
    out = train_sgd(model, data, TrainConfig(epochs=0, seed=1))
    assert np.array_equal(out.params.values, model.params.values)


def test_negative_epochs_rejected():
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-2)


def test_separable_data_trains_to_high_accuracy():
    rng = np.random.default_rng(6)
    n = 100
    x = np.concatenate([
        rng.normal(-4.0, 0.5, size=(n, 2)),
        rng.normal(4.0, 0.5, size=(n, 2)),
    ])
    y = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    data = Dataset(features=x, labels=y, name="sep")
    model = train_sgd(init_mlp([2, 8, 2], 0), data,
                      TrainConfig(epochs=50, seed=0))
    pred = predictive_dist(model, x).argmax(axis=1)
    assert (pred == y).mean() >= 0.99


def test_training_deterministic():
    rng = np.random.default_rng(7)
    data = small_dataset(rng, n=30)
    cfg = TrainConfig(epochs=5, seed=11)
    a = train_sgd(init_mlp([4, 6, 3], 1), data, cfg)
    b = train_sgd(init_mlp([4, 6, 3], 1), data, cfg)
    assert np.array_equal(a.params.values, b.params.values)


def test_divergence_raises():
    rng = np.random.default_rng(8)
    data = small_dataset(rng, n=20)
    with np.errstate(over="ignore"), pytest.raises(TrainingError):
        train_sgd(init_mlp([4, 6, 3], 2), data,
                  TrainConfig(learning_rate=1e308, epochs=50, seed=0))


def test_personalize_zero_epochs_identity():
    rng = np.random.default_rng(9)
    model = init_mlp([4, 6, 3], 3)
    data = small_dataset(rng)
    out = personalize(model, data, TrainConfig(epochs=0, seed=0))
    assert np.array_equal(out.params.values, model.params.values)


def test_personalize_improves_on_shifted_data(tiny_task):
    theta0 = train_sgd(init_mlp([4, 8, 3], 0), tiny_task.train,
                       TrainConfig(epochs=15, seed=0))
    theta_p = personalize(theta0, tiny_task.personal,
                          TrainConfig(learning_rate=0.03, epochs=6, seed=0))

    def acc(m, d):
        return (predictive_dist(m, d.features).argmax(axis=1) == d.labels).mean()

    assert acc(theta_p, tiny_task.personal) > acc(theta0, tiny_task.personal)


# -- synthetic task / plumbing -------------------------------------------------------


def test_stream_rng_independent_streams():
    a = stream_rng(0, "x").integers(0, 1 << 30, size=4)
    b = stream_rng(0, "y").integers(0, 1 << 30, size=4)
    a2 = stream_rng(0, "x").integers(0, 1 << 30, size=4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_mlp_layout_labels_and_dim():
    layout = mlp_layout([8, 32, 4])
    assert layout.labels == ["mlp.0.w", "mlp.0.b", "mlp.1.w", "mlp.1.b"]
    assert layout.total_dim == 8 * 32 + 32 + 32 * 4 + 4


def test_dataset_label_range_checked():
    with pytest.raises(StructuralError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, -1]), name="bad")


def test_synthetic_task_structure():
    task = make_synthetic_task(0)
    assert set(task.forget.labels) == {3}
    assert 3 not in set(task.retain.labels)
    assert 3 not in set(task.personal.labels)
    assert len(task.train) == len(task.forget) + len(task.retain)


def test_synthetic_task_deterministic():
    a = make_synthetic_task(5)
    b = make_synthetic_task(5)
    assert np.array_equal(a.train.features, b.train.features)
    assert a.personal.digest() == b.personal.digest()
