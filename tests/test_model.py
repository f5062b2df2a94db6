import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import conftest
from veriforget.model import (
    _backprop,
    _loss_bounded,
    Dataset,
    GradBlock,
    MlpModel,
    TrainConfig,
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
from veriforget.numkit import NumericError, ParamVector, StructuralError

from conftest import examples, reference_train_sgd, small_dataset


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


def test_backprop_leaves_what_it_yields_intact():
    # grad_columns holds every yielded (a_prev, delta) at once, so the
    # recursion must not write into an array once it has yielded it, as
    # it would by forming 1 - a^2 in the activations
    rng = np.random.default_rng(12)
    model = init_mlp([5, 7, 6, 5, 4], 1)
    data = small_dataset(rng, n=9, dim=5, classes=4)
    held = [(li, a_prev, delta, a_prev.copy(), delta.copy())
            for li, a_prev, delta in _backprop(model.weights(), data.features,
                                               data.labels)]
    assert [li for li, *_ in held] == [3, 2, 1, 0]
    for _, a_prev, delta, a_copy, d_copy in held:
        assert a_prev.tobytes() == a_copy.tobytes()
        assert delta.tobytes() == d_copy.tobytes()


def test_grads_matrix_rows_match_single():
    rng = np.random.default_rng(4)
    model = init_mlp([4, 5, 3], 5)
    data = small_dataset(rng, n=5)
    per = per_example_grads(model, data)
    for i in range(len(data)):
        single = batch_grad(model, data.subset(np.array([i]))).values
        assert np.abs(per[i] - single).max() <= 1e-12


_SENTINEL = 7.25


@settings(max_examples=examples(200), deadline=None)
@given(n=st.integers(1, 40), din=st.integers(1, 6), dout=st.integers(1, 8),
       bias=st.booleans(), start=st.integers(0, 47), length=st.integers(1, 48),
       seed=st.integers(0, 2**32 - 1))
# whole rows only, n above s_b
@example(n=30, din=3, dout=4, bias=False, start=0, length=12, seed=1)
# a part that starts and ends mid-row around two whole rows, n below s_b
@example(n=5, din=6, dout=8, bias=False, start=3, length=26, seed=2)
# one partial row, no whole one
@example(n=9, din=4, dout=8, bias=False, start=10, length=4, seed=3)
# a bias part, n above and below s_b
@example(n=11, din=2, dout=8, bias=True, start=2, length=5, seed=4)
@example(n=3, din=2, dout=8, bias=True, start=0, length=8, seed=5)
def test_sample_gram_is_the_lower_triangle_of_g_g(n, din, dout, bias, start,
                                                  length, seed):
    """GradBlock.sample_gram writes G G', G = columns(), into the lower
    triangle of ``out`` and leaves its strict upper triangle as it was.

    Each entry of G G' sums s products g_ik g_jk.  columns() @ columns().T
    rounds g and then the s-term sum, off by at most gamma_{s+2} T with
    T = |G| |G|'.  sample_gram forms the rows R it covers whole as
    (sum_r a_ir a_jr)(sum_c d_ic d_jc), off by at most gamma_{R+dout+1} of
    the same absolute terms, where R + dout <= s + 1 since R dout <= s,
    and adds up to two partial rows' Grams, each of at most dout rounded
    products.  Both are within gamma_{s+4} T ~ (s + 4) eps / 2 T of the
    exact value, so 2 (s + 4) eps T bounds their difference with room for
    the second-order terms."""
    rng = np.random.default_rng(seed)
    a_prev = rng.standard_normal((n, din))
    delta = rng.standard_normal((n, dout))
    width = dout if bias else din * dout
    lo = start % width
    hi = min(lo + length, width)
    part = GradBlock(None if bias else a_prev, delta, lo, hi)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    outer = np.asfortranarray(np.where(upper, 1.0, delta @ delta.T))
    out = np.asfortranarray(np.where(upper, _SENTINEL, -3.5))
    assert part.sample_gram(outer, out) is out
    g = part.columns()
    lower = ~upper
    bound = 2 * (hi - lo + 4) * np.finfo(float).eps * (np.abs(g) @ np.abs(g).T)
    assert np.all(np.abs(out - g @ g.T)[lower] <= bound[lower])
    assert np.all(out[upper] == _SENTINEL)
    if n > 1:  # a 1 x 1 square is in both orders
        with pytest.raises(ValueError, match="Fortran"):
            part.sample_gram(outer, np.zeros((n, n)))


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
    with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                   match="diverged at epoch"):
        train_sgd(init_mlp([4, 6, 3], 2), data,
                  TrainConfig(learning_rate=1e308, epochs=50, seed=0))


def _scaled(rng, size, max_exp):
    """Uniform draws in (-1, 1), each scaled by 10**e for its own e drawn
    from [-2, max_exp]: finite, and up to 1e308 in magnitude."""
    return rng.uniform(-1, 1, size=size) * 10.0 ** rng.uniform(-2, max_exp, size)


def _outcome(train, *args):
    """The trained parameters' bytes, or the type and message of the
    error training raised."""
    try:
        return train(*args).params.values.tobytes()
    except (NumericError, StructuralError) as exc:
        return type(exc), str(exc)


def _training_case(dims, n, batch_size, epochs, lr_exp, w_exp, x_exp, seed):
    """A model with weights up to 10**w_exp, n examples with features up
    to 10**x_exp, and a config with learning rate 10**lr_exp."""
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, 0)
    model = model.with_params(_scaled(rng, model.dim, w_exp))
    data = Dataset(features=_scaled(rng, (n, dims[0]), x_exp),
                   labels=rng.integers(0, dims[-1], size=n))
    cfg = TrainConfig(learning_rate=10.0 ** lr_exp, epochs=epochs,
                      batch_size=batch_size, seed=seed)
    return model, data, cfg


# the parameters go non-finite on the first of epoch 1's five batches
_MID_EPOCH = dict(dims=[4, 8, 3], n=20, batch_size=4, epochs=3, lr_exp=300,
                  w_exp=0, x_exp=10, seed=2)

_DIMS = st.lists(st.integers(1, 6), min_size=2, max_size=4)


@settings(max_examples=examples(300), deadline=None)
@given(
    dims=_DIMS,
    n=st.integers(1, 20),
    batch_size=st.integers(1, 25),
    epochs=st.integers(0, 3),
    lr_exp=st.sampled_from([-2, -1, 0, 2, 10, 100, 300, 307]),
    w_exp=st.sampled_from([0, 1, 10, 100, 300]),
    x_exp=st.sampled_from([0, 1, 10, 100, 300]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=[8, 3, 1, 4], n=20, batch_size=6, epochs=3, lr_exp=-1,
         w_exp=0, x_exp=1, seed=0)
@example(dims=[5, 3], n=7, batch_size=25, epochs=2, lr_exp=-1,
         w_exp=0, x_exp=1, seed=1)
# a non-finite batch gradient in the second epoch
@example(dims=[4, 8, 3], n=20, batch_size=8, epochs=2, lr_exp=307,
         w_exp=0, x_exp=10, seed=40)
# finite gradients, and parameters non-finite before the epoch's last batch
@example(**_MID_EPOCH)
def test_train_sgd_bit_exact_against_oracle(dims, n, batch_size, epochs,
                                            lr_exp, w_exp, x_exp, seed):
    model, data, cfg = _training_case(dims, n, batch_size, epochs, lr_exp,
                                      w_exp, x_exp, seed)
    with np.errstate(all="ignore"):
        want = _outcome(reference_train_sgd, model, data, cfg)
        got = _outcome(train_sgd, model, data, cfg)
    if want == (StructuralError, "non-finite entries in ParamVector"):
        # the oracle's gradient ParamVector rejects a non-finite gradient
        # before the parameters are checked; a non-finite gradient always
        # makes the parameters non-finite
        assert got[0] is NumericError
        assert got[1].startswith("parameters diverged at epoch "), got
    else:
        assert got == want


def test_divergence_mid_epoch_names_the_oracle_epoch_without_warnings(
        monkeypatch):
    # the parameters are checked once per epoch, so NaNs flow through the
    # batches after the one that diverged; that must neither change the
    # message nor let numpy warn under its default error state
    model, data, cfg = _training_case(**_MID_EPOCH)
    steps = []

    def counted_grad(*args):
        steps.append(None)
        return batch_grad(*args)

    monkeypatch.setattr(conftest, "batch_grad", counted_grad)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as want:
        reference_train_sgd(model, data, cfg)
    batches = -(-len(data) // cfg.batch_size)
    assert len(steps) == batches + 1  # the oracle stopped on that step
    with np.errstate(all="warn", under="ignore"), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError) as got:
            train_sgd(model, data, cfg)
    assert str(want.value) == "parameters diverged at epoch 1"
    assert str(got.value) == str(want.value)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@settings(max_examples=examples(300), deadline=None)
@given(
    dims=_DIMS,
    n=st.integers(1, 12),
    w_exp=st.floats(0, 308),
    x_exp=st.floats(0, 308),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_bound_never_passes_a_non_finite_loss(dims, n, w_exp, x_exp,
                                                   seed):
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, 0)
    model = model.with_params(_scaled(rng, model.dim, w_exp))
    x = _scaled(rng, (n, dims[0]), x_exp)
    data = Dataset(features=x, labels=rng.integers(0, dims[-1], size=n))
    with np.errstate(all="ignore"):
        if _loss_bounded(model.weights(), float(np.abs(x).max()), n):
            assert np.isfinite(mean_loss(model, data))


def test_loss_bound_passes_ordinary_models():
    rng = np.random.default_rng(10)
    for dims in ([4, 3], [4, 8, 3], [8, 3, 1, 4]):
        data = small_dataset(rng, n=50, dim=dims[0], classes=dims[-1])
        model = train_sgd(init_mlp(dims, 0), data, TrainConfig(epochs=3))
        assert _loss_bounded(model.weights(), float(np.abs(data.features).max()),
                             len(data))


def test_loss_bound_covers_hidden_layers():
    # the logits' own bound holds (|h| <= 1 and unit output weights), but
    # each hidden pre-activation sums +-1e310 terms that overflow to +inf
    # and -inf in different accumulators, so tanh gives NaN and so does
    # the loss
    din, n = 16, 5
    model = init_mlp([din, 2, 2], 0)
    w0 = np.zeros((din, 2))
    w0[:, 0] = 1e10 * (-1.0) ** np.arange(din)
    vals = np.zeros(model.dim)
    layout = model.params.layout
    vals[layout.block_slice("mlp.0.w")] = w0.ravel()
    vals[layout.block_slice("mlp.1.w")] = np.eye(2).ravel()
    model = model.with_params(vals)
    data = Dataset(features=np.full((n, din), 1e300),
                   labels=np.zeros(n, dtype=np.int64))
    with np.errstate(all="ignore"):
        assert not np.isfinite(mean_loss(model, data))
        assert not _loss_bounded(model.weights(), 1e300, n)


def test_finite_parameters_with_non_finite_loss_diverge():
    # the initial weights predict class 0 with certainty, so the first
    # step moves W by about 0.1 * 1e300 towards class 1: every parameter
    # stays finite, but x * W overflows, so the end-of-epoch loss is NaN
    # and only the full-data loss can tell
    data = Dataset(features=np.array([[1e300]]), labels=np.array([1]))
    cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=1, seed=0)
    init = init_mlp([1, 2], 0)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as ref:
            reference_train_sgd(init, data, cfg)
        with pytest.raises(NumericError) as got:
            train_sgd(init, data, cfg)
    assert str(ref.value) == "loss diverged at epoch 0"
    assert str(got.value) == str(ref.value)


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


@pytest.mark.parametrize("dims", [(), (4,)])
def test_model_needs_input_and_output_dims(dims):
    params = ParamVector(values=np.zeros(0), layout=mlp_layout(list(dims)))
    with pytest.raises(StructuralError, match="at least input and output"):
        MlpModel(layer_dims=dims, params=params)


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
