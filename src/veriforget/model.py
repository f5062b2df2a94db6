"""Desk-scale tanh MLP classifier with exact gradients and deterministic SGD.

Parameters live in a flat ParamVector whose layout has one block per
weight matrix / bias vector ("mlp.{i}.w", "mlp.{i}.b").
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .numkit import (
    BlockLayout,
    NumericError,
    ParamVector,
    StructuralError,
    sha256_hex,
    tree_mean,
)


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream-name)."""
    h = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    key = np.frombuffer(h[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # n x m, f64
    labels: np.ndarray  # n, integer in [0, C)
    name: str = ""

    def __post_init__(self):
        x = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        if x.ndim != 2 or x.shape[0] < 1:
            raise StructuralError("features must be a non-empty n x m matrix")
        if y.shape != (x.shape[0],):
            raise StructuralError("labels length must match feature rows")
        if not np.all(np.isfinite(x)):
            raise StructuralError("non-finite features")
        if y.min() < 0:
            raise StructuralError("negative label")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, idx, name: str | None = None) -> "Dataset":
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            name=name if name is not None else self.name,
        )

    def digest(self) -> str:
        return sha256_hex(
            self.features.astype("<f8").tobytes()
            + self.labels.astype("<i8").tobytes()
        )


MOMENTUM = 0.9  # of train_sgd's updates


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


def column_blocks(layer_dims, cap) -> list[tuple[str, int, bool, int, int]]:
    """(label, layer, bias, lo, hi) of each block of a model of
    ``layer_dims`` split at ``cap``, in layout order: the weight W of each
    layer (din x dout, flattened row by row), ``mlp.<i>.w``, then its bias,
    ``mlp.<i>.b``, each whole when it fits ``cap``, else in parts
    ``<label>/part<j>`` of ``cap`` columns and a shorter last one, a part
    of W possibly starting mid-row; [lo, hi) are the block's columns of its
    weight or bias.  The one split rule: of the parameters, of the Fisher's
    blocks and of the statement's."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    blocks = []
    for layer, (din, dout) in enumerate(zip(layer_dims, layer_dims[1:])):
        for bias, size in ((False, din * dout), (True, dout)):
            label = f"mlp.{layer}.{'b' if bias else 'w'}"
            if size <= cap:
                blocks.append((label, layer, bias, 0, size))
            else:
                blocks += [(f"{label}/part{j}", layer, bias, lo,
                            min(lo + cap, size))
                           for j, lo in enumerate(range(0, size, cap))]
    return blocks


def _layout(blocks) -> BlockLayout:
    return BlockLayout.from_sizes((hi - lo, label)
                                  for label, *_, lo, hi in blocks)


def mlp_layout(layer_dims) -> BlockLayout:
    """The parameters' layout: each weight and bias one block."""
    return _layout(column_blocks(layer_dims, math.inf))


@dataclass(frozen=True)
class MlpModel:
    """An MLP with tanh on every hidden layer, the only activation."""

    layer_dims: tuple[int, ...]
    params: ParamVector

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(self.layer_dims))
        if len(self.layer_dims) < 2:
            raise StructuralError(
                f"layer_dims {list(self.layer_dims)} needs at least input and "
                "output dims"
            )
        expected = mlp_layout(list(self.layer_dims))
        if self.params.layout != expected:
            raise StructuralError("params layout does not match layer_dims")

    @property
    def dim(self) -> int:
        return self.params.dim

    def weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The per-layer (W_i, b_i) views, W_i of shape (din, dout)."""
        return _layer_views(self.layer_dims, self.params.values)

    def with_params(self, values: np.ndarray) -> "MlpModel":
        return MlpModel(
            layer_dims=self.layer_dims,
            params=self.params.with_values(values),
        )


def _layer_views(layer_dims, flat: np.ndarray):
    """Per-layer (W_i, b_i) views into ``flat``, laid out as by
    ``mlp_layout(layer_dims)``."""
    views, off = [], 0
    for din, dout in zip(layer_dims[:-1], layer_dims[1:]):
        w = flat[off : off + din * dout].reshape(din, dout)
        off += din * dout
        views.append((w, flat[off : off + dout]))
        off += dout
    return views


def check_fits(model: MlpModel, data: Dataset) -> None:
    """Raise StructuralError unless ``data`` has the model's input width
    and labels below its number of classes."""
    width, classes = model.layer_dims[0], model.layer_dims[-1]
    if data.features.shape[1] != width:
        raise StructuralError(
            f"dataset has {data.features.shape[1]} features, model input is "
            f"{width}"
        )
    top = int(data.labels.max())
    if top >= classes:
        raise StructuralError(
            f"dataset label {top} is out of range for a model of {classes} "
            "classes"
        )


def init_mlp(layer_dims: list[int], seed: int) -> MlpModel:
    rng = stream_rng(seed, "init")
    layout = mlp_layout(layer_dims)
    vals = np.zeros(layout.total_dim)
    for i, (din, dout) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        scale = 1.0 / np.sqrt(din)
        sl = layout.block_slice(f"mlp.{i}.w")
        vals[sl] = rng.uniform(-scale, scale, size=din * dout)
    return MlpModel(
        layer_dims=tuple(layer_dims),
        params=ParamVector(values=vals, layout=layout),
    )


def _forward(layers, x: np.ndarray):
    """Forward pass on a batch through ``layers``, the per-layer (W, b)
    views; returns logits and per-layer activations.  Each layer's bias
    and tanh are applied in place on its product's own output."""
    acts = [x]
    for w, b in layers[:-1]:
        h = acts[-1] @ w
        h += b
        acts.append(np.tanh(h, out=h))
    w, b = layers[-1]
    z = acts[-1] @ w
    z += b
    return z, acts


def logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.layer_dims[0]:
        raise StructuralError(
            f"input dim {x.shape[1]} != model input {model.layer_dims[0]}"
        )
    z, _ = _forward(model.weights(), x)
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    """The softmax of each row of ``z``, computed in place on ``z``."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def predictive_dist(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Softmax predictive distribution of each example of the batch ``x``."""
    return _softmax(logits(model, x))  # fresh logits, so x is not touched


def _backprop(layers, x: np.ndarray, y: np.ndarray):
    """Yield (layer index, its input activations, dL/dz at its output) for
    the summed cross-entropy loss through ``layers``, the per-layer (W, b)
    views, from the last layer to the first.

    Every yielded array is its own and is never written after it is
    yielded, so a caller may hold them all: the tanh derivative 1 - a^2
    goes into a scratch array, never into the activations.  A layer's
    arrays are dropped here once it is yielded, so a caller that drops
    them too holds one layer's errors at a time.
    """
    z, acts = _forward(layers, x)
    delta = _softmax(z)
    delta[np.arange(x.shape[0]), y] -= 1.0  # dL/dz for summed loss
    for li in range(len(layers) - 1, -1, -1):
        a = acts.pop()  # this generator holds no layer it has passed
        yield li, a, delta
        if li > 0:
            slope = np.multiply(a, a)
            np.subtract(1.0, slope, out=slope)
            delta = delta @ layers[li][0].T
            delta *= slope


def _backward(layers, x: np.ndarray, y: np.ndarray, grads) -> None:
    """Write the summed cross-entropy gradient over the batch into
    ``grads``, per-layer (W, b) views shaped as ``layers``."""
    for li, a_prev, delta in _backprop(layers, x, y):
        gw, gb = grads[li]
        np.matmul(a_prev.T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)


def column_layout(model: MlpModel, cap: int) -> BlockLayout:
    """The labels and widths of the blocks ``grad_columns(model, ., cap)``
    yields (``column_blocks``), known before any gradient is formed."""
    return _layout(column_blocks(model.layer_dims, cap))


@dataclass(frozen=True)
class GradBlock:
    """Columns [lo, hi) of one layer's per-example gradient, held as that
    layer's factors from one backward pass: its output errors ``delta``
    (n x dout) and, for a weight block, its input activations ``a_prev``
    (n x din), the weight W being din x dout and flattened row by row.  A
    bias block has ``a_prev`` None.  This is the K-FAC structure (Martens
    and Grosse, ICML 2015): the gradient of example i with respect to W is
    a_i delta_i'."""

    a_prev: np.ndarray | None
    delta: np.ndarray
    lo: int
    hi: int

    def _rows(self):
        """The rows [r0, r1) of W the columns touch, and where the columns
        start in the flattened rows."""
        dout = self.delta.shape[1]
        r0 = self.lo // dout
        return r0, -(-self.hi // dout), self.lo - r0 * dout

    def columns(self) -> np.ndarray:
        """The n x s gradient columns G, a weight block's from the outer
        products of only the rows of W it touches."""
        if self.a_prev is None:
            return self.delta[:, self.lo : self.hi]
        r0, r1, at = self._rows()
        n = self.delta.shape[0]
        gw = np.einsum("ni,nj->nij", self.a_prev[:, r0:r1], self.delta)
        return gw.reshape(n, -1)[:, at : at + self.hi - self.lo]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """G v for a vector v over the block's columns: (G v)_i =
        a_i' V delta_i with V the rows of W that v fills.  Temporaries are
        O(n * (rows + dout)).  Exact on factors and v of Python ints."""
        if self.a_prev is None:
            return self.delta[:, self.lo : self.hi] @ v
        r0, r1, at = self._rows()
        dout = self.delta.shape[1]
        w = np.zeros((r1 - r0) * dout, dtype=v.dtype)
        w[at : at + v.size] = v
        a = self.a_prev[:, r0:r1]
        return np.einsum("nj,nj->n", a @ w.reshape(r1 - r0, dout), self.delta)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """G'u for a vector u over the n examples: A' diag(u) Delta, on the
        rows of W the columns touch."""
        if self.a_prev is None:
            return self.delta[:, self.lo : self.hi].T @ u
        r0, r1, at = self._rows()
        out = self.a_prev[:, r0:r1].T @ (u[:, None] * self.delta)
        return out.reshape(-1)[at : at + self.hi - self.lo]

    def columns_at(self, cols: np.ndarray) -> np.ndarray:
        """The n x len(cols) gradient columns G[:, cols], ``cols`` indices
        into the block's columns."""
        c = self.lo + cols
        if self.a_prev is None:
            return self.delta[:, c]
        dout = self.delta.shape[1]
        return self.a_prev[:, c // dout] * self.delta[:, c % dout]

    def sample_gram(self, outer: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The lower triangle of G G', the n x n Gram of the block's
        examples, written from the factors by BLAS syrk into that of
        ``out``, a Fortran-order square whose strict upper triangle is left
        as it was: (A_R A_R') o outer over the rows R of W the columns cover
        whole (o the entrywise product; ``outer``, read only then, is the
        layer's Delta Delta' in Fortran order with ones above its
        diagonal), plus (a_r a_r') o (Delta_J Delta_J') for each row r
        covered only at columns J.  A bias block's Gram is Delta_J Delta_J'.
        Costs n^2 (rows + partial columns) / 2."""
        from scipy.linalg.blas import dsyrk  # loaded by obs, not at import

        if not out.flags.f_contiguous:  # dsyrk would write into a copy
            raise ValueError("out is not a Fortran-order square")
        whole, terms = [], [self.delta[:, self.lo : self.hi]]  # a bias block
        if self.a_prev is not None:
            r0, r1, _ = self._rows()
            dout = self.delta.shape[1]
            spans = [(r, max(self.lo - r * dout, 0),
                      min(self.hi - r * dout, dout)) for r in range(r0, r1)]
            whole = [r for r, c0, c1 in spans if c1 - c0 == dout]
            terms = [self.a_prev[:, whole[0] : whole[-1] + 1]] if whole else []
            terms += [self.a_prev[:, r, None] * self.delta[:, c0:c1]
                      for r, c0, c1 in spans if c1 - c0 < dout]
        for j, g in enumerate(terms):  # the first overwrites, the rest add
            dsyrk(1.0, g.T, beta=min(j, 1), c=out, trans=1, lower=1,
                  overwrite_c=1)
            if j == 0 and whole:
                out *= outer
        return out


def layer_grad_blocks(model: MlpModel, data: Dataset, cap: int):
    """Yield, for each layer from the last to the first, the list of
    (index, label, ``GradBlock``) of its blocks in ``column_layout(model,
    cap)``, from one backward pass, which this runs as it goes: it holds
    no layer's errors past that layer, so a caller that drops each list
    before taking the next holds one layer's factors at a time.  A part of
    a weight block may start mid-row.

    A weight part's columns are formed from the outer products of only
    the rows of W it touches, so memory is O(n * (cap + 2 * dout)) per
    part and no n x d matrix is built.
    """
    blocks = list(enumerate(column_blocks(model.layer_dims, cap)))
    check_fits(model, data)
    for li, a_prev, delta in _backprop(model.weights(), data.features,
                                       data.labels):
        yield [(i, label, GradBlock(None if bias else a_prev, delta, lo, hi))
               for i, (label, layer, bias, lo, hi) in blocks if layer == li]


def grad_blocks(model: MlpModel, data: Dataset, cap: int) -> list:
    """(label, ``GradBlock``) for each block of ``column_layout(model,
    cap)``, in order, from one backward pass (``layer_grad_blocks``),
    which this runs, so the blocks may be formed in any order, and in any
    process forked after this returns."""
    out = {}
    for layer in layer_grad_blocks(model, data, cap):
        out.update((i, (label, part)) for i, label, part in layer)
    return [out[i] for i in range(len(out))]


def grad_columns(model: MlpModel, data: Dataset, cap: int):
    """Yield (label, n x s per-example gradient columns) for each block of
    ``column_layout(model, cap)``, in order, from one backward pass
    (``grad_blocks``)."""
    for label, block in grad_blocks(model, data, cap):
        yield label, block.columns()


def per_example_grads(model: MlpModel, data: Dataset) -> np.ndarray:
    """n x d matrix of per-example gradients (vectorized per layer)."""
    out = np.empty((len(data), model.dim))
    for (sl, _), (_, cols) in zip(model.params.layout.slices(),
                                  grad_columns(model, data, model.dim)):
        out[:, sl] = cols
    return out


def batch_grad(model: MlpModel, data: Dataset) -> ParamVector:
    """Gradient of the mean loss over the dataset."""
    check_fits(model, data)
    g = np.empty(model.dim)
    _backward(model.weights(), data.features, data.labels,
              _layer_views(model.layer_dims, g))
    return model.params.with_values(g / len(data))


def mean_loss(model: MlpModel, data: Dataset) -> float:
    return float(tree_mean(per_example_losses(model, data)))


def per_example_losses(model: MlpModel, data: Dataset) -> np.ndarray:
    check_fits(model, data)
    z = logits(model, data.features)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(data)), data.labels]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _loss_bounded(layers, x_scale: float, n: int) -> bool:
    """True when a bound from the weights alone proves that the mean loss
    over any n examples with max|x| <= ``x_scale`` is finite.

    Let a = ``x_scale`` for the first layer and a = 1 for every later one,
    whose input is a tanh output in [-1, 1].  For layer (W, b) let
    B = a * max_j sum_i |W_ij| + max_j |b_j|, and let C be the number of
    classes.  The test passes when (2B + C) * n < 1e300 for every layer.
    Then:

    - every pre-activation, and every partial sum formed while computing
      it, is at most B in magnitude, far below the largest double, so no
      hidden activation is inf - inf = NaN and every logit is finite and
      at most B in magnitude;
    - in each row, z - max z lies in [-2B, 0], so the sum of its
      exponentials lies in [1, C] and its log is finite;
    - each example's loss lies in [0, 2B + log C], so the tree sum of n
      of them stays below 1e300 and their mean is finite.

    The factor 1e8 between 1e300 and the largest double absorbs rounding.
    If computing B overflows to inf, or gives NaN (0 * inf), the test
    fails and the caller must compute the loss.  The last layer's bound
    alone would not do: it assumes |tanh| <= 1, which a NaN from
    overflowing +inf and -inf partial sums in a hidden layer breaks.
    """
    classes = layers[-1][0].shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for li, (w, b) in enumerate(layers):
            a = x_scale if li == 0 else 1.0
            bound = a * np.abs(w).sum(axis=0).max() + np.abs(b).max()
            if not (2.0 * bound + classes) * n < 1e300:
                return False
    return True


def train_sgd(
    init: MlpModel,
    data: Dataset,
    cfg: TrainConfig,
    stream: str = "train",
) -> MlpModel:
    """Deterministic minibatch SGD with momentum.

    Steps in place on one parameter buffer, one velocity and one gradient,
    each allocated once per call; the per-layer (W, b) views into them are
    built once.  Each step scales the gradient in place, grad / b * lr,
    which gives the bits of lr * (grad / b).

    The parameters are checked once per epoch, after its last step.  That
    names the same epoch as a check after every step: once an entry of
    theta is inf or NaN, theta += velocity keeps it non-finite, since inf
    plus a finite number is inf, inf minus inf is NaN and NaN stays NaN.
    After each epoch the mean loss over ``data`` must be finite too; it is
    computed only when ``_loss_bounded`` cannot prove it.
    """
    check_fits(init, data)
    theta = init.params.values.copy()
    velocity = np.zeros_like(theta)
    grad = np.empty_like(theta)
    layers = _layer_views(init.layer_dims, theta)
    grads = _layer_views(init.layer_dims, grad)
    x, y = data.features, data.labels
    x_scale = float(np.abs(x).max())
    n = len(data)
    # overflow and NaN are caught by the checks below, which name the
    # epoch; numpy's warnings about them, also from the steps after a
    # divergence within an epoch, would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            rng = stream_rng(cfg.seed, f"{stream}/shuffle/epoch-{epoch}")
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _backward(layers, x[idx], y[idx], grads)
                grad /= len(idx)
                grad *= cfg.learning_rate
                velocity *= MOMENTUM
                velocity -= grad
                theta += velocity
            if not np.isfinite(theta).all():
                raise NumericError(f"parameters diverged at epoch {epoch}")
            if not _loss_bounded(layers, x_scale, n):
                loss = mean_loss(init.with_params(theta.copy()), data)
                if not np.isfinite(loss):
                    raise NumericError(f"loss diverged at epoch {epoch}")
    return init.with_params(theta)


def personalize(model: MlpModel, d_p: Dataset, cfg: TrainConfig) -> MlpModel:
    """Short-horizon full-parameter SGD on the client's data."""
    return train_sgd(model, d_p, cfg, stream="personalize")


# ---------------------------------------------------------------------------
# synthetic task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTask:
    """Gaussian-mixture class-unlearning instance.

    D is the pretraining corpus, D_f all samples of the forgotten class,
    D_r the rest; D_p draws the retained classes with mean shift
    `shift`.  Held-out twins of each split support evaluation and MIA.
    """

    train: Dataset
    forget: Dataset
    retain: Dataset
    personal: Dataset
    holdout_forget: Dataset
    holdout_personal: Dataset


def make_synthetic_task(
    seed: int,
    n_per_class: int = 150,
    dim: int = 8,
    n_classes: int = 4,
    forget_class: int = 3,
    shift: float = 4.0,
    spread: float = 2.0,
    noise: float = 1.6,
    n_personal_per_class: int = 80,
) -> SyntheticTask:
    rng = stream_rng(seed, "synthetic")
    means = rng.normal(0.0, spread, size=(n_classes, dim))

    def draw(cls_list, count, mean_shift, rng_local):
        xs, ys = [], []
        for c in cls_list:
            mu = means[c] + mean_shift
            xs.append(rng_local.normal(mu, noise, size=(count, dim)))
            ys.append(np.full(count, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

    all_classes = list(range(n_classes))
    retained = [c for c in all_classes if c != forget_class]

    x, y = draw(all_classes, n_per_class, 0.0, stream_rng(seed, "data/train"))
    train = Dataset(features=x, labels=y, name="train")
    mask_f = train.labels == forget_class
    forget = train.subset(mask_f, name="forget")
    retain = train.subset(~mask_f, name="retain")

    shift_vec = np.full(dim, shift) / np.sqrt(dim)
    xp, yp = draw(
        retained, n_personal_per_class, shift_vec, stream_rng(seed, "data/personal")
    )
    personal = Dataset(features=xp, labels=yp, name="personal")

    xhf, yhf = draw(
        [forget_class], n_per_class, 0.0, stream_rng(seed, "data/holdout-forget")
    )
    holdout_forget = Dataset(features=xhf, labels=yhf, name="holdout-forget")
    xhp, yhp = draw(
        retained, n_personal_per_class, shift_vec,
        stream_rng(seed, "data/holdout-personal"),
    )
    holdout_personal = Dataset(
        features=xhp, labels=yhp, name="holdout-personal"
    )
    return SyntheticTask(
        train=train,
        forget=forget,
        retain=retain,
        personal=personal,
        holdout_forget=holdout_forget,
        holdout_personal=holdout_personal,
    )
