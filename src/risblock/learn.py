"""Ternary link-status classifier: a small two-layer perceptron over pooled
image features plus a scalar rate feature, trained with minibatch SGD.

Architecture: the image feature block feeds a rectified hidden layer (64
units by default); the rate feature is appended to the hidden activations,
so the output layer sees hidden+1 inputs and emits 3 logits — absent, clear,
blocked. All math is float64 numpy and bit-deterministic for a fixed seed.

Every function takes a batch in one convention: an (N, d) image block, an
(N,) rate column and, where labels are needed, (N,) class indices. Without a
camera the block is a zero-stride np.broadcast_to(0.0, (N, d)).

Labels on the wire are {-1, 0, 1} (absent, clear, blocked); class_indices
maps them to the model's class indices {0, 1, 2}, in that order, and a
prediction maps back as argmax - 1. Features are standardized with
training-split statistics kept alongside the weights, the d image columns
then the rate; a constant feature gets scale 0 so masked-out blocks stay
exactly zero through the whole chain.
"""

import json
import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from risblock._files import MODEL_HEADER_TABLE, checked_json

LABELS = (-1, 0, 1)

DEFAULT_HIDDEN_UNITS = 64
N_CLASSES = 3

PROBABILITY_FLOOR = 1e-12

MODEL_MAGIC = "risblock-mlp 1"


def class_indices(labels):
    """The class indices {0, 1, 2} of link-status labels {-1, 0, 1}: label + 1,
    as int64. Any other value raises ValueError."""
    labels = np.asarray(labels)
    unknown = ~np.isin(labels, LABELS)
    if unknown.any():
        raise ValueError(f"unknown label {labels[unknown][0].item()!r}; "
                         f"expected one of {LABELS}")
    return labels.astype(np.int64) + 1


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters; defaults are the tuned desk-scale recipe."""

    batch_size: int = 50
    learning_rate: float = 1e-3
    weight_decay: float = 2e-3
    schedule_epochs: tuple = (5, 8)
    lr_reduction_factor: float = 0.2
    epochs: int = 10
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be finite and >= 0")
        if not 0 < self.lr_reduction_factor <= 1:
            raise ValueError("lr_reduction_factor must lie in (0, 1]")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if min(self.schedule_epochs, default=1) < 1:
            raise ValueError("schedule_epochs entries must be >= 1")
        object.__setattr__(self, "schedule_epochs",
                           tuple(sorted(int(e) for e in self.schedule_epochs)))


@dataclass(frozen=True)
class MlpParams:
    """Weights of the two-layer classifier (also reused to carry gradients).

    w1: (n_image_features, n_hidden)    b1: (n_hidden,)
    w2: (n_hidden + 1, n_classes)       b2: (n_classes,)
    The extra w2 row weights the rate feature appended after the hidden layer.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        w1, b1, w2, b2 = (np.asarray(a, dtype=np.float64)
                          for a in (self.w1, self.b1, self.w2, self.b2))
        if w1.ndim != 2 or w2.ndim != 2 or b1.ndim != 1 or b2.ndim != 1:
            raise ValueError("w1/w2 must be 2-D and b1/b2 1-D")
        if b1.shape[0] != w1.shape[1]:
            raise ValueError("b1 length must equal the hidden width")
        if w2.shape[0] != w1.shape[1] + 1:
            raise ValueError("w2 must have hidden+1 input rows (rate appended)")
        if b2.shape[0] != w2.shape[1]:
            raise ValueError("b2 length must equal the class count")
        for name, a in zip(("w1", "b1", "w2", "b2"), (w1, b1, w2, b2)):
            if a.size and not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, a)

    @property
    def n_image_features(self):
        return self.w1.shape[0]

    @property
    def n_hidden(self):
        return self.w1.shape[1]

    @property
    def n_classes(self):
        return self.w2.shape[1]

    def arrays(self):
        return (("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2))


def init_params(n_image_features, rng, n_hidden=DEFAULT_HIDDEN_UNITS):
    """Seeded zero-mean normal init with std 1/sqrt(fan_in); zero biases."""
    w1 = rng.normal(0.0, 1.0 / math.sqrt(max(n_image_features, 1)),
                    size=(n_image_features, n_hidden))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(n_hidden + 1),
                    size=(n_hidden + 1, N_CLASSES))
    return MlpParams(w1=w1, b1=np.zeros(n_hidden), w2=w2, b2=np.zeros(N_CLASSES))


@dataclass(frozen=True)
class Standardization:
    """Per-feature z-scoring statistics fit on the training split.

    Features with zero spread get scale 0, so a constant (e.g. masked)
    feature standardizes to exactly 0 rather than NaN.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean/std must be 1-D and congruent")
        if std.size and np.any(std < 0):
            raise ValueError("std must be nonnegative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def apply(self, image, rate):
        """The z-scores of an (image block, rate column) pair, as a new pair.
        A block whose rows are all one row (row stride 0, as a zero block
        from np.broadcast_to) comes back as one: its row standardized once."""
        image, rate = _pair(image, rate)
        scale = np.divide(1.0, self.std, out=np.zeros_like(self.std),
                          where=self.std > 0)
        rows = image[:1] if image.strides[0] == 0 else image
        # one temporary of the block's size: the difference, scaled in place
        centered = rows - self.mean[:-1]
        centered *= scale[:-1]
        if rows is not image:
            centered = np.broadcast_to(centered, image.shape)
        return centered, (rate - self.mean[-1]) * scale[-1]


def _pair(image, rate):
    """image and rate as float64 arrays, checked: (N, d) and (N,), N >= 1."""
    image, rate = np.asarray(image, np.float64), np.asarray(rate, np.float64)
    if image.ndim != 2 or rate.shape != image.shape[:1] or not rate.size:
        raise ValueError(f"expected an (N, d) image block and an (N,) rate "
                         f"column, N >= 1, got {image.shape} and {rate.shape}")
    return image, rate


def fit_standardization(image, rate):
    """Population mean/std of each feature of an (image block, rate column)
    pair: the d image columns, then the rate.

    Every sum runs down its column one row at a time, as numpy's axis-0
    reduce does over a matrix, so for d >= 1 the statistics equal those of
    the (N, d+1) matrix [image | rate] bit for bit (rate.mean() would not:
    numpy sums a lone column pairwise). No (N, d) temporary is made.
    """
    image, rate = _pair(image, rate)
    n = rate.shape[0]
    mean = np.append(reduce(np.add, image), reduce(np.add, rate)) / n
    squares = (np.square(row - mean[:-1]) for row in image)
    var = np.append(reduce(np.add, squares),
                    reduce(np.add, np.square(rate - mean[-1]))) / n
    return Standardization(mean=mean, std=np.sqrt(var))


def softmax(logits):
    """Stable softmax over the last axis.

    The maximum and the sum run over the columns one at a time: for an axis
    shorter than 8 that is the order numpy's own reduce adds in, so the
    bytes equal logits.max/expz.sum over axis=-1, at a fifth of the time on
    the N_CLASSES columns of a (1400, 3) array. A longer axis gets the same
    softmax, rounded differently.
    """
    logits = np.asarray(logits, dtype=np.float64)
    top = logits[..., :1]
    for j in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., j:j + 1])
    expz = logits - top
    np.exp(expz, out=expz)
    total = expz[..., :1].copy()
    for j in range(1, expz.shape[-1]):
        total += expz[..., j:j + 1]
    expz /= total
    return expz


def forward(params, image, rate):
    """Class probabilities (absent, clear, blocked) of the rows of an (image
    block, rate column) pair, plus the caches backprop needs:
    (probs, z_in, pre)."""
    image, rate = _pair(image, rate)
    pre = image @ params.w1
    pre += params.b1  # in place: one N x hidden temporary fewer
    hidden = np.maximum(pre, 0.0)
    z_in = np.concatenate([hidden, rate[:, None]], axis=1)
    logits = z_in @ params.w2 + params.b2
    return softmax(logits), z_in, pre


def cross_entropy(b, label_index):
    """Negative log-likelihood of the labeled class, floored at 1e-12."""
    if label_index not in (0, 1, 2):
        raise ValueError(f"label_index must be 0, 1 or 2, got {label_index!r}")
    return -math.log(max(float(np.asarray(b)[label_index]), PROBABILITY_FLOOR))


def _mean_loss(probs, label_indices):
    """Mean cross-entropy of a batch, one math.log per row: np.log's bytes
    depend on numpy's SIMD dispatch."""
    return float(np.mean([cross_entropy(p, int(i))
                          for p, i in zip(probs, label_indices)]))


def backward(params, image, rate, label_indices, weight_decay):
    """Batch probabilities, the gradient of mean cross-entropy (+ L2 pull
    on weights, biases undecayed) and the loss gradient at the hidden
    pre-activations: (probs, gradient MlpParams, dhidden)."""
    image, rate = _pair(image, rate)
    probs, z_in, pre = forward(params, image, rate)
    n = rate.shape[0]
    dz = probs.copy()
    dz[np.arange(n), label_indices] -= 1.0
    dz /= n
    gw2 = z_in.T @ dz + weight_decay * params.w2
    gb2 = dz.sum(axis=0)
    dhidden = dz @ params.w2[:-1].T
    dhidden[pre <= 0.0] = 0.0
    gw1 = image.T @ dhidden + weight_decay * params.w1
    gb1 = dhidden.sum(axis=0)
    return probs, MlpParams(w1=gw1, b1=gb1, w2=gw2, b2=gb2), dhidden


def lr_schedule(epoch, cfg):
    """Base rate cut by the reduction factor at each schedule epoch reached."""
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    drops = sum(1 for e in cfg.schedule_epochs if e <= epoch)
    return cfg.learning_rate * cfg.lr_reduction_factor ** drops


def sgd_step(params, grads, lr):
    """One descent step; returns new params, inputs untouched."""
    return MlpParams(w1=params.w1 - lr * grads.w1,
                     b1=params.b1 - lr * grads.b1,
                     w2=params.w2 - lr * grads.w2,
                     b2=params.b2 - lr * grads.b2)


class _TrainingSetScorer:
    """The accuracy of each step's network on the whole training set, from
    arrays made once per fit.

    A dead image column, all zeros, adds nothing to the hidden layer, so
    the pre-activations P = x_live @ w1[live] of the live ones are followed
    from step to step, not multiplied again. A step moves w1 by
    -lr * (x_b.T @ dhidden + weight_decay * w1), x_b the batch rows, so P
    moves by -lr * (G[batch].T @ dhidden + weight_decay * P), with the Gram
    matrix G = x_live @ x_live.T made once (15.7 MB at 1400 rows, 98 MB at
    3500): n_train x batch x hidden multiply-adds a step, not n_train x
    live x hidden. P drifts from the product in its last bits, but only
    each row's argmax is recorded, which moves only if its top two classes
    lie within rounding of each other.

    With no live column (no camera) every image @ w1 and image.T @ dhidden
    is exactly 0.0, so `width`, the image columns the SGD passes use, is 0;
    G is not built and P is one (1, hidden) row of zeros that never moves.
    Otherwise `width` is the whole block: the SGD passes fix the model bytes.
    z holds the output layer's inputs, the hidden block then the rate column
    (written once); logits holds z @ w2 + b2.
    """

    def __init__(self, image, rate, label_indices, params):
        live = image.any(axis=0)
        self.width = image.shape[1] if live.any() else 0
        self.z = np.empty((rate.shape[0], params.n_hidden + 1))
        self.z[:, -1] = rate
        self.logits = np.empty((rate.shape[0], N_CLASSES))
        self.label_indices = label_indices
        if self.width:
            x_live = image[:, live]
            self.gram = x_live @ x_live.T
            self.pre = x_live @ params.w1[live]
            self.hidden = self.z[:, :-1]
        else:
            self.pre = np.zeros((1, params.n_hidden))
            self.hidden = np.empty_like(self.pre)

    def step(self, take, dhidden, lr, weight_decay):
        """Follow one sgd_step of w1 on the batch rows `take`."""
        if self.width:
            self.pre *= 1.0 - lr * weight_decay
            self.pre -= lr * (self.gram[take].T @ dhidden)

    def accuracy(self, params):
        """Fraction of the training rows whose argmax class is their label."""
        np.add(self.pre, params.b1, out=self.hidden)
        np.maximum(self.hidden, 0.0, out=self.hidden)
        self.z[:, :-1] = self.hidden  # no work when hidden is z's own view
        np.matmul(self.z, params.w2, out=self.logits)
        self.logits += params.b2
        probs = softmax(self.logits)
        return float(np.mean(np.argmax(probs, axis=1) == self.label_indices))


def train(image, rate, labels, cfg):
    """Minibatch SGD over an (N, d) image block, its (N,) rate column and
    {-1,0,1} labels.

    Returns (params, history) where history holds one row per iteration:
    (iteration, epoch, lr, batch_loss, train_accuracy). The batch loss is the
    mean cross-entropy before the step; the accuracy is measured on the full
    training set after it (see _TrainingSetScorer). The parameters are drawn
    from cfg.seed, and the same seed also fixes the shuffling, so a run is
    bit-reproducible.

    The SGD passes run on the scorer's `width` image columns, all or none;
    the rows of w1 past them meet only zeros and move by weight decay alone.
    """
    image, rate = _pair(image, rate)
    label_indices = class_indices(labels)
    if label_indices.shape != rate.shape:
        raise ValueError("labels and features must have equal length")

    rng = np.random.default_rng(cfg.seed)
    params = init_params(image.shape[1], rng)
    scorer = _TrainingSetScorer(image, rate, label_indices, params)
    image, rest = image[:, :scorer.width], params.w1[scorer.width:]
    params = replace(params, w1=params.w1[:scorer.width])

    n = rate.shape[0]
    history = []
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_schedule(epoch, cfg)
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            take = order[start:start + cfg.batch_size]
            batch_labels = label_indices[take]
            probs, grads, dhidden = backward(params, image[take], rate[take],
                                             batch_labels, cfg.weight_decay)
            batch_loss = _mean_loss(probs, batch_labels)
            params = sgd_step(params, grads, lr)
            rest = rest - lr * (0.0 + cfg.weight_decay * rest)
            scorer.step(take, dhidden, lr, cfg.weight_decay)
            history.append((len(history) + 1, epoch, lr, batch_loss,
                            scorer.accuracy(params)))
    return replace(params, w1=np.concatenate([params.w1, rest])), history


def accuracy(params, image, rate, label_indices):
    """Fraction of the rows of an (image block, rate column) pair whose
    argmax class matches the label index."""
    probs, _, _ = forward(params, image, rate)
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(label_indices)))


def _decayed_loss(params, image, rate, label_indices, weight_decay):
    return (_mean_loss(forward(params, image, rate)[0], label_indices)
            + 0.5 * weight_decay * (float(np.sum(params.w1 ** 2))
                                    + float(np.sum(params.w2 ** 2))))


def grad_check(params, image, rate, label_indices, h=1e-5, weight_decay=0.0):
    """Max relative error between the analytic and the central-difference
    gradients of the batch's mean loss.

    Every parameter is perturbed by +-h; the relative error denominator is
    floored at 1e-4 so near-zero gradient pairs compare absolutely. Zero
    parameters to check yields 0.0.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if sum(a.size for _, a in params.arrays()) == 0:
        return 0.0
    analytic = dict(backward(params, image, rate, label_indices,
                             weight_decay)[1].arrays())
    worst = 0.0
    for name, values in params.arrays():
        for i in range(values.size):
            losses = []
            for offset in (h, -h):
                bumped = values.copy()
                bumped.ravel()[i] += offset
                losses.append(_decayed_loss(replace(params, **{name: bumped}),
                                            image, rate, label_indices,
                                            weight_decay))
            numeric = (losses[0] - losses[1]) / (2.0 * h)
            a = float(analytic[name].ravel()[i])
            err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-4)
            worst = max(worst, err)
    return worst


def save_model(path, params, standardization):
    """Write params + standardization: a text header, then raw float64 bytes.

    Layout: one magic line, one JSON line (shape table and feature count),
    then the little-endian float64 payload — w1, b1, w2, b2, mean, std, each
    C-order. Byte-identical for identical inputs.
    """
    if standardization.mean.shape[0] != params.n_image_features + 1:
        raise ValueError("standardization must cover image features + rate")
    header = {
        "shapes": {name: list(a.shape) for name, a in params.arrays()},
        "n_features": int(standardization.mean.shape[0]),
    }
    with open(path, "wb") as fh:
        fh.write((MODEL_MAGIC + "\n").encode("ascii"))
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for _, a in params.arrays():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(standardization.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(standardization.std, dtype="<f8").tobytes())


def load_model(path):
    """Read a model file back into (MlpParams, Standardization).

    The header must pass MODEL_HEADER_TABLE, its feature count must be w1's
    row count + 1, as save_model writes it, and the payload must hold
    exactly the floats the header's shapes and feature count call for;
    anything else raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", "replace").strip()
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not a model file (magic {magic!r})")
        header = checked_json(path, fh.readline(), MODEL_HEADER_TABLE)
        payload = fh.read()
    names = ("w1", "b1", "w2", "b2")
    d = header["n_features"]
    shapes = [tuple(header["shapes"][name]) for name in names] + [(d,), (d,)]
    if d != shapes[0][0] + 1:
        raise ValueError(f"{path}: model header gives n_features {d}, not "
                         f"w1's rows + 1 for a w1 of shape {list(shapes[0])}")
    sizes = [math.prod(shape) for shape in shapes]
    if len(payload) != 8 * sum(sizes):
        raise ValueError(
            f"{path}: model payload is {len(payload)} bytes, its header calls "
            f"for {8 * sum(sizes)}")
    flat = np.frombuffer(payload, dtype="<f8")
    blocks = [block.reshape(shape).copy() for block, shape
              in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    try:  # shapes that disagree, a negative scale, a non-finite weight
        return (MlpParams(**dict(zip(names, blocks[:4]))),
                Standardization(mean=blocks[4], std=blocks[5]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
