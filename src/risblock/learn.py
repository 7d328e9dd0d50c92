"""Ternary link-status classifier: a small two-layer perceptron over pooled
image features plus a scalar rate feature, trained with minibatch SGD.

Architecture: the image feature block feeds a rectified hidden layer (64
units by default); the rate feature is appended to the hidden activations,
so the output layer sees hidden+1 inputs and emits 3 logits — absent, clear,
blocked. All math is float64 numpy and bit-deterministic for a fixed seed.

Labels on the wire are {-1, 0, 1} (absent, clear, blocked); class indices
inside the model are {0, 1, 2} in that order. Features are standardized with
training-split statistics kept alongside the weights; a constant feature gets
scale 0 so masked-out blocks stay exactly zero through the whole chain.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

LABELS = (-1, 0, 1)
_LABEL_TO_INDEX = {-1: 0, 0: 1, 1: 2}

DEFAULT_HIDDEN_UNITS = 64
N_CLASSES = 3

PROBABILITY_FLOOR = 1e-12

MODEL_MAGIC = "risblock-mlp 1"


def label_to_index(label):
    """Map a link-status value in {-1, 0, 1} to a class index in {0, 1, 2}."""
    try:
        return _LABEL_TO_INDEX[int(label)]
    except KeyError:
        raise ValueError(f"unknown label {label!r}; expected one of {LABELS}") from None


def index_to_label(index):
    """Inverse of label_to_index."""
    if index not in (0, 1, 2):
        raise ValueError(f"class index must be 0, 1 or 2, got {index!r}")
    return LABELS[index]


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
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

    def apply(self, features):
        features = np.asarray(features, dtype=np.float64)
        scale = np.divide(1.0, self.std, out=np.zeros_like(self.std),
                          where=self.std > 0)
        # one full-size temporary: the difference, scaled in place
        centered = features - self.mean
        centered *= scale
        return centered


def fit_standardization(features):
    """Population mean/std per column of an (N, d) feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a non-empty (N, d) matrix")
    return Standardization(mean=features.mean(axis=0), std=features.std(axis=0))


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


def _split_features(params, features):
    d = params.n_image_features
    if features.shape[1] != d + 1:
        raise ValueError(
            f"expected {d + 1} feature columns (image block + rate), "
            f"got {features.shape[1]}")
    return features[:, :d], features[:, d]


def _forward_batch(params, features):
    """Probabilities plus the caches backprop needs: (probs, z_in, pre)."""
    x_img, rate = _split_features(params, features)
    pre = x_img @ params.w1
    pre += params.b1  # in place: one N x hidden temporary fewer
    hidden = np.maximum(pre, 0.0)
    z_in = np.concatenate([hidden, rate[:, None]], axis=1)
    logits = z_in @ params.w2 + params.b2
    return softmax(logits), z_in, pre


def forward(params, image_features, rate_feature):
    """Class probabilities (absent, clear, blocked) for one sample."""
    image_features = np.asarray(image_features, dtype=np.float64).ravel()
    if image_features.shape[0] != params.n_image_features:
        raise ValueError(
            f"expected {params.n_image_features} image features, "
            f"got {image_features.shape[0]}")
    row = np.concatenate([image_features, [float(rate_feature)]])[None, :]
    probs, _, _ = _forward_batch(params, row)
    return probs[0]


def cross_entropy(b, label_index):
    """Negative log-likelihood of the labeled class, floored at 1e-12."""
    if label_index not in (0, 1, 2):
        raise ValueError(f"label_index must be 0, 1 or 2, got {label_index!r}")
    return -math.log(max(float(np.asarray(b)[label_index]), PROBABILITY_FLOOR))


def argmax_index(b):
    """Index of the largest probability; ties go to the lowest index."""
    b = np.asarray(b)
    if b.size == 0:
        raise ValueError("argmax_index of an empty vector")
    return int(np.argmax(b))


def _batch_to_arrays(batch):
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    imgs = np.stack([np.asarray(feats[0], dtype=np.float64).ravel()
                     for feats, _ in batch])
    rates = np.array([float(feats[1]) for feats, _ in batch])
    labels = np.array([int(label) for _, label in batch])
    return np.concatenate([imgs, rates[:, None]], axis=1), labels


def _gradients(params, features, label_indices, weight_decay):
    """Batch probabilities, the gradient of mean cross-entropy (+ L2 pull
    on weights) and the loss gradient at the hidden pre-activations:
    (probs, gradient MlpParams, dhidden)."""
    probs, z_in, pre = _forward_batch(params, features)
    n = features.shape[0]
    dz = probs.copy()
    dz[np.arange(n), label_indices] -= 1.0
    dz /= n
    gw2 = z_in.T @ dz + weight_decay * params.w2
    gb2 = dz.sum(axis=0)
    dhidden = dz @ params.w2[:-1].T
    dhidden[pre <= 0.0] = 0.0
    x_img = features[:, :params.n_image_features]
    gw1 = x_img.T @ dhidden + weight_decay * params.w1
    gb1 = dhidden.sum(axis=0)
    return probs, MlpParams(w1=gw1, b1=gb1, w2=gw2, b2=gb2), dhidden


def backward(params, batch, weight_decay=0.0):
    """Gradients for a batch of ((image_features, rate_feature), label_index).

    Returns an MlpParams carrying the gradient arrays: mean cross-entropy
    over the batch plus weight_decay * w on each weight matrix (biases
    undecayed).
    """
    features, labels = _batch_to_arrays(batch)
    return _gradients(params, features, labels, weight_decay)[1]


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


def _without_image_block(params):
    """The same network with a zero-width image block: its hidden layer sees
    0.0 + b1, which is what an all-zero image block gives it."""
    return replace(params, w1=params.w1[:0])


class _LivePreactivations:
    """The training set's live-column pre-activations P = x_live @ w1[live],
    kept from step to step instead of recomputed.

    An SGD step moves w1 by -lr * (x_b.T @ dhidden + weight_decay * w1),
    where x_b holds the batch rows. Its dead columns are zero, so P moves by
    -lr * (G[:, batch] @ dhidden + weight_decay * P), with the Gram matrix
    G = x_live @ x_live.T computed once: n_train x batch x hidden
    multiply-adds a step, against n_train x live x hidden for the product.
    """

    def __init__(self, x_live, w1_live):
        self.gram = x_live @ x_live.T
        self.pre = x_live @ w1_live

    def step(self, take, dhidden, lr, weight_decay):
        """Follow one sgd_step of w1 on the batch rows `take`."""
        self.pre *= 1.0 - lr * weight_decay
        self.pre -= lr * (self.gram[take].T @ dhidden)


class _TrainingSetScorer:
    """The accuracy of each step's network on the whole training set, in
    buffers made once per fit.

    z holds the output layer's inputs: the hidden block, rewritten in place
    every step, then the rate column, written once. logits holds z @ w2 + b2.
    The hidden block is max(P + b1, 0) with P from `tracked`, or, without
    one (an all-zero image block), max(0.0 + b1, 0) on every row: what the
    forward pass gives those rows, without its temporaries.
    """

    def __init__(self, rate, label_indices, n_hidden, tracked):
        self.z = np.empty((rate.shape[0], n_hidden + 1))
        self.z[:, -1] = rate
        self.logits = np.empty((rate.shape[0], N_CLASSES))
        self.label_indices = label_indices
        self.tracked = tracked

    def accuracy(self, params):
        """Fraction of the training rows whose argmax class is their label."""
        hidden = self.z[:, :-1]
        if self.tracked is None:
            hidden[:] = np.maximum(0.0 + params.b1, 0.0)
        else:
            np.add(self.tracked.pre, params.b1, out=hidden)
            np.maximum(hidden, 0.0, out=hidden)
        np.matmul(self.z, params.w2, out=self.logits)
        self.logits += params.b2
        probs = softmax(self.logits)
        return float(np.mean(np.argmax(probs, axis=1) == self.label_indices))


def train(features, labels, cfg):
    """Minibatch SGD over an (N, d_img+1) feature matrix and {-1,0,1} labels.

    Returns (params, history) where history holds one row per iteration:
    (iteration, epoch, lr, batch_loss, train_accuracy). The batch loss is the
    mean cross-entropy before the step; the accuracy is measured on the full
    training set after it. The parameters are drawn from cfg.seed, and the
    same seed also fixes the shuffling, so a run is bit-reproducible.

    When the image block is all zeros (the scenarios without a camera), every
    x_img @ w1 and x_img.T @ dhidden product is exactly 0.0. The passes then
    run on the rate column with a zero-width w1 and w1 moves by its weight
    decay alone: the same values without the image-block matmuls.

    Otherwise the accuracy pass reads only the live image columns, those
    with a nonzero value, and multiplies them once per fit, not once per
    step: it keeps their pre-activations P = x_live @ w1[live]. After
    each step P is scaled by 1 - lr * weight_decay and moved by
    -lr * G[batch].T @ dhidden, with the Gram matrix G = x_live @ x_live.T
    computed once per fit (see _LivePreactivations). At 1400 training rows,
    324 live columns and batches of 50, that is about 9 MFLOP a step against
    58 MFLOP for the product, and G costs about 1.3 GFLOP once. G holds
    n_train**2 float64 values: 15.7 MB at 1400 rows (n=2000 at the default
    split) and 98 MB at 3500 (n=5000), freed when the fit ends. P drifts
    from the direct product in its last bits, and the logits with it, but
    only their argmax is recorded; it moves only if a row's top two classes
    lie within rounding of each other. The SGD passes stay full width: they
    fix the model bytes.

    Either way the accuracy pass writes into an (N, hidden+1) and an (N, 3)
    array made once per fit (see _TrainingSetScorer), not into a new
    concatenated matrix every step.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a non-empty (N, d) matrix")
    label_indices = np.array([label_to_index(l) for l in labels])
    if label_indices.shape[0] != features.shape[0]:
        raise ValueError("labels and features must have equal length")

    rng = np.random.default_rng(cfg.seed)
    params = init_params(features.shape[1] - 1, rng)

    x_img, rate = _split_features(params, features)
    live = x_img.any(axis=0)
    if live.any():
        tracked = _LivePreactivations(x_img[:, live], params.w1[live])
        net = params
    else:
        tracked = None
        features = features[:, -1:]
        net = _without_image_block(params)
    scorer = _TrainingSetScorer(rate, label_indices, params.n_hidden, tracked)

    n = features.shape[0]
    history = []
    iteration = 0
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_schedule(epoch, cfg)
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            take = order[start:start + cfg.batch_size]
            batch_labels = label_indices[take]
            probs, grads, dhidden = _gradients(net, features[take],
                                               batch_labels, cfg.weight_decay)
            batch_loss = float(np.mean([
                cross_entropy(probs[i], int(batch_labels[i]))
                for i in range(take.shape[0])]))
            if tracked is None:
                grads = replace(grads, w1=0.0 + cfg.weight_decay * params.w1)
            params = sgd_step(params, grads, lr)
            if tracked is None:
                net = _without_image_block(params)
            else:
                net = params
                tracked.step(take, dhidden, lr, cfg.weight_decay)
            iteration += 1
            history.append((iteration, epoch, lr, batch_loss,
                            scorer.accuracy(params)))
    return params, history


def accuracy(params, features, label_indices):
    """Fraction of the rows of an (N, d+1) feature matrix whose argmax class
    matches the label index."""
    probs, _, _ = _forward_batch(params, np.asarray(features, dtype=np.float64))
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(label_indices)))


def _decayed_loss(params, image_features, rate_feature, label_index,
                  weight_decay):
    loss = cross_entropy(forward(params, image_features, rate_feature),
                         label_index)
    if weight_decay:
        loss += 0.5 * weight_decay * (float(np.sum(params.w1 ** 2))
                                      + float(np.sum(params.w2 ** 2)))
    return loss


def grad_check(params, sample, h=1e-5, weight_decay=0.0):
    """Max relative error between analytic and central-difference gradients.

    sample is ((image_features, rate_feature), label_index). Every parameter
    is perturbed by +-h; the relative error denominator is floored at 1e-4 so
    near-zero gradient pairs compare absolutely. Zero parameters to check
    yields 0.0.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if sum(a.size for _, a in params.arrays()) == 0:
        return 0.0
    (image_features, rate_feature), label_index = sample
    analytic = backward(params, [sample], weight_decay)
    fields = dict(params.arrays())
    worst = 0.0
    for name, values in params.arrays():
        grad = dict(analytic.arrays())[name]
        flat = values.ravel()
        for i in range(flat.size):
            def loss_at(offset, _name=name, _i=i):
                bumped = dict(fields)
                arr = bumped[_name].copy()
                arr.ravel()[_i] += offset
                bumped[_name] = arr
                return _decayed_loss(MlpParams(**bumped), image_features,
                                     rate_feature, label_index, weight_decay)
            numeric = (loss_at(h) - loss_at(-h)) / (2.0 * h)
            a = float(grad.ravel()[i])
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

    The payload must hold exactly the floats the header's shapes and feature
    count call for; trailing or missing bytes raise ValueError.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii").strip()
        if magic != MODEL_MAGIC:
            raise ValueError(f"not a model file (magic {magic!r})")
        header = json.loads(fh.readline().decode("ascii"))
        payload = fh.read()
    names = ("w1", "b1", "w2", "b2")
    d = int(header["n_features"])
    shapes = [tuple(header["shapes"][name]) for name in names] + [(d,), (d,)]
    sizes = [math.prod(shape) for shape in shapes]
    if len(payload) != 8 * sum(sizes):
        raise ValueError(
            f"model payload is {len(payload)} bytes, its header calls for "
            f"{8 * sum(sizes)}")
    flat = np.frombuffer(payload, dtype="<f8")
    blocks = [block.reshape(shape).copy() for block, shape
              in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    return (MlpParams(**dict(zip(names, blocks[:4]))),
            Standardization(mean=blocks[4], std=blocks[5]))
