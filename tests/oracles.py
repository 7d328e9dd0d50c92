"""Naive reference implementations used as independent test oracles.

The physics oracles are written with scalar ``math``/``cmath`` loops — no
numpy, no vectorization, no precomputation, no code shared with the package —
so a disagreement with the production path cannot have a common cause.

The training references are the exception. ``reference_train`` is the
plain three-pass SGD loop, which runs the full forward pass for the batch
loss, again for the gradient and over the whole training set, every column
of it, for the accuracy curve, and always multiplies the image block.
``reference_live_column_train`` is ``train``'s loop with a direct forward
pass over the live image columns for the accuracy curve, where ``train``
keeps those columns' pre-activations from step to step. Both keep numpy
and the package's operation order because ``train`` must match them byte
for byte; they share only the parameter container, the initialisation,
the learning-rate schedule, the loss and the SGD step with the package.
Their softmax is ``reference_softmax``, numpy's last-axis max and sum
reduces, where the package reduces over the class columns one at a
time.

The dataset references (``reference_images_bytes``, ``reference_content_hash``)
serialize every image at once through one stacked array, where the package
hashes and writes one sample at a time. They share only the features.csv
writer with the package.
"""

import cmath
import hashlib
import math
from dataclasses import replace

import numpy as np

from risblock.dataset import _features_csv
from risblock.learn import (MlpParams, cross_entropy, init_params,
                            label_to_index, lr_schedule, sgd_step)

TWO_PI = 2.0 * math.pi


def naive_sinc(x):
    if x == 0.0:
        return 1.0
    return math.sin(math.pi * x) / (math.pi * x)


def naive_accumulate(coeffs, row_rates, col_rates, n_rows, n_cols):
    """Triple-loop steering-sum: out[r][c] = sum_k coeffs[k] e^{j rr r} e^{j cr c}."""
    out = [[0j for _ in range(n_cols)] for _ in range(n_rows)]
    for k in range(len(coeffs)):
        for r in range(n_rows):
            for c in range(n_cols):
                out[r][c] += (complex(coeffs[k])
                              * cmath.exp(1j * float(row_rates[k]) * r)
                              * cmath.exp(1j * float(col_rates[k]) * c))
    return out


def _coeff(path, k, k_total, carrier_hz, doppler_hz):
    phi = (TWO_PI * carrier_hz * path.delay_s
           - TWO_PI * doppler_hz * path.sampling_time_s * math.cos(path.azimuth_rad)
           - path.elevation_rad)
    pulse = 0.0
    for d in range(path.cyclic_prefix_count):
        pulse += naive_sinc(d * path.sampling_time_s - path.delay_s)
    return complex(path.amplitude) * cmath.exp(-1j * (k / k_total) * phi) * pulse


def _rate(spacing, azimuth, elevation):
    return TWO_PI * spacing * math.sin(azimuth) * math.cos(elevation)


def naive_bs_ue(paths, carrier_hz, doppler_hz, n_antennas, spacing):
    """Scalar evaluation of the direct-link gain vector, one antenna at a time."""
    out = [0j] * n_antennas
    k_total = len(paths)
    for k, path in enumerate(paths, start=1):
        coeff = _coeff(path, k, k_total, carrier_hz, doppler_hz)
        rate = _rate(spacing, path.azimuth_rad, path.elevation_rad)
        for m in range(n_antennas):
            out[m] += coeff * cmath.exp(1j * rate * m)
    return out


def naive_bs_ris(paths, departures, carrier_hz, n_elements, n_antennas, spacing):
    """Scalar evaluation of the station->surface gain matrix (no Doppler)."""
    out = [[0j for _ in range(n_antennas)] for _ in range(n_elements)]
    k_total = len(paths)
    for k, path in enumerate(paths, start=1):
        coeff = _coeff(path, k, k_total, carrier_hz, 0.0)
        row_rate = _rate(spacing, path.azimuth_rad, path.elevation_rad)
        dep_az, dep_el = departures[k - 1]
        col_rate = _rate(spacing, dep_az, dep_el)
        for r in range(n_elements):
            for c in range(n_antennas):
                out[r][c] += (coeff * cmath.exp(1j * row_rate * r)
                              * cmath.exp(1j * col_rate * c))
    return out


def naive_ris_ue(paths, carrier_hz, doppler_hz, n_elements, spacing):
    """Scalar evaluation of the surface->terminal gain vector."""
    return naive_bs_ue(paths, carrier_hz, doppler_hz, n_elements, spacing)


def reference_softmax(logits):
    """Stable softmax over the last axis through numpy's max and sum reduces."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=-1, keepdims=True)


def _reference_forward(params, features):
    d = params.w1.shape[0]
    x_img, rate = features[:, :d], features[:, d]
    pre = x_img @ params.w1 + params.b1
    hidden = np.maximum(pre, 0.0)
    z_in = np.concatenate([hidden, rate[:, None]], axis=1)
    logits = z_in @ params.w2 + params.b2
    return reference_softmax(logits), z_in, pre


def _reference_gradients(params, features, label_indices, weight_decay):
    probs, z_in, pre = _reference_forward(params, features)
    n = features.shape[0]
    dz = probs.copy()
    dz[np.arange(n), label_indices] -= 1.0
    dz /= n
    gw2 = z_in.T @ dz + weight_decay * params.w2
    gb2 = dz.sum(axis=0)
    dhidden = dz @ params.w2[:-1].T
    dhidden[pre <= 0.0] = 0.0
    x_img = features[:, :params.w1.shape[0]]
    gw1 = x_img.T @ dhidden + weight_decay * params.w1
    gb1 = dhidden.sum(axis=0)
    return MlpParams(w1=gw1, b1=gb1, w2=gw2, b2=gb2)


def reference_accuracy(params, features, label_indices):
    """Full-set accuracy through the full forward pass."""
    probs, _, _ = _reference_forward(params, np.asarray(features, dtype=np.float64))
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(label_indices)))


def reference_train(features, labels, cfg):
    """(params, history) of the three-pass minibatch SGD loop."""
    features = np.asarray(features, dtype=np.float64)
    label_indices = np.array([label_to_index(l) for l in labels])
    rng = np.random.default_rng(cfg.seed)
    params = init_params(features.shape[1] - 1, rng)
    n = features.shape[0]
    history = []
    iteration = 0
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_schedule(epoch, cfg)
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            take = order[start:start + cfg.batch_size]
            probs, _, _ = _reference_forward(params, features[take])
            batch_loss = float(np.mean([
                cross_entropy(probs[i], int(label_indices[take][i]))
                for i in range(take.shape[0])]))
            grads = _reference_gradients(params, features[take],
                                         label_indices[take], cfg.weight_decay)
            params = sgd_step(params, grads, lr)
            iteration += 1
            history.append((iteration, epoch, lr, batch_loss,
                            reference_accuracy(params, features, label_indices)))
    return params, history


def reference_live_column_train(features, labels, cfg):
    """(params, history) of train's loop with a direct accuracy pass: the
    image block is dropped when it is all zeros, and after every step a full
    forward pass runs over the live image columns, those with a nonzero
    value, and their rows of w1."""
    features = np.asarray(features, dtype=np.float64)
    label_indices = np.array([label_to_index(l) for l in labels])
    rng = np.random.default_rng(cfg.seed)
    params = init_params(features.shape[1] - 1, rng)
    live = features[:, :-1].any(axis=0)
    live_features = features[:, np.append(live, True)]
    image_is_zero = not live.any()
    if image_is_zero:
        features = live_features
    n = features.shape[0]
    history = []
    iteration = 0
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_schedule(epoch, cfg)
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            take = order[start:start + cfg.batch_size]
            net = replace(params, w1=params.w1[live]) if image_is_zero else params
            probs, _, _ = _reference_forward(net, features[take])
            batch_loss = float(np.mean([
                cross_entropy(probs[i], int(label_indices[take][i]))
                for i in range(take.shape[0])]))
            grads = _reference_gradients(net, features[take],
                                         label_indices[take], cfg.weight_decay)
            if image_is_zero:
                grads = replace(grads, w1=0.0 + cfg.weight_decay * params.w1)
            params = sgd_step(params, grads, lr)
            iteration += 1
            history.append((iteration, epoch, lr, batch_loss, reference_accuracy(
                replace(params, w1=params.w1[live]), live_features,
                label_indices)))
    return params, history


def reference_images_bytes(samples):
    """images.bin as one N x H x W x C little-endian float32 array."""
    stacked = np.stack([s.image for s in samples]).astype("<f4", copy=False)
    return np.ascontiguousarray(stacked).tobytes()


def reference_content_hash(samples):
    """The manifest's content hash over the stacked images and features.csv."""
    digest = hashlib.sha256()
    digest.update(reference_images_bytes(samples))
    digest.update(_features_csv(samples).encode("ascii"))
    return "sha256:" + digest.hexdigest()
