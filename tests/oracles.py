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
the learning-rate schedule, the loss and the SGD step with the package,
and keep their own label-to-class mapping.
Their softmax is ``reference_softmax``, numpy's last-axis max and sum
reduces, where the package reduces over the class columns one at a
time. They take the image block and the rate as one (N, d+1) matrix, so
their slicing is independent of ``train``'s; the tests join ``train``'s
(image block, rate column) pair with ``np.column_stack``.

``reference_confusion`` counts the confusion matrix one row at a time
through its own label table, where ``evaluate_scenario`` takes one
``np.bincount`` of the package's class indices.

The dataset references (``reference_images_bytes``, ``reference_content_hash``)
serialize every image at once through one stacked array, where the package
hashes and writes one sample at a time. They share only the features.csv
writer with the package.

``reference_path_coefficients`` is the channel module's per-path loop as it
was before the channels were computed a block of samples at a time: one
CPython complex product and one ``cmath.exp`` per path, whose bytes the
block's float64 ufuncs must repeat. It keeps numpy only for the array it
fills.

The generation references (``reference_accumulate_steering_outer``,
``reference_synthesize_mpcs``, ``reference_path_values``,
``reference_generate_trajectory``, ``reference_random_scene``,
``reference_render_image``) are the package's steering kernel, path
synthesis, walk, scene draw and rendering as they were before their
per-sample overhead was cut: one ``np.exp`` ramp per path and side, one
``rng.uniform`` call per drawn value, a walk on 2-element arrays that tests
each point with ``Blocker.contains``, and a render that stamps the station
and surface markers on every call. The package must match them byte for
byte and leave its generator in the same state; they share the scene, path
and trajectory records, the line-of-sight geometry (``_los_path``) and the
draw ranges with it. The walk's ``_random_free_point`` is the oracle's own,
which returns its last rejected point where the package's raises, so the
tests compare the two only on walks that find free points.
"""

import cmath
import hashlib
import math
from dataclasses import replace

import numpy as np

from risblock.channel import MultipathComponent
from risblock.dataset import _features_csv
from risblock.learn import (MlpParams, cross_entropy, init_params,
                            lr_schedule, sgd_step)
from risblock.scene import (NLOS_AMPLITUDE_SCALE, NLOS_DELAY_STRETCH,
                            NLOS_ELEVATION_SPAN, PATH_SAMPLING_TIME_S,
                            Blocker, LinkStatus, Scene, SynthesizedPaths,
                            _bearing, _los_path)

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


def _phase(carrier_hz, doppler_hz, delay_s, sampling_time_s, azimuth_rad,
           elevation_rad):
    return (TWO_PI * carrier_hz * delay_s
            - TWO_PI * doppler_hz * sampling_time_s * math.cos(azimuth_rad)
            - elevation_rad)


def _coeff(path, k, k_total, carrier_hz, doppler_hz):
    phi = _phase(carrier_hz, doppler_hz, path.delay_s, path.sampling_time_s,
                 path.azimuth_rad, path.elevation_rad)
    pulse = 0.0
    for d in range(path.cyclic_prefix_count):
        pulse += naive_sinc(d * path.sampling_time_s - path.delay_s)
    return complex(path.amplitude) * cmath.exp(-1j * (k / k_total) * phi) * pulse


def reference_path_coefficients(paths, carrier_hz, doppler_hz):
    """The per-path coefficients of one sample's paths as the channel module
    computed them before it worked on blocks: one cmath product per path."""
    n = len(paths)
    coeffs = np.empty(n, dtype=np.complex128)
    for i, path in enumerate(paths):
        phi_k = _phase(carrier_hz, doppler_hz, path.delay_s,
                       path.sampling_time_s, path.azimuth_rad,
                       path.elevation_rad)
        pulse_sum = 0.0
        for d in range(path.cyclic_prefix_count):
            pulse_sum += naive_sinc(d * path.sampling_time_s - path.delay_s)
        # paths are indexed from 1 in the spectral weighting
        coeffs[i] = (path.amplitude
                     * cmath.exp(-1j * ((i + 1) / n) * phi_k)
                     * pulse_sum)
    return coeffs


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


# link-status label -> class index, as a table, where the package adds 1
CLASS_INDEX = {-1: 0, 0: 1, 1: 2}


def reference_confusion(true_labels, predicted_labels):
    """(3, 3) int64 counts, rows true / cols predicted, one row at a time."""
    confusion = np.zeros((3, 3), dtype=np.int64)
    for true, predicted in zip(true_labels, predicted_labels):
        confusion[CLASS_INDEX[int(true)], CLASS_INDEX[int(predicted)]] += 1
    return confusion


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
    label_indices = np.array([CLASS_INDEX[int(l)] for l in labels])
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
    label_indices = np.array([CLASS_INDEX[int(l)] for l in labels])
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


def reference_accumulate_steering_outer(coeffs, row_rates, col_rates, n_rows,
                                        n_cols):
    """The steering kernel with one np.exp ramp per path and side."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    row_rates = np.asarray(row_rates, dtype=np.float64)
    col_rates = np.asarray(col_rates, dtype=np.float64)
    out = np.zeros((n_rows, n_cols), dtype=np.complex128)
    rows = np.arange(n_rows)
    cols = np.arange(n_cols)
    for k in range(coeffs.shape[0]):
        row_ramp = np.exp(1j * row_rates[k] * rows)
        col_ramp = np.exp(1j * col_rates[k] * cols)
        out += coeffs[k] * np.outer(row_ramp, col_ramp)
    return out


def _los_component(src, dst, wavelength_m, azimuth, amplitude_scale=1.0):
    amplitude, delay = _los_path(src, dst, wavelength_m, amplitude_scale)
    return MultipathComponent(
        amplitude=amplitude,
        delay_s=delay,
        sampling_time_s=PATH_SAMPLING_TIME_S,
        cyclic_prefix_count=1,
        azimuth_rad=azimuth,
        elevation_rad=0.0,
    )


def _reference_bounces(los, count, rng):
    paths = []
    for _ in range(count):
        delay = los.delay_s * rng.uniform(*NLOS_DELAY_STRETCH)
        magnitude = abs(los.amplitude) * rng.uniform(*NLOS_AMPLITUDE_SCALE)
        phase = rng.uniform(0.0, TWO_PI)
        azimuth = rng.uniform(0.0, TWO_PI)
        elevation = rng.uniform(-NLOS_ELEVATION_SPAN, NLOS_ELEVATION_SPAN)
        paths.append(MultipathComponent(
            amplitude=magnitude * complex(math.cos(phase), math.sin(phase)),
            delay_s=delay,
            sampling_time_s=PATH_SAMPLING_TIME_S,
            cyclic_prefix_count=1,
            azimuth_rad=azimuth % TWO_PI,
            elevation_rad=elevation,
        ))
    return paths


def reference_synthesize_mpcs(scene, ue_position, status, prop_cfg, n_bs_ue,
                              n_bs_ris, n_ris_ue, rng):
    """Path synthesis with one rng.uniform call per drawn value."""
    wavelength = prop_cfg.wavelength_m
    bs, ris = scene.bs_position, scene.ris_position
    if status == LinkStatus.ABSENT or ue_position is None:
        bs_ue = []
        ris_ue = []
    else:
        penetration = 1.0
        if status == LinkStatus.BLOCKED:
            penetration = 10.0 ** (-scene.penetration_loss_db / 20.0)
        los_direct = _los_component(bs, ue_position, wavelength,
                                    _bearing(bs, ue_position),
                                    amplitude_scale=penetration)
        bs_ue = [los_direct] + _reference_bounces(los_direct, n_bs_ue - 1, rng)
        los_surface = _los_component(ris, ue_position, wavelength,
                                     _bearing(ris, ue_position))
        ris_ue = [los_surface] + _reference_bounces(los_surface, n_ris_ue - 1,
                                                    rng)
    los_hop = _los_component(ris, bs, wavelength, _bearing(ris, bs))
    bs_ris = [los_hop] + _reference_bounces(los_hop, n_bs_ris - 1, rng)
    departures = [(_bearing(bs, ris), 0.0)]
    for _ in range(n_bs_ris - 1):
        departures.append((rng.uniform(0.0, TWO_PI),
                           rng.uniform(-NLOS_ELEVATION_SPAN, NLOS_ELEVATION_SPAN)))
    return SynthesizedPaths(bs_ue=tuple(bs_ue), bs_ris=tuple(bs_ris),
                            ris_ue=tuple(ris_ue),
                            bs_ris_departures=tuple(departures))


def reference_path_values(n_bounces, n_departures, rng):
    """A sample's path values, one rng.uniform call per value: each bounce's
    delay stretch, amplitude scale, phase, azimuth and elevation, then each
    departure's azimuth and elevation."""
    values = []
    for _ in range(n_bounces):
        values += [rng.uniform(*NLOS_DELAY_STRETCH),
                   rng.uniform(*NLOS_AMPLITUDE_SCALE),
                   rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI),
                   rng.uniform(-NLOS_ELEVATION_SPAN, NLOS_ELEVATION_SPAN)]
    for _ in range(n_departures):
        values += [rng.uniform(0.0, TWO_PI),
                   rng.uniform(-NLOS_ELEVATION_SPAN, NLOS_ELEVATION_SPAN)]
    return np.array(values, dtype=np.float64)


def _random_free_point(scene, rng, max_tries=64):
    x0, y0, x1, y1 = scene.walk_region
    point = None
    for _ in range(max_tries):
        point = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        if not any(blk.contains(point) for blk in scene.blockers):
            return point
    return point


def reference_generate_trajectory(scene, n_steps, speed_mps, step_time_s,
                                  absent_probability, rng):
    """The random-waypoint walk on 2-element arrays."""
    max_step = speed_mps * step_time_s
    current = np.array(_random_free_point(scene, rng))
    target = np.array(_random_free_point(scene, rng))
    positions = []
    for _ in range(n_steps):
        if rng.random() < absent_probability:
            positions.append(None)
            continue
        candidate = current
        for _ in range(64):
            offset = target - current
            dist = float(np.hypot(*offset))
            if dist <= max_step:
                candidate = target
                target = np.array(_random_free_point(scene, rng))
            elif max_step > 0:
                candidate = current + offset * (max_step / dist)
            else:
                candidate = current
            if not any(blk.contains(candidate) for blk in scene.blockers):
                break
            target = np.array(_random_free_point(scene, rng))
            candidate = current
        current = candidate
        positions.append((float(current[0]), float(current[1])))
    return tuple(positions)


def reference_random_scene(layout, rng):
    """Draw a scene from the layout's dense/sparse blocker mixture."""
    dense = rng.random() < layout.dense_probability
    if dense:
        count = int(rng.integers(layout.dense_count[0], layout.dense_count[1] + 1))
    else:
        count = int(rng.integers(layout.sparse_count[0], layout.sparse_count[1] + 1))

    depth = layout.bounds[1]
    blockers = []
    for _ in range(count):
        if dense:
            hx = rng.uniform(*layout.dense_half_width)
            hy = rng.uniform(*layout.dense_half_height)
        else:
            hx = rng.uniform(*layout.sparse_half_size)
            hy = rng.uniform(*layout.sparse_half_size)
        cx = rng.uniform(*layout.blocker_x_range)
        cy = rng.uniform(hy + layout.blocker_y_margin,
                         depth - hy - layout.blocker_y_margin)
        blockers.append(Blocker(center=(cx, cy), half_extents=(hx, hy)))

    return Scene(bounds=layout.bounds, bs_position=layout.bs_position,
                 ris_position=layout.ris_position, blockers=tuple(blockers),
                 penetration_loss_db=layout.penetration_loss_db,
                 ue_zone=layout.ue_zone)


def _to_pixel(position, bounds, width, height):
    col = min(max(int(position[0] / bounds[0] * width), 0), width - 1)
    row = min(max(int(position[1] / bounds[1] * height), 0), height - 1)
    return row, col


def _stamp(img, channel, row, col, half):
    h, w = img.shape[:2]
    r0, r1 = max(row - half, 0), min(row + half, h - 1)
    c0, c1 = max(col - half, 0), min(col + half, w - 1)
    img[r0:r1 + 1, c0:c1 + 1, channel] = 1.0


def reference_render_image(scene, ue_position, status, dims=(64, 64, 3)):
    """Top-down raster of the scene, H x W x 3 float32 in [0, 1], every
    marker stamped on every call."""
    height, width, _ = dims
    img = np.zeros((height, width, 3), dtype=np.float32)

    for blk in scene.blockers:
        cx, cy = blk.center
        hx, hy = blk.half_extents
        r0, c0 = _to_pixel((cx - hx, cy - hy), scene.bounds, width, height)
        r1, c1 = _to_pixel((cx + hx, cy + hy), scene.bounds, width, height)
        img[r0:r1 + 1, c0:c1 + 1, 0] = 1.0

    for pos in (scene.bs_position, scene.ris_position):
        row, col = _to_pixel(pos, scene.bounds, width, height)
        _stamp(img, 1, row, col, 1)

    if status == LinkStatus.UNBLOCKED and ue_position is not None:
        row, col = _to_pixel(ue_position, scene.bounds, width, height)
        _stamp(img, 2, row, col, 2)
    return img
