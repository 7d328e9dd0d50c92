"""Classifier ops: forward/loss/backward hand values, gradient checking,
training determinism, and the model file format."""

import functools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import SMALL_SEED, generated, table_of
from risblock import learn
from risblock.dataset import GeneratorConfig
from risblock.learn import (MlpParams, Standardization, TrainConfig,
                            accuracy, argmax_index, backward, cross_entropy,
                            fit_standardization, forward, grad_check,
                            index_to_label, init_params, label_to_index,
                            load_model, lr_schedule, save_model, sgd_step,
                            softmax, train)
from risblock.pipeline import (EXPERIMENT_TRAIN_CONFIG, Scenario,
                               build_features, split_dataset)


def _zeros_params(d_img=2, hidden=2, classes=3):
    return MlpParams(w1=np.zeros((d_img, hidden)), b1=np.zeros(hidden),
                     w2=np.zeros((hidden + 1, classes)), b2=np.zeros(classes))


def _random_sample(rng, d_img):
    return ((rng.normal(size=d_img), float(rng.normal())),
            int(rng.integers(0, 3)))


# ---------------------------------------------------------------- labels


def test_label_mapping_round_trips():
    for label in (-1, 0, 1):
        assert index_to_label(label_to_index(label)) == label
    assert label_to_index(-1) == 0 and label_to_index(1) == 2
    with pytest.raises(ValueError):
        label_to_index(2)
    with pytest.raises(ValueError):
        index_to_label(3)


# ---------------------------------------------------------------- configs


def test_default_hyperparameters():
    cfg = TrainConfig()
    assert cfg.batch_size == 50
    assert cfg.learning_rate == 1e-3
    assert cfg.weight_decay == 2e-3
    assert cfg.schedule_epochs == (5, 8)
    assert cfg.lr_reduction_factor == 0.2
    assert cfg.epochs == 10
    assert cfg.train_fraction == 0.7


def test_train_config_validates_and_sorts():
    assert TrainConfig(schedule_epochs=(8, 5)).schedule_epochs == (5, 8)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(train_fraction=1.0)


def test_params_validate_shapes():
    with pytest.raises(ValueError):
        MlpParams(w1=np.zeros((2, 3)), b1=np.zeros(4),
                  w2=np.zeros((4, 3)), b2=np.zeros(3))
    with pytest.raises(ValueError):
        MlpParams(w1=np.zeros((2, 3)), b1=np.zeros(3),
                  w2=np.zeros((3, 3)), b2=np.zeros(3))  # missing rate row
    with pytest.raises(ValueError):
        MlpParams(w1=np.full((2, 3), np.nan), b1=np.zeros(3),
                  w2=np.zeros((4, 3)), b2=np.zeros(3))
    params = _zeros_params()
    assert params.n_image_features == 2
    assert params.n_hidden == 2
    assert params.n_classes == 3


def test_init_params_scales_with_fan_in():
    rng = np.random.default_rng(0)
    params = init_params(4096, rng, n_hidden=8)
    assert params.w1.shape == (4096, 8)
    assert params.w2.shape == (9, 3)
    np.testing.assert_array_equal(params.b1, np.zeros(8))
    sample_std = params.w1.std()
    assert abs(sample_std - 1.0 / 64.0) / (1.0 / 64.0) < 0.05
    two = init_params(4096, np.random.default_rng(0), n_hidden=8)
    np.testing.assert_array_equal(params.w1, two.w1)


# ---------------------------------------------------------------- scaling


def test_standardization_zscores_and_handles_constants():
    features = np.array([[1.0, 5.0, 2.0],
                         [3.0, 5.0, 4.0],
                         [5.0, 5.0, 9.0]])
    stats = fit_standardization(features)
    np.testing.assert_allclose(stats.mean, [3.0, 5.0, 5.0])
    out = stats.apply(features)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=0), [1.0, 0.0, 1.0], atol=1e-12)
    # a zero-spread column maps to exactly zero, not NaN
    np.testing.assert_array_equal(out[:, 1], np.zeros(3))
    with pytest.raises(ValueError):
        fit_standardization(np.zeros((0, 3)))


# ---------------------------------------------------------------- softmax


def test_softmax_of_zeros_is_uniform():
    np.testing.assert_array_equal(softmax(np.zeros(3)), np.full(3, 1.0 / 3.0))


def test_softmax_hand_value():
    probs = softmax(np.array([0.0, 0.0, math.log(2.0)]))
    np.testing.assert_allclose(probs, [0.25, 0.25, 0.5], rtol=1e-12)


def test_softmax_normalizes_ten_thousand_draws():
    rng = np.random.default_rng(1)
    logits = rng.normal(scale=50.0, size=(10_000, 3))
    probs = softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert probs.min() >= 0.0 and probs.max() <= 1.0


def test_softmax_is_shift_invariant_at_the_argmax():
    rng = np.random.default_rng(2)
    for _ in range(100):
        logits = rng.normal(size=3)
        assert (argmax_index(softmax(logits))
                == argmax_index(softmax(logits + 17.3)))


_ANY_LOGIT = st.floats(-1e307, 1e307)  # no difference of two overflows
_LOGIT = st.floats(-50.0, 50.0)
# finite rows of three logits: any, three equal, two equal, and one a spread
# near 700 below another, where exp of the shifted logit nears underflow
_LOGIT_ROWS = st.one_of(
    st.tuples(_ANY_LOGIT, _ANY_LOGIT, _ANY_LOGIT),
    st.tuples(_LOGIT, _LOGIT, _LOGIT),
    _LOGIT.map(lambda x: (x, x, x)),
    st.tuples(_LOGIT, _LOGIT).flatmap(
        lambda xy: st.permutations((xy[0], xy[0], xy[1]))),
    st.tuples(_LOGIT, st.floats(690.0, 750.0), _LOGIT).flatmap(
        lambda t: st.permutations((t[0], t[0] - t[1], t[2]))),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_LOGIT_ROWS, min_size=1, max_size=40))
def test_softmax_equals_the_reference_reduce_bit_for_bit(rows):
    # softmax reduces over the class columns one at a time; the reference
    # runs numpy's last-axis max and sum
    logits = np.array(rows, dtype=np.float64)
    assert (softmax(logits).tobytes()
            == oracles.reference_softmax(logits).tobytes())
    assert (softmax(logits[0]).tobytes()
            == oracles.reference_softmax(logits[0]).tobytes())


# ---------------------------------------------------------------- forward


def test_forward_with_zero_params_is_uniform():
    probs = forward(_zeros_params(), np.zeros(2), 0.0)
    np.testing.assert_array_equal(probs, np.full(3, 1.0 / 3.0))


def test_forward_logit_hand_value():
    params = MlpParams(w1=np.zeros((2, 2)), b1=np.zeros(2),
                       w2=np.zeros((3, 3)),
                       b2=np.array([0.0, 0.0, math.log(2.0)]))
    probs = forward(params, np.zeros(2), 0.0)
    np.testing.assert_allclose(probs, [0.25, 0.25, 0.5], rtol=1e-12)


def test_forward_rejects_wrong_width():
    with pytest.raises(ValueError):
        forward(_zeros_params(d_img=2), np.zeros(3), 0.0)


# ---------------------------------------------------------------- loss


def test_cross_entropy_values():
    assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == 0.0
    assert math.isclose(cross_entropy(np.full(3, 1.0 / 3.0), 1), math.log(3.0),
                        abs_tol=1e-12)
    assert math.isclose(cross_entropy(np.array([0.5, 0.25, 0.25]), 0),
                        math.log(2.0), rel_tol=1e-15)
    # clamp keeps an exactly-zero probability finite
    assert math.isclose(cross_entropy(np.array([0.0, 1.0, 0.0]), 0),
                        -math.log(1e-12), rel_tol=1e-12)
    with pytest.raises(ValueError):
        cross_entropy(np.full(3, 1.0 / 3.0), 3)


def test_cross_entropy_is_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        probs = softmax(rng.normal(size=3))
        assert cross_entropy(probs, int(rng.integers(0, 3))) >= 0.0


def test_argmax_examples():
    assert argmax_index(np.array([0.2, 0.5, 0.3])) == 1
    assert argmax_index(np.full(3, 1.0 / 3.0)) == 0  # ties: lowest index
    assert argmax_index(np.array([0.1, 0.1, 0.8])) == 2
    with pytest.raises(ValueError):
        argmax_index(np.array([]))


# ---------------------------------------------------------------- backward


def test_gradient_vanishes_at_a_confident_correct_prediction():
    params = MlpParams(w1=np.zeros((2, 2)), b1=np.zeros(2),
                       w2=np.zeros((3, 3)),
                       b2=np.array([50.0, 0.0, 0.0]))
    grads = backward(params, [((np.zeros(2), 0.0), 0)], weight_decay=0.0)
    for _, g in grads.arrays():
        if g.size:
            assert np.max(np.abs(g)) <= 1e-9


def test_duplicating_the_batch_leaves_gradients_unchanged():
    rng = np.random.default_rng(4)
    params = init_params(6, rng, n_hidden=4)
    batch = [_random_sample(rng, 6) for _ in range(3)]
    single = backward(params, batch, weight_decay=2e-3)
    doubled = backward(params, batch + batch, weight_decay=2e-3)
    for (_, a), (_, b) in zip(single.arrays(), doubled.arrays()):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


def test_backward_rejects_empty_batch():
    with pytest.raises(ValueError):
        backward(_zeros_params(), [])


def test_grad_check_passes_on_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(5):
        params = init_params(6, rng, n_hidden=5)
        sample = _random_sample(rng, 6)
        for weight_decay in (0.0, 2e-3):
            assert grad_check(params, sample, h=1e-5,
                              weight_decay=weight_decay) <= 1e-4


def test_grad_check_detects_a_corrupted_gradient():
    # redo the comparison with one analytic entry shifted by +1: the relative
    # error at that entry must blow past the pass threshold
    rng = np.random.default_rng(6)
    params = init_params(4, rng, n_hidden=3)
    (image, rate), label = _random_sample(rng, 4)
    grads = backward(params, [((image, rate), label)], weight_decay=0.0)
    corrupted = float(grads.w1.ravel()[0]) + 1.0

    h = 1e-5
    def loss_with_first_weight(offset):
        w1 = params.w1.copy()
        w1.ravel()[0] += offset
        bumped = MlpParams(w1=w1, b1=params.b1, w2=params.w2, b2=params.b2)
        return cross_entropy(forward(bumped, image, rate), label)

    numeric = (loss_with_first_weight(h) - loss_with_first_weight(-h)) / (2 * h)
    err = abs(corrupted - numeric) / max(abs(corrupted) + abs(numeric), 1e-4)
    assert err > 1e-2


def test_grad_check_zero_parameter_edge():
    empty = MlpParams(w1=np.zeros((0, 0)), b1=np.zeros(0),
                      w2=np.zeros((1, 0)), b2=np.zeros(0))
    assert grad_check(empty, ((np.zeros(0), 0.0), 0)) == 0.0
    with pytest.raises(ValueError):
        grad_check(_zeros_params(), ((np.zeros(2), 0.0), 0), h=0.0)


# ---------------------------------------------------------------- schedule


def test_lr_schedule_steps_down():
    cfg = TrainConfig()
    assert math.isclose(lr_schedule(1, cfg), 1e-3, rel_tol=1e-12)
    assert math.isclose(lr_schedule(5, cfg), 2e-4, rel_tol=1e-12)
    assert math.isclose(lr_schedule(8, cfg), 4e-5, rel_tol=1e-12)
    rates = [lr_schedule(e, cfg) for e in range(1, 13)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    with pytest.raises(ValueError):
        lr_schedule(0, cfg)


def test_sgd_step_arithmetic():
    params = MlpParams(w1=np.array([[1.0]]), b1=np.array([1.0]),
                       w2=np.array([[1.0], [1.0]]), b2=np.array([1.0]))
    grads = MlpParams(w1=np.array([[2.0]]), b1=np.array([0.0]),
                      w2=np.zeros((2, 1)), b2=np.zeros(1))
    stepped = sgd_step(params, grads, 0.1)
    assert stepped.w1[0, 0] == 0.8
    np.testing.assert_array_equal(stepped.b1, params.b1)
    frozen = sgd_step(params, grads, 0.0)
    for (_, a), (_, b) in zip(frozen.arrays(), params.arrays()):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- training


def _blob_problem(n=60, d_img=6, seed=7):
    # three well-separated gaussian blobs + an informative rate feature
    rng = np.random.default_rng(seed)
    centers = np.array([[3.0, 0, 0, 0, 0, 0],
                        [0, 3.0, 0, 0, 0, 0],
                        [0, 0, 3.0, 0, 0, 0]])
    rows, labels = [], []
    for i in range(n):
        cls = i % 3
        image = centers[cls] + 0.3 * rng.normal(size=d_img)
        rate = float(cls) + 0.1 * rng.normal()
        rows.append(np.concatenate([image, [rate]]))
        labels.append((-1, 0, 1)[cls])
    return np.stack(rows), np.array(labels)


def test_training_is_bit_reproducible():
    features, labels = _blob_problem()
    cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=10, seed=5)
    params_a, history_a = train(features, labels, cfg)
    params_b, history_b = train(features, labels, cfg)
    for (_, a), (_, b) in zip(params_a.arrays(), params_b.arrays()):
        np.testing.assert_array_equal(a, b)
    assert history_a == history_b


def test_training_history_shape_and_progress():
    features, labels = _blob_problem()
    cfg = TrainConfig(learning_rate=0.1, batch_size=10, seed=5)
    params, history = train(features, labels, cfg)
    per_epoch = math.ceil(len(labels) / cfg.batch_size)
    assert len(history) == cfg.epochs * per_epoch
    assert [row[0] for row in history] == list(range(1, len(history) + 1))
    assert history[0][2] == lr_schedule(1, cfg)
    assert history[-1][2] == lr_schedule(cfg.epochs, cfg)
    first_epoch = [row[3] for row in history if row[1] == 1]
    last_epoch = [row[3] for row in history if row[1] == cfg.epochs]
    assert np.mean(last_epoch) < np.mean(first_epoch)
    # separable blobs train to high accuracy
    assert history[-1][4] > 0.9


def test_single_sample_overfits_quickly():
    rng = np.random.default_rng(8)
    features = np.concatenate([rng.normal(size=6), [2.0]])[None, :]
    labels = np.array([1])
    cfg = TrainConfig(learning_rate=0.5, weight_decay=0.0, batch_size=1,
                      seed=0)
    _, history = train(features, labels, cfg)
    assert history[-1][3] < 1e-3


def test_train_validates_inputs():
    features, labels = _blob_problem(n=9)
    with pytest.raises(ValueError):
        train(features, np.array([5] * 9), TrainConfig())
    with pytest.raises(ValueError):
        train(features, labels[:-1], TrainConfig())


# The scenarios without a camera give an all-zero image block, the others a
# dense one; a ragged last batch and zero weight decay are covered too.
ORACLE_CONFIGS = (
    EXPERIMENT_TRAIN_CONFIG,
    TrainConfig(learning_rate=0.05, weight_decay=0.0, batch_size=7, epochs=3,
                seed=4),
)


def _scenario_training_set(small_table, scenario):
    train_table, _ = split_dataset(small_table, 0.7, SMALL_SEED)
    raw = build_features(train_table, scenario)
    return fit_standardization(raw).apply(raw), train_table.label


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=("experiment", "ragged"))
@pytest.mark.parametrize("scenario", (Scenario.NONE, Scenario.CAMERA_ONLY),
                         ids=("zero_image_block", "dense_image_block"))
def test_train_matches_the_three_pass_reference(small_table, scenario, cfg):
    features, labels = _scenario_training_set(small_table, scenario)
    assert features[:, :-1].any() == (scenario is Scenario.CAMERA_ONLY)
    params, history = train(features, labels, cfg)
    want_params, want_history = oracles.reference_train(features, labels, cfg)
    for (name, got), (_, want) in zip(params.arrays(), want_params.arrays()):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), f"{name} differs"
    assert ([tuple(map(repr, row)) for row in history]
            == [tuple(map(repr, row)) for row in want_history])

    label_indices = np.array([label_to_index(l) for l in labels])
    for p in (params, want_params, init_params(features.shape[1] - 1,
                                               np.random.default_rng(1))):
        assert (repr(accuracy(p, features, label_indices))
                == repr(oracles.reference_accuracy(p, features, label_indices)))


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_live_column_accuracy_keeps_the_history(seed):
    # train's accuracy pass skips the all-zero columns; the reference's
    # multiplies every column
    features, labels = _blob_problem(n=45, d_img=6, seed=seed)
    features = np.insert(features, [0, 2, 2, 5, 6], 0.0, axis=1)
    assert (~features.any(axis=0)).sum() == 5
    cfg = TrainConfig(learning_rate=0.1, batch_size=8, epochs=4, seed=seed)
    params, history = train(features, labels, cfg)
    want_params, want_history = oracles.reference_train(features, labels, cfg)
    for (name, got), (_, want) in zip(params.arrays(), want_params.arrays()):
        assert got.tobytes() == want.tobytes(), f"{name} differs"
    assert ([tuple(map(repr, row)) for row in history]
            == [tuple(map(repr, row)) for row in want_history])


LIVE_COLUMN_GEN = GeneratorConfig(n_samples=90, n_ris_elements=16)
LIVE_COLUMN_SEEDS = (6, 7, 8, 9, 10)


@functools.cache
def _generated_table(seed):
    return table_of(generated(LIVE_COLUMN_GEN, seed))


def _generated_training_set(scenario, fraction, seed):
    train_table, _ = split_dataset(_generated_table(seed), fraction, seed)
    raw = build_features(train_table, scenario)
    features = fit_standardization(raw).apply(raw)
    live = features[:, :-1].any(axis=0)
    assert 0 < live.sum() < live.size  # some dead columns, some live
    return features, train_table.label, replace(EXPERIMENT_TRAIN_CONFIG,
                                                seed=seed)


def _blob_training_set(dead):
    # the blob problem with five dead columns inserted, or with all dead
    features, labels = _blob_problem(n=45, d_img=6, seed=11)
    features = np.insert(features, [0, 2, 2, 5, 6], 0.0, axis=1)
    if dead == "all":
        features[:, :-1] = 0.0
    return features, labels, TrainConfig(learning_rate=0.1, batch_size=8,
                                         epochs=4, seed=12)


LIVE_COLUMN_CASES = {
    **{f"{scenario.value}-{fraction}-seed{seed}":
       functools.partial(_generated_training_set, scenario, fraction, seed)
       for scenario in (Scenario.CAMERA_ONLY, Scenario.BOTH)
       for fraction in (0.5, 0.7, 0.9)
       for seed in LIVE_COLUMN_SEEDS},
    "some_dead_columns": functools.partial(_blob_training_set, "some"),
    "all_dead_columns": functools.partial(_blob_training_set, "all"),
}


@pytest.mark.parametrize("case", LIVE_COLUMN_CASES)
def test_train_matches_the_direct_live_column_loop(case):
    # train keeps the accuracy pass's pre-activations from step to step; the
    # reference recomputes them from the live columns after every step
    features, labels, cfg = LIVE_COLUMN_CASES[case]()
    params, history = train(features, labels, cfg)
    want_params, want_history = oracles.reference_live_column_train(
        features, labels, cfg)
    for (name, got), (_, want) in zip(params.arrays(), want_params.arrays()):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), f"{name} differs"
    assert ([tuple(map(repr, row)) for row in history]
            == [tuple(map(repr, row)) for row in want_history])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), d_img=st.integers(0, 6), hidden=st.integers(1, 8),
       data_seed=st.integers(0, 2**32 - 1))
def test_the_training_set_scorer_equals_the_forward_pass(n, d_img, hidden,
                                                         data_seed):
    # the scorer writes into buffers it made once; each call must give what
    # a fresh forward pass gives, with every image column live or none
    rng = np.random.default_rng(data_seed)
    features = rng.normal(size=(n, d_img + 1))
    label_indices = rng.integers(0, 3, size=n)
    draws = [MlpParams(w1=rng.normal(size=(d_img, hidden)),
                       b1=rng.normal(scale=2.0, size=hidden),
                       w2=rng.normal(size=(hidden + 1, 3)),
                       b2=rng.normal(size=3)) for _ in range(3)]
    tracked = None
    if d_img:
        tracked = learn._LivePreactivations(features[:, :-1], draws[0].w1)
    scorer = learn._TrainingSetScorer(features[:, -1], label_indices, hidden,
                                      tracked)
    for params in draws:
        if tracked is not None:
            tracked.pre = features[:, :-1] @ params.w1
        assert (repr(scorer.accuracy(params))
                == repr(accuracy(params, features, label_indices)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), d_img=st.integers(1, 8),
       dead=st.integers(0, 255), data_seed=st.integers(0, 2**32 - 1),
       learning_rate=st.floats(1e-3, 0.5),
       lr_reduction_factor=st.floats(0.05, 1.0),
       schedule_epochs=st.lists(st.integers(1, 4), max_size=3),
       weight_decay=st.sampled_from([0.0, 2e-3, 0.1]),
       batch_size=st.integers(1, 12), epochs=st.integers(1, 4))
def test_tracked_preactivations_follow_the_direct_product(
        n, d_img, dead, data_seed, learning_rate, lr_reduction_factor,
        schedule_epochs, weight_decay, batch_size, epochs):
    rng = np.random.default_rng(data_seed)
    features = rng.normal(scale=rng.uniform(0.1, 3.0), size=(n, d_img + 1))
    # the bits of `dead` zero image columns; column 0 stays live
    for column in range(1, d_img):
        if dead >> column & 1:
            features[:, column] = 0.0
    live = features[:, :-1].any(axis=0)
    x_live = features[:, :-1][:, live]
    labels = rng.choice([-1, 0, 1], size=n)
    cfg = TrainConfig(learning_rate=learning_rate,
                      lr_reduction_factor=lr_reduction_factor,
                      schedule_epochs=schedule_epochs,
                      weight_decay=weight_decay, batch_size=batch_size,
                      epochs=epochs, seed=data_seed)
    scorer_accuracy = learn._TrainingSetScorer.accuracy
    checked = []

    def checking_accuracy(scorer, params):
        # called once after every step, with the tracked pre-activations
        direct = x_live @ params.w1[live]
        np.testing.assert_allclose(scorer.tracked.pre, direct, rtol=0,
                                   atol=1e-9 * np.abs(direct).max())
        checked.append(scorer_accuracy(scorer, params))
        return checked[-1]

    with mock.patch.object(learn._TrainingSetScorer, "accuracy",
                           checking_accuracy):
        _, history = train(features, labels, cfg)
    assert len(checked) == len(history) == epochs * math.ceil(n / batch_size)


# ---------------------------------------------------------------- model file


def test_model_file_round_trips(tmp_path):
    rng = np.random.default_rng(9)
    params = init_params(12, rng, n_hidden=7)
    stats = Standardization(mean=rng.normal(size=13),
                            std=np.abs(rng.normal(size=13)))
    path = tmp_path / "model.bin"
    save_model(path, params, stats)
    loaded_params, loaded_stats = load_model(path)
    for (_, a), (_, b) in zip(params.arrays(), loaded_params.arrays()):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(stats.mean, loaded_stats.mean)
    np.testing.assert_array_equal(stats.std, loaded_stats.std)


def test_model_file_is_byte_stable(tmp_path):
    rng = np.random.default_rng(10)
    params = init_params(5, rng, n_hidden=3)
    stats = Standardization(mean=np.zeros(6), std=np.ones(6))
    save_model(tmp_path / "a.bin", params, stats)
    save_model(tmp_path / "b.bin", params, stats)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"something else entirely\n{}\n")
    with pytest.raises(ValueError):
        load_model(path)
    rng = np.random.default_rng(11)
    params = init_params(5, rng, n_hidden=3)
    with pytest.raises(ValueError):
        save_model(tmp_path / "x.bin", params,
                   Standardization(mean=np.zeros(3), std=np.ones(3)))


@pytest.mark.parametrize("edit", (lambda blob: blob + b"\x00",
                                  lambda blob: blob[:-8]),
                         ids=("one_extra_byte", "one_missing_float"))
def test_model_file_rejects_a_payload_of_the_wrong_length(tmp_path, edit):
    rng = np.random.default_rng(12)
    params = init_params(5, rng, n_hidden=3)
    path = tmp_path / "model.bin"
    save_model(path, params, Standardization(mean=np.zeros(6), std=np.ones(6)))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match="payload"):
        load_model(path)
