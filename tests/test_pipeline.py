"""Experiment pipeline: pooling, per-scenario feature masking, the split,
threshold calibration, the cascade, and the end-to-end experiment runner."""

import json
import math
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import SMALL_GEN, allow_cpus, table_of
from risblock import learn, pipeline
from risblock._files import staged_files
from risblock.dataset import (FeatureTable, GeneratorConfig,
                              detect_visible_ue, pool_image,
                              pooled_feature_count)
from risblock.learn import MlpParams, Standardization, TrainConfig
from risblock.pipeline import (EXPERIMENT_TRAIN_CONFIG, Scenario, _mixed_seed,
                               build_features, calibrate_rate_threshold,
                               cascade_predict, evaluate_scenario,
                               fit_scenarios, predict_scenario,
                               report_to_dict, run_experiment, split_rows,
                               train_scenario, write_report_files)
from risblock.scene import LinkStatus

FAST_TRAIN = TrainConfig(learning_rate=0.2, epochs=2)
NO_ROWS = np.array([], dtype=np.int64)


def _fake_sample(image, direct_rate=1.0, ris_rate=2.0, label=0):
    return types.SimpleNamespace(image=image, direct_rate=direct_rate,
                                 ris_rate=ris_rate, label=label)


# ---------------------------------------------------------------- pooling


def test_pool_image_preserves_constants():
    pooled = pool_image(np.ones((64, 64, 3), dtype=np.float32))
    assert pooled.shape == (16, 16, 3)
    np.testing.assert_array_equal(pooled, np.ones((16, 16, 3)))


def test_pool_image_averages_each_block():
    image = np.zeros((64, 64, 3), dtype=np.float32)
    image[::4, ::4, :] = 1.0  # one hot pixel per 4x4 block
    pooled = pool_image(image)
    np.testing.assert_allclose(pooled, 1.0 / 16.0, rtol=1e-12)


def test_pool_image_pools_a_stack_like_each_image():
    rng = np.random.default_rng(5)
    stack = rng.random((5, 64, 32, 3)).astype(np.float32)
    pooled = pool_image(stack)
    assert pooled.shape == (5, 16, 16, 3) and pooled.dtype == np.float64
    for image, block in zip(stack, pooled):
        assert block.tobytes() == pool_image(image).tobytes()
        want = image.astype(np.float64).reshape(16, 4, 16, 2, 3).mean(axis=(1, 3))
        assert block.tobytes() == want.tobytes()


def test_pool_image_rejects_indivisible_shapes():
    with pytest.raises(ValueError):
        pool_image(np.zeros((20, 64, 3)))


def test_pooled_feature_count():
    assert pooled_feature_count((64, 64, 3)) == 768


# ---------------------------------------------------------------- features


def test_build_features_masks_per_scenario():
    image = np.zeros((64, 64, 3), dtype=np.float32)
    image[0, 0, 0] = 16.0  # pools to 1.0 in the first feature
    table = table_of([_fake_sample(image, direct_rate=3.0, ris_rate=7.0)])

    # (image block, rate column); without a camera the block is a
    # zero-stride view of zeros
    image, rate = build_features(table, Scenario.NONE)
    assert image.shape == (1, 768) and image.strides == (0, 0)
    np.testing.assert_array_equal(image, np.zeros((1, 768)))
    np.testing.assert_array_equal(rate, [3.0])

    image, rate = build_features(table, Scenario.CAMERA_ONLY)
    assert image is table.pooled and image[0, 0] == 1.0
    np.testing.assert_array_equal(rate, [0.0])

    image, rate = build_features(table, Scenario.RIS_ONLY)
    assert image.shape == (1, 768) and image.strides == (0, 0)
    np.testing.assert_array_equal(image, np.zeros((1, 768)))
    np.testing.assert_array_equal(rate, [7.0])

    image, rate = build_features(table, Scenario.BOTH)
    assert image is table.pooled
    np.testing.assert_array_equal(rate, [7.0])

    with pytest.raises(ValueError):
        build_features(table.take(NO_ROWS), Scenario.NONE)


def test_table_labels_are_ints():
    table = table_of(
        [_fake_sample(np.zeros((64, 64, 3)), label=LinkStatus.ABSENT),
         _fake_sample(np.zeros((64, 64, 3)), label=LinkStatus.BLOCKED)])
    assert table.label.dtype.kind == "i"
    np.testing.assert_array_equal(table.label, [-1, 1])


# ---------------------------------------------------------------- split


def test_split_sizes_and_partition():
    train, test = split_rows(10, train_fraction=0.7, seed=3)
    assert len(train) == 7 and len(test) == 3
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))


def test_split_is_deterministic_and_shuffled():
    first = [side.tolist() for side in split_rows(50, seed=9)]
    second = [side.tolist() for side in split_rows(50, seed=9)]
    assert first == second
    other = [side.tolist() for side in split_rows(50, seed=10)]
    assert other != first
    assert first[0] != list(range(35))  # the cut is over a shuffle


def test_split_keeps_both_sides_non_empty():
    train, test = split_rows(5, train_fraction=0.1, seed=0)
    assert len(train) == 1 and len(test) == 4


def test_split_takes_table_rows_in_permutation_order(small_table):
    # a side of the split is table.take of its rows, in the split's order
    train_rows, test_rows = split_rows(len(small_table), seed=4)
    for taken in (train_rows, test_rows):
        side = small_table.take(taken)
        assert side.pooled.tobytes() == small_table.pooled[taken].tobytes()
        for column in ("visible", "direct_rate", "ris_rate", "label"):
            np.testing.assert_array_equal(getattr(side, column),
                                          getattr(small_table, column)[taken])


def test_split_validates_arguments():
    with pytest.raises(ValueError):
        split_rows(1, train_fraction=0.7)
    with pytest.raises(ValueError):
        split_rows(4, train_fraction=1.0)


# ---------------------------------------------------------------- threshold


def test_threshold_separates_clean_rates():
    threshold, accuracy = calibrate_rate_threshold(
        np.array([0.1, 0.2, 5.0, 6.0]), np.array([-1, -1, 1, 1]))
    assert threshold == 2.6
    assert accuracy == 1.0


def test_threshold_handles_identical_rates():
    threshold, accuracy = calibrate_rate_threshold(
        np.array([3.0, 3.0]), np.array([-1, 1]))
    assert threshold == 3.0
    assert accuracy == 0.5


def test_threshold_requires_both_classes():
    with pytest.raises(ValueError):
        calibrate_rate_threshold(np.array([1.0, 2.0]), np.array([-1, -1]))
    with pytest.raises(ValueError):
        calibrate_rate_threshold(np.array([1.0, 2.0]), np.array([-1, 0]))


def test_threshold_is_optimal_over_random_cuts():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = 80
        labels = np.where(rng.random(n) < 0.5, -1, 1)
        labels[0], labels[1] = -1, 1
        rates = np.where(labels == 1, 2.0, 0.0) + rng.normal(scale=1.5, size=n)
        rates = np.abs(rates)
        _, accuracy = calibrate_rate_threshold(rates, labels)
        cuts = rng.uniform(rates.min() - 1, rates.max() + 1, size=100)
        rival = max(float(np.mean((rates >= c) == (labels == 1))) for c in cuts)
        assert accuracy >= rival - 1e-12


# ---------------------------------------------------------------- cascade


def test_visibility_rule_reads_channel_two():
    image = np.zeros((64, 64, 3), dtype=np.float32)
    assert not detect_visible_ue(image)
    image[:, :, 0] = 1.0  # walls alone do not count
    assert not detect_visible_ue(image)
    image[10, 10, 2] = 0.6
    assert detect_visible_ue(image)


def test_cascade_routes_through_both_stages():
    clear = np.zeros((64, 64, 3), dtype=np.float32)
    marked = clear.copy()
    marked[5, 5, 2] = 1.0
    threshold = 1.0
    table = table_of([_fake_sample(marked, ris_rate=0.0),
                      _fake_sample(clear, ris_rate=2.0),
                      _fake_sample(clear, ris_rate=0.5),
                      # ties go to blocked: the cut is a >= comparison
                      _fake_sample(clear, ris_rate=1.0)])
    np.testing.assert_array_equal(
        cascade_predict(table, threshold),
        [LinkStatus.UNBLOCKED, LinkStatus.BLOCKED, LinkStatus.ABSENT,
         LinkStatus.BLOCKED])


def test_cascade_never_sees_ue_in_empty_channel():
    rng = np.random.default_rng(13)
    samples = []
    for _ in range(50):
        image = rng.random((64, 64, 3)).astype(np.float32)
        image[:, :, 2] = 0.5 * rng.random((64, 64))  # never above the cut
        samples.append(_fake_sample(image, ris_rate=float(rng.random() * 5)))
    predicted = cascade_predict(table_of(samples), 2.5)
    assert predicted.shape == (50,)
    assert not np.any(predicted == LinkStatus.UNBLOCKED)


def test_the_cascade_can_only_miss_blocked_rows_below_the_cut(small_table):
    # why both scores about 1.00: the camera sees the terminal exactly on
    # the unblocked rows, and absent rows carry a rate of exactly 0.0, so
    # stage 2 errs only on blocked rows whose rate falls below the threshold
    table = small_table
    np.testing.assert_array_equal(table.visible, table.label == 0)
    assert np.all(table.ris_rate[table.label == -1] == 0.0)
    assert table.ris_rate[table.label == 1].min() > 0.0


# ---------------------------------------------------------------- scenarios


@pytest.fixture(scope="module")
def trained_both(small_table):
    train, test = (small_table.take(rows)
                   for rows in split_rows(len(small_table), seed=1))
    model = train_scenario(train, Scenario.BOTH, FAST_TRAIN)
    return train, test, model


def test_train_scenario_fits_threshold_only_for_cascade(trained_both):
    train, _, both_model = trained_both
    assert both_model.rate_threshold is not None
    assert both_model.rate_threshold > 0.0
    assert 0.0 <= both_model.threshold_accuracy <= 1.0
    ris_model = train_scenario(train, Scenario.RIS_ONLY, FAST_TRAIN)
    assert ris_model.rate_threshold is None
    per_epoch = math.ceil(len(train) / FAST_TRAIN.batch_size)
    assert len(ris_model.history) == FAST_TRAIN.epochs * per_epoch


def test_evaluate_scenario_counts_consistently(trained_both):
    _, test, model = trained_both
    report = evaluate_scenario(test, model)
    confusion = report.confusion
    assert confusion.shape == (3, 3)
    assert confusion.sum() == len(test)
    assert report.accuracy == float(np.trace(confusion) / confusion.sum())
    true = test.label
    row_totals = [int(np.sum(true == label)) for label in (-1, 0, 1)]
    np.testing.assert_array_equal(confusion.sum(axis=1), row_totals)


def test_evaluate_scenario_validates(trained_both):
    _, test, model = trained_both
    with pytest.raises(ValueError):
        evaluate_scenario(test.take(NO_ROWS), model)


def test_cascade_is_exact_on_absent_only_test(trained_both):
    _, test, model = trained_both
    absent = test.take(np.flatnonzero(test.label == LinkStatus.ABSENT))
    assert len(absent), "fixture split left no absent samples in the test set"
    report = evaluate_scenario(absent, model)
    assert report.accuracy == 1.0


def test_predict_scenario_returns_valid_labels(trained_both):
    _, test, model = trained_both
    predicted = predict_scenario(test, model)
    assert set(np.unique(predicted)).issubset({-1, 0, 1})
    assert predicted.shape == (len(test),)


def test_predict_scenario_breaks_ties_toward_the_lowest_class():
    # zero weights: the logits are b2 on every row, so the tied classes show
    # which one wins; the label is the class index - 1
    n, d = 4, 2
    table = FeatureTable(pooled=np.zeros((n, d)), visible=np.zeros(n, bool),
                         direct_rate=np.arange(n, dtype=np.float64),
                         ris_rate=np.zeros(n), label=np.zeros(n, np.int64))
    stats = Standardization(mean=np.zeros(d + 1), std=np.ones(d + 1))
    for b2, label in (([0.0, 0.0, 0.0], -1), ([0.0, 1.0, 1.0], 0),
                      ([0.0, 0.0, 1.0], 1)):
        params = MlpParams(w1=np.zeros((d, 2)), b1=np.zeros(2),
                           w2=np.zeros((3, 3)), b2=np.array(b2))
        model = pipeline.ScenarioModel(scenario=Scenario.NONE, params=params,
                                       standardization=stats, history=())
        assert predict_scenario(table, model).tolist() == [label] * n


# a non-empty subset of the labels
_CLASS_SETS = st.sets(st.sampled_from((-1, 0, 1)), min_size=1).map(sorted)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), true_classes=_CLASS_SETS, predicted_classes=_CLASS_SETS)
def test_the_confusion_equals_a_per_row_count(data, true_classes,
                                              predicted_classes):
    # true and predicted labels each drawn from a subset of the classes, so
    # a test set may lack a class and a model may never predict one. The
    # cascade predicts them: clear where visible, then blocked where the
    # rate reaches the threshold of 0.5, else absent
    rows = data.draw(st.lists(st.tuples(st.sampled_from(true_classes),
                                        st.sampled_from(predicted_classes)),
                              min_size=1, max_size=60))
    true, predicted = (np.array(side) for side in zip(*rows))
    n = len(rows)
    table = FeatureTable(pooled=np.zeros((n, 0)), visible=predicted == 0,
                         direct_rate=np.zeros(n),
                         ris_rate=(predicted == 1).astype(np.float64),
                         label=true)
    model = pipeline.ScenarioModel(scenario=Scenario.BOTH, params=None,
                                   standardization=None, history=(),
                                   rate_threshold=0.5)
    assert predict_scenario(table, model).tolist() == predicted.tolist()
    report = evaluate_scenario(table, model)
    want = oracles.reference_confusion(true, predicted)
    assert report.confusion.dtype == want.dtype
    assert report.confusion.tolist() == want.tolist()
    assert report.accuracy == float(np.trace(want) / n)


@pytest.mark.parametrize("scenario", (Scenario.NONE, Scenario.RIS_ONLY))
def test_rate_only_prediction_matches_the_full_width_pass(trained_both,
                                                         scenario):
    # predict_scenario reads the zero-stride zero block; a dense zero block
    # and a zero-width one (the rate column alone) predict the same labels
    train, test, _ = trained_both
    model = train_scenario(train, scenario, FAST_TRAIN)
    image, rate = model.standardization.apply(*build_features(test, scenario))
    assert not image.any()
    for params, block in ((model.params, np.zeros(image.shape)),
                          (replace(model.params, w1=model.params.w1[:0]),
                           np.zeros((len(test), 0)))):
        probs, _, _ = learn.forward(params, block, rate)
        assert (predict_scenario(test, model).tolist()
                == [learn.LABELS[i] for i in np.argmax(probs, axis=1)])


@pytest.mark.parametrize("scenario", list(Scenario))
def test_a_scenario_without_a_camera_makes_no_image_sized_array(scenario):
    # 1400 training rows, the size of n=2000 at the default split: the
    # pooled block is 8.6 MB, and only the camera scenarios may hold copies
    # of it while they fit
    rng = np.random.default_rng(3)
    n = 1400
    table = FeatureTable(pooled=rng.random((n, 768)),
                         visible=rng.random(n) < 0.3,
                         direct_rate=rng.random(n), ris_rate=rng.random(n),
                         label=rng.choice([-1, 0, 1], size=n))
    tracemalloc.start()
    try:
        train_scenario(table, scenario, replace(FAST_TRAIN, epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if scenario in pipeline.IMAGE_SCENARIOS:
        assert peak > table.pooled.nbytes
    else:
        assert peak < table.pooled.nbytes / 2


# ---------------------------------------------------------------- reports


def test_report_dict_has_no_timing_fields(trained_both):
    _, test, model = trained_both
    report = evaluate_scenario(test, model)
    payload = report_to_dict(report, model)
    assert "eval_time_s" not in payload
    assert payload["scenario"] == "both"
    assert payload["n_test"] == len(test)
    assert payload["class_order"] == ["absent", "unblocked", "blocked"]


def test_report_files_are_byte_stable(tmp_path, trained_both):
    _, test, model = trained_both
    report = evaluate_scenario(test, model)
    for name in ("first", "second"):
        with staged_files(tmp_path / name) as stage:
            write_report_files(stage, report, model)
    names = ["report_both.json", "curve_both.csv", "confusion_both.csv"]
    for name in names:
        assert (tmp_path / "first" / name).read_bytes() == \
            (tmp_path / "second" / name).read_bytes()
    curve_text = (tmp_path / "first" / "curve_both.csv").read_text()
    assert curve_text.splitlines() == ["iteration,accuracy"] + [
        f"{it},{acc!r}" for it, _, _, _, acc in model.history]


# ---------------------------------------------------------------- runner


def test_mixed_seed_is_deterministic_and_spread():
    assert _mixed_seed(3, 303, 0) == _mixed_seed(3, 303, 0)
    values = {_mixed_seed(3, 303, k) for k in range(4)}
    assert len(values) == 4


# the training seed of each scenario at root seed 5, in Scenario order
SCENARIO_SEEDS_AT_5 = (3670489745392224173, 5373724333969084782,
                       13915327714058451812, 4154151921571924423)


@pytest.mark.parametrize("cpus", [1, 2])
def test_submission_order_keeps_each_scenario_seed(small_table, monkeypatch,
                                                   cpus):
    allow_cpus(monkeypatch, cpus)
    calls = []

    def recording(train_table, scenario, train_cfg):
        calls.append(scenario)  # seen only when the fits run inline
        return train_cfg.seed

    monkeypatch.setattr(pipeline, "train_scenario", recording)
    seeds = dict(zip(Scenario, SCENARIO_SEEDS_AT_5))
    for chosen in (list(Scenario), [Scenario.RIS_ONLY, Scenario.CAMERA_ONLY]):
        got = dict(fit_scenarios(small_table, chosen, FAST_TRAIN, 5))
        assert got == {s: seeds[s] for s in chosen}
    if cpus == 1:
        # the image scenarios, the longest fits, go first
        assert calls == [Scenario.CAMERA_ONLY, Scenario.BOTH, Scenario.NONE,
                         Scenario.RIS_ONLY, Scenario.CAMERA_ONLY,
                         Scenario.RIS_ONLY]


def test_experiment_training_recipe():
    assert EXPERIMENT_TRAIN_CONFIG.learning_rate == 0.2
    assert EXPERIMENT_TRAIN_CONFIG.batch_size == TrainConfig().batch_size
    assert EXPERIMENT_TRAIN_CONFIG.epochs == TrainConfig().epochs


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiment")
    gen_cfg = SMALL_GEN
    results = run_experiment(gen_cfg, FAST_TRAIN, seed=11, out_dir=out)
    return out, results


def test_run_experiment_writes_everything(experiment_run):
    out, results = experiment_run
    assert list(results) == list(Scenario)
    for scenario in Scenario:
        name = scenario.value
        assert (out / f"report_{name}.json").exists()
        assert (out / f"curve_{name}.csv").exists()
        assert (out / f"confusion_{name}.csv").exists()
        model, report = results[scenario]
        assert 0.0 <= report.accuracy <= 1.0
    assert (out / "dataset" / "manifest.json").exists()
    # the fits ran in this process, so each scenario has both timings
    timings = json.loads((out / "timings.json").read_text())
    assert timings == {s.value: {"eval_s": results[s][1].eval_time_s,
                                 "train_s": results[s][0].train_time_s}
                       for s in Scenario}

    manifest = json.loads((out / "experiment_manifest.json").read_text())
    dataset_manifest = json.loads((out / "dataset" / "manifest.json").read_text())
    assert manifest["dataset_hash"] == dataset_manifest["content_hash"]
    assert manifest["n_train"] + manifest["n_test"] == SMALL_GEN.n_samples
    for scenario in Scenario:
        written = json.loads((out / f"report_{scenario.value}.json").read_text())
        assert manifest["accuracies"][scenario.value] == written["accuracy"]


def test_run_experiment_reuses_saved_dataset(experiment_run, tmp_path):
    out, _ = experiment_run
    rerun = tmp_path / "rerun"
    # pointing at the saved dataset skips regeneration and reproduces the
    # whole report set byte for byte; only wall-clock timings may differ
    run_experiment(SMALL_GEN, FAST_TRAIN, seed=11, out_dir=rerun,
                   dataset_dir=out / "dataset")
    for path in sorted(out.glob("*.json")) + sorted(out.glob("*.csv")):
        if path.name == "timings.json":
            continue
        assert (rerun / path.name).read_bytes() == path.read_bytes(), path.name


def test_run_experiment_refuses_a_dataset_from_another_seed_or_config(tmp_path):
    out = tmp_path / "run"
    run_experiment(GeneratorConfig(n_samples=60, n_ris_elements=32), FAST_TRAIN,
                   1, out)
    written = {path: path.read_bytes() for path in out.rglob("*")
               if path.is_file()}
    for gen_cfg, seed, key in (
            (GeneratorConfig(n_samples=90, n_ris_elements=32), 2, "seed"),
            (GeneratorConfig(n_samples=90, n_ris_elements=32), 1, "config"),
            (GeneratorConfig(n_samples=60, n_ris_elements=32), 2, "seed")):
        with pytest.raises(ValueError, match=f"records {key} "):
            run_experiment(gen_cfg, FAST_TRAIN, seed, out)
        assert {path: path.read_bytes() for path in out.rglob("*")
                if path.is_file()} == written


def test_run_experiment_checks_the_pooled_grid_before_generating():
    # the config that run_experiment generates from cannot hold such images
    with pytest.raises(ValueError,
                       match=r"image \(40, 64, 3\) not divisible into"):
        GeneratorConfig(n_samples=300, n_ris_elements=64,
                        image_dims=(40, 64, 3))
