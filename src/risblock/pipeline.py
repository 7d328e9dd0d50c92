"""End-to-end experiment: split, per-scenario feature masking, the two-stage
cascade predictor, and the four-scenario evaluation.

Every stage reads a dataset's `FeatureTable` (see risblock.dataset), never
its images. The split is `split_rows`, row numbers that
`load_dataset(rows=)` or `FeatureTable.take` turn into the two sides. The
four scenarios differ only in which features reach the classifier:

    none    direct-link rate only (zero image block)
    camera  pooled image only (zero rate column)
    ris     surface-assisted rate only (zero image block)
    both    image + surface-assisted rate, predicted by the two-stage cascade

The classifier reads an (image block, rate column) pair; a scenario without a
camera gets a zero-stride zero block, so no image-sized array is made for it.
The first three scenarios train the perceptron on these features and predict
with `learn.forward`, the label being argmax - 1. "both"
instead runs the cascade: stage 1 declares the link clear when the camera
sees the terminal (any channel-2 evidence); stage 2 separates absent from
blocked by thresholding the surface-assisted rate, with the threshold
calibrated on the training split. A perceptron is still trained on the
full features so the scenario has a learning curve to report next to the
others. Feature standardization is fit on the training split only and
stored with each model.

`fit_scenarios` fits the scenarios on every CPU the process may use; each
trains with its own seed derived from the root seed, and on one BLAS thread,
so a model's bytes depend neither on the CPU count nor on which other
scenarios are trained beside it. The report set is written through
`risblock._files.staged_files`: all of it, or none of it.
"""

import time
from contextlib import closing
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from risblock import learn
from risblock._files import csv_text, json_text, staged_files
from risblock._pool import fork_map, one_blas_thread
from risblock.dataset import (MANIFEST_NAME, config_record, load_dataset,
                              save_dataset)
from risblock.learn import (MlpParams, Standardization, TrainConfig,
                            class_indices, fit_standardization)
from risblock.scene import LinkStatus

SPLIT_STREAM_TAG = 202
TRAIN_STREAM_TAG = 303

# Training recipe used by experiments. The schedule shape comes from
# TrainConfig; the base rate is raised because this small network is trained
# from scratch on standardized features, where the fine-tuning rate of the
# default config is too timid to move the weights within 10 epochs.
EXPERIMENT_TRAIN_CONFIG = TrainConfig(learning_rate=0.2)


class Scenario(Enum):
    """Which side information the predictor may consume."""

    NONE = "none"
    CAMERA_ONLY = "camera"
    RIS_ONLY = "ris"
    BOTH = "both"


# the scenarios whose classifier reads the pooled image
IMAGE_SCENARIOS = (Scenario.CAMERA_ONLY, Scenario.BOTH)


def build_features(table, scenario):
    """The masked raw (image block, rate column) pair of a FeatureTable.

    The image block is the pooled block, or, when the scenario has no
    camera, a read-only zero-stride view of zeros of the same shape. The
    rate column is the scenario's rate feature: direct for "none",
    surface-assisted for "ris"/"both", zero for "camera".
    """
    if len(table) == 0:
        raise ValueError("table must be non-empty")
    image = (table.pooled if scenario in IMAGE_SCENARIOS
             else np.broadcast_to(0.0, table.pooled.shape))
    rate = (table.direct_rate if scenario is Scenario.NONE
            else np.zeros(len(table)) if scenario is Scenario.CAMERA_ONLY
            else table.ris_rate)
    return image, rate


def split_rows(n, train_fraction=0.7, seed=0):
    """(train_rows, test_rows) of n samples: a seeded shuffle of range(n),
    then a cut, floor(fraction * n) rows to train and the rest to test."""
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed),
                                                        SPLIT_STREAM_TAG]))
    order = rng.permutation(n)
    n_train = min(max(int(train_fraction * n), 1), n - 1)
    return order[:n_train], order[n_train:]


def calibrate_rate_threshold(ris_rates, labels):
    """Best rate cut separating absent (-1) from blocked (+1) training rows.

    Scans the sorted unique rates and their midpoints; predicts blocked when
    rate >= threshold. Returns (threshold, training_accuracy), taking the
    lowest candidate on ties.
    """
    rates = np.asarray(ris_rates, dtype=np.float64)
    labels = np.asarray(labels)
    if rates.shape != labels.shape or rates.ndim != 1:
        raise ValueError("ris_rates and labels must be congruent 1-D arrays")
    present = set(np.unique(labels).tolist())
    if present != {-1, 1}:
        raise ValueError(
            f"need both absent (-1) and blocked (1) rows, got labels {sorted(present)}")
    uniques = np.unique(rates)
    candidates = list(uniques) + [(a + b) / 2.0
                                  for a, b in zip(uniques[:-1], uniques[1:])]
    candidates = sorted(candidates)
    is_blocked = labels == 1
    best_threshold, best_accuracy = None, -1.0
    for threshold in candidates:
        accuracy = float(np.mean((rates >= threshold) == is_blocked))
        if accuracy > best_accuracy:
            best_threshold, best_accuracy = float(threshold), accuracy
    return best_threshold, best_accuracy


def cascade_predict(table, rate_threshold):
    """Two-stage prediction for every row of a FeatureTable: camera first,
    then the rate cut.

    Stage 1 declares the link clear where the camera sees the terminal (the
    table's visible column). Stage 2 maps rate >= threshold to blocked,
    below to absent. Returns the labels as an int array.
    """
    stage2 = np.where(table.ris_rate >= rate_threshold,
                      int(LinkStatus.BLOCKED), int(LinkStatus.ABSENT))
    return np.where(table.visible, int(LinkStatus.UNBLOCKED), stage2)


@dataclass(frozen=True)
class ScenarioModel:
    """Everything one scenario needs at prediction time. train_time_s is
    the fit's wall time, or None for a model not fitted in this process."""

    scenario: Scenario
    params: MlpParams
    standardization: Standardization
    history: tuple
    rate_threshold: float = None
    threshold_accuracy: float = None
    train_time_s: float = None


@dataclass(frozen=True)
class EvalReport:
    """Test-set outcome of one scenario's model."""

    accuracy: float
    confusion: np.ndarray  # (3, 3) counts, rows true / cols predicted
    eval_time_s: float


def train_scenario(train_table, scenario, train_cfg):
    """Fit one scenario: standardization, perceptron, and (for the cascade)
    the absent-vs-blocked rate threshold. The fit runs on one BLAS thread,
    whatever the caller's count, which it gets back afterwards."""
    started = time.perf_counter()
    features = build_features(train_table, scenario)
    stats = fit_standardization(*features)
    features = stats.apply(*features)
    labels = train_table.label
    with one_blas_thread():
        params, history = learn.train(*features, labels, train_cfg)

    rate_threshold = None
    threshold_accuracy = None
    if scenario is Scenario.BOTH:
        keep = labels != int(LinkStatus.UNBLOCKED)
        rate_threshold, threshold_accuracy = calibrate_rate_threshold(
            train_table.ris_rate[keep], labels[keep])
    return ScenarioModel(scenario=scenario, params=params,
                         standardization=stats, history=tuple(history),
                         rate_threshold=rate_threshold,
                         threshold_accuracy=threshold_accuracy,
                         train_time_s=time.perf_counter() - started)


def check_trainable(train_table, scenarios):
    """Raise ValueError if both is among the scenarios and these rows lack
    the absent or the blocked rows its rate threshold needs."""
    if Scenario.BOTH in scenarios:
        present = set(np.unique(train_table.label).tolist())
        if not {int(LinkStatus.ABSENT), int(LinkStatus.BLOCKED)} <= present:
            raise ValueError(
                f"scenario both needs absent (-1) and blocked (1) rows in "
                f"the training split, got labels {sorted(present)}")


def fit_scenarios(train_table, scenarios, train_cfg, seed):
    """(scenario, model) pairs, each as its fit comes back from fork_map,
    the image scenarios first, once check_trainable has passed for every one
    of them. Scenario k of Scenario trains with the seed
    _mixed_seed(seed, TRAIN_STREAM_TAG, k). Run it to its end or close it."""
    order = list(Scenario)
    scenarios = [s for s in order if s in scenarios]
    check_trainable(train_table, scenarios)

    def fit(scenario):
        # train_scenario is looked up when the task runs, so a rebound one
        # (a test's patch, a tracer's wrapper) is the one called
        cfg = replace(train_cfg, seed=_mixed_seed(seed, TRAIN_STREAM_TAG,
                                                  order.index(scenario)))
        return train_scenario(train_table, scenario, cfg)

    # The image scenarios take several times longer to fit than the rate-only
    # ones; submitted first, the longest fit no longer starts last.
    longest_first = sorted(scenarios, key=lambda s: s not in IMAGE_SCENARIOS)
    with closing(fork_map(fit, longest_first)) as models:
        yield from zip(longest_first, models)


def predict_scenario(table, model):
    """Predicted labels ({-1, 0, 1}) for every row of a FeatureTable."""
    if model.scenario is Scenario.BOTH:
        return cascade_predict(table, model.rate_threshold)
    image, rate = build_features(table, model.scenario)
    probs, _, _ = learn.forward(model.params,
                                *model.standardization.apply(image, rate))
    return np.argmax(probs, axis=1) - 1


def evaluate_scenario(test_table, model):
    """Accuracy and confusion matrix of a scenario's model on the test rows."""
    if len(test_table) == 0:
        raise ValueError("test set must be non-empty")
    started = time.perf_counter()
    cells = (3 * class_indices(test_table.label)
             + class_indices(predict_scenario(test_table, model)))
    confusion = np.bincount(cells, minlength=9).reshape(3, 3)
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(accuracy=accuracy, confusion=confusion,
                      eval_time_s=time.perf_counter() - started)


def _mixed_seed(seed, tag, index):
    ss = np.random.SeedSequence([int(seed), tag, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


CLASS_NAMES = ("absent", "unblocked", "blocked")


def report_to_dict(report, model):
    # eval_time_s deliberately left out: report files are byte-reproducible
    # for a fixed seed, timings go to timings.json instead
    return {
        "scenario": model.scenario.value,
        "accuracy": report.accuracy,
        "confusion": report.confusion.tolist(),
        "class_order": list(CLASS_NAMES),
        "n_test": int(report.confusion.sum()),
        "rate_threshold": model.rate_threshold,
        "threshold_accuracy": model.threshold_accuracy,
    }


def write_report_files(stage, report, model):
    """Stage a scenario's report, curve and confusion files (see
    risblock._files); the curve is the model's training history."""
    name = model.scenario.value
    stage.write(f"report_{name}.json", json_text(report_to_dict(report, model)))
    stage.write(f"curve_{name}.csv", csv_text(
        ("iteration", "accuracy"),
        ((it, float(acc)) for it, _, _, _, acc in model.history)))
    stage.write(f"confusion_{name}.csv", csv_text(
        ("true\\predicted", *CLASS_NAMES),
        ((cls, *(int(v) for v in report.confusion[i]))
         for i, cls in enumerate(CLASS_NAMES))))


def evaluate_scenarios(stage, test_table, models):
    """Evaluate each {scenario: model} on the test rows and stage its report
    files, then timings.json (see risblock._files). timings.json gives each
    scenario's evaluation seconds as eval_s, and its fit seconds as train_s
    if the model was fitted in this process. Returns {scenario: report} in
    the models' order."""
    reports, timings = {}, {}
    for scenario, model in models.items():
        reports[scenario] = evaluate_scenario(test_table, model)
        write_report_files(stage, reports[scenario], model)
        timings[scenario.value] = {"eval_s": reports[scenario].eval_time_s}
        if model.train_time_s is not None:
            timings[scenario.value]["train_s"] = model.train_time_s
    stage.write("timings.json", json_text(timings))
    return reports


def run_experiment(gen_cfg, train_cfg, seed, out_dir, dataset_dir=None):
    """Generate (or load) a dataset, train all four scenarios, evaluate, and
    write reports, curves, confusions, and an experiment manifest, all of
    them or none (see risblock._files). A loaded dataset must have been made
    by gen_cfg from seed, else ValueError.

    Returns {scenario: (model, report)}. Fully deterministic for a fixed
    seed: per-sample streams, the split, and each scenario's training seed
    are all derived from it.
    """
    out_dir = Path(out_dir)
    dataset_dir = Path(dataset_dir) if dataset_dir is not None else out_dir / "dataset"

    if not (dataset_dir / MANIFEST_NAME).exists():
        save_dataset(dataset_dir, gen_cfg, seed)
    sides = []

    def checked_split(manifest):
        # `generate --n` records the count it made beside its config's
        # n_samples. Compared as JSON text, where 16.0 is not 16 nor true 1
        made_by = {**manifest["config"], "n_samples": manifest["n_samples"]}
        for key, recorded, given in (("seed", manifest["seed"], int(seed)),
                                     ("config", made_by,
                                      config_record(gen_cfg))):
            if json_text(recorded) != json_text(given):
                raise ValueError(
                    f"{dataset_dir / MANIFEST_NAME} records {key} "
                    f"{recorded!r}, but run_experiment was given {given!r}")
        sides.extend(split_rows(manifest["n_samples"],
                                train_cfg.train_fraction, seed))
        return np.concatenate(sides)

    # the loader is the one place that turns images into table rows; it
    # pools them in split order, so each side is a view of the one table
    table, manifest = load_dataset(dataset_dir, rows=checked_split)
    train_table = table.take(slice(None, len(sides[0])))
    test_table = table.take(slice(len(sides[0]), None))

    fits = dict(fit_scenarios(train_table, list(Scenario), train_cfg, seed))
    models = {scenario: fits[scenario] for scenario in Scenario}
    with staged_files(out_dir) as stage:
        reports = evaluate_scenarios(stage, test_table, models)
        stage.write("experiment_manifest.json", json_text({
            "seed": int(seed),
            "dataset_hash": manifest["content_hash"],
            "n_samples": manifest["n_samples"],
            "n_train": len(train_table),
            "n_test": len(test_table),
            # each scenario trains with its own seed mixed from the root seed
            "train_config": {key: value for key, value
                             in asdict(train_cfg).items() if key != "seed"},
            "generator_config": manifest["config"],
            "accuracies": {s.value: r.accuracy for s, r in reports.items()},
        }))
    return {scenario: (models[scenario], reports[scenario]) for scenario in models}
