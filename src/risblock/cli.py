"""Command-line front end: generate | train | eval | gradcheck | curves.

Configuration is an INI-style file with [generator], [layout], [training]
and [experiment] sections, which `load_config` parses once into a `Config`
(generator config, training config, seed); the keys come from the config
dataclasses, which check their own values, and unknown keys are rejected
with their line number. The seed resolves in order: --seed flag,
RISBLOCK_SEED environment variable, [experiment] seed, then 0; a negative
seed from any of them is a config error. Exit codes: 0 success, 1 runtime
failure, 2 config/validation error. Each command writes its output set
through `risblock._files.staged_files`: all of it, or none of it.

The files that train and eval read back are checked against their schema
tables in `risblock._files`. A bad manifest or model file exits 1. Any
fault in a train_meta file, a truncated one included, exits 2, and so do
models trained on another dataset or seed than eval was given.
"""

import argparse
import configparser
import csv
import os
import re
import sys
from collections import namedtuple
from contextlib import closing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from risblock._files import (checked_json, csv_text, json_text, staged_files,
                             train_meta_table)
from risblock.dataset import GeneratorConfig, load_dataset, save_dataset
from risblock.learn import (TrainConfig, init_params, grad_check, load_model,
                            save_model)
from risblock.pipeline import (EXPERIMENT_TRAIN_CONFIG, Scenario, ScenarioModel,
                               check_trainable, evaluate_scenarios,
                               fit_scenarios, split_rows)
from risblock.scene import SceneLayout
from risblock.svgchart import render_line_chart


class ConfigError(Exception):
    """Invalid configuration or arguments, or trained models that are
    incomplete or do not match eval's dataset and seed; maps to exit code 2."""


def _scalar_fields(cls):
    """{name: type} of the int and float fields of a config dataclass."""
    return {f.name: f.type for f in fields(cls) if f.type in (int, float)}


def _int_list(raw):
    return tuple(int(part) for part in raw.split(",") if part.strip())


_int_list.__name__ = "comma-separated ints"  # as parse errors name it

# [layout] keys that set one coordinate of a SceneLayout pair: (field, index)
_LAYOUT_COORDINATES = {
    "bounds_width": ("bounds", 0),
    "bounds_depth": ("bounds", 1),
    "bs_x": ("bs_position", 0),
    "bs_y": ("bs_position", 1),
    "ris_x": ("ris_position", 0),
    "ris_y": ("ris_position", 1),
}

# {section: {key: parser}}. The seed comes from [experiment] alone: each
# scenario trains with a seed mixed from the root seed, never TrainConfig's.
_SECTIONS = {
    "generator": {**_scalar_fields(GeneratorConfig),
                  "image_height": int, "image_width": int},
    "layout": {**dict.fromkeys(_LAYOUT_COORDINATES, float),
               "penetration_loss_db": float, "dense_probability": float},
    "training": {**{key: kind for key, kind in _scalar_fields(TrainConfig).items()
                    if key != "seed"},
                 "schedule_epochs": _int_list},
    "experiment": {"seed": int},
}


def _line_of(text, pattern, after=0):
    """Number of the first line past line `after` that matches, else 0."""
    for number, line in enumerate(text.splitlines(), start=1):
        if number > after and re.match(pattern, line.strip(), flags=re.IGNORECASE):
            return number
    return 0


Config = namedtuple("Config", "generator training seed")


def load_config(path):
    """Parse and validate an INI config into a Config: the generator config
    (with its [layout]), the training config and the [experiment] seed.
    With no path, the defaults.

    Every section is checked, whichever the command reads, so a bad value
    fails the first command given the file, before it writes anything."""
    if not path:
        return Config(GeneratorConfig(), EXPERIMENT_TRAIN_CONFIG, 0)
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc

    values = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        header = _line_of(text, rf"\[{re.escape(section)}\]")
        if section not in _SECTIONS:
            raise ConfigError(
                f"{path}:{header}: unknown section [{section}] "
                f"(expected one of {sorted(_SECTIONS)})")
        allowed = _SECTIONS[section]
        for key, raw in parser[section].items():
            if key not in allowed:
                line = _line_of(text, rf"{re.escape(key)}\s*[=:]", after=header)
                raise ConfigError(
                    f"{path}:{line}: unknown key '{key}' in section "
                    f"[{section}] (expected one of {sorted(allowed)})")
            try:
                values[section][key] = allowed[key](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} "
                                  f"as {allowed[key].__name__}") from exc

    generator = values["generator"]
    if "image_height" in generator or "image_width" in generator:
        height, width, channels = GeneratorConfig.image_dims
        generator["image_dims"] = (generator.pop("image_height", height),
                                   generator.pop("image_width", width), channels)
    try:
        generator = GeneratorConfig(**generator,
                                    layout=_layout(values["layout"]))
    except ValueError as exc:
        raise ConfigError(f"invalid generator config: {exc}") from exc
    try:
        training = replace(EXPERIMENT_TRAIN_CONFIG, **values["training"])
    except ValueError as exc:
        raise ConfigError(f"invalid training config: {exc}") from exc
    return Config(generator, training,
                  _checked_seed(values["experiment"].get("seed", 0),
                                f"[experiment] seed in {path}"))


def _layout(values):
    """SceneLayout() with the [layout] values put in."""
    layout = SceneLayout()
    changes = {}
    for key, value in values.items():
        if key in _LAYOUT_COORDINATES:
            name, index = _LAYOUT_COORDINATES[key]
            pair = list(changes.get(name, getattr(layout, name)))
            pair[index] = value
            changes[name] = tuple(pair)
        else:
            changes[key] = value
    return replace(layout, **changes)


def _checked_seed(seed, source):
    """seed, unless it is negative, which numpy's seeding refuses."""
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    return seed


def resolve_seed(args, config):
    if getattr(args, "seed", None) is not None:
        return _checked_seed(int(args.seed), "--seed")
    env = os.environ.get("RISBLOCK_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"RISBLOCK_SEED must be an integer, got {env!r}") from exc
        return _checked_seed(seed, "RISBLOCK_SEED")
    return config.seed  # load_config has checked it


def _accuracy(text):
    """An accuracy column's value: a float in [0, 1], else ValueError."""
    if not 0 <= (value := float(text)) <= 1:  # nan fails too
        raise ValueError(text)
    return value


_HISTORY_COLUMNS = (("iteration", int), ("epoch", int), ("lr", float),
                    ("loss", float), ("accuracy", _accuracy))


def _history_csv_text(history):
    return csv_text([name for name, _ in _HISTORY_COLUMNS], (
        (it, epoch, float(lr), float(loss), float(acc))
        for it, epoch, lr, loss, acc in history))


def _read_csv(path, columns):
    """The rows of a CSV file as tuples, one value per (name, type) in
    columns. A missing column, or a row whose values do not parse as those
    types, raises ValueError naming the file."""
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        for name, _ in columns:
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: no {name} column")
        try:
            return tuple(tuple(kind(row[name]) for name, kind in columns)
                         for row in reader)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: line {reader.line_num} does not hold "
                             f"{', '.join(name for name, _ in columns)}"
                             ) from None


def _check_grids(kind, files):
    """Raise ValueError naming the first file of `files` (path -> rows, each
    row's iteration first) whose iteration grid is not the first file's."""
    (first, rows), *rest = files.items()
    for path, other in rest:
        if [row[0] for row in other] != [row[0] for row in rows]:
            raise ValueError(f"{kind} files disagree on iteration grids: "
                             f"{path} has {len(other)} rows, {first} {len(rows)}")


def cmd_generate(args):
    config = load_config(args.config)
    seed = resolve_seed(args, config)
    n = args.n if args.n is not None else config.generator.n_samples
    if n < 1:
        raise ConfigError("--n must be >= 1")
    out_dir = Path(args.out)

    def progress(written):
        print(f"{written}/{n} samples written", file=sys.stderr, flush=True)

    manifest = save_dataset(out_dir, config.generator, seed, n, progress)
    counts = manifest["class_counts"]
    print(f"wrote {n} samples to {out_dir} (seed {seed}, "
          f"absent/clear/blocked = {counts['-1']}/{counts['0']}/{counts['1']})")
    print(f"content hash {manifest['content_hash']}")
    return 0


def _split_side(train_cfg, seed, side):
    """load_dataset's rows for side 0 (train) or 1 (test) of the dataset's
    split under train_cfg and seed, so that train and eval each load only
    their side."""
    return lambda manifest: split_rows(manifest["n_samples"],
                                       train_cfg.train_fraction, seed)[side]


def cmd_train(args):
    config = load_config(args.config)
    seed = resolve_seed(args, config)
    train_table, manifest = load_dataset(
        args.dataset, rows=_split_side(config.training, seed, 0))
    scenarios = [Scenario(args.scenario)] if args.scenario else list(Scenario)
    try:
        check_trainable(train_table, scenarios)
    except ValueError as exc:
        raise ConfigError(f"cannot train on {args.dataset}: {exc}") from exc
    trained = {}
    with closing(fit_scenarios(train_table, scenarios, config.training,
                               seed)) as fits:
        for scenario, model in fits:
            trained[scenario] = model
            print(f"{len(trained)}/{len(scenarios)} scenarios trained "
                  f"({scenario.value})", file=sys.stderr, flush=True)
    models = {scenario: trained[scenario] for scenario in scenarios}

    out_dir = Path(args.out)
    with staged_files(out_dir) as stage:
        for scenario, model in models.items():
            name = scenario.value
            save_model(stage.path(f"model_{name}.bin"), model.params,
                       model.standardization)
            stage.write(f"history_{name}.csv", _history_csv_text(model.history))
            stage.write(f"train_meta_{name}.json", json_text({
                "scenario": name,
                "dataset_hash": manifest["content_hash"],
                "seed": seed,
                "rate_threshold": model.rate_threshold,
                "threshold_accuracy": model.threshold_accuracy,
            }))
    for scenario, model in models.items():
        name = scenario.value
        final_acc = model.history[-1][4] if model.history else float("nan")
        print(f"trained {name}: {len(model.history)} iterations, "
              f"final train accuracy {final_acc:.3f} -> {out_dir}/model_{name}.bin")
    return 0


def _load_scenario_model(models_dir, scenario, dataset_hash, seed,
                         n_image_features):
    """A scenario's model with its history and train metadata. The metadata
    must pass its schema table (risblock._files.train_meta_table) and name
    the dataset hash and the seed that eval was given, else the test split
    would overlap the rows the model was trained on. The model must read
    the dataset's n_image_features, else ValueError naming its file."""
    name = scenario.value
    model_path = models_dir / f"model_{name}.bin"
    meta_path = models_dir / f"train_meta_{name}.json"
    history_path = models_dir / f"history_{name}.csv"
    for path, kind in ((model_path, "model"), (meta_path, "train metadata"),
                       (history_path, "training history")):
        if not path.exists():
            raise ConfigError(f"missing {path}; eval needs the {kind} file "
                              f"that `risblock train` writes for each scenario")
    try:
        meta = checked_json(meta_path, meta_path.read_bytes(),
                            train_meta_table(name))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key, given in (("dataset_hash", dataset_hash), ("seed", seed)):
        if meta[key] != given:
            raise ConfigError(
                f"{meta_path} records {key} {meta[key]!r}, but eval was "
                f"given {key} {given!r}; evaluate with the dataset and seed "
                f"the models were trained on")
    params, stats = load_model(model_path)
    if params.n_image_features != n_image_features:
        raise ValueError(f"{model_path} reads {params.n_image_features} image "
                         f"features; the dataset gives {n_image_features}")
    return ScenarioModel(scenario=scenario, params=params,
                         standardization=stats,
                         history=_read_csv(history_path, _HISTORY_COLUMNS),
                         rate_threshold=meta["rate_threshold"],
                         threshold_accuracy=meta["threshold_accuracy"])


def cmd_eval(args):
    config = load_config(args.config)
    seed = resolve_seed(args, config)
    test_table, manifest = load_dataset(
        args.dataset, rows=_split_side(config.training, seed, 1))
    models_dir = Path(args.models)
    # every model loads before any report is written
    models = {scenario: _load_scenario_model(
        models_dir, scenario, manifest["content_hash"], seed,
        test_table.pooled.shape[1]) for scenario in Scenario}
    _check_grids("history", {models_dir / f"history_{s.value}.csv": m.history
                             for s, m in models.items()})
    with staged_files(Path(args.out)) as stage:
        reports = evaluate_scenarios(stage, test_table, models)
    for scenario, report in reports.items():
        print(f"{scenario.value}: accuracy {report.accuracy:.3f} "
              f"({int(report.confusion.sum())} test samples)")
    return 0


N_GRADCHECK_DRAWS = 20
GRADCHECK_TOLERANCE = 1e-4


def cmd_gradcheck(args):
    seed = _checked_seed(args.seed, "--seed") if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(N_GRADCHECK_DRAWS):
        params = init_params(6, rng, n_hidden=5)
        image = rng.normal(size=6)
        rate = float(rng.normal())
        label = int(rng.integers(0, 3))
        weight_decay = float(rng.choice([0.0, 2e-3]))
        error = grad_check(params, image[None], np.array([rate]),
                           np.array([label]), h=1e-5,
                           weight_decay=weight_decay)
        worst = max(worst, error)
    passed = worst <= GRADCHECK_TOLERANCE
    print(f"gradcheck: max relative error {worst:.3e} over "
          f"{N_GRADCHECK_DRAWS} draws -> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_curves(args):
    results_dir = Path(args.results)
    out_dir = Path(args.out) if args.out else results_dir
    series = {}
    for scenario in Scenario:
        path = results_dir / f"curve_{scenario.value}.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing curve file {path}")
        series[scenario.value] = _read_csv(
            path, (("iteration", int), ("accuracy", _accuracy)))

    _check_grids("curve", {results_dir / f"curve_{name}.csv": points
                           for name, points in series.items()})
    merged = csv_text(("iteration", *series), (
        (points[0][0], *(accuracy for _, accuracy in points))
        for points in zip(*series.values())))
    svg = render_line_chart(series, title="Training accuracy by scenario",
                            x_label="iteration", y_label="train accuracy")
    with staged_files(out_dir) as stage:
        stage.write("curves.csv", merged)
        stage.write("curves.svg", svg)
    print(f"wrote {out_dir}/curves.csv and {out_dir}/curves.svg "
          f"({len(series)} series)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="risblock",
        description="Surface-assisted link workbench: dataset generation, "
                    "classifier training, and the four-scenario evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a labeled dataset")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--out", default="dataset", help="output dataset directory")
    p.add_argument("--seed", type=int, help="root seed")
    p.add_argument("--n", type=int, help="number of samples (overrides config)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train scenario models on a dataset")
    p.add_argument("--dataset", default="dataset", help="dataset directory")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--out", default="models", help="output models directory")
    p.add_argument("--seed", type=int, help="root seed (must match eval)")
    p.add_argument("--scenario", choices=[s.value for s in Scenario],
                   help="train a single scenario (default: all four)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate trained models on the test split")
    p.add_argument("--dataset", default="dataset", help="dataset directory")
    p.add_argument("--models", default="models", help="trained models directory")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--out", default="reports", help="output reports directory")
    p.add_argument("--seed", type=int, help="root seed (must match train)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, help="seed for the parameter draws")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("curves", help="merge curve CSVs and render the SVG chart")
    p.add_argument("--results", default="reports",
                   help="directory holding curve_<scenario>.csv files")
    p.add_argument("--out", help="output directory (default: the results dir)")
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: I/O, hash mismatch, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
