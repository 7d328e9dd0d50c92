"""Command-line front end: generate | train | eval | gradcheck | curves.

Configuration is an INI-style file with [generator], [layout], [training]
and [experiment] sections; every key mirrors a config dataclass field and
unknown keys are rejected with their line number. The seed resolves in
order: --seed flag, RISBLOCK_SEED environment variable, [experiment] seed,
then 0. Exit codes: 0 success, 1 runtime failure, 2 config/validation error.
"""

import argparse
import configparser
import csv
import json
import os
import re
import sys
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np

from risblock.dataset import (GeneratorConfig, check_poolable, generate_dataset,
                              load_dataset, save_dataset)
from risblock.learn import init_params, grad_check, load_model, save_model
from risblock.pipeline import (EXPERIMENT_TRAIN_CONFIG, Scenario, ScenarioModel,
                               check_trainable, evaluate_scenarios,
                               split_dataset, train_scenarios)
from risblock.scene import SceneLayout
from risblock.svgchart import render_line_chart


class ConfigError(Exception):
    """Invalid configuration or arguments, or trained models that do not
    match eval's dataset and seed; maps to exit code 2."""


_GENERATOR_KEYS = {
    "n_samples": int,
    "carrier_frequency_hz": float,
    "speed_mps": float,
    "step_time_s": float,
    "snr_linear": float,
    "n_bs_antennas": int,
    "n_ris_elements": int,
    "element_spacing_wavelengths": float,
    "n_paths_direct": int,
    "n_paths_hop": int,
    "n_paths_surface": int,
    "absent_probability": float,
    "trajectory_steps": int,
    "image_height": int,
    "image_width": int,
}

_LAYOUT_KEYS = {
    "bounds_width": float,
    "bounds_depth": float,
    "bs_x": float,
    "bs_y": float,
    "ris_x": float,
    "ris_y": float,
    "penetration_loss_db": float,
    "dense_probability": float,
}

_TRAINING_KEYS = {
    "batch_size": int,
    "learning_rate": float,
    "weight_decay": float,
    "schedule_epochs": str,
    "lr_reduction_factor": float,
    "epochs": int,
    "train_fraction": float,
    "seed": int,
}

_EXPERIMENT_KEYS = {"seed": int}

_SECTIONS = {
    "generator": _GENERATOR_KEYS,
    "layout": _LAYOUT_KEYS,
    "training": _TRAINING_KEYS,
    "experiment": _EXPERIMENT_KEYS,
}


def _line_of(text, pattern):
    for number, line in enumerate(text.splitlines(), start=1):
        if re.match(pattern, line.strip(), flags=re.IGNORECASE):
            return number
    return 0


def load_config(path):
    """Parse and validate an INI config; values stay as {section: {key: str}}."""
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

    for section in parser.sections():
        if section not in _SECTIONS:
            line = _line_of(text, rf"\[{re.escape(section)}\]")
            raise ConfigError(
                f"{path}:{line}: unknown section [{section}] "
                f"(expected one of {sorted(_SECTIONS)})")
        allowed = _SECTIONS[section]
        for key in parser[section]:
            if key not in allowed:
                line = _line_of(text, rf"{re.escape(key)}\s*[=:]")
                raise ConfigError(
                    f"{path}:{line}: unknown key '{key}' in section "
                    f"[{section}] (expected one of {sorted(allowed)})")
    return {section: dict(parser[section]) for section in parser.sections()}


def _coerce(section, key, raw, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}") from exc


def generator_from_config(config):
    overrides = {}
    for key, raw in config.get("generator", {}).items():
        overrides[key] = _coerce("generator", key, raw, _GENERATOR_KEYS[key])
    height = overrides.pop("image_height", None)
    width = overrides.pop("image_width", None)
    if height is not None or width is not None:
        overrides["image_dims"] = (height or 64, width or 64, 3)

    layout_cfg = {}
    raw_layout = config.get("layout", {})
    if raw_layout:
        values = {k: _coerce("layout", k, v, _LAYOUT_KEYS[k])
                  for k, v in raw_layout.items()}
        base = SceneLayout()
        layout_cfg["layout"] = replace(
            base,
            bounds=(values.get("bounds_width", base.bounds[0]),
                    values.get("bounds_depth", base.bounds[1])),
            bs_position=(values.get("bs_x", base.bs_position[0]),
                         values.get("bs_y", base.bs_position[1])),
            ris_position=(values.get("ris_x", base.ris_position[0]),
                          values.get("ris_y", base.ris_position[1])),
            penetration_loss_db=values.get("penetration_loss_db",
                                           base.penetration_loss_db),
            dense_probability=values.get("dense_probability",
                                         base.dense_probability),
        )
    try:
        cfg = GeneratorConfig(**overrides, **layout_cfg)
        cfg.propagation()  # surface bad physical parameters here, not mid-run
        cfg.geometry()
        check_poolable(cfg.image_dims)  # else train fails on the dataset
        return cfg
    except ValueError as exc:
        raise ConfigError(f"invalid generator config: {exc}") from exc


def training_from_config(config):
    overrides = {}
    for key, raw in config.get("training", {}).items():
        if key == "schedule_epochs":
            try:
                overrides[key] = tuple(int(part) for part in raw.split(",") if part.strip())
            except ValueError as exc:
                raise ConfigError(
                    f"[training] schedule_epochs: cannot parse {raw!r} as "
                    f"comma-separated ints") from exc
        else:
            overrides[key] = _coerce("training", key, raw, _TRAINING_KEYS[key])
    try:
        return replace(EXPERIMENT_TRAIN_CONFIG, **overrides)
    except ValueError as exc:
        raise ConfigError(f"invalid training config: {exc}") from exc


def resolve_seed(args, config):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("RISBLOCK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"RISBLOCK_SEED must be an integer, got {env!r}") from exc
    raw = config.get("experiment", {}).get("seed")
    if raw is not None:
        return _coerce("experiment", "seed", raw, int)
    return 0


def _scenario_list(flag):
    if flag is None:
        return list(Scenario)
    return [Scenario(flag)]


def _history_csv_text(history):
    lines = ["iteration,epoch,lr,loss,accuracy"]
    for it, epoch, lr, loss, acc in history:
        lines.append(f"{it},{epoch},{repr(float(lr))},{repr(float(loss))},"
                     f"{repr(float(acc))}")
    return "\n".join(lines) + "\n"


def _read_history_csv(path):
    rows = []
    with open(path, newline="", encoding="ascii") as fh:
        for row in csv.DictReader(fh):
            rows.append((int(row["iteration"]), int(row["epoch"]),
                         float(row["lr"]), float(row["loss"]),
                         float(row["accuracy"])))
    return tuple(rows)


def _reporting_progress(ranges, n):
    """The ranges, unchanged, with a `k/n samples written` line on stderr
    each time the consumer has written one and asks for the next."""
    written = 0
    for part in ranges:
        written += len(part)
        yield part
        del part  # written: let its images go before the next range is made
        print(f"{written}/{n} samples written", file=sys.stderr, flush=True)


def cmd_generate(args):
    config = load_config(args.config) if args.config else {}
    gen_cfg = generator_from_config(config)
    seed = resolve_seed(args, config)
    n = args.n if args.n is not None else gen_cfg.n_samples
    if n < 1:
        raise ConfigError("--n must be >= 1")
    out_dir = Path(args.out)
    with closing(generate_dataset(gen_cfg, seed, n)) as ranges:
        manifest = save_dataset(out_dir, _reporting_progress(ranges, n),
                                gen_cfg, seed)
    counts = manifest["class_counts"]
    print(f"wrote {n} samples to {out_dir} (seed {seed}, "
          f"absent/clear/blocked = {counts['-1']}/{counts['0']}/{counts['1']})")
    print(f"content hash {manifest['content_hash']}")
    return 0


def cmd_train(args):
    config = load_config(args.config) if args.config else {}
    train_cfg = training_from_config(config)
    seed = resolve_seed(args, config)
    table, manifest = load_dataset(Path(args.dataset))
    train_table, _ = split_dataset(table, train_cfg.train_fraction, seed)
    scenarios = _scenario_list(args.scenario)
    try:
        check_trainable(train_table, scenarios)
    except ValueError as exc:
        raise ConfigError(f"cannot train on {args.dataset}: {exc}") from exc
    models = train_scenarios(train_table, scenarios, train_cfg, seed)

    # Every file is written under a temporary name first and renamed into
    # place once all are written, so a failed run leaves no partial model set.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = []

    def stage(name):
        temporary = out_dir / f".{name}.{os.getpid()}.tmp"
        staged.append((temporary, out_dir / name))
        return temporary

    try:
        for scenario, model in models.items():
            name = scenario.value
            save_model(stage(f"model_{name}.bin"), model.params,
                       model.standardization)
            stage(f"history_{name}.csv").write_text(
                _history_csv_text(model.history), encoding="ascii")
            meta = {
                "scenario": name,
                "dataset_hash": manifest["content_hash"],
                "seed": seed,
                "rate_threshold": model.rate_threshold,
                "threshold_accuracy": model.threshold_accuracy,
            }
            stage(f"train_meta_{name}.json").write_text(
                json.dumps(meta, sort_keys=True, indent=2) + "\n",
                encoding="ascii")
        for temporary, path in staged:
            os.replace(temporary, path)
    finally:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
    for scenario, model in models.items():
        name = scenario.value
        final_acc = model.history[-1][4] if model.history else float("nan")
        print(f"trained {name}: {len(model.history)} iterations, "
              f"final train accuracy {final_acc:.3f} -> {out_dir}/model_{name}.bin")
    return 0


def _read_train_meta(models_dir, scenario, dataset_hash, seed):
    """A scenario's model file must exist, and its train metadata must exist
    and name the dataset hash and the seed that eval was given, else the
    test split would overlap the rows the model was trained on."""
    model_path = models_dir / f"model_{scenario.value}.bin"
    if not model_path.exists():
        raise FileNotFoundError(f"missing model file {model_path}")
    meta_path = models_dir / f"train_meta_{scenario.value}.json"
    if not meta_path.exists():
        raise ConfigError(
            f"missing {meta_path}; eval needs the train metadata that "
            f"`risblock train` writes next to each model")
    meta = json.loads(meta_path.read_text("ascii"))
    for key, given in (("dataset_hash", dataset_hash), ("seed", seed)):
        if meta.get(key) != given:
            raise ConfigError(
                f"{meta_path} records {key} {meta.get(key)!r}, but eval was "
                f"given {key} {given!r}; evaluate with the dataset and seed "
                f"the models were trained on")
    return meta


def _load_scenario_model(models_dir, scenario, meta):
    name = scenario.value
    params, stats = load_model(models_dir / f"model_{name}.bin")
    history_path = models_dir / f"history_{name}.csv"
    history = _read_history_csv(history_path) if history_path.exists() else ()
    return ScenarioModel(scenario=scenario, params=params,
                         standardization=stats, history=history,
                         rate_threshold=meta.get("rate_threshold"),
                         threshold_accuracy=meta.get("threshold_accuracy"))


def cmd_eval(args):
    config = load_config(args.config) if args.config else {}
    train_cfg = training_from_config(config)
    seed = resolve_seed(args, config)
    table, manifest = load_dataset(Path(args.dataset))
    _, test_table = split_dataset(table, train_cfg.train_fraction, seed)
    models_dir = Path(args.models)
    metas = {scenario: _read_train_meta(models_dir, scenario,
                                        manifest["content_hash"], seed)
             for scenario in Scenario}
    # every model loads before any report is written
    models = {scenario: _load_scenario_model(models_dir, scenario, meta)
              for scenario, meta in metas.items()}
    reports = evaluate_scenarios(test_table, models, Path(args.out))
    for scenario, report in reports.items():
        print(f"{scenario.value}: accuracy {report.accuracy:.3f} "
              f"({int(report.confusion.sum())} test samples)")
    return 0


N_GRADCHECK_DRAWS = 20
GRADCHECK_TOLERANCE = 1e-4


def cmd_gradcheck(args):
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(N_GRADCHECK_DRAWS):
        params = init_params(6, rng, n_hidden=5)
        image = rng.normal(size=6)
        rate = float(rng.normal())
        label = int(rng.integers(0, 3))
        weight_decay = float(rng.choice([0.0, 2e-3]))
        error = grad_check(params, ((image, rate), label), h=1e-5,
                           weight_decay=weight_decay)
        worst = max(worst, error)
    passed = worst <= GRADCHECK_TOLERANCE
    print(f"gradcheck: max relative error {worst:.3e} over "
          f"{N_GRADCHECK_DRAWS} draws -> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_curves(args):
    results_dir = Path(args.results)
    out_dir = Path(args.out) if args.out else results_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    series = {}
    for scenario in Scenario:
        path = results_dir / f"curve_{scenario.value}.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing curve file {path}")
        with open(path, newline="", encoding="ascii") as fh:
            rows = [(int(r["iteration"]), float(r["accuracy"]))
                    for r in csv.DictReader(fh)]
        series[scenario.value] = rows

    iterations = [tuple(it for it, _ in pts) for pts in series.values()]
    if len(set(iterations)) != 1:
        raise ValueError("curve files disagree on iteration grids; "
                         "regenerate them from one evaluation run")
    lines = ["iteration," + ",".join(s.value for s in Scenario)]
    for i, it in enumerate(iterations[0]):
        values = ",".join(repr(series[s.value][i][1]) for s in Scenario)
        lines.append(f"{it},{values}")
    (out_dir / "curves.csv").write_text("\n".join(lines) + "\n",
                                        encoding="ascii")

    svg = render_line_chart(series, title="Training accuracy by scenario",
                            x_label="iteration", y_label="train accuracy")
    (out_dir / "curves.svg").write_text(svg, encoding="ascii")
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
