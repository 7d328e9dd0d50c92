"""Command-line workflow: generate -> train -> eval -> curves, config
validation, seed resolution, exit codes, and byte-level reproducibility."""

import argparse
import configparser
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import venv
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import risblock
from conftest import allow_cpus, assert_no_child_processes
from risblock import dataset, pipeline
from risblock.cli import _SECTIONS, Config, load_config, main, resolve_seed
from risblock.dataset import GeneratorConfig, load_dataset, pool_image
from risblock.learn import MlpParams, Standardization, load_model, save_model
from risblock.pipeline import (EXPERIMENT_TRAIN_CONFIG, Scenario,
                               run_experiment, split_rows)

CONFIG_TEXT = """\
[generator]
n_samples = 60
n_ris_elements = 32

[experiment]
seed = 5
"""

SCENARIOS = ("none", "camera", "ris", "both")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full generate -> train -> eval run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.ini"
    config.write_text(CONFIG_TEXT, encoding="ascii")
    assert main(["generate", "--config", str(config),
                 "--out", str(root / "dataset")]) == 0
    assert main(["train", "--config", str(config),
                 "--dataset", str(root / "dataset"),
                 "--out", str(root / "models")]) == 0
    assert main(["eval", "--config", str(config),
                 "--dataset", str(root / "dataset"),
                 "--models", str(root / "models"),
                 "--out", str(root / "reports")]) == 0
    return root


# ---------------------------------------------------------------- generate


def test_generate_uses_config_and_experiment_seed(workspace):
    manifest = json.loads((workspace / "dataset" / "manifest.json").read_text())
    assert manifest["n_samples"] == 60
    assert manifest["seed"] == 5
    assert manifest["config"]["n_ris_elements"] == 32
    for name in ("images.bin", "features.csv"):
        assert (workspace / "dataset" / name).exists()


def test_generate_n_flag_overrides(tmp_path):
    out = tmp_path / "tiny"
    assert main(["generate", "--n", "3", "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_samples"] == 3
    assert manifest["seed"] == 1


def test_experiment_checks_the_sample_count_the_dataset_holds(tmp_path):
    # --n overrides the config's n_samples, which the manifest's config
    # still records beside the count generated
    config = tmp_path / "c.ini"
    config.write_text("[generator]\nn_samples = 200\nn_ris_elements = 32\n",
                      encoding="ascii")
    dataset = tmp_path / "dataset"
    assert main(["generate", "--config", str(config), "--n", "60",
                 "--seed", "5", "--out", str(dataset)]) == 0
    with pytest.raises(ValueError, match="records config "):
        run_experiment(GeneratorConfig(n_samples=200, n_ris_elements=32),
                       EXPERIMENT_TRAIN_CONFIG, 5, tmp_path / "refused",
                       dataset_dir=dataset)
    assert not (tmp_path / "refused").exists()
    run_experiment(GeneratorConfig(n_samples=60, n_ris_elements=32),
                   EXPERIMENT_TRAIN_CONFIG, 5, tmp_path / "run",
                   dataset_dir=dataset)
    recorded = json.loads(
        (tmp_path / "run" / "experiment_manifest.json").read_text())
    assert recorded["n_samples"] == 60


@pytest.mark.parametrize("edit", [
    lambda config: config.update(n_ris_elements=32.0),
    lambda config: config.update(image_dims=[64, 64, 3.0]),
    lambda config: config["layout"].update(sparse_count=[0, True]),
], ids=("float_count", "float_dim", "bool_count"))
def test_experiment_refuses_a_config_entry_of_another_json_type(
        workspace, tmp_path, edit):
    # each equals the config's value in Python (32.0 == 32, True == 1), and
    # was copied into experiment_manifest.json's generator_config
    manifest = json.loads((workspace / "dataset" / "manifest.json").read_text())
    edit(manifest["config"])
    dataset_dir = _linked_copy(workspace / "dataset", tmp_path / "dataset", {
        "manifest.json": json.dumps(manifest).encode()})
    with pytest.raises(ValueError, match="records config "):
        run_experiment(load_config(workspace / "config.ini").generator,
                       EXPERIMENT_TRAIN_CONFIG, 5, tmp_path / "refused",
                       dataset_dir=dataset_dir)
    assert not (tmp_path / "refused").exists()


def test_generate_rejects_bad_n(tmp_path, capsys):
    assert main(["generate", "--n", "0", "--out", str(tmp_path / "x")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_generate_rejects_images_the_pooled_grid_cannot_divide(tmp_path,
                                                              capsys):
    config = tmp_path / "tall.ini"
    config.write_text("[generator]\nimage_height = 40\n", encoding="ascii")
    code = main(["generate", "--config", str(config), "--n", "2",
                 "--out", str(tmp_path / "d")])
    assert code == 2
    assert "image (40, 64, 3) not divisible into (16, 16)" in \
        capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_generate_reports_each_written_range(tmp_path, monkeypatch, capsys,
                                             cpus):
    allow_cpus(monkeypatch, cpus)
    out = tmp_path / "d"
    assert main(["generate", "--n", "37", "--seed", "4", "--out", str(out),
                 "--config", str(_small_surface(tmp_path))]) == 0
    captured = capsys.readouterr()
    # one line per write chunk of 32, on any CPU count
    assert captured.err.splitlines() == ["32/37 samples written",
                                         "37/37 samples written"]
    files = {name: (out / name).read_bytes() for name in
             ("manifest.json", "images.bin", "features.csv")}
    # progress goes to stderr only: stdout and the files are those of a
    # run on the other CPU count
    allow_cpus(monkeypatch, 3 - cpus)
    other = tmp_path / "other"
    assert main(["generate", "--n", "37", "--seed", "4", "--out", str(other),
                 "--config", str(_small_surface(tmp_path))]) == 0
    assert capsys.readouterr().out == captured.out.replace(str(out),
                                                           str(other))
    assert files == {name: (other / name).read_bytes() for name in files}


def _small_surface(directory):
    config = directory / "small_surface.ini"
    config.write_text("[generator]\nn_ris_elements = 16\n", encoding="ascii")
    return config


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_sample_fails_generate_and_experiment(tmp_path, monkeypatch,
                                                        capsys, cpus):
    allow_cpus(monkeypatch, cpus)
    serial = dataset._draw_sample

    def failing(cfg, seed, index):
        if index == 33:
            raise ValueError("sample 33 could not be generated")
        return serial(cfg, seed, index)

    monkeypatch.setattr(dataset, "_draw_sample", failing)
    out = tmp_path / "d"
    assert main(["generate", "--n", "37", "--seed", "4", "--out", str(out),
                 "--config", str(_small_surface(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert "sample 33 could not be generated" in captured.err
    assert "samples written" in captured.err  # the chunk before 33 was written
    assert not out.exists()
    assert_no_child_processes()

    # an existing output directory stays, without a file left in it
    out.mkdir()
    assert main(["generate", "--n", "37", "--seed", "4", "--out", str(out),
                 "--config", str(_small_surface(tmp_path))]) == 1
    assert list(out.iterdir()) == []

    with pytest.raises(ValueError, match="sample 33 could not be generated"):
        run_experiment(GeneratorConfig(n_samples=37, n_ris_elements=16),
                       EXPERIMENT_TRAIN_CONFIG, 4, tmp_path / "experiment")
    assert not (tmp_path / "experiment").exists()
    assert_no_child_processes()


# ---------------------------------------------------------------- config


def test_unknown_key_is_located(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[generator]\nn_sample = 5\n", encoding="ascii")
    code = main(["generate", "--config", str(config), "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{config}:2:" in err
    assert "unknown key 'n_sample' in section [generator]" in err


def test_unknown_section_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[generators]\nn_samples = 5\n", encoding="ascii")
    code = main(["generate", "--config", str(config), "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown section [generators]" in err


def test_unparseable_and_invalid_values_are_rejected(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[generator]\nn_samples = many\n", encoding="ascii")
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "d")]) == 2
    assert "cannot parse 'many'" in capsys.readouterr().err

    # each is refused before generation starts, so no directory is made
    for section, line in (("generator", "n_ris_elements = 0"),
                          ("generator", "image_height = 0"),
                          ("generator", "image_height = -16"),
                          ("generator", "step_time_s = 0"),
                          ("layout", "bs_x = 99"),
                          ("layout", "penetration_loss_db = -1"),
                          ("layout", "bounds_width = -1"),
                          ("layout", "dense_probability = 2")):
        config.write_text(f"[{section}]\n{line}\n", encoding="ascii")
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "d")]) == 2, line
        assert "invalid generator config" in capsys.readouterr().err, line
        assert not (tmp_path / "d").exists(), line


def test_every_section_is_checked_before_anything_is_written(workspace,
                                                            tmp_path, capsys):
    # generate reads [generator] and [layout] alone, train and eval
    # [training] and [experiment]; a bad value in any section fails each
    config = tmp_path / "bad.ini"
    config.write_text("[training]\nschedule_epochs = 5;8\n", encoding="ascii")
    assert main(["generate", "--config", str(config), "--n", "5",
                 "--out", str(tmp_path / "d")]) == 2
    assert ("[training] schedule_epochs: cannot parse '5;8'"
            in capsys.readouterr().err)
    assert not (tmp_path / "d").exists()

    config.write_text("[generator]\nn_ris_elements = 0\n", encoding="ascii")
    assert main(["train", "--config", str(config), "--seed", "5",
                 "--dataset", str(workspace / "dataset"),
                 "--out", str(tmp_path / "models")]) == 2
    assert "invalid generator config" in capsys.readouterr().err
    assert not (tmp_path / "models").exists()

    # each would make the fit non-finite or have SGD climb the loss
    for line in ("learning_rate = nan", "learning_rate = inf",
                 "weight_decay = nan", "weight_decay = inf",
                 "weight_decay = -5", "lr_reduction_factor = nan",
                 "lr_reduction_factor = -1"):
        config.write_text(f"[training]\n{line}\n", encoding="ascii")
        assert main(["train", "--config", str(config), "--seed", "5",
                     "--dataset", str(workspace / "dataset"),
                     "--out", str(tmp_path / "models")]) == 2, line
        assert "invalid training config" in capsys.readouterr().err, line
        assert not (tmp_path / "models").exists(), line
        assert main(["eval", "--config", str(config), "--seed", "5",
                     "--dataset", str(workspace / "dataset"),
                     "--models", str(workspace / "models"),
                     "--out", str(tmp_path / "reports")]) == 2, line
        assert "invalid training config" in capsys.readouterr().err, line
        assert not (tmp_path / "reports").exists(), line


def test_a_layout_whose_blockers_could_cross_the_surface_link_is_refused(
        tmp_path, capsys):
    # the station and the surface at x = 10, inside the x range 5..33 that
    # the default blockers cover: generate used to fail after it had begun
    config = tmp_path / "moved.ini"
    config.write_text("[generator]\nn_ris_elements = 16\n\n"
                      "[layout]\nbs_x = 10\nris_x = 10\n", encoding="ascii")
    out = tmp_path / "d"
    assert main(["generate", "--config", str(config), "--n", "20",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid generator config: blocker_x_range" in err
    assert "samples written" not in err
    assert not out.exists()


def test_a_schedule_epoch_below_one_is_refused(workspace, tmp_path, capsys):
    # it would cut the rate at every epoch from the first, silently
    config = tmp_path / "schedule.ini"
    for value in ("-3, 0", "0", "5, 0"):
        config.write_text(f"[training]\nschedule_epochs = {value}\n",
                          encoding="ascii")
        assert main(["train", "--config", str(config), "--seed", "5",
                     "--dataset", str(workspace / "dataset"),
                     "--out", str(tmp_path / "models")]) == 2, value
        err = capsys.readouterr().err
        assert "invalid training config: schedule_epochs" in err, value
        assert not (tmp_path / "models").exists(), value


def test_training_seed_is_not_a_key(workspace, tmp_path, capsys):
    # each scenario trains with a seed mixed from the root seed, so a
    # [training] seed would change nothing
    config = tmp_path / "bad.ini"
    config.write_text("[experiment]\nseed = 5\n\n[training]\nepochs = 3\n"
                      "seed = 9\n", encoding="ascii")
    code = main(["train", "--config", str(config),
                 "--dataset", str(workspace / "dataset"),
                 "--out", str(tmp_path / "models")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{config}:6: unknown key 'seed' in section [training]" in err
    assert not (tmp_path / "models").exists()


def _readme_config_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_is_the_schema(tmp_path):
    block = _readme_config_block()
    parser = configparser.ConfigParser()
    parser.read_string(block)
    assert {section: set(parser[section]) for section in parser.sections()} == {
        section: set(keys) for section, keys in _SECTIONS.items()}
    config_path = tmp_path / "readme.ini"
    config_path.write_text(block, encoding="ascii")
    config = load_config(config_path)
    assert config.generator == GeneratorConfig()
    assert config.training == EXPERIMENT_TRAIN_CONFIG
    assert config.seed == 0
    assert resolve_seed(argparse.Namespace(seed=None), config) == 0


def test_no_config_file_gives_the_defaults():
    assert load_config(None) == Config(GeneratorConfig(),
                                       EXPERIMENT_TRAIN_CONFIG, 0)


def test_seed_resolution_order(tmp_path, monkeypatch):
    monkeypatch.setenv("RISBLOCK_SEED", "7")
    out = tmp_path / "env"
    assert main(["generate", "--n", "2", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 7

    flagged = tmp_path / "flag"
    assert main(["generate", "--n", "2", "--seed", "3", "--out", str(flagged)]) == 0
    assert json.loads((flagged / "manifest.json").read_text())["seed"] == 3


def test_invalid_env_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RISBLOCK_SEED", "lots")
    assert main(["generate", "--n", "2", "--out", str(tmp_path / "d")]) == 2
    assert "RISBLOCK_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "train", "eval"])
@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_a_negative_seed_is_a_config_error_that_writes_nothing(
        workspace, tmp_path, monkeypatch, capsys, command, source):
    # numpy's seeding refuses a negative seed, late and with exit 1
    monkeypatch.delenv("RISBLOCK_SEED", raising=False)
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_TEXT.replace("seed = 5", "seed = -3"
                                          if source == "config" else "seed = 5"),
                      encoding="ascii")
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command != "generate":
        argv += ["--dataset", str(workspace / "dataset")]
    if command == "eval":
        argv += ["--models", str(workspace / "models")]
    if source == "flag":
        argv += ["--seed", "-1"]
    if source == "env":
        monkeypatch.setenv("RISBLOCK_SEED", "-5")
    assert main(argv) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert {"flag": "--seed must be >= 0, got -1",
            "env": "RISBLOCK_SEED must be >= 0, got -5",
            "config": f"[experiment] seed in {config} must be >= 0, got -3",
            }[source] in err


def test_gradcheck_refuses_a_negative_seed(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err


# ---------------------------------------------------------------- train


def test_train_writes_all_four_scenarios(workspace):
    models = workspace / "models"
    for name in SCENARIOS:
        assert (models / f"model_{name}.bin").exists()
        assert (models / f"history_{name}.csv").exists()
        meta = json.loads((models / f"train_meta_{name}.json").read_text())
        assert meta["scenario"] == name
        if name == "both":
            assert meta["rate_threshold"] is not None
        else:
            assert meta["rate_threshold"] is None


def test_train_single_scenario_flag(workspace, tmp_path):
    out = tmp_path / "camera_only"
    config = workspace / "config.ini"
    assert main(["train", "--config", str(config),
                 "--dataset", str(workspace / "dataset"),
                 "--out", str(out), "--scenario", "camera"]) == 0
    produced = sorted(p.name for p in out.iterdir())
    assert produced == ["history_camera.csv", "model_camera.bin",
                        "train_meta_camera.json"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_train_reports_each_fitted_scenario(workspace, tmp_path, monkeypatch,
                                            capsys, cpus):
    allow_cpus(monkeypatch, cpus)
    capsys.readouterr()
    assert _train(workspace, tmp_path / "models") == 0
    captured = capsys.readouterr()
    # one line as each fit comes back, the image scenarios first
    assert captured.err.splitlines() == [
        f"{k}/4 scenarios trained ({name})"
        for k, name in enumerate(("camera", "both", "none", "ris"), start=1)]
    # progress goes to stderr only: stdout has its one line a scenario, in
    # Scenario order, and the files are those of the workspace's run
    assert ([line.split(":")[0] for line in captured.out.splitlines()]
            == [f"trained {name}" for name in SCENARIOS])
    assert ({path.name: path.read_bytes()
             for path in (tmp_path / "models").iterdir()}
            == {path.name: path.read_bytes()
                for path in (workspace / "models").iterdir()})

    assert _train(workspace, tmp_path / "camera", "--scenario", "camera") == 0
    assert capsys.readouterr().err == "1/1 scenarios trained (camera)\n"


def _train(workspace, out, *flags):
    return main(["train", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"), "--out", str(out),
                 *flags])


def test_models_do_not_depend_on_the_cpu_count(workspace, tmp_path,
                                               monkeypatch):
    caller = os.getpid()
    serial = pipeline.train_scenario

    def in_a_worker(train_samples, scenario, train_cfg):
        if os.getpid() == caller:
            raise AssertionError(f"{scenario.value} trained in the calling "
                                 f"process")
        return serial(train_samples, scenario, train_cfg)

    written = {}
    for cpus in (1, 2):
        allow_cpus(monkeypatch, cpus)
        if cpus == 2:
            monkeypatch.setattr(pipeline, "train_scenario", in_a_worker)
        assert _train(workspace, tmp_path / str(cpus)) == 0
        written[cpus] = {path.name: path.read_bytes()
                         for path in (tmp_path / str(cpus)).iterdir()}
    assert sorted(written[1]) == sorted(
        f"{kind}_{name}.{ext}" for name in SCENARIOS
        for kind, ext in (("model", "bin"), ("history", "csv"),
                          ("train_meta", "json")))
    assert written[1] == written[2]


def test_models_do_not_depend_on_the_cpu_count_with_avx2_kernels(tmp_path):
    # OpenBLAS picks its kernels as it loads: SkylakeX ones on an AVX-512
    # CPU. With those it picks on an AVX2 CPU, a fit on two BLAS threads
    # writes other model bytes than one on a single thread, so the check
    # above holds there only if every fit runs on one thread.
    test = "tests/test_cli.py::test_models_do_not_depend_on_the_cpu_count"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "run"), test],
        cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_scenario_fails_train_and_experiment(workspace, tmp_path,
                                                       monkeypatch, capsys,
                                                       cpus):
    allow_cpus(monkeypatch, cpus)
    serial = pipeline.train_scenario

    def failing(train_samples, scenario, train_cfg):
        if scenario is Scenario.RIS_ONLY:
            raise ValueError("ris could not be trained")
        return serial(train_samples, scenario, train_cfg)

    monkeypatch.setattr(pipeline, "train_scenario", failing)
    assert _train(workspace, tmp_path / "models") == 1
    assert "ris could not be trained" in capsys.readouterr().err
    assert not (tmp_path / "models").exists()
    with pytest.raises(ValueError, match="ris could not be trained"):
        run_experiment(GeneratorConfig(n_samples=60, n_ris_elements=32),
                       EXPERIMENT_TRAIN_CONFIG, 5,
                       tmp_path / "experiment",
                       dataset_dir=workspace / "dataset")
    assert not (tmp_path / "experiment").exists()
    assert_no_child_processes()


def test_train_checks_the_pooled_grid_before_training(workspace, tmp_path,
                                                      capsys):
    # no dataset of such images can be made
    with pytest.raises(ValueError, match=r"image \(40, 64, 3\) not divisible"):
        GeneratorConfig(n_samples=20, n_ris_elements=16, image_dims=(40, 64, 3))
    # nor loaded: 16 x 16 x 48 images take the bytes of 64 x 64 x 3 ones, and
    # the content hash does not cover the manifest, so only the grid check
    # refuses them
    edited = tmp_path / "edited"
    shutil.copytree(workspace / "dataset", edited)
    manifest = json.loads((edited / "manifest.json").read_text("ascii"))
    manifest["image_dims"] = [16, 16, 48]
    (edited / "manifest.json").write_text(json.dumps(manifest), "ascii")
    with pytest.raises(ValueError, match=r"image \(16, 16, 48\) is not"):
        load_dataset(edited)
    for scenario in ("camera", "none"):
        code = main(["train", "--dataset", str(edited), "--seed", "5",
                     "--out", str(tmp_path / "models"),
                     "--scenario", scenario])
        assert code == 1
        assert "image (16, 16, 48) is not" in capsys.readouterr().err
        assert not (tmp_path / "models").exists()


def test_train_checks_that_both_has_absent_and_blocked_rows(tmp_path, capsys):
    config = tmp_path / "always_present.ini"
    config.write_text("[generator]\nn_samples = 30\nn_ris_elements = 16\n"
                      "absent_probability = 0\n", encoding="ascii")
    assert main(["generate", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "dataset")]) == 0
    code = main(["train", "--config", str(config), "--seed", "5",
                 "--dataset", str(tmp_path / "dataset"),
                 "--out", str(tmp_path / "models")])
    assert code == 2
    assert ("scenario both needs absent (-1) and blocked (1) rows"
            in capsys.readouterr().err)
    assert not (tmp_path / "models").exists()


def test_train_on_corrupted_dataset_fails(workspace, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(workspace / "dataset", broken)
    blob = bytearray((broken / "images.bin").read_bytes())
    blob[100] ^= 0xFF
    (broken / "images.bin").write_bytes(bytes(blob))
    code = main(["train", "--dataset", str(broken), "--out", str(tmp_path / "m")])
    assert code == 1
    assert "hash mismatch" in capsys.readouterr().err


def _more_blocked(manifest):
    manifest["class_counts"]["1"] += 1


@pytest.mark.parametrize("field, edit", [
    ("image_dims", lambda manifest: manifest.update(image_dims=[32, 128, 3])),
    ("class_counts", _more_blocked),
    *(pytest.param("n_samples", lambda manifest, n=n: manifest.update(
        n_samples=n), id=f"n_samples-{type(n).__name__}")
      for n in ("60", 60.0, True, 0)),
    # an entry the readers use, deleted
    *(pytest.param(key, lambda manifest, key=key: manifest.pop(key),
                   id=f"no-{key}")
      for key in ("n_samples", "seed", "image_dims", "config", "class_counts",
                  "content_hash", "samples")),
    pytest.param("config.image_dims",
                 lambda manifest: manifest["config"].pop("image_dims"),
                 id="no-config.image_dims"),
    pytest.param("samples[3].label",
                 lambda manifest: manifest["samples"][3].pop("label"),
                 id="no-label"),
    # an entry of the wrong type
    pytest.param("samples", lambda manifest: manifest.update(samples=5),
                 id="samples-int"),
    pytest.param("image_dims", lambda manifest: manifest.update(image_dims=5),
                 id="image_dims-int"),
    pytest.param("image_dims",
                 lambda manifest: manifest["config"].update(image_dims=5),
                 id="config.image_dims-int"),
    pytest.param("seed", lambda manifest: manifest.update(seed="x"),
                 id="seed-str"),
])
def test_train_and_eval_refuse_a_manifest_at_odds_with_itself(
        workspace, tmp_path, capsys, field, edit):
    # the content hash does not cover the manifest, so it still matches
    edited = tmp_path / "edited"
    shutil.copytree(workspace / "dataset", edited)
    manifest = json.loads((edited / "manifest.json").read_text("ascii"))
    edit(manifest)
    (edited / "manifest.json").write_text(json.dumps(manifest), "ascii")
    config = str(workspace / "config.ini")
    for command in (["train", "--out", str(tmp_path / "models")],
                    ["eval", "--models", str(workspace / "models"),
                     "--out", str(tmp_path / "reports")]):
        code = main(command + ["--config", config, "--dataset", str(edited)])
        assert code == 1
        assert (f"error: {edited / 'manifest.json'}: {field} "
                in capsys.readouterr().err)
    assert not (tmp_path / "models").exists()
    assert not (tmp_path / "reports").exists()


def test_train_refuses_a_manifest_that_is_not_an_object(workspace, tmp_path,
                                                       capsys):
    edited = tmp_path / "edited"
    shutil.copytree(workspace / "dataset", edited)
    (edited / "manifest.json").write_text("[1, 2]\n", "ascii")
    code = main(["train", "--config", str(workspace / "config.ini"),
                 "--dataset", str(edited), "--out", str(tmp_path / "models")])
    assert code == 1
    assert (f"error: {edited / 'manifest.json'}: not a JSON object\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "models").exists()


# ---------------------------------------------------------------- eval


def test_eval_writes_reports_and_timings(workspace):
    reports = workspace / "reports"
    for name in SCENARIOS:
        payload = json.loads((reports / f"report_{name}.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert (reports / f"curve_{name}.csv").exists()
        assert (reports / f"confusion_{name}.csv").exists()
    # eval fits nothing, so it times the evaluation alone
    timings = json.loads((reports / "timings.json").read_text())
    assert set(timings) == set(SCENARIOS)
    assert all(list(t) == ["eval_s"] and t["eval_s"] >= 0.0
               for t in timings.values())


def test_eval_missing_model_fails(workspace, tmp_path, capsys):
    code = main(["eval", "--dataset", str(workspace / "dataset"),
                 "--models", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert (f"missing {tmp_path / 'nowhere' / 'model_none.bin'}; eval needs "
            f"the model file" in capsys.readouterr().err)


def test_eval_refuses_models_trained_with_another_seed(workspace, tmp_path,
                                                      capsys):
    code = main(["eval", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(workspace / "models"),
                 "--seed", "6", "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "records seed 5, but eval was given seed 6" in err
    assert not (tmp_path / "r").exists()


def test_eval_refuses_models_trained_on_another_dataset(workspace, tmp_path,
                                                        capsys):
    config = str(workspace / "config.ini")
    other = tmp_path / "other"
    assert main(["generate", "--config", config, "--seed", "6",
                 "--out", str(other)]) == 0
    capsys.readouterr()
    code = main(["eval", "--config", config, "--dataset", str(other),
                 "--models", str(workspace / "models"),
                 "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    trained = json.loads((workspace / "dataset" / "manifest.json").read_text())
    given = json.loads((other / "manifest.json").read_text())
    assert f"records dataset_hash '{trained['content_hash']}'" in err
    assert f"given dataset_hash '{given['content_hash']}'" in err


def test_eval_requires_every_train_meta(workspace, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    (models / "train_meta_both.json").unlink()
    code = main(["eval", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(models), "--out", str(tmp_path / "r")])
    assert code == 2
    assert f"missing {models / 'train_meta_both.json'}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_eval_requires_every_history(workspace, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    (models / "history_camera.csv").unlink()
    code = main(["eval", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(models), "--out", str(tmp_path / "r")])
    assert code == 2
    assert f"missing {models / 'history_camera.csv'}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\n", "no iteration column"),
    ("x,y\n", "no iteration column"),
    ("iteration,epoch,lr,loss\n1,1,0.1,0.5\n", "no accuracy column"),
    ("iteration,epoch,lr,loss,accuracy\n1,1,0.1,0.5,0.4\n2,1,0.1,0.5\n",
     "line 3 does not hold iteration, epoch, lr, loss, accuracy"),
    ("iteration,epoch,lr,loss,accuracy\n1.5,1,0.1,0.5,0.4\n",
     "line 2 does not hold iteration, epoch, lr, loss, accuracy"),
    *((f"iteration,epoch,lr,loss,accuracy\n1,1,0.1,0.5,{accuracy}\n",
       "line 2 does not hold iteration, epoch, lr, loss, accuracy")
      for accuracy in ("nan", "inf", "1.5"))],
    ids=["a,b", "x,y", "no-accuracy", "short-row", "float-iteration",
         "nan-accuracy", "inf-accuracy", "accuracy-above-one"])
def test_eval_names_the_history_file_it_cannot_read(workspace, tmp_path,
                                                    capsys, text, message):
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    history = models / "history_ris.csv"
    history.write_text(text, encoding="ascii")
    out = tmp_path / "r"
    code = main(["eval", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(models), "--out", str(out)])
    assert code == 1
    assert f"error: {history}: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("rate_threshold", float("nan")), ("rate_threshold", None),
    ("rate_threshold", "0.5"), ("rate_threshold", True),
    ("threshold_accuracy", 1.5), ("threshold_accuracy", None)])
def test_eval_refuses_a_both_threshold_that_is_not_a_number(
        workspace, tmp_path, capsys, key, value):
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    meta_path = models / "train_meta_both.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    out = tmp_path / "r"
    code = main(["eval", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(models), "--out", str(out)])
    assert code == 2
    assert (f"config error: {meta_path}: {key} {value!r} is not"
            in capsys.readouterr().err)
    assert not out.exists()


def test_eval_writes_no_report_when_a_model_file_is_corrupt(workspace,
                                                            tmp_path, capsys):
    # ris comes after none and camera: every model loads before any report
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    model = models / "model_ris.bin"
    model.write_bytes(model.read_bytes()[:-8])
    out = tmp_path / "r"
    code = main(["eval", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(models), "--out", str(out)])
    assert code == 1
    assert "model payload is" in capsys.readouterr().err
    assert list(out.glob("report_*.json")) == []


def test_eval_names_a_model_file_of_another_width(workspace, tmp_path,
                                                  capsys):
    # camera and ris models that read the first 10 pooled features, where
    # the dataset gives 768: camera, loaded first, is named
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    for name in ("camera", "ris"):
        params, stats = load_model(models / f"model_{name}.bin")
        kept = list(range(10)) + [-1]  # and the rate feature's statistics
        save_model(models / f"model_{name}.bin",
                   MlpParams(params.w1[:10], params.b1, params.w2, params.b2),
                   Standardization(stats.mean[kept], stats.std[kept]))
    out = tmp_path / "r"
    code = main(["eval", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(models), "--out", str(out)])
    assert code == 1
    assert (f"error: {models / 'model_camera.bin'} reads 10 image features; "
            f"the dataset gives 768\n" in capsys.readouterr().err)
    assert not out.exists()


def test_eval_refuses_train_metadata_that_is_not_an_object(workspace,
                                                          tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    meta_path = models / "train_meta_none.json"
    meta_path.write_text("[1, 2]\n")
    out = tmp_path / "r"
    code = main(["eval", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(models), "--out", str(out)])
    assert code == 2
    assert (f"config error: {meta_path}: not a JSON object\n"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("key", ["shapes", "shapes.w1", "shapes.b1",
                                 "shapes.w2", "shapes.b2", "n_features"])
def test_eval_names_the_model_file_whose_header_lacks_a_key(
        workspace, tmp_path, capsys, key):
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    model = models / "model_camera.bin"
    magic, header, payload = model.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    *table, last = key.split(".")
    del (header[table[0]] if table else header)[last]
    model.write_bytes(b"\n".join((magic, json.dumps(header).encode(), payload)))
    out = tmp_path / "r"
    code = main(["eval", "--config", str(workspace / "config.ini"),
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(models), "--out", str(out)])
    assert code == 1
    assert f"error: {model}: {key} missing\n" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- files read back
#
# train reads a dataset's manifest.json; eval reads it too, then each
# train_meta_<scenario>.json and the JSON header line of each model file.
# A fault in any of them exits 1 (manifest, model) or 2 (train_meta),
# naming the file, before any output is written.

# each file's entries that a reader uses, as key paths; None stands for
# any index of a list. The *_REPLACED paths, list items, are replaced only
MANIFEST_ENTRIES = (
    ("n_samples",), ("seed",), ("image_dims",), ("config",),
    ("config", "image_dims"), ("class_counts",), ("class_counts", "-1"),
    ("class_counts", "0"), ("class_counts", "1"), ("content_hash",),
    ("samples",), ("samples", None, "label"))
MANIFEST_REPLACED = (("samples", None), ("image_dims", None))
TRAIN_META_ENTRIES = (("scenario",), ("dataset_hash",), ("seed",),
                      ("rate_threshold",), ("threshold_accuracy",))
MODEL_HEADER_ENTRIES = (("n_features",), ("shapes",),
                        *(("shapes", name) for name in ("w1", "b1", "w2", "b2")))
MODEL_HEADER_REPLACED = tuple(("shapes", name, None)
                              for name in ("w1", "b1", "w2", "b2"))

# a JSON value of each type; an int-valued float stands where an int is wanted
JSON_VALUES = {
    type(None): st.none(), bool: st.booleans(),
    int: st.integers(-2 ** 40, 2 ** 40),
    float: st.one_of(st.integers(-100, 100).map(float),
                     st.floats(allow_nan=False, allow_infinity=False)),
    str: st.text(max_size=4), list: st.lists(st.integers(), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)}


def _other_type(value):
    """A strategy for JSON values of another type than value's. An int
    stands for a number too, so a float is never replaced by one."""
    taken = {int, float} if type(value) is float else {type(value)}
    return st.one_of(*(values for kind, values in JSON_VALUES.items()
                       if kind not in taken))


def _resolve(draw, value, path):
    """The path with every None replaced by a drawn index of its list."""
    keys = []
    for key in path:
        if key is None:
            key = draw(st.integers(0, len(value) - 1))
        keys.append(key)
        value = value[key]
    return keys


@st.composite
def _mutations(draw, text, entries, replaced=()):
    """A mutated copy of the JSON object text: one entry dropped or
    replaced by another type, the text truncated, or the whole replaced by
    JSON that is not an object."""
    kind = draw(st.sampled_from(("drop", "replace", "truncate", "not object")))
    if kind == "truncate":
        # text[:-1] drops only the newline after the closing brace
        return text[:draw(st.integers(0, len(text) - 2))]
    if kind == "not object":
        return json.dumps(draw(st.one_of(*(
            values for json_type, values in JSON_VALUES.items()
            if json_type is not dict))))
    value = json.loads(text)
    paths = entries if kind == "drop" else entries + replaced
    *parents, last = _resolve(draw, value, draw(st.sampled_from(paths)))
    parent = value
    for key in parents:
        parent = parent[key]
    if kind == "drop":
        del parent[last]
    else:
        parent[last] = draw(_other_type(parent[last]))
    return json.dumps(value)


def _run(argv):
    """main(argv)'s exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _linked_copy(source, target, edited):
    """target: a directory of links to source's files, but for the files
    of edited ({name: bytes}), written there."""
    target.mkdir()
    for path in source.iterdir():
        if path.name in edited:
            (target / path.name).write_bytes(edited[path.name])
        else:
            (target / path.name).symlink_to(path)
    return target


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("read_back")


def _train_on_manifest(workspace, scratch, manifest_text):
    """Run train on the workspace dataset with this manifest text: the
    exit code, stderr, the manifest's path and whether an output exists."""
    with tempfile.TemporaryDirectory(dir=scratch) as root:
        dataset_dir = _linked_copy(workspace / "dataset", Path(root) / "ds", {
            "manifest.json": manifest_text.encode()})
        out = Path(root) / "models"
        code, err = _run(["train", "--config", str(workspace / "config.ini"),
                          "--dataset", str(dataset_dir), "--out", str(out)])
        return code, err, dataset_dir / "manifest.json", out.exists()


def _eval_with_models(workspace, scratch, name, data):
    """Run eval on the workspace models with the file `name` holding data:
    the exit code, stderr, that file's path and whether an output exists."""
    with tempfile.TemporaryDirectory(dir=scratch) as root:
        models = _linked_copy(workspace / "models", Path(root) / "models",
                              {name: data})
        out = Path(root) / "reports"
        code, err = _run(["eval", "--config", str(workspace / "config.ini"),
                          "--dataset", str(workspace / "dataset"),
                          "--models", str(models), "--out", str(out)])
        return code, err, models / name, out.exists()


def _with_header(model_bytes, header_text):
    magic, _, payload = model_bytes.split(b"\n", 2)
    return b"\n".join((magic, header_text.encode(), payload))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_train_refuses_any_broken_manifest(workspace, scratch, data):
    text = (workspace / "dataset" / "manifest.json").read_text("ascii")
    mutated = data.draw(_mutations(text, MANIFEST_ENTRIES, MANIFEST_REPLACED))
    code, err, path, written = _train_on_manifest(workspace, scratch, mutated)
    assert code == 1, err
    assert f"error: {path}: " in err
    assert not written


@settings(max_examples=100, deadline=None)
@given(data=st.data(), scenario=st.sampled_from(SCENARIOS))
def test_eval_refuses_any_broken_train_meta(workspace, scratch, data,
                                            scenario):
    name = f"train_meta_{scenario}.json"
    text = (workspace / "models" / name).read_text("ascii")
    mutated = data.draw(_mutations(text, TRAIN_META_ENTRIES))
    code, err, path, written = _eval_with_models(workspace, scratch, name,
                                                 mutated.encode())
    assert code == 2, err
    assert f"config error: {path}: " in err
    assert not written


@settings(max_examples=100, deadline=None)
@given(data=st.data(), scenario=st.sampled_from(SCENARIOS))
def test_eval_refuses_any_broken_model_header(workspace, scratch, data,
                                              scenario):
    name = f"model_{scenario}.bin"
    blob = (workspace / "models" / name).read_bytes()
    header = blob.split(b"\n", 2)[1].decode("ascii")
    if data.draw(st.booleans(), label="truncate the file"):
        mutated = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        mutated = _with_header(blob, data.draw(_mutations(
            header + "\n", MODEL_HEADER_ENTRIES, MODEL_HEADER_REPLACED)))
    code, err, path, written = _eval_with_models(workspace, scratch, name,
                                                 mutated)
    assert code == 1, err
    assert f"error: {path}: " in err
    assert not written


def _edited(edit):
    """The text edit that applies edit to the JSON object a text holds."""
    def apply(text):
        value = json.loads(text)
        edit(value)
        return json.dumps(value)
    return apply


# each was accepted, or refused without naming the file and the entry,
# before the files had schema tables
@pytest.mark.parametrize("old, new", [(-1, -1.9), (1, True)],
                         ids=("float", "true"))
def test_train_names_a_manifest_label_that_is_not_an_int(workspace, scratch,
                                                         old, new):
    manifest = json.loads((workspace / "dataset" / "manifest.json").read_text())
    first = next(i for i, sample in enumerate(manifest["samples"])
                 if sample["label"] == old)
    for sample in manifest["samples"]:
        if sample["label"] == old:
            sample["label"] = new
    code, err, path, written = _train_on_manifest(workspace, scratch,
                                                  json.dumps(manifest))
    assert code == 1
    assert f"error: {path}: samples[{first}].label {new!r} is not an int\n" in err
    assert not written


def test_train_names_a_truncated_manifest(workspace, scratch):
    text = (workspace / "dataset" / "manifest.json").read_text("ascii")
    code, err, path, written = _train_on_manifest(workspace, scratch,
                                                  text[:len(text) // 2])
    assert code == 1
    assert f"error: {path}: not a JSON object\n" in err
    assert not written


@pytest.mark.parametrize("scenario, edit, message", [
    ("ris", _edited(lambda meta: meta.pop("scenario")), "scenario missing"),
    ("none", _edited(lambda meta: meta.update(rate_threshold="x")),
     "rate_threshold 'x' is not null"),
    ("camera", _edited(lambda meta: meta.update(scenario="both")),
     "scenario 'both' is not 'camera'"),
    ("both", _edited(lambda meta: meta.update(seed=5.0)),
     "seed 5.0 is not an int >= 0"),
    ("none", lambda text: text[:-10], "not a JSON object"),
    ("ris", lambda text: "[" * 100_000 + "]" * 100_000, "not a JSON object"),
], ids=("no-scenario", "threshold-str", "other-scenario", "seed-float",
        "truncated", "deep"))
def test_eval_names_the_train_meta_entry_it_refuses(workspace, scratch,
                                                    scenario, edit, message):
    name = f"train_meta_{scenario}.json"
    text = edit((workspace / "models" / name).read_text("ascii"))
    code, err, path, written = _eval_with_models(workspace, scratch, name,
                                                 text.encode())
    assert code == 2
    assert f"config error: {path}: {message}\n" in err
    assert not written


@pytest.mark.parametrize("edit, message", [
    (lambda header: header.update(n_features=769.5),
     "n_features 769.5 is not an int >= 1"),
    (lambda header: header.update(shapes=5), "shapes 5 is not a JSON object"),
    (lambda header: header["shapes"].update(b2=[3, 1]),
     "shapes.b2 [3, 1] is not a list of ints >= 0, 1 long"),
    # as many floats, but no model: MlpParams refuses it
    (lambda header: header["shapes"].update(w2=header["shapes"]["w2"][::-1]),
     "w2 must have hidden+1 input rows (rate appended)"),
], ids=("n_features-float", "shapes-int", "b2-rank", "w2-transposed"))
def test_eval_names_the_model_header_entry_it_refuses(workspace, scratch,
                                                      edit, message):
    blob = (workspace / "models" / "model_ris.bin").read_bytes()
    header = _edited(edit)(blob.split(b"\n", 2)[1])
    code, err, path, written = _eval_with_models(
        workspace, scratch, "model_ris.bin", _with_header(blob, header))
    assert code == 1
    assert f"error: {path}: {message}\n" in err
    assert not written


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_reports_pass(capsys):
    # each draw is checked as a one-row batch; the errors are those the
    # one-sample check printed
    for seed, error in ((0, "1.913e-07"), (1, "5.811e-08"), (2, "8.894e-08"),
                        (3, "1.014e-07")):
        assert main(["gradcheck", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == (
            f"gradcheck: max relative error {error} over 20 draws -> PASS\n")


# ---------------------------------------------------------------- curves


def test_curves_merges_and_renders(workspace, tmp_path):
    out = tmp_path / "curves"
    assert main(["curves", "--results", str(workspace / "reports"),
                 "--out", str(out)]) == 0
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[0] == "iteration,none,camera,ris,both"
    history = (workspace / "models" / "history_none.csv").read_text().splitlines()
    assert len(lines) == len(history)  # same grid: header + one row per iteration
    svg = (out / "curves.svg").read_text()
    assert svg.count("<polyline") == 4


def test_curves_missing_file_fails(tmp_path, capsys):
    assert main(["curves", "--results", str(tmp_path)]) == 1
    assert "missing curve file" in capsys.readouterr().err


def test_curves_grid_mismatch_fails(workspace, tmp_path, capsys):
    clipped = tmp_path / "clipped"
    shutil.copytree(workspace / "reports", clipped)
    path = clipped / "curve_ris.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="ascii")
    assert main(["curves", "--results", str(clipped)]) == 1
    assert "disagree on iteration grids" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("x,y\n1,2\n", "no iteration column"),
    ("iteration,accuracy\n1,0.5\n2,half\n",
     "line 3 does not hold iteration, accuracy")], ids=["x,y", "bad-accuracy"])
def test_curves_names_the_curve_file_it_cannot_read(workspace, tmp_path,
                                                    capsys, text, message):
    results = tmp_path / "results"
    shutil.copytree(workspace / "reports", results)
    curve = results / "curve_camera.csv"
    curve.write_text(text, encoding="ascii")
    out = tmp_path / "curves"
    assert main(["curves", "--results", str(results), "--out", str(out)]) == 1
    assert f"error: {curve}: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("accuracy", ["nan", "inf", "1.5"])
def test_curves_refuses_an_accuracy_outside_0_1(workspace, tmp_path, capsys,
                                                accuracy):
    # the last point's accuracy, so the grids still agree: drawn, it was a
    # y="nan" or far-off coordinate
    results = tmp_path / "results"
    shutil.copytree(workspace / "reports", results)
    curve = results / "curve_ris.csv"
    lines = curve.read_text(encoding="ascii").splitlines()
    lines[-1] = lines[-1].split(",")[0] + f",{accuracy}"
    curve.write_text("\n".join(lines) + "\n", encoding="ascii")
    out = tmp_path / "curves"
    assert main(["curves", "--results", str(results), "--out", str(out)]) == 1
    assert (f"error: {curve}: line {len(lines)} does not hold iteration, "
            f"accuracy\n" in capsys.readouterr().err)
    assert not out.exists()


def test_each_command_pools_only_the_images_it_uses(workspace, tmp_path,
                                                    monkeypatch):
    pooled = []

    def counting(images):
        pooled.append(len(images))
        return pool_image(images)
    monkeypatch.setattr(dataset, "pool_image", counting)
    train_rows, test_rows = split_rows(
        60, EXPERIMENT_TRAIN_CONFIG.train_fraction, 5)
    config = str(workspace / "config.ini")
    assert main(["train", "--config", config,
                 "--dataset", str(workspace / "dataset"),
                 "--out", str(tmp_path / "models"), "--scenario", "none"]) == 0
    assert sum(pooled) == len(train_rows) == 42
    pooled.clear()
    assert main(["eval", "--config", config,
                 "--dataset", str(workspace / "dataset"),
                 "--models", str(workspace / "models"),
                 "--out", str(tmp_path / "reports")]) == 0
    assert sum(pooled) == len(test_rows) == 18
    pooled.clear()
    run_experiment(GeneratorConfig(n_samples=60, n_ris_elements=32),
                   EXPERIMENT_TRAIN_CONFIG, 5, tmp_path / "run",
                   dataset_dir=workspace / "dataset")
    assert sum(pooled) == 60


# ---------------------------------------------------------------- rerun


def test_full_rerun_is_byte_identical(workspace, tmp_path):
    config = workspace / "config.ini"
    redo = tmp_path / "redo"
    assert main(["generate", "--config", str(config),
                 "--out", str(redo / "dataset")]) == 0
    assert main(["train", "--config", str(config),
                 "--dataset", str(redo / "dataset"),
                 "--out", str(redo / "models")]) == 0
    assert main(["eval", "--config", str(config),
                 "--dataset", str(redo / "dataset"),
                 "--models", str(redo / "models"),
                 "--out", str(redo / "reports")]) == 0
    for sub in ("dataset", "models", "reports"):
        for path in sorted((workspace / sub).iterdir()):
            if path.name == "timings.json":
                continue  # wall times are the one legitimately varying output
            assert (redo / sub / path.name).read_bytes() == path.read_bytes(), \
                f"{sub}/{path.name} changed between identical runs"


# ---------------------------------------------------------------- packaging


CHECKOUT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = Path(risblock.__file__).resolve().parent.parent


def _install_checkout(tmp_path, env):
    """Install a copy of the source checkout into a new virtual environment
    and return the environment's script directory.

    The environment sees the system site-packages, so numpy is not fetched,
    and neither installer below touches a package index. pip builds a wheel,
    which setuptools can do from 70.1 on or with the ``wheel`` package;
    where it cannot, ``setup.py develop`` installs the same entry points.
    """
    source = tmp_path / "checkout"
    shutil.copytree(CHECKOUT / "src", source / "src",
                    ignore=shutil.ignore_patterns(
                        "__pycache__", "*.egg-info", "*.so"))
    for name in ("pyproject.toml", "setup.py", "README.md"):
        shutil.copy2(CHECKOUT / name, source)
    venv.create(tmp_path / "venv", system_site_packages=True)
    bin_dir = tmp_path / "venv" / "bin"
    setuptools_version = tuple(
        int(part) for part in
        importlib.metadata.version("setuptools").split(".")[:2])
    if setuptools_version >= (70, 1) or importlib.util.find_spec("wheel"):
        command = [str(bin_dir / "python"), "-m", "pip", "install",
                   "--no-index", "--no-deps", "--no-build-isolation", "."]
    else:
        command = [str(bin_dir / "python"), "setup.py", "develop",
                   "--no-deps"]
    proc = subprocess.run(command, cwd=source, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, \
        f"installing the checkout failed:\n{proc.stdout}{proc.stderr}"
    return bin_dir


def test_console_entry_point_is_installed(tmp_path):
    """Where a ``risblock`` distribution is installed, its script must be on
    PATH. Run from an uninstalled source checkout, the test installs a copy
    into a new virtual environment and checks the script that install puts
    in place."""
    try:
        dist = importlib.metadata.distribution("risblock")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    path, env = None, None
    message = "console script 'risblock' not on PATH"
    if dist is None:
        if not (CHECKOUT / "pyproject.toml").is_file():
            pytest.skip("risblock is not installed and there is no "
                        "pyproject.toml beside tests/ to install from")
        # The installed copy, not the checkout on PYTHONPATH, must be run.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        path = str(_install_checkout(tmp_path, env))
    elif Path(dist.locate_file("")).resolve() == PACKAGE_ROOT:
        # Develop and editable installs leave risblock.egg-info beside the
        # package; it outlives the script it was written with.
        message += (f" (the metadata found is {PACKAGE_ROOT}/risblock.egg-info,"
                    " which may be left over from an earlier develop or "
                    "editable install)")
    exe = shutil.which("risblock", path=path)
    assert exe, message
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: risblock")
    assert "generate" in proc.stdout and "curves" in proc.stdout


def test_no_tracked_file_is_ignored():
    """A file that .gitignore excludes must not be tracked: it is a build
    output, and a tracked copy goes stale without anyone noticing."""
    if not (CHECKOUT / ".git").exists() or shutil.which("git") is None:
        pytest.skip("not a git checkout, or git is not installed")
    proc = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                          cwd=CHECKOUT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", f"tracked but ignored:\n{proc.stdout}"


# generate, train and eval on two CPUs in a fresh interpreter; prints the
# modules of interest loaded by `import risblock.cli`, then after the commands
_COMMANDS_SCRIPT = """
import os, sys
import risblock.cli
print(sorted({"numpy.random"} & set(sys.modules)))
os.sched_getaffinity = lambda pid: set(range(2))  # as conftest.allow_cpus
work = sys.argv[1]
config = os.path.join(work, "c.ini")
with open(config, "w") as out:
    out.write("[generator]\\nn_ris_elements = 16\\n")
for argv in (["generate", "--n", "60", "--out", work + "/d"],
             ["train", "--dataset", work + "/d", "--out", work + "/m"],
             ["eval", "--dataset", work + "/d", "--models", work + "/m",
              "--out", work + "/r"]):
    assert risblock.cli.main([*argv, "--config", config]) == 0, argv
print(sorted({"concurrent.futures", "multiprocessing", "logging"}
             & set(sys.modules)))
"""


def test_importing_the_cli_loads_no_pool_or_logging_module(tmp_path):
    # numpy.random is loaded where generation and the split first need it,
    # and the pools and the loader's hashing thread need none of the three
    # others: each costs start-up time on every command
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _COMMANDS_SCRIPT,
                           str(tmp_path)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"  # on import risblock.cli
    assert lines[-1] == "[]"  # after generate, train and eval
    assert (tmp_path / "r").is_dir()


def test_module_runs_without_entry_point():
    # the child imports the risblock this process imported, also where the
    # package reached sys.path through pytest's own pythonpath setting
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "risblock.cli", "gradcheck", "--seed", "1"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
