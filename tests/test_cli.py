"""Command-line workflow: generate -> train -> eval -> curves, config
validation, seed resolution, exit codes, and byte-level reproducibility."""

import argparse
import importlib.metadata
import importlib.util
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import pytest

import risblock
from conftest import allow_cpus
from risblock import dataset, pipeline
from risblock.cli import (_SECTIONS, generator_from_config, load_config, main,
                          resolve_seed, training_from_config)
from risblock.dataset import GeneratorConfig, load_dataset
from risblock.pipeline import EXPERIMENT_TRAIN_CONFIG, Scenario, run_experiment

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
    # 8 ranges a CPU: ranges of 5 samples on one CPU, of 3 on two
    size = 5 if cpus == 1 else 3
    counts = list(range(size, 37, size)) + [37]
    assert captured.err.splitlines() == [f"{k}/37 samples written"
                                         for k in counts]
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
    serial = dataset.generate_sample

    def failing(cfg, seed, index):
        if index == 23:
            raise ValueError("sample 23 could not be generated")
        return serial(cfg, seed, index)

    monkeypatch.setattr(dataset, "generate_sample", failing)
    out = tmp_path / "d"
    assert main(["generate", "--n", "37", "--seed", "4", "--out", str(out),
                 "--config", str(_small_surface(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert "sample 23 could not be generated" in captured.err
    assert "samples written" in captured.err  # ranges before 23 were written
    assert not out.exists()
    assert multiprocessing.active_children() == []

    # an existing output directory stays, without a file left in it
    out.mkdir()
    assert main(["generate", "--n", "37", "--seed", "4", "--out", str(out),
                 "--config", str(_small_surface(tmp_path))]) == 1
    assert list(out.iterdir()) == []

    with pytest.raises(ValueError, match="sample 23 could not be generated"):
        run_experiment(GeneratorConfig(n_samples=37, n_ris_elements=16),
                       EXPERIMENT_TRAIN_CONFIG, 4, tmp_path / "experiment")
    assert not (tmp_path / "experiment").exists()
    assert multiprocessing.active_children() == []


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
    config_path = tmp_path / "readme.ini"
    config_path.write_text(_readme_config_block(), encoding="ascii")
    config = load_config(config_path)
    assert {section: set(values) for section, values in config.items()} == {
        section: set(keys) for section, keys in _SECTIONS.items()}
    assert generator_from_config(config) == GeneratorConfig()
    assert training_from_config(config) == EXPERIMENT_TRAIN_CONFIG
    assert resolve_seed(argparse.Namespace(seed=None), config) == 0


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
    assert multiprocessing.active_children() == []


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


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_reports_pass(capsys):
    assert main(["gradcheck", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck: max relative error" in out
    assert "PASS" in out


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
