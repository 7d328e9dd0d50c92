"""All-or-nothing output sets: the staging helper, and every command that
writes through it failing while it writes or when a directory sits at one
of its file names."""

import errno
import math
import os
from pathlib import Path

import pytest

from conftest import allow_cpus, assert_no_child_processes
from risblock._files import csv_text, json_text, staged_files
from risblock.cli import main
from risblock.dataset import GeneratorConfig
from risblock.pipeline import EXPERIMENT_TRAIN_CONFIG, run_experiment

CONFIG_TEXT = """\
[generator]
n_samples = 60
n_ris_elements = 32

[experiment]
seed = 5
"""


# ---------------------------------------------------------------- helper


def _snapshot(root):
    """{relative path: bytes, or None for a directory} of everything under
    root."""
    return {path.relative_to(root).as_posix():
            None if path.is_dir() else path.read_bytes()
            for path in sorted(root.rglob("*"))}


def test_files_appear_in_the_order_staged(tmp_path, monkeypatch):
    renamed = []
    replace = os.replace

    def recording(source, target):
        renamed.append(Path(target).name)
        replace(source, target)

    monkeypatch.setattr(os, "replace", recording)
    with staged_files(tmp_path / "a" / "b") as stage:
        stage.write("second.txt", "2\n")
        stage.path("first.bin").write_bytes(b"\x01")
        stage.write("manifest.json", json_text({"k": 1}))
        # nothing appears under its own name before the block ends
        assert all(path.name.startswith(".") and path.name.endswith(".tmp")
                   for path in (tmp_path / "a" / "b").iterdir())
    assert renamed == ["second.txt", "first.bin", "manifest.json"]
    assert _snapshot(tmp_path / "a" / "b") == {
        "first.bin": b"\x01", "manifest.json": b'{\n  "k": 1\n}\n',
        "second.txt": b"2\n"}


def test_an_error_removes_the_temporaries_and_the_directories_made(tmp_path):
    with pytest.raises(RuntimeError, match="stop"):
        with staged_files(tmp_path / "a" / "b") as stage:
            stage.write("one.txt", "1\n")
            raise RuntimeError("stop")
    assert list(tmp_path.iterdir()) == []


def test_a_directory_at_a_name_stops_every_rename(tmp_path):
    (tmp_path / "old.txt").write_text("old\n")
    (tmp_path / "two.txt").mkdir()
    before = _snapshot(tmp_path)
    with pytest.raises(IsADirectoryError) as raised:
        with staged_files(tmp_path) as stage:
            stage.write("one.txt", "1\n")
            stage.write("old.txt", "new\n")
            stage.write("two.txt", "2\n")
    assert raised.value.errno == errno.EISDIR
    assert raised.value.filename == str(tmp_path / "two.txt")
    assert _snapshot(tmp_path) == before


def test_canonical_text_forms():
    assert json_text({"b": [1, 2.5], "a": "\u00e9"}) == \
        '{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert csv_text(("i", "x"), [(1, 0.1), (2, 1e-20)]) == \
        "i,x\n1,0.1\n2,1e-20\n"
    assert csv_text(("i", "x"), []) == "i,x\n"
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            json_text({"x": [1.0, value]})


# ---------------------------------------------------------------- commands


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A config and the dataset, models and reports made from it."""
    root = tmp_path_factory.mktemp("staging")
    (root / "config.ini").write_text(CONFIG_TEXT, encoding="ascii")
    for argv in (["generate", "--out", str(root / "dataset")],
                 ["train", "--dataset", str(root / "dataset"),
                  "--out", str(root / "models")],
                 ["eval", "--dataset", str(root / "dataset"),
                  "--models", str(root / "models"),
                  "--out", str(root / "reports")]):
        assert main([*argv, "--config", str(root / "config.ini")]) == 0
    return root


def _cli(*argv):
    def run(root, out):
        return main([arg.format(root=root, out=out) for arg in argv])
    return run


def _experiment(root, out):
    run_experiment(GeneratorConfig(n_samples=60, n_ris_elements=32),
                   EXPERIMENT_TRAIN_CONFIG, 5, out,
                   dataset_dir=root / "dataset")
    return 0


# name -> (run, CPU counts, a file of the set found in out beforehand, the
# file name a directory takes, the write_text call into out that fails)
WRITERS = {
    "generate": (_cli("generate", "--config", "{root}/config.ini",
                      "--out", "{out}"),
                 (1, 2), "features.csv", "manifest.json", 2),
    "train": (_cli("train", "--config", "{root}/config.ini",
                   "--dataset", "{root}/dataset", "--out", "{out}"),
              (1, 2), "model_none.bin", "model_ris.bin", 5),
    "eval": (_cli("eval", "--config", "{root}/config.ini",
                  "--dataset", "{root}/dataset", "--models", "{root}/models",
                  "--out", "{out}"),
             (1,), "report_none.json", "report_ris.json", 9),
    "curves": (_cli("curves", "--results", "{root}/reports", "--out", "{out}"),
               (1,), "curves.csv", "curves.svg", 2),
    "run_experiment": (_experiment, (1, 2), "report_none.json",
                       "experiment_manifest.json", 14),
}

CASES = [(name, cpus, phase) for name, (_, counts, *_) in WRITERS.items()
         for cpus in counts for phase in ("write", "directory")]


@pytest.mark.parametrize("name, cpus, phase", CASES)
def test_a_failed_writer_leaves_the_output_directory_as_it_was(
        workspace, tmp_path, monkeypatch, capsys, name, cpus, phase):
    run, _, stale, taken, failing_call = WRITERS[name]
    allow_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_bytes(b"kept\n")
    (out / stale).write_bytes(b"stale\n")
    if phase == "directory":
        (out / taken).mkdir()
        (out / taken / "inside.txt").write_bytes(b"inside\n")
        error = IsADirectoryError
    else:
        calls = []
        write_text = Path.write_text

        def failing(path, *args, **kwargs):
            if path.parent == out:
                calls.append(path)
                if len(calls) == failing_call:
                    raise OSError(errno.ENOSPC, "No space left on device",
                                  str(path))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        error = OSError
    before = _snapshot(out)

    if name == "run_experiment":
        with pytest.raises(error):
            run(workspace, out)
    else:
        assert run(workspace, out) == 1
        assert "error:" in capsys.readouterr().err
    assert _snapshot(out) == before
    assert_no_child_processes()


def test_a_failed_writer_removes_the_directory_it_made(workspace, tmp_path,
                                                        monkeypatch):
    out = tmp_path / "new" / "reports"
    write_text = Path.write_text

    def failing(path, *args, **kwargs):
        if path.name.startswith(".timings.json"):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)
    assert WRITERS["eval"][0](workspace, out) == 1
    assert not (tmp_path / "new").exists()
