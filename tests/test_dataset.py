"""Dataset generation: determinism, file formats, hash checking, invariants."""

import json
import multiprocessing
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SMALL_GEN, SMALL_SEED, allow_cpus
from oracles import reference_content_hash, reference_images_bytes
from risblock import dataset
from risblock.dataset import (FEATURES_NAME, IMAGES_NAME, MANIFEST_NAME,
                              GeneratorConfig, build_manifest,
                              generate_dataset, generate_sample, load_dataset,
                              sample_rng, save_dataset)
from risblock.scene import LinkStatus

# 37 samples split into ranges of 3 on two CPUs, so the last range is ragged
RANGED_GEN = GeneratorConfig(n_samples=37, n_ris_elements=16)


def test_generator_config_validates():
    with pytest.raises(ValueError):
        GeneratorConfig(n_samples=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n_paths_direct=0)
    with pytest.raises(ValueError):
        GeneratorConfig(absent_probability=1.5)
    cfg = GeneratorConfig()
    assert cfg.propagation().carrier_frequency_hz == cfg.carrier_frequency_hz
    assert cfg.geometry().n_ris_elements == cfg.n_ris_elements


def test_sample_rng_streams_are_distinct():
    a = sample_rng(0, 1).integers(0, 2 ** 32)
    b = sample_rng(0, 2).integers(0, 2 ** 32)
    c = sample_rng(1, 1).integers(0, 2 ** 32)
    assert len({int(a), int(b), int(c)}) == 3


def test_samples_are_order_independent(small_dataset):
    # any sample can be regenerated alone and match the batch output exactly
    samples, _ = small_dataset
    for index in (0, 3, 77):
        alone = generate_sample(SMALL_GEN, SMALL_SEED, index)
        batch = samples[index]
        assert alone.image.tobytes() == batch.image.tobytes()
        assert alone.direct_rate == batch.direct_rate
        assert alone.ris_rate == batch.ris_rate
        assert alone.label == batch.label
        assert alone.location_index == batch.location_index


def test_sample_fields_are_consistent(small_dataset):
    samples, _ = small_dataset
    for s in samples:
        assert s.image.dtype == np.float32
        assert s.image.shape == SMALL_GEN.image_dims
        if s.label is LinkStatus.ABSENT:
            # no terminal: no receive paths, no rates, no terminal pixel
            assert s.direct_rate == 0.0
            assert s.ris_rate == 0.0
            assert not np.any(s.image[:, :, 2] > 0.0)
        elif s.label is LinkStatus.BLOCKED:
            assert s.direct_rate > 0.0
            assert s.ris_rate > 0.0
            assert not np.any(s.image[:, :, 2] > 0.0)
        else:
            assert s.direct_rate > 0.0
            assert np.any(s.image[:, :, 2] > 0.0)


def test_rate_separations_by_label(small_dataset):
    samples, _ = small_dataset
    by = {status: [s for s in samples if s.label is status]
          for status in LinkStatus}
    mean = lambda xs: float(np.mean(xs)) if xs else 0.0
    # the surface path exists only when the terminal is present
    assert (mean([s.ris_rate for s in by[LinkStatus.BLOCKED]])
            > mean([s.ris_rate for s in by[LinkStatus.ABSENT]]))
    # penetration loss degrades the direct link
    assert (mean([s.direct_rate for s in by[LinkStatus.UNBLOCKED]])
            > mean([s.direct_rate for s in by[LinkStatus.BLOCKED]]))


def test_class_frequencies_are_balanced(small_dataset):
    samples, manifest = small_dataset
    n = len(samples)
    for key, count in manifest["class_counts"].items():
        assert 0.15 <= count / n <= 0.55, f"class {key} frequency off"


def test_manifest_is_reproducible():
    cfg = GeneratorConfig(n_samples=6, n_ris_elements=16)
    _, first = generate_dataset(cfg, 123)
    _, second = generate_dataset(cfg, 123)
    assert first == second
    _, other_seed = generate_dataset(cfg, 124)
    assert other_seed["content_hash"] != first["content_hash"]


def test_manifest_records_the_generation(small_dataset):
    samples, manifest = small_dataset
    assert manifest["format"] == "risblock-dataset"
    assert manifest["n_samples"] == len(samples)
    assert manifest["seed"] == SMALL_SEED
    assert manifest["content_hash"].startswith("sha256:")
    assert manifest["config"]["n_ris_elements"] == SMALL_GEN.n_ris_elements
    assert len(manifest["samples"]) == len(samples)
    counted = sum(manifest["class_counts"].values())
    assert counted == len(samples)
    for meta, s in zip(manifest["samples"], samples):
        assert meta["label"] == int(s.label)
        assert meta["location_index"] == s.location_index


def test_save_load_roundtrip(tmp_path, small_dataset):
    samples, manifest = small_dataset
    save_dataset(tmp_path, samples, manifest)
    h, w, c = SMALL_GEN.image_dims
    expected = len(samples) * h * w * c * 4
    assert (tmp_path / "images.bin").stat().st_size == expected
    header = (tmp_path / "features.csv").read_text("ascii").splitlines()[0]
    assert header == "index,direct_rate,ris_rate,label"

    loaded, loaded_manifest = load_dataset(tmp_path)
    assert loaded_manifest == manifest
    for a, b in zip(samples, loaded):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.direct_rate == b.direct_rate  # repr() round-trips exactly
        assert a.ris_rate == b.ris_rate
        assert a.label == b.label
        assert a.location_index == b.location_index


def test_corrupted_files_are_refused(tmp_path, small_dataset):
    samples, manifest = small_dataset
    save_dataset(tmp_path, samples, manifest)
    blob = bytearray((tmp_path / "images.bin").read_bytes())
    blob[100] ^= 0xFF
    (tmp_path / "images.bin").write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="hash mismatch"):
        load_dataset(tmp_path)
    # an explicit opt-out still reads the files
    loaded, _ = load_dataset(tmp_path, verify=False)
    assert len(loaded) == len(samples)


def test_build_manifest_counts_labels():
    cfg = GeneratorConfig(n_samples=4, n_ris_elements=16)
    samples, _ = generate_dataset(cfg, 3)
    manifest = build_manifest(cfg, 3, samples)
    want = {str(v): sum(1 for s in samples if int(s.label) == v)
            for v in (-1, 0, 1)}
    assert manifest["class_counts"] == want


def test_saved_manifest_is_stable_json(tmp_path, small_dataset):
    samples, manifest = small_dataset
    save_dataset(tmp_path, samples, manifest)
    text = (tmp_path / "manifest.json").read_text("ascii")
    assert text.endswith("\n")
    assert json.loads(text) == manifest
    before = text
    save_dataset(tmp_path, samples, manifest)
    assert (tmp_path / "manifest.json").read_text("ascii") == before


def test_str_paths_are_accepted(tmp_path, small_dataset):
    samples, manifest = small_dataset
    save_dataset(str(tmp_path / "ds"), samples, manifest)
    loaded, loaded_manifest = load_dataset(str(tmp_path / "ds"))
    assert loaded_manifest == manifest
    assert len(loaded) == len(samples)


def _edit_manifest(directory, edit):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text("ascii"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="ascii")


def test_short_sample_table_is_refused(tmp_path, small_dataset):
    samples, manifest = small_dataset
    save_dataset(tmp_path, samples, manifest)
    _edit_manifest(tmp_path, lambda m: m.update(samples=m["samples"][:4]))
    with pytest.raises(ValueError, match="manifest lists 4 samples"):
        load_dataset(tmp_path)


def test_manifest_label_must_match_the_csv(tmp_path, small_dataset):
    samples, manifest = small_dataset
    save_dataset(tmp_path, samples, manifest)
    _edit_manifest(tmp_path, lambda m: m["samples"][3].update(label=9))
    with pytest.raises(ValueError, match="sample 3: manifest label 9"):
        load_dataset(tmp_path)


def test_files_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    caller = os.getpid()
    serial = dataset.generate_sample

    def in_a_worker(cfg, seed, index):
        if os.getpid() == caller:
            raise AssertionError(f"sample {index} made in the calling process")
        return serial(cfg, seed, index)

    written = {}
    for cpus in (1, 2):
        allow_cpus(monkeypatch, cpus)
        if cpus == 2:
            monkeypatch.setattr(dataset, "generate_sample", in_a_worker)
        samples, manifest = generate_dataset(RANGED_GEN, 9)
        save_dataset(tmp_path / str(cpus), samples, manifest)
        written[cpus] = {name: (tmp_path / str(cpus) / name).read_bytes()
                         for name in (MANIFEST_NAME, IMAGES_NAME, FEATURES_NAME)}
        assert written[cpus][IMAGES_NAME] == reference_images_bytes(samples)
        assert manifest["content_hash"] == reference_content_hash(samples)
    assert written[1] == written[2]
    assert [s.seed_used[2] for s in samples] == list(range(37))


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_sample_fails_the_dataset(monkeypatch, cpus):
    allow_cpus(monkeypatch, cpus)
    serial = dataset.generate_sample

    def failing(cfg, seed, index):
        if index == 23:
            raise ValueError("sample 23 could not be generated")
        return serial(cfg, seed, index)

    monkeypatch.setattr(dataset, "generate_sample", failing)
    with pytest.raises(ValueError, match="sample 23 could not be generated"):
        generate_dataset(RANGED_GEN, 9)
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """name -> bytes of a saved 4-sample dataset with 8 x 8 images."""
    cfg = GeneratorConfig(n_samples=4, n_ris_elements=16, image_dims=(8, 8, 3))
    directory = tmp_path_factory.mktemp("tiny")
    save_dataset(directory, *generate_dataset(cfg, 2))
    return {name: (directory / name).read_bytes()
            for name in (MANIFEST_NAME, IMAGES_NAME, FEATURES_NAME)}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from([IMAGES_NAME, FEATURES_NAME]),
       truncate=st.booleans(), data=st.data())
def test_any_flipped_byte_or_truncation_is_refused(tiny_files, name, truncate,
                                                   data):
    blob = bytearray(tiny_files[name])
    if truncate:
        del blob[data.draw(st.integers(0, len(blob) - 1), label="keep"):]
    else:
        position = data.draw(st.integers(0, len(blob) - 1), label="position")
        blob[position] ^= data.draw(st.integers(1, 255), label="mask")
    with tempfile.TemporaryDirectory() as directory:
        for file_name, content in tiny_files.items():
            edited = bytes(blob) if file_name == name else content
            (Path(directory) / file_name).write_bytes(edited)
        with pytest.raises(ValueError):
            load_dataset(directory, verify=True)
