"""Dataset generation: determinism, file formats, hash checking, invariants,
the feature table the loader builds, and the memory that generating and
loading take."""

import hashlib
import json
import os
import pickle
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SMALL_GEN, SMALL_SEED, allow_cpus,
                      assert_no_child_processes, generated, table_of)
from oracles import reference_content_hash, reference_images_bytes
from risblock import channel, dataset
from risblock.channel import (channel_bs_ris, channel_bs_ue, channel_ris_ue,
                              co_phase_ris, data_rate, effective_gain)
from risblock.cli import main
from risblock.dataset import (FEATURES_NAME, IMAGES_NAME, MANIFEST_NAME,
                              GeneratorConfig, build_manifest,
                              detect_visible_ue, generate_sample,
                              load_dataset, pool_image,
                              sample_rng, save_dataset)
from risblock.scene import (LinkStatus, generate_trajectory, link_status,
                            random_scene, synthesize_mpcs)

# 37 samples: one full write chunk of 32 and a ragged one of 5
RANGED_GEN = GeneratorConfig(n_samples=37, n_ris_elements=16)


def test_generator_config_validates():
    with pytest.raises(ValueError):
        GeneratorConfig(n_samples=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n_paths_direct=0)
    with pytest.raises(ValueError):
        GeneratorConfig(absent_probability=1.5)
    # images must pool to the 16 x 16 grid, which every scenario reads
    for dims in ((40, 64, 3), (64, 8, 3), (0, 64, 3), (64, 64, 1)):
        with pytest.raises(ValueError, match=re.escape(str(dims))):
            GeneratorConfig(image_dims=dims)
    cfg = GeneratorConfig()
    assert cfg.propagation.carrier_frequency_hz == cfg.carrier_frequency_hz
    assert cfg.geometry.n_ris_elements == cfg.n_ris_elements


def test_sample_rng_streams_are_distinct():
    a = sample_rng(0, 1).integers(0, 2 ** 32)
    b = sample_rng(0, 2).integers(0, 2 ** 32)
    c = sample_rng(1, 1).integers(0, 2 ** 32)
    assert len({int(a), int(b), int(c)}) == 3


@settings(max_examples=200, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32,
                                       2 ** 40 + 5, 2 ** 64 + 3]),
                      st.integers(0, 2 ** 70)),
       index=st.one_of(st.integers(0, 10_000), st.integers(0, 2 ** 40)))
def test_sample_rng_is_the_listed_seed_sequence_bit_for_bit(seed, index):
    got = sample_rng(seed, index)
    want = np.random.default_rng(np.random.SeedSequence(
        [seed, dataset.SAMPLE_STREAM_TAG, index]))
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random() == want.random()


def test_sample_rng_refuses_a_negative_seed_or_index():
    for seed, index in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            sample_rng(seed, index)


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


# Absent samples of GeneratorConfig() at seed 11, recorded from the
# generator that still synthesized their paths and co-phased the surface:
# index -> (location_index, repr(direct_rate), repr(ris_rate), image sha256)
ABSENT_SAMPLES = {
    1: (5, "0.0", "0.0",
        "5bd7d5f35b552dd5ed3bc9e0787edfdde61e6c3c5144bcd30f7c96137881dc6a"),
    2: (3, "0.0", "0.0",
        "2e54b5765bf4999ff0fc9b084ff47350e6766975823babf365138fd7613914a9"),
    3: (6, "0.0", "0.0",
        "c1e8e0a5db9d2c5b3019f63738752ee364a770b84638f13f42c302f2716beab3"),
    6: (3, "0.0", "0.0",
        "1e69169e726a567eb954d2b39da0fcf19d03b0622eb847dd085c0517d98c5f88"),
}


def _recorded_fields(sample):
    return (sample.location_index, repr(sample.direct_rate),
            repr(sample.ris_rate),
            hashlib.sha256(sample.image.tobytes()).hexdigest())


def test_absent_samples_never_reach_the_channel_code(monkeypatch):
    cfg = GeneratorConfig(n_samples=10)
    made = {i: generate_sample(cfg, 11, i) for i in ABSENT_SAMPLES}
    assert {i: _recorded_fields(s) for i, s in made.items()} == ABSENT_SAMPLES

    def unreachable(*args, **kwargs):
        raise AssertionError("an absent sample reached the channel code")

    for name in ("path_tables", "link_rates"):
        monkeypatch.setattr(dataset, name, unreachable)
    for i, sample in made.items():
        again = generate_sample(cfg, 11, i)
        assert again.label is LinkStatus.ABSENT
        assert again.direct_rate == again.ris_rate == 0.0
        assert _recorded_fields(again) == _recorded_fields(sample)
    with pytest.raises(AssertionError, match="channel code"):
        generate_sample(cfg, 11, 0)  # a present terminal still needs them


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


def test_manifest_is_reproducible(tmp_path):
    cfg = GeneratorConfig(n_samples=6, n_ris_elements=16)

    def manifest(seed, name):
        return save_dataset(tmp_path / name, cfg, seed)

    first = manifest(123, "first")
    second = manifest(123, "second")
    assert first == second
    other_seed = manifest(124, "other")
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
    assert save_dataset(tmp_path, SMALL_GEN, SMALL_SEED) == manifest
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [MANIFEST_NAME, IMAGES_NAME, FEATURES_NAME])
    h, w, c = SMALL_GEN.image_dims
    expected = len(samples) * h * w * c * 4
    assert (tmp_path / "images.bin").stat().st_size == expected
    assert (tmp_path / "images.bin").read_bytes() == \
        reference_images_bytes(samples)
    header = (tmp_path / "features.csv").read_text("ascii").splitlines()[0]
    assert header == "index,direct_rate,ris_rate,label"

    # the manifest carries each sample's label and location index
    loaded, loaded_manifest = load_dataset(tmp_path)
    assert loaded_manifest == manifest
    assert len(loaded) == len(samples)
    assert loaded.pooled.shape == (len(samples), 768)
    for i, s in enumerate(samples):
        assert loaded.pooled[i].tobytes() == pool_image(s.image).tobytes()
        assert loaded.visible[i] == detect_visible_ue(s.image)
        assert loaded.direct_rate[i] == s.direct_rate  # repr() round-trips
        assert loaded.ris_rate[i] == s.ris_rate
        assert loaded.label[i] == int(s.label)
    # the loader reads images.bin in chunks; the rows do not depend on it
    in_memory = table_of(samples)
    for column in ("pooled", "visible", "direct_rate", "ris_rate", "label"):
        assert getattr(loaded, column).tobytes() == \
            getattr(in_memory, column).tobytes(), column


def test_corrupted_files_are_refused(tmp_path, small_dataset):
    samples, _ = small_dataset
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
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
    samples = generated(cfg, 3)
    manifest = build_manifest(cfg, 3, samples, "sha256:0")
    want = {str(v): sum(1 for s in samples if int(s.label) == v)
            for v in (-1, 0, 1)}
    assert manifest["class_counts"] == want


def test_saved_manifest_is_stable_json(tmp_path, small_dataset):
    _, manifest = small_dataset
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    text = (tmp_path / "manifest.json").read_text("ascii")
    assert text.endswith("\n")
    assert json.loads(text) == manifest
    before = text
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    assert (tmp_path / "manifest.json").read_text("ascii") == before


def test_str_paths_are_accepted(tmp_path, small_dataset):
    samples, manifest = small_dataset
    save_dataset(str(tmp_path / "ds"), SMALL_GEN, SMALL_SEED)
    loaded, loaded_manifest = load_dataset(str(tmp_path / "ds"))
    assert loaded_manifest == manifest
    assert len(loaded) == len(samples)


def _edit_manifest(directory, edit):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text("ascii"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="ascii")


def test_short_sample_table_is_refused(tmp_path):
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    _edit_manifest(tmp_path, lambda m: m.update(samples=m["samples"][:4]))
    with pytest.raises(ValueError, match="manifest lists 4 samples"):
        load_dataset(tmp_path)


def test_manifest_label_must_match_the_csv(tmp_path):
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    _edit_manifest(tmp_path, lambda m: m["samples"][3].update(label=9))
    with pytest.raises(ValueError, match="sample 3: manifest label 9"):
        load_dataset(tmp_path)


def test_image_dims_must_equal_the_config_image_dims(tmp_path):
    # 32 x 128 images take the bytes of 64 x 64 ones and pool to the same
    # grid, and the content hash does not cover the manifest
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    _edit_manifest(tmp_path, lambda m: m.update(image_dims=[32, 128, 3]))
    for verify in (True, False):
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / MANIFEST_NAME}: image_dims [32, 128, 3] differs "
                f"from config.image_dims [64, 64, 3]")):
            load_dataset(tmp_path, verify=verify)


def test_class_counts_must_count_the_csv_labels(tmp_path, small_dataset):
    _, manifest = small_dataset
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    counts = manifest["class_counts"]
    swapped = dict(counts, **{"-1": counts["0"], "0": counts["-1"]})
    assert swapped != counts
    _edit_manifest(tmp_path, lambda m: m.update(class_counts=swapped))
    for verify in (True, False):
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / MANIFEST_NAME}: class_counts {swapped} disagree "
                f"with the labels of {FEATURES_NAME}, which count {counts}")):
            load_dataset(tmp_path, verify=verify)


def test_the_content_hash_runs_over_the_files_in_order(tmp_path,
                                                       small_dataset):
    samples, manifest = small_dataset
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    digest = hashlib.sha256((tmp_path / IMAGES_NAME).read_bytes())
    digest.update((tmp_path / FEATURES_NAME).read_bytes())
    assert manifest["content_hash"] == "sha256:" + digest.hexdigest()
    assert len(samples) > 2 * dataset.LOAD_CHUNK_IMAGES  # several chunks
    _, loaded = load_dataset(tmp_path, verify=True)
    assert loaded == manifest


def _flip_a_byte(directory):
    blob = bytearray((directory / IMAGES_NAME).read_bytes())
    blob[len(blob) // 2] ^= 0x10
    (directory / IMAGES_NAME).write_bytes(bytes(blob))


def _truncate_images(directory):
    blob = (directory / IMAGES_NAME).read_bytes()
    (directory / IMAGES_NAME).write_bytes(blob[:-7])


def _fail_the_third_pool(monkeypatch):
    calls = []

    def pool(images):
        calls.append(None)
        if len(calls) == 3:
            raise MemoryError("pooling failed")
        return pool_image(images)
    monkeypatch.setattr(dataset, "pool_image", pool)


def _fail_the_hashing(monkeypatch):
    def failing(*args):
        raise OSError("images.bin could not be read")
    monkeypatch.setattr(dataset, "_hash_file", failing)


@pytest.mark.parametrize("spoil, error", [
    (None, None),
    (_flip_a_byte, "hash mismatch"),
    (_truncate_images, "images.bin holds"),
    ("pool", "pooling failed"),
    ("hash", "images.bin could not be read"),
], ids=("loaded", "hash_mismatch", "truncated", "failed_pooling",
        "failed_hashing"))
def test_load_dataset_leaves_no_thread_running(tmp_path, monkeypatch, spoil,
                                               error):
    # train forks its fit pool right after loading, and a fork must not
    # happen while the hashing thread is alive
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    if spoil == "pool":
        _fail_the_third_pool(monkeypatch)
    elif spoil == "hash":  # raised in the hashing thread, so in the caller
        _fail_the_hashing(monkeypatch)
    elif spoil is not None:
        spoil(tmp_path)
    before = threading.active_count()
    if error is None:
        load_dataset(tmp_path, verify=True)
    else:
        # checked while the traceback, and every frame in it, is still held
        with pytest.raises((ValueError, MemoryError, OSError),
                           match=error) as raised:
            load_dataset(tmp_path, verify=True)
        assert raised.traceback
    assert threading.active_count() == before


def test_files_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    caller = os.getpid()
    serial = dataset._draw_sample

    def in_a_worker(cfg, seed, index):
        if os.getpid() == caller:
            raise AssertionError(f"sample {index} made in the calling process")
        return serial(cfg, seed, index)

    samples = generated(RANGED_GEN, 9)
    written = {}
    for cpus in (1, 2):
        allow_cpus(monkeypatch, cpus)
        if cpus == 2:
            monkeypatch.setattr(dataset, "_draw_sample", in_a_worker)
        progress = []
        manifest = save_dataset(tmp_path / str(cpus), RANGED_GEN, 9,
                                progress=progress.append)
        assert len(progress) > 1 and progress[-1] == 37  # several chunks
        written[cpus] = {name: (tmp_path / str(cpus) / name).read_bytes()
                         for name in (MANIFEST_NAME, IMAGES_NAME, FEATURES_NAME)}
        assert written[cpus][IMAGES_NAME] == reference_images_bytes(samples)
        assert manifest["content_hash"] == reference_content_hash(samples)
    assert written[1] == written[2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_sample_fails_the_dataset(tmp_path, monkeypatch, cpus):
    allow_cpus(monkeypatch, cpus)
    serial = dataset._draw_sample

    def failing(cfg, seed, index):
        if index == 33:
            raise ValueError("sample 33 could not be generated")
        return serial(cfg, seed, index)

    monkeypatch.setattr(dataset, "_draw_sample", failing)
    progress = []
    with pytest.raises(ValueError, match="sample 33 could not be generated"):
        save_dataset(tmp_path / "d", RANGED_GEN, 9, progress=progress.append)
    # the chunk before sample 33 was written, but no file is left
    assert progress and progress[-1] <= 33
    assert not (tmp_path / "d").exists()
    assert_no_child_processes()


def test_a_range_task_writes_its_images_and_returns_only_records(tmp_path):
    image_bytes = 4 * 64 * 64 * 3
    # one write chunk, at an offset
    assert 35 - 3 == dataset.WRITE_CHUNK_IMAGES
    with open(tmp_path / IMAGES_NAME, "w+b") as images:
        records = dataset._write_range(RANGED_GEN, 9, images.fileno(), (3, 35))
    # what crosses the pool's pipe: the rates, label and location index
    assert len(pickle.dumps(records)) < 1024 * len(records)
    samples = generated(RANGED_GEN, 9)[3:35]
    assert records == [(s.direct_rate, s.ris_rate, s.label, s.location_index)
                       for s in samples]
    # each image at its index's place, and nothing before the chunk written
    blob = (tmp_path / IMAGES_NAME).read_bytes()
    assert blob == bytes(3 * image_bytes) + reference_images_bytes(samples)


@pytest.mark.parametrize("n_ris_elements, block_ramp_entries", [
    (16, None), (64, None), (8000, None),
    # blocks of three of the seven present samples, the last one short
    (64, 2000), (8000, 3 * 80_005),
])
def test_a_chunk_is_its_samples_made_one_at_a_time_bit_for_bit(
        tmp_path, monkeypatch, n_ris_elements, block_ramp_entries):
    if block_ramp_entries is not None:
        monkeypatch.setattr(channel, "BLOCK_RAMP_ENTRIES", block_ramp_entries)
    cfg = GeneratorConfig(n_samples=12, n_ris_elements=n_ris_elements)
    alone = [generate_sample(cfg, 5, i) for i in range(12)]
    # absent, clear and blocked samples in one chunk
    assert {int(s.label) for s in alone} == {-1, 0, 1}
    with open(tmp_path / IMAGES_NAME, "w+b") as images:
        records = dataset._write_range(cfg, 5, images.fileno(), (0, 12))
    assert [repr(tuple(r)) for r in records] == [
        repr((s.direct_rate, s.ris_rate, s.label, s.location_index))
        for s in alone]
    assert (tmp_path / IMAGES_NAME).read_bytes() == \
        reference_images_bytes(alone)


def test_the_one_sample_chain_gives_generate_sample_rates_bit_for_bit():
    # link_rates gives each present sample the rates of the one-sample
    # functions run on its paths alone: redraw each sample's stream as
    # generate_sample draws it and run the chain on the tables
    # synthesize_mpcs returns. An absent sample has no paths to synthesize,
    # and its rates are 0.0
    for n_ris_elements in (16, 64, 8000):
        cfg = GeneratorConfig(n_samples=12, n_ris_elements=n_ris_elements)
        prop, geom = cfg.propagation, cfg.geometry
        counts = (cfg.n_paths_direct, cfg.n_paths_hop, cfg.n_paths_surface)
        labels = set()
        for index in range(12):
            rng = sample_rng(5, index)
            scene = random_scene(cfg.layout, rng)
            walk = generate_trajectory(scene, cfg.trajectory_steps,
                                       cfg.speed_mps, cfg.step_time_s,
                                       cfg.absent_probability, rng)
            ue = walk[int(rng.integers(0, len(walk)))]
            status = link_status(scene, ue)
            sample = generate_sample(cfg, 5, index)
            labels.add(int(status))
            if status is LinkStatus.ABSENT:
                with pytest.raises(ValueError, match="absent terminal"):
                    synthesize_mpcs(scene, ue, status, prop, *counts, rng)
                assert repr((sample.direct_rate, sample.ris_rate)) == \
                    repr((0.0, 0.0))
                continue
            paths = synthesize_mpcs(scene, ue, status, prop, *counts, rng)
            h_b = channel_bs_ue(paths.bs_ue, prop, geom)
            h_r = channel_bs_ris(paths.bs_ris, prop, geom,
                                 paths.bs_ris_departures)
            h_u = channel_ris_ue(paths.ris_ue, prop, geom)
            gain = effective_gain(h_b, h_u, co_phase_ris(h_b, h_r, h_u), h_r)
            assert repr((data_rate(h_b, prop.snr_linear),
                         data_rate(gain, prop.snr_linear))) == \
                repr((sample.direct_rate, sample.ris_rate))
        # absent, clear and blocked samples
        assert labels == {-1, 0, 1}


def test_a_chunk_computes_its_path_coefficients_once(tmp_path, monkeypatch):
    calls = []

    def counted(links, carrier_hz):
        calls.append(len(links[0][0].delay_s))  # the samples of the call
        return path_coefficients(links, carrier_hz)

    path_coefficients = channel._path_coefficients
    monkeypatch.setattr(channel, "_path_coefficients", counted)
    cfg = GeneratorConfig(n_samples=32)
    assert cfg.n_ris_elements == 8000  # a block of one sample
    with open(tmp_path / IMAGES_NAME, "w+b") as images:
        records = dataset._write_range(cfg, 5, images.fileno(), (0, 32))
    present = sum(r.label is not LinkStatus.ABSENT for r in records)
    assert present > 1
    assert calls == [present]


def test_an_all_absent_chunk_never_reaches_the_channel_code_bit_for_bit(
        tmp_path, monkeypatch):
    cfg = GeneratorConfig(n_samples=12, n_ris_elements=64,
                          absent_probability=1.0)
    alone = [generate_sample(cfg, 5, i) for i in range(12)]

    def unreachable(*args, **kwargs):
        raise AssertionError("an absent sample reached the channel code")

    for name in ("path_tables", "link_rates"):
        monkeypatch.setattr(dataset, name, unreachable)
    with open(tmp_path / IMAGES_NAME, "w+b") as images:
        records = dataset._write_range(cfg, 5, images.fileno(), (0, 12))
    assert [repr(tuple(r)) for r in records] == [
        repr((0.0, 0.0, LinkStatus.ABSENT, s.location_index)) for s in alone]
    assert (tmp_path / IMAGES_NAME).read_bytes() == \
        reference_images_bytes(alone)


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """name -> bytes of a saved 4-sample dataset with 16 x 16 images."""
    cfg = GeneratorConfig(n_samples=4, n_ris_elements=16, image_dims=(16, 16, 3))
    directory = tmp_path_factory.mktemp("tiny")
    save_dataset(directory, cfg, 2)
    return {name: (directory / name).read_bytes()
            for name in (MANIFEST_NAME, IMAGES_NAME, FEATURES_NAME)}


def _write_files(directory, files):
    for name, content in files.items():
        (directory / name).write_bytes(content)


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
        _write_files(Path(directory), dict(tiny_files, **{name: bytes(blob)}))
        with pytest.raises(ValueError):
            load_dataset(directory, verify=True)
        if truncate:  # the files' lengths are checked without the hash
            with pytest.raises(ValueError):
                load_dataset(directory, verify=False)


def test_a_dataset_whose_images_the_grid_cannot_pool_is_refused(tmp_path,
                                                                tiny_files):
    # each keeps the byte count of 16 x 16 x 3 images, so images.bin still
    # fits the manifest and the content hash, which does not cover it, matches
    manifest = json.loads(tiny_files[MANIFEST_NAME])
    for dims in ([8, 32, 3], [4, 4, 48], [16, 16, 3, 1], [16.0, 16, 3]):
        manifest["image_dims"] = dims
        _write_files(tmp_path, dict(tiny_files, **{
            MANIFEST_NAME: json.dumps(manifest).encode("ascii")}))
        for verify in (True, False):
            with pytest.raises(ValueError, match=re.escape(str(tuple(dims)))):
                load_dataset(tmp_path, verify=verify)


def test_a_loaded_table_has_a_pooled_block_for_every_row(tmp_path, tiny_files):
    _write_files(tmp_path, tiny_files)
    table, manifest = load_dataset(tmp_path)
    assert len(table) == manifest["n_samples"] == 4
    assert table.pooled.shape == (4, 768)
    assert table.visible.shape == (4,)
    rows = np.array([2, 0])
    assert table.take(rows).pooled.tobytes() == table.pooled[rows].tobytes()


# a whole extra image, one byte short, and an extra features.csv row; none
# changes the manifest, so the hash is not what catches them
@pytest.mark.parametrize("name, edit, message", [
    (IMAGES_NAME, lambda blob: blob + blob[:768 * 4], "holds 15360 bytes"),
    (IMAGES_NAME, lambda blob: blob[:-1], "holds 12287 bytes"),
    (FEATURES_NAME, lambda blob: blob + b"4,1.0,2.0,0\n",
     "features.csv has 5 rows, manifest says 4"),
], ids=("long_images", "short_images", "extra_row"))
def test_file_sizes_are_checked_without_verify(tmp_path, tiny_files, name,
                                               edit, message):
    _write_files(tmp_path, dict(tiny_files, **{name: edit(tiny_files[name])}))
    with pytest.raises(ValueError, match=message):
        load_dataset(tmp_path, verify=False)


@pytest.mark.parametrize("rate", ["inf", "1e999", "-inf", "nan"])
@pytest.mark.parametrize("column", [1, 2], ids=("direct", "ris"))
def test_features_rates_must_be_finite(tmp_path, tiny_files, rate, column):
    lines = tiny_files[FEATURES_NAME].decode("ascii").split("\n")
    cells = lines[2].split(",")
    cells[column] = rate
    lines[2] = ",".join(cells)
    _write_files(tmp_path, dict(tiny_files, **{
        FEATURES_NAME: "\n".join(lines).encode("ascii")}))
    with pytest.raises(ValueError, match="features.csv row 1 is not"):
        load_dataset(tmp_path, verify=False)


# ---------------------------------------------------------------- rows
#
# load_dataset(rows=...) pools and holds only those rows, but its checks
# still cover every sample of the dataset.


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("small_rows")
    save_dataset(directory, SMALL_GEN, SMALL_SEED)
    return directory


@pytest.fixture(scope="module")
def small_loaded(small_dir):
    return load_dataset(small_dir)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_table_of_rows_is_the_take_of_the_whole_table(small_dir,
                                                        small_loaded, data):
    table, manifest = small_loaded
    rows = data.draw(st.lists(st.integers(0, len(table) - 1), unique=True,
                              max_size=len(table)), label="rows")
    part, part_manifest = load_dataset(small_dir, rows=rows)
    assert part_manifest == manifest
    want = table.take(np.array(rows, dtype=np.intp))
    assert len(part) == len(rows)
    for column in ("pooled", "visible", "direct_rate", "ris_rate", "label"):
        got, expected = getattr(part, column), getattr(want, column)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), column


# the first chunk of images alone: every other chunk goes unpooled
FIRST_CHUNK = list(range(dataset.LOAD_CHUNK_IMAGES))


def test_a_flipped_byte_outside_the_rows_is_refused(tmp_path, monkeypatch):
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    _flip_a_byte(tmp_path)  # in image 70, far from the first chunk
    pooled = []

    def counting(images):
        pooled.append(len(images))
        return pool_image(images)
    monkeypatch.setattr(dataset, "pool_image", counting)
    before = threading.active_count()
    with pytest.raises(ValueError, match="hash mismatch"):
        load_dataset(tmp_path, rows=FIRST_CHUNK)
    assert pooled == [len(FIRST_CHUNK)]
    assert threading.active_count() == before


def test_a_manifest_label_outside_the_rows_is_checked(tmp_path):
    save_dataset(tmp_path, SMALL_GEN, SMALL_SEED)
    _edit_manifest(tmp_path, lambda m: m["samples"][100].update(label=9))
    for verify in (True, False):
        with pytest.raises(ValueError, match="sample 100: manifest label 9"):
            load_dataset(tmp_path, verify=verify, rows=FIRST_CHUNK)


@pytest.mark.parametrize("rows, message", [
    ([3, 5, 3], "distinct"),
    ([0, 140], r"\[0, 140\)"),
    ([-1, 2], r"\[0, 140\)"),
    ([1.0, 2.0], "ints"),
    ([True, False], "ints"),
    ([[0, 1]], "1-D"),
], ids=("duplicate", "past_the_end", "negative", "floats", "bools", "2d"))
def test_rows_must_be_distinct_ints_in_range(small_dir, rows, message):
    before = threading.active_count()
    with pytest.raises(ValueError, match=message):
        load_dataset(small_dir, rows=rows)
    assert threading.active_count() == before


# ---------------------------------------------------------------- memory
#
# Neither generating nor loading may hold a dataset's images: tracemalloc,
# which numpy reports its buffers to, must see a peak under a quarter of
# images.bin. Saving in a pool may not hold even half a write chunk of them.

MEMORY_GEN = GeneratorConfig(n_samples=400, n_ris_elements=64)


def _traced_peak(function, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def memory_dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("memory")
    save_dataset(directory, MEMORY_GEN, 1)
    return directory


def test_saving_in_a_pool_holds_no_range_of_images(memory_dataset, tmp_path,
                                                  monkeypatch):
    # the chunk tasks write their images themselves; the caller hashes them
    # back LOAD_CHUNK_IMAGES at a time
    allow_cpus(monkeypatch, 2)
    half_chunk = dataset.WRITE_CHUNK_IMAGES // 2
    assert half_chunk > dataset.LOAD_CHUNK_IMAGES
    # a first pool imports the modules the pool needs, which tracemalloc
    # would count
    save_dataset(tmp_path / "first", RANGED_GEN, 9)
    _, peak = _traced_peak(save_dataset, tmp_path / "d", MEMORY_GEN, 1)
    half_chunk_bytes = half_chunk * 64 * 64 * 3 * 4
    assert peak < half_chunk_bytes, f"save traced {peak} bytes, half a " \
        f"chunk is {half_chunk_bytes}"
    for name in (MANIFEST_NAME, IMAGES_NAME, FEATURES_NAME):
        assert (tmp_path / "d" / name).read_bytes() == \
            (memory_dataset / name).read_bytes()


def test_load_dataset_holds_no_dataset_of_images(memory_dataset):
    size = (memory_dataset / IMAGES_NAME).stat().st_size
    assert size == 400 * 64 * 64 * 3 * 4
    (table, _), peak = _traced_peak(load_dataset, memory_dataset)
    assert len(table) == 400
    assert peak < size / 4, f"load traced {peak} bytes for {size} of images"


def test_generate_holds_no_dataset_of_images(memory_dataset, tmp_path,
                                             monkeypatch, capsys):
    allow_cpus(monkeypatch, 1)
    config = tmp_path / "memory.ini"
    config.write_text("[generator]\nn_ris_elements = 64\n", encoding="ascii")
    out = tmp_path / "dataset"
    code, peak = _traced_peak(main, ["generate", "--config", str(config),
                                     "--n", "400", "--seed", "1",
                                     "--out", str(out)])
    assert code == 0
    size = (out / IMAGES_NAME).stat().st_size
    assert peak < size / 4, f"generate traced {peak} bytes for {size} of images"
    # the manifests differ only in the config's n_samples, which --n overrides
    for name in (IMAGES_NAME, FEATURES_NAME):
        assert (out / name).read_bytes() == (memory_dataset / name).read_bytes()
