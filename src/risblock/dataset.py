"""Labeled dataset generation: scenes -> channels -> (image, rates, label),
and the feature table that training and evaluation read back.

Every sample is generated from its own RNG stream derived as
SeedSequence([root_seed, stream_tag, index]), so the output is independent
of generation order. A sample holds the rendered scene image, the
direct-link data rate, the surface-assisted data rate with co-phased
elements, the ternary label, the trajectory step it was taken from, and the
seed material.

`generate_dataset` cuts the indices into contiguous ranges, about
RANGES_PER_WORKER per CPU in the process's affinity mask, and maps them with
`fork_map` (inline on one CPU, a forked pool on more), which yields each
range's samples in index order. `save_dataset` writes and hashes each range
as it arrives and then drops its images, so the files are the same bytes on
any CPU count and no more than a range of images is held at once. It writes
through `risblock._files.staged_files`, the manifest last, so a failed run
leaves no dataset. `taskset -c 0` gives a serial run.

On disk a dataset is three files: `manifest.json` (generation parameters,
per-sample metadata, class counts, and a sha256 content hash), `images.bin`
(raw little-endian float32, N x H x W x C, C order) and `features.csv`
(columns index, direct_rate, ris_rate, label; floats as repr round-trips).

A dataset's images are (H, W, 3) with H and W positive multiples of 16
(`check_dataset_image_dims`): `GeneratorConfig` refuses other sizes, and
`load_dataset` refuses a manifest that records them before it reads
images.bin. So every dataset pools to the same 16 x 16 x 3 grid and feeds
all four scenarios.

`load_dataset` never holds the images either. It reads images.bin
LOAD_CHUNK_IMAGES images at a time. Each chunk is reduced to its rows of a
`FeatureTable` (the image pooled to a 16 x 16 x 3 block, and whether the
camera sees the terminal) and dropped. With verification on, one hashing
thread reads the same file on its own, LOAD_CHUNK_IMAGES images at a time,
and adds it to the content hash while the caller pools, so two chunks are in
flight at once; the thread is joined before `load_dataset` returns or
raises.
"""

import hashlib
import json
import math
import numbers
import os
from collections import namedtuple
from contextlib import closing
from dataclasses import dataclass, field, fields, asdict
from functools import partial
from pathlib import Path

import numpy as np

from risblock._files import csv_text, json_text, staged_files
from risblock._pool import fork_map
from risblock.channel import (ArrayGeometry, PropagationConfig, channel_bs_ris,
                              channel_bs_ue, channel_ris_ue, co_phase_ris,
                              data_rate, effective_gain)
from risblock.scene import (LinkStatus, SceneLayout, generate_trajectory,
                            link_status, random_scene, render_image,
                            synthesize_mpcs)

# tag mixed into every per-sample SeedSequence, decoupling sample streams
# from any other consumer of the same root seed
SAMPLE_STREAM_TAG = 101

MANIFEST_NAME = "manifest.json"
IMAGES_NAME = "images.bin"
FEATURES_NAME = "features.csv"

# index ranges per allowed CPU: enough that a slow range leaves little idle
# time at the end, few enough that task overhead stays small
RANGES_PER_WORKER = 8

# images per read of images.bin: 393 KB of 64 x 64 x 3 images, small beside
# the table being filled even with two chunks alive, one pooled, one hashed.
# Reads of 8, 16, 32 or 125 images loaded 2000 such images in the same time
# (0.23-0.24 s, hashed on one thread), so the smallest is kept.
LOAD_CHUNK_IMAGES = 8

# the grid every image is average-pooled to before it reaches the classifier
POOLED_HW = (16, 16)


@dataclass(frozen=True)
class GeneratorConfig:
    """Frozen generation recipe; defaults are the calibrated desk-scale setup."""

    n_samples: int = 5000
    carrier_frequency_hz: float = 28e9
    speed_mps: float = 20.0
    step_time_s: float = 0.1
    snr_linear: float = 1.65e10
    n_bs_antennas: int = 1
    n_ris_elements: int = 8000
    element_spacing_wavelengths: float = 0.5
    n_paths_direct: int = 5
    n_paths_hop: int = 5
    n_paths_surface: int = 5
    absent_probability: float = 1.0 / 3.0
    trajectory_steps: int = 8
    image_dims: tuple = (64, 64, 3)
    layout: SceneLayout = field(default_factory=SceneLayout)

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.trajectory_steps < 1:
            raise ValueError("trajectory_steps must be >= 1")
        for name in ("n_paths_direct", "n_paths_hop", "n_paths_surface"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.absent_probability <= 1:
            raise ValueError("absent_probability must lie in [0, 1]")
        if not self.step_time_s > 0:
            raise ValueError("step_time_s must be > 0")
        object.__setattr__(self, "image_dims", tuple(self.image_dims))
        check_dataset_image_dims(self.image_dims)
        self.propagation()  # bad physical parameters fail here, not mid-run
        self.geometry()

    def propagation(self):
        return PropagationConfig(carrier_frequency_hz=self.carrier_frequency_hz,
                                 speed_mps=self.speed_mps,
                                 snr_linear=self.snr_linear)

    def geometry(self):
        return ArrayGeometry(
            n_bs_antennas=self.n_bs_antennas,
            n_ris_elements=self.n_ris_elements,
            element_spacing_wavelengths=self.element_spacing_wavelengths)


@dataclass(frozen=True)
class Sample:
    """One labeled observation of the link."""

    image: np.ndarray
    direct_rate: float
    ris_rate: float
    label: LinkStatus
    location_index: int
    seed_used: tuple

    def __post_init__(self):
        if self.direct_rate < 0 or self.ris_rate < 0:
            raise ValueError("rates must be >= 0")


def sample_rng(seed, index):
    """Independent per-sample generator; order-free by construction."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), SAMPLE_STREAM_TAG, int(index)]))


def generate_sample(cfg, seed, index):
    """Scene, trajectory step, channels, co-phasing, rates, render — one sample."""
    rng = sample_rng(seed, index)
    scene = random_scene(cfg.layout, rng)
    trajectory = generate_trajectory(scene, cfg.trajectory_steps, cfg.speed_mps,
                                     cfg.step_time_s, cfg.absent_probability, rng)
    location_index = int(rng.integers(0, trajectory.n_steps))
    ue = trajectory.positions[location_index]
    status = link_status(scene, ue)

    prop = cfg.propagation()
    geom = cfg.geometry()
    if status == LinkStatus.ABSENT:
        # No terminal: both channels to it are zero vectors, so the direct and
        # the co-phased gain are 0 for any station->surface channel and both
        # rates are log1p(0) = 0.0. Nothing below draws from rng, so skipping
        # the paths leaves the image unchanged.
        direct_rate = ris_rate = 0.0
    else:
        paths = synthesize_mpcs(scene, ue, status, prop, cfg.n_paths_direct,
                                cfg.n_paths_hop, cfg.n_paths_surface, rng)
        h_direct = channel_bs_ue(paths.bs_ue, prop, geom)
        h_hop = channel_bs_ris(paths.bs_ris, prop, geom, paths.bs_ris_departures)
        h_surface = channel_ris_ue(paths.ris_ue, prop, geom)

        direct_rate = data_rate(h_direct, prop.snr_linear)
        surface = co_phase_ris(h_direct, h_hop, h_surface)
        gain = effective_gain(h_direct, h_surface, surface, h_hop)
        ris_rate = data_rate(gain, prop.snr_linear)

    image = render_image(scene, ue, status, cfg.image_dims)
    return Sample(image=image, direct_rate=direct_rate, ris_rate=ris_rate,
                  label=status, location_index=location_index,
                  seed_used=(int(seed), SAMPLE_STREAM_TAG, int(index)))


# what the writer keeps of a sample once its image is written
_Record = namedtuple("_Record", "direct_rate ris_rate label location_index")

_FEATURES_HEADER = ("index", "direct_rate", "ris_rate", "label")


def _features_csv(samples):
    return csv_text(_FEATURES_HEADER, (
        (i, float(s.direct_rate), float(s.ris_rate), int(s.label))
        for i, s in enumerate(samples)))


def _content_hash(digest, features_text):
    """The manifest's content hash: sha256 over images.bin, then features.csv.
    `digest` has already taken the bytes of images.bin."""
    digest.update(features_text.encode("ascii"))
    return "sha256:" + digest.hexdigest()


def config_record(cfg):
    """The manifest's `config`: cfg as JSON values."""
    record = asdict(cfg)
    # normalize tuples to lists so the record equals its JSON round-trip
    return json.loads(json.dumps(record))


def _class_counts(labels):
    """The manifest's class_counts: how many of the labels are -1, 0 and 1."""
    labels = [int(label) for label in labels]
    return {str(v): labels.count(v) for v in (-1, 0, 1)}


def build_manifest(cfg, seed, samples, content_hash):
    """The manifest of samples (anything with label and location_index)."""
    return {
        "format": "risblock-dataset",
        "version": 1,
        "n_samples": len(samples),
        "seed": int(seed),
        "sample_stream_tag": SAMPLE_STREAM_TAG,
        "image_dims": list(cfg.image_dims),
        "config": config_record(cfg),
        "class_counts": _class_counts(s.label for s in samples),
        "content_hash": content_hash,
        "samples": [{"index": i, "label": int(s.label),
                     "location_index": s.location_index}
                    for i, s in enumerate(samples)],
    }


def generate_dataset(cfg, seed, n_samples=None):
    """Iterator over the samples of each index range, in index order.

    The ranges are made on every allowed CPU. Run the iterator to its end or
    close it: until then a forked pool may still be running.
    """
    n = cfg.n_samples if n_samples is None else int(n_samples)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    size = -(-n // (RANGES_PER_WORKER * len(os.sched_getaffinity(0))))
    bounds = [(start, min(start + size, n)) for start in range(0, n, size)]
    return fork_map(partial(_generate_range, cfg, seed), bounds)


def _generate_range(cfg, seed, bounds):
    # generate_sample is looked up as a module global when the range runs, so
    # a rebound one (a test's patch, a tracer's wrapper) is the one called
    return [generate_sample(cfg, seed, i) for i in range(*bounds)]


def save_dataset(out_dir, ranges, cfg, seed):
    """Write the samples of `ranges`, an iterable of sample lists in index
    order, as a dataset made by `cfg` from `seed`; returns its manifest.

    Each range is written and hashed as it arrives, then dropped. The three
    files are staged (see risblock._files): all of them appear, or none.
    """
    with staged_files(out_dir) as stage:
        digest = hashlib.sha256()
        records = []
        with open(stage.path(IMAGES_NAME), "wb") as images:
            for part in ranges:
                for s in part:
                    # as images.bin stores it: C-order little-endian f4
                    buffer = np.ascontiguousarray(s.image, dtype="<f4")
                    images.write(buffer)
                    digest.update(buffer)
                    records.append(_Record(s.direct_rate, s.ris_rate, s.label,
                                           s.location_index))
                # drop this range's images before the next range is made
                del part
        features_text = _features_csv(records)
        manifest = build_manifest(cfg, seed, records,
                                  _content_hash(digest, features_text))
        stage.write(FEATURES_NAME, features_text)
        # the manifest last: a directory with one holds a finished dataset
        stage.write(MANIFEST_NAME, json_text(manifest))
    return manifest


def check_dataset_image_dims(image_dims):
    """Raise ValueError, naming the dims, unless a dataset may hold images
    of image_dims: (H, W, 3) with H and W positive multiples of POOLED_HW."""
    dims = tuple(image_dims)
    if (len(dims) != 3 or not all(isinstance(d, numbers.Integral) for d in dims)
            or dims[2] != 3 or min(dims[:2]) < 1):
        raise ValueError(f"image {dims} is not three ints (H >= 1, W >= 1, 3)")
    if dims[0] % POOLED_HW[0] or dims[1] % POOLED_HW[1]:
        raise ValueError(f"image {dims} not divisible into {POOLED_HW}")


def pooled_feature_count(image_dims):
    return POOLED_HW[0] * POOLED_HW[1] * image_dims[2]


def pool_image(images):
    """Average-pool (..., H, W, C) images to (..., h, w, C) float64 blocks,
    (h, w) = POOLED_HW.

    h and w must divide H and W evenly. Each block is the float64 sum of its
    pixels in row-major order divided by their count, as numpy's mean over
    the block axes of a float64 copy computes it, without making that copy.
    """
    images = np.asarray(images)
    h, w = POOLED_HW
    *lead, height, width, channels = images.shape
    if height % h or width % w:
        raise ValueError(f"image {images.shape[-3:]} not divisible into "
                         f"{POOLED_HW}")
    rows, cols = height // h, width // w
    blocks = images.reshape(*lead, h, rows, w, cols, channels)
    pooled = blocks[..., 0, :, 0, :].astype(np.float64)
    for i in range(rows):
        for j in range(cols):
            if i or j:
                pooled += blocks[..., i, :, j, :]
    pooled /= rows * cols
    return pooled


def detect_visible_ue(images):
    """Camera-stage rule on (..., H, W, C) images: whether any channel-2
    pixel is above 0.5, one bool per image."""
    return np.any(np.asarray(images)[..., 2] > 0.5, axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Everything the scenarios read of a dataset, one row per sample.

    pooled       (N, 768) float64: each image average-pooled to
                 POOLED_HW x 3 and flattened
    visible      (N,) bool: detect_visible_ue of each image
    direct_rate  (N,) float64
    ris_rate     (N,) float64
    label        (N,) int64 in {-1, 0, 1}
    """

    pooled: np.ndarray
    visible: np.ndarray
    direct_rate: np.ndarray
    ris_rate: np.ndarray
    label: np.ndarray

    def __len__(self):
        return len(self.label)

    def take(self, rows):
        """The table of the given row indices, in their order."""
        return FeatureTable(*(getattr(self, f.name)[rows] for f in fields(self)))


def image_columns(image_chunks, n, image_dims):
    """The table's (pooled, visible) columns for n images of image_dims,
    given as consecutive (k, H, W, C) stacks."""
    pooled = np.empty((n, pooled_feature_count(image_dims)))
    visible = np.empty(n, dtype=bool)
    start = 0
    for images in image_chunks:
        stop = start + len(images)
        pooled[start:stop] = pool_image(images).reshape(len(images), -1)
        visible[start:stop] = detect_visible_ue(images)
        start = stop
    return pooled, visible


def _hash_file(fd, size, chunk_bytes, digest):
    """Add the first `size` bytes of the open file `fd` to digest in file
    order, chunk_bytes at a time."""
    for offset in range(0, size, chunk_bytes):
        digest.update(os.pread(fd, min(chunk_bytes, size - offset), offset))


def _read_images(images_file, n, image_dims, digest):
    """images.bin as consecutive (k, H, W, C) float32 stacks of at most
    LOAD_CHUNK_IMAGES images.

    With a digest, one hashing thread reads the same open file on its own
    (os.pread, which leaves the caller's file position alone) and adds it to
    the digest in file order while the caller pools the chunks; hashlib lets
    go of the GIL for buffers of 2 KB or more. Each side holds one chunk, so
    two are alive at once. The two sides meet once, at the end: handing the
    thread each chunk instead cost up to two cross-CPU wake-ups a chunk, 500
    a load at n=2000. On a 2-CPU virtual machine the slowest of a run of
    such loads took up to 0.69 s that way, against at most 0.25 s this way
    and 0.38 s on one thread (BENCH_17.json). The thread is joined when
    the generator ends or is closed, after it has hashed the whole file;
    close the generator before the caller returns, so no thread is alive
    when a pool forks.
    """
    image_bytes = 4 * math.prod(image_dims)
    size = os.fstat(images_file.fileno()).st_size
    if size != n * image_bytes:
        raise ValueError(f"{IMAGES_NAME} holds {size} bytes, but {n} float32 "
                         f"images of {tuple(image_dims)} take "
                         f"{n * image_bytes}")
    chunks = (np.frombuffer(
        images_file.read(min(LOAD_CHUNK_IMAGES, n - start) * image_bytes),
        dtype="<f4").reshape(-1, *image_dims)
        for start in range(0, n, LOAD_CHUNK_IMAGES))
    if digest is None:
        yield from chunks
        return
    # imported here, not at the top: concurrent.futures pulls in logging,
    # about 14 ms of start-up that commands which load no dataset would pay
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as hasher:
        hashed = hasher.submit(_hash_file, images_file.fileno(), size,
                               LOAD_CHUNK_IMAGES * image_bytes, digest)
        yield from chunks
        hashed.result()


def _parse_features(text, n):
    """(direct_rate, ris_rate, label) columns of features.csv text, which
    must be exactly what _features_csv writes for n samples."""
    lines = text.split("\n")
    if lines[0] != ",".join(_FEATURES_HEADER):
        raise ValueError(f"{FEATURES_NAME} header is {lines[0]!r}")
    if lines[-1]:
        raise ValueError(f"{FEATURES_NAME} does not end with a newline")
    rows = lines[1:-1]
    if len(rows) != n:
        raise ValueError(f"features.csv has {len(rows)} rows, manifest says {n}")
    direct_rate, ris_rate = np.empty(n), np.empty(n)
    label = np.empty(n, dtype=np.int64)
    for i, row in enumerate(rows):
        try:
            index, direct, ris, status = row.split(",")
            if int(index) != i:
                raise ValueError
            direct_rate[i], ris_rate[i] = float(direct), float(ris)
            if not (direct_rate[i] >= 0 and ris_rate[i] >= 0):
                raise ValueError
            label[i] = LinkStatus(int(status))
        except ValueError:
            raise ValueError(f"{FEATURES_NAME} row {i} is not "
                             f"'{i},<rate >= 0>,<rate >= 0>,<-1|0|1>': "
                             f"{row!r}") from None
    return direct_rate, ris_rate, label


def load_dataset(dataset_dir, verify=True):
    """Read a dataset directory into (FeatureTable, manifest).

    The manifest's image_dims must pass check_dataset_image_dims and equal
    its config's, images.bin must hold exactly its N x H x W x 3 float32
    values and features.csv exactly one well-formed row per sample. With
    verify=True (default) the sha256 content hash must match the manifest;
    a corrupted or edited file raises ValueError. The manifest's sample
    table must list every sample with the label features.csv gives it, and
    its class_counts must count those labels, whether or not the hash is
    checked: the hash does not cover the manifest.

    With verify=True images.bin is hashed on a second thread while it is
    pooled (see _read_images); the thread is joined before this returns or
    raises.
    """
    dataset_dir = Path(dataset_dir)
    manifest = json.loads((dataset_dir / MANIFEST_NAME).read_text("ascii"))
    features_text = (dataset_dir / FEATURES_NAME).read_text("ascii")
    n = manifest["n_samples"]
    image_dims = tuple(manifest["image_dims"])
    try:
        check_dataset_image_dims(image_dims)
    except ValueError as exc:
        raise ValueError(f"{dataset_dir / MANIFEST_NAME}: {exc}") from None
    if list(image_dims) != list(manifest["config"]["image_dims"]):
        raise ValueError(f"{dataset_dir / MANIFEST_NAME}: image_dims "
                         f"{list(image_dims)} differs from config.image_dims "
                         f"{manifest['config']['image_dims']}")

    digest = hashlib.sha256() if verify else None
    with (open(dataset_dir / IMAGES_NAME, "rb") as images_file,
          closing(_read_images(images_file, n, image_dims, digest)) as chunks):
        pooled, visible = image_columns(chunks, n, image_dims)
    if verify:
        actual = _content_hash(digest, features_text)
        if actual != manifest["content_hash"]:
            raise ValueError(
                f"dataset content hash mismatch: manifest says "
                f"{manifest['content_hash']}, files give {actual}")

    direct_rate, ris_rate, label = _parse_features(features_text, n)
    if len(manifest["samples"]) != n:
        raise ValueError(f"manifest lists {len(manifest['samples'])} samples, "
                         f"its n_samples says {n}")
    for i, meta in enumerate(manifest["samples"]):
        if int(meta["label"]) != label[i]:
            raise ValueError(f"sample {i}: manifest label {meta['label']} "
                             f"differs from features.csv label {label[i]}")
    counts = _class_counts(label)
    if manifest["class_counts"] != counts:
        raise ValueError(f"{dataset_dir / MANIFEST_NAME}: class_counts "
                         f"{manifest['class_counts']} disagree with the "
                         f"labels of {FEATURES_NAME}, which count {counts}")
    table = FeatureTable(pooled=pooled, visible=visible,
                         direct_rate=direct_rate, ris_rate=ris_rate,
                         label=label)
    return table, manifest
