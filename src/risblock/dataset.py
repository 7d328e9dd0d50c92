"""Labeled dataset generation: scenes -> channels -> (image, rates, label),
and the feature table that training and evaluation read back.

Every sample is generated from its own RNG stream derived as
SeedSequence([root_seed, stream_tag, index]), so the output is independent
of generation order. `sample_rng` hands SeedSequence the uint32 words it
would make of that list (each int's 32-bit words, least significant first)
as one array: the same entropy, so the same stream, without numpy's
coercion of a list of Python ints, which cost more than half of the
SeedSequence. How each value is then drawn from the stream, and why that
gives rng.uniform's doubles, is in the scene module's docstring; the range
checks rng.uniform made on every draw are made once, by SceneLayout. A
sample holds the rendered scene image, the
direct-link data rate, the surface-assisted data rate with co-phased
elements, the ternary label, and the trajectory step it was taken from.

`save_dataset` maps write chunks of WRITE_CHUNK_IMAGES indices with
`fork_map` (inline on one CPU, a forked pool on more; it alone decides how
many workers run). Each chunk task makes its samples in one `_generate`
call, writes their images straight into the staged images.bin at their
offset and returns only the rates, labels and location indices, so no image
crosses a process boundary. The caller takes the chunks in index order and
hashes each back from the file while later chunks are made, so the files
are the same bytes on any CPU count. The caller holds no more than
WRITE_CHUNK_IMAGES images on one CPU, and none on more. The pool forks
warm: `save_dataset` first loads numpy.random (not at the top, which every
command would pay). Forked cold, each worker loaded numpy.random itself:
its first 32-sample, 64-element chunk took 19-28 ms of CPU, 10-14 warm.
Each worker fills the scene caches on its first sample.

Each sample of a chunk is drawn from its own stream, in the same order: its
scene, walk, location, link status and, for a present terminal, its one
`rng.random` of path values (`_draw_sample`). Then the chunk's present
samples go through the channel stage in one call each of
`scene.path_tables` and `channel.link_rates`, which sizes its own blocks.
Absent samples never reach it: both their rates are 0.0. `generate_sample`
is this run on one index, and gives the bytes the dataset holds.

On disk a dataset is three files: `manifest.json` (generation parameters,
per-sample metadata, class counts, and a sha256 content hash), `images.bin`
(raw little-endian float32, N x H x W x C, C order) and `features.csv`
(columns index, direct_rate, ris_rate, label; floats as repr round-trips).
`read_manifest` checks the manifest's entries against one schema table,
`risblock._files.MANIFEST_TABLE`, in one pass over its samples; what the
table cannot say (the labels, class counts and lengths against the other
two files, the content hash) `load_dataset` compares afterwards.

A dataset's images are (H, W, 3) with H and W positive multiples of 16
(`check_dataset_image_dims`): `GeneratorConfig` refuses other sizes, and
`load_dataset` refuses a manifest that records them before it reads
images.bin. So every dataset pools to the same 16 x 16 x 3 grid and feeds
all four scenarios.

`load_dataset` never holds the images either. It reads images.bin
LOAD_CHUNK_IMAGES images at a time. Each chunk is reduced to its rows of a
`FeatureTable` (the image pooled to a 16 x 16 x 3 block, and whether the
camera sees the terminal) and dropped. Given `rows`, it pools only those
images and the table holds only those rows, in the order given; a chunk
with none of them is not pooled. The checks still cover every sample. With
verification on, one hashing thread reads the whole file on its own,
LOAD_CHUNK_IMAGES images at a time, and adds it to the content hash while
the caller pools, so two chunks are in flight at once; the thread is joined
before `load_dataset` returns or raises.
"""

import errno
import hashlib
import json
import math
import numbers
import os
import threading
from collections import namedtuple
from contextlib import closing
from dataclasses import dataclass, field, fields, asdict
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from risblock._files import (MANIFEST_TABLE, checked_json, csv_text, json_text,
                             staged_files)
from risblock._pool import fork_map
from risblock.channel import ArrayGeometry, PropagationConfig, link_rates
from risblock.scene import (LinkStatus, SceneLayout, draw_paths,
                            generate_trajectory, link_status, path_tables,
                            random_scene, render_image)

# tag mixed into every per-sample SeedSequence, decoupling sample streams
# from any other consumer of the same root seed
SAMPLE_STREAM_TAG = 101

MANIFEST_NAME = "manifest.json"
IMAGES_NAME = "images.bin"
FEATURES_NAME = "features.csv"

# images per pool item, written into images.bin in one call: 1.5 MB of
# 64 x 64 x 3 images. Written one at a time, 2000 such samples took about
# 15% more CPU in two pool workers, with 180k minor page faults against 27k:
# glibc raises its mmap threshold to the size of a freed mapped block, and
# no block freed in a worker was then larger than the per-sample
# temporaries, so those were mapped and faulted in afresh for every sample.
WRITE_CHUNK_IMAGES = 32

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
        if not 0 < self.step_time_s < math.inf:
            raise ValueError("step_time_s must be finite and > 0")
        object.__setattr__(self, "image_dims", tuple(self.image_dims))
        check_dataset_image_dims(self.image_dims)
        self.propagation  # bad physical parameters fail here, not mid-run
        self.geometry

    # cached once per config outside the fields, so asdict never sees them
    @cached_property
    def propagation(self):
        return PropagationConfig(carrier_frequency_hz=self.carrier_frequency_hz,
                                 speed_mps=self.speed_mps,
                                 snr_linear=self.snr_linear)

    @cached_property
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

    def __post_init__(self):
        if self.direct_rate < 0 or self.ris_rate < 0:
            raise ValueError("rates must be >= 0")


def _uint32_words(value):
    """The non-negative int value as SeedSequence splits it: its 32-bit
    words, least significant first, one word for 0."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def sample_rng(seed, index):
    """Independent per-sample generator; order-free by construction. It is
    default_rng(SeedSequence([seed, SAMPLE_STREAM_TAG, index])), given the
    uint32 words that list becomes as one array."""
    return np.random.default_rng(np.random.SeedSequence(np.array(
        [*_uint32_words(seed), SAMPLE_STREAM_TAG, *_uint32_words(index)],
        dtype=np.uint32)))


def generate_sample(cfg, seed, index):
    """Scene, trajectory step, channels, co-phasing, rates, render — one
    sample: what makes a dataset's samples, run on one index, so it is the
    sample the dataset holds there."""
    return next(_generate(cfg, seed, [index]))


# what _draw_sample takes of a sample from its stream; paths is None for an
# absent terminal
_Draw = namedtuple("_Draw", "scene ue status location_index paths")


def _draw_sample(cfg, seed, index):
    """Everything sample `index` draws from its own stream, in the order it
    draws it: the scene, the walk, the location, the link status and, for a
    present terminal, its path values (scene.draw_paths)."""
    rng = sample_rng(seed, index)
    scene = random_scene(cfg.layout, rng)
    walk = generate_trajectory(scene, cfg.trajectory_steps, cfg.speed_mps,
                               cfg.step_time_s, cfg.absent_probability, rng)
    location_index = int(rng.integers(0, len(walk)))
    ue = walk[location_index]
    status = link_status(scene, ue)
    paths = None
    if status != LinkStatus.ABSENT:
        paths = draw_paths(scene, ue, status, cfg.propagation,
                           cfg.n_paths_direct, cfg.n_paths_hop,
                           cfg.n_paths_surface, rng)
    return _Draw(scene, ue, status, location_index, paths)


def _generate(cfg, seed, indices):
    """The Samples of indices, in order, one at a time.

    Each index is drawn from its own stream (_draw_sample); then the
    channels, co-phasing and rates of the present samples are computed in
    one channel.link_rates call, and each image is rendered as its sample
    is taken. _draw_sample and link_rates are looked up as module globals
    when this runs, so a rebound one (a test's patch, a tracer's wrapper) is
    the one called.
    """
    draws = [_draw_sample(cfg, seed, i) for i in indices]
    # No terminal: both channels to it are zero vectors, so the direct and
    # the co-phased gain are 0 for any station->surface channel and both
    # rates are log1p(0) = 0.0. Rendering draws nothing from the stream, so
    # the absent samples never reach the channel code.
    present = [draw.paths for draw in draws if draw.paths is not None]
    rates = iter(())
    if present:
        tables = path_tables(present, cfg.n_paths_direct, cfg.n_paths_hop,
                             cfg.n_paths_surface)
        rates = zip(*link_rates(tables.bs_ue, tables.bs_ris,
                                tables.bs_ris_departures, tables.ris_ue,
                                cfg.propagation, cfg.geometry))
    for draw in draws:
        direct_rate, ris_rate = (0.0, 0.0) if draw.paths is None else next(rates)
        yield Sample(image=render_image(draw.scene, draw.ue, draw.status,
                                        cfg.image_dims),
                     direct_rate=direct_rate, ris_rate=ris_rate,
                     label=draw.status, location_index=draw.location_index)


# what a chunk task returns of a sample once its image is written
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


def save_dataset(out_dir, cfg, seed, n_samples=None, progress=None):
    """Generate samples 0 .. n_samples - 1 (default cfg.n_samples) of cfg
    at seed and write them as a dataset; returns its manifest.

    The write chunks are made on every allowed CPU and hashed back from
    images.bin in index order (see the module docstring); progress(k), if
    given, is called once the first k samples are written and hashed. The
    three files are staged (see risblock._files): all of them appear, or
    none.
    """
    n = cfg.n_samples if n_samples is None else int(n_samples)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    bounds = [(start, min(start + WRITE_CHUNK_IMAGES, n))
              for start in range(0, n, WRITE_CHUNK_IMAGES)]
    image_bytes = 4 * math.prod(cfg.image_dims)
    import numpy.random  # noqa: F401 (the pool forks warm: module docstring)
    with staged_files(out_dir) as stage:
        digest = hashlib.sha256()
        records = []
        # opened before the pool forks, so every worker holds the descriptor
        with (open(stage.path(IMAGES_NAME), "w+b") as images,
              closing(fork_map(partial(_write_range, cfg, seed,
                                       images.fileno()), bounds)) as chunks):
            for (start, stop), part in zip(bounds, chunks):
                records += part
                _hash_file(images.fileno(), start * image_bytes,
                           stop * image_bytes, LOAD_CHUNK_IMAGES * image_bytes,
                           digest)
                if progress is not None:
                    progress(stop)
        features_text = _features_csv(records)
        manifest = build_manifest(cfg, seed, records,
                                  _content_hash(digest, features_text))
        stage.write(FEATURES_NAME, features_text)
        # the manifest last: a directory with one holds a finished dataset
        stage.write(MANIFEST_NAME, json_text(manifest))
    return manifest


def _write_range(cfg, seed, fd, bounds):
    """Make the samples of range(*bounds) in one _generate call, write their
    images at their places in the open images.bin `fd` in one write, and
    return their _Records."""
    start, stop = bounds
    images = np.empty((stop - start, *cfg.image_dims),
                      dtype="<f4")  # as images.bin stores them
    records = []
    for k, s in enumerate(_generate(cfg, seed, range(start, stop))):
        images[k] = s.image
        records.append(_Record(s.direct_rate, s.ris_rate, s.label,
                               s.location_index))
    if os.pwrite(fd, images, start * images[0].nbytes) != images.nbytes:
        raise OSError(errno.ENOSPC, f"short write to {IMAGES_NAME}")
    return records


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
        """The table of the given rows: an index array, whose rows are
        copied in its order, or a slice, whose rows are views."""
        return FeatureTable(*(getattr(self, f.name)[rows] for f in fields(self)))


def _checked_rows(rows, n):
    """rows as an index array; ValueError unless they are distinct ints in
    [0, n)."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ValueError(f"rows must be a 1-D sequence of ints, got {rows!r}")
    rows = rows.astype(np.intp, copy=False)
    if rows.size and not (0 <= rows.min() and rows.max() < n):
        raise ValueError(f"rows must lie in [0, {n}), got {rows.min()} to "
                         f"{rows.max()}")
    if len(np.unique(rows)) != len(rows):
        raise ValueError("rows must be distinct")
    return rows


def image_columns(image_chunks, n, image_dims, rows=None):
    """The table's (pooled, visible) columns for n images of image_dims,
    given as consecutive (k, H, W, C) stacks: all n in order, or the images
    at rows (distinct ints in [0, n), see _checked_rows) in rows' order.

    A chunk that holds none of the rows is not pooled, and one that holds
    only rows is pooled as it came.
    """
    # positions[i]: the table row that image i fills, or -1 if none does
    if rows is None:
        positions, size = np.arange(n), n
    else:
        positions, size = np.full(n, -1), len(rows)
        positions[rows] = np.arange(size)
    pooled = np.empty((size, pooled_feature_count(image_dims)))
    visible = np.empty(size, dtype=bool)
    start = 0
    for images in image_chunks:
        stop = start + len(images)
        chunk_positions = positions[start:stop]
        start = stop
        kept = chunk_positions >= 0
        if not kept.all():
            if not kept.any():
                continue
            images, chunk_positions = images[kept], chunk_positions[kept]
        pooled[chunk_positions] = pool_image(images).reshape(len(images), -1)
        visible[chunk_positions] = detect_visible_ue(images)
    return pooled, visible


def _hash_file(fd, start, stop, chunk_bytes, digest):
    """Add bytes start .. stop - 1 of the open file `fd` to digest in file
    order, chunk_bytes at a time."""
    for offset in range(start, stop, chunk_bytes):
        digest.update(os.pread(fd, min(chunk_bytes, stop - offset), offset))


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
    the generator ends or is closed, after it has hashed the whole file,
    and what it raised is raised here; close the generator before the
    caller returns, so no thread is alive when a pool forks.
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
    failed = []  # what the hashing thread raised

    def hash_file():
        try:
            _hash_file(images_file.fileno(), 0, size,
                       LOAD_CHUNK_IMAGES * image_bytes, digest)
        except BaseException as exc:
            failed.append(exc)

    hasher = threading.Thread(target=hash_file, name="dataset-hash")
    hasher.start()
    try:
        yield from chunks
    finally:
        hasher.join()
    if failed:
        raise failed[0]


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
            if not (0 <= direct_rate[i] < math.inf
                    and 0 <= ris_rate[i] < math.inf):
                raise ValueError
            label[i] = LinkStatus(int(status))
        except ValueError:
            raise ValueError(f"{FEATURES_NAME} row {i} is not "
                             f"'{i},<finite rate >= 0>,<finite rate >= 0>,"
                             f"<-1|0|1>': "
                             f"{row!r}") from None
    return direct_rate, ris_rate, label


def read_manifest(dataset_dir):
    """A dataset directory's manifest, once it passes MANIFEST_TABLE and
    its image_dims pass check_dataset_image_dims and equal its config's
    (else ValueError naming the file and the entry)."""
    path = Path(dataset_dir) / MANIFEST_NAME
    manifest = checked_json(path, path.read_bytes(), MANIFEST_TABLE)
    image_dims = manifest["image_dims"]
    try:
        check_dataset_image_dims(image_dims)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if image_dims != manifest["config"]["image_dims"]:
        raise ValueError(f"{path}: image_dims {image_dims} differs from "
                         f"config.image_dims "
                         f"{manifest['config']['image_dims']}")
    return manifest


def load_dataset(dataset_dir, verify=True, rows=None):
    """Read a dataset directory into (FeatureTable, manifest).

    The table holds every sample in index order, or with rows (distinct ints
    in [0, N), else ValueError) exactly those samples in rows' order; only
    their images are pooled; rows may be a function of the manifest that
    returns them. Every check below covers all N samples whatever the rows.

    The manifest must pass read_manifest, images.bin must hold exactly its
    N x H x W x 3 float32 values and features.csv exactly one well-formed
    row per sample. With verify=True (default) the sha256 content hash must
    match the manifest; a corrupted or edited file raises ValueError. The
    manifest's sample table must list every sample with the label
    features.csv gives it, and its class_counts must count those labels,
    whether or not the hash is checked: the hash does not cover the
    manifest.

    With verify=True the whole of images.bin is hashed on a second thread
    while the rows are pooled (see _read_images); the thread is joined
    before this returns or raises.
    """
    dataset_dir = Path(dataset_dir)
    manifest = read_manifest(dataset_dir)
    features_text = (dataset_dir / FEATURES_NAME).read_text("ascii")
    n = manifest["n_samples"]
    image_dims = tuple(manifest["image_dims"])
    if callable(rows):
        rows = rows(manifest)
    if rows is not None:
        rows = _checked_rows(rows, n)

    digest = hashlib.sha256() if verify else None
    with (open(dataset_dir / IMAGES_NAME, "rb") as images_file,
          closing(_read_images(images_file, n, image_dims, digest)) as chunks):
        pooled, visible = image_columns(chunks, n, image_dims, rows)
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
        if meta["label"] != label[i]:
            raise ValueError(f"sample {i}: manifest label {meta['label']} "
                             f"differs from features.csv label {label[i]}")
    counts = _class_counts(label)
    if manifest["class_counts"] != counts:
        raise ValueError(f"{dataset_dir / MANIFEST_NAME}: class_counts "
                         f"{manifest['class_counts']} disagree with the "
                         f"labels of {FEATURES_NAME}, which count {counts}")
    if rows is not None:
        direct_rate, ris_rate, label = (column[rows] for column
                                        in (direct_rate, ris_rate, label))
    table = FeatureTable(pooled=pooled, visible=visible,
                         direct_rate=direct_rate, ris_rate=ris_rate,
                         label=label)
    return table, manifest
