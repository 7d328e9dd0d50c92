"""Labeled dataset generation: scenes -> channels -> (image, rates, label).

Every sample is generated from its own RNG stream derived as
SeedSequence([root_seed, stream_tag, index]), so the output is independent
of generation order. A sample holds the rendered scene image, the
direct-link data rate, the surface-assisted data rate with co-phased
elements, the ternary label, the trajectory step it was taken from, and the
seed material.

`generate_dataset` cuts the indices into contiguous ranges, about
RANGES_PER_WORKER per CPU in the process's affinity mask, maps them with
`fork_map` (inline on one CPU, a forked pool on more) and joins the results
in index order, so the files are the same bytes on any CPU count.
`taskset -c 0` gives a serial run. The content hash and images.bin take each
image's buffer in turn, so no stacked copy of the images is ever made.

On disk a dataset is three files: `manifest.json` (generation parameters,
per-sample metadata, class counts, and a sha256 content hash), `images.bin`
(raw little-endian float32, N x H x W x C, C order) and `features.csv`
(columns index, direct_rate, ris_rate, label; floats as repr round-trips).
"""

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field, asdict
from functools import partial
from pathlib import Path

import numpy as np

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
        object.__setattr__(self, "image_dims", tuple(self.image_dims))

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
    paths = synthesize_mpcs(scene, ue, status, prop, cfg.n_paths_direct,
                            cfg.n_paths_hop, cfg.n_paths_surface, rng)
    h_direct = channel_bs_ue(paths.bs_ue, prop, geom)
    h_hop = channel_bs_ris(paths.bs_ris, prop, geom,
                           departures=paths.bs_ris_departures)
    h_surface = channel_ris_ue(paths.ris_ue, prop, geom)

    direct_rate = data_rate(h_direct, prop.snr_linear)
    surface = co_phase_ris(h_direct, h_hop, h_surface)
    gain = effective_gain(h_direct, h_surface, surface, h_hop)
    ris_rate = data_rate(gain, prop.snr_linear)

    image = render_image(scene, ue, status, cfg.image_dims)
    return Sample(image=image, direct_rate=direct_rate, ris_rate=ris_rate,
                  label=status, location_index=location_index,
                  seed_used=(int(seed), SAMPLE_STREAM_TAG, int(index)))


def _image_buffer(sample):
    """The sample's image as images.bin stores it: C-order little-endian f4."""
    return np.ascontiguousarray(sample.image, dtype="<f4")


def _features_csv(samples):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "direct_rate", "ris_rate", "label"])
    for i, s in enumerate(samples):
        writer.writerow([i, repr(float(s.direct_rate)), repr(float(s.ris_rate)),
                         int(s.label)])
    return buf.getvalue()


def _content_hash(samples):
    digest = hashlib.sha256()
    for s in samples:
        digest.update(_image_buffer(s))
    digest.update(_features_csv(samples).encode("ascii"))
    return "sha256:" + digest.hexdigest()


def _config_record(cfg):
    record = asdict(cfg)
    record["layout"] = asdict(cfg.layout)
    # normalize tuples to lists so the record equals its JSON round-trip
    return json.loads(json.dumps(record))


def build_manifest(cfg, seed, samples):
    labels = [int(s.label) for s in samples]
    return {
        "format": "risblock-dataset",
        "version": 1,
        "n_samples": len(samples),
        "seed": int(seed),
        "sample_stream_tag": SAMPLE_STREAM_TAG,
        "image_dims": list(cfg.image_dims),
        "config": _config_record(cfg),
        "class_counts": {str(v): labels.count(v) for v in (-1, 0, 1)},
        "content_hash": _content_hash(samples),
        "samples": [{"index": i, "label": int(s.label),
                     "location_index": s.location_index}
                    for i, s in enumerate(samples)],
    }


def generate_dataset(cfg, seed, n_samples=None):
    """All samples for a root seed, plus the manifest describing them."""
    n = cfg.n_samples if n_samples is None else int(n_samples)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    size = -(-n // (RANGES_PER_WORKER * len(os.sched_getaffinity(0))))
    bounds = [(start, min(start + size, n)) for start in range(0, n, size)]
    samples = [sample
               for part in fork_map(partial(_generate_range, cfg, seed), bounds)
               for sample in part]
    return samples, build_manifest(cfg, seed, samples)


def _generate_range(cfg, seed, bounds):
    # generate_sample is looked up as a module global when the range runs, so
    # a rebound one (a test's patch, a tracer's wrapper) is the one called
    return [generate_sample(cfg, seed, i) for i in range(*bounds)]


def save_dataset(out_dir, samples, manifest):
    """Write manifest.json, images.bin and features.csv into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / IMAGES_NAME, "wb") as images:
        for s in samples:
            images.write(_image_buffer(s))
    (out_dir / FEATURES_NAME).write_text(_features_csv(samples),
                                         encoding="ascii")
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="ascii")


def load_dataset(dataset_dir, verify=True):
    """Read a dataset directory back into (samples, manifest).

    With verify=True (default) the sha256 content hash must match the
    manifest; a corrupted or edited file raises ValueError. The manifest's
    sample table must list every sample with the label features.csv gives
    it, whether or not the hash is checked.
    """
    dataset_dir = Path(dataset_dir)
    manifest = json.loads((dataset_dir / MANIFEST_NAME).read_text("ascii"))
    image_bytes = (dataset_dir / IMAGES_NAME).read_bytes()
    features_text = (dataset_dir / FEATURES_NAME).read_text("ascii")

    if verify:
        digest = hashlib.sha256()
        digest.update(image_bytes)
        digest.update(features_text.encode("ascii"))
        actual = "sha256:" + digest.hexdigest()
        if actual != manifest["content_hash"]:
            raise ValueError(
                f"dataset content hash mismatch: manifest says "
                f"{manifest['content_hash']}, files give {actual}")

    n = manifest["n_samples"]
    h, w, c = manifest["image_dims"]
    images = np.frombuffer(image_bytes, dtype="<f4").reshape(n, h, w, c)

    rows = list(csv.DictReader(io.StringIO(features_text)))
    if len(rows) != n:
        raise ValueError(f"features.csv has {len(rows)} rows, manifest says {n}")
    if len(manifest["samples"]) != n:
        raise ValueError(f"manifest lists {len(manifest['samples'])} samples, "
                         f"its n_samples says {n}")
    seed = manifest["seed"]
    tag = manifest.get("sample_stream_tag", SAMPLE_STREAM_TAG)
    samples = []
    for i, (row, meta) in enumerate(zip(rows, manifest["samples"])):
        if int(meta["label"]) != int(row["label"]):
            raise ValueError(f"sample {i}: manifest label {meta['label']} "
                             f"differs from features.csv label {row['label']}")
        samples.append(Sample(
            image=images[i].copy(),
            direct_rate=float(row["direct_rate"]),
            ris_rate=float(row["ris_rate"]),
            label=LinkStatus(int(row["label"])),
            location_index=int(meta["location_index"]),
            seed_used=(seed, tag, i),
        ))
    return samples, manifest
