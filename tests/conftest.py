"""Shared fixtures: one small generated dataset reused by pipeline/CLI tests,
ways to hold generated samples and their feature table in memory, and a way
to pretend the process may run on a given number of CPUs, and a check that
no child process is left."""

import os

import numpy as np
import pytest

from risblock.dataset import (FeatureTable, GeneratorConfig, generate_sample,
                              image_columns, save_dataset)

# A small surface and sample count keep the shared dataset cheap to build
# while preserving all three classes and the rate separations tests rely on.
SMALL_GEN = GeneratorConfig(n_samples=140, n_ris_elements=64)
SMALL_SEED = 11


def generated(cfg, seed, n_samples=None):
    """Samples 0 .. n_samples - 1 (default cfg.n_samples) of cfg at seed,
    the samples save_dataset writes, as one list."""
    n = cfg.n_samples if n_samples is None else n_samples
    return [generate_sample(cfg, seed, i) for i in range(n)]


def table_of(samples):
    """The FeatureTable of in-memory samples, built by the loader's row
    builder from their images."""
    dims = samples[0].image.shape
    pooled, visible = image_columns((s.image[None] for s in samples),
                                    len(samples), dims)
    return FeatureTable(pooled=pooled, visible=visible,
                        direct_rate=np.array([s.direct_rate for s in samples],
                                             dtype=np.float64),
                        ris_rate=np.array([s.ris_rate for s in samples],
                                          dtype=np.float64),
                        label=np.array([int(s.label) for s in samples]))


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """(samples, manifest) of SMALL_GEN at SMALL_SEED; the manifest is the
    one save_dataset writes for them."""
    samples = generated(SMALL_GEN, SMALL_SEED)
    labels = {int(s.label) for s in samples}
    assert labels == {-1, 0, 1}, "fixture dataset must contain all three classes"
    manifest = save_dataset(tmp_path_factory.mktemp("small_dataset"),
                            SMALL_GEN, SMALL_SEED)
    return samples, manifest


@pytest.fixture(scope="session")
def small_table(small_dataset):
    return table_of(small_dataset[0])


def allow_cpus(monkeypatch, count):
    """Make the pools see `count` CPUs in the process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child_processes():
    """Assert that this process has no child, running or exited and not yet
    waited for: a pool worker forked by any means counts."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
