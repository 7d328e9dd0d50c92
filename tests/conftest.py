"""Shared fixtures: one small generated dataset reused by pipeline/CLI tests,
and a way to pretend the process may run on a given number of CPUs."""

import os

import pytest

from risblock.dataset import GeneratorConfig, generate_dataset

# A small surface and sample count keep the shared dataset cheap to build
# while preserving all three classes and the rate separations tests rely on.
SMALL_GEN = GeneratorConfig(n_samples=140, n_ris_elements=64)
SMALL_SEED = 11


@pytest.fixture(scope="session")
def small_dataset():
    samples, manifest = generate_dataset(SMALL_GEN, SMALL_SEED)
    labels = {int(s.label) for s in samples}
    assert labels == {-1, 0, 1}, "fixture dataset must contain all three classes"
    return samples, manifest


def allow_cpus(monkeypatch, count):
    """Make the pools see `count` CPUs in the process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
