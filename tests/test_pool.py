"""The process pool that generation and training share."""

import multiprocessing

import pytest

from conftest import allow_cpus
from risblock._pool import _openblas_threads, fork_map, one_blas_thread


def _blas_threads():
    return [get() for get, _ in _openblas_threads()]


@pytest.mark.parametrize("cpus", [2, 8])
def test_workers_take_their_share_of_blas_threads(monkeypatch, cpus):
    before = _blas_threads()
    if not before:
        pytest.skip("no OpenBLAS is loaded in this process")
    allow_cpus(monkeypatch, cpus)
    # two items, so two workers: each runs its BLAS on one thread, whatever
    # the CPU count, and the caller keeps its own count
    one = [1] * len(before)
    assert list(fork_map(lambda _: _blas_threads(), range(2))) == [one, one]
    assert _blas_threads() == before


def test_one_blas_thread_gives_back_the_callers_count():
    before = _blas_threads()
    if not before:
        pytest.skip("no OpenBLAS is loaded in this process")
    with one_blas_thread():
        assert _blas_threads() == [1] * len(before)
    assert _blas_threads() == before
    with pytest.raises(RuntimeError), one_blas_thread():
        raise RuntimeError("a fit failed")
    assert _blas_threads() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_results_come_in_order_and_closing_stops_the_pool(monkeypatch, cpus):
    allow_cpus(monkeypatch, cpus)
    assert list(fork_map(lambda x: x * x, range(7))) == [x * x for x in range(7)]
    results = fork_map(lambda x: x + 1, range(40))
    assert next(results) == 1
    results.close()
    assert multiprocessing.active_children() == []
