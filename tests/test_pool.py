"""The process pool that generation and training share."""

import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import risblock
from conftest import allow_cpus, assert_no_child_processes
from risblock._pool import _openblas_threads, fork_map, one_blas_thread

PACKAGE_ROOT = Path(risblock.__file__).resolve().parent.parent


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
    assert_no_child_processes()


@contextmanager
def _deadline(seconds=60):
    """Fail the block with TimeoutError, not hang, if it runs longer."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _logged(log, function):
    """function, appending each item it is called with to the file log,
    from whichever process calls it."""
    def logged(item):
        with open(log, "a", encoding="ascii") as out:
            out.write(f"{item}\n")
        return function(item)
    return logged


def _ran(log):
    return {int(line) for line in log.read_text("ascii").split()}


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_task_raises_at_its_item_and_stops_its_worker(
        tmp_path, monkeypatch, cpus):
    allow_cpus(monkeypatch, cpus)

    def fail_at_3(item):
        if item == 3:
            raise ZeroDivisionError("item 3 failed")
        return 10 * item

    log = tmp_path / "ran.txt"
    results = fork_map(_logged(log, fail_at_3), range(8))
    with _deadline():
        assert [next(results) for _ in range(3)] == [0, 10, 20]
        with pytest.raises(ZeroDivisionError, match="^item 3 failed$"):
            next(results)
    assert_no_child_processes()
    # on two CPUs the worker of items 1, 3, 5 and 7 stopped at 3
    assert not {5, 7} & _ran(log)


def test_a_worker_that_dies_raises_rather_than_hangs(monkeypatch):
    allow_cpus(monkeypatch, 2)
    caller = os.getpid()

    def die_at_2(item):
        if item == 2 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return bytes(2 ** 20)

    # the other worker is blocked writing item 3 to its full pipe when the
    # caller waits for item 2; only the dead worker may hold that pipe open
    with _deadline(), pytest.raises(
            RuntimeError, match=f"wait status {signal.SIGKILL} .* item 2$"):
        list(fork_map(die_at_2, range(4)))
    assert_no_child_processes()


def test_a_result_that_does_not_pickle_raises_at_its_item(monkeypatch):
    allow_cpus(monkeypatch, 2)
    results = fork_map(lambda item: (lambda: item) if item == 1 else item,
                       range(4))
    with _deadline():
        assert next(results) == 0
        with pytest.raises(RuntimeError, match=(
                r"^pool item 1 gave function: <function .*<lambda>.*, which "
                r"cannot be sent: .*(PicklingError|AttributeError)")):
            next(results)
    assert_no_child_processes()


class _TwoArgumentError(Exception):
    """Pickles as its args, one message, so loading it back calls
    __init__ with one argument and fails."""

    def __init__(self, item, why):
        super().__init__(f"item {item}: {why}")


def test_an_exception_that_does_not_load_back_raises_at_its_item(
        monkeypatch):
    allow_cpus(monkeypatch, 2)

    def fail_at_2(item):
        if item == 2:
            raise _TwoArgumentError(item, "failed")
        return item

    results = fork_map(fail_at_2, range(6))
    with _deadline():
        assert [next(results) for _ in range(2)] == [0, 1]
        with pytest.raises(RuntimeError, match=(
                r"^pool item 2 gave _TwoArgumentError: item 2: failed, which "
                r"cannot be sent: TypeError\(.*missing 1 required")):
            next(results)
    assert_no_child_processes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_results_larger_than_a_pipe_buffer_come_back_whole(monkeypatch, cpus):
    allow_cpus(monkeypatch, cpus)
    with _deadline():
        results = list(fork_map(lambda item: bytes([item]) * 2 ** 20,
                                range(5)))
    assert results == [bytes([item]) * 2 ** 20 for item in range(5)]
    assert_no_child_processes()


def test_closing_early_stops_workers_blocked_on_a_full_pipe(tmp_path,
                                                            monkeypatch):
    allow_cpus(monkeypatch, 2)
    # each result overfills a pipe, so every worker is blocked writing one
    # when the caller closes: it must stop there, not run the rest
    log = tmp_path / "ran.txt"
    results = fork_map(_logged(log, lambda item: bytes(2 ** 20)), range(10))
    with _deadline():
        assert next(results) == bytes(2 ** 20)
        results.close()
    assert_no_child_processes()
    assert _ran(log) <= {0, 1, 2}


# the tasks of generate and train, each wrapped to fail if it loads a module
_TASK_IMPORT_SCRIPT = """
import os, sys
from risblock import cli, dataset, pipeline

os.sched_getaffinity = lambda pid: set(range(2))  # as conftest.allow_cpus

def loading_nothing(task):
    def wrapped(*args):
        before = set(sys.modules)
        result = task(*args)
        loaded = sorted(set(sys.modules) - before)
        if loaded:
            raise RuntimeError(f"{task.__name__} loaded {loaded}")
        return result
    return wrapped

dataset._write_range = loading_nothing(dataset._write_range)
pipeline.train_scenario = loading_nothing(pipeline.train_scenario)
work = sys.argv[1]
config = os.path.join(work, "c.ini")
with open(config, "w") as out:
    out.write("[generator]\\nn_ris_elements = 16\\n")
for argv in (["generate", "--n", "60", "--out", work + "/d"],
             ["train", "--dataset", work + "/d", "--out", work + "/m"]):
    assert cli.main([*argv, "--config", config]) == 0, argv
"""


def test_no_pool_task_loads_a_module(tmp_path):
    # in a fresh interpreter, so that what the caller loads is what the
    # commands load: every module a task needs is loaded before the fork
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _TASK_IMPORT_SCRIPT,
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
