"""One process pool for every parallel stage: generation and training.

`fork_map(function, items)` yields function(item) for each item, in input
order, computed on one worker per CPU in the process's affinity mask, capped
at len(items). One worker runs inline, one item at a time as the results are
asked for; `taskset -c 0` gives a serial run. More fork a process pool. The
function reaches the workers through the pool's initializer, which fork
hands down without pickling it, so it may be a closure over large arrays or
a rebound name; only the items and the results cross a pipe. A caller that
stops early closes the iterator, which cancels the items not yet started and
waits for the running ones.

Each worker runs the OpenBLAS it inherited on one thread. OpenBLAS starts
one thread per CPU by default, so two training workers on two CPUs would
otherwise run four BLAS threads, and the four scenarios then trained slower
than one after another. The pipeline also runs each fit, inline or in a
worker, in `one_blas_thread()`: with the kernels OpenBLAS picks on an AVX2
CPU, a product on two threads rounds otherwise than on one.
"""

import ctypes
import os
from contextlib import contextmanager

# the function a pool worker maps, set once when the worker starts
_function = None

# OpenBLAS's thread-count symbols: the name numpy's bundled build exports,
# then the plain names of a system OpenBLAS
_BLAS_THREADS = (("scipy_openblas_get_num_threads64_",
                  "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))


def _install(function):
    global _function
    _function = function
    for _, set_ in _openblas_threads():
        set_(1)


def _call(item):
    return _function(item)


def _openblas_threads():
    """(get, set) thread-count functions of every loaded OpenBLAS.

    Empty in a process with another BLAS, or without /proc.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        libraries = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return []
    controls = []
    for library in libraries:
        for get_name, set_name in _BLAS_THREADS:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get, set_ = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def one_blas_thread():
    """Run the block on one thread of every loaded OpenBLAS, then restore."""
    controls = _openblas_threads()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


def fork_map(function, items):
    """Iterator over function(item) for each item, in input order, computed
    on every allowed CPU. Run it to its end or close it."""
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers <= 1:
        for item in items:
            yield function(item)
        return
    # imported here: about 15 ms that commands which never use a pool would
    # pay at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers start with the caller's loaded modules, so a pool costs
    # no imports. The executor, not multiprocessing.Pool: on an error
    # Pool.terminate() can kill a worker that holds the result queue's lock,
    # then hang. Executor.map cancels the items not yet started when a
    # result raises or the iterator is closed, and leaving the block waits
    # for the running ones. Each result is let go once it is yielded.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_install,
                             initargs=(function,)) as pool:
        yield from pool.map(_call, items)
