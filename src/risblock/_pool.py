"""One process pool for every parallel stage: generation and training.

`fork_map(function, items)` yields function(item) for each item, in input
order, computed on one worker per CPU in the process's affinity mask, capped
at len(items). One worker runs inline; `taskset -c 0` gives a serial run.
More are forked with os.fork: of W, worker w takes items w, w + W, ... and
pickles each result, or the exception that stops it, to its own pipe. Fork
hands over the function unpickled, so it may be a closure over large arrays
or a rebound name, and the caller's loaded modules: load what tasks need
first, and join other threads, which fork does not copy. A worker leaves by
os._exit, so atexit handlers and stdio buffers never run twice. A dead
worker raises RuntimeError with its wait status. So does an item whose value
cannot be sent back, naming the item, the value's type and its text. On an
error or an early close the caller closes every pipe, so a worker stops at
its next write, and waits for each: none outlives the call.

Not ProcessPoolExecutor nor multiprocessing.Pool: they add threads, queues
and the imports of multiprocessing, concurrent.futures and logging; a map of
16 trivial items took 17 ms with the executor, 7-8 ms here. Round robin will
do, as a map's items cost about the same: write chunks of one size, or
scenarios longest first, so 2 CPUs pair camera with none and both with ris.

Each worker runs the OpenBLAS it inherited on one thread. OpenBLAS starts
one thread per CPU by default, so two training workers on two CPUs would
otherwise run four BLAS threads, and the four scenarios then trained slower
than one after another. The pipeline also runs each fit, inline or in a
worker, in `one_blas_thread()`: with the kernels OpenBLAS picks on an AVX2
CPU, a product on two threads rounds otherwise than on one.
"""

import ctypes
import os
import pickle
import sys
from contextlib import contextmanager

# OpenBLAS's thread-count symbols: the name numpy's bundled build exports,
# then the plain names of a system OpenBLAS
_BLAS_THREADS = (("scipy_openblas_get_num_threads64_",
                  "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))


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
    sys.stdout.flush()  # else each worker inherits the unwritten text
    sys.stderr.flush()
    readers, pids = [], []  # read end of each worker's pipe; its pid
    try:
        for worker in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            pid = os.fork()
            if pid == 0:  # the worker, which never returns
                _work(function, list(enumerate(items))[worker::workers],
                      write_fd, readers)
            os.close(write_fd)
            pids.append(pid)
        for index in range(len(items)):
            try:
                failed, value = pickle.load(readers[index % workers])
            except (EOFError, pickle.UnpicklingError):
                pid = pids.pop(index % workers)
                raise RuntimeError(f"pool worker {pid} ended with wait status "
                                   f"{os.waitpid(pid, 0)[1]} before item "
                                   f"{index}") from None
            if failed:
                raise value
            yield value
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _work(function, items, write_fd, readers):
    """A forked worker: pickle (False, function(item)) for each (index,
    item) to write_fd, or (True, the exception) and stop; then leave."""
    try:
        for reader in readers:  # so that a closed pipe fails the next write
            reader.close()
        for _, set_ in _openblas_threads():
            set_(1)
        with open(write_fd, "wb") as pipe:
            for index, item in items:
                try:
                    reply = (False, function(item))
                except BaseException as exc:
                    reply = (True, exc)
                try:  # what would not load back would fail the caller
                    data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
                    pickle.loads(data)
                except Exception as exc:
                    reply = (True, RuntimeError(
                        f"pool item {index} gave {type(reply[1]).__name__}: "
                        f"{reply[1]!s:.200}, which cannot be sent: {exc!r}"))
                    data = pickle.dumps(reply)
                pipe.write(data)
                pipe.flush()
                if reply[0]:
                    break
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)
    finally:
        os._exit(1)
