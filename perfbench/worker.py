"""Workload process of the benchmark: set-up, timed calls and output checks.

Started by ``run.py``, never by hand. Two roles:

    worker.py setup <workload> <seed> <workdir> <result.json>
        build the workload's inputs in <workdir> from a fresh process, then
        record the monotonic clock and the hashes of what set-up wrote

    worker.py run <workload> <seed> <workdir> <result.json> <seconds> <trace>
        take the inputs the first set-up built in <workdir> and repeat the
        workload's timed calls, closed loop, for about <seconds> seconds;
        with <trace> 1, every second iteration runs under the span tracer.
        Each call's outputs are checked and hashed in a forked child, so
        that this process's peak memory is that of the timed calls alone

The timed calls go only through the public API: ``risblock.pipeline.
run_experiment`` and ``risblock.cli.main``, looked up on their modules at
call time so that the tracer's wrappers are the ones called.
"""

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from risblock import cli, pipeline
from risblock.dataset import GeneratorConfig, load_dataset

ORDER = ("none", "camera", "ris", "both")
TIMING_RECORD = "timings.json"   # the one output that is not byte-stable
# The seeds on which the acceptance suite asserts the strict scenario order.
# Elsewhere it is a tendency of a 600-sample test set, not a guarantee: on
# seed 840144488 ``ris`` reaches 1.0 beside ``both``, and over 14 other
# random seeds camera - none fell to 0.018 and both - none to 0.263.
ORDERING_SEEDS = range(1, 6)


def sha256_tree(root):
    """{relative path: sha256} of every file under root but timing records."""
    root = Path(root)
    hashes = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != TIMING_RECORD:
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            hashes[path.relative_to(root).as_posix()] = digest.hexdigest()
    return hashes


def in_child(function, *args):
    """function(*args) in a forked child process; returns its JSON result.

    What the child allocates never counts in this process's ``ru_maxrss``.
    An exception in the child is raised here as a RuntimeError.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = {"value": function(*args)}
            except BaseException:
                payload = {"error": traceback.format_exc(limit=3)}
            with os.fdopen(write_fd, "w", encoding="ascii") as fh:
                json.dump(payload, fh)
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="ascii") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"check process ended with wait status {status} "
                           f"and no result")
    payload = json.loads(data)
    if "error" in payload:
        raise RuntimeError(payload["error"])
    return payload["value"]


def check_and_hash(workload, out):
    return {"problems": workload.check(out), "hashes": sha256_tree(out)}


def ordering_problems(reports_dir, seed):
    """The scenario-ordering invariants of the acceptance suite.

    That suite asserts them on ORDERING_SEEDS only; on every other seed the
    RIS scenarios must beat the others and ``both`` must reach 0.95.
    """
    acc = {name: json.loads((Path(reports_dir) / f"report_{name}.json")
                            .read_text("ascii"))["accuracy"] for name in ORDER}
    problems = []
    if acc["both"] < 0.95:
        problems.append(f"both accuracy {acc['both']} < 0.95")
    if seed in ORDERING_SEEDS:
        if not acc["none"] < acc["camera"] < acc["ris"] < acc["both"]:
            problems.append(f"scenario order broken: {acc}")
        if acc["both"] - acc["none"] < 0.25:
            problems.append(f"both - none = {acc['both'] - acc['none']} "
                            f"< 0.25")
    elif not max(acc["none"], acc["camera"]) < min(acc["ris"], acc["both"]):
        problems.append(f"RIS scenarios do not beat the others: {acc}")
    return problems


def cli_call(argv):
    """One ``risblock`` command; its console output goes to the worker log."""
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"risblock {' '.join(argv)} exited with {code}")


class Experiment:
    """run_experiment at default physics; a fresh directory every call."""

    # the acceptance suite asserts the ordering at n=2000; at n=1000 ris
    # came within 0.08 of camera on random seeds
    n = 2000

    def setup(self, work, seed):
        self.seed = seed
        self.gen_cfg = GeneratorConfig(n_samples=self.n)
        self.train_cfg = pipeline.EXPERIMENT_TRAIN_CONFIG

    attach = setup

    def run(self, out):
        pipeline.run_experiment(self.gen_cfg, self.train_cfg, self.seed, out)
        return {}

    def check(self, out):
        return ordering_problems(out, self.seed)


class CliTrainEval:
    """risblock train, then risblock eval, on a dataset made in set-up."""

    n = 2000    # as Experiment: smaller n breaks the ordering on some seeds

    def setup(self, work, seed):
        self.attach(work, seed)
        cli_call(["generate", "--out", str(self.dataset), "--seed", str(seed),
                  "--n", str(self.n)])
        load_dataset(self.dataset, verify=True)

    def attach(self, work, seed):
        self.seed = str(seed)
        self.dataset = Path(work) / "dataset"

    def run(self, out):
        models, reports = str(out / "models"), str(out / "reports")
        started = time.perf_counter()
        cli_call(["train", "--dataset", str(self.dataset), "--out", models,
                  "--seed", self.seed])
        trained = time.perf_counter()
        cli_call(["eval", "--dataset", str(self.dataset), "--models", models,
                  "--out", reports, "--seed", self.seed])
        return {"train_s": trained - started,
                "eval_s": time.perf_counter() - trained}

    def check(self, out):
        return ordering_problems(out / "reports", int(self.seed))


class GenerateSmallSurface:
    """risblock generate with a 64-element surface: scenes and paths dominate."""

    # 5000 samples took about 5 s a call, so a 25 s run held only four calls
    # and its median spread 17% between runs; 500 take about 0.4 s. The
    # peak memory is still about 35 MB plus three times the 25 MB of images
    n = 500

    def setup(self, work, seed):
        self.seed = str(seed)
        self.config = Path(work) / "small_surface.ini"
        self.config.write_text("[generator]\nn_ris_elements = 64\n",
                               encoding="ascii")

    attach = setup

    def run(self, out):
        cli_call(["generate", "--config", str(self.config), "--out", str(out),
                  "--seed", self.seed, "--n", str(self.n)])
        return {}

    def check(self, out):
        samples, _ = load_dataset(out, verify=True)
        if len(samples) != self.n:
            return [f"reloaded {len(samples)} samples, expected {self.n}"]
        return []


WORKLOADS = {
    "experiment": Experiment,
    "cli_train_eval": CliTrainEval,
    "generate_small_surface": GenerateSmallSurface,
}


def blas_record():
    """BLAS vendor, version and the thread count the library reports."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"numpy": np.__version__, "blas": blas.get("name"),
              "blas_version": blas.get("version"), "blas_threads": None}
    with contextlib.suppress(OSError, ValueError):
        import ctypes
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    record["blas_threads"] = getattr(lib, symbol)()
                    return record
    return record


def measure(workload, work, seconds, trace):
    """Closed loop of timed calls; returns the per-iteration records.

    A new iteration starts only while the time used so far plus the median
    iteration still fits in ``seconds``; the first always runs, and in trace
    mode one untraced and one traced iteration always run. Iterations
    alternate untraced, traced, ... in trace mode.
    """
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    iterations, walls = [], []
    loop_start = time.monotonic()
    while True:
        begun = time.monotonic()
        traced = tracer is not None and len(iterations) % 2 == 1
        out = Path(work) / f"iteration{len(iterations)}"
        record = {"traced": traced, "problems": []}
        if traced:
            tracer.install()
        started = time.perf_counter()
        try:
            record["phases"] = workload.run(out)
        except Exception:   # a failed call is a failed run, not a crash
            record["problems"].append(traceback.format_exc(limit=3))
        finally:
            record["run_s"] = time.perf_counter() - started
            if traced:
                tracer.uninstall()
                tracer.windows.append(record["run_s"])
        if not record["problems"]:
            try:
                checked = in_child(check_and_hash, workload, out)
                record["problems"] += checked["problems"]
                record["hashes"] = checked["hashes"]
            except Exception:
                record["problems"].append(traceback.format_exc(limit=3))
        shutil.rmtree(out, ignore_errors=True)
        iterations.append(record)
        walls.append(time.monotonic() - begun)
        used = time.monotonic() - loop_start
        enough = tracer is None or len(iterations) >= 2
        if enough and used + statistics.median(walls) > seconds:
            break
    result = {"iterations": iterations}
    if tracer is not None:
        untraced = [r["run_s"] for r in iterations if not r["traced"]]
        result["layers"], result["missing"] = tracer.metrics(
            statistics.median(untraced))
    return result


def main(argv):
    role, name, seed, work, result_path = argv[:5]
    workload = WORKLOADS[name]()
    if role == "setup":
        Path(work).mkdir(parents=True)
        workload.setup(work, int(seed))
        ready = time.monotonic()
        result = {"ready": ready, "hashes": sha256_tree(work)}
    else:
        seconds, trace = float(argv[5]), argv[6] == "1"
        workload.attach(work, int(seed))
        result = measure(workload, work, seconds, trace)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss * 1024 / 1e6)
        result["env"] = blas_record()
        result["n"] = workload.n
    Path(result_path).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
