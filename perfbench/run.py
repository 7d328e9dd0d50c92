"""End-to-end and per-layer benchmark of risblock.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a risblock checkout; it imports the package from
``src/`` and builds nothing. Workloads (all closed loop, one caller):

    experiment              run_experiment at n=2000, default physics
                            (R=8000), into a fresh directory every call
    cli_train_eval          risblock train then risblock eval on an n=2000
                            default dataset that set-up makes with
                            risblock generate and hash-verifies
    generate_small_surface  risblock generate --n 500 with a config file
                            setting [generator] n_ris_elements = 64

Each run sets the workload up several times (SETUPS, or more while they
take under SETUP_BUDGET_S in all), each time in a fresh process, half of them
before the timed calls and half after, and reports the median as ``setup_s``
(process start to inputs ready). A further process repeats the workload's
timed calls for about ``--seconds``; ``run_s`` is the median call time and
``peak_rss_mb`` that process's ``ru_maxrss`` in units of 10**6 bytes. The
output checks run in short-lived child processes, so the peak holds the timed
calls alone. Every call's byte-stable outputs (all but ``timings.json``) are
hashed and compared with ``goldens.json`` when the seed is DEFAULT_SEED, and
with the first call's for any other seed; experiment and cli_train_eval
also check the scenario ordering of the acceptance suite (strict on the seeds
that suite uses, the RIS scenarios ahead on any other), and
generate_small_surface reloads its dataset with verification. A call whose
check fails counts in ``failed`` but the run still reports its numbers.

With ``--trace 1`` every second call runs with risblock's public functions
wrapped (see spans.py) and the result holds the per-layer metrics instead.
The last line of standard output is the result as one JSON object; the lines
before it give every metric by name and unit, the environment, the share of
failed calls and, for cli_train_eval, the train and eval split of ``run_s``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
WORKLOADS = ("experiment", "cli_train_eval", "generate_small_surface")
# Set up at least SETUPS times, and again while the set-ups so far took less
# than SETUP_BUDGET_S: a cheap set-up is repeated until its median is steady.
# Half of that count and budget is spent before the timed calls and the rest
# after, so that a change in the machine's speed during a run reaches both.
SETUPS = 3
SETUP_BUDGET_S = 4.0
DEFAULT_SEED = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# One BLAS thread, under the CPU count: on a shared 2-CPU machine training
# times spread about half as much as with two threads, and the other CPU
# stays free for a change that generates in parallel.
BLAS_THREADS = 1
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_MARGIN_S = 90
# a tail percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10


class WorkerFailed(Exception):
    """A set-up or workload process crashed or timed out."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(BLAS_THREADS)))
    return env


def spawn(argv, env, log, timeout):
    """Run one worker process to its end; returns (start time, its result).

    The worker's last argument after the work directory is the path it
    writes its JSON result to.
    """
    result_path = Path(argv[4])
    started = time.monotonic()
    try:
        with open(log, "ab") as fh:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *argv],
                env=env, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{argv[0]} process timed out after {timeout} s"
                           ) from exc
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-3000:]
        raise WorkerFailed(f"{argv[0]} process exited with "
                           f"{proc.returncode}:\n{tail}")
    return started, json.loads(result_path.read_text("ascii"))


def hash_problems(label, hashes, expected, against):
    if hashes == expected:
        return []
    changed = sorted(k for k in set(hashes) | set(expected)
                     if hashes.get(k) != expected.get(k))
    return [f"{label}: outputs differ from {against}: {', '.join(changed)}"]


def tail_percentile(values):
    """(percentile, value) of the highest sample with TAIL_SAMPLES above it.

    None when that sample is not above the median.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_SAMPLES - 1
    if 2 * k <= len(ordered) - 1:
        return None
    return 100 * (k + 1) / len(ordered), ordered[k]


def environment(worker_record):
    """Machine, interpreter, BLAS and source revision behind a result."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=True).stdout
        try:
            commit = git("rev-parse", "HEAD").strip()
            dirty = bool(git("status", "--porcelain", "--untracked-files=no")
                         .strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **worker_record,
            "blas_thread_vars": BLAS_THREADS,
            "git_commit": commit, "git_dirty": dirty}


def measure(args, work):
    """Set-ups, then the timed loop; returns (set-up results, run result)."""
    env = worker_env()
    log = work / "worker.log"
    seed = str(args.seed)
    setups = []

    def set_up_while(count, budget_s):
        while (len(setups) < count
               or sum(seconds for seconds, _ in setups) < budget_s):
            k = len(setups)
            started, result = spawn(
                ["setup", args.workload, seed, str(work / f"setup{k}"),
                 str(work / f"setup{k}.json")], env, log, SETUP_TIMEOUT_S)
            setups.append((result["ready"] - started, result["hashes"]))
            if k:   # the timed calls use only the first set-up's inputs
                shutil.rmtree(work / f"setup{k}")

    set_up_while((SETUPS + 1) // 2, SETUP_BUDGET_S / 2)
    _, result = spawn(
        ["run", args.workload, seed, str(work / "setup0"),
         str(work / "run.json"), str(args.seconds), str(args.trace)],
        env, log, args.seconds + RUN_TIMEOUT_MARGIN_S)
    set_up_while(SETUPS, SETUP_BUDGET_S)
    return setups, result


def check_outputs(args, setup_hashes, iterations):
    """Compare output hashes with the goldens, or within this invocation.

    Adds hash problems to each iteration record; returns set-up problems.
    """
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDENS.read_text("ascii"))[args.workload]
    against = "goldens.json" if golden else "the first of this invocation"
    setup_expected = golden["setup"] if golden else setup_hashes[0]
    setup_problems = [p for k, h in enumerate(setup_hashes)
                      for p in hash_problems(f"set-up {k}", h, setup_expected,
                                             against)]
    run_expected = golden["run"] if golden else next(
        (r["hashes"] for r in iterations if "hashes" in r), None)
    for k, record in enumerate(iterations):
        if "hashes" in record:
            record["problems"] += hash_problems(f"run {k}", record["hashes"],
                                                run_expected, against)
    return setup_problems


def report(args, setups, result):
    setup_s = [seconds for seconds, _ in setups]
    iterations = result["iterations"]
    setup_problems = check_outputs(args, [h for _, h in setups], iterations)
    attempted = len(iterations)
    failed = attempted if setup_problems else sum(
        1 for r in iterations if r["problems"])
    for problem in setup_problems + [p for r in iterations
                                     for p in r["problems"]]:
        print(f"check failed: {problem}", file=sys.stderr)

    untraced = [r for r in iterations if not r["traced"]]
    print(f"workload {args.workload}  n {result['n']}  seed {args.seed}  "
          f"calls {attempted} ({attempted - len(untraced)} traced)")
    print("env " + json.dumps(environment(result["env"]), sort_keys=True))
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in untraced),
                      "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    if args.trace:
        if result["missing"]:
            print("missing (target not found): " + ", ".join(result["missing"]))
        parts = sum(v["value"] for k, v in metrics.items()
                    if k.endswith("self_s"))
        print(f"sum of *.self_s {parts!r} s; trace.run_s "
              f"{metrics['trace.run_s']['value']!r} s")
    else:
        for phase in sorted({p for r in untraced for p in r.get("phases", {})}):
            values = [r["phases"][phase] for r in untraced if "phases" in r]
            print(f"{phase} {statistics.median(values)!r} s")
        print(f"failed_frac {failed / attempted!r} ratio")
    print(f"medians of {len(setup_s)} set-ups and {len(untraced)} untraced "
          f"calls")
    for name, values in (("setup_s", setup_s),
                         ("run_s", [r["run_s"] for r in untraced])):
        tail = tail_percentile(values)
        if tail:
            print(f"{name} p{tail[0]:.0f} {tail[1]!r} s ({TAIL_SAMPLES} of "
                  f"{len(values)} samples above it)")
        else:
            print(f"{name}: no percentile above the median has "
                  f"{TAIL_SAMPLES} of its {len(values)} samples above it")
    print("set-ups s: " + " ".join(f"{v:.3f}" for v in setup_s)
          + "; calls s: " + " ".join(f"{r['run_s']:.3f}{'*' * r['traced']}"
                                     for r in iterations) + " (* traced)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "risblock" / "__init__.py").is_file():
        print(f"perfbench: no risblock sources under {ROOT / 'src'}; run it "
              f"from a full risblock checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups, result = measure(args, work)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    report(args, setups, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
