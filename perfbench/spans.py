"""Per-layer tracing for the benchmark's traced run.

The tracer works from outside the package: it wraps public risblock
functions by rebinding each target name, in every loaded ``risblock`` module
whose namespace holds the original function, to a wrapper that records a
span (target, start, end, parent). Nothing under ``src/`` is edited, and
``uninstall`` puts every original back, so untraced runs in the same process
call the unwrapped code.

A layer is one risblock module. Its ``self_s`` is the time its spans cover
minus the time their direct child spans cover; work done in methods or
private helpers of another module counts toward the layer that called them.
A target that no longer exists (for example after a refactor inlines it) is
skipped: the metrics that need it are reported as missing, not as errors.
"""

import importlib
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    busy   report ``<layer>.<name>_s``, the summed duration of its calls
           that are not nested inside another call to it
    count  metric name for the number of calls, if reported
    """

    layer: str
    module: str
    name: str
    busy: bool = True
    count: str = None


# Every cross-module call the three workloads make is covered, so that a
# layer's self time holds its own work and not that of a layer it calls.
TARGETS = (
    Target("scene", "risblock.scene", "random_scene"),
    Target("scene", "risblock.scene", "generate_trajectory"),
    Target("scene", "risblock.scene", "link_status", busy=False),
    Target("scene", "risblock.scene", "synthesize_mpcs"),
    Target("scene", "risblock.scene", "render_image"),
    Target("channel", "risblock.channel", "channel_bs_ris"),
    Target("channel", "risblock.channel", "channel_ris_ue"),
    Target("channel", "risblock.channel", "channel_bs_ue"),
    Target("channel", "risblock.channel", "co_phase_ris"),
    Target("channel", "risblock.channel", "effective_gain"),
    Target("channel", "risblock.channel", "data_rate"),
    # the steering kernel is wrapped where the channel module calls it, so
    # the benchmark never imports the kernel package or its backend switch
    Target("kernels", "risblock.channel", "accumulate_steering_outer",
           busy=False, count="kernels.calls"),
    Target("dataset", "risblock.dataset", "generate_sample", busy=False,
           count="dataset.samples"),
    Target("dataset", "risblock.dataset", "generate_dataset", busy=False),
    Target("dataset", "risblock.dataset", "build_manifest"),
    Target("dataset", "risblock.dataset", "save_dataset"),
    Target("dataset", "risblock.dataset", "load_dataset",
           count="dataset.load_dataset_calls"),
    Target("learn", "risblock.learn", "train"),
    Target("learn", "risblock.learn", "accuracy", count="learn.accuracy_calls"),
    Target("learn", "risblock.learn", "sgd_step", count="learn.steps"),
    Target("learn", "risblock.learn", "fit_standardization"),
    Target("learn", "risblock.learn", "save_model"),
    Target("learn", "risblock.learn", "load_model"),
    Target("pipeline", "risblock.pipeline", "run_experiment", busy=False),
    Target("pipeline", "risblock.pipeline", "split_dataset", busy=False),
    Target("pipeline", "risblock.pipeline", "build_features"),
    Target("pipeline", "risblock.pipeline", "train_scenario", busy=False),
    Target("pipeline", "risblock.pipeline", "calibrate_rate_threshold"),
    Target("pipeline", "risblock.pipeline", "evaluate_scenario"),
    Target("pipeline", "risblock.pipeline", "write_report_files"),
    Target("cli", "risblock.cli", "main", busy=False),
)

LAYERS = ("scene", "channel", "kernels", "dataset", "learn", "pipeline", "cli")

_KERNEL = "accumulate_steering_outer"
_SAMPLE = "generate_sample"

# Measured quantities that are not span durations: metric -> (target, unit).
# Their values come from the call's arguments, or from the files it read or
# wrote, so they are computed, not timed.
WORK_METRICS = {
    "kernels.elements": (_KERNEL, "count"),    # sum of K * rows * cols
    "kernels.bytes_out": (_KERNEL, "bytes"),   # sum of 16 * rows * cols
    "dataset.bytes_written": ("save_dataset", "bytes"),
    "dataset.bytes_read": ("load_dataset", "bytes"),
}


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s"))
        for target in TARGETS:
            if target.layer != layer:
                continue
            if target.busy:
                names.append((f"{layer}.{target.name}_s", "s"))
            if target.count:
                names.append((target.count, "count"))
        if layer == "dataset":
            names += [("dataset.generate_sample_ms.p50", "ms"),
                      ("dataset.generate_sample_ms.p99", "ms")]
        names += [(name, unit) for name, (_, unit) in WORK_METRICS.items()
                  if name.startswith(layer + ".")]
    return names + [("other.self_s", "s"), ("trace.run_s", "s"),
                    ("trace.overhead_s", "s")]


def _dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def _kernel_work(arguments):
    cells = int(arguments["n_rows"]) * int(arguments["n_cols"])
    return {"kernels.elements": len(arguments["coeffs"]) * cells,
            "kernels.bytes_out": 16 * cells}


# target name -> (taken before or after the call, function of the call's
# bound arguments giving the increments of its WORK_METRICS)
_WORK = {
    _KERNEL: ("before", _kernel_work),
    "save_dataset": ("after", lambda arguments: {
        "dataset.bytes_written": _dir_bytes(arguments["out_dir"])}),
    "load_dataset": ("before", lambda arguments: {
        "dataset.bytes_read": _dir_bytes(arguments["dataset_dir"])}),
}


class Tracer:
    """Spans and work counters of the traced iterations of one run."""

    def __init__(self):
        self.found = []      # targets present in this checkout
        self.spans = []      # [target index, start, end, parent, outermost]
        self.windows = []    # wall time of each traced iteration
        self.work = {name: 0 for name in WORK_METRICS}
        self.unmeasured = set()   # work metrics whose arguments did not bind
        self._stack = []
        self._depth = []
        self._installed = []

    def install(self):
        """Rebind every present target; remembers originals for uninstall."""
        if not self.found:
            self.found = [t for t in TARGETS if _lookup(t) is not None]
            self._depth = [0] * len(self.found)
        loaded = _modules()
        for index, target in enumerate(self.found):
            original = _lookup(target)
            wrapper = self._wrap(index, target, original)
            for module in loaded:
                if getattr(module, target.name, None) is original:
                    setattr(module, target.name, wrapper)
                    self._installed.append((module, target.name, original))

    def uninstall(self):
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()

    def _wrap(self, index, target, original):
        spans, stack, depth = self.spans, self._stack, self._depth
        measure = _WORK.get(target.name)
        signature = _signature(original) if measure else None

        def record_work(args, kwargs):
            try:
                values = measure[1](signature.bind(*args, **kwargs).arguments)
            except (AttributeError, KeyError, TypeError, ValueError, OSError):
                self.unmeasured.update(name for name, (owner, _)
                                       in WORK_METRICS.items()
                                       if owner == target.name)
                return
            for name, value in values.items():
                self.work[name] += value

        def traced(*args, **kwargs):
            if measure and measure[0] == "before":
                record_work(args, kwargs)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1,
                    depth[index] == 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            depth[index] += 1
            span[1] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                depth[index] -= 1
                stack.pop()
                if measure and measure[0] == "after":
                    record_work(args, kwargs)

        traced.__wrapped__ = original
        return traced

    def metrics(self, untraced_median_s):
        """Per-iteration means of every per-layer metric, plus missing names.

        The ``*.self_s`` values and ``other.self_s`` add up to
        ``trace.run_s``, the mean traced iteration time.
        """
        iterations = len(self.windows)
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        busy = [0.0] * len(self.found)
        calls = [0] * len(self.found)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        covered = 0.0
        sample_ms = []
        for i, (index, start, end, parent, outermost) in enumerate(self.spans):
            target = self.found[index]
            duration = end - start
            layer_self[target.layer] += duration - children[i]
            calls[index] += 1
            if outermost:
                busy[index] += duration
            if parent < 0:
                covered += duration
            if target.name == _SAMPLE:
                sample_ms.append(duration * 1e3)

        values = {}
        present = {t.layer for t in self.found}
        for layer in LAYERS:
            if layer in present:
                values[f"{layer}.self_s"] = layer_self[layer] / iterations
        for index, target in enumerate(self.found):
            if target.busy:
                values[f"{target.layer}.{target.name}_s"] = busy[index] / iterations
            if target.count:
                values[target.count] = calls[index] / iterations
        names = {t.name for t in self.found}
        if _SAMPLE in names:
            values["dataset.generate_sample_ms.p50"] = _percentile(sample_ms, 50)
            values["dataset.generate_sample_ms.p99"] = _percentile(sample_ms, 99)
        for name, (owner, _) in WORK_METRICS.items():
            if owner in names and name not in self.unmeasured:
                values[name] = self.work[name] / iterations
        run_s = sum(self.windows) / iterations
        values["other.self_s"] = (sum(self.windows) - covered) / iterations
        values["trace.run_s"] = run_s
        values["trace.overhead_s"] = run_s - untraced_median_s

        metrics, missing = {}, []
        for name, unit in per_layer_names():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
            else:
                missing.append(name)
        return metrics, missing


def _percentile(values, p):
    """Nearest-rank percentile; 0.0 when the function was never called."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "risblock" or name.startswith("risblock."))]


def _lookup(target):
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    found = getattr(module, target.name, None)
    return found if callable(found) else None


def _signature(function):
    try:
        return inspect.signature(function)
    except (TypeError, ValueError):
        return None
