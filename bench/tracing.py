"""Span tracing of holonomy_sim from outside the package.

``Tracer.install`` rebinds every function one package module imports from
another (``propagation.matexp_hermitian_stack``, ``experiments.propagate_lab``,
``cli.write_csv``, ...) to a wrapper that records a span, and ``uninstall``
puts the originals back.  Nothing in the package changes, and the untraced
runs of the benchmark never install the wrappers.

A span records its name (``<defining module>.<function>``), start, end,
thread and parent.  The parent is the innermost open span of the same
thread; a span opened by a pool thread with nothing open hangs under the
innermost open span of the installing thread (the sweep that started the
pool).  Spans stay in memory while a command runs and are folded into
totals after it returns, outside the timed region.  Self time subtracts only
children on the same thread, so the two pool threads of a sweep are not
counted against each other.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "holonomy_sim"
LAYERS = ("cli", "experiments", "propagation", "qcore", "hamiltonians", "control",
          "holonomy")

# Counts read off a call's arguments or result, keyed by span name.  The
# stack byte count is computed from the array shape, not measured.
COUNTERS = {
    "propagation.propagate_lab":
        lambda args, res: {"propagation.steps": res.steps_taken},
    "qcore.matexp_hermitian_stack":
        lambda args, res: {"qcore.stack_matrices": len(args[0]),
                           "qcore.stack_bytes": len(args[0]) * args[0].shape[1] ** 2 * 16},
    "control.generate_segments":
        lambda args, res: {"control.segments": len(res)},
    "control.make_kicks":
        lambda args, res: {"control.kicks": len(res.times)},
}

# (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER = (
    ("cli.main.time_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("experiments.sweep.time_s", "s", "lower"),
    ("experiments.busy_s", "s", "lower"),
    ("experiments.parallel_eff", "ratio", "higher"),
    ("experiments.write.self_s", "s", "lower"),
    ("experiments.output_bytes", "B", "lower"),
    ("propagation.propagate_lab.calls", "count", "lower"),
    ("propagation.propagate_lab.time_s", "s", "lower"),
    ("propagation.propagate_lab.self_s", "s", "lower"),
    ("propagation.propagate_lab.p50_s", "s", "lower"),
    ("propagation.propagate_lab.p90_s", "s", "lower"),
    ("propagation.steps", "count", "lower"),
    ("propagation.steps_per_s", "1/s", "higher"),
    ("hamiltonians.gate_hamiltonian.calls", "count", "lower"),
    ("hamiltonians.gate_hamiltonian.self_s", "s", "lower"),
    ("hamiltonians.dark_states.self_s", "s", "lower"),
    ("qcore.matexp_hermitian_stack.calls", "count", "lower"),
    ("qcore.matexp_hermitian_stack.self_s", "s", "lower"),
    ("qcore.stack_matrices", "count", "lower"),
    ("qcore.stack_bytes", "B", "lower"),
    ("qcore.matexp_hermitian.calls", "count", "lower"),
    ("qcore.matexp_hermitian.self_s", "s", "lower"),
    ("qcore.unitarity_defect.self_s", "s", "lower"),
    ("control.generate_segments.calls", "count", "lower"),
    ("control.generate_segments.self_s", "s", "lower"),
    ("control.segments", "count", "lower"),
    ("control.make_kicks.self_s", "s", "lower"),
    ("control.kicks", "count", "lower"),
    ("holonomy.evaluate_holonomy.self_s", "s", "lower"),
    ("holonomy.berry_closed_form.calls", "count", "lower"),
    ("holonomy.berry_closed_form.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Span fields.
NAME, START, END, THREAD, PARENT, COUNTS = range(6)


def is_sweep(span_name: str) -> bool:
    """Experiment entry points the CLI calls: sweep_* and the kick comparison."""
    return (span_name.startswith("experiments.sweep")
            or span_name == "experiments.compare_positive_vs_zero_energy")


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._root_stack = []
        self._installed = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name, fn):
        spans, counter = self.spans, COUNTERS.get(name)
        root_stack = self._root_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (root_stack[-1] if root_stack else None)
            span = [name, 0.0, 0.0, threading.get_ident(), parent, None]
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                spans.append(span)
            if counter is not None:
                span[COUNTS] = counter(args, result)
            return result

        return traced

    def install(self):
        """Wrap the cross-module imports of every layer; call from the main thread."""
        self._local.stack = self._root_stack
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", "") or ""
                if (inspect.isfunction(value) and home.startswith(PACKAGE + ".")
                        and home != module.__name__):
                    name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                    setattr(module, attr, self.wrap(name, value))
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def take(self):
        spans, self.spans[:] = list(self.spans), []
        return spans


def fold(spans, totals, lab_durations):
    """Add one command's spans to ``totals`` (name -> float) in place."""
    child_time = defaultdict(float)          # same-thread children, by parent
    cli_inner = defaultdict(float)           # experiments/propagation under cli
    for s in spans:
        p = s[PARENT]
        if p is None:
            continue
        dur = s[END] - s[START]
        if p[THREAD] == s[THREAD]:
            child_time[id(p)] += dur
            layer = s[NAME].split(".", 1)[0]
            if p[NAME] == "cli.main" and layer in ("experiments", "propagation"):
                cli_inner[id(p)] += dur
        if is_sweep(p[NAME]):
            totals["experiments.busy_s"] += dur
    for s in spans:
        name, dur = s[NAME], s[END] - s[START]
        self_time = dur - child_time[id(s)]
        totals[name + ".calls"] += 1
        totals[name + ".time_s"] += dur
        totals[name + ".self_s"] += self_time
        if name == "cli.main":
            totals["cli.overhead_s"] += dur - cli_inner[id(s)]
        if is_sweep(name):
            totals["experiments.sweep.time_s"] += dur
        if name.startswith("experiments.write"):
            totals["experiments.write.self_s"] += self_time
        if name == "propagation.propagate_lab":
            lab_durations.append(dur)
        for key, value in (s[COUNTS] or {}).items():
            totals[key] += value


def nearest_rank(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def per_layer_metrics(totals, lab_durations, commands, threads, output_bytes,
                      overhead_s):
    """Per-command means of the folded totals, as {name: (value, unit)}."""
    per = {k: v / commands for k, v in totals.items()}
    lab = sorted(lab_durations)
    sweep = per.get("experiments.sweep.time_s", 0.0)
    lab_time = per.get("propagation.propagate_lab.time_s", 0.0)
    derived = {
        "experiments.parallel_eff":
            per.get("experiments.busy_s", 0.0) / (threads * sweep) if sweep else 0.0,
        "experiments.output_bytes": output_bytes,
        "propagation.propagate_lab.p50_s": nearest_rank(lab, 0.5),
        "propagation.propagate_lab.p90_s": nearest_rank(lab, 0.9),
        "propagation.steps_per_s":
            per.get("propagation.steps", 0.0) / lab_time if lab_time else 0.0,
        "trace.overhead_s": overhead_s,
    }
    return {name: (derived[name] if name in derived else per.get(name, 0.0), unit)
            for name, unit, _ in PER_LAYER}
