"""Span tracing from outside the package.

The traced run swaps module attributes at layer boundaries for wrappers
that time each call, so no file under src/ is touched. Spans are folded
into per-(layer, name) totals as they close: count, inclusive time, self
time (inclusive minus traced children) and, where asked, CPU time. Keeping
totals instead of every span bounds memory when a factory pass makes
10^5 engine calls.

Layer names are the package's module names without the leading
underscore (``kernels`` is ``bmn._kernels``, ``rng`` is ``bmn._rng``),
because benchmark metric names must start with a letter.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "simulator", "kernels", "rng", "stats", "engine",
          "analyzer", "cycles", "backward", "factory")


def _replayed(counters, summary):
    counters["simulator.replayed"] += summary.loop_count + summary.budget_exceeded_count


def _factory_result(counters, result):
    counters["factory.runs"] += 1
    counters["factory.solved"] += int(result.success)
    counters["factory.tests"] += result.tests_run
    counters["factory.rounds"] += result.rounds_used


def _trace_result(counters, result):
    records, _ = result
    counters["analyzer.tricks"] += len(records) - 1


def _predecessors(counters, result):
    counters["backward.preds"] += len(result)


# (attribute path under the bmn package, layer, result hook, record CPU).
# Aliases such as factory.verify_loop are listed because the caller looks
# the name up in its own module. A path a later version of the package no
# longer has is skipped, so the benchmark keeps running after refactors.
BOUNDARIES = (
    ("simulator.run_batch", "simulator", _replayed, True),
    ("simulator.match_state", "simulator", None, False),
    ("_kernels.simulate_batch", "kernels", None, False),
    ("_kernels.play_match_raw", "kernels", None, False),
    ("_rng.SplitMix64.shuffle", "rng", None, False),
    ("stats.fit_exponential", "stats", None, False),
    ("stats.summarize_counts", "stats", None, False),
    ("engine.play_match", "engine", None, False),
    ("engine._trace_states", "engine", None, False),
    ("cycles.verify_loop", "cycles", None, False),
    ("factory.verify_loop", "cycles", None, False),
    ("cycles.scan_balanced_entries", "cycles", None, False),
    ("analyzer.trace_match", "analyzer", _trace_result, False),
    ("backward.backward_search", "backward", None, False),
    ("backward.enumerate_predecessors", "backward", _predecessors, False),
    ("factory.run_factory", "factory", _factory_result, False),
)


def _cpu_now():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class NullTracer:
    """Stand-in used for untraced passes: calls go straight through."""

    def call(self, layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, layer, name, count=1):
        return contextlib.nullcontext()


class Tracer:
    """Per-(layer, name) span totals plus named counters."""

    def __init__(self):
        # (layer, name) -> [calls, inclusive s, self s, cpu s]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.counters = Counter()
        self._children = []  # child time accumulated per open span
        self.skipped = []

    def _close(self, key, elapsed, calls=1, cpu=0.0):
        child = self._children.pop()
        rec = self.totals[key]
        rec[0] += calls
        rec[1] += elapsed
        rec[2] += elapsed - child
        rec[3] += cpu
        if self._children:
            self._children[-1] += elapsed

    def call(self, layer, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close((layer, name), time.perf_counter() - t0)

    @contextlib.contextmanager
    def span(self, layer, name, count=1):
        """A span around a block that makes `count` calls into `layer`."""
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close((layer, name), time.perf_counter() - t0, calls=count)

    def _wrap(self, fn, key, hook, cpu):
        tracer = self

        def traced(*args, **kwargs):
            tracer._children.append(0.0)
            c0 = _cpu_now() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer._close(key, elapsed, cpu=(_cpu_now() - c0) if cpu else 0.0)
            if hook is not None:
                hook(tracer.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, modules):
        """Install boundary wrappers on the loaded package for the block."""
        undo = []
        try:
            for path, layer, hook, cpu in BOUNDARIES:
                *owner_path, attr = path.split(".")
                owner = modules
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    if path not in self.skipped:
                        self.skipped.append(path)
                        print(f"trace: boundary {path} not found; skipped",
                              file=sys.stderr)
                    continue
                setattr(owner, attr, self._wrap(original, (layer, attr), hook, cpu))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- reading the totals ------------------------------------------------

    def calls(self, layer, name):
        return self.totals.get((layer, name), (0,))[0]

    def seconds(self, layer, name):
        return self.totals.get((layer, name), (0, 0.0))[1]

    def self_seconds(self, layer, name=None):
        return sum(rec[2] for (lay, nm), rec in self.totals.items()
                   if lay == layer and (name is None or nm == name))

    def cpu_seconds(self, layer, name):
        return self.totals.get((layer, name), (0, 0.0, 0.0, 0.0))[3]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: int, micro_rates: dict, overhead_s: float) -> dict:
    """Per-layer metric values; totals are per traced pass."""
    c = tr.counters
    out = dict(micro_rates)
    out.update({
        "simulator.run_batch_s": tr.seconds("simulator", "run_batch") / passes,
        "simulator.cpu_per_wall": _ratio(tr.cpu_seconds("simulator", "run_batch"),
                                         tr.seconds("simulator", "run_batch")),
        "simulator.replayed": c["simulator.replayed"] / passes,
        "stats.fit_s": tr.seconds("stats", "fit_exponential") / passes,
        "cli.simulate_self_s": tr.self_seconds("cli", "simulate") / passes,
        "cli.backward_self_s": tr.self_seconds("cli", "backward") / passes,
        "factory.tests": c["factory.tests"] / passes,
        "factory.rounds": c["factory.rounds"] / passes,
        "factory.solved_ratio": _ratio(c["factory.solved"], c["factory.runs"]),
        "factory.tests_per_s": _ratio(c["factory.tests"],
                                      tr.seconds("factory", "run_factory")),
        "cycles.verify_ms": 1000 * _ratio(tr.seconds("cycles", "verify_loop"),
                                          tr.calls("cycles", "verify_loop")),
        "analyzer.trace_tricks_per_s": _ratio(c["analyzer.tricks"],
                                              tr.seconds("analyzer", "trace_match")),
        "engine.play_trick_per_s": _ratio(tr.calls("engine", "play_trick"),
                                          tr.seconds("engine", "play_trick")),
        "backward.targets_per_s": _ratio(tr.calls("backward", "enumerate_predecessors"),
                                         tr.seconds("backward", "enumerate_predecessors")),
        "backward.preds_per_target": _ratio(c["backward.preds"],
                                            tr.calls("backward", "enumerate_predecessors")),
        "backward.search_ms": 1000 * _ratio(tr.seconds("backward", "backward_search"),
                                            tr.calls("backward", "backward_search")),
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tr.self_seconds(layer) / passes
    out["trace.overhead_s"] = overhead_s
    return out
