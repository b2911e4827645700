"""Per-layer spans for fsimcal, recorded from outside the package.

Wrappers are installed by rebinding module attributes: each traced function
is replaced in its defining module and in every ``fsimcal`` module that
imported the same object, so calls through any of those names are seen.
Nothing under ``src/`` knows about tracing; ``Patches.restore`` puts every
original object back.

A span is (id, name, start, end, parent id, run id, error).  Spans stay in
memory while the workload runs and are written out when it ends.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    error: str | None


class Tracer:
    """Collects spans and counters for one run of one workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """fn with a span named ``name`` around every call.

        ``observe(counts, args, kwargs, result)`` runs after a call that
        returned, outside the span, to update counters from the result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.run_id, error))
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


class Patches:
    """Attribute rebindings that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_circuits(counts, args, kwargs, result):
    counts["noise.circuits"] += int(np.size(_arg(args, kwargs, 1, "omegas")))


def _count_points(counts, args, kwargs, result):
    counts["su2.pq_values.points"] += int(np.size(_arg(args, kwargs, 1, "omega")))


def _count_low_snr(counts, args, kwargs, result):
    counts["estimators.low_snr_warnings"] += sum(1 for w in result.warnings if w.startswith("low-snr"))


def _count_accepted(counts, args, kwargs, result):
    counts["estimators.peak_fit.accepted"] += int(bool(result.accepted))


def _count_clamped(counts, args, kwargs, result):
    counts["fisher.clamped_points"] += int(result.clamped_points)


def _count_bytes(counts, args, kwargs, result):
    counts["harness.write.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


class Target(NamedTuple):
    name: str  # span name, <layer>.<function>
    module: str  # defining module
    attr: str  # attribute path in that module
    observe: Callable | None = None


TARGETS = (
    Target("noise.stream", "fsimcal.noise", "stream"),
    Target("noise.simulate_probability_batch", "fsimcal.noise", "simulate_probability_batch", _count_circuits),
    Target("noise.drifted_survival", "fsimcal.noise", "_drifted_survival"),
    Target("noise.invert_confusion", "fsimcal.noise", "invert_confusion"),
    Target("su2.pq_values", "fsimcal.su2", "pq_values", _count_points),
    Target("signal_model.exact_signal", "fsimcal.signal_model", "exact_signal"),
    Target("signal_model.spectrum_from_h", "fsimcal.signal_model", "spectrum_from_h"),
    Target("estimators.fourier_estimate", "fsimcal.estimators", "fourier_estimate", _count_low_snr),
    Target("estimators.theta_pd_estimate", "fsimcal.estimators", "theta_pd_estimate"),
    Target("estimators.peak_fit", "fsimcal.estimators", "peak_fit", _count_accepted),
    Target("fisher.crlb", "fsimcal.fisher", "crlb"),
    Target("fisher.fisher_matrix", "fsimcal.fisher", "fisher_matrix", _count_clamped),
    Target("fisher.gradient_grid", "fsimcal.fisher", "gradient_grid"),
    Target("fisher.windowed_slopes", "fsimcal.fisher", "windowed_slopes"),
    Target("harness.run_replicate", "fsimcal.harness", "run_replicate"),
    Target("harness.summarize", "fsimcal.harness", "_summarize"),
    Target("harness.config_parse", "fsimcal.harness", "ExperimentConfig.from_dict"),
    Target("harness.write", "fsimcal.harness", "write_json", _count_bytes),
    Target("harness.write", "fsimcal.harness", "write_csv", _count_bytes),
    Target("cli.main", "fsimcal.cli", "main"),
)


def _fsimcal_modules():
    return [m for name, m in list(sys.modules.items()) if name == "fsimcal" or name.startswith("fsimcal.")]


def install(tracer: Tracer, patches: Patches, targets=TARGETS) -> set[str]:
    """Wrap every target; returns the names of targets that do not exist."""
    absent = set()
    for t in targets:
        owner = importlib.import_module(t.module)
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            absent.add(t.name)
            continue
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            patches.rebind(owner, attr, classmethod(tracer.wrap(t.name, original.__func__, t.observe)))
            continue
        wrapper = tracer.wrap(t.name, original, t.observe)
        for module in _fsimcal_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.rebind(module, key, wrapper)
    return absent


def install_pool_counter(counts: Counter, patches: Patches) -> None:
    """Count ProcessPoolExecutor constructions made by the harness."""
    harness = importlib.import_module("fsimcal.harness")
    base = harness.ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            counts["harness.pool_starts"] += 1
            super().__init__(*args, **kwargs)

    patches.rebind(harness, "ProcessPoolExecutor", CountingPool)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for a, b in sorted(kids.get(s.sid, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.sid] = (s.end - s.start) - covered
    return out


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric it should move, and on which workload


_CLI = "calibrate-ladder, drift-sweep"
LAYER_METRICS = (
    LayerMetric("noise.stream.calls", "count", "lower", "ops_per_s on calibrate-ladder; ~0 on crlb-scan"),
    LayerMetric("noise.stream.s", "s", "lower", "ops_per_s on calibrate-ladder; ~0 on crlb-scan"),
    LayerMetric("noise.simulate_probability_batch.calls", "count", "lower", "ops_per_s on calibrate-ladder (ladder batching)"),
    LayerMetric("noise.simulate_probability_batch.s", "s", "lower", "ops_per_s on calibrate-ladder"),
    LayerMetric("noise.simulate_probability_batch.self_s", "s", "lower", "ops_per_s on calibrate-ladder (shot sampling)"),
    LayerMetric("noise.circuits", "count", "lower", "ops_per_s on calibrate-ladder"),
    LayerMetric("noise.drifted_survival.s", "s", "lower", "run_s and peak_rss_mb on drift-sweep; 0 elsewhere"),
    LayerMetric("noise.invert_confusion.calls", "count", "higher", "0 on drift-sweep: the batch path bypasses invert_confusion"),
    LayerMetric("su2.pq_values.calls", "count", "lower", "run_s on crlb-scan, ops_per_s on calibrate-ladder; none on drift-sweep"),
    LayerMetric("su2.pq_values.points", "count", "lower", "run_s on crlb-scan, ops_per_s on calibrate-ladder; none on drift-sweep"),
    LayerMetric("su2.pq_values.s", "s", "lower", "run_s on crlb-scan, ops_per_s on calibrate-ladder; none on drift-sweep"),
    LayerMetric("signal_model.exact_signal.calls", "count", "lower", "run_s on crlb-scan and calibrate-ladder"),
    LayerMetric("signal_model.exact_signal.s", "s", "lower", "run_s on crlb-scan and calibrate-ladder"),
    LayerMetric("signal_model.spectrum_from_h.calls", "count", "lower", "run_s on crlb-scan and calibrate-ladder"),
    LayerMetric("signal_model.spectrum_from_h.s", "s", "lower", "run_s on crlb-scan and calibrate-ladder"),
    LayerMetric("estimators.fourier_estimate.s", "s", "lower", "ops_per_s on calibrate-ladder"),
    LayerMetric("estimators.theta_pd_estimate.s", "s", "lower", "ops_per_s on calibrate-ladder"),
    LayerMetric("estimators.peak_fit.s", "s", "lower", "ops_per_s on calibrate-ladder"),
    LayerMetric("estimators.peak_fit.accepted_frac", "1", "higher", "useful/attempted peak fits on calibrate-ladder"),
    LayerMetric("estimators.low_snr_warnings", "count", "lower", "statistic, not a time"),
    LayerMetric("fisher.crlb.calls", "count", "lower", "run_s on crlb-scan; 0 elsewhere"),
    LayerMetric("fisher.crlb.s", "s", "lower", "run_s on crlb-scan; 0 elsewhere"),
    LayerMetric("fisher.gradient_grid.s", "s", "lower", "run_s on crlb-scan; 0 elsewhere"),
    LayerMetric("fisher.gradient_grid.self_s", "s", "lower", "run_s on crlb-scan; 0 elsewhere"),
    LayerMetric("fisher.windowed_slopes.s", "s", "lower", "run_s on crlb-scan; 0 elsewhere"),
    LayerMetric("fisher.clamped_points", "count", "lower", "domain_error_frac on crlb-scan"),
    LayerMetric("fisher.gradient_validation_errors", "count", "lower", "domain_error_frac on crlb-scan"),
    LayerMetric("harness.run_replicate.calls", "count", "lower", f"run_s on {_CLI}"),
    LayerMetric("harness.run_replicate.p50_ms", "ms", "lower", f"ops_per_s on {_CLI}"),
    LayerMetric("harness.run_replicate.p90_ms", "ms", "lower", f"ops_per_s on {_CLI}"),
    LayerMetric("harness.run_replicate.self_s", "s", "lower", f"run_s on {_CLI}"),
    LayerMetric("harness.summarize.s", "s", "lower", "run_s on drift-sweep and calibrate-ladder (bootstrap)"),
    LayerMetric("harness.config_parse.calls", "count", "lower", "run_s and cpu_s on drift-sweep; no change expected on calibrate-ladder"),
    LayerMetric("harness.config_parse.s", "s", "lower", "run_s and cpu_s on drift-sweep; no change expected on calibrate-ladder"),
    LayerMetric("harness.pool_starts", "count", "lower", "run_s and cpu_s on drift-sweep; 0 at --jobs 1"),
    LayerMetric("harness.write.s", "s", "lower", "run_s on every workload"),
    LayerMetric("harness.write.bytes", "bytes", "lower", "run_s on every workload"),
    LayerMetric("harness.replicate_failures", "count", "lower", f"failed ops on {_CLI}"),
    LayerMetric("cli.main.self_s", "s", "lower", f"setup_s and run_s on {_CLI}"),
    LayerMetric("trace.overhead_s", "s", "lower", "traced run_s minus untraced run_s"),
)


def layer_metrics(spans, counts, absent=frozenset()) -> dict[str, float | None]:
    """Every LAYER_METRICS value except trace.overhead_s; None marks an absent target."""
    by_sid = {s.sid: s for s in spans}
    selfs = self_times(spans)
    flat: dict[str, float] = defaultdict(float)
    durations = defaultdict(list)
    for s in spans:
        duration = s.end - s.start
        flat[f"{s.name}.calls"] += 1
        flat[f"{s.name}.self_s"] += selfs[s.sid]
        durations[s.name].append(duration)
        parent = by_sid.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_sid.get(parent.parent)
        if parent is None:  # outermost span of its name: nested time is not counted twice
            flat[f"{s.name}.s"] += duration
        if s.error is not None:
            flat[f"{s.name}.errors.{s.error}"] += 1
            flat[f"{s.name}.errors"] += 1
    for name, ds in durations.items():
        flat[f"{name}.p50_ms"] = float(np.percentile(ds, 50)) * 1e3
        flat[f"{name}.p90_ms"] = float(np.percentile(ds, 90)) * 1e3
    flat.update(counts)
    calls = flat.get("estimators.peak_fit.calls", 0)
    flat["estimators.peak_fit.accepted_frac"] = flat.get("estimators.peak_fit.accepted", 0) / calls if calls else 0.0
    flat["fisher.gradient_validation_errors"] = flat.get("fisher.gradient_grid.errors.GradientValidationError", 0)
    flat["harness.replicate_failures"] = flat.get("harness.run_replicate.errors", 0)
    out = {}
    for m in LAYER_METRICS:
        if m.name == "trace.overhead_s":
            continue
        out[m.name] = None if any(m.name.startswith(a + ".") for a in absent) else float(flat.get(m.name, 0.0))
    return out
