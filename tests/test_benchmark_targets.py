"""The functions the benchmark traces exist under the names it traces them by, and return what it reads.

``perfbench/tracing.py`` wraps fsimcal functions by module and attribute name;
a renamed or removed target turns its per-layer metrics into ``None``.  Its
observers read the result of each call: ``fourier_estimate``'s warnings,
``peak_fit``'s acceptance, one call per replicate, and ``fisher_matrix``'s
clamped points; its crlb loop reads ``crlb``'s bounds as attributes.  Its
``su2.pq_values`` metrics claim the Chebyshev share of the Fisher pass, one
span per block.
These tests load that file as it is, install every target, and undo the
rebinding.
"""

import importlib.util
import pathlib
import sys
from collections import Counter

import pytest

import fsimcal.cli  # noqa: F401  (install rebinds names in every loaded fsimcal module)
from fsimcal import ExperimentConfig, FsimParams, NoiseConfig, PeakFitConfig, fisher, harness

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists(tracing):
    patches = tracing.Patches()
    try:
        absent = tracing.install(tracing.Tracer("targets"), patches)
        tracing.install_pool_counter(Counter(), patches)
    finally:
        patches.restore()
    assert absent == set()


def test_a_traced_calibrate_run_reports_one_estimate_and_one_fit_per_replicate(tracing):
    # theta = 1e-9 without shot noise puts every coefficient below the low-SNR floor.
    config = ExperimentConfig(
        mode="calibrate",
        gate_truth=FsimParams(1e-9, 0.2, 0.3),
        noise=NoiseConfig(shots=100_000, exact=True),
        replicates=3,
        depth=4,
        theta_pd=True,
        peak_fit=PeakFitConfig(enabled=True, n_pf=7),
    )
    tracer, patches = tracing.Tracer("contract"), tracing.Patches()
    try:
        assert tracing.install(tracer, patches) == set()
        (record,) = harness.run_points(config)
    finally:
        patches.restore()
    live = record["replicates"]
    calls = Counter(span.name for span in tracer.spans)
    assert calls["estimators.fourier_estimate"] == calls["estimators.peak_fit"] == len(live) == 3
    low_snr = sum(w.startswith("low-snr") for r in live for w in r["warnings"])
    accepted = sum(r["diagnostics"]["peak_fit"]["accepted"] for r in live)
    layers = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert layers["estimators.low_snr_warnings"] == low_snr == 3
    assert layers["estimators.peak_fit.accepted_frac"] == accepted / 3 > 0


def test_a_traced_crlb_records_one_pq_values_span_per_block(tracing):
    # d = 8193 sums its grid of 16385 points in five blocks.
    d, params = 8193, FsimParams(1e-3, 0.2, 0.3)
    blocks = -(-(2 * d - 1) // fisher._BLOCK_POINTS)
    tracer, patches = tracing.Tracer("crlb"), tracing.Patches()
    try:
        assert tracing.install(tracer, patches) == set()
        report = fisher.crlb(d, params, 1000)
    finally:
        patches.restore()
    by_sid = {span.sid: span for span in tracer.spans}
    calls = Counter(span.name for span in tracer.spans)
    assert blocks == 5 and calls["su2.pq_values"] == calls["fisher.gradient_grid"] == blocks
    assert all(by_sid[s.parent].name == "fisher.gradient_grid" for s in tracer.spans if s.name == "su2.pq_values")
    layers = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert layers["su2.pq_values.calls"] == blocks and layers["su2.pq_values.points"] == 2 * d - 1
    assert layers["fisher.clamped_points"] == fisher.fisher_matrix(d, params, 1000).clamped_points
    # the benchmark's crlb loop reads the three bounds as attributes
    assert all(isinstance(getattr(report, f"crlb_{n}"), float) for n in ("theta", "varphi", "chi"))


def test_a_traced_fisher_matrix_counts_its_clamped_points(tracing):
    # p_X = 1 + 4e-15 at one point of the d = 51 grid (test_fisher.TestBlocks.CLAMPED), so the count is not 0.
    d, params = 51, FsimParams(1.0009435211535902, -2.195364427435445, -2.512324884421145)
    tracer, patches = tracing.Tracer("clamped"), tracing.Patches()
    try:
        assert tracing.install(tracer, patches) == set()
        info = fisher.fisher_matrix(d, params, 1000)
    finally:
        patches.restore()
    layers = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert layers["fisher.clamped_points"] == info.clamped_points == 1
