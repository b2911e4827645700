"""Tests of the benchmark itself: tracing, checks, metric names, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import fsimcal
import fsimcal.cli  # noqa: F401
import run as bench
import hostspeed
import run_one
import tracing
import workloads

ROOT = bench.ROOT
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings():
    snap = {}
    for module in tracing._fsimcal_modules():
        for key, value in vars(module).items():
            snap[(module.__name__, key)] = value
    for key, value in vars(fsimcal.ExperimentConfig).items():
        snap[("ExperimentConfig", key)] = value
    return snap


def test_tracing_restores_every_attribute():
    before = _bindings()
    tracer = tracing.Tracer("restore")
    patches = tracing.Patches()
    absent = tracing.install(tracer, patches)
    tracing.install_pool_counter(tracer.counts, patches)
    assert not absent
    original_stream = before[("fsimcal.noise", "stream")]
    assert fsimcal.noise.stream is not original_stream
    assert fsimcal.harness.stream is fsimcal.noise.stream
    assert fsimcal.ExperimentConfig.from_dict.__func__ is not before[("ExperimentConfig", "from_dict")].__func__
    patches.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_missing_target_is_reported_absent():
    tracer = tracing.Tracer("absent")
    patches = tracing.Patches()
    absent = tracing.install(tracer, patches, [tracing.Target("noise.drifted_survival", "fsimcal.noise", "_no_such_helper")])
    patches.restore()
    assert absent == {"noise.drifted_survival"}
    metrics = tracing.layer_metrics([], {}, absent)
    assert metrics["noise.drifted_survival.s"] is None
    assert metrics["noise.stream.calls"] == 0.0


def _span(sid, name, start, end, parent=None, error=None):
    return tracing.Span(sid, name, start, end, parent, "synthetic", error)


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [
        _span(0, "harness.run_replicate", 0.0, 10.0),
        _span(1, "noise.simulate_probability_batch", 1.0, 4.0, parent=0),
        _span(2, "noise.stream", 2.0, 3.0, parent=1),
        _span(3, "noise.simulate_probability_batch", 3.0, 6.0, parent=0),  # overlaps span 1
        _span(4, "harness.summarize", 8.0, 12.0, parent=0),  # runs past its parent's end
        _span(5, "harness.run_replicate", 20.0, 21.0, error="ValueError"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0, 5: 1.0}
    m = tracing.layer_metrics(spans, {"noise.circuits": 7})
    assert m["harness.run_replicate.calls"] == 2
    assert m["harness.run_replicate.self_s"] == 4.0
    assert m["noise.simulate_probability_batch.s"] == 6.0
    assert m["noise.simulate_probability_batch.self_s"] == 5.0
    assert m["harness.replicate_failures"] == 1
    assert m["noise.circuits"] == 7


def test_nested_spans_of_one_name_count_once():
    spans = [_span(0, "harness.write", 0.0, 4.0), _span(1, "harness.write", 1.0, 2.0, parent=0)]
    assert tracing.layer_metrics(spans, {})["harness.write.s"] == 4.0


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    names += [m.name for m in tracing.LAYER_METRICS] + [n for n, _ in bench.END_TO_END]
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.LAYER_METRICS
    ]
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_write_the_same_bytes(workload, tmp_path):
    inputs = workloads.make_inputs(workload, 5, smoke=True)
    prepared = workloads.prepare(inputs, str(tmp_path))
    workloads.run(inputs, prepared, str(tmp_path / "plain"), 1)
    _, tracer, absent = run_one.run_traced(inputs, prepared, str(tmp_path / "traced"), 1, "bytes")
    assert tracer.spans and not absent
    assert workloads.output_digests(workload, str(tmp_path / "plain")) == workloads.output_digests(
        workload, str(tmp_path / "traced")
    )


def _corrupt_calibrate(out):
    path = out / "run_record.json"
    record = json.loads(path.read_text())
    record["replicates"][0]["theta_pd"] = None
    path.write_text(json.dumps(record))
    return {"check: theta_pd missing": 1}


def _corrupt_crlb(out):
    path = out / "crlb_scan.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[4] = "nan"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return {"check: non-finite CRLB or slope": 1}


def _corrupt_drift(out):
    path = out / "sweep_records.json"
    records = json.loads(path.read_text())
    at_50 = next(r for r in records if r["grid_value"] == workloads.DRIFT_GATE_DEPTH)
    for rep in at_50["replicates"]:
        rep["diagnostics"]["theta_corrected"] = 2.0 * workloads.THETA
    path.write_text(json.dumps(records))
    return {"check: median |theta_corr-theta|/theta at d=50 above 0.5": len(at_50["replicates"])}


@pytest.mark.parametrize(
    "workload,corrupt",
    [("calibrate-ladder", _corrupt_calibrate), ("drift-sweep", _corrupt_drift), ("crlb-scan", _corrupt_crlb)],
)
def test_checks_flag_wrong_outputs(workload, corrupt, tmp_path):
    inputs = workloads.make_inputs(workload, 6, smoke=True)
    prepared = workloads.prepare(inputs, str(tmp_path))
    out = tmp_path / "out"
    workloads.run(inputs, prepared, str(out), 1)
    assert workloads.check(inputs, str(out))["correct"]
    expected = corrupt(out)
    summary = workloads.check(inputs, str(out))
    assert not summary["correct"]
    assert summary["by_reason"] == expected


def test_crlb_domain_errors_are_counted_apart_from_failures(tmp_path):
    inputs = workloads.make_inputs("crlb-scan", 6, smoke=True)
    prepared = workloads.prepare(inputs, str(tmp_path))
    workloads.run(inputs, prepared, str(tmp_path), 1)
    path = tmp_path / "crlb_scan.csv"
    lines = path.read_text().splitlines()
    for i, status in ((-1, "GradientValidationError"), (-2, "SomethingElse")):
        fields = lines[i].split(",")
        lines[i] = ",".join(fields[:2] + [status] + [""] * 6)
    path.write_text("\n".join(lines) + "\n")
    summary = workloads.check(inputs, str(tmp_path))
    assert summary["domain_errors"] == {"GradientValidationError": 1}
    assert summary["by_reason"] == {"check: unknown status 'SomethingElse'": 1}
    assert summary["failed"] == 1 and not summary["correct"]


def _synthetic_result(run_s, probe_s):
    ops = {"attempted": 10, "failed": 0, "by_reason": {}, "domain_errors": {}, "correct": True}
    return {"run_s": run_s, "setup_s": 0.5, "cpu_s": run_s, "peak_rss_mb": 40.0, "ops_per_s": 10 / run_s,
            "probe_s": probe_s, "ops": ops, "digests": {"f": "0"}}


def test_times_are_scaled_to_reference_host_speed():
    ref = hostspeed.REFERENCE_S
    # The probe ran twice as slow as on the reference host, so did the workload.
    plain = [_synthetic_result(2.0, 2 * ref), _synthetic_result(2.2, 2 * ref), _synthetic_result(1.8, 2 * ref)]
    report, result = bench.summarize("crlb-scan", 1, False, plain, [])
    m = result["metrics"]
    assert m["run_s"]["value"] == pytest.approx(1.0)
    assert m["cpu_s"]["value"] == pytest.approx(1.0)
    assert m["setup_s"]["value"] == pytest.approx(0.25)
    assert m["ops_per_s"]["value"] == pytest.approx(10.0)
    assert m["peak_rss_mb"]["value"] == 40.0
    assert report["end_to_end"]["run_s"]["as_measured"] == 2.0


@pytest.mark.parametrize("processes", [1, 2])
def test_host_speed_probe_is_positive_and_short(processes):
    assert 0 < hostspeed.probe(processes, rounds=3) < 5.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, tmp_path):
    inputs = workloads.make_inputs(workload, 7, smoke=True)
    plain, traced = bench.measure(inputs, 0.0, False, str(tmp_path / "run"))
    report, result = bench.summarize(workload, 7, False, plain, traced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {n for n, _ in bench.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer(tmp_path):
    inputs = workloads.make_inputs("drift-sweep", 8, smoke=True)
    plain, traced = bench.measure(inputs, 0.0, True, str(tmp_path / "run"), str(tmp_path / "spans.jsonl"))
    report, result = bench.summarize("drift-sweep", 8, True, plain, traced)
    metrics = result["metrics"]
    assert result["correct"]
    assert list(metrics) == [m.name for m in tracing.LAYER_METRICS]
    assert all(isinstance(m["value"], float) for m in metrics.values())
    assert metrics["harness.pool_starts"]["value"] == 3  # one pool per sweep point at --jobs 2
    assert metrics["noise.invert_confusion.calls"]["value"] == 0  # the batch path bypasses it
    assert metrics["noise.drifted_survival.s"]["value"] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crlb-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
