"""fsimcal benchmark: run one workload repeatedly, each time in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py): calibrate-ladder, drift-sweep,
crlb-scan.  Inputs come from --seed only.  The run starts workload processes
one after another until --seconds have passed (at least one), checks each
one's outputs, and requires the canonical output bytes to be identical across
the repeats.

--trace 0 reports the end-to-end metrics as medians over the repeats.
--trace 1 alternates untraced and traced repeats (the traced ones at
--jobs 1) and reports the per-layer metrics of tracing.LAYER_METRICS as
medians over the traced repeats, plus the tracing overhead.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
The lines before it give every metric with its unit and sample count, the
failures by reason, output digests and the machine.  Files go to
.perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import hostspeed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Every run must end within 180 s; a workload process still running at this
# point of the run is killed and the run fails.
HARD_LIMIT_S = 170.0
BYTES_DIFFER = "check: output bytes differ across repeats"

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


# Metrics scaled by host_speed**power to read as on a host at reference speed
# (hostspeed.py); the report keeps the values as measured too.
SCALE_BY_HOST_SPEED = {"setup_s": 1, "run_s": 1, "cpu_s": 1, "ops_per_s": -1}


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # One BLAS/OpenMP thread per process, so --jobs 2 means two busy cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(inputs_path: str, work_dir: str, *, trace: bool, jobs: int | None, spans: str | None, deadline: float) -> dict:
    """One workload process; returns its result plus setup_s, cpu_s and peak_rss_mb."""
    os.makedirs(work_dir)
    cmd = [sys.executable, os.path.join(HERE, "run_one.py"), inputs_path, work_dir]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    log_path = os.path.join(work_dir, "child.log")
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT, start_new_session=True)
    # The process group holds the workload's pool workers too.
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        # wait4 gives the rusage of this child together with the children it
        # waited for (pool workers): CPU time summed, max RSS over all.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-4000:]
        raise BenchmarkError(f"workload process exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(work_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("ready") - spawned
    result["cpu_s"] = usage.ru_utime + usage.ru_stime - result.pop("probe_cpu_s")
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    ops = result["ops"]
    result["ops_per_s"] = (ops["attempted"] - ops["failed"]) / result["run_s"]
    shutil.rmtree(work_dir)
    return result


def measure(inputs: dict, seconds: float, trace: bool, run_dir: str, spans: str | None = None):
    """(untraced results, traced results) of repeats started until `seconds` have passed."""
    os.makedirs(run_dir, exist_ok=True)
    inputs_path = os.path.join(run_dir, "inputs.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain, traced = [], []
    while True:
        i = len(plain)
        # Traced repeats run at --jobs 1 (worker-side spans are not collected),
        # so their untraced reference does too.
        plain.append(run_child(inputs_path, os.path.join(run_dir, f"plain{i}"), trace=False, jobs=1 if trace else None, spans=None, deadline=deadline))
        if trace:
            traced.append(run_child(inputs_path, os.path.join(run_dir, f"traced{i}"), trace=True, jobs=1, spans=spans, deadline=deadline))
        if time.monotonic() - start >= seconds:
            return plain, traced


def mark_byte_changes(results: list[dict]) -> None:
    """Fail every op of a repeat whose canonical bytes differ from the first repeat's."""
    reference = results[0]["digests"]
    for r in results:
        if r["digests"] != reference or r.get("pool_pass_digests", reference) != reference:
            n = r["ops"]["attempted"]
            r["ops"] = {"attempted": n, "failed": n, "by_reason": {BYTES_DIFFER: n}, "correct": False}


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "min": min(values), "max": max(values), "n": len(values)}


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": None,
        "scipy": None,
        "platform": platform.platform(),
    }
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_root)):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_root, index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            if fields["type"] in ("Unified", "Data") and fields["level"] in ("2", "3"):
                info["caches"][f"L{fields['level']}"] = fields["size"]
    except OSError:
        pass
    return info


def summarize(workload: str, seed: int, trace: bool, plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """(full report, last-line result)."""
    everything = plain + traced
    mark_byte_changes(everything)
    attempted = sum(r["ops"]["attempted"] for r in everything)
    failed = sum(r["ops"]["failed"] for r in everything)
    by_reason: dict[str, int] = {}
    domain: dict[str, int] = {}
    for r in everything:
        for reason, n in r["ops"]["by_reason"].items():
            by_reason[reason] = by_reason.get(reason, 0) + n
        for reason, n in r["ops"].get("domain_errors", {}).items():
            domain[reason] = domain.get(reason, 0) + n
    # Each repeat's times are scaled to a host running at reference speed:
    # the host's speed is the reference probe time over the repeat's own.
    speeds = [hostspeed.REFERENCE_S / r["probe_s"] for r in plain]
    end_to_end = {}
    for name, unit in END_TO_END:
        values = [r[name] for r in plain]
        power = SCALE_BY_HOST_SPEED.get(name, 0)
        if power:
            values = [v * speed**power for v, speed in zip(values, speeds)]
            end_to_end[name] = dict(quartiles(values), unit=unit, as_measured=statistics.median(r[name] for r in plain))
        else:
            end_to_end[name] = dict(quartiles(values), unit=unit)
    end_to_end["failed_frac"] = {"value": failed / attempted, "unit": "1", "failed": failed, "attempted": attempted}
    n_domain = sum(domain.values())
    end_to_end["domain_error_frac"] = {"value": n_domain / attempted, "unit": "1", "failed": n_domain, "attempted": attempted}
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repeats": {"untraced": len(plain), "traced": len(traced)},
        "correct": all(r["ops"]["correct"] for r in everything),
        "failures_by_reason": dict(sorted(by_reason.items())),
        "domain_errors_by_reason": dict(sorted(domain.items())),
        "end_to_end": end_to_end,
        "host_speed": dict(quartiles(speeds), probe_s=[r["probe_s"] for r in plain]),
        "repeat_run_s": [r["run_s"] for r in plain],
        "output_sha256": plain[0]["digests"],
        "machine": machine(),
    }
    if trace:
        layers = {}
        for m in tracing.LAYER_METRICS:
            if m.name == "trace.overhead_s":
                value = statistics.median(r["run_s"] for r in traced) - statistics.median(r["run_s"] for r in plain)
                layers[m.name] = {"value": value, "unit": m.unit, "n": len(traced), "moves": m.moves}
                continue
            values = [r["layers"][m.name] for r in traced]
            entry = {"value": None, "unit": m.unit, "n": len(values), "moves": m.moves}
            if any(v is None for v in values):
                entry["absent"] = True
            else:
                entry["value"] = statistics.median(values)
            layers[m.name] = entry
        report["per_layer"] = layers
        report["spans_per_traced_run"] = traced[0]["spans"]
        metrics = {k: {key: v[key] for key in ("value", "unit", "absent") if key in v} for k, v in layers.items()}
    else:
        metrics = {name: {"value": end_to_end[name]["median"], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": report["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def print_report(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} trace={int(report['trace'])} repeats={report['repeats']}")
    for name, m in report["end_to_end"].items():
        if name in ("failed_frac", "domain_error_frac"):
            reasons = report["failures_by_reason" if name == "failed_frac" else "domain_errors_by_reason"]
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}  ({m['failed']}/{m['attempted']} ops)  by reason: {reasons}")
        else:
            raw = f"; as measured {m['as_measured']:.6g}" if "as_measured" in m else ""
            print(f"  {name:<14} {m['median']:.6g} {m['unit']}  (median of n={m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}{raw})")
    hs = report["host_speed"]
    print(f"  host speed     {hs['median']:.4g} x reference  (median of n={hs['n']}; min {hs['min']:.4g}, max {hs['max']:.4g})")
    for name, m in report.get("per_layer", {}).items():
        value = "absent" if m.get("absent") else f"{m['value']:.6g}"
        print(f"  {name:<42} {value} {m['unit']}  (median of n={m['n']})  -> {m['moves']}")
    print(f"  output sha256: {report['output_sha256']}")
    print(f"  machine: {json.dumps(report['machine'])}")
    print("report: " + json.dumps(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fsimcal benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run stops its workload process too (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "fsimcal", "__init__.py")):
        print(f"perfbench: no fsimcal sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    # Byte-compile up front so the first repeat's set-up is not inflated.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    trace = bool(args.trace)
    inputs = workloads.make_inputs(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, "runs", f"{tag}-{os.getpid()}")
    spans = os.path.join(WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl") if trace else None
    if spans:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    try:
        plain, traced = measure(inputs, args.seconds, trace, run_dir, spans)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(run_dir)
    report, result = summarize(args.workload, args.seed, trace, plain, traced)
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    with open(os.path.join(WORK, "reports", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
