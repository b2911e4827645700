"""Run one benchmark workload once, in this fresh process, and write result.json.

    python3 perfbench/run_one.py INPUTS_JSON WORK_DIR [--jobs N] [--trace] [--spans FILE]

Set-up ends when fsimcal is imported and the workload's config is built; the
result records that moment on the monotonic clock, so the parent, which noted
when it started this process, can compute setup_s.  run_s covers only the
calls into fsimcal.  Output checks and digests come after the timed part.
The host-speed probe (hostspeed.py) runs just before and just after the
timed part, in as many processes as the run has jobs; its mean time and the
CPU time it used go into the result.

With --trace the run is traced per layer.  A workload whose own --jobs is
above 1 is traced at the --jobs given here, and then makes one more untraced
pass at its own --jobs that only counts process-pool starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

import fsimcal.cli  # noqa: F401  (set-up includes importing the package the workloads call)

import hostspeed
import tracing
import workloads


def _cpu_s() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def timed_probe(processes: int) -> tuple[float, float]:
    """(host-speed probe seconds, CPU seconds it used) with `processes` probing at once."""
    cpu0 = _cpu_s()
    seconds = hostspeed.probe(processes)
    return seconds, _cpu_s() - cpu0


def run_traced(inputs, prepared, out_dir: str, jobs: int, run_id: str) -> tuple[float, tracing.Tracer, set]:
    tracer = tracing.Tracer(run_id)
    patches = tracing.Patches()
    try:
        absent = tracing.install(tracer, patches)
        t0 = time.perf_counter()
        workloads.run(inputs, prepared, out_dir, jobs)
        run_s = time.perf_counter() - t0
    finally:
        patches.restore()
    return run_s, tracer, absent


def count_pool_starts(inputs, prepared, out_dir: str, counts) -> None:
    patches = tracing.Patches()
    try:
        tracing.install_pool_counter(counts, patches)
        workloads.run(inputs, prepared, out_dir, inputs["jobs"])
    finally:
        patches.restore()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs")
    parser.add_argument("work_dir")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    out_dir = os.path.join(args.work_dir, "out")
    prepared = workloads.prepare(inputs, args.work_dir)
    ready = time.monotonic()
    jobs = args.jobs if args.jobs is not None else inputs.get("jobs", 1)
    result = {"ready": ready}
    probe_before, probe_cpu_s = timed_probe(jobs)
    if args.trace:
        run_s, tracer, absent = run_traced(inputs, prepared, out_dir, jobs, f"{inputs['workload']}-{os.getpid()}")
        if inputs.get("jobs", 1) > 1:
            pool_dir = os.path.join(args.work_dir, "pool_out")
            count_pool_starts(inputs, prepared, pool_dir, tracer.counts)
            result["pool_pass_digests"] = workloads.output_digests(inputs["workload"], pool_dir)
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, absent)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        t0 = time.perf_counter()
        workloads.run(inputs, prepared, out_dir, jobs)
        run_s = time.perf_counter() - t0
    probe_after, cpu_s = timed_probe(jobs)
    result["probe_s"] = (probe_before + probe_after) / 2
    result["probe_cpu_s"] = probe_cpu_s + cpu_s
    result["run_s"] = run_s
    result["ops"] = workloads.check(inputs, out_dir)
    result["digests"] = workloads.output_digests(inputs["workload"], out_dir)
    with open(os.path.join(args.work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
