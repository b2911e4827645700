#!/usr/bin/env python3
"""Write golden_outputs.json and golden_values.json from small CLI runs of every mode.

One small config per mode, and one calibrate run with --exact, each run
through the CLI into its own directory.  golden_outputs.json holds the
sha256 and size of every canonical file, with the stream version, the numpy
version, the machine and the SIMD target numpy dispatches each float64 ufunc
of the pipeline to: last bits move between numpy builds, platforms and CPUs,
so the digests are a contract for one build only, and the suite compares them
only where all of these match.  golden_values.json holds the parsed contents
of the same files (the JSON payloads, and each CSV as rows of cells), which
the suite compares on every build, floats within a relative tolerance.  A
change that moves the bytes on purpose regenerates both files with

    python tests/fixtures/make_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib
import platform
import sys
import tempfile

import numpy as np

from fsimcal.cli import main as cli_main
from fsimcal.noise import STREAM_VERSION

HERE = pathlib.Path(__file__).resolve().parent
FIXTURE = HERE / "golden_outputs.json"
VALUES = HERE / "golden_values.json"
# The float64 ufuncs of the pipeline whose SIMD target can move last bits.
UFUNCS = ("sin", "cos", "exp", "log", "arctan2")
TRUTH = {"theta": 0.05, "varphi": math.pi / 16, "chi": 5 * math.pi / 32}
NOISE = {"shots": 2000, "seed": 11}
NOISY = {**NOISE, "depol_rate": 0.002, "drift": {"theta_frac": 0.1, "phase_max": 0.3},
         "confusion": [[0.97, 0.01, 0.01, 0.01], [0.01, 0.97, 0.01, 0.01],
                       [0.01, 0.01, 0.97, 0.01], [0.01, 0.01, 0.01, 0.97]]}
# name -> (subcommand, config, extra CLI flags)
CASES = {
    "calibrate": ("calibrate", {"mode": "calibrate", "depth": 8, "replicates": 4, "noise": NOISE, "theta_pd": True,
                                "peak_fit": {"n_pf": 7}}, []),
    "calibrate-exact": ("calibrate", {"mode": "calibrate", "depth": 8, "replicates": 2, "noise": NOISE}, ["--exact"]),
    # the ladder and the peak fit under depolarizing, drift and readout confusion
    "calibrate-noisy": ("calibrate", {"mode": "calibrate", "depth": 6, "replicates": 5, "noise": NOISY,
                                      "theta_pd": True, "peak_fit": {"n_pf": 5}}, []),
    "sweep-depth": ("sweep", {"mode": "sweep-depth", "depth_grid": [4, 8], "replicates": 3, "noise": NOISY,
                              "peak_fit": {"enabled": False}}, []),
    "sweep-shots": ("sweep", {"mode": "sweep-shots", "depth": 6, "shots_grid": [500, 5000], "replicates": 3,
                              "noise": NOISE}, []),
    "crlb-scan": ("crlb-scan", {"mode": "crlb-scan", "depth_grid": [2, 4, 8, 16, 32], "noise": NOISE}, []),
    "alpha-scan": ("alpha-scan", {"mode": "alpha-scan", "depth_grid": [3, 6], "replicates": 3,
                                  "noise": {**NOISE, "depol_rate": 0.01}}, []),
    "confusion-check": ("confusion-check", {"mode": "confusion-check", "noise": NOISY,
                                            "confusion_check": {"trials": 40, "shots": 300}}, []),
}


def dispatch() -> dict:
    """{ufunc: the SIMD target its float64 loop runs on here}, "unknown" before numpy 2.0."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return dict.fromkeys(UFUNCS, "unknown")
    info = opt_func_info(func_name=f"^({'|'.join(UFUNCS)})$", signature="float64")
    return {name: " ".join(loop["current"] for loop in info.get(name, {}).values()) or "baseline" for name in UFUNCS}


def environment() -> dict:
    """What the digests depend on besides the code."""
    return {"stream_version": STREAM_VERSION, "numpy": np.__version__, "machine": platform.machine(),
            "dispatch": dispatch()}


def run_case(name: str, workdir: pathlib.Path, extra: tuple = ()) -> dict:
    """Run one case through the CLI, with extra flags after its own; {file name: bytes} over its files."""
    subcommand, config, flags = CASES[name]
    config_path = workdir / f"{name}.json"
    config_path.write_text(json.dumps({"schema_version": 1, "gate_truth": TRUTH, **config}), encoding="utf-8")
    out = workdir / name
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cli_main([subcommand, "--config", str(config_path), "--out", str(out), *flags, *extra])
    if status != 0:
        raise RuntimeError(f"{name}: fsimcal {subcommand} exited {status}")
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def digests(files: dict) -> dict:
    """{file name: {"sha256", "size"}}."""
    return {name: {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)} for name, data in files.items()}


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def values(files: dict) -> dict:
    """{file name: its parsed JSON, or its CSV rows with each cell an int, a float or a string}."""
    return {
        name: json.loads(data) if name.endswith(".json")
        else [[_cell(cell) for cell in line.split(",")] for line in data.decode("utf-8").splitlines()]
        for name, data in files.items()
    }


def changed(old: dict, new: dict) -> list:
    """"case/file" for each file whose digest differs between two golden_outputs.json records, or is in one only."""
    old_cases, new_cases = old.get("cases", {}), new["cases"]
    return [
        f"{case}/{name}"
        for case in sorted(old_cases.keys() | new_cases.keys())
        for name in sorted(old_cases.get(case, {}).keys() | new_cases.get(case, {}).keys())
        if old_cases.get(case, {}).get(name) != new_cases.get(case, {}).get(name)
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: run_case(name, pathlib.Path(tmp)) for name in CASES}
    record = {**environment(), "cases": {name: digests(f) for name, f in files.items()}}
    old = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    for line in changed(old, record):
        print(f"changed: {line}", file=sys.stderr)
    FIXTURE.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    VALUES.write_text(json.dumps({"cases": {name: values(f) for name, f in files.items()}}, indent=2) + "\n",
                      encoding="utf-8")
    print(f"wrote {FIXTURE} and {VALUES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
