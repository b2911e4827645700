#!/usr/bin/env python3
"""Write golden_outputs.json: the sha256 and size of every canonical file of small CLI runs.

One small config per mode, and one calibrate run with --exact, each run
through the CLI into its own directory.  The record also holds the stream
version, the numpy version and the machine: last bits move between numpy
builds and platforms, so the digests are a contract for one build only, and
the suite compares them only where both match.  A change that moves the
bytes on purpose regenerates the file with

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


def environment() -> dict:
    """What the digests depend on besides the code."""
    return {"stream_version": STREAM_VERSION, "numpy": np.__version__, "machine": platform.machine()}


def run_case(name: str, workdir: pathlib.Path) -> dict:
    """Run one case through the CLI; {file name: {"sha256", "size"}} over every file it wrote."""
    subcommand, config, flags = CASES[name]
    config_path = workdir / f"{name}.json"
    config_path.write_text(json.dumps({"schema_version": 1, "gate_truth": TRUTH, **config}), encoding="utf-8")
    out = workdir / name
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cli_main([subcommand, "--config", str(config_path), "--out", str(out), *flags])
    if status != 0:
        raise RuntimeError(f"{name}: fsimcal {subcommand} exited {status}")
    return {
        path.name: {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "size": path.stat().st_size}
        for path in sorted(out.iterdir())
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: run_case(name, pathlib.Path(tmp)) for name in CASES}
    FIXTURE.write_text(json.dumps({**environment(), "cases": cases}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
