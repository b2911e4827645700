"""The study scripts run end to end and write exactly what their modes write."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from fsimcal.harness import MODES

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _files(mode):
    names = set(MODES[mode].files.values())
    figure = MODES[mode].figure
    return names | ({f"figure_{figure}.csv"} if figure else set())


SCRIPTS = {
    "crlb_transition": (
        [],
        {f"{tag}/{name}" for tag in ("theta_0p01", "theta_0p001") for name in _files("crlb-scan")},
        [r"theta=0\.01: slope\(crlb_varphi\) = ", r"theta=0\.001: slope\(crlb_varphi\) = "],
    ),
    "noise_robustness": (
        ["--replicates", "2"],
        _files("sweep-depth") | _files("alpha-scan"),
        [rf"^ +{d} +\S+e-\d+ +\d\.\d{{3}}$" for d in (10, 20, 30, 40, 50, 70, 100)]
        + [rf"^ +{d} +0\.\d{{4}} +\S+e-\d+$" for d in (10, 20, 30, 40, 50, 60)],
    ),
    "variance_vs_depth": (
        ["--replicates", "4", "--depths", "10", "15"],
        _files("sweep-depth") | {f"figure_{f}.csv" for f in ("mse-vs-depth", "variance-vs-depth")},
        [rf"^ +{d}( +\S+e-\d+){{4}}$" for d in (10, 15)],
    ),
}


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_writes_its_mode_files(tmp_path, script):
    args, expected, lines = SCRIPTS[script]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, f"scripts/{script}.py", "--out", str(out), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == expected
    for pattern in lines:
        assert re.search(pattern, proc.stdout, flags=re.MULTILINE), pattern
    assert proc.stdout.endswith(f"wrote {out}/\n")
