"""The byte contract: small CLI runs of every mode write the files the committed fixtures record.

tests/fixtures/make_golden_outputs.py runs one small config per mode and one
calibrate with --exact.  golden_outputs.json holds each canonical file's
sha256 and size.  Last bits move between numpy builds, platforms and CPUs,
so the digests are compared only where the numpy version, the machine and
the SIMD targets of the pipeline's float64 ufuncs match the record;
elsewhere each case skips and says why.  golden_values.json holds the same
files parsed, and is compared on every build: keys, strings, integers and
lengths exactly, floats within a relative tolerance.  That one and two
worker processes write the same bytes is checked on every build.
"""

import importlib.util
import json
import math
import pathlib

import pytest

pytestmark = pytest.mark.simd_bytes

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
_spec = importlib.util.spec_from_file_location("make_golden_outputs", FIXTURES / "make_golden_outputs.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORD = json.loads(golden.FIXTURE.read_text(encoding="utf-8"))
VALUES = json.loads(golden.VALUES.read_text(encoding="utf-8"))
# Measured against values recorded on numpy 2.4.6's X86_V4 targets: the
# largest relative difference is 1.2e-14 with AVX-512 dispatch off (X86_V3)
# and 7.1e-14 with X86_V3 off as well (X86_V2).  The absolute floor, some
# tens of ulps of the gate angles, covers rounding residue such as
# calibrate-exact's varphi_hat bias (mean - truth at zero shot noise, 1e-16)
# and its square, which move by 5.6e-17 and 1.2e-32 at X86_V2.
REL_TOL, ABS_TOL = 1e-12, 1e-15


def test_the_record_covers_every_case_and_the_stream_version():
    assert set(RECORD["cases"]) == set(VALUES["cases"]) == set(golden.CASES)
    assert RECORD["stream_version"] == golden.environment()["stream_version"]


@pytest.mark.parametrize("name", golden.CASES)
def test_the_run_writes_the_recorded_bytes(name, tmp_path):
    here = golden.environment()
    recorded = {key: RECORD[key] for key in here}
    if here != recorded:
        pytest.skip(f"digests recorded for {recorded}, this build is {here}")
    assert golden.digests(golden.run_case(name, tmp_path)) == RECORD["cases"][name]


def _mismatches(got, want, path: str) -> list:
    """Paths where got differs from want: in type, keys, length or value, floats beyond the tolerance."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}/{i}")]
    close = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL) if isinstance(want, float) else got == want
    return [] if close else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", golden.CASES)
def test_the_run_writes_the_recorded_values(name, tmp_path):
    assert _mismatches(golden.values(golden.run_case(name, tmp_path)), VALUES["cases"][name], name) == []


@pytest.mark.parametrize("name", golden.CASES)
def test_two_jobs_write_the_bytes_of_one(name, tmp_path):
    files = {}
    for jobs in ("1", "2"):
        (tmp_path / jobs).mkdir()
        files[jobs] = golden.run_case(name, tmp_path / jobs, ("--jobs", jobs))
    assert files["2"] == files["1"]
