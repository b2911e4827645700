"""The byte contract: small CLI runs of every mode write the files the committed fixture records.

tests/fixtures/make_golden_outputs.py runs one small config per mode and one
calibrate with --exact, and golden_outputs.json holds each canonical file's
sha256 and size.  Last bits move between numpy builds and platforms, so the
digests are compared only where the numpy version and the machine match the
record; elsewhere each case skips and says why.
"""

import importlib.util
import json
import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
_spec = importlib.util.spec_from_file_location("make_golden_outputs", FIXTURES / "make_golden_outputs.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORD = json.loads(golden.FIXTURE.read_text(encoding="utf-8"))


def test_the_record_covers_every_case_and_the_stream_version():
    assert set(RECORD["cases"]) == set(golden.CASES)
    assert RECORD["stream_version"] == golden.environment()["stream_version"]


@pytest.mark.parametrize("name", golden.CASES)
def test_the_run_writes_the_recorded_bytes(name, tmp_path):
    here = golden.environment()
    recorded = {key: RECORD[key] for key in here}
    if here != recorded:
        pytest.skip(f"digests recorded for {recorded}, this build is {here}")
    assert golden.run_case(name, tmp_path) == RECORD["cases"][name]
