"""The functions the benchmark traces exist under the names it traces them by.

``perfbench/tracing.py`` wraps fsimcal functions by module and attribute name;
a renamed or removed target turns its per-layer metrics into ``None``.  This
test loads that file as it is and installs every target, then undoes the
rebinding.
"""

import importlib.util
import pathlib
import sys
from collections import Counter

import fsimcal.cli  # noqa: F401  (install rebinds names in every loaded fsimcal module)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patches = tracing.Patches()
    try:
        absent = tracing.install(tracing.Tracer("targets"), patches)
        tracing.install_pool_counter(Counter(), patches)
    finally:
        patches.restore()
    assert absent == set()
