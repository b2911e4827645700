"""Config declarations: every section field is made by setting(), and every
declared rule rejects what it rules out, naming the field's config path.

The wrong values are read from the declarations: a value of another kind,
None where the field is not optional, and a value just past each bound.
"""

import dataclasses
import math
import re

import pytest

from fsimcal import DriftModel, ExperimentConfig, FsimParams, NoiseConfig, PeakFitConfig
from fsimcal.config import Setting
from fsimcal.harness import ConfusionCheckConfig

from config_strategies import declared, section_classes

TRUTH = FsimParams(1e-3, 0.2, 0.5)
# Every section class: its path in the config, and a valid instance each wrong value is put into.
SECTIONS = {
    FsimParams: ("gate_truth.", TRUTH),
    DriftModel: ("noise.drift.", DriftModel()),
    NoiseConfig: ("noise.", NoiseConfig()),
    PeakFitConfig: ("peak_fit.", PeakFitConfig()),
    ConfusionCheckConfig: ("confusion_check.", ConfusionCheckConfig()),
    ExperimentConfig: ("", ExperimentConfig(mode="calibrate", gate_truth=TRUTH, depth=8)),
}
OTHER_KIND = {int: 2.5, float: "0.1", bool: 1, str: 5, tuple: "4,8"}  # a section or matrix gets a dict


def _past(op, bound, kind):
    """The value just past a bound: the bound itself where it is open, one step beyond where closed."""
    if op in ("gt", "lt"):
        return bound
    step = -1 if op == "ge" else 1
    return math.nextafter(bound, step * math.inf) if kind is float else bound + step


def _wrong_values(spec):
    yield "kind", OTHER_KIND.get(spec.kind, {"entries": 1})
    if not spec.optional:
        yield "null", None
    for op, bound in spec.bounds.items():
        past = _past(op, bound, int if spec.kind is tuple else spec.kind)
        yield op, (past,) if spec.kind is tuple else past


CASES = [
    pytest.param(cls, f.name, value, id=f"{SECTIONS[cls][0]}{f.name}-{label}")
    for cls in SECTIONS
    for f, spec in declared(cls)
    for label, value in _wrong_values(spec)
]


def test_every_field_of_every_section_is_made_by_setting():
    classes = list(section_classes())
    assert set(classes) == set(SECTIONS)
    bare = [
        f"{cls.__name__}.{f.name}"
        for cls in classes
        for f in dataclasses.fields(cls)
        if not isinstance(f.metadata.get("setting"), Setting)
    ]
    assert not bare, f"fields not made by setting(): {bare}"


@pytest.mark.parametrize("cls, name, value", CASES)
def test_each_declared_rule_rejects_a_wrong_value(cls, name, value):
    path = SECTIONS[cls][0] + name
    with pytest.raises(ValueError, match=f"^{re.escape(path)} must be .*, got "):
        dataclasses.replace(SECTIONS[cls][1], **{name: value})
