"""Hypothesis strategies read from the config declarations.

Each field is drawn from its setting(): its kind, its bounds and whether it
may be None.  The mode rules (MODES[mode].rules) are predicates a strategy
cannot invert, so a per-mode table draws the fields each mode constrains;
any other field can be overridden by name, and noise and confusion_check
also in the modes that constrain them.
"""

import dataclasses

from hypothesis import strategies as st

from fsimcal import ConfusionMatrix, ExperimentConfig, NoiseConfig
from fsimcal.config import Section
from fsimcal.harness import MODES, ConfusionCheckConfig

CONFUSIONS = st.builds(ConfusionMatrix.uniform, st.floats(0.6, 1.0))  # diagonally dominant


def section_classes(cls=Section):
    """Every Section subclass the package defines, depth first."""
    for sub in cls.__subclasses__():
        yield sub
        yield from section_classes(sub)


def declared(cls):
    """(field, its Setting) for each field of a section class made by setting()."""
    return [(f, f.metadata["setting"]) for f in dataclasses.fields(cls) if "setting" in f.metadata]


def _numbers(kind, bounds):
    low, high = bounds.get("ge", bounds.get("gt")), bounds.get("le", bounds.get("lt"))
    if kind is int:
        low = None if low is None else low + ("gt" in bounds)
        return st.integers(low, None if high is None else high - ("lt" in bounds))
    exclude = dict(exclude_min="gt" in bounds, exclude_max="lt" in bounds)
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **exclude)


def values(spec):
    """Values one declared field admits."""
    if spec.kind is bool:
        drawn = st.booleans()
    elif spec.kind is str:
        drawn = st.text("abc/_.", min_size=1)
    elif spec.kind in (int, float):
        drawn = _numbers(spec.kind, spec.bounds)
    elif spec.kind is tuple:
        drawn = st.lists(_numbers(int, spec.bounds), max_size=4).map(tuple)
    elif spec.kind is ConfusionMatrix:
        drawn = CONFUSIONS
    else:
        drawn = sections(spec.kind)
    return st.none() | drawn if spec.optional else drawn


def sections(cls, **fields):
    """Instances of a section class: each field from its declaration unless given in fields."""
    return st.builds(cls, **{f.name: fields.get(f.name, values(spec)) for f, spec in declared(cls)})


_CHECK_SHOTS = next(spec for f, spec in declared(ConfusionCheckConfig) if f.name == "shots")


def confusion_checks(**fields):
    """None or a ConfusionCheckConfig whose shots fit the sampler at every matrix CONFUSIONS draws.

    Given shots are drawn as declared, or from fields; null shots come with
    epsilon >= 1e-3, alpha >= 1e-6 and constant <= 100, which keep
    confusion_sample_size below 2**63 at kappa <= 5.
    """
    given = sections(ConfusionCheckConfig, **{"shots": _numbers(int, _CHECK_SHOTS.bounds), **fields})
    sized = dict(shots=st.none(), epsilon=st.floats(1e-3, 10.0), alpha=st.floats(1e-6, 0.5),
                 constant=st.floats(1e-3, 100.0))
    return st.none() | given | sections(ConfusionCheckConfig, **{**fields, **sized})


def _grid(low, high, ascending=False, min_size=1):
    grid = st.lists(st.integers(low, high), min_size=min_size, max_size=4, unique=ascending)
    return (grid.map(sorted) if ascending else grid).map(tuple)


def mode_fields(max_depth, noise, confusion_check):
    """The fields each mode constrains, with depths up to max_depth, noise drawn from noise and
    the confusion check from confusion_check."""
    depth = st.integers(2, max_depth)
    return {
        "calibrate": dict(depth=depth),
        "sweep-depth": dict(depth_grid=_grid(2, max_depth)),
        "sweep-shots": dict(depth=depth, shots_grid=_grid(1, 10**6)),
        "crlb-scan": dict(depth_grid=_grid(2, max_depth, ascending=True, min_size=2)),
        "alpha-scan": dict(depth_grid=_grid(3, max_depth), alpha_correction=st.just(True)),
        "confusion-check": dict(noise=noise.filter(lambda n: n.confusion is not None),
                                confusion_check=confusion_check),
    }


def experiment_configs(max_depth=2**16, **fields):
    """Valid ExperimentConfigs of every mode; fields override the declared draws of the fields the modes leave free."""
    noise, confusion_check = fields.get("noise", sections(NoiseConfig)), fields.get("confusion_check", confusion_checks())
    table = mode_fields(max_depth, noise, confusion_check)
    return st.one_of([sections(ExperimentConfig, mode=st.just(mode), **{**fields, **table[mode]}) for mode in MODES])

