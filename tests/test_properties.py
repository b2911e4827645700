"""Properties that hold whatever random stream the sampler uses.

Exact-mode recovery is checked against the paper's closed forms, the byte
identity across process counts against a second run, and the config
round trip against the config itself; none of them pins a sampled value.
"""

import dataclasses
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsimcal import (
    ConfusionCheckConfig,
    ConfusionMatrix,
    DriftModel,
    ExperimentConfig,
    FsimParams,
    NoiseConfig,
    PeakFitConfig,
    run_mode,
    run_replicate,
)
from fsimcal.harness import MODES

from oracles import approx_coefficients

PHASE = st.floats(-math.pi, math.pi, allow_nan=False)


@st.composite
def shallow_depth_and_angle(draw):
    """d in [2, 200] and theta in [1e-4, 1e-2] with d theta <= 1/2, short of the transition."""
    d = draw(st.integers(2, 200))
    return d, draw(st.floats(1e-4, min(1e-2, 0.5 / d)))


@given(shallow_depth_and_angle(), PHASE, PHASE)
@settings(max_examples=60, deadline=None)
def test_exact_mode_recovers_the_closed_forms(depth_and_angle, varphi, chi):
    # The first-order coefficient profile bounds the modulus error by
    # 2 (d theta)^5, and every sequential phase difference is exactly
    # 2 varphi, so the weighted phase average returns varphi mod pi.
    d, theta = depth_and_angle
    truth = FsimParams(theta, varphi, chi)
    config = ExperimentConfig(
        mode="calibrate",
        gate_truth=truth,
        noise=NoiseConfig(shots=1000, exact=True),
        replicates=1,
        depth=d,
        peak_fit=PeakFitConfig(enabled=False),
    )
    report = run_replicate(config)
    profile = math.sin(theta) * np.abs(approx_coefficients(d, theta)[:d]).mean()
    assert abs(report.theta_hat - profile) <= 2.0 * (d * theta) ** 5 + 1e-12 * theta
    # Rounding of the smallest coefficient sets the phase floor.
    amps = np.array(report.diagnostics["amplitudes"])
    floor = 1e3 * d * np.finfo(float).eps * amps.max() / amps.min()
    assert abs(math.remainder(report.varphi_hat - truth.varphi, math.pi)) <= floor


def _noise(draw, seed):
    return NoiseConfig(
        shots=draw(st.sampled_from([200, 5000])),
        depol_rate=draw(st.sampled_from([0.0, 1e-3])),
        drift=draw(st.sampled_from([None, DriftModel()])),
        confusion=draw(st.sampled_from([None, ConfusionMatrix.uniform(0.97)])),
        seed=seed,
    )


def _mode_config(mode, draw, seed, out):
    truth = FsimParams(draw(st.sampled_from([1e-3, 2e-2])), 0.3, -0.2)
    base = dict(mode=mode, gate_truth=truth, noise=_noise(draw, seed), replicates=3, output_dir=out)
    if mode == "calibrate":
        base.update(depth=draw(st.integers(4, 8)), theta_pd=draw(st.booleans()))
    elif mode == "sweep-shots":
        base.update(depth=5, shots_grid=(300, 2000), theta_pd=draw(st.booleans()))
    elif mode == "confusion-check":
        base["noise"] = NoiseConfig(shots=10, seed=seed, confusion=ConfusionMatrix.uniform(0.9))
        base["confusion_check"] = ConfusionCheckConfig(trials=20, shots=300)
    else:
        base["depth_grid"] = (4, 7)
        if mode == "alpha-scan":
            base["noise"] = NoiseConfig(shots=5000, depol_rate=1e-3, seed=seed)
    return ExperimentConfig(**base)


def _written(paths):
    return {kind: pathlib.Path(path).read_bytes() for kind, path in paths.items()}


@pytest.mark.parametrize("mode", list(MODES))
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_outputs_are_byte_identical_at_one_and_two_jobs(mode, data, seed):
    with tempfile.TemporaryDirectory() as tmp:
        config = _mode_config(mode, data.draw, seed, os.path.join(tmp, "a"))
        one = _written(run_mode(config, jobs=1))
        two = _written(run_mode(dataclasses.replace(config, output_dir=os.path.join(tmp, "b")), jobs=2))
    assert one.keys() == two.keys()
    assert one == two


POSITIVE = st.floats(1e-6, 1.0, allow_nan=False)


@st.composite
def experiment_configs(draw):
    mode = draw(st.sampled_from(list(MODES)))
    noise = NoiseConfig(
        shots=draw(st.integers(1, 10**7)),
        depol_rate=draw(st.floats(0.0, 0.5)),
        drift=draw(st.none() | st.builds(DriftModel, POSITIVE, POSITIVE)),
        confusion=draw(st.none() | st.builds(ConfusionMatrix.uniform, st.floats(0.6, 1.0))),
        seed=draw(st.integers(0, 2**63)),
        exact=draw(st.booleans()),
    )
    if mode == "confusion-check" and noise.confusion is None:
        noise = NoiseConfig(shots=noise.shots, seed=noise.seed, confusion=ConfusionMatrix.uniform(0.9))
    grid = st.lists(st.integers(3, 5000), min_size=1, max_size=5)
    return ExperimentConfig(
        mode=mode,
        gate_truth=FsimParams(draw(st.floats(0.0, 3.0)), draw(PHASE), draw(PHASE)),
        noise=noise,
        replicates=draw(st.integers(1, 1000)),
        depth=draw(st.integers(2, 5000)),
        depth_grid=tuple(sorted(draw(grid))),
        shots_grid=tuple(draw(st.lists(st.integers(1, 10**7), min_size=1, max_size=4))),
        peak_fit=PeakFitConfig(draw(st.booleans()), draw(st.integers(3, 99)), draw(st.none() | POSITIVE)),
        theta_pd=draw(st.booleans()),
        alpha_correction=draw(st.booleans()),
        confusion_check=draw(
            st.none()
            | st.builds(ConfusionCheckConfig, POSITIVE, POSITIVE, st.integers(1, 10**4), POSITIVE, st.none() | st.integers(1, 10**6))
        ),
        output_dir=draw(st.sampled_from(["out", "runs/a"])),
    )


@given(experiment_configs())
@settings(max_examples=200, deadline=None)
def test_config_dict_round_trip(config):
    assert ExperimentConfig.from_dict(config.to_dict()) == config
