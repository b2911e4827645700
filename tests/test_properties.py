"""Properties that hold whatever random stream the sampler uses.

Exact-mode recovery is checked against the paper's closed forms, the byte
identity across process counts against a second run, the config round trip
against the config itself, a config's run points against the config that
builds them, the run summary against its earlier per-name form, and small
configs of every mode against the rule that no output holds a non-finite
number; none of them pins a sampled value.
"""

import dataclasses
import json
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from fsimcal import ConfusionMatrix, DriftModel, ExperimentConfig, FsimParams, NoiseConfig, PeakFitConfig, run_mode
from fsimcal.fisher import SingularFisherError
from fsimcal.harness import MODES, ConfusionCheckConfig, EmptyPointError, _summarize, run_replicate
from fsimcal.signal_model import exact_signal, omega_grid, spectrum_from_h

from config_strategies import CONFUSIONS, confusion_checks, declared, experiment_configs, sections, values
from oracles import approx_coefficients, summarize_by_name

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
    (report,) = run_replicate(config)
    profile = math.sin(theta) * np.abs(approx_coefficients(d, theta)[:d]).mean()
    assert abs(report["theta_hat"] - profile) <= 2.0 * (d * theta) ** 5 + 1e-12 * theta
    # Rounding of the smallest coefficient sets the phase floor.
    amps = np.abs(spectrum_from_h(exact_signal(d, omega_grid(d), truth), d)[:d])
    floor = 1e3 * d * np.finfo(float).eps * amps.max() / amps.min()
    assert abs(math.remainder(report["varphi_hat"] - truth.varphi, math.pi)) <= floor


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
        elif mode == "crlb-scan":  # the shot-noise bound covers neither drift, depolarizing nor readout confusion
            base["noise"] = dataclasses.replace(base["noise"], depol_rate=0.0, drift=None, confusion=None)
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


@given(experiment_configs())
@settings(max_examples=200, deadline=None)
def test_config_dict_round_trip(config):
    assert ExperimentConfig.from_dict(config.to_dict()) == config


# Redrawn values at the edges a run point meets: tiny counts and depths, the depth cap, the
# sampler's int64 shot cap, and each mode.
EDGES = st.integers(-1, 3) | st.sampled_from([2**16, 2**16 + 1, 2**63 - 1, 2**63])
EDGE_DRAWS = {int: EDGES, tuple: st.lists(EDGES, min_size=1, max_size=3).map(tuple), str: st.sampled_from(list(MODES))}


@pytest.mark.parametrize("field, spec", [pytest.param(f.name, s, id=f.name) for f, s in declared(ExperimentConfig)])
@given(config=experiment_configs(), data=st.data())
# No shrink phase: minimising a failing example redraws whole nested configs and takes about a minute.
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_a_config_that_builds_has_run_points_that_build(field, spec, config, data):
    # Building a config does not build its run points, so the fields' declarations and the mode
    # rules must reject every config with a run point that would not build.  A valid config gets
    # one field redrawn, as declared or at an edge.
    value = data.draw(values(spec) | EDGE_DRAWS.get(spec.kind, values(spec)), label=field)
    try:
        config = dataclasses.replace(config, **{field: value})
    except ValueError:
        return
    points = MODES[config.mode].points
    assert all(point.mode == "calibrate" for _, point in (points(config) if points else []))


# Small configs of every mode; the declarations draw every field not named here,
# drift widths over their whole declared range [0, pi].
SMALL_CONFIGS = experiment_configs(
    max_depth=7,
    # theta = 0 and pi/2 leave the signal without phase information
    gate_truth=st.builds(FsimParams, st.sampled_from([0.0, math.pi / 2, 1e-3]) | st.floats(1e-4, 0.3), PHASE, PHASE),
    replicates=st.integers(1, 3),
    noise=sections(
        NoiseConfig,
        shots=st.integers(1, 10**6),
        drift=st.none() | sections(DriftModel),
    ),
    peak_fit=sections(PeakFitConfig, n_pf=st.integers(3, 9)),
    # One branch draws a few shots per row, where an estimate can fail dominance.
    confusion_check=confusion_checks(trials=st.integers(1, 20), shots=st.integers(1, 8) | st.integers(1, 2000)),
)


def _refuse(token):
    raise ValueError(f"non-finite JSON number {token}")


def _finite_or_text(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:  # a label, or an empty cell
        return True


@given(SMALL_CONFIGS)
# In the noise-free limit at theta = 0 every replicate fails, so alpha-scan has no
# alpha_hat at any depth; at theta = pi/2 the Fisher matrix of every depth is singular.
@example(
    ExperimentConfig(
        mode="alpha-scan", gate_truth=FsimParams(0.0, 0.3, -0.2), noise=NoiseConfig(exact=True), depth_grid=(3, 5)
    )
)
@example(ExperimentConfig(mode="crlb-scan", gate_truth=FsimParams(math.pi / 2, 0.3, -0.2), depth_grid=(2, 3)))
# One shot per row makes a singular estimate of the confusion matrix in some trial.
@example(
    ExperimentConfig(
        mode="confusion-check",
        gate_truth=FsimParams(1e-3, 0.3, -0.2),
        noise=NoiseConfig(confusion=ConfusionMatrix.uniform(0.9), seed=3),
        confusion_check=ConfusionCheckConfig(trials=20, shots=1),
    )
)
@settings(max_examples=100, deadline=None)
def test_every_mode_writes_only_finite_numbers(config):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run_mode(dataclasses.replace(config, output_dir=tmp))
        except (EmptyPointError, SingularFisherError):
            pass  # the expected domain failures; what was written is still checked
        for path in pathlib.Path(tmp).iterdir():
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".json":
                json.loads(text, parse_constant=_refuse)
            else:
                assert all(_finite_or_text(cell) for line in text.splitlines() for cell in line.split(","))


@given(
    noise=sections(NoiseConfig, confusion=CONFUSIONS),
    check=sections(ConfusionCheckConfig, shots=st.integers(1, 8), trials=st.integers(1, 20)),
)
@settings(max_examples=40, deadline=None)
def test_few_shot_confusion_check_completes_with_finite_numbers(noise, check):
    # With 1-8 shots per row, a trial's estimate often fails dominance or is singular.
    config = ExperimentConfig(
        mode="confusion-check", gate_truth=FsimParams(1e-3, 0.3, -0.2), noise=noise, confusion_check=check
    )
    with tempfile.TemporaryDirectory() as tmp:
        paths = run_mode(dataclasses.replace(config, output_dir=tmp))
        report = json.loads(pathlib.Path(paths["report"]).read_text(encoding="utf-8"), parse_constant=_refuse)
    assert report["m_cmt"] == check.shots and report["trials"] == check.trials
    assert 0 <= report["failures"] <= check.trials
    assert all(math.isfinite(v) for v in report.values() if isinstance(v, (int, float)))


SMALL = st.floats(-1e-2, 1e-2, allow_nan=False)


@st.composite
def replicate_records(draw):
    """A record as _summarize reads it: every estimate None or a float, theta_corrected
    present or absent, and theta_pd_var_theory present exactly when theta_pd is."""
    maybe = lambda values: draw(st.none() | values)
    record = {
        "theta_hat": maybe(SMALL),
        "varphi_hat": maybe(st.floats(-math.pi / 2, math.pi / 2)),
        "alpha_hat": maybe(st.floats(0.5, 1.0)),
        "theta_pd": maybe(SMALL),
        "theta_pf": maybe(SMALL),
        "var_theory_theta": draw(POSITIVE),
        "var_theory_varphi": draw(POSITIVE),
        "warnings": [],
        "diagnostics": {},
    }
    if draw(st.booleans()):
        record["diagnostics"]["theta_corrected"] = draw(SMALL)
    if record["theta_pd"] is not None:
        record["diagnostics"]["theta_pd_var_theory"] = draw(POSITIVE)
    return record


@given(
    reports=st.lists(replicate_records(), max_size=12),
    # a true phase at either side of the mod-pi wrap, so residuals cross it
    varphi=st.sampled_from([math.pi / 2 - 0.01, -math.pi / 2 + 0.01]) | PHASE,
    depol_rate=st.just(0.0) | st.floats(1e-4, 0.1),
    depth=st.integers(2, 100),
    point=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_summary_matches_the_per_name_oracle(reports, varphi, depol_rate, depth, point):
    config = ExperimentConfig(
        mode="calibrate",
        gate_truth=FsimParams(1e-3, varphi, 0.2),
        noise=NoiseConfig(shots=1000, depol_rate=depol_rate, seed=11),
        replicates=1,
        depth=depth,
    )
    assert json.dumps(_summarize(config, reports, point)) == json.dumps(summarize_by_name(config, reports, point))
