"""Experiment runner: configs, records, determinism, sweeps, CLI surface."""

import copy
import json
import math
import os
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsimcal import (
    ConfusionMatrix,
    DriftModel,
    ExperimentConfig,
    FsimParams,
    NoiseConfig,
    PeakFitConfig,
    emit_figure_data,
    harness,
    run_mode,
)
from fsimcal.cli import main as cli_main
from fsimcal.estimators import DegenerateCoefficientError, FidelityCollapseError
from fsimcal.fisher import transition_scan
from fsimcal.harness import (
    FIGURES,
    MODES,
    ConfusionCheckConfig,
    _alpha_scan_rows,
    _percentile,
    _summarize,
    _sweep_rows,
    run_confusion_check,
    run_points,
)
from fsimcal.noise import BOOTSTRAP, STREAM_VERSION, InversionRejectedError, stream

from oracles import bootstrap_means_loop

TRUTH = FsimParams(1e-3, np.pi / 16, 5 * np.pi / 32)
DROP = object()  # an edit value that removes the key from a config


def _stand_in_pool(monkeypatch, cpus):
    """Swap the harness's worker pool for one that runs tasks in-process, on a machine with cpus usable CPUs.

    Returns the lists that collect each pool's size and each map's batch sizes, one task per batch.
    """
    sizes, chunks = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            chunks.append([len(replicates) for config, point, replicates in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return sizes, chunks


@pytest.fixture
def deadline():
    """Fails the test, instead of hanging the suite, if it is still running after 30 s (a deadlocked worker)."""

    def expire(signum, frame):
        raise TimeoutError("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def small_config(**over):
    base = dict(
        mode="calibrate",
        gate_truth=TRUTH,
        noise=NoiseConfig(shots=20_000, seed=7),
        replicates=6,
        depth=8,
        peak_fit=PeakFitConfig(enabled=True, n_pf=7),
    )
    base.update(over)
    return ExperimentConfig(**base)


# One noise kind per shared simulator step; each config runs the grid, the mixed-depth ladder and the peak fit.
BATCH_NOISE = {
    "shots": NoiseConfig(shots=20_000, seed=7),
    "exact": NoiseConfig(shots=20_000, seed=7, exact=True),
    "depolarizing": NoiseConfig(shots=20_000, depol_rate=1e-2, seed=7),
    "drift": NoiseConfig(shots=20_000, drift=DriftModel(), seed=7),
    "confusion": NoiseConfig(shots=20_000, confusion=ConfusionMatrix.uniform(0.97), seed=7),
}


class TestReplicateBatches:
    """run_replicate over a batch writes, byte for byte, the records of one call per replicate."""

    @staticmethod
    def one_at_a_time(config, point, replicates):
        return [rec for r in replicates for rec in harness.run_replicate(config, point=point, replicates=[r])]

    @staticmethod
    def dumps(records):
        # repr-exact floats, signs of zero included; one string per record keeps a failure's diff short
        return [json.dumps(rec) for rec in records]

    @pytest.mark.parametrize("kind", BATCH_NOISE)
    def test_every_partition_writes_the_records_of_one_replicate_calls(self, kind):
        cfg = small_config(noise=BATCH_NOISE[kind], replicates=7, theta_pd=True)
        expected = self.dumps(self.one_at_a_time(cfg, 2, range(7)))
        for sizes in ([1] * 7, [3, 1, 2, 1], [7]):
            starts = np.cumsum([0, *sizes])
            batches = [range(a, b) for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())]
            records = [rec for batch in batches for rec in harness.run_replicate(cfg, point=2, replicates=batch)]
            assert self.dumps(records) == expected, sizes

    def test_a_grid_stage_past_the_temporary_elision_threshold(self):
        # numpy reuses a temporary operand of 256 KiB or more, which can swap a complex multiply's operands
        # and move last bits: the batch's complex (R, 2d - 1) arrays cross it, one replicate's do not.
        d, reps = 100, 96
        assert reps * (2 * d - 1) * 16 >= 256 * 1024 > (2 * d - 1) * 16
        noise = NoiseConfig(shots=20_000, depol_rate=1e-3, confusion=ConfusionMatrix.uniform(0.97), seed=7)
        cfg = small_config(noise=noise, depth=d, replicates=reps, peak_fit=PeakFitConfig(enabled=False))
        batch = harness.run_replicate(cfg, point=1, replicates=range(reps))
        assert self.dumps(batch) == self.dumps(self.one_at_a_time(cfg, 1, range(reps)))

    def test_a_failed_replicate_leaves_the_batch_and_moves_no_other(self, monkeypatch):
        cfg = small_config(noise=BATCH_NOISE["drift"], replicates=5, theta_pd=True)
        clean = harness.run_replicate(cfg, point=1, replicates=range(5))
        stages, grid_calls = [], []
        simulate, fourier = harness.simulate_probability_batch, harness.fourier_estimate
        correct = harness.estimate_alpha_corrected

        def spy(*args, replicate, block, **kwargs):
            stages.append((block, list(replicate)))
            return simulate(*args, replicate=replicate, block=block, **kwargs)

        def degenerate_third(spectrum, m_shots):
            grid_calls.append(spectrum)
            if len(grid_calls) == 3:  # replicate 2
                raise DegenerateCoefficientError("injected")
            return fourier(spectrum, m_shots)

        def collapse_fourth(spectrum):
            if len(grid_calls) == 4:  # replicate 3: a warning, not a failure
                raise FidelityCollapseError("injected collapse")
            return correct(spectrum)

        monkeypatch.setattr(harness, "simulate_probability_batch", spy)
        monkeypatch.setattr(harness, "fourier_estimate", degenerate_third)
        monkeypatch.setattr(harness, "estimate_alpha_corrected", collapse_fourth)
        records = harness.run_replicate(cfg, point=1, replicates=range(5))
        assert records[2] == {"replicate": 2, "reason": "DegenerateCoefficientError: injected"}
        assert stages == [(0, [0, 1, 2, 3, 4]), (2, [0, 1, 3, 4]), (4, [0, 1, 3, 4])]
        assert self.dumps(records[i] for i in (0, 1, 4)) == self.dumps(clean[i] for i in (0, 1, 4))
        collapsed, kept = records[3], clean[3]
        assert collapsed["warnings"] == [*kept["warnings"], "injected collapse"] and collapsed["alpha_hat"] is None
        assert "theta_corrected" not in collapsed["diagnostics"]
        for key in ("theta_hat", "varphi_hat", "theta_pd", "theta_pf"):
            assert collapsed[key] == kept[key] is not None


class TestConfig:
    def test_roundtrip(self):
        cfg = small_config(theta_pd=True)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        data = small_config().to_dict()
        data["typo_key"] = 1
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict(data)

    def test_schema_version_checked(self):
        data = small_config().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentConfig.from_dict(data)

    def test_mode_grid_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="calibrate", gate_truth=TRUTH, noise=NoiseConfig(), depth=1)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="sweep-depth", gate_truth=TRUTH, noise=NoiseConfig())
        with pytest.raises(ValueError):
            ExperimentConfig(mode="sweep-shots", gate_truth=TRUTH, noise=NoiseConfig(), depth=4)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="nonsense", gate_truth=TRUTH, noise=NoiseConfig(), depth=4)

    def test_non_dominant_confusion_rejected_in_every_mode(self):
        noise = NoiseConfig(shots=10, seed=3, confusion=ConfusionMatrix.uniform(0.4))
        with pytest.raises(InversionRejectedError):
            small_config(noise=noise)
        with pytest.raises(InversionRejectedError):
            ExperimentConfig(mode="confusion-check", gate_truth=TRUTH, noise=noise)

    @pytest.mark.parametrize(
        "mode, grid",
        [
            ("alpha-scan", (2, 6)),
            ("alpha-scan", (6, 1)),
            ("sweep-depth", (1, 4)),
            ("crlb-scan", (16, 8, 4)),
            ("crlb-scan", (4, 4, 8)),
        ],
    )
    def test_invalid_depth_grid_rejected(self, mode, grid):
        kwargs = dict(mode=mode, gate_truth=TRUTH, noise=NoiseConfig(), depth_grid=grid)
        with pytest.raises(ValueError, match="depth"):
            ExperimentConfig(**kwargs)
        data = ExperimentConfig(**{**kwargs, "depth_grid": (4, 8, 16)}).to_dict()
        data["depth_grid"] = list(grid)
        with pytest.raises(ValueError, match="depth"):
            ExperimentConfig.from_dict(data)

    def test_depth_bound_admits_two_to_the_sixteen(self):
        cfg = ExperimentConfig(mode="crlb-scan", gate_truth=TRUTH, noise=NoiseConfig(), depth=2**16, depth_grid=(2, 2**16))
        assert max(cfg.depth_grid) == cfg.depth == 2**16

    @pytest.mark.parametrize("n_pf", [-1, 0, 1, 2])
    def test_peak_fit_needs_three_points(self, n_pf):
        with pytest.raises(ValueError, match="n_pf"):
            PeakFitConfig(n_pf=n_pf)

    @pytest.mark.parametrize("beta_thr", [0.0, -0.1, float("nan")])
    def test_peak_fit_threshold_must_be_positive(self, beta_thr):
        with pytest.raises(ValueError, match="beta_thr"):
            PeakFitConfig(beta_thr=beta_thr)

    @pytest.mark.parametrize(
        "field, build",
        [
            ("peak_fit", lambda: small_config(peak_fit={"enabled": True, "n_pf": 7})),
            ("noise.drift", lambda: NoiseConfig(drift={"theta_frac": 0.1, "phase_max": 0.3})),
            ("noise.confusion", lambda: NoiseConfig(confusion=np.eye(4))),
            ("gate_truth", lambda: small_config(gate_truth=(1e-3, 0.1, 0.2))),
            ("noise", lambda: small_config(noise=None)),
            ("confusion_check", lambda: small_config(confusion_check=3)),
        ],
    )
    def test_wrong_typed_section_rejected_when_built(self, field, build):
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            build()

    @pytest.mark.parametrize(
        "edit",
        [
            {"noise": {"seed": 1.5}},
            {"noise": {"shots": 10.7}},
            {"noise": {"seed": True}},
            {"noise": {"exact": "no"}},
            {"noise": {"exact": 1}},
            {"replicates": 6.5},
            {"replicates": True},
            {"depth": 8.25},
            {"depth": "8"},
            {"mode": "sweep-depth", "depth_grid": [4, 6.5]},
            {"mode": "sweep-shots", "shots_grid": [100, False]},
            {"peak_fit": {"n_pf": 7.5}},
            {"peak_fit": {"enabled": 1}},
            {"theta_pd": "yes"},
            {"alpha_correction": 0},
            {"confusion_check": {"trials": 2.5}},
            {"confusion_check": {"shots": True}},
            {"mode": ["calibrate"]},
        ],
    )
    def test_non_integral_numbers_and_non_bool_flags_rejected(self, edit):
        data = small_config().to_dict()
        for key, value in edit.items():
            data[key] = {**data[key], **value} if isinstance(value, dict) and data.get(key) else value
        with pytest.raises(ValueError, match="must be"):
            ExperimentConfig.from_dict(data)

    def test_integral_floats_are_read_as_integers(self):
        data = small_config().to_dict()
        data["noise"]["shots"], data["replicates"] = 2e4, 6.0
        assert ExperimentConfig.from_dict(data) == small_config()
        assert type(ExperimentConfig.from_dict(data).noise.shots) is int

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config().to_dict()), encoding="utf-8")
        assert ExperimentConfig.from_json_file(str(path)) == small_config()


class TestRunCalibration:
    def test_exact_mode_is_deterministic_across_replicates(self):
        cfg = small_config(noise=NoiseConfig(shots=10, seed=3, exact=True), replicates=4)
        (rec,) = run_points(cfg)
        thetas = {r["theta_hat"] for r in rec["replicates"]}
        varphis = {r["varphi_hat"] for r in rec["replicates"]}
        assert len(thetas) == 1 and len(varphis) == 1
        assert rec["summary"]["theta_hat"]["var"] == 0.0
        assert rec["summary"]["theta_hat"]["mse"] == pytest.approx(rec["summary"]["theta_hat"]["bias"] ** 2)

    def test_mse_decomposition_identity(self):
        (rec,) = run_points(small_config())
        for name, s in rec["summary"].items():
            assert s["mse"] == pytest.approx(s["var"] + s["bias"] ** 2, rel=1e-12)

    def test_jobs_do_not_change_results(self):
        cfg = small_config(replicates=5)
        a = run_points(cfg, jobs=1)
        b = run_points(cfg, jobs=2)
        c = run_points(cfg, jobs=1)
        assert a == b == c

    def test_failing_replicates_are_isolated(self):
        cfg = small_config(gate_truth=FsimParams(0.0, 0.1, 0.2), noise=NoiseConfig(shots=5, seed=1, exact=True))
        (rec,) = run_points(cfg)
        assert len(rec["failures"]) == cfg.replicates
        assert all("Degenerate" in f["reason"] for f in rec["failures"])
        assert rec["replicates"] == []
        assert rec["summary"] == {}

    @pytest.mark.parametrize(
        "run, jobs, cpus, workers, chunks",
        [
            pytest.param("calibrate", 500, 8, 3, [1, 1, 1], id="calibrate-500-3"),
            pytest.param("sweep", 500, 8, 3, [1, 1, 1] * 2, id="sweep-500-3"),
            pytest.param("calibrate", 2, 8, 2, [2, 1], id="calibrate-2-2"),
            pytest.param("calibrate", 500, 2, 2, [2, 1], id="calibrate-500-2-cpus"),
        ],
    )
    def test_worker_pool_never_exceeds_the_replicates(self, monkeypatch, run, jobs, cpus, workers, chunks):
        # The workers are forked at the run's one map: they are counted
        # before any is started, here by a stand-in that runs tasks in-process,
        # on a stand-in machine with cpus usable CPUs.
        sizes, maps = _stand_in_pool(monkeypatch, cpus)
        if run == "calibrate":
            run_points(small_config(replicates=3, peak_fit=PeakFitConfig(enabled=False)), jobs=jobs)
        else:
            cfg = small_config(mode="sweep-depth", depth=None, depth_grid=(4, 6), replicates=3)
            run_points(cfg, jobs=jobs)
        assert sizes == [workers]
        # one map for the whole run; every point's replicates go out in batches of ceil(replicates / workers)
        assert maps == [chunks]

    @pytest.mark.parametrize(
        "replicates, jobs, entries, chunk",
        [(40, 2, 1 << 15, 20), (40, 3, 1 << 15, 14), (96, 2, 1 << 15, 48), (7, 2, 1 << 15, 4), (40, 2, 75, 5)],
    )
    def test_one_map_takes_a_batch_per_worker_per_point(self, monkeypatch, replicates, jobs, entries, chunk):
        # Batches of ceil(replicates / workers), capped at _BATCH_ENTRIES circuits
        # per stage and input (here 15 per replicate, at d = 8); replicates stubbed out.
        sizes, maps = _stand_in_pool(monkeypatch, cpus=8)
        monkeypatch.setattr(harness, "_BATCH_ENTRIES", entries)
        stub = lambda config, *, point, replicates: [{"replicate": r, "reason": f"stub {point}"} for r in replicates]
        monkeypatch.setattr(harness, "run_replicate", stub)
        cfg = small_config(mode="sweep-depth", depth=None, depth_grid=(8, 8), replicates=replicates)
        records = run_points(cfg, jobs=jobs)
        batches = [len(range(replicates)[i : i + chunk]) for i in range(0, replicates, chunk)]
        assert sizes == [jobs] and maps == [batches * 2]
        for point, rec in enumerate(records):  # each point's results, in replicate order
            expected = [{"replicate": r, "reason": f"stub {point}"} for r in range(replicates)]
            assert rec["failures"] == expected

    @pytest.mark.parametrize("workers, tasks, forked", [(2, 10, 1), (3, 10, 2), (3, 2, 1)])
    def test_worker_k_mod_n_runs_task_k(self, monkeypatch, deadline, workers, tasks, forked):
        # worker 0 is this process, and no worker is forked without a task;
        # the results come back in task order and every worker is reaped
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        with harness.ProcessPoolExecutor(max_workers=workers) as pool:
            out = pool.map(lambda task: (task, os.getpid()), range(tasks))
        assert len(forks) == forked
        assert [task for task, _ in out] == list(range(tasks))
        pids = [pid for _, pid in out]
        n = forked + 1
        assert pids[0] == os.getpid() and len(set(pids)) == n
        assert pids == [pids[k % n] for k in range(tasks)]
        _no_child_left()

    @pytest.mark.parametrize("how", ["exit", "unpicklable"])
    def test_a_worker_that_leaves_no_result_raises(self, monkeypatch, deadline, how):
        # The forked worker runs its first batch, then exits with status 3 or
        # raises an exception that cannot be pickled, in the middle of its share.
        here, real, calls = os.getpid(), harness.run_replicate, []

        def dies_in_a_worker(config, *, point, replicates):
            if os.getpid() != here and calls:
                if how == "exit":
                    os._exit(3)
                raise ValueError(lambda: None)
            calls.append(point)
            return real(config, point=point, replicates=replicates)

        monkeypatch.setattr(harness, "run_replicate", dies_in_a_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = small_config(mode="sweep-depth", depth=None, depth_grid=(4, 6), replicates=4)
        status = 3 if how == "exit" else 1  # 1: the worker's pickling of its exception failed
        with pytest.raises(RuntimeError, match=f"worker 1 exited with status {status} and no result"):
            run_points(cfg, jobs=2)
        _no_child_left()

    def test_a_failing_share_here_reaps_a_worker_blocked_on_a_full_pipe(self, monkeypatch, deadline):
        # The worker's result is larger than a pipe holds, so it blocks writing
        # until its pipe is read or closed; this process's own share raises.
        here = os.getpid()

        def fails_here(config, *, point, replicates):
            if os.getpid() == here:
                time.sleep(0.3)  # the worker is blocked on its full pipe by now
                raise ValueError("injected in this process")
            return [{"replicate": r, "reason": "x" * (1 << 17)} for r in replicates]

        monkeypatch.setattr(harness, "run_replicate", fails_here)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="injected in this process"):
            run_points(small_config(replicates=4), jobs=2)
        assert time.monotonic() - t0 < 10
        _no_child_left()

    def test_pool_name_takes_a_counting_subclass(self, monkeypatch, tmp_path):
        # The benchmark's pool counter subclasses the class bound under this
        # name and rebinds it.  At jobs=2 a mode with run points starts one
        # real pool for the whole run, a mode without none; jobs=1 starts none.
        assert isinstance(vars(harness)["ProcessPoolExecutor"], type)
        starts = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        confusion = NoiseConfig(shots=10, seed=3, confusion=ConfusionMatrix.uniform(0.9))
        for over, pools in (
            ({"replicates": 4}, 1),
            ({"mode": "sweep-depth", "depth": None, "depth_grid": (4, 6), "replicates": 3,
              "peak_fit": PeakFitConfig(enabled=False)}, 1),
            ({"mode": "crlb-scan", "depth": None, "depth_grid": (2, 4, 8)}, 0),
            ({"mode": "confusion-check", "depth": None, "noise": confusion,
              "confusion_check": ConfusionCheckConfig(trials=20, shots=500)}, 0),
        ):
            mode = over.get("mode", "calibrate")
            written = {}
            for jobs in (1, 2):
                starts.clear()
                out = tmp_path / mode / str(jobs)
                run_mode(small_config(output_dir=str(out), **over), jobs=jobs)
                written[jobs] = {path.name: path.read_bytes() for path in out.iterdir()}
                assert starts == [{"max_workers": 2}] * (pools * (jobs - 1)), mode
            assert written[1] == written[2], mode

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_program_errors_propagate(self, monkeypatch, jobs):
        # raised by one replicate's estimator inside a batch, after its simulator stage
        def broken_fit(*args, **kwargs):
            raise ValueError("injected program error")

        monkeypatch.setattr(harness, "peak_fit", broken_fit)
        with pytest.raises(ValueError, match="injected program error"):
            run_points(small_config(replicates=2), jobs=jobs)

    def test_summary_ignores_missing_values(self):
        (rec,) = run_points(small_config(replicates=5))
        reports = copy.deepcopy(rec["replicates"])
        reports[1]["theta_pf"] = None
        reports[3]["theta_pf"] = None
        summary = _summarize(small_config(replicates=5), reports, point=0)
        kept = [r["theta_pf"] for r in reports if r["theta_pf"] is not None]
        assert summary["theta_pf"]["n"] == len(kept)
        assert summary["theta_pf"]["mean"] == pytest.approx(np.mean(kept))

    @pytest.mark.parametrize("n", [1, 2, 48, 129])
    def test_bootstrap_matches_resample_loop(self, n):
        cfg = small_config()
        vals = TRUTH.theta + np.random.default_rng(n).normal(0.0, 1e-4, size=n)
        reports = [{"theta_hat": float(v), "var_theory_theta": 1e-8, "diagnostics": {}} for v in vals]
        entry = _summarize(cfg, reports, point=3)["theta_hat"]
        boot = bootstrap_means_loop((vals - TRUTH.theta) ** 2, stream(BOOTSTRAP, cfg.noise.seed, 3, 0, 0))
        assert entry["ci_low"] == float(np.percentile(boot, 2.5))
        assert entry["ci_high"] == float(np.percentile(boot, 97.5))

    @settings(max_examples=300)
    @given(
        # mostly the bootstrap's 1000 resample means
        n=st.integers(0, 3).flatmap(lambda k: st.just(1000) if k else st.integers(1, 1200)),
        # entries over 24 decades, both zeros and NaN; drawn again into n slots, so they repeat
        entries=st.lists(
            st.sampled_from([0.0, -0.0, math.nan])
            | st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-20, 4)),
            min_size=1,
            max_size=30,
        ),
        fresh=st.sampled_from([0.0, 0.5, 1.0]),  # the share of slots that take a new value
        seed=st.integers(0, 2**32 - 1),
        q=st.sampled_from([0, 2.5, 50, 97.5, 100]),
    )
    def test_percentile_is_numpys_bit_for_bit(self, n, entries, fresh, seed, q):
        rng = np.random.default_rng(seed)
        new = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 4, n)
        a = np.where(rng.random(n) < fresh, new, rng.choice(np.array(entries), size=n))
        # the sign of a zero and a NaN's bits count too
        assert struct.pack("<d", _percentile(a, q)) == struct.pack("<d", np.percentile(a, q))

    def test_readout_correction_end_to_end(self):
        # shots high enough that the modulus noise floor sits well below 10%
        cfg = small_config(
            depth=10,
            replicates=24,
            noise=NoiseConfig(shots=400_000, seed=11, confusion=ConfusionMatrix.uniform(0.95)),
            peak_fit=PeakFitConfig(enabled=False),
        )
        (rec,) = run_points(cfg)
        assert rec["summary"]["theta_hat"]["mean"] == pytest.approx(TRUTH.theta, rel=0.1)

    def test_record_json_shape(self):
        (payload,) = run_points(small_config(replicates=2))
        assert list(payload) == [
            "artifact_version",
            "stream_version",
            "mode",
            "seed",
            "point_index",
            "grid_value",
            "config",
            "summary",
            "failures",
            "replicates",
        ]
        assert payload["stream_version"] == STREAM_VERSION == 2
        assert "wall_clock" not in json.dumps(payload)


class TestSweeps:
    @pytest.mark.parametrize("mode", ["sweep-depth", "sweep-shots"])
    def test_exact_depth_sweep_has_zero_variance(self, mode):
        grids = {"sweep-depth": dict(depth_grid=(4, 6)), "sweep-shots": dict(depth=6, shots_grid=(10, 500))}
        cfg = ExperimentConfig(
            mode=mode,
            gate_truth=TRUTH,
            noise=NoiseConfig(shots=10, seed=5, exact=True),
            replicates=3,
            peak_fit=PeakFitConfig(enabled=False),
            **grids[mode],
        )
        records = run_points(cfg)
        grid = cfg.depth_grid or cfg.shots_grid
        assert [r["grid_value"] for r in records] == list(grid)
        for rec, g in zip(records, grid):
            assert rec["mode"] == mode
            snap = rec["config"]
            assert (snap["mode"], snap["depth_grid"], snap["shots_grid"]) == ("calibrate", None, None)
            assert (snap["depth"], snap["noise"]["shots"]) == ((g, 10) if mode == "sweep-depth" else (6, g))
            s = rec["summary"]["theta_hat"]
            assert s["var"] == 0.0
            assert s["mse"] == pytest.approx(s["bias"] ** 2)
        rows = _sweep_rows(cfg, records)
        assert all(row[0] == ("d" if mode == "sweep-depth" else "shots") for row in rows)

    def test_run_points_refuses_a_mode_without_points(self):
        cfg = ExperimentConfig(mode="crlb-scan", gate_truth=TRUTH, noise=NoiseConfig(), depth_grid=(4, 8))
        with pytest.raises(ValueError, match="no run points"):
            run_points(cfg)

    def test_full_noise_retains_digits_in_most_replicates(self):
        # shot + depolarizing + drift: the corrected swap angle keeps at least
        # one significant digit (rel err <= 0.5) in >= 80% of replicates
        cfg = ExperimentConfig(
            mode="calibrate",
            gate_truth=TRUTH,
            noise=NoiseConfig(shots=100_000, depol_rate=1e-3, drift=DriftModel(), seed=88),
            replicates=48,
            depth=50,
            peak_fit=PeakFitConfig(enabled=False),
        )
        (rec,) = run_points(cfg)
        rels = np.array(
            [abs(r["diagnostics"]["theta_corrected"] - TRUTH.theta) / TRUTH.theta for r in rec["replicates"]]
        )
        assert (rels <= 0.5).mean() >= 0.8

    def test_shots_sweep_recovers_classical_scaling(self):
        # High-SNR window: below ~ 4 d M theta^2 >> 1 the modulus noise floor
        # adds a bias^2 ~ 1/M^2 term and the fitted slope drifts past -1.3.
        cfg = ExperimentConfig(
            mode="sweep-shots",
            gate_truth=TRUTH,
            noise=NoiseConfig(shots=1, seed=29),
            replicates=128,
            depth=50,
            shots_grid=(100_000, 1_000_000, 10_000_000),
            peak_fit=PeakFitConfig(enabled=False),
            alpha_correction=False,
        )
        records = run_points(cfg)
        mses = np.array([rec["summary"]["theta_hat"]["mse"] for rec in records])
        slope = np.polyfit(np.log(cfg.shots_grid), np.log(mses), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)


class TestAlphaScan:
    def test_rows_structure(self):
        cfg = ExperimentConfig(
            mode="alpha-scan",
            gate_truth=FsimParams(1e-3, -29 * np.pi / 32, 5 * np.pi / 32),
            noise=NoiseConfig(shots=20_000, depol_rate=1e-3, seed=2),
            replicates=8,
            depth_grid=(6, 10),
        )
        records = run_points(cfg)
        rows = _alpha_scan_rows(cfg, records)
        assert [r[0] for r in rows] == [6, 10]
        for d, alpha_dem, med, dev, n in rows:
            assert alpha_dem == pytest.approx((1 - 1e-3) ** (2 * d + 5))
            assert n == 8
            assert 0.8 < med < 1.05

    def test_depth_without_alpha_hat_leaves_the_medians_empty(self, tmp_path):
        noise = NoiseConfig(depol_rate=1e-3)
        cfg = ExperimentConfig(mode="alpha-scan", gate_truth=TRUTH, noise=noise, depth_grid=(4, 6))
        replicate = {"alpha_hat": None}
        records = [{"grid_value": 4, "replicates": [replicate, replicate]}, {"grid_value": 6, "replicates": []}]
        rows = _alpha_scan_rows(cfg, records)
        assert [(d, med, dev, n) for d, _, med, dev, n in rows] == [(4, None, None, 0), (6, None, None, 0)]
        harness.write_csv(str(tmp_path / "rows.csv"), MODES["alpha-scan"].header, rows)
        harness.write_json(str(tmp_path / "rows.json"), rows)
        assert (tmp_path / "rows.csv").read_text(encoding="utf-8").splitlines()[1].endswith(",,,0")
        assert json.loads((tmp_path / "rows.json").read_text(encoding="utf-8"))[0][2:] == [None, None, 0]

    @given(st.lists(st.floats(0.0, 1e307, exclude_min=True), min_size=1, max_size=60))
    @example([0.7, 0.1, 0.2])  # odd length
    @example([0.7, 0.1, 0.2, 0.9])  # even length: the middle pair's mean, rounded once
    def test_median_is_numpys_bit_for_bit(self, values):
        # on positive finite values, as alpha_hat and its deviations are
        assert struct.pack("<d", harness._median(values)) == struct.pack("<d", np.median(values))

    def test_points_run_without_peak_fit_and_ladder(self):
        cfg = ExperimentConfig(
            mode="alpha-scan",
            gate_truth=TRUTH,
            noise=NoiseConfig(shots=20_000, depol_rate=1e-3, seed=2),
            replicates=2,
            depth_grid=(6,),
            peak_fit=PeakFitConfig(enabled=True, n_pf=9, beta_thr=0.5),
            theta_pd=True,
        )
        (rec,) = run_points(cfg)
        assert rec["mode"] == "alpha-scan"
        assert (rec["config"]["mode"], rec["config"]["depth"], rec["config"]["depth_grid"]) == ("calibrate", 6, None)
        # the stored snapshot keeps the configured peak-fit section, switched off
        assert rec["config"]["peak_fit"] == {"enabled": False, "n_pf": 9, "beta_thr": 0.5}
        assert rec["config"]["theta_pd"] is False
        assert all(r["theta_pf"] is None and r["theta_pd"] is None for r in rec["replicates"])


class TestConfusionCheck:
    def test_identity_confusion_never_fails(self):
        cfg = ExperimentConfig(
            mode="confusion-check",
            gate_truth=TRUTH,
            noise=NoiseConfig(shots=10, seed=3, confusion=ConfusionMatrix(np.eye(4))),
            confusion_check=ConfusionCheckConfig(trials=50),
        )
        out = run_confusion_check(cfg)
        assert out["failures"] == 0
        assert out["max_error"] == 0.0
        assert out["kappa"] == 1.0

    def test_kappa_reporting(self):
        cfg = ExperimentConfig(
            mode="confusion-check",
            gate_truth=TRUTH,
            noise=NoiseConfig(shots=10, seed=3, confusion=ConfusionMatrix.uniform(0.55)),
            confusion_check=ConfusionCheckConfig(trials=10, shots=500),
        )
        out = run_confusion_check(cfg)
        assert out["kappa"] == pytest.approx(10.0)


class TestFigures:
    def test_crlb_figure_schema(self, tmp_path):
        rows = transition_scan(FsimParams(1e-2, TRUTH.varphi, TRUTH.chi), 1000, (4, 8, 16))
        path = emit_figure_data(rows, "crlb-vs-depth", str(tmp_path))
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "d,crlb_varphi,preasymptotic_varphi"
        assert len(lines) == 4

    def test_mse_figure_schema_and_mismatch(self, tmp_path):
        cfg = ExperimentConfig(
            mode="sweep-depth",
            gate_truth=TRUTH,
            noise=NoiseConfig(shots=500, seed=5, exact=True),
            replicates=2,
            depth_grid=(4, 6),
            peak_fit=PeakFitConfig(enabled=False),
        )
        records = run_points(cfg)
        path = emit_figure_data(records, "mse-vs-depth", str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "d"
        assert "mse_theta_hat" in header and "mse_theta_pf" in header
        with pytest.raises(ValueError):
            emit_figure_data(records, "mse-vs-shots", str(tmp_path))
        with pytest.raises(ValueError):
            emit_figure_data(records, "no-such-figure", str(tmp_path))


# Runs fsimcal.cli.main on each argv of sys.argv[1] (JSON) with every scipy import
# recorded and refused; prints the exit codes, the attempts and the loaded scipy modules.
_WITHOUT_SCIPY = """
import json, sys

class RefuseScipy:
    attempts = []

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            self.attempts.append(name)
            raise ImportError(name)
        return None

sys.meta_path.insert(0, RefuseScipy())
from fsimcal.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(json.dumps({"codes": codes, "attempts": RefuseScipy.attempts, "loaded": loaded}))
"""


# Runs fsimcal.cli.main on each argv in a fresh interpreter; prints the exit
# codes, whether harness bound its pool class at import, and which of the
# modules no run should load were loaded.
_COLD_PATH = """
import json, sys
from fsimcal import harness
from fsimcal.cli import main

bound = isinstance(vars(harness).get("ProcessPoolExecutor"), type)
codes = [main(argv) for argv in json.loads(sys.argv[1])]
unwanted = ("concurrent.futures.process", "multiprocessing", "numpy.ma")
print(json.dumps({"codes": codes, "bound": bound, "loaded": [m for m in unwanted if m in sys.modules]}))
"""


def _run_fresh(script: str, argvs: list) -> dict:
    """Run script with argvs (JSON) in a fresh interpreter on this tree's src; returns its last stdout line, parsed."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestCli:
    def test_jobs_one_never_loads_the_pool_or_numpy_ma(self, tmp_path):
        # Checked in a fresh interpreter: pytest and hypothesis may have loaded these already.
        confusion = ConfusionMatrix.uniform(0.98)
        drift = NoiseConfig(shots=2000, seed=3, depol_rate=1e-3, drift=DriftModel(), confusion=confusion)
        argvs = []
        depol = NoiseConfig(shots=20_000, seed=2, depol_rate=1e-3)
        for command, cfg in (
            ("calibrate", small_config(replicates=3, theta_pd=True)),
            ("sweep", small_config(mode="sweep-depth", depth=None, depth_grid=(4, 6), replicates=3, noise=drift)),
            ("alpha-scan", small_config(mode="alpha-scan", depth=None, depth_grid=(6, 10), replicates=3, noise=depol)),
        ):
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
            argvs.append([command, "--config", str(cfg_path), "--out", str(tmp_path / command), "--jobs", "1"])
        assert _run_fresh(_COLD_PATH, argvs) == {"codes": [0, 0, 0], "bound": True, "loaded": []}
        assert (tmp_path / "calibrate" / "run_record.json").exists()
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        # every depth took the medians of its alpha_hat values
        rows = json.loads((tmp_path / "alpha-scan" / "alpha_scan.json").read_text(encoding="utf-8"))
        assert [row[2] is not None and row[4] for row in rows] == [3, 3]

    def test_jobs_two_forks_without_the_process_pool_machinery(self, tmp_path):
        # The workers are forked by hand: neither concurrent.futures' pool nor multiprocessing is loaded.
        noise = NoiseConfig(shots=2000, seed=3, depol_rate=1e-3, drift=DriftModel())
        cfg_path = tmp_path / "sweep.json"
        cfg = small_config(mode="sweep-depth", depth=None, depth_grid=(4, 6), replicates=4, noise=noise)
        cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--jobs", "2"]
        assert _run_fresh(_COLD_PATH, [argv]) == {"codes": [0], "bound": True, "loaded": []}
        assert cli_main([*argv[:4], str(tmp_path / "one"), "--jobs", "1"]) == 0
        for name in ("sweep_records.json", "sweep.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_calibrate_and_crlb_scan_never_import_scipy(self, tmp_path):
        argvs = []
        for command, cfg in (
            ("calibrate", small_config(replicates=2, depth=4, theta_pd=True)),
            ("crlb-scan", ExperimentConfig(mode="crlb-scan", gate_truth=TRUTH, noise=NoiseConfig(), depth_grid=(2, 4, 8))),
        ):
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
            argvs.append([command, "--config", str(cfg_path), "--out", str(tmp_path / command)])
        assert _run_fresh(_WITHOUT_SCIPY, argvs) == {"codes": [0, 0], "attempts": [], "loaded": []}
        assert (tmp_path / "calibrate" / "run_record.json").exists()
        assert (tmp_path / "crlb-scan" / "crlb_scan.csv").exists()

    def test_calibrate_and_emit_figures(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            mode="sweep-depth",
            gate_truth=TRUTH,
            noise=NoiseConfig(shots=2000, seed=9),
            replicates=3,
            depth_grid=(4, 6),
            peak_fit=PeakFitConfig(enabled=False),
            output_dir=str(tmp_path / "out"),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
        assert os.path.exists(tmp_path / "out" / "sweep.csv")
        assert os.path.exists(tmp_path / "out" / "sweep_records.json")
        assert (
            cli_main(
                [
                    "emit-figures",
                    "--records",
                    str(tmp_path / "out"),
                    "--figure",
                    "mse-vs-depth",
                    "--out",
                    str(tmp_path / "figs"),
                ]
            )
            == 0
        )
        assert os.path.exists(tmp_path / "figs" / "figure_mse-vs-depth.csv")

    def test_nonzero_exit_when_no_replicate_survives(self, tmp_path, monkeypatch, capsys):
        def failing_estimate(spectrum, m_shots):
            raise DegenerateCoefficientError("injected replicate failure")

        monkeypatch.setattr(harness, "fourier_estimate", failing_estimate)
        cfg = small_config(replicates=2, output_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert cli_main(["calibrate", "--config", str(cfg_path)]) != 0
        err = capsys.readouterr().err
        assert "point 0 (grid value 8)" in err
        assert "injected replicate failure" in err
        record = json.loads((tmp_path / "out" / "run_record.json").read_text(encoding="utf-8"))
        assert len(record["failures"]) == 2

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    def test_crlb_scan_at_a_singular_angle_exits_one_in_one_line(self, tmp_path, capsys, theta):
        cfg = ExperimentConfig(
            mode="crlb-scan",
            gate_truth=FsimParams(theta, TRUTH.varphi, TRUTH.chi),
            depth_grid=(2, 4, 8),
            output_dir=str(tmp_path / "out"),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert cli_main(["crlb-scan", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("fsimcal crlb-scan: Fisher matrix is singular")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, grid", [("crlb-scan", (4, 8, 16)), ("alpha-scan", (6, 8))])
    def test_figures_rebuild_from_the_files_run_mode_writes(self, tmp_path, mode, grid):
        cfg = ExperimentConfig(
            mode=mode,
            gate_truth=TRUTH,
            noise=NoiseConfig(shots=20_000, depol_rate=1e-3, seed=2),
            replicates=3,
            depth_grid=grid,
            output_dir=str(tmp_path / "run"),
        )
        paths = run_mode(cfg)
        written = {kind: os.path.basename(path) for kind, path in paths.items() if kind != "figure"}
        assert written == MODES[mode].files
        (figure,) = [fig for fig, spec in FIGURES.items() if spec.mode == mode]
        argv = ["emit-figures", "--records", str(tmp_path / "run"), "--figure", figure, "--out", str(tmp_path / "figs")]
        assert cli_main(argv) == 0
        with open(paths["figure"], "rb") as fh:
            assert (tmp_path / "figs" / f"figure_{figure}.csv").read_bytes() == fh.read()

    # Each row: the config edit, the CLI flags, and how the one-line message begins after the subcommand,
    # naming the field (or flag) the user wrote.  Ids stay by row number.
    REJECTED = [
        ({"depth": 1}, [], "depth must be an integer >= 2"),
        ({"mode": "confusion-check", "noise": {"confusion": ConfusionMatrix.uniform(0.4).entries.tolist()}}, [],
         "noise.confusion must be diagonally dominant"),
        ({}, ["--seed", "-1"], "noise.seed must"),
        ({}, ["--replicates", "0"], "replicates must"),
        ({"noise": {"seed": 1.5, "shots": 10.7}}, [], "noise.shots must"),
        ({"theta_pd": "no"}, [], "theta_pd must"),
        ({}, ["--jobs", "0"], "--jobs must"),
        ({"peak_fit": {"enabled": True, "n_pf": 7, "typo": 1}}, [], "unknown peak_fit keys: ['typo']"),
        ({"peak_fit": 3}, [], "peak_fit must"),
        ({"gate_truth": {"theta": 1e-3, "varphi": 0.1, "chi": 0.2, "typo": 1}}, [], "unknown gate_truth keys"),
        ({"noise": {"drift": {"x": 1}}}, [], "unknown noise.drift keys: ['x']"),
        ({"gate_truth": DROP}, [], "missing config keys: ['gate_truth']"),
        ({"mode": DROP}, [], "missing config keys: ['mode']"),
        ({"mode": "sweep-shots", "shots_grid": [0, 100]}, [], "shots_grid must"),
        ({"mode": "sweep-shots", "depth": 1, "shots_grid": [100]}, [], "depth must"),
        ({"mode": "sweep-shots", "shots_grid": []}, [], "shots_grid must be a non-empty array in sweep-shots mode"),
        ({"mode": "sweep-depth", "depth_grid": 5}, [], "depth_grid must"),
        ({"mode": "sweep-depth", "depth_grid": "46"}, [], "depth_grid must"),
        *(
            ({"mode": "confusion-check", "noise": {"confusion": ConfusionMatrix.uniform(0.95).entries.tolist()},
              "confusion_check": section}, [], f"confusion_check.{next(iter(section))} must")
            for section in (
                {"trials": 0},
                {"shots": 0},
                {"epsilon": 0.0},
                {"epsilon": -0.1},
                {"alpha": 2},
                {"alpha": 0.0},
                {"constant": 0},
                {"epsilon": "0.05"},
            )
        ),
        ({"noise": {"depol_rate": None}}, [], "noise.depol_rate must"),
        ({"noise": {"depol_rate": "0.001"}}, [], "noise.depol_rate must"),
        ({"noise": {"depol_rate": True}}, [], "noise.depol_rate must"),
        ({"gate_truth": {"theta": "x", "varphi": 0.1, "chi": 0.2}}, [], "gate_truth.theta must"),
        ({"gate_truth": {"theta": 1e-3, "varphi": None, "chi": 0.2}}, [], "missing gate_truth keys: ['varphi']"),
        ({"peak_fit": {"beta_thr": "x"}}, [], "peak_fit.beta_thr must"),
        ({"noise": {"drift": {"phase_max": "a"}}}, [], "noise.drift.phase_max must"),
        ({"noise": {"drift": {"theta_frac": False}}}, [], "noise.drift.theta_frac must"),
        ({"output_dir": 5}, [], "output_dir must"),
        ({"depth": 100_000_000}, [], "depth must"),
        ({"depth": 2**16 + 1}, [], "depth must"),
        ({"mode": "sweep-depth", "depth_grid": [8, 2**16 + 1]}, [], "depth_grid must"),
        ({"mode": "crlb-scan", "depth_grid": [2, 4, 100_000_000]}, [], "depth_grid must"),
        ({"output_dir": None}, [], "output_dir must"),
        ({}, ["--out", ""], "output_dir must"),
        ({"mode": "alpha-scan", "depth_grid": [4, 6, 8], "alpha_correction": False}, [],
         "alpha_correction must be true in alpha-scan mode"),
        ({"noise": {"shots": 2**63}}, [], "noise.shots must"),
        ({"gate_truth": {"theta": 10**400, "varphi": 0.1, "chi": 0.2}}, [], "gate_truth.theta must"),
        ({"noise": {"confusion": [[None] * 4] * 4}}, [], "noise.confusion must"),
        # null shots: confusion_sample_size would exceed 2**63
        *(
            ({"mode": "confusion-check", "noise": {"confusion": ConfusionMatrix.uniform(0.9).entries.tolist()},
              "confusion_check": section}, [], "confusion_shots must be below 2**63")
            for section in ({"epsilon": 1e-9, "trials": 2}, {"epsilon": 1e-9, "shots": None})
        ),
        ({"noise": {"drift": {"theta_frac": 0.1, "phase_max": 1e308}}}, [], "noise.drift.phase_max must"),
        ({"noise": {"drift": {"theta_frac": -0.1, "phase_max": 0.3}}}, [], "noise.drift.theta_frac must"),
        ({"mode": "crlb-scan", "depth_grid": [8]}, [], "depth_grid must be two or more increasing depths"),
        ({"gate_truth": {"theta": 1e308, "varphi": 0.1, "chi": 0.2}}, [], "gate_truth.theta must"),
        # A run point's rule is reported as the field and mode the config gives, not as its calibrate config's.
        ({"mode": "sweep-shots", "depth": DROP, "shots_grid": [100]}, [], "depth must be given in sweep-shots mode"),
        ({"mode": "sweep-depth", "depth_grid": [1, 5]}, [], "depth_grid must be an array of integers >= 2"),
    ]

    @pytest.mark.parametrize("edit, flags, begins", REJECTED, ids=[f"edit{i}-flags{i}" for i in range(len(REJECTED))])
    def test_config_rejected_at_build_time_exits_with_one_line(self, tmp_path, capsys, edit, flags, begins):
        data = small_config(output_dir=str(tmp_path / "out")).to_dict()
        data.update(edit)
        data = {key: value for key, value in data.items() if value is not DROP}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data), encoding="utf-8")
        command = MODES[data.get("mode", "calibrate")].subcommand
        assert cli_main([command, "--config", str(cfg_path), *flags]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"fsimcal {command}: {begins}"), err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, m_cmt",
        [*(({"trials": 200, "shots": m}, m) for m in (1, 2, 3)), ({"trials": 200, "epsilon": 1e300}, 73)],
    )
    def test_confusion_check_runs_at_any_valid_shot_count(self, tmp_path, section, m_cmt):
        # A few shots per row can estimate a singular matrix: a failed trial, not a traceback.
        # A huge epsilon with null shots is sized at about C kappa^2 ln(32/alpha), not rejected as inf.
        data = small_config(output_dir=str(tmp_path / "out")).to_dict()
        data.update(mode="confusion-check", confusion_check=section)
        data["noise"].update(confusion=ConfusionMatrix.uniform(0.9).entries.tolist(), seed=3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["confusion-check", "--config", str(cfg_path)]) == 0
        text = (tmp_path / "out" / "confusion_check.json").read_text(encoding="utf-8")
        report = json.loads(text, parse_constant=lambda token: pytest.fail(f"non-finite JSON number {token}"))
        assert report["m_cmt"] == m_cmt

    def test_mode_subcommand_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(output_dir=str(tmp_path / "out")).to_dict()), encoding="utf-8")
        assert cli_main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["fsimcal sweep: config mode 'calibrate' does not match subcommand 'sweep'"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("records", ["missing", "wrong-mode"])
    def test_emit_figures_fails_in_one_line(self, tmp_path, capsys, records):
        if records == "wrong-mode":
            cfg = ExperimentConfig(
                mode="sweep-shots",
                gate_truth=TRUTH,
                noise=NoiseConfig(shots=500, seed=5, exact=True),
                replicates=2,
                depth=4,
                shots_grid=(100, 200),
                peak_fit=PeakFitConfig(enabled=False),
                output_dir=str(tmp_path / records),
            )
            run_mode(cfg)
        argv = ["emit-figures", "--records", str(tmp_path / records), "--figure", "mse-vs-depth"]
        assert cli_main([*argv, "--out", str(tmp_path / "figs")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("fsimcal emit-figures: ")
        assert not (tmp_path / "figs").exists()

    def test_overrides(self, tmp_path):
        cfg = small_config(replicates=2, output_dir=str(tmp_path / "a"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        out = tmp_path / "b"
        assert (
            cli_main(
                ["calibrate", "--config", str(cfg_path), "--seed", "42", "--out", str(out), "--exact", "--jobs", "1"]
            )
            == 0
        )
        record = json.loads((out / "run_record.json").read_text(encoding="utf-8"))
        assert record["seed"] == 42
        assert record["config"]["noise"]["exact"] is True


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("write", ["csv", "json"])
def test_non_finite_numbers_never_reach_an_output(tmp_path, write, value):
    path = tmp_path / f"out.{write}"
    with pytest.raises(ValueError):
        if write == "csv":
            harness.write_csv(str(path), ["a", "b"], [[1.0, value]])
        else:
            harness.write_json(str(path), {"a": [1.0, value]})
    assert not path.exists()


def test_run_mode_confusion(tmp_path):
    cfg = ExperimentConfig(
        mode="confusion-check",
        gate_truth=TRUTH,
        noise=NoiseConfig(shots=10, seed=3, confusion=ConfusionMatrix.uniform(0.95)),
        confusion_check=ConfusionCheckConfig(trials=20, shots=2000),
        output_dir=str(tmp_path),
    )
    paths = run_mode(cfg)
    with open(paths["report"], encoding="utf-8") as fh:
        report = json.loads(fh.read())
    assert report["trials"] == 20
