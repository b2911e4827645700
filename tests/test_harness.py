"""Experiment runner: configs, records, determinism, sweeps, CLI surface."""

import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

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
from fsimcal.estimators import DegenerateCoefficientError
from fsimcal.fisher import transition_scan
from fsimcal.harness import (
    FIGURES,
    MODES,
    ConfusionCheckConfig,
    _alpha_scan_rows,
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
    """Swap the harness's process pool for one that runs tasks in-process, on a machine with cpus usable CPUs.

    Returns the lists that collect each pool's size and each map's chunksize.
    """
    sizes, chunks = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            chunks.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return sizes, chunks


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
        "run, jobs, cpus, workers",
        [
            pytest.param("calibrate", 500, 8, 3, id="calibrate-500-3"),
            pytest.param("sweep", 500, 8, 3, id="sweep-500-3"),
            pytest.param("calibrate", 2, 8, 2, id="calibrate-2-2"),
            pytest.param("calibrate", 500, 2, 2, id="calibrate-500-2-cpus"),
        ],
    )
    def test_worker_pool_never_exceeds_the_replicates(self, monkeypatch, run, jobs, cpus, workers):
        # The pool forks all of its workers at the first task: it is sized
        # before any is started, here by a stand-in that runs tasks in-process,
        # on a stand-in machine with cpus usable CPUs.
        sizes, chunks = _stand_in_pool(monkeypatch, cpus)
        if run == "calibrate":
            run_points(small_config(replicates=3, peak_fit=PeakFitConfig(enabled=False)), jobs=jobs)
        else:
            cfg = small_config(mode="sweep-depth", depth=None, depth_grid=(4, 6), replicates=3)
            run_points(cfg, jobs=jobs)
        assert sizes == [workers]
        # every point's replicates go out in chunks of ceil(replicates / (4 workers))
        assert chunks == [math.ceil(3 / (4 * workers))] * (1 if run == "calibrate" else 2)

    @pytest.mark.parametrize("replicates, jobs, chunk", [(40, 2, 5), (40, 3, 4), (96, 2, 12), (7, 2, 1)])
    def test_pool_takes_replicates_in_pool_map_chunks(self, monkeypatch, replicates, jobs, chunk):
        # multiprocessing.Pool.map's rule, ceil(replicates / (4 workers)); replicates stubbed out as failures
        sizes, chunks = _stand_in_pool(monkeypatch, cpus=8)
        monkeypatch.setattr(harness, "_replicate_task", lambda task: {"replicate": task[2], "reason": "stub"})
        (rec,) = run_points(small_config(replicates=replicates), jobs=jobs)
        assert sizes == [jobs] and chunks == [chunk]
        assert [f["replicate"] for f in rec["failures"]] == list(range(replicates))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_program_errors_propagate(self, monkeypatch, jobs):
        def broken_replicate(config, *, point=0, replicate=0):
            raise ValueError("injected program error")

        monkeypatch.setattr(harness, "run_replicate", broken_replicate)
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


class TestCli:
    def test_calibrate_and_crlb_scan_never_import_scipy(self, tmp_path):
        argvs = []
        for command, cfg in (
            ("calibrate", small_config(replicates=2, depth=4, theta_pd=True)),
            ("crlb-scan", ExperimentConfig(mode="crlb-scan", gate_truth=TRUTH, noise=NoiseConfig(), depth_grid=(2, 4, 8))),
        ):
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
            argvs.append([command, "--config", str(cfg_path), "--out", str(tmp_path / command)])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {"codes": [0, 0], "attempts": [], "loaded": []}
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
        def failing_replicate(config, *, point=0, replicate=0):
            raise DegenerateCoefficientError("injected replicate failure")

        monkeypatch.setattr(harness, "run_replicate", failing_replicate)
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

    @pytest.mark.parametrize(
        "edit, flags",
        [
            ({"depth": 1}, []),
            ({"mode": "confusion-check", "noise": {"confusion": ConfusionMatrix.uniform(0.4).entries.tolist()}}, []),
            ({}, ["--seed", "-1"]),
            ({}, ["--replicates", "0"]),
            ({"noise": {"seed": 1.5, "shots": 10.7}}, []),
            ({"theta_pd": "no"}, []),
            ({}, ["--jobs", "0"]),
            ({"peak_fit": {"enabled": True, "n_pf": 7, "typo": 1}}, []),
            ({"peak_fit": 3}, []),
            ({"gate_truth": {"theta": 1e-3, "varphi": 0.1, "chi": 0.2, "typo": 1}}, []),
            ({"noise": {"drift": {"x": 1}}}, []),
            ({"gate_truth": DROP}, []),
            ({"mode": DROP}, []),
            ({"mode": "sweep-shots", "shots_grid": [0, 100]}, []),
            ({"mode": "sweep-shots", "depth": 1, "shots_grid": [100]}, []),
            ({"mode": "sweep-shots", "shots_grid": []}, []),
            ({"mode": "sweep-depth", "depth_grid": 5}, []),
            ({"mode": "sweep-depth", "depth_grid": "46"}, []),
            *(
                ({"mode": "confusion-check", "noise": {"confusion": ConfusionMatrix.uniform(0.95).entries.tolist()},
                  "confusion_check": section}, [])
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
            ({"noise": {"depol_rate": None}}, []),
            ({"noise": {"depol_rate": "0.001"}}, []),
            ({"noise": {"depol_rate": True}}, []),
            ({"gate_truth": {"theta": "x", "varphi": 0.1, "chi": 0.2}}, []),
            ({"gate_truth": {"theta": 1e-3, "varphi": None, "chi": 0.2}}, []),
            ({"peak_fit": {"beta_thr": "x"}}, []),
            ({"noise": {"drift": {"phase_max": "a"}}}, []),
            ({"noise": {"drift": {"theta_frac": False}}}, []),
            ({"output_dir": 5}, []),
            ({"depth": 100_000_000}, []),
            ({"depth": 2**16 + 1}, []),
            ({"mode": "sweep-depth", "depth_grid": [8, 2**16 + 1]}, []),
            ({"mode": "crlb-scan", "depth_grid": [2, 4, 100_000_000]}, []),
            ({"output_dir": None}, []),
            ({}, ["--out", ""]),
            ({"mode": "alpha-scan", "depth_grid": [4, 6, 8], "alpha_correction": False}, []),
            ({"noise": {"shots": 2**63}}, []),
            ({"gate_truth": {"theta": 10**400, "varphi": 0.1, "chi": 0.2}}, []),
            ({"noise": {"confusion": [[None] * 4] * 4}}, []),
            # null shots: confusion_sample_size would exceed 2**63
            *(
                ({"mode": "confusion-check", "noise": {"confusion": ConfusionMatrix.uniform(0.9).entries.tolist()},
                  "confusion_check": section}, [])
                for section in ({"epsilon": 1e-9, "trials": 2}, {"epsilon": 1e-9, "shots": None})
            ),
            ({"noise": {"drift": {"theta_frac": 0.1, "phase_max": 1e308}}}, []),
            ({"noise": {"drift": {"theta_frac": -0.1, "phase_max": 0.3}}}, []),
            ({"mode": "crlb-scan", "depth_grid": [8]}, []),
            ({"gate_truth": {"theta": 1e308, "varphi": 0.1, "chi": 0.2}}, []),
        ],
    )
    def test_config_rejected_at_build_time_exits_with_one_line(self, tmp_path, capsys, edit, flags):
        data = small_config(output_dir=str(tmp_path / "out")).to_dict()
        data.update(edit)
        data = {key: value for key, value in data.items() if value is not DROP}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data), encoding="utf-8")
        command = MODES[data.get("mode", "calibrate")].subcommand
        assert cli_main([command, "--config", str(cfg_path), *flags]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"fsimcal {command}: ")
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
