"""Batch experiment runner: configs, seeded replication, records, CSV output.

Every sampled mode is a list of run points, each a calibrate config at one
grid value.  A point runs to one record, the dict its JSON is written from,
reproducible byte-for-byte across process counts: every random draw is keyed
by (kind, seed, point, replicate, block), replicates fan out to a process
pool, and aggregation walks the results in replicate order.  Records keep a
stable key order; tables are UTF-8 CSV with LF line endings and repr-exact
floats.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fisher
from .estimators import (
    DegenerateCoefficientError,
    EstimateReport,
    FidelityCollapseError,
    estimate_alpha_corrected,
    fourier_estimate,
    peak_fit,
    theta_pd_estimate,
)
from .noise import (
    BOOTSTRAP,
    CONFUSION,
    INPUT_STATES,
    STREAM_VERSION,
    InversionRejectedError,
    NoiseConfig,
    checked_bool,
    checked_float,
    checked_int,
    checked_type,
    config_section,
    confusion_sample_size,
    dem_fidelity,
    gate_count,
    simulate_probability_batch,
    stream,
)
from .signal_model import omega_grid, spectrum_from_h
from .su2 import FsimParams

__all__ = [
    "ARTIFACT_VERSION",
    "MODES",
    "FIGURES",
    "PeakFitConfig",
    "ConfusionCheckConfig",
    "ExperimentConfig",
    "run_replicate",
    "run_points",
    "emit_figure_data",
    "run_mode",
]

ARTIFACT_VERSION = "0.1.0"
SCHEMA_VERSION = 1
_MAX_DEPTH = 2**16  # the deepest circuit a config may ask for; a guard against typos, not a memory guarantee


class _Mode(NamedTuple):
    subcommand: str  # the CLI subcommand that runs the mode
    run: Callable  # (config, jobs) -> {kind: payload}, one payload per file
    files: dict  # output kind -> file name, in the order run_mode writes them
    header: tuple | None = None  # columns of the "table" CSV
    figure: str | None = None  # the figure run_mode writes next to the files
    points: Callable | None = None  # config -> [(grid value, calibrate config)], the run points in grid order


class _Figure(NamedTuple):
    mode: str  # the mode whose output the figure is built from
    kind: str  # the kind of that mode's output file
    header: tuple  # columns of the figure CSV
    row: Callable  # one item of that file -> one CSV row


class _Estimator(NamedTuple):
    value: Callable  # replicate record -> the estimate, or None where the replicate has none
    var_theory: Callable | None = None  # replicate record -> its theoretical variance, or None
    period: float | None = None  # the estimate is compared with the truth mod period


_CRLB_COLUMNS = ("d", "crlb_theta", "crlb_varphi", "crlb_chi", "slope_theta", "slope_varphi", "slope_chi")
_ALPHA_COLUMNS = ("d", "alpha_dem", "median_alpha_hat", "median_abs_deviation", "n")
# The summarized estimators, in bootstrap-slot order.
_SUMMARY_ESTIMATORS = {
    "theta_hat": _Estimator(lambda r: r.get("theta_hat"), lambda r: r["var_theory_theta"]),
    "varphi_hat": _Estimator(lambda r: r.get("varphi_hat"), lambda r: r["var_theory_varphi"], math.pi),
    "alpha_hat": _Estimator(lambda r: r.get("alpha_hat")),
    "theta_corrected": _Estimator(lambda r: r["diagnostics"].get("theta_corrected")),
    "theta_pd": _Estimator(lambda r: r.get("theta_pd"), lambda r: r["diagnostics"].get("theta_pd_var_theory")),
    "theta_pf": _Estimator(lambda r: r.get("theta_pf")),
}


@dataclass(frozen=True)
class PeakFitConfig:
    enabled: bool = True
    n_pf: int = 15
    beta_thr: float | None = None  # None -> pi/(2d)

    def __post_init__(self):
        checked_bool("peak_fit.enabled", self.enabled)
        object.__setattr__(self, "n_pf", checked_int("peak_fit.n_pf", self.n_pf))
        if self.n_pf < 3:
            raise ValueError("peak fit needs n_pf >= 3 points for a parabola")
        if self.beta_thr is not None:
            object.__setattr__(self, "beta_thr", checked_float("peak_fit.beta_thr", self.beta_thr))
            if not self.beta_thr > 0.0:
                raise ValueError("peak fit beta_thr must be positive")


@dataclass(frozen=True)
class ConfusionCheckConfig:
    epsilon: float = 0.05
    alpha: float = 0.1
    trials: int = 2000
    constant: float = 8.0
    shots: int | None = None  # None -> confusion_sample_size

    def __post_init__(self):
        for name in ("epsilon", "alpha", "constant"):
            object.__setattr__(self, name, checked_float(f"confusion_check.{name}", getattr(self, name)))
        object.__setattr__(self, "trials", checked_int("confusion_check.trials", self.trials))
        if self.shots is not None:
            object.__setattr__(self, "shots", checked_int("confusion_check.shots", self.shots))
        if self.trials < 1 or self.shots is not None and self.shots < 1:
            raise ValueError("confusion_check trials and shots must be >= 1")
        if not (self.epsilon > 0.0 and 0.0 < self.alpha < 1.0 and self.constant > 0.0):
            raise ValueError("confusion_check needs epsilon > 0, alpha in (0, 1) and constant > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: mode, true gate angles, grids, noise, and options."""

    mode: str
    gate_truth: FsimParams
    noise: NoiseConfig
    replicates: int = 96
    depth: int | None = None
    depth_grid: tuple | None = None
    shots_grid: tuple | None = None
    peak_fit: PeakFitConfig = PeakFitConfig()
    theta_pd: bool = False
    alpha_correction: bool = True
    confusion_check: ConfusionCheckConfig | None = None
    output_dir: str = "out"

    def __post_init__(self):
        # Every later check reads the sections, so their types come first.
        checked_type("gate_truth", self.gate_truth, FsimParams)
        checked_type("noise", self.noise, NoiseConfig)
        checked_type("peak_fit", self.peak_fit, PeakFitConfig)
        checked_type("confusion_check", self.confusion_check, ConfusionCheckConfig, optional=True)
        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}")
        # Integers and flags are checked, not coerced: 1.5 or true is rejected.
        object.__setattr__(self, "replicates", checked_int("replicates", self.replicates))
        if self.depth is not None:
            object.__setattr__(self, "depth", checked_int("depth", self.depth))
        for grid in ("depth_grid", "shots_grid"):
            values = getattr(self, grid)
            if values is not None:
                if not isinstance(values, (list, tuple)):
                    raise ValueError(f"{grid} must be an array, got {values!r}")
                object.__setattr__(self, grid, tuple(checked_int(grid, g) for g in values))
        deepest = max([self.depth or 0, *(self.depth_grid or ())])
        if deepest > _MAX_DEPTH:
            raise ValueError(f"depth and depth_grid entries must be <= {_MAX_DEPTH}, got {deepest}")
        checked_bool("theta_pd", self.theta_pd)
        checked_bool("alpha_correction", self.alpha_correction)
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValueError(f"output_dir must be a non-empty string, got {self.output_dir!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        # A sampled mode is valid when each of its run points is: building a
        # point builds its calibrate config, which checks itself.
        if self.mode == "calibrate" and (self.depth is None or self.depth < 2):
            raise ValueError(f"every run point needs depth >= 2, got depth {self.depth}")
        points = MODES[self.mode].points
        if points is not None and not points(self):
            raise ValueError(f"{self.mode} needs a non-empty grid")
        # The fidelity correction needs d >= 3; the CRLB closed forms d >= 2
        # and the slopes the depths in order.
        if self.mode == "alpha-scan" and min(self.depth_grid) < 3:
            raise ValueError("alpha-scan needs a depth_grid with every depth >= 3")
        if self.mode == "crlb-scan" and (
            not self.depth_grid or min(self.depth_grid) < 2 or list(self.depth_grid) != sorted(self.depth_grid)
        ):
            raise ValueError("crlb-scan needs an ascending depth_grid with every depth >= 2")
        if self.mode == "confusion-check" and self.noise.confusion is None:
            raise ValueError("confusion-check needs noise.confusion")
        # Readout correction and the confusion check both invert the matrix.
        confusion = self.noise.confusion
        if confusion is not None and confusion.dominance <= 0.0:
            raise InversionRejectedError(confusion.kappa)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "gate_truth": dataclasses.asdict(self.gate_truth),
            "depth": self.depth,
            "depth_grid": None if self.depth_grid is None else list(self.depth_grid),
            "shots_grid": None if self.shots_grid is None else list(self.shots_grid),
            "replicates": self.replicates,
            "noise": self.noise.to_dict(),
            "peak_fit": dataclasses.asdict(self.peak_fit),
            "theta_pd": self.theta_pd,
            "alpha_correction": self.alpha_correction,
            "confusion_check": None if self.confusion_check is None else dataclasses.asdict(self.confusion_check),
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        kwargs = config_section(cls, "config", data, schema_version=SCHEMA_VERSION, noise=None)
        version = kwargs.pop("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version}")
        kwargs["gate_truth"] = FsimParams(**config_section(FsimParams, "gate_truth", kwargs["gate_truth"]))
        kwargs["noise"] = NoiseConfig.from_dict(kwargs["noise"] or {})
        kwargs["peak_fit"] = PeakFitConfig(**config_section(PeakFitConfig, "peak_fit", kwargs.get("peak_fit") or {}))
        if kwargs.get("confusion_check") is not None:
            section = config_section(ConfusionCheckConfig, "confusion_check", kwargs["confusion_check"])
            kwargs["confusion_check"] = ConfusionCheckConfig(**section)
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class EmptyPointError(RuntimeError):
    """A run point ended with no surviving replicate."""


def run_replicate(config: ExperimentConfig, *, point: int = 0, replicate: int = 0) -> EstimateReport:
    """Full single-replicate pipeline at config.depth.

    Simulates the 2(2d-1) grid circuits, reconstructs h, applies the Fourier
    estimators, then (as configured) the fidelity correction, the
    progressive-difference ladder (depths d, d+2, ..., 3d, one batch per
    input state) and the peak fit, both using varphi_hat as the a-priori
    phase.
    """
    d = config.depth
    params, noise = config.gate_truth, config.noise

    def simulate(depth, omegas, stage):
        # One block per (stage, input state): grid 0/1, ladder 2/3, peak fit 4/5.
        return [
            simulate_probability_batch(
                depth, omegas, params, noise, state, point=point, replicate=replicate, block=2 * stage + k
            )
            for k, state in enumerate(INPUT_STATES)
        ]

    grid = omega_grid(d)
    px, py = simulate(d, grid, 0)
    spectrum = spectrum_from_h(px - 0.5 + 1j * (py - 0.5), d)
    report = fourier_estimate(spectrum, noise.shots)
    if config.alpha_correction and d >= 3:
        try:
            alpha_hat, theta_corr = estimate_alpha_corrected(spectrum)
            report.alpha_hat = alpha_hat
            report.diagnostics["theta_corrected"] = theta_corr
        except FidelityCollapseError as exc:
            report.warnings.append(str(exc))
    phi_pri = report.varphi_hat
    if config.theta_pd:
        depths = np.arange(d, 3 * d + 1, 2)
        pxl, pyl = simulate(depths, np.full(len(depths), phi_pri), 1)
        amps = [math.hypot(x - 0.5, y - 0.5) for x, y in zip(pxl.tolist(), pyl.tolist())]
        theta_pd, var_pd, budget = theta_pd_estimate(amps, d, noise.shots, var_phi_pri=report.var_theory_varphi)
        report.theta_pd = theta_pd
        report.diagnostics["theta_pd_var_theory"] = var_pd
        report.diagnostics["theta_pd_bias_budget"] = budget
    if config.peak_fit.enabled:
        n_pf = config.peak_fit.n_pf
        local = phi_pri + (np.pi / d) * (np.arange(n_pf) / (n_pf - 1) - 0.5)
        pxp, pyp = simulate(d, local, 2)
        result = peak_fit(local, np.hypot(pxp - 0.5, pyp - 0.5), d, phi_pri, config.peak_fit.beta_thr)
        report.theta_pf = result.theta_pf
        report.diagnostics["peak_fit"] = {key: getattr(result, key) for key in ("beta0", "beta1", "beta2", "accepted")}
    return report


def _replicate_task(args):
    # Only the expected domain failures of one replicate are recorded; anything else is a bug and stops the run.
    config, point, replicate = args
    try:
        report = run_replicate(config, point=point, replicate=replicate)
    except (DegenerateCoefficientError, FidelityCollapseError) as exc:
        return replicate, None, f"{type(exc).__name__}: {exc}"
    # The record is the report's fields, shallow: asdict would deep-copy the diagnostics.
    return replicate, {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}, None


def _truth_for(name: str, config: ExperimentConfig) -> float:
    if name == "varphi_hat":
        return config.gate_truth.varphi
    if name == "alpha_hat":
        # X-circuit gate count; the Y circuit differs by one gate, O(r).
        return dem_fidelity(config.noise.depol_rate, gate_count(config.depth, "plus"))
    return config.gate_truth.theta


def _summarize(config: ExperimentConfig, reports: list[dict], point: int) -> dict:
    summary = {}
    for slot, (name, est) in enumerate(_SUMMARY_ESTIMATORS.items()):
        vals = np.array([v for v in map(est.value, reports) if v is not None], dtype=float)
        if not vals.size:
            continue
        truth = _truth_for(name, config)
        res = vals - truth if est.period is None else np.array([math.remainder(v - truth, est.period) for v in vals])
        sq = res**2
        bias = float(res.mean())
        rng = stream(BOOTSTRAP, config.noise.seed, point, 0, slot)
        # Same draws, in the same order, as 1000 successive size-n calls.
        boot = sq[rng.integers(0, len(sq), size=(1000, len(sq)))].mean(axis=1)
        entry = {
            "n": len(vals),
            "truth": truth,
            "mean": float(vals.mean()),
            "bias": bias,
            "var": float(((res - bias) ** 2).mean()),
            "mse": float(sq.mean()),
            "ci_low": float(np.percentile(boot, 2.5)),
            "ci_high": float(np.percentile(boot, 97.5)),
        }
        if est.var_theory is not None:
            entry["var_theory"] = float(np.mean([v for v in map(est.var_theory, reports) if v is not None]))
        summary[name] = entry
    return summary


def _executor(jobs: int):
    """One worker pool for a whole run; jobs <= 1 runs replicates in this process.

    The pool forks all its workers at the first task; callers cap jobs at one point's replicates.
    """
    return ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext()


def _run_point(config: ExperimentConfig, *, mode: str, point: int, grid_value, pool) -> dict:
    """All replicates of one calibrate config, summarized into the record of one run point."""
    tasks = [(config, point, rep) for rep in range(config.replicates)]
    results = sorted((map if pool is None else pool.map)(_replicate_task, tasks), key=lambda r: r[0])
    reports = [r[1] for r in results if r[1] is not None]
    failures = [{"replicate": r[0], "reason": r[2]} for r in results if r[2] is not None]
    # The stored snapshot identifies the experiment; where the record is
    # written is environment, so the same (config, seed) stays byte-identical
    # across output locations.
    snapshot = config.to_dict()
    del snapshot["output_dir"]
    return {
        "artifact_version": ARTIFACT_VERSION,
        "stream_version": STREAM_VERSION,
        "mode": mode,
        "seed": config.noise.seed,
        "point_index": point,
        "grid_value": grid_value,
        "config": snapshot,
        "summary": _summarize(config, reports, point),
        "failures": failures,
        "replicates": reports,
    }


def run_points(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """One record per run point of config's mode, in grid order, from one worker pool."""
    points = MODES[config.mode].points
    if points is None:
        raise ValueError(f"mode {config.mode!r} samples no run points")
    with _executor(min(jobs, config.replicates)) as pool:
        return [
            _run_point(point, mode=config.mode, point=i, grid_value=g, pool=pool)
            for i, (g, point) in enumerate(points(config))
        ]


def _sweep_rows(config: ExperimentConfig, records: list[dict]) -> list[list]:
    """Tidy table: one row per (grid point, estimator)."""
    grid_var = "d" if config.mode == "sweep-depth" else "shots"
    return [
        [grid_var, rec["grid_value"], name, s["mse"], s["var"], s["bias"] ** 2, s["ci_low"], s["ci_high"]]
        for rec in records
        for name, s in rec["summary"].items()
    ]


def _alpha_scan_rows(config: ExperimentConfig, records: list[dict]) -> list[list]:
    """(d, alpha_dem, median_alpha_hat, median_abs_deviation, n) per depth."""
    rows = []
    for rec in records:
        d = int(rec["grid_value"])
        alpha_dem = dem_fidelity(config.noise.depol_rate, gate_count(d, "plus"))
        alphas = np.array([r["alpha_hat"] for r in rec["replicates"] if r["alpha_hat"] is not None])
        rows.append([d, alpha_dem, float(np.median(alphas)), float(np.median(np.abs(alphas - alpha_dem))), len(alphas)])
    return rows


def run_confusion_check(config: ExperimentConfig) -> dict:
    """Coverage of the readout-correction error bound.

    Per trial: estimate the confusion matrix row-wise from M_cmt shots,
    correct a random measured distribution with both the estimated and the
    exact matrix, and count || p - p_fs ||_2 > epsilon events.  The empirical
    failure rate must stay below the configured alpha.
    """
    cc = config.confusion_check or ConfusionCheckConfig()
    confusion = config.noise.confusion
    kappa = confusion.kappa
    m_cmt = cc.shots if cc.shots is not None else confusion_sample_size(kappa, cc.epsilon, cc.alpha, cc.constant)
    r_true = confusion.entries
    failures = 0
    worst = 0.0
    for trial in range(cc.trials):
        rng = stream(CONFUSION, config.noise.seed, 0, trial, 0)
        rows = rng.multinomial(m_cmt, r_true) / m_cmt
        q = rng.dirichlet(np.ones(4))
        p_exact = np.linalg.solve(r_true.T, q)
        p_fs = np.linalg.solve(rows.T, q)
        err = float(np.linalg.norm(p_exact - p_fs))
        worst = max(worst, err)
        if err > cc.epsilon:
            failures += 1
    return {
        "stream_version": STREAM_VERSION,
        "kappa": kappa,
        "epsilon": cc.epsilon,
        "alpha": cc.alpha,
        "constant": cc.constant,
        "m_cmt": m_cmt,
        "trials": cc.trials,
        "failures": failures,
        "failure_rate": failures / cc.trials,
        "max_error": worst,
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """UTF-8 CSV with LF endings; floats via repr for byte-stable output."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


_MSE_ESTIMATORS = ("theta_hat", "varphi_hat", "theta_pf", "theta_pd")


def _mse_header(grid_var: str) -> tuple:
    return (grid_var, *(c for name in _MSE_ESTIMATORS for c in (f"mse_{name}", f"ci_{name}_low", f"ci_{name}_high")))


def _mse_row(rec: dict) -> list:
    row = [rec["grid_value"]]
    for name in _MSE_ESTIMATORS:
        s = rec["summary"].get(name)
        row += [None, None, None] if s is None else [s["mse"], s["ci_low"], s["ci_high"]]
    return row


def _variance_row(rec: dict) -> list:
    st, sv = rec["summary"]["theta_hat"], rec["summary"]["varphi_hat"]
    return [rec["grid_value"], st["var"], st["var_theory"], st["mse"], sv["var"], sv["var_theory"], sv["mse"]]


def _sweep_payloads(config: ExperimentConfig, jobs: int) -> dict:
    records = run_points(config, jobs=jobs)
    return {"records": records, "table": _sweep_rows(config, records)}


def _alpha_scan_payloads(config: ExperimentConfig, jobs: int) -> dict:
    records = run_points(config, jobs=jobs)
    rows = _alpha_scan_rows(config, records)
    return {"records": records, "rows": rows, "table": rows}


def _at_depths(config: ExperimentConfig, **change) -> list:
    """Run points of a depth sweep: (d, the calibrate config at depth d)."""
    grid = config.depth_grid or ()
    return [(d, dataclasses.replace(config, mode="calibrate", depth=d, depth_grid=None, **change)) for d in grid]


def _at_shots(config: ExperimentConfig) -> list:
    """Run points of a shot-count sweep: (m, the calibrate config at m shots)."""
    grid = config.shots_grid or ()
    noise = lambda m: dataclasses.replace(config.noise, shots=m)
    return [(m, dataclasses.replace(config, mode="calibrate", shots_grid=None, noise=noise(m))) for m in grid]


def _crlb_scan_payloads(config: ExperimentConfig, jobs: int) -> dict:
    """Exact CRLB and slope table over the configured depth grid."""
    truth = config.gate_truth
    rows = fisher.transition_scan(
        truth.theta, config.noise.shots, config.depth_grid, varphi=truth.varphi, chi=truth.chi
    )
    return {"rows": rows, "table": [[r[c] for c in _CRLB_COLUMNS] for r in rows]}


# The mode table: every mode, its subcommand, runner, canonical files, CSV
# header, figure and run points.  Runners look the pipeline up as module
# globals when called, so a function rebound on the module is the one every
# mode runs.
_SWEEP = _Mode(
    "sweep",
    _sweep_payloads,
    {"records": "sweep_records.json", "table": "sweep.csv"},
    ("grid_var", "grid_value", "estimator", "mse", "var", "bias2", "ci_low", "ci_high"),
)
MODES = {
    "calibrate": _Mode(
        "calibrate",
        lambda config, jobs: {"record": run_points(config, jobs=jobs)[0]},
        {"record": "run_record.json"},
        points=lambda config: [(config.depth, config)],
    ),
    "sweep-depth": _SWEEP._replace(points=_at_depths),
    "sweep-shots": _SWEEP._replace(points=_at_shots),
    "crlb-scan": _Mode(
        "crlb-scan",
        _crlb_scan_payloads,
        {"rows": "crlb_scan.json", "table": "crlb_scan.csv"},
        _CRLB_COLUMNS,
        "crlb-vs-depth",
    ),
    "alpha-scan": _Mode(
        "alpha-scan",
        _alpha_scan_payloads,
        {"records": "alpha_records.json", "rows": "alpha_scan.json", "table": "alpha_scan.csv"},
        _ALPHA_COLUMNS,
        "fidelity-vs-depth",
        # a depth sweep with the peak fit and the theta_pd ladder off; the
        # snapshots keep the configured n_pf and beta_thr
        lambda config: _at_depths(config, theta_pd=False, peak_fit=dataclasses.replace(config.peak_fit, enabled=False)),
    ),
    "confusion-check": _Mode(
        "confusion-check",
        lambda config, jobs: {"report": run_confusion_check(config)},
        {"report": "confusion_check.json"},
    ),
}
# The figure table: every figure, the mode output it is built from and its CSV.
FIGURES = {
    "mse-vs-depth": _Figure("sweep-depth", "records", _mse_header("d"), _mse_row),
    "mse-vs-shots": _Figure("sweep-shots", "records", _mse_header("shots"), _mse_row),
    "variance-vs-depth": _Figure(
        "sweep-depth",
        "records",
        ("d", "var_theta", "var_theory_theta", "mse_theta", "var_varphi", "var_theory_varphi", "mse_varphi"),
        _variance_row,
    ),
    "crlb-vs-depth": _Figure(
        "crlb-scan",
        "rows",
        ("d", "crlb_varphi", "preasymptotic_varphi"),
        lambda r: [r["d"], r["crlb_varphi"], r["preasymptotic_varphi"]],
    ),
    "fidelity-vs-depth": _Figure("alpha-scan", "rows", _ALPHA_COLUMNS, list),
}


def emit_figure_data(source: list, figure_id: str, out_dir: str) -> str:
    """Write the CSV behind one figure; returns the path.

    source is the parsed JSON of the file FIGURES names for the figure, as
    run_mode writes it; the output of another mode or file raises ValueError.
    """
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {tuple(FIGURES)}")
    fig = FIGURES[figure_id]
    try:
        # Records carry their mode; rows are told apart by their shape.
        wrong_mode = fig.kind == "records" and any(r["mode"] != fig.mode for r in source)
        rows = [] if wrong_mode else [fig.row(item) for item in source]
    except (KeyError, TypeError):
        rows = []
    if not rows or any(len(row) != len(fig.header) for row in rows):
        raise ValueError(f"{figure_id} needs the {fig.kind} of a {fig.mode} run")
    path = os.path.join(out_dir, f"figure_{figure_id}.csv")
    write_csv(path, fig.header, rows)
    return path


def run_mode(config: ExperimentConfig, jobs: int = 1) -> dict:
    """Run config.mode, write its canonical outputs, return the file paths by kind.

    Raises EmptyPointError, after every output is written, when a run point
    ends with no surviving replicate.
    """
    out = config.output_dir
    mode = MODES[config.mode]
    payloads = mode.run(config, jobs)
    paths = {}
    for kind, name in mode.files.items():
        paths[kind] = os.path.join(out, name)
        if kind == "table":
            write_csv(paths[kind], mode.header, payloads[kind])
        else:
            write_json(paths[kind], payloads[kind])
    if mode.figure is not None:
        paths["figure"] = emit_figure_data(payloads[FIGURES[mode.figure].kind], mode.figure, out)
    records = [payloads["record"]] if "record" in payloads else payloads.get("records", [])
    empty = [
        f"point {r['point_index']} (grid value {r['grid_value']}): all {len(r['failures'])} replicates failed, "
        f"first with {r['failures'][0]['reason']}"
        for r in records
        if not r["replicates"]
    ]
    if empty:
        raise EmptyPointError("; ".join(empty) + f"; outputs written to {out}")
    return paths
