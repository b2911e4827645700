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
import operator
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fisher
from .config import Section, setting
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
    STREAM_VERSION,
    ConfusionMatrix,
    InversionRejectedError,
    NoiseConfig,
    confusion_sample_size,
    dem_fidelity,
    gate_count,
    invert_confusion,
    simulate_probability_batch,
    stream,
)
from .signal_model import omega_grid, spectrum_from_h
from .su2 import FsimParams

__all__ = [
    "MODES",
    "FIGURES",
    "PeakFitConfig",
    "ExperimentConfig",
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
    rules: tuple = ()  # (field path, rule, test of its value): what the mode asks of a config beyond its run points


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
class PeakFitConfig(Section, path="peak_fit"):
    enabled: bool = setting(bool, True)
    n_pf: int = setting(int, 15, ge=3)  # a parabola needs three points
    beta_thr: float | None = setting(float, None, optional=True, gt=0.0)  # None -> pi/(2d)


@dataclass(frozen=True)
class ConfusionCheckConfig(Section, path="confusion_check"):
    epsilon: float = setting(float, 0.05, gt=0.0)
    alpha: float = setting(float, 0.1, gt=1e-300, lt=1.0)  # 32/alpha stays finite
    trials: int = setting(int, 2000, ge=1)
    constant: float = setting(float, 8.0, gt=0.0)
    shots: int | None = setting(int, None, optional=True, ge=1, lt=1 << 63)  # None -> confusion_sample_size


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(Section):
    """One experiment: mode, true gate angles, grids, noise and options, in the field order records store."""

    mode: str = setting(str)
    gate_truth: FsimParams = setting(FsimParams)
    depth: int | None = setting(int, None, optional=True, le=_MAX_DEPTH)
    depth_grid: tuple | None = setting(tuple, None, optional=True, le=_MAX_DEPTH)
    shots_grid: tuple | None = setting(tuple, None, optional=True)
    replicates: int = setting(int, 96, ge=1)
    noise: NoiseConfig = setting(NoiseConfig, NoiseConfig())
    peak_fit: PeakFitConfig = setting(PeakFitConfig, PeakFitConfig())
    theta_pd: bool = setting(bool, False)
    alpha_correction: bool = setting(bool, True)
    confusion_check: ConfusionCheckConfig | None = setting(ConfusionCheckConfig, None, optional=True)
    output_dir: str = setting(str, "out")

    def __post_init__(self):
        super().__post_init__()
        mode = MODES.get(self.mode)
        if mode is None:
            raise ValueError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        # Readout correction and the confusion check both invert the matrix.
        confusion = self.noise.confusion
        if confusion is not None and confusion.dominance <= 0.0:
            raise InversionRejectedError(confusion.kappa)
        for name, rule, holds in mode.rules:
            value = operator.attrgetter(name)(self)
            if not holds(value):
                raise ValueError(f"{name} must be {rule} in {self.mode} mode, got {value!r}")
        if mode.points is not None:
            mode.points(self)  # building a run point builds its calibrate config, which checks itself

    @property
    def confusion_shots(self):
        """The confusion check's shots per row: confusion_check.shots, else confusion_sample_size (inf past floats)."""
        cc = self.confusion_check or ConfusionCheckConfig()
        if cc.shots is not None:
            return cc.shots
        try:
            return confusion_sample_size(self.noise.confusion.kappa, cc.epsilon, cc.alpha, cc.constant)
        except OverflowError:
            return math.inf

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **super().to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        # Defined here, not only inherited: the benchmark traces it on this class.
        if isinstance(data, dict):
            data = dict(data)
            version = data.pop("schema_version", SCHEMA_VERSION)
            if version != SCHEMA_VERSION:
                raise ValueError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        return super().from_dict(data)

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
    progressive-difference ladder (depths d, d+2, ..., 3d, one batch) and
    the peak fit, both using varphi_hat as the a-priori phase.  Each stage is
    one simulator call that covers both input states.
    """
    d = config.depth
    params, noise = config.gate_truth, config.noise

    def simulate(depth, omegas, block):
        # One call per stage, both inputs: grid block 0, ladder 2, peak fit 4; input k draws from block + k.
        return simulate_probability_batch(depth, omegas, params, noise, point=point, replicate=replicate, block=block)

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
        pxl, pyl = simulate(depths, np.full(len(depths), phi_pri), 2)
        amps = [math.hypot(x - 0.5, y - 0.5) for x, y in zip(pxl.tolist(), pyl.tolist())]
        theta_pd, var_pd, budget = theta_pd_estimate(amps, d, noise.shots, var_phi_pri=report.var_theory_varphi)
        report.theta_pd = theta_pd
        report.diagnostics["theta_pd_var_theory"] = var_pd
        report.diagnostics["theta_pd_bias_budget"] = budget
    if config.peak_fit.enabled:
        n_pf = config.peak_fit.n_pf
        local = phi_pri + (np.pi / d) * (np.arange(n_pf) / (n_pf - 1) - 0.5)
        pxp, pyp = simulate(d, local, 4)
        result = peak_fit(local, np.hypot(pxp - 0.5, pyp - 0.5), d, phi_pri, config.peak_fit.beta_thr)
        report.theta_pf = result.theta_pf
        report.diagnostics["peak_fit"] = {key: getattr(result, key) for key in ("beta0", "beta1", "beta2", "accepted")}
    return report


def _replicate_task(args):
    # The record, or the failure of a degenerate coefficient (a fidelity collapse is a warning); a bug stops the run.
    config, point, replicate = args
    try:
        report = run_replicate(config, point=point, replicate=replicate)
    except DegenerateCoefficientError as exc:
        return {"replicate": replicate, "reason": f"{type(exc).__name__}: {exc}"}
    # The record is the report's fields, shallow: asdict would deep-copy the diagnostics.
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


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

    The pool forks all its workers at the first task; callers cap jobs at one point's replicates and the usable CPUs.
    """
    return ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext()


def _run_point(config: ExperimentConfig, *, mode: str, point: int, grid_value, pool, workers: int) -> dict:
    """All replicates of one calibrate config, summarized into the record of one run point."""
    tasks = [(config, point, rep) for rep in range(config.replicates)]
    # Both maps yield in task order, that is replicate order; a pool's chunks follow multiprocessing.Pool.map.
    chunked = {} if pool is None else {"chunksize": -(-len(tasks) // (4 * workers))}
    results = list((map if pool is None else pool.map)(_replicate_task, tasks, **chunked))
    reports = [r for r in results if "reason" not in r]
    failures = [r for r in results if "reason" in r]
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
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1  # usable CPUs
    workers = min(jobs, config.replicates, cpus)
    with _executor(workers) as pool:
        return [
            _run_point(point, mode=config.mode, point=i, grid_value=g, pool=pool, workers=workers)
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
    """(d, alpha_dem, median_alpha_hat, median_abs_deviation, n) per depth; no alpha_hat leaves both medians None."""
    median = lambda a: float(np.median(a)) if a.size else None
    rows = []
    for rec in records:
        d = int(rec["grid_value"])
        alpha_dem = dem_fidelity(config.noise.depol_rate, gate_count(d, "plus"))
        alphas = np.array([r["alpha_hat"] for r in rec["replicates"] if r["alpha_hat"] is not None])
        rows.append([d, alpha_dem, median(alphas), median(np.abs(alphas - alpha_dem)), len(alphas)])
    return rows


def run_confusion_check(config: ExperimentConfig) -> dict:
    """Coverage of the readout-correction error bound.

    Per trial: estimate the confusion matrix row-wise from M_cmt shots,
    correct a random measured distribution with both the estimated and the
    exact matrix, and count || p - p_fs ||_2 > epsilon events.  An estimate
    invert_confusion rejects is a failed trial with no error: max_error is
    over the corrected trials.  The failure rate must stay below alpha.
    """
    cc = config.confusion_check or ConfusionCheckConfig()
    confusion = config.noise.confusion
    m_cmt = config.confusion_shots
    failures = 0
    worst = 0.0
    for trial in range(cc.trials):
        rng = stream(CONFUSION, config.noise.seed, 0, trial, 0)
        rows = rng.multinomial(m_cmt, confusion.entries) / m_cmt
        q = rng.dirichlet(np.ones(4))
        try:
            err = float(np.linalg.norm(invert_confusion(q, confusion) - invert_confusion(q, ConfusionMatrix(rows))))
            worst = max(worst, err)
        except InversionRejectedError:  # the estimate is not diagonally dominant, singular included
            err = math.inf
        failures += err > cc.epsilon
    return {
        "stream_version": STREAM_VERSION,
        "kappa": confusion.kappa,
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
    if not math.isfinite(value):
        raise ValueError(f"a CSV cell must be finite or empty, got {value!r}")
    return repr(float(value))


def _write(path: str, text: str) -> None:
    # The text is formed before the file is opened, so a rejected value leaves no partial file.
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """UTF-8 CSV with LF endings, floats via repr for byte-stable output; a non-finite float raises."""
    _write(path, "".join(",".join(map(_fmt, line)) + "\n" for line in [header, *rows]))


def write_json(path: str, payload) -> None:
    """Strict JSON: a NaN or infinity raises."""
    _write(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


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
    rows = fisher.transition_scan(config.gate_truth, config.noise.shots, config.depth_grid)
    return {"rows": rows, "table": [[r[c] for c in _CRLB_COLUMNS] for r in rows]}


# The mode table: every mode, its subcommand, runner, canonical files, CSV
# header, figure, run points and config rules.  Runners look the pipeline up
# as module globals when called, so a function rebound on the module is the
# one every mode runs.  The fidelity correction needs d >= 3 and is what
# alpha-scan reports; the CRLB closed forms need d >= 2 and the slopes two
# or more distinct depths in order.
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
        rules=(("depth", "an integer >= 2", lambda d: d is not None and d >= 2),),
    ),
    "sweep-depth": _SWEEP._replace(points=_at_depths, rules=(("depth_grid", "a non-empty array", bool),)),
    "sweep-shots": _SWEEP._replace(points=_at_shots, rules=(("shots_grid", "a non-empty array", bool),)),
    "crlb-scan": _Mode(
        "crlb-scan",
        _crlb_scan_payloads,
        {"rows": "crlb_scan.json", "table": "crlb_scan.csv"},
        _CRLB_COLUMNS,
        "crlb-vs-depth",
        rules=(
            ("depth_grid", "two or more increasing depths >= 2",
             lambda g: g and len(g) > 1 and g[0] >= 2 and g == tuple(sorted(set(g)))),
        ),
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
        rules=(("depth_grid", "depths >= 3", lambda g: g and min(g) >= 3), ("alpha_correction", "true", bool)),
    ),
    "confusion-check": _Mode(
        "confusion-check",
        lambda config, jobs: {"report": run_confusion_check(config)},
        {"report": "confusion_check.json"},
        rules=(  # the sampler draws at most 2**63 - 1 shots
            ("noise.confusion", "a ConfusionMatrix", lambda c: c is not None),
            ("confusion_shots", "below 2**63 (give confusion_check.shots or a larger epsilon)", lambda m: m < 1 << 63),
        ),
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
