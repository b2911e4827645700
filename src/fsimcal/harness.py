"""Batch experiment runner: configs, seeded replication, records, CSV output.

Every sampled mode is a list of run points, each a calibrate config at one
grid value.  A point runs to one record, the dict its JSON is written from,
reproducible byte-for-byte across process counts and batch sizes: every
random draw is keyed by (kind, seed, point, replicate), a point's replicates
run in batches of one simulator call per stage, all batches of a run go
through one map (--jobs processes, forked once, none at --jobs 1), and
aggregation walks the results in replicate order.  Records keep a stable
key order; tables are UTF-8 CSV with LF line endings and repr-exact floats.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
import pickle
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fisher
from .config import Section, setting
from .estimators import (
    DegenerateCoefficientError,
    estimate_alpha_corrected,
    fourier_estimate,
    peak_fit,
    peak_fit_operator,
    sequential_phase_diffs,
    theta_pd_estimate,
    wpa_solve,
)
from .noise import (
    BOOTSTRAP,
    CIRCUIT,
    CONFUSION,
    STREAM_VERSION,
    ConfusionMatrix,
    InversionRejectedError,
    NoiseConfig,
    confusion_sample_size,
    dem_fidelity,
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

ARTIFACT_VERSION = "0.2.0"
SCHEMA_VERSION = 1
_MAX_DEPTH = 2**16  # the deepest circuit a config may ask for; a guard against typos, not a memory guarantee
_MAX_REPLICATES = 10**6  # the most replicates a config may ask for; a guard against typos, as _MAX_DEPTH is
# Circuits per stage and input state in one batch of replicates: bounds a batch's arrays whatever R and d.
_BATCH_ENTRIES = 1 << 15
# Bootstrap resamples per run point, and (resample, replicate) counts per block of them: 32 KB a block array.
_RESAMPLES, _RESAMPLE_ENTRIES = 1000, 1 << 12


class _Mode(NamedTuple):
    subcommand: str  # the CLI subcommand that runs the mode
    run: Callable  # (config, records) -> {kind: payload}, one payload per file; run_mode runs the points, [] if none
    files: dict  # output kind -> file name, in the order run_mode writes them
    header: tuple | None = None  # columns of the "table" CSV
    figure: str | None = None  # the figure run_mode writes next to the files
    points: Callable | None = None  # config -> [(grid value, calibrate config)], the run points in grid order
    rules: tuple = ()  # (field path, rule, test of its value): what the mode asks beyond the fields' declarations


class _Figure(NamedTuple):
    mode: str  # the mode whose output the figure is built from
    kind: str  # the kind of that mode's output file
    header: tuple  # columns of the figure CSV
    row: Callable  # one item of that file -> one CSV row


class _Estimator(NamedTuple):
    value: Callable  # replicate record -> the estimate, or None where the replicate has none
    var_theory: Callable | None = None  # replicate record -> its theoretical variance, or None
    period: float | None = None  # the estimate is compared with the truth mod period
    truth: Callable = lambda config: config.gate_truth.theta  # point config -> what the estimate is compared with


_CRLB_COLUMNS = ("d", "crlb_theta", "crlb_varphi", "crlb_chi", "slope_theta", "slope_varphi", "slope_chi")
_ALPHA_COLUMNS = ("d", "alpha_dem", "median_alpha_hat", "median_abs_deviation", "n")
# The summarized estimators, in summary order; one bootstrap draw resamples them all.
_SUMMARY_ESTIMATORS = {
    "theta_hat": _Estimator(lambda r: r.get("theta_hat"), lambda r: r["var_theory_theta"]),
    "varphi_hat": _Estimator(
        lambda r: r.get("varphi_hat"), lambda r: r["var_theory_varphi"], math.pi, lambda c: c.gate_truth.varphi
    ),
    "alpha_hat": _Estimator(lambda r: r.get("alpha_hat"), truth=lambda c: dem_fidelity(c.noise.depol_rate, c.depth)),
    "theta_corrected": _Estimator(lambda r: r["diagnostics"].get("theta_corrected")),
    "theta_pd": _Estimator(lambda r: r.get("theta_pd"), lambda r: r["diagnostics"].get("theta_pd_var_theory")),
    "theta_pf": _Estimator(lambda r: r.get("theta_pf")),
}


@dataclass(frozen=True)
class PeakFitConfig(Section, path="peak_fit"):
    enabled: bool = setting(bool, True)
    n_pf: int = setting(int, 15, ge=3, le=2 * _MAX_DEPTH - 1)  # a parabola needs three; no wider than a grid
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
    depth: int | None = setting(int, None, optional=True, ge=2, le=_MAX_DEPTH)  # the estimators need d >= 2
    depth_grid: tuple | None = setting(tuple, None, optional=True, ge=2, le=_MAX_DEPTH)  # so do the CRLB closed forms
    shots_grid: tuple | None = setting(tuple, None, optional=True, ge=1, lt=1 << 63)  # the sampler counts in int64
    replicates: int = setting(int, 96, ge=1, le=_MAX_REPLICATES)
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
        for name, rule, holds in mode.rules:
            value = operator.attrgetter(name)(self)
            if not holds(value):
                raise ValueError(f"{name} must be {rule} in {self.mode} mode, got {value!r}")

    @property
    def confusion_shots(self):
        """The confusion check's shots per row: confusion_check.shots, else confusion_sample_size (inf past floats).

        None when neither is given: without noise.confusion there is no kappa to size the sample from.
        """
        cc = self.confusion_check or ConfusionCheckConfig()
        if cc.shots is not None or self.noise.confusion is None:
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


def run_replicate(config: ExperimentConfig, *, point: int = 0, replicates=range(1)) -> list[dict]:
    """The records of a batch of replicates at config.depth, in replicate order, run stage by stage.

    Each stage is one simulator call over every live replicate of the batch
    and both input states: the 2(2d-1) grid circuits, then as configured the
    progressive-difference ladder (depths d, d+2, ..., 3d) and the peak fit,
    both at each replicate's own varphi_hat.  Replicate r draws only from its
    one generator, keyed (CIRCUIT, seed, point, r), which its stages draw from
    in turn for both inputs, so its record does not depend on the batch it
    runs in; the exact mode builds no generator.  A stage starts where the
    previous enabled stage left the generator, so enabling the ladder moves
    the peak fit's draws.  Each stage's estimators also run once over its
    rows: after the grid one FFT gives every replicate's c_0 .. c_{d-1} (the
    first d DFT coefficients), then their moduli, phase differences, Fourier
    estimates and fidelity correction; after the ladder and the peak fit,
    their moduli |h| in one np.hypot each, then theta_pd.  The peak-fit stage
    forms its least-squares operator once; fourier_estimate's report and
    peak_fit's one matvec with that operator run per replicate.  A replicate's
    record is its report's _asdict(), which the later stages fill in.  A
    degenerate coefficient gives the replicate a failure record and drops it
    from the later stages; a fidelity collapse is a warning; any other
    exception propagates.
    """
    d, params, noise = config.depth, config.gate_truth, config.noise
    records, failures = dict.fromkeys(replicates), {}
    rngs = {r: None if noise.exact else stream(CIRCUIT, noise.seed, point, r) for r in replicates}

    def stage(depth, omegas):
        # p[:, 0] is p_X - 1/2 and p[:, 1] p_Y - 1/2 for each live replicate.
        live = list(records)
        return live, simulate_probability_batch(depth, omegas(live), params, noise, [rngs[r] for r in live]) - 0.5

    grid = omega_grid(d)
    live, p = stage(d, lambda live: np.broadcast_to(grid, (len(live), grid.size)))
    c = spectrum_from_h(p[:, 0] + 1j * p[:, 1], d)[:, :d]  # each row's c_0 .. c_{d-1}
    amps = np.abs(c)
    rows = zip(live, amps, amps.mean(axis=1).tolist(), (0.5 * wpa_solve(sequential_phase_diffs(c))).tolist())
    for r, a, theta_hat, varphi_hat in rows:
        try:
            records[r] = fourier_estimate(a, theta_hat, varphi_hat, noise.shots)._asdict()
        except DegenerateCoefficientError as exc:
            del records[r]
            failures[r] = {"replicate": r, "reason": f"{type(exc).__name__}: {exc}"}
    if config.alpha_correction and d >= 3:
        alpha_hat, theta_corr = estimate_alpha_corrected(amps)
        for r, alpha, theta in zip(live, alpha_hat.tolist(), theta_corr.tolist()):
            if r not in records:  # failed above
                continue
            if alpha <= 0.0:
                records[r]["warnings"].append(f"alpha_hat = {alpha} <= 0")
            else:
                records[r]["alpha_hat"] = alpha
                records[r]["diagnostics"]["theta_corrected"] = theta
    phi = lambda live: np.array([[records[r]["varphi_hat"]] for r in live])  # each replicate's a-priori phase
    if config.theta_pd and records:
        depths = np.arange(d, 3 * d + 1, 2)
        live, p = stage(depths, lambda live: phi(live).repeat(len(depths), axis=1))
        var_phi_pri = [records[r]["var_theory_varphi"] for r in live]
        theta_pd, var_pd, budget = theta_pd_estimate(np.hypot(p[:, 0], p[:, 1]), d, noise.shots, var_phi_pri)
        for r, theta, bias in zip(live, theta_pd.tolist(), budget.tolist()):
            records[r]["theta_pd"] = theta
            records[r]["diagnostics"]["theta_pd_var_theory"] = var_pd
            records[r]["diagnostics"]["theta_pd_bias_budget"] = bias
    if config.peak_fit.enabled and records:
        offsets, fit = peak_fit_operator(d, config.peak_fit.n_pf)
        live, p = stage(d, lambda live: phi(live) + offsets)
        for r, a in zip(live, np.hypot(p[:, 0], p[:, 1])):
            result = peak_fit(fit, a, d, records[r]["varphi_hat"], config.peak_fit.beta_thr)._asdict()
            records[r]["theta_pf"] = result.pop("theta_pf")
            records[r]["diagnostics"]["peak_fit"] = result
    return [failures[r] if r in failures else records[r] for r in replicates]


def _median(values: list) -> float | None:
    """np.median bit for bit on finite values whose sums stay finite, without its numpy.ma import; None for none."""
    s, n = sorted(values), len(values)
    return (s[(n - 1) // 2] + s[n // 2]) / 2 if n else None


def _percentile(a: np.ndarray, q: float) -> float:
    """A bootstrap CI end (q = 2.5, 97.5): np.percentile's linear rule bit for bit, without its numpy.ma import.

    Partitions at numpy's kth, so equal entries (0.0, -0.0) land alike; at the top numpy weighs both ends from lo = -1.
    """
    pos = (len(a) - 1) * (q / 100)
    lo, hi = (math.floor(pos), math.floor(pos) + 1) if pos < len(a) - 1 else (-1, -1)
    part = np.partition(a, (0, lo, hi, -1))
    if math.isnan(part[-1]):  # a NaN sorts last and is the result
        return float(part[-1])
    x0, x1, t = float(part[lo]), float(part[hi]), pos - lo
    return x1 - (x1 - x0) * (1 - t) if t >= 0.5 else x0 + (x1 - x0) * t


def _summarize(config: ExperimentConfig, reports: list[dict], point: int) -> dict:
    """Each estimator's statistics over the reports that have its value, and a replicate-level bootstrap of its MSE.

    One (1000, n) draw of indices into the n reports, keyed (BOOTSTRAP, seed, point, 0) and taken k rows at a time,
    resamples every estimator: with a resample's counts c, its mean is c @ (sq * has) / c @ has over the reports
    that have a value, the denominator in integers and the numerator summed along the replicates by add.reduce, so
    no bit depends on k.  A resample with none of them is left out of that estimator's percentiles; ci_resamples
    counts the resamples kept.
    """
    summary, sq, has = {}, [], []
    for name, est in _SUMMARY_ESTIMATORS.items():
        vals = list(map(est.value, reports))
        kept = np.array([v for v in vals if v is not None], dtype=float)
        if not kept.size:
            continue
        truth = est.truth(config)
        res = kept - truth if est.period is None else np.array([math.remainder(v - truth, est.period) for v in kept])
        has.append([v is not None for v in vals])
        sq.append(np.zeros(len(vals)))
        sq[-1][has[-1]] = res**2
        bias = float(res.mean())
        summary[name] = {
            "n": len(kept),
            "truth": truth,
            "mean": float(kept.mean()),
            "bias": bias,
            "var": float(((res - bias) ** 2).mean()),
            "mse": float((res**2).mean()),
        }
        if est.var_theory is not None:
            summary[name]["var_theory"] = float(np.mean([v for v in map(est.var_theory, reports) if v is not None]))
    if not summary:
        return summary
    n, sq, has = len(reports), np.array(sq), np.array(has, dtype=np.int64)
    rng = stream(BOOTSTRAP, config.noise.seed, point, 0)
    rows = max(1, _RESAMPLE_ENTRIES // n)
    sums = []
    for b in range(0, _RESAMPLES, rows):
        idx = rng.integers(0, n, size=(min(rows, _RESAMPLES - b), n))  # the next rows of one (1000, n) draw
        counts = np.bincount((idx + np.arange(0, idx.size, n)[:, None]).ravel(), minlength=idx.size).reshape(idx.shape)
        # Integer denominators, exact; off BLAS, whose first level-3 call holds about 0.17 MB more resident memory.
        sums.append(((sq[:, None] * counts).sum(axis=2), has @ counts.T))
    num, den = (np.hstack(part) for part in zip(*sums))
    for entry, nu, de in zip(summary.values(), num, den):
        # A resample misses every report with a value w.p. (1 - n_j/n)^n <= 1/e, all 1000 of them w.p. <= e^-1000.
        boot = nu[de > 0] / de[de > 0]
        entry.update(ci_low=_percentile(boot, 2.5), ci_high=_percentile(boot, 97.5), ci_resamples=len(boot))
    return summary


class ProcessPoolExecutor:
    """--jobs N: map forks n - 1 workers, n = min(N, tasks), and runs task k in worker k mod n, 0 being this process.

    With one worker, map runs every task here and forks nothing.  A worker pickles its results, or its exception, into
    a pipe and leaves by os._exit, so it never flushes the stdio buffers it inherited; each is reaped on every path,
    and one that leaves no result raises RuntimeError.  Until ROADMAP item 2b the benchmark's pool counter subclasses
    and rebinds this class.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max_workers

    def map(self, fn, tasks) -> list:
        tasks, pids, fds = list(tasks), [], []
        n = max(1, min(self.max_workers, len(tasks)))
        try:
            for i in range(1, n):
                r, w = os.pipe()
                fds.append(r)
                if (pid := os.fork()) == 0:  # the worker; a read end left open here would keep its pipe open
                    try:
                        for fd in fds:
                            os.close(fd)
                        try:
                            out = [fn(t) for t in tasks[i::n]]
                        except BaseException as exc:  # re-raised in the parent
                            out = exc
                        with open(w, "wb") as fh:
                            fh.write(pickle.dumps(out))
                        os._exit(0)
                    finally:  # never back into the caller's code
                        os._exit(1)
                os.close(w)
                pids.append(pid)
            shares = [[fn(t) for t in tasks[::n]]]
            for i in range(1, n):
                with open(fds.pop(0), "rb") as fh:
                    blob = fh.read()
                status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
                if status or not blob:
                    raise RuntimeError(f"worker {i} exited with status {status} and no result")
                shares.append(pickle.loads(blob))
                if isinstance(shares[-1], BaseException):
                    raise shares[-1]
        finally:
            for fd in fds:  # a worker blocked on a full pipe gets a broken pipe and exits
                os.close(fd)
            for pid in pids:
                os.waitpid(pid, 0)
        return [shares[k % n][k // n] for k in range(len(tasks))]


def _batches(config: ExperimentConfig, point: int, workers: int) -> list:
    """A point's run_replicate tasks: batches of ceil(replicates / workers), as large as _BATCH_ENTRIES allows."""
    reps = range(config.replicates)
    size = min(max(1, _BATCH_ENTRIES // max(2 * config.depth - 1, config.peak_fit.n_pf)), -(-len(reps) // workers))
    return [(config, point, reps[i : i + size]) for i in range(0, len(reps), size)]


def _record(config: ExperimentConfig, results: list[dict], mode: str, point: int, grid_value) -> dict:
    """The record of one run point from its replicates' results, in replicate order."""
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
    """One record per run point of config's mode, in grid order, from one map over every point's batches at any jobs."""
    points = MODES[config.mode].points
    if points is None:
        raise ValueError(f"mode {config.mode!r} samples no run points")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1  # usable CPUs
    workers = min(jobs, config.replicates, cpus) if hasattr(os, "fork") else 1  # no forking, no workers
    runs = [(i, g, point, _batches(point, i, workers)) for i, (g, point) in enumerate(points(config))]
    run = lambda task: run_replicate(task[0], point=task[1], replicates=task[2])  # fn needs no pickling: workers fork
    # The map returns in task order, that is point and replicate order.
    results = iter(ProcessPoolExecutor(max_workers=workers).map(run, [t for *_, ts in runs for t in ts]))
    return [_record(point, [r for _ in ts for r in next(results)], config.mode, i, g) for i, g, point, ts in runs]


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
    rows = []
    for rec in records:
        d = int(rec["grid_value"])
        alpha_dem = dem_fidelity(config.noise.depol_rate, d)
        alphas = [r["alpha_hat"] for r in rec["replicates"] if r["alpha_hat"] is not None]
        rows.append([d, alpha_dem, _median(alphas), _median([abs(a - alpha_dem) for a in alphas]), len(alphas)])
    return rows


def run_confusion_check(config: ExperimentConfig) -> dict:
    """Coverage of the readout-correction error bound.

    Per trial: estimate the confusion matrix row-wise from M_cmt shots,
    correct a random measured distribution with both the estimated and the
    exact matrix, and count || p - p_fs ||_2 > epsilon events.  An estimate
    that is not diagonally dominant fails when its ConfusionMatrix is built,
    a failed trial with no error: max_error is over the corrected trials.
    The failure rate must stay below alpha.
    """
    cc = config.confusion_check or ConfusionCheckConfig()
    confusion = config.noise.confusion
    m_cmt = config.confusion_shots
    failures = 0
    worst = 0.0
    for trial in range(cc.trials):
        rng = stream(CONFUSION, config.noise.seed, 0, trial)
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


def _alpha_scan_payloads(config: ExperimentConfig, records: list[dict]) -> dict:
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


def _crlb_scan_payloads(config: ExperimentConfig, records: list) -> dict:
    """Exact CRLB and slope table over the configured depth grid."""
    rows = fisher.transition_scan(config.gate_truth, config.noise.shots, config.depth_grid)
    return {"rows": rows, "table": [[r[c] for c in _CRLB_COLUMNS] for r in rows]}


# The depth of a calibrate config, which every run point of a shot-count sweep keeps.
_DEPTH_GIVEN = ("depth", "given", lambda d: d is not None)
# The mode table: every mode, its subcommand, runner, canonical files, CSV
# header, figure, run points and config rules.  run_mode and the runners look
# the pipeline up as module globals when called, so a function rebound on the
# module is the one every mode runs.  The fidelity correction needs d >= 3 and is what
# alpha-scan reports; the CRLB slopes need two or more distinct depths in order.
_SWEEP = _Mode(
    "sweep",
    lambda config, records: {"records": records, "table": _sweep_rows(config, records)},
    {"records": "sweep_records.json", "table": "sweep.csv"},
    ("grid_var", "grid_value", "estimator", "mse", "var", "bias2", "ci_low", "ci_high"),
)
MODES = {
    "calibrate": _Mode(
        "calibrate",
        lambda config, records: {"record": records[0]},
        {"record": "run_record.json"},
        points=lambda config: [(config.depth, config)],
        rules=(_DEPTH_GIVEN,),
    ),
    "sweep-depth": _SWEEP._replace(points=_at_depths, rules=(("depth_grid", "a non-empty array", bool),)),
    "sweep-shots": _SWEEP._replace(points=_at_shots, rules=(("shots_grid", "a non-empty array", bool), _DEPTH_GIVEN)),
    "crlb-scan": _Mode(
        "crlb-scan",
        _crlb_scan_payloads,
        {"rows": "crlb_scan.json", "table": "crlb_scan.csv"},
        _CRLB_COLUMNS,
        "crlb-vs-depth",
        rules=(
            ("depth_grid", "two or more increasing depths",
             lambda g: g and len(g) > 1 and g == tuple(sorted(set(g)))),
            # The bound is shot noise's: drift, depolarizing and readout confusion are not in the Fisher model.
            ("noise.drift", "null", lambda drift: drift is None),
            ("noise.depol_rate", "0", lambda rate: rate == 0.0),
            ("noise.confusion", "null", lambda confusion: confusion is None),
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
        lambda config, records: {"report": run_confusion_check(config)},
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
    records = run_points(config, jobs) if mode.points is not None else []
    payloads = mode.run(config, records)
    paths = {}
    for kind, name in mode.files.items():
        paths[kind] = os.path.join(out, name)
        if kind == "table":
            write_csv(paths[kind], mode.header, payloads[kind])
        else:
            write_json(paths[kind], payloads[kind])
    if mode.figure is not None:
        paths["figure"] = emit_figure_data(payloads[FIGURES[mode.figure].kind], mode.figure, out)
    empty = [
        f"point {r['point_index']} (grid value {r['grid_value']}): all {len(r['failures'])} replicates failed, "
        f"first with {r['failures'][0]['reason']}"
        for r in records
        if not r["replicates"]
    ]
    if empty:
        raise EmptyPointError("; ".join(empty) + f"; outputs written to {out}")
    return paths
