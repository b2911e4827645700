"""The three benchmark workloads: inputs from a seed, set-up, run, checks.

``make_inputs`` uses only the standard library, so run.py can call it
without importing fsimcal.  Everything else runs in the workload process and
calls only public fsimcal entry points, looked up on their modules at call
time so that a traced run sees them.

Operations (ops), the unit of ``attempted``/``failed`` and ``ops_per_s``:
a replicate in calibrate-ladder and drift-sweep, a (theta, d) CRLB point in
crlb-scan.  A failed op carries one reason.  Reasons that start with
``check:`` mean an output was wrong; the others name an error the program
raised and reported, which counts as a failed op but not as a wrong output.
A crlb-scan point whose row records a known domain error
(``GradientValidationError``, ``SingularFisherError``) is not a failed op:
the scan completed it and wrote that status.  Such points are counted by
reason as domain errors, so the defect behind them stays visible.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import statistics

WORKLOADS = ("calibrate-ladder", "drift-sweep", "crlb-scan")

THETA = 1e-3
VARPHI = math.pi / 16
CHI = 5 * math.pi / 32
SHOTS = 100_000

# calibrate-ladder: replicate variance within this factor range of var_theory.
# With 48 replicates, chi-square tails put a correct estimator outside it with
# probability about 1e-4.
VAR_RATIO_RANGE = (0.4, 2.5)
# drift-sweep: acceptance criterion 08's gate on the median relative error of
# the depolarizing-corrected swap angle at d = 50.
DRIFT_GATE_DEPTH = 50
DRIFT_MEDIAN_REL_MAX = 0.5
# crlb-scan: acceptance criterion 05's windows in d*theta and slope targets.
SLOPE_WINDOWS = (("shallow", 0.02, 0.2, -4.0), ("deep", 3.0, 30.0, -3.0))
SLOPE_TOL = 0.3

CANONICAL_FILES = {
    "calibrate-ladder": ("run_record.json",),
    "drift-sweep": ("sweep_records.json", "sweep.csv"),
    "crlb-scan": ("crlb_scan.csv",),
}
# crlb-scan: errors fisher.crlb may raise for one point, written as its status.
DOMAIN_ERRORS = ("GradientValidationError", "SingularFisherError")
CRLB_HEADER = ["theta", "d", "status", "crlb_theta", "crlb_varphi", "crlb_chi", "slope_theta", "slope_varphi", "slope_chi"]


def geometric_depths(d_min: int, d_max: int, points: int) -> list[int]:
    ratio = d_max / d_min
    return sorted({round(d_min * ratio ** (i / (points - 1))) for i in range(points)})


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """Everything the workload varies, drawn from ``seed``; smoke=True shrinks it for tests."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "calibrate-ladder":
        # ROADMAP reference: d=50, shots 1e5, theta_pd ladder and peak fit, shots-only noise.
        return {
            "workload": workload,
            "noise_seed": rng.randrange(2**31),
            "depth": 50,
            "replicates": 24 if smoke else 48,
            "jobs": 1,
        }
    if workload == "drift-sweep":
        return {
            "workload": workload,
            "noise_seed": rng.randrange(2**31),
            "depth_grid": [20, 50, 100],
            "replicates": 4 if smoke else 32,
            "depol_rate": 1e-3,
            "confusion_p_correct": 0.98,
            "jobs": 2,
        }
    if workload == "crlb-scan":
        # The grid reaches past d = 6553, where GradientValidationError fires
        # at theta = 1e-4: those points stay in, counted as domain errors.
        return {
            "workload": workload,
            "thetas": [1e-2, 1e-3, 1e-4],
            "depths": geometric_depths(2, 512 if smoke else 16384, 12 if smoke else 40),
            "varphi": VARPHI * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)),
            "chi": CHI * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)),
            "shots": SHOTS,
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def prepare(inputs: dict, work_dir: str):
    """Build the fsimcal config (set-up); CLI workloads also get it as a JSON file."""
    import fsimcal

    workload = inputs["workload"]
    truth = fsimcal.FsimParams(THETA, VARPHI, CHI)
    if workload == "crlb-scan":
        return [fsimcal.FsimParams(t, inputs["varphi"], inputs["chi"]) for t in inputs["thetas"]]
    if workload == "calibrate-ladder":
        config = fsimcal.ExperimentConfig(
            mode="calibrate",
            gate_truth=truth,
            noise=fsimcal.NoiseConfig(shots=SHOTS, seed=inputs["noise_seed"]),
            replicates=inputs["replicates"],
            depth=inputs["depth"],
            peak_fit=fsimcal.PeakFitConfig(enabled=True, n_pf=15),
            theta_pd=True,
        )
    else:
        config = fsimcal.ExperimentConfig(
            mode="sweep-depth",
            gate_truth=truth,
            noise=fsimcal.NoiseConfig(
                shots=SHOTS,
                depol_rate=inputs["depol_rate"],
                drift=fsimcal.DriftModel(),
                confusion=fsimcal.ConfusionMatrix.uniform(inputs["confusion_p_correct"]),
                seed=inputs["noise_seed"],
            ),
            replicates=inputs["replicates"],
            depth_grid=tuple(inputs["depth_grid"]),
            peak_fit=fsimcal.PeakFitConfig(enabled=False),
            theta_pd=False,
        )
    path = os.path.join(work_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2)
    return path


def run(inputs: dict, prepared, out_dir: str, jobs: int) -> None:
    """The timed part: from the first call into fsimcal until all outputs are written."""
    workload = inputs["workload"]
    if workload == "crlb-scan":
        _run_crlb_scan(inputs, prepared, out_dir)
        return
    import fsimcal.cli

    command = "calibrate" if workload == "calibrate-ladder" else "sweep"
    status = fsimcal.cli.main([command, "--config", prepared, "--out", out_dir, "--jobs", str(jobs)])
    if status != 0:
        raise RuntimeError(f"fsimcal {command} exited with {status}")


def _domain_errors(fisher) -> tuple:
    # Expected per-point failures; anything else is a bug and stops the run.
    return tuple(getattr(fisher, n) for n in DOMAIN_ERRORS if hasattr(fisher, n))


def _run_crlb_scan(inputs: dict, params_list, out_dir: str) -> None:
    from fsimcal import fisher, harness

    errors = _domain_errors(fisher)
    rows = []
    for params in params_list:
        ok_depths, values, status = [], [], {}
        for d in inputs["depths"]:
            try:
                rep = fisher.crlb(d, params, inputs["shots"])
            except errors as exc:
                status[d] = type(exc).__name__
                continue
            ok_depths.append(d)
            values.append((rep.crlb_theta, rep.crlb_varphi, rep.crlb_chi))
        slopes = [fisher.windowed_slopes(ok_depths, col) for col in zip(*values)] if len(ok_depths) > 1 else []
        ok_index = {d: i for i, d in enumerate(ok_depths)}
        for d in inputs["depths"]:
            if d in status:
                rows.append([params.theta, d, status[d]] + [None] * 6)
            else:
                i = ok_index[d]
                point_slopes = [float(s[i]) for s in slopes] or [None] * 3
                rows.append([params.theta, d, "ok", *values[i], *point_slopes])
    harness.write_csv(os.path.join(out_dir, "crlb_scan.csv"), CRLB_HEADER, rows)


class OpLedger:
    """Attempted ops, the first failure reason of each failed op, and domain errors."""

    def __init__(self, op_ids):
        self.op_ids = list(op_ids)
        self.reasons: dict = {}
        self.domain_errors: dict = {}

    def fail(self, op_id, reason: str) -> None:
        self.reasons.setdefault(op_id, reason)

    def fail_all(self, op_ids, reason: str) -> None:
        for op_id in op_ids:
            self.fail(op_id, reason)

    def domain_error(self, op_id, reason: str) -> None:
        self.domain_errors[op_id] = reason

    def summary(self) -> dict:
        by_reason: dict[str, int] = {}
        for reason in self.reasons.values():
            by_reason[reason] = by_reason.get(reason, 0) + 1
        domain: dict[str, int] = {}
        for op_id, reason in self.domain_errors.items():
            if op_id not in self.reasons:
                domain[reason] = domain.get(reason, 0) + 1
        return {
            "attempted": len(self.op_ids),
            "failed": len(self.reasons),
            "by_reason": dict(sorted(by_reason.items())),
            "domain_errors": dict(sorted(domain.items())),
            "correct": not any(r.startswith("check:") for r in by_reason),
        }


def check(inputs: dict, out_dir: str) -> dict:
    """Check the canonical outputs; returns the OpLedger summary."""
    workload = inputs["workload"]
    if workload == "calibrate-ladder":
        return _check_calibrate(inputs, out_dir).summary()
    if workload == "drift-sweep":
        return _check_drift(inputs, out_dir).summary()
    return _check_crlb(inputs, out_dir).summary()


def _load_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _surviving(record, ledger, key):
    """(op id, replicate report) pairs; failed replicates go to the ledger."""
    failed = set()
    for f in record["failures"]:
        failed.add(f["replicate"])
        ledger.fail(key(f["replicate"]), f["reason"].split(":", 1)[0])  # the exception type
    ids = [r for r in range(record["config"]["replicates"]) if r not in failed]
    if len(ids) != len(record["replicates"]):
        ledger.fail_all([key(r) for r in ids], "check: replicate count mismatch")
        return []
    return [(key(r), rep) for r, rep in zip(ids, record["replicates"])]


def _check_calibrate(inputs, out_dir) -> OpLedger:
    record = _load_json(out_dir, "run_record.json")
    ledger = OpLedger(range(inputs["replicates"]))
    for op_id, rep in _surviving(record, ledger, lambda r: r):
        if rep.get("theta_pd") is None:
            ledger.fail(op_id, "check: theta_pd missing")
    lo, hi = VAR_RATIO_RANGE
    for name in ("theta_hat", "varphi_hat"):
        s = record["summary"].get(name)
        ratio = s["var"] / s["var_theory"] if s else math.nan
        if not lo <= ratio <= hi:
            ledger.fail_all(ledger.op_ids, f"check: {name} var/var_theory outside [{lo}, {hi}]")
    return ledger


def _check_drift(inputs, out_dir) -> OpLedger:
    records = _load_json(out_dir, "sweep_records.json")
    reps = inputs["replicates"]
    grid = inputs["depth_grid"]
    ledger = OpLedger((p, r) for p in range(len(grid)) for r in range(reps))
    if [rec["grid_value"] for rec in records] != grid:
        ledger.fail_all(ledger.op_ids, "check: sweep points differ from the depth grid")
        return ledger
    for p, record in enumerate(records):
        surviving = _surviving(record, ledger, lambda r, p=p: (p, r))
        if grid[p] != DRIFT_GATE_DEPTH:
            continue
        rels = []
        for op_id, rep in surviving:
            corrected = rep["diagnostics"].get("theta_corrected")
            if corrected is None:
                ledger.fail(op_id, "check: theta_corrected missing")
            else:
                rels.append(abs(corrected - THETA) / THETA)
        if not rels or statistics.median(rels) > DRIFT_MEDIAN_REL_MAX:
            ledger.fail_all(
                [(p, r) for r in range(reps)],
                f"check: median |theta_corr-theta|/theta at d={DRIFT_GATE_DEPTH} above {DRIFT_MEDIAN_REL_MAX}",
            )
    return ledger


def _check_crlb(inputs, out_dir) -> OpLedger:
    import numpy as np

    with open(os.path.join(out_dir, "crlb_scan.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ledger = OpLedger((t, d) for t in inputs["thetas"] for d in inputs["depths"])
    if [(float(r["theta"]), int(r["d"])) for r in rows] != ledger.op_ids:
        ledger.fail_all(ledger.op_ids, "check: scan rows differ from the (theta, d) grid")
        return ledger
    ok = {}
    for r in rows:
        op_id = (float(r["theta"]), int(r["d"]))
        if r["status"] in DOMAIN_ERRORS:
            ledger.domain_error(op_id, r["status"])
            continue
        if r["status"] != "ok":
            ledger.fail(op_id, f"check: unknown status {r['status']!r}")
            continue
        values = [float(r[c]) if r[c] else math.nan for c in CRLB_HEADER[3:]]
        if not all(math.isfinite(v) for v in values):
            ledger.fail(op_id, "check: non-finite CRLB or slope")
        else:
            ok[op_id] = values[1]
    for theta in inputs["thetas"]:
        for label, lo, hi, target in SLOPE_WINDOWS:
            window = [(d, ok[(theta, d)]) for d in inputs["depths"] if (theta, d) in ok and lo <= d * theta <= hi]
            if len(window) < 3:
                continue
            slope = np.polyfit(np.log([d for d, _ in window]), np.log([v for _, v in window]), 1)[0]
            if abs(slope - target) > SLOPE_TOL:
                ledger.fail_all(
                    [(theta, d) for d, _ in window],
                    f"check: {label} slope_varphi outside {target}+-{SLOPE_TOL}",
                )
    return ledger


def output_digests(workload: str, out_dir: str) -> dict[str, str]:
    """sha256 of each canonical output file."""
    digests = {}
    for name in CANONICAL_FILES[workload]:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests
