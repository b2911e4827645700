#!/usr/bin/env python3
"""Calibration accuracy under the full noise model, and fidelity estimation.

Part 1 sweeps depth with shot noise + per-gate depolarizing + ramping
coherent drift and tabulates the corrected swap-angle error (the tradeoff
between amplification and drift gives an interior optimum depth).  Part 2
runs the fidelity scan that backs out the depolarizing level from the k = 0
Fourier coefficient.
"""

import argparse
import json
import sys

import numpy as np

sys.path.insert(0, "src")

from fsimcal import DriftModel, ExperimentConfig, FsimParams, NoiseConfig, PeakFitConfig, run_mode


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/noise_robustness")
    ap.add_argument("--seed", type=int, default=808)
    ap.add_argument("--replicates", type=int, default=96)
    ap.add_argument("--depol", type=float, default=1e-3)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    truth = FsimParams(1e-3, np.pi / 16, 5 * np.pi / 32)
    sweep = ExperimentConfig(
        mode="sweep-depth",
        gate_truth=truth,
        noise=NoiseConfig(shots=100_000, depol_rate=args.depol, drift=DriftModel(), seed=args.seed),
        replicates=args.replicates,
        depth_grid=(10, 20, 30, 40, 50, 70, 100),
        peak_fit=PeakFitConfig(enabled=False),
        output_dir=args.out,
    )
    with open(run_mode(sweep, jobs=args.jobs)["records"], encoding="utf-8") as fh:
        records = json.load(fh)
    print(f"{'d':>5} {'mse(theta_corr)':>16} {'median rel err':>15}")
    for rec in records:
        s = rec["summary"]["theta_corrected"]
        rels = np.median(
            [abs(r["diagnostics"]["theta_corrected"] - truth.theta) / truth.theta for r in rec["replicates"]]
        )
        print(f"{rec['grid_value']:>5} {s['mse']:>16.3e} {rels:>15.3f}")

    # fidelity scan: chi + varphi = 5 pi/4 keeps the k = 0 offset colinear
    # with the signal coefficient, where the modulus-difference form is exact
    alpha_cfg = ExperimentConfig(
        mode="alpha-scan",
        gate_truth=FsimParams(1e-3, -29 * np.pi / 32, 5 * np.pi / 32),
        noise=NoiseConfig(shots=100_000, depol_rate=args.depol, seed=args.seed + 1),
        replicates=args.replicates,
        depth_grid=(10, 20, 30, 40, 50, 60),
        output_dir=args.out,
    )
    with open(run_mode(alpha_cfg, jobs=args.jobs)["rows"], encoding="utf-8") as fh:
        rows = json.load(fh)
    print(f"\n{'d':>5} {'alpha_dem':>10} {'median dev':>11}")
    for d, alpha_dem, _, dev, _ in rows:
        print(f"{d:>5} {alpha_dem:>10.4f} {dev:>11.2e}")
    print(f"wrote {args.out}/")


if __name__ == "__main__":
    main()
