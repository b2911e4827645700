#!/usr/bin/env python3
"""Reproduce the depth scaling of the estimator errors under shot noise only.

Sweeps the circuit depth at fixed swap angle and shot count, runs the full
calibration pipeline per replicate, and writes the tidy sweep table plus the
mse-vs-depth and variance-vs-depth figure CSVs.
"""

import argparse
import json
import sys

import numpy as np

sys.path.insert(0, "src")

from fsimcal import ExperimentConfig, FsimParams, NoiseConfig, PeakFitConfig, emit_figure_data, run_mode


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/variance_vs_depth")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--replicates", type=int, default=96)
    ap.add_argument("--theta", type=float, default=1e-3)
    ap.add_argument("--shots", type=int, default=100_000)
    ap.add_argument("--depths", type=int, nargs="+", default=[10, 15, 22, 33, 50, 70, 100])
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    config = ExperimentConfig(
        mode="sweep-depth",
        gate_truth=FsimParams(args.theta, np.pi / 16, 5 * np.pi / 32),
        noise=NoiseConfig(shots=args.shots, seed=args.seed),
        replicates=args.replicates,
        depth_grid=tuple(args.depths),
        peak_fit=PeakFitConfig(enabled=True, n_pf=15),
        theta_pd=True,
        output_dir=args.out,
    )
    with open(run_mode(config, jobs=args.jobs)["records"], encoding="utf-8") as fh:
        records = json.load(fh)
    emit_figure_data(records, "mse-vs-depth", args.out)
    emit_figure_data(records, "variance-vs-depth", args.out)

    print(f"{'d':>5} {'mse(theta)':>12} {'var theory':>12} {'mse(varphi)':>12} {'mse(theta_pf)':>13}")
    for rec in records:
        s = rec["summary"]
        print(
            f"{rec['grid_value']:>5} {s['theta_hat']['mse']:>12.3e} {s['theta_hat']['var_theory']:>12.3e} "
            f"{s['varphi_hat']['mse']:>12.3e} {s['theta_pf']['mse']:>13.3e}"
        )
    print(f"wrote {args.out}/")


if __name__ == "__main__":
    main()
