#!/usr/bin/env python3
"""Map the optimal-variance transition of the phase estimator across depth.

Computes the exact Cramer-Rao diagonal on a log depth grid for two swap
angles and prints the fitted log-log slopes in the shallow (d << 1/theta)
and deep (d >> 1/theta) windows, where the scaling crosses from about
1/d^4 to the 1/d^3 limit.  Each angle is one crlb-scan run, written to
<out>/theta_0p01/ and <out>/theta_0p001/.
"""

import argparse
import json
import sys

import numpy as np

sys.path.insert(0, "src")

from fsimcal import ExperimentConfig, FsimParams, NoiseConfig, run_mode


def window_slope(rows, lo, hi):
    pts = [(r["d"], r["crlb_varphi"]) for r in rows if lo <= r["d"] <= hi]
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return np.polyfit(x, y, 1)[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/crlb_transition")
    ap.add_argument("--shots", type=int, default=100_000)
    ap.add_argument("--points", type=int, default=24)
    args = ap.parse_args()

    for theta in (1e-2, 1e-3):
        depths = np.unique(np.round(np.geomspace(2, 30.0 / theta, args.points)).astype(int))
        tag = f"theta_{theta:g}".replace(".", "p")
        config = ExperimentConfig(
            mode="crlb-scan",
            gate_truth=FsimParams(theta, np.pi / 16, 5 * np.pi / 32),
            noise=NoiseConfig(shots=args.shots),
            depth_grid=tuple(depths.tolist()),
            output_dir=f"{args.out}/{tag}",
        )
        with open(run_mode(config)["rows"], encoding="utf-8") as fh:
            rows = json.load(fh)
        shallow = window_slope(rows, 0.02 / theta, 0.2 / theta)
        deep = window_slope(rows, 3.0 / theta, 30.0 / theta)
        print(f"theta={theta:g}: slope(crlb_varphi) = {shallow:+.2f} for d*theta in [0.02, 0.2], "
              f"{deep:+.2f} for d*theta in [3, 30]")
    print(f"wrote {args.out}/")


if __name__ == "__main__":
    main()
