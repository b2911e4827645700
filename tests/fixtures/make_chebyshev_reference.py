#!/usr/bin/env python3
"""Write chebyshev_reference.json: T_d(x) and U_{d-1}(x) at 60 digits.

x = cos(w) cos(theta) is formed in mpmath from the double inputs, so the
reference carries no rounding of x.  Per (d, theta): 11 phases spread over
[-pi, pi] and the 11 grid phases omega_j - varphi nearest the phase-matched
point w = 0, where |x| -> 1.  The suite reads the JSON only; regenerate with

    python tests/fixtures/make_chebyshev_reference.py
"""

import json
import math
import pathlib

import mpmath

mpmath.mp.dps = 60
VARPHI = math.pi / 16
CASES = [(2, 1e-2), (50, 1e-3), (1000, 1e-4), (8192, 1e-4), (16384, 1e-4)]


def phases(d):
    spread = [-math.pi + k * math.pi / 5 for k in range(11)]
    n = 2 * d - 1
    center = round(VARPHI * n / math.pi)
    near = [j * (math.pi / n) - VARPHI for j in range(center - 5, center + 6)]
    return spread + near


def reference(d, theta, w):
    x = mpmath.cos(mpmath.mpf(w)) * mpmath.cos(mpmath.mpf(theta))
    sigma = mpmath.acos(x)
    u = mpmath.mpf(d) if sigma == 0 else mpmath.sin(d * sigma) / mpmath.sin(sigma)
    return float(mpmath.cos(d * sigma)), float(u)


def main():
    cases = []
    for d, theta in CASES:
        ws = phases(d)
        values = [reference(d, theta, w) for w in ws]
        cases.append({"d": d, "theta": theta, "w": ws, "t": [t for t, _ in values], "u": [u for _, u in values]})
    path = pathlib.Path(__file__).with_name("chebyshev_reference.json")
    path.write_text(json.dumps({"dps": mpmath.mp.dps, "cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
