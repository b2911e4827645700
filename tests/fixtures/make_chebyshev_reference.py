#!/usr/bin/env python3
"""Write chebyshev_reference.json: T_d(x), U_{d-1}(x) and dg/dw at 60 digits.

x = cos(w) cos(theta) is formed in mpmath from the double inputs, so the
reference carries no rounding of x.  g = U_{d-1} (T_d + i cos(theta) sin(w) U_{d-1})
is the depth-dependent factor of h = i e^{-i(chi+omega)} sin(theta) g, so
dh/dvarphi = -i e^{-i(chi+omega)} sin(theta) dg/dw; dg/dw is mpmath's numerical
derivative, independent of the closed forms it checks, stored as [re, im].
Per (d, theta): 11 phases spread over [-pi, pi] and the 11 grid phases
omega_j - varphi nearest the phase-matched point w = 0, where |x| -> 1.  The
suite reads the JSON only; regenerate with

    python tests/fixtures/make_chebyshev_reference.py
"""

import json
import math
import pathlib

import mpmath

mpmath.mp.dps = 60
VARPHI = math.pi / 16
CASES = [(2, 1e-2), (50, 1e-3), (1000, 1e-4), (8192, 1e-4), (16384, 1e-4), (200, 0.4)]


def phases(d):
    spread = [-math.pi + k * math.pi / 5 for k in range(11)]
    n = 2 * d - 1
    center = round(VARPHI * n / math.pi)
    near = [j * (math.pi / n) - VARPHI for j in range(center - 5, center + 6)]
    return spread + near


def chebyshev(d, theta, w):
    """(x, T_d(x), U_{d-1}(x)) in mpmath at the double inputs theta and w."""
    x = mpmath.cos(w) * mpmath.cos(mpmath.mpf(theta))
    sigma = mpmath.acos(x)
    u = mpmath.mpf(d) if sigma == 0 else mpmath.sin(d * sigma) / mpmath.sin(sigma)
    return x, mpmath.cos(d * sigma), u


def reference(d, theta, w):
    _, t, u = chebyshev(d, theta, mpmath.mpf(w))
    return float(t), float(u)


def phase_derivative(d, theta, w):
    def g(v):
        _, t, u = chebyshev(d, theta, v)
        return u * (t + 1j * mpmath.cos(mpmath.mpf(theta)) * mpmath.sin(v) * u)

    dg = mpmath.diff(g, mpmath.mpf(w))
    return [float(dg.real), float(dg.imag)]


def main():
    cases = []
    for d, theta in CASES:
        ws = phases(d)
        values = [reference(d, theta, w) for w in ws]
        case = {"d": d, "theta": theta, "w": ws, "t": [t for t, _ in values], "u": [u for _, u in values]}
        case["dg_dw"] = [phase_derivative(d, theta, w) for w in ws]
        cases.append(case)
    path = pathlib.Path(__file__).with_name("chebyshev_reference.json")
    path.write_text(json.dumps({"dps": mpmath.mp.dps, "cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
