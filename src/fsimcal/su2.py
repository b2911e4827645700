"""Exact SU(2) algebra for the single-excitation subspace of an FsimGate.

Restricted to the span of |01> and |10>, an excitation-preserving two-qubit
gate acts as a 2x2 special unitary parametrized by a swap angle theta and two
phases (varphi, chi).  Interleaving it with a tunable Z rotation produces a
periodic circuit whose matrix entries are Chebyshev-like polynomials in
cos(theta).  This module provides that closed form; the brute-force matrix
product and the doubling recurrence it is checked against live with the
tests.

All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Section, setting

__all__ = [
    "FsimParams",
    "pq_values",
    "chebyshev_tu",
]


def wrap_angle(angle: float) -> float:
    """Map an angle to the principal branch (-pi, pi]."""
    w = math.remainder(float(angle), 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


@dataclass(frozen=True)
class FsimParams(Section, path="gate_truth"):
    """Gate angles on the single-excitation subspace.

    theta is the swap angle between |01> and |10>; varphi is the differential
    Z phase and chi the off-diagonal phase.  The phases are stored on the
    principal branch (-pi, pi]; theta is kept as given, and must lie in
    [-pi, pi], even though calibration targets theta << 1.
    """

    theta: float = setting(float, ge=-math.pi, le=math.pi)
    varphi: float = setting(float, normalize=wrap_angle)
    chi: float = setting(float, normalize=wrap_angle)


def chebyshev_tu(d, cw, sw, theta: float):
    """(T_d(x), U_{d-1}(x)) at x = cw cos(theta); cw = cos w and sw = sin w come from the caller.

    sigma = arccos|x| is formed as atan2(sqrt(sw^2 + cw^2 sin^2 theta), |x|), with no
    cancellation in 1 - x^2 as |x| -> 1.  Then T_d = cos(d sigma) and U_{d-1} = sin(d sigma)/sin(sigma)
    = d sinc(d sigma/pi)/sinc(sigma/pi), exactly d at sigma = 0; d is one degree or one per point.
    x < 0 uses T_n(-x) = (-1)^n T_n(x), U_n(-x) = (-1)^n U_n(x), the sign picked by the parity of n.
    """
    x = cw * math.cos(theta)
    sigma = np.arctan2(np.sqrt(sw * sw + (cw * math.sin(theta)) ** 2), np.abs(x))
    sign, odd = np.where(x < 0.0, -1.0, 1.0), np.asarray(d) & 1
    t = np.where(odd, sign, 1.0) * np.cos(d * sigma)
    u = np.where(odd, 1.0, sign) * d * np.sinc(d * sigma / np.pi) / np.sinc(sigma / np.pi)
    return t, u


def pq_values(d, omega, theta: float):
    """Vectorized (P, Q) over modulation angles omega; d is one depth or one per omega.

    P = e^{i omega} (T_d(x) + i U_{d-1}(x) sin(omega) cos(theta)),
    Q = U_{d-1}(x), with x = cos(omega) cos(theta).
    """
    if np.min(d) < 1:
        raise ValueError("depth d must be >= 1")
    omega = np.asarray(omega, dtype=float)
    sw = np.sin(omega)
    t, q = chebyshev_tu(d, np.cos(omega), sw, theta)
    return _p_value(omega, sw, t, q, theta), q


def _p_value(omega, sw, t, q, theta: float):
    """P from the Chebyshev pair at omega, sw = sin(omega): pq_values and the Fisher weights share it."""
    return np.exp(1j * omega) * (t + 1j * q * sw * math.cos(theta))
