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


def _sinc_radians(z):
    """np.sinc(z / pi) with its roundings, in place on the array z: sin(pi (z/pi)) / (pi (z/pi)), eps for 0."""
    z /= np.pi
    z *= np.pi
    z[z == 0.0] = np.finfo(float).eps
    s = np.sin(z)
    s /= z
    return s


def chebyshev_tu(d, cw, sw, theta: float):
    """(T_d(x), U_{d-1}(x)) at x = cw cos(theta); cw = cos w and sw = sin w come from the caller.

    sigma = arccos|x| is formed as atan2(sqrt(sw^2 + cw^2 sin^2 theta), |x|), with no
    cancellation in 1 - x^2 as |x| -> 1.  Then T_d = cos(d sigma) and U_{d-1} = sin(d sigma)/sin(sigma)
    = d sinc(d sigma/pi)/sinc(sigma/pi), exactly d at sigma = 0; d is one degree or one per point.
    x < 0 uses T_n(-x) = (-1)^n T_n(x), U_n(-x) = (-1)^n U_n(x), the sign picked by the parity of n.
    """
    x = cw * math.cos(theta)
    sigma = np.arctan2(np.sqrt(sw * sw + (cw * math.sin(theta)) ** 2), np.abs(x))
    d_sigma = np.asarray(d * sigma)
    t = np.asarray(np.cos(d_sigma))
    u = np.asarray(d * _sinc_radians(d_sigma))
    u /= _sinc_radians(np.asarray(sigma))
    neg, odd = x < 0.0, np.asarray(d) % 2 == 1
    np.negative(t, out=t, where=neg & odd)
    np.negative(u, out=u, where=neg & ~odd)
    # [()] turns a 0-d result back into a numpy scalar; an array comes back as a view of itself.
    return t[()], u[()]


def pq_values(d, cw, sw, theta: float):
    """(P, Q) = (T_d(x) + i cos(theta) sin(w) U_{d-1}(x), U_{d-1}(x)) at x = cos(w) cos(theta).

    cw = cos w, sw = sin w and d (one depth or one per point) are chebyshev_tu's, and P.real is its
    T_d bit for bit.  The circuit's matrix entry is e^{iw} P; callers fold e^{iw} into their phase.
    """
    if np.min(d) < 1:
        raise ValueError("depth d must be >= 1")
    t, q = chebyshev_tu(d, cw, sw, theta)
    return t + 1j * np.cos(theta) * sw * q, q
