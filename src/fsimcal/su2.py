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


def pq_values(d, cw, sw, theta: float):
    """(P, Q) = (T_d(x) + i cos(theta) sin(w) U_{d-1}(x), U_{d-1}(x)) at x = cw cos(theta); cw = cos w, sw = sin w.

    s = sqrt(sw^2 + cw^2 sin^2 theta) is sin(sigma) for sigma = arccos|x|, since s^2 + x^2 = sw^2 + cw^2 = 1,
    formed with no cancellation in 1 - x^2 as |x| -> 1; sigma = atan2(s, |x|).  Then T_d = cos(d sigma)
    and U_{d-1} = sin(d sigma)/s; d is one depth or one per point.  s is 0 or at least 2.2e-162, the
    root of the least subnormal, and s = 0 only where |x| = 1; flooring s at the least normal double
    changes only those points, where it gives sigma = s, T_d = 1 and U_{d-1} = (d s)/s = d exactly.
    x < 0 uses T_n(-x) = (-1)^n T_n(x), U_n(-x) = (-1)^n U_n(x), the sign picked by the parity of n.
    P's real and imaginary parts are written into one complex array: P.real is T_d, and P.imag is
    (cos(theta) sin w) U_{d-1}.  The circuit's matrix entry is e^{iw} P; callers fold e^{iw} into
    their phase.
    """
    if np.min(d) < 1:
        raise ValueError("depth d must be >= 1")
    x = cw * math.cos(theta)
    s = np.maximum(np.sqrt(sw * sw + (cw * math.sin(theta)) ** 2), np.finfo(float).tiny)
    d_sigma = np.asarray(d * np.arctan2(s, np.abs(x)))
    t = np.asarray(np.cos(d_sigma))
    q = np.sin(d_sigma, out=d_sigma)
    q /= s
    neg, odd = x < 0.0, np.asarray(d) % 2 == 1
    np.negative(t, out=t, where=neg & odd)
    np.negative(q, out=q, where=neg & ~odd)
    p = np.empty(t.shape, complex)
    p.real = t
    np.multiply(np.cos(theta) * sw, q, out=p.imag)
    # [()] turns a 0-d result back into a numpy scalar; an array comes back as a view of itself.
    return p[()], q[()]
