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

__all__ = [
    "FsimParams",
    "wrap_angle",
    "pq_values",
    "chebyshev_t",
    "chebyshev_u",
]


def wrap_angle(angle: float) -> float:
    """Map an angle to the principal branch (-pi, pi]."""
    w = math.remainder(float(angle), 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


@dataclass(frozen=True)
class FsimParams:
    """Gate angles on the single-excitation subspace.

    theta is the swap angle between |01> and |10>; varphi is the differential
    Z phase and chi the off-diagonal phase.  The phases are stored on the
    principal branch (-pi, pi]; theta is kept as given so the full range is
    available to oracle tests even though calibration targets theta << 1.
    """

    theta: float
    varphi: float
    chi: float

    def __post_init__(self):
        if not all(math.isfinite(a) for a in (self.theta, self.varphi, self.chi)):
            raise ValueError("gate angles must be finite")
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "varphi", wrap_angle(self.varphi))
        object.__setattr__(self, "chi", wrap_angle(self.chi))


def chebyshev_t(n: int, x):
    """Chebyshev polynomial of the first kind T_n on [-1, 1], via cos(n arccos x)."""
    return np.cos(n * np.arccos(np.clip(x, -1.0, 1.0)))


# Below this value of sin^2(sigma) the trig quotient loses the 1e-10 accuracy
# contract; switch to the recurrence, which is exact in the sigma -> 0, pi
# limits (values +-(n+1)).
_U_SWITCH = 1e-6


def _u_recurrence(n: int, x: float) -> float:
    if n == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * x
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def chebyshev_u(n, x):
    """Chebyshev polynomial of the second kind U_n on [-1, 1]; n is one degree or one per x.

    Evaluates sin((n+1) arccos x)/sin(arccos x) away from the endpoints and
    falls back to the three-term recurrence where 1 - x^2 < 1e-6, avoiding
    the 0/0 singularity so the x -> +-1 limits come out exactly +-(n+1).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    n = np.asarray(n)
    out = np.empty_like(arr)
    s2 = 1.0 - arr * arr
    near = s2 < _U_SWITCH
    far = ~near
    if far.any():
        sigma = np.arccos(np.clip(arr[far], -1.0, 1.0))
        out[far] = np.sin(((n[far] if n.ndim else n) + 1) * sigma) / np.sin(sigma)
    if near.any():
        degrees = np.broadcast_to(n, arr.shape)[near]
        out[near] = [_u_recurrence(int(k), float(v)) for k, v in zip(degrees, arr[near])]
    return float(out[0]) if scalar else out


def pq_values(d, omega, theta: float):
    """Vectorized (P, Q) over modulation angles omega; d is one depth or one per omega.

    P = e^{i omega} (cos(d sigma) + i sin(d sigma)/sin(sigma) sin(omega) cos(theta)),
    Q = sin(d sigma)/sin(sigma), with sigma = arccos(cos(omega) cos(theta)).
    """
    if np.min(d) < 1:
        raise ValueError("depth d must be >= 1")
    omega = np.asarray(omega, dtype=float)
    x = np.cos(theta)
    cs = np.cos(omega) * x
    q = chebyshev_u(d - 1, cs)
    t = chebyshev_t(d, cs)
    p = np.exp(1j * omega) * (t + 1j * q * np.sin(omega) * x)
    return p, q
