"""Exact SU(2) algebra for the single-excitation subspace of an FsimGate.

Restricted to the span of |01> and |10>, an excitation-preserving two-qubit
gate acts as a 2x2 special unitary parametrized by a swap angle theta and two
phases (varphi, chi).  Interleaving it with a tunable Z rotation produces a
periodic circuit whose matrix entries are Chebyshev-like polynomials in
cos(theta).  This module provides that closed form, the brute-force matrix
product it must agree with, a doubling recurrence valid at power-of-two
depths, and a general interleaved-rotation builder used as a structural
oracle by the tests.

All functions are pure; 2x2 unitaries are plain complex ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FsimParams",
    "PolyPair",
    "wrap_angle",
    "z_rotation",
    "x_rotation",
    "fsim_subspace_unitary",
    "qsp_unitary",
    "periodic_unitary_product",
    "closed_form_pq",
    "special_point_pq",
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


def z_rotation(angle: float) -> np.ndarray:
    """exp(i * angle * Z)."""
    return np.array([[np.exp(1j * angle), 0.0], [0.0, np.exp(-1j * angle)]])


def x_rotation(angle: float) -> np.ndarray:
    """exp(i * angle * X)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 1j * s], [1j * s, c]])


def fsim_subspace_unitary(params: FsimParams) -> np.ndarray:
    """Subspace matrix [[e^{-i vphi} c, -i e^{i chi} s], [-i e^{-i chi} s, e^{i vphi} c]].

    Equals the Euler product exp(-i(vphi-chi-pi)Z/2) exp(i theta X)
    exp(-i(vphi+chi+pi)Z/2) exactly, with c = cos(theta), s = sin(theta).
    """
    c, s = np.cos(params.theta), np.sin(params.theta)
    return np.array(
        [
            [np.exp(-1j * params.varphi) * c, -1j * np.exp(1j * params.chi) * s],
            [-1j * np.exp(-1j * params.chi) * s, np.exp(1j * params.varphi) * c],
        ]
    )


def qsp_unitary(x: float, phases) -> np.ndarray:
    """Interleaved rotation product e^{i w0 Z} prod_j e^{i arccos(x) X} e^{i wj Z}.

    phases has length d+1 for a depth-d product; d = 0 leaves only the
    leading Z rotation.  Raises ValueError outside the domain |x| <= 1.
    """
    if abs(x) > 1.0:
        raise ValueError(f"signal argument x={x} outside [-1, 1]")
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 1:
        raise ValueError("phases must be a non-empty 1-d sequence")
    xr = x_rotation(np.arccos(x))
    u = z_rotation(phases[0])
    for w in phases[1:]:
        u = u @ xr @ z_rotation(w)
    return u


def periodic_unitary_product(d: int, omega: float, theta: float) -> np.ndarray:
    """(e^{i omega Z} e^{i theta X})^d e^{i omega Z} by repeated multiplication.

    The brute-force oracle for closed_form_pq; O(d) matrix products.
    """
    if d < 1:
        raise ValueError("depth d must be >= 1")
    block = z_rotation(omega) @ x_rotation(theta)
    u = z_rotation(omega)
    for _ in range(d):
        u = block @ u
    return u


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


def chebyshev_u(n: int, x):
    """Chebyshev polynomial of the second kind U_n on [-1, 1].

    Evaluates sin((n+1) arccos x)/sin(arccos x) away from the endpoints and
    falls back to the three-term recurrence where 1 - x^2 < 1e-6, avoiding
    the 0/0 singularity so the x -> +-1 limits come out exactly +-(n+1).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    s2 = 1.0 - arr * arr
    near = s2 < _U_SWITCH
    far = ~near
    if far.any():
        sigma = np.arccos(np.clip(arr[far], -1.0, 1.0))
        out[far] = np.sin((n + 1) * sigma) / np.sin(sigma)
    if near.any():
        out[near] = [_u_recurrence(n, float(v)) for v in arr[near]]
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PolyPair:
    """Pointwise values (P, Q) of the periodic-circuit polynomials.

    The depth-d product equals [[P, i s Q], [i s Q, conj(P)]] with
    x = cos(theta), s = sqrt(1 - x^2) and Q real, so special unitarity pins
    |P|^2 + s^2 Q^2 = 1.  s is carried explicitly (sin(theta) for theta in
    [0, pi]) because 1 - cos(theta)^2 cancels to zero in floating point once
    theta drops below ~1e-8.
    """

    p_value: complex
    q_value: float
    sigma: float
    x: float
    d: int
    s_value: float | None = None

    def __post_init__(self):
        if self.s_value is None:
            object.__setattr__(self, "s_value", math.sqrt(max(0.0, 1.0 - self.x * self.x)))
        defect = abs(abs(self.p_value) ** 2 + self.s_value**2 * self.q_value**2 - 1.0)
        if defect > 1e-9:
            raise ValueError(f"normalization defect {defect:.3e} exceeds guard")

    def unitary(self) -> np.ndarray:
        off = 1j * self.s_value * self.q_value
        return np.array([[self.p_value, off], [off, np.conj(self.p_value)]])


def pq_values(d: int, omega, theta: float):
    """Vectorized (P, Q) over an array of modulation angles omega.

    P = e^{i omega} (cos(d sigma) + i sin(d sigma)/sin(sigma) sin(omega) cos(theta)),
    Q = sin(d sigma)/sin(sigma), with sigma = arccos(cos(omega) cos(theta)).
    """
    if d < 1:
        raise ValueError("depth d must be >= 1")
    omega = np.asarray(omega, dtype=float)
    x = np.cos(theta)
    cs = np.cos(omega) * x
    q = chebyshev_u(d - 1, cs)
    t = chebyshev_t(d, cs)
    p = np.exp(1j * omega) * (t + 1j * q * np.sin(omega) * x)
    return p, q


def closed_form_pq(d: int, omega: float, theta: float) -> PolyPair:
    """Closed-form (P, Q) of the depth-d periodic circuit at one point."""
    p, q = pq_values(d, float(omega), theta)
    cs = np.clip(np.cos(omega) * np.cos(theta), -1.0, 1.0)
    return PolyPair(
        p_value=complex(p),
        q_value=float(q),
        sigma=float(np.arccos(cs)),
        x=float(np.cos(theta)),
        d=d,
        s_value=abs(math.sin(theta)),
    )


def special_point_pq(j: int, omega: float, theta: float) -> PolyPair:
    """(P, Q) at depth d = 2^j via the doubling recurrence.

    Doubling steps: Q(2m) = 2 Q(m) Re(e^{-i omega} P(m)) and
    Re(e^{-i omega} P(2m)) = 2 Re(e^{-i omega} P(m))^2 - 1, seeded at d = 1.
    Serves as a second oracle independent of the trig closed form.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    x = math.cos(theta)
    re = math.cos(omega) * x
    im = math.sin(omega) * x
    q = 1.0
    for _ in range(j):
        q = 2.0 * q * re
        im = 2.0 * im * re
        re = 2.0 * re * re - 1.0
    p = complex(np.exp(1j * omega) * (re + 1j * im))
    cs = np.clip(math.cos(omega) * x, -1.0, 1.0)
    return PolyPair(p_value=p, q_value=q, sigma=float(np.arccos(cs)), x=x, d=2**j, s_value=abs(math.sin(theta)))
