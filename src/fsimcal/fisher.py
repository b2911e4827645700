"""Fisher information and Cramer-Rao lower bounds for the calibration design.

The per-shot information of the 2(2d-1) binomial measurements is summed over
the modulation grid with weights 1/(p(1-p)); the partial derivatives of p
are exact closed forms (Chebyshev derivative identities for the swap angle
and the phases), so no step size is tuned and no point fails for want of a
converged gradient.  Each point is one closed-form pass: one cos/sin of the
grid and one Chebyshev pair give the derivatives and p, the latter with
exact_signal's arithmetic and bits.  The pre-asymptotic closed forms (valid
for d*theta << 1) and a depth-scan with log-log slope estimates expose the
variance-scaling transition around d ~ 1/theta.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .estimators import variance_theory_theta, variance_theory_varphi
from .signal_model import _signal, omega_grid
from .su2 import FsimParams, _p_value, chebyshev_tu

__all__ = [
    "SingularFisherError",
    "crlb",
    "transition_scan",
    "windowed_slopes",
]

PARAM_NAMES = ("theta", "varphi", "chi")

_PROB_CLIP = 1e-12


class SingularFisherError(np.linalg.LinAlgError):
    """Fisher matrix is numerically singular; some direction is unbounded."""

    def __init__(self, direction: np.ndarray):
        self.direction = direction
        weights = ", ".join(f"{n}={w:+.3f}" for n, w in zip(PARAM_NAMES, direction))
        super().__init__(f"Fisher matrix is singular, unbounded direction ({weights})")


@dataclass(frozen=True)
class FisherMatrix:
    """3x3 information over (theta, varphi, chi) for M shots per circuit, and how many grid p were clipped."""

    entries: np.ndarray = field(repr=False)
    clamped_points: int


@dataclass(frozen=True)
class CrlbReport:
    """diag(I^{-1}) next to the pre-asymptotic closed forms."""

    crlb_theta: float
    crlb_varphi: float
    crlb_chi: float
    preasymptotic_theta: float
    preasymptotic_varphi: float
    preasymptotic_chi: float
    regime_flag: str


def gradient_grid(d: int, params: FsimParams) -> tuple[np.ndarray, np.ndarray]:
    """((3, 2(2d-1)) array of dp/dxi over the grid, exact up to rounding; p itself).

    Rows are xi = (theta, varphi, chi), columns p_X then p_Y, the order of p,
    whose values are exact_signal's to the bit.  With
    w = omega - varphi, x = cos(w) cos(theta), T = T_d(x), Q = U_{d-1}(x):
    h = i e^{-i(chi+omega)} sin(theta) g, g = Q (T + i Q sin(w) cos(theta)).
    dh/dchi = -i h and dh/dvarphi = -i e^{-i(chi+omega)} sin(theta) dg/dw.
    All derivatives use T_d' = d U_{d-1} and U_{d-1}' = (x U_{d-1} - d T_d)/(1 - x^2).
    A signal at the probabilities' rounding level (theta = 0 or pi/2, where h
    vanishes for every phase) carries no phase information: those rows are 0.
    """
    omegas = omega_grid(d)
    n = len(omegas)
    w = omegas - params.varphi
    sw, cw = np.sin(w), np.cos(w)
    st, ct = np.sin(params.theta), np.cos(params.theta)
    x = cw * ct
    t, q = chebyshev_tu(d, cw, sw, params.theta)
    # sq = sin(theta) dQ/dtheta and dq = dQ/dw = sin(w) cos(theta) (d T - x Q)/(1 - x^2), with
    # 1 - x^2 = sin^2 w + cos^2 w sin^2 theta (no cancellation); both are 0 where it vanishes.
    one_minus_x2 = sw * sw + (cw * st) ** 2
    dtxq = d * t - x * q
    sq = np.divide(st * st, one_minus_x2, out=np.zeros(n), where=one_minus_x2 > 0.0)
    sq *= cw * dtxq
    dq = np.divide(dtxq, one_minus_x2, out=np.zeros(n), where=one_minus_x2 > 0.0)
    dq *= sw * ct
    del x, one_minus_x2, dtxq
    # Rows go straight into grads and temporaries die early: deep grids are
    # tens of thousands of points.
    grads = np.empty((3, 2 * n))
    phase = 1j * np.exp(-1j * (params.chi + omegas))
    dh = ct * q * t + t * sq - d * st * st * cw * q * q
    dh = phase * (dh + 1j * sw * q * (np.cos(2 * params.theta) * q + 2 * ct * sq))
    grads[0, :n], grads[0, n:] = dh.real, dh.imag
    h = phase * st * q * (t + 1j * ct * sw * q)
    del sq, dh
    signal = _signal(omegas, _p_value(w, sw, t, q, params.theta), q, params)
    p = np.concatenate([0.5 + signal.real, 0.5 + signal.imag])
    del signal
    if np.abs(h).max() <= n * np.finfo(float).eps:
        grads[1:] = 0.0
        return grads, p
    # dg/dw = Q' T + Q T' + i cos(theta) (cos(w) Q^2 + 2 sin(w) Q Q'), T' = -d cos(theta) sin(w) Q.
    dg = dq * t + q * (-d * ct * sw * q) + 1j * ct * (cw * q * q + 2.0 * sw * q * dq)
    dh = -(phase * st) * dg
    grads[1, :n], grads[1, n:] = dh.real, dh.imag
    grads[2, :n], grads[2, n:] = h.imag, -h.real
    return grads, p


def fisher_matrix(d: int, params: FsimParams, m_shots: int) -> FisherMatrix:
    """I_kk' = M sum_j dp/dxi_k dp/dxi_k' / (p (1 - p)) over both input states."""
    grads, p = gradient_grid(d, params)
    clamped = int(((p < _PROB_CLIP) | (p > 1.0 - _PROB_CLIP)).sum())
    p = np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
    weights = 1.0 / (p * (1.0 - p))
    entries = m_shots * (grads * weights) @ grads.T
    entries = 0.5 * (entries + entries.T)
    return FisherMatrix(entries=entries, clamped_points=clamped)


def preasymptotic_variances(d: int, theta: float, m_shots: int):
    """Closed-form optimal variances for d*theta << 1.

    Var(theta) and Var(varphi) are the estimators' variance_theory_theta and
    variance_theory_varphi; Var(chi) = (4d^2-1)/((d^2-1) 4Md(2d-1) theta^2).
    """
    base = variance_theory_theta(d, m_shots)
    return (
        base,
        variance_theory_varphi(d, m_shots, theta),
        base * (4.0 * d * d - 1) / ((d * d - 1) * theta * theta),
    )


def regime_flag(d: int, theta: float) -> str:
    """Artifact convention: pre-asymptotic below d*theta = 0.1, asymptotic above 3."""
    dt = d * abs(theta)
    if dt < 0.1:
        return "pre-asymptotic"
    if dt > 3.0:
        return "asymptotic"
    return "transition"


def _inverse_diagonal(entries: np.ndarray) -> np.ndarray:
    # Precondition by the diagonal so the phase block's wide dynamic range
    # does not poison the 3x3 inversion.
    diag = np.diag(entries)
    if (diag <= 0.0).any():
        k = int(np.argmin(diag))
        raise SingularFisherError(np.eye(3)[k])
    s = 1.0 / np.sqrt(diag)
    scaled = entries * s[:, None] * s[None, :]
    vals, vecs = np.linalg.eigh(scaled)
    if vals[0] <= 1e-13 * vals[-1]:
        raise SingularFisherError(vecs[:, 0] * s)
    return np.diag(np.linalg.inv(scaled)) * s * s


def crlb(d: int, params: FsimParams, m_shots: int) -> CrlbReport:
    """Exact CRLB diagonal plus the pre-asymptotic closed forms and regime flag."""
    if d < 2:
        raise ValueError("the closed forms need depth >= 2")
    info = fisher_matrix(d, params, m_shots)
    diag = _inverse_diagonal(info.entries)
    pre = preasymptotic_variances(d, params.theta, m_shots)
    return CrlbReport(
        crlb_theta=float(diag[0]),
        crlb_varphi=float(diag[1]),
        crlb_chi=float(diag[2]),
        preasymptotic_theta=pre[0],
        preasymptotic_varphi=pre[1],
        preasymptotic_chi=pre[2],
        regime_flag=regime_flag(d, params.theta),
    )


def windowed_slopes(depths, values) -> np.ndarray:
    """Per-point log-log slope via least squares over the point and up to two neighbors each side."""
    x = np.log(np.asarray(depths, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - 2), min(n, i + 3)
        out[i] = np.polyfit(x[lo:hi], y[lo:hi], 1)[0]
    return out


def transition_scan(params: FsimParams, m_shots: int, depth_grid) -> list[dict]:
    """CRLB table at the gate angles params over an ascending depth grid, with windowed slope estimates.

    Rows carry (d, crlb_theta, crlb_varphi, crlb_chi, slope_theta,
    slope_varphi, slope_chi, the closed forms and the regime flag); the
    slopes of crlb_varphi cross from about -4 to -3 near d = 1/theta.
    """
    depths = [int(d) for d in depth_grid]
    if depths != sorted(depths):
        raise ValueError("depth grid must be ascending")
    reports = [asdict(crlb(d, params, m_shots)) for d in depths]
    slopes = {f"slope_{n}": windowed_slopes(depths, [r[f"crlb_{n}"] for r in reports]) for n in PARAM_NAMES}
    rows = []
    for i, (d, rep) in enumerate(zip(depths, reports)):
        # d, the three CRLBs and their slopes, then the rest of the report: closed forms, regime flag.
        crlbs = {f"crlb_{n}": rep.pop(f"crlb_{n}") for n in PARAM_NAMES}
        rows.append({"d": d, **crlbs, **{name: float(s[i]) for name, s in slopes.items()}, **rep})
    return rows
