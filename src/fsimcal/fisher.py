"""Fisher information and Cramer-Rao lower bounds for the calibration design.

The per-shot information of the 2(2d-1) binomial measurements is summed over
the modulation grid with weights 1/(p(1-p)); the partial derivatives of p
are exact closed forms (Chebyshev derivative identities for the swap angle
and the phases), so no step size is tuned and no point fails for want of a
converged gradient.  The grid is summed in fixed-size blocks of columns, so
memory stays the same at any depth; in each block signal_model.signal_factors,
the one route to h that exact_signal takes too, gives h once and p from it.  The
swap-angle and phase derivatives are formed in real arithmetic, the real and
imaginary parts of h's phase factor times a real pair, written in place into
the gradient array.  The pre-asymptotic closed forms (valid for d*theta << 1)
and a depth-scan with log-log slope estimates expose the variance-scaling
transition around d ~ 1/theta.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .estimators import variance_theory_theta, variance_theory_varphi
from .signal_model import signal_factors
from .su2 import FsimParams

__all__ = [
    "SingularFisherError",
    "crlb",
    "transition_scan",
    "windowed_slopes",
]

PARAM_NAMES = ("theta", "varphi", "chi")

_PROB_CLIP = 1e-12
# Grid columns per block of the Fisher sum: about 1 MiB of temporaries at any depth.
_BLOCK_POINTS = 4096


class SingularFisherError(np.linalg.LinAlgError):
    """Fisher matrix is numerically singular; some direction is unbounded."""

    def __init__(self, direction: np.ndarray):
        self.direction = direction
        weights = ", ".join(f"{n}={w:+.3f}" for n, w in zip(PARAM_NAMES, direction))
        super().__init__(f"Fisher matrix is singular, unbounded direction ({weights})")


class FisherMatrix(NamedTuple):
    """3x3 information over (theta, varphi, chi) for M shots per circuit, and how many grid p were clipped."""

    entries: np.ndarray
    clamped_points: int


class CrlbReport(NamedTuple):
    """diag(I^{-1}) next to the pre-asymptotic closed forms."""

    crlb_theta: float
    crlb_varphi: float
    crlb_chi: float
    preasymptotic_theta: float
    preasymptotic_varphi: float
    preasymptotic_chi: float
    regime_flag: str


def gradient_grid(d: int, params: FsimParams, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """((3, 2m) array of dp/dxi over grid columns start..stop-1, exact up to rounding; h there).

    The m columns default to the whole grid of 2d-1.  Rows are xi = (theta,
    varphi, chi), columns p_X then p_Y, the order of p = 1/2 + (Re h, Im h).
    With w = omega - varphi, x = cos(w) cos(theta) and (P, Q) from su2.pq_values,
    T = Re P = T_d(x), Q = U_{d-1}(x): h = phase sin(theta) Q P, phase = i e^{-i(chi+varphi)} e^{-iw},
    all from signal_factors, exact_signal's one route, so h is exact_signal's bit for bit; dh/dchi = -i h.
    The other rows are real arithmetic: dh/dtheta = phase (a + i b), dh/dvarphi = phase (c + i e),
    a = (cos(theta) Q + sq) T - d sin^2(theta) cos(w) Q^2, b = sin(w) Q (cos(2 theta) Q + 2 cos(theta) sq),
    c = sin(theta) (d cos(theta) sin(w) Q^2 - dq T), e = -sin(theta) cos(theta) (cos(w) Q^2 + 2 sin(w) Q dq),
    with sq = sin(theta) dQ/dtheta and dq = dQ/dw; a row's p_X half is Re(phase) re - Im(phase) im, its
    p_Y half Re(phase) im + Im(phase) re.  T_d' = d U_{d-1} and U_{d-1}' = (x U_{d-1} - d T_d)/(1 - x^2).
    """
    n = 2 * d - 1
    w = np.arange(start, n if stop is None else stop) * (np.pi / n) - params.varphi
    m = len(w)
    cw, sw, p, q, phase, h = signal_factors(d, w, params)
    st, ct = np.sin(params.theta), np.cos(params.theta)
    t = p.real
    # dq = sin(w) cos(theta) r and sq = sin^2(theta) cos(w) r, r = (d T - x Q)/(1 - x^2) with
    # 1 - x^2 = sin^2 w + cos^2 w sin^2 theta (no cancellation); r = 0 where it vanishes.
    one_minus_x2 = sw * sw + (cw * st) ** 2
    dq = np.divide(d * t - cw * ct * q, one_minus_x2, out=np.zeros(m), where=one_minus_x2 > 0.0)
    sq = (st * st) * cw * dq
    dq *= ct * sw
    q2 = q * q
    a = ct * q
    a += sq
    a *= t
    a -= (d * st * st) * cw * q2
    b = np.cos(2 * params.theta) * q
    b += (2 * ct) * sq
    b *= sw
    b *= q
    c = q2 * (d * ct * st)
    c *= sw
    c -= st * dq * t
    e = sw * dq
    e *= 2.0 * q
    e += cw * q2
    e *= -st * ct
    # w's array is free scratch once sw and cw are formed.
    grads, s = np.empty((3, 2 * m)), w
    for row, re, im in ((0, a, b), (1, c, e)):
        np.multiply(phase.real, re, out=grads[row, :m])
        grads[row, :m] -= np.multiply(phase.imag, im, out=s)
        np.multiply(phase.real, im, out=grads[row, m:])
        grads[row, m:] += np.multiply(phase.imag, re, out=s)
    grads[2, :m] = h.imag
    np.negative(h.real, out=grads[2, m:])
    return grads, h


def fisher_matrix(d: int, params: FsimParams, m_shots: int) -> FisherMatrix:
    """I_kk' = M sum_j dp/dxi_k dp/dxi_k' / (p (1 - p)) over both input states.

    The grid is summed in blocks of _BLOCK_POINTS columns, so memory does not
    grow with depth.  A signal at the probabilities' rounding level (theta = 0
    or pi/2, where h vanishes for every phase) carries no phase information:
    when max |h| over the grid is there, the phase rows and columns are 0.
    """
    n = 2 * d - 1
    entries, clamped, h_max = np.zeros((3, 3)), 0, 0.0
    for start in range(0, n, _BLOCK_POINTS):
        grads, h = gradient_grid(d, params, start, min(start + _BLOCK_POINTS, n))
        h_max = max(h_max, np.abs(h).max())
        p = np.empty(2 * len(h))
        np.add(h.real, 0.5, out=p[: len(h)])
        np.add(h.imag, 0.5, out=p[len(h) :])
        clamped += np.count_nonzero((p < _PROB_CLIP) | (p > 1.0 - _PROB_CLIP))
        np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP, out=p)
        weights = 1.0 - p
        weights *= p
        np.divide(1.0, weights, out=weights)
        entries += m_shots * ((grads * weights) @ grads.T)
    if h_max <= n * np.finfo(float).eps:
        entries[1:] = entries[:, 1:] = 0.0
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
    """Per-point log-log slope: sum (x - mean x)(y - mean y) / sum (x - mean x)^2 over the point +-2 neighbors."""
    x = np.log(np.asarray(depths, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    n = len(x)
    # Row i holds window i left-aligned and zero-padded to 5, so each row sum adds in the window's order.
    lo = np.maximum(np.arange(n) - 2, 0)
    cols = lo[:, None] + np.arange(5)
    inside = cols < np.minimum(np.arange(n) + 3, n)[:, None]
    cols = np.minimum(cols, n - 1)
    counts = inside.sum(axis=1)

    def deviations(v):
        window = np.where(inside, v[cols], 0.0)
        return np.where(inside, window - (window.sum(axis=1) / counts)[:, None], 0.0)

    dx, dy = deviations(x), deviations(y)
    return (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)


def transition_scan(params: FsimParams, m_shots: int, depth_grid) -> list[dict]:
    """CRLB table at the gate angles params over two or more increasing depths, with windowed slope estimates.

    Rows carry (d, crlb_theta, crlb_varphi, crlb_chi, slope_theta,
    slope_varphi, slope_chi, the closed forms and the regime flag); the
    slopes of crlb_varphi cross from about -4 to -3 near d = 1/theta.
    """
    depths = [int(d) for d in depth_grid]
    if len(depths) < 2 or depths != sorted(set(depths)):
        raise ValueError("depth grid must hold two or more increasing depths")
    reports = [crlb(d, params, m_shots)._asdict() for d in depths]
    slopes = {f"slope_{n}": windowed_slopes(depths, [r[f"crlb_{n}"] for r in reports]) for n in PARAM_NAMES}
    rows = []
    for i, (d, rep) in enumerate(zip(depths, reports)):
        # d, the three CRLBs and their slopes, then the rest of the report: closed forms, regime flag.
        crlbs = {f"crlb_{n}": rep.pop(f"crlb_{n}") for n in PARAM_NAMES}
        rows.append({"d": d, **crlbs, **{name: float(s[i]) for name, s in slopes.items()}, **rep})
    return rows
