"""Inference of gate angles from measured Fourier coefficients.

The Fourier estimators read c, the d nonnegative-index coefficients
c_0 .. c_{d-1}, over the last axis of an array, so one call serves every
replicate of a batch and each row gets the bits it gets alone.  The
swap-angle estimate averages their moduli; the phase estimate applies a
weighted phase average (inverse discrete Laplacian weighting, equivalently a
parabolic window) to the sequential phase differences, which carry 2*varphi
without any unwrapping.  Variants here: a depolarizing-corrected pair
(fidelity from the k = 0 excess), a progressive-difference swap-angle
estimator over a depth ladder, and a parabolic peak fit around the
phase-matched angle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "DegenerateCoefficientError",
    "fourier_estimate",
    "estimate_alpha_corrected",
    "theta_pd_estimate",
    "peak_fit",
    "variance_theory_theta",
    "variance_theory_varphi",
]

# Coefficients with modulus below this multiple of 1/sqrt(M(2d-1)) get a
# low-SNR warning attached to the report; their phase is essentially noise.
LOW_SNR_FLOOR_SCALE = 1e-3


class DegenerateCoefficientError(ValueError):
    """A required Fourier coefficient is exactly zero (phase undefined)."""


class EstimateReport(NamedTuple):
    """All estimates from one calibration replicate; its _asdict() is the replicate's record, keys in field order.

    The later stages fill alpha_hat, theta_pd and theta_pf in the record; diagnostics holds only what they add:
    (config, seed, point, replicate) regenerates the coefficients.
    """

    theta_hat: float
    varphi_hat: float
    alpha_hat: float | None
    theta_pd: float | None
    theta_pf: float | None
    var_theory_theta: float
    var_theory_varphi: float
    warnings: list
    diagnostics: dict


def variance_theory_theta(d: int, m_shots: int) -> float:
    """Var of the modulus-average swap-angle estimator, 1/(4 M d (2d-1))."""
    return 1.0 / (4.0 * m_shots * d * (2 * d - 1))


def variance_theory_varphi(d: int, m_shots: int, theta: float) -> float:
    """Var of the weighted-phase-average estimator, 3/(4 M d (2d-1)(d^2-1) theta^2)."""
    return 3.0 / (4.0 * m_shots * d * (2 * d - 1) * (d * d - 1) * theta * theta)


def variance_theory_theta_pd(d: int, m_shots: int) -> float:
    """Var of the progressive-difference estimator, 3/(4 M d (d+1)(d+2))."""
    return 3.0 / (4.0 * m_shots * d * (d + 1) * (d + 2))


def wpa_solve(values) -> np.ndarray:
    """(1^T D^{-1} v) / (1^T D^{-1} 1) over the last axis, for the discrete Laplacian D = tridiag(-1, 2, -1).

    D is symmetric, so both contractions reuse the single solve D a = 1,
    whose closed form a_i = (i+1)(n-i)/2 is the parabolic window.  Each row
    is its own dot product, (..., 1, n) @ (n, 1), as a lone row is: one
    matrix-vector product over the rows would sum in another order.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if n < 1:
        raise ValueError("values must be non-empty")
    i = np.arange(n)
    a = (i + 1) * (n - i) / 2.0
    return (values[..., None, :] @ a[:, None])[..., 0, 0] / a.sum()


def sequential_phase_diffs(c) -> np.ndarray:
    """Principal-branch phases of c_k conj(c_{k+1}), k = 0..d-2, over the last axis of c = c_0 .. c_{d-1}.

    Each difference estimates 2*varphi without phase unwrapping.  A zero
    coefficient's differences are meaningless; fourier_estimate fails its row.
    np.multiply keeps its operand order, so a row gets the same bits alone or
    in any batch.
    """
    if np.shape(c)[-1] < 2:
        raise ValueError("sequential phase differences need depth >= 2")
    return np.angle(np.multiply(c[..., :-1], np.conj(c[..., 1:])))


def fourier_estimate(amps, theta_hat: float, varphi_hat: float, m_shots: int) -> EstimateReport:
    """The report of one replicate from its row of a batch's Fourier estimators.

    amps = |c_0| .. |c_{d-1}|, theta_hat their mean and varphi_hat = wpa(Delta)/2,
    which lands in (-pi/2, pi/2] (the phase is only identifiable mod pi).
    A zero coefficient raises DegenerateCoefficientError: its phase is
    undefined.  Theoretical variances use theta_hat as plug-in, a warning
    names the low-SNR k, the later stages' fields are None, and the diagnostics start empty.
    """
    d = len(amps)
    warn = []
    floor = LOW_SNR_FLOOR_SCALE / math.sqrt(m_shots * (2 * d - 1))
    low = np.flatnonzero(amps < floor)  # a zero coefficient is among them
    if low.size:
        if not amps[low].all():
            raise DegenerateCoefficientError("zero coefficient among k = 0..d-1")
        warn.append(f"low-snr coefficients at k={low.tolist()}")
    return EstimateReport(
        theta_hat=theta_hat, varphi_hat=varphi_hat, alpha_hat=None, theta_pd=None, theta_pf=None,
        var_theory_theta=variance_theory_theta(d, m_shots),
        var_theory_varphi=variance_theory_varphi(d, m_shots, theta_hat),
        warnings=warn, diagnostics={},
    )


def estimate_alpha_corrected(amps):
    """Depolarizing-corrected pairs (alpha_hat, theta_hat) over the last axis of amps = |c_0| .. |c_{d-1}|.

    A global depolarizing channel scales every coefficient by the circuit
    fidelity alpha and shifts only c_0, so
    alpha_hat = 1 - 2 sqrt(2) (|c_0| - mean_{k>=1} |c_k|) and
    theta_hat = mean_{k>=1} |c_k| / alpha_hat.  A row whose alpha_hat is
    nonpositive has collapsed and gets theta_hat NaN.
    """
    amps = np.asarray(amps, dtype=float)
    if amps.shape[-1] < 3:
        raise ValueError("fidelity correction needs depth >= 3")
    rest = amps[..., 1:].mean(axis=-1)
    alpha_hat = 1.0 - 2.0 * math.sqrt(2.0) * (amps[..., 0] - rest)
    return alpha_hat, np.divide(rest, alpha_hat, out=np.full_like(rest, np.nan), where=alpha_hat > 0.0)


def theta_pd_estimate(amplitudes, base_depth: int, m_shots: int, var_phi_pri):
    """Progressive-difference swap angles from |h| on the depth ladder d..3d, one per row.

    Each row of amplitudes holds the d+1 measured moduli at depths d, d+2,
    ..., 3d with the modulation angle held at the a-priori phase estimate,
    whose variance is that row's var_phi_pri.  Returns (theta_pd, var_theory,
    bias_budget): var_theory is one float, and each row's bias budget
    (13/2) d^2 theta Var(phi_pri) + 37 (d theta)^3 uses its theta_pd as
    plug-in.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.shape[-1:] != (base_depth + 1,):
        raise ValueError(f"expected {base_depth + 1} ladder amplitudes (depths d, d+2, ..., 3d)")
    theta_pd = 0.5 * wpa_solve(np.diff(amplitudes))
    var_theory = variance_theory_theta_pd(base_depth, m_shots)
    t = np.abs(theta_pd)
    dt = base_depth * t
    return theta_pd, var_theory, 6.5 * base_depth**2 * t * np.asarray(var_phi_pri) + 37.0 * (dt * dt * dt)


class PeakFitResult(NamedTuple):
    """Outcome of the parabolic peak fit: theta_pf is None when rejected, beta1/beta2 (the vertex) for a flat fit."""

    theta_pf: float | None
    beta0: float
    beta1: float | None
    beta2: float | None
    accepted: bool


def peak_fit_operator(d: int, n: int):
    """The peak-fit stage's n offsets o_j = s u_j (s = pi/d) and its (3, n) least-squares operator for peak_fit.

    u_j = j/(n-1) - 1/2 gives one design [1, u, u^2] at every d (condition number 11.9 at n = 15); its operator
    R^-1 Q^T, from the reduced QR in O(n) memory, is reversed and scaled by 1/s^2, 1/s, 1 to give (a, b, c).
    """
    s, u = math.pi / d, np.arange(n) / (n - 1) - 0.5
    q, r = np.linalg.qr(np.vander(u, 3, increasing=True))
    return s * u, np.linalg.solve(r, q.T)[::-1] / np.array([[s * s], [s], [1.0]])


def peak_fit(operator, amplitudes, d: int, phi_pri: float, beta_thr: float | None = None) -> PeakFitResult:
    """Least-squares parabola through one row's moduli |h_j| at omega_j = phi_pri + o_j around the peak.

    (a, b, c) = operator @ amplitudes, with the stage's peak_fit_operator, so p = beta0 (w - beta1)^2 + beta2 has
    beta0 = a, beta1 = phi_pri - b/(2a) and beta2 = c - b^2/(4a), where b is small near the peak and nothing cancels.
    Accepts iff beta0 < 0 (concave) and |beta1 - phi_pri| < beta_thr, by default pi/(2d), half the local sampling
    half-width; on acceptance theta_pf = beta2 / d.
    """
    if beta_thr is None:
        beta_thr = math.pi / (2.0 * d)
    a, b, c = (operator @ amplitudes).tolist()
    if a == 0.0:
        return PeakFitResult(None, a, None, None, False)
    shift = -b / (2.0 * a)
    beta1, beta2 = phi_pri + shift, c - b * b / (4.0 * a)
    if a < 0.0 and abs(shift) < beta_thr:
        return PeakFitResult(beta2 / d, a, beta1, beta2, True)
    return PeakFitResult(None, a, beta1, beta2, False)
