"""Inference of gate angles from measured Fourier spectra.

The swap-angle estimate averages the nonnegative-index coefficient moduli;
the phase estimate applies a weighted phase average (inverse discrete
Laplacian weighting, equivalently a parabolic window) to the sequential
phase differences, which carry 2*varphi without any unwrapping.  Variants
here: a depolarizing-corrected pair (fidelity from the k = 0 excess), a
progressive-difference swap-angle estimator over a depth ladder, and a
parabolic peak fit around the phase-matched angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .signal_model import FourierSpectrum

__all__ = [
    "DegenerateCoefficientError",
    "FidelityCollapseError",
    "EstimateReport",
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


class FidelityCollapseError(ValueError):
    """The fidelity estimate came out nonpositive."""


@dataclass(kw_only=True)
class EstimateReport:
    """All estimates from one calibration replicate; the fields, in order, are its record's keys."""

    theta_hat: float
    varphi_hat: float
    alpha_hat: float | None = None
    theta_pd: float | None = None
    theta_pf: float | None = None
    var_theory_theta: float
    var_theory_varphi: float
    warnings: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def variance_theory_theta(d: int, m_shots: int) -> float:
    """Var of the modulus-average swap-angle estimator, 1/(4 M d (2d-1))."""
    return 1.0 / (4.0 * m_shots * d * (2 * d - 1))


def variance_theory_varphi(d: int, m_shots: int, theta: float) -> float:
    """Var of the weighted-phase-average estimator, 3/(4 M d (2d-1)(d^2-1) theta^2)."""
    return 3.0 / (4.0 * m_shots * d * (2 * d - 1) * (d * d - 1) * theta * theta)


def variance_theory_theta_pd(d: int, m_shots: int) -> float:
    """Var of the progressive-difference estimator, 3/(4 M d (d+1)(d+2))."""
    return 3.0 / (4.0 * m_shots * d * (d + 1) * (d + 2))


def wpa_solve(values) -> float:
    """(1^T D^{-1} v) / (1^T D^{-1} 1) for the discrete Laplacian D = tridiag(-1, 2, -1).

    D is symmetric, so both contractions reuse the single solve D a = 1,
    whose closed form a_i = (i+1)(n-i)/2 is the parabolic window.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 1:
        raise ValueError("values must be non-empty")
    i = np.arange(n)
    a = (i + 1) * (n - i) / 2.0
    return float(a @ values / a.sum())


def sequential_phase_diffs(spectrum: FourierSpectrum) -> np.ndarray:
    """Principal-branch phases of c_k conj(c_{k+1}), k = 0..d-2.

    Uses only nonnegative-index coefficients; each difference estimates
    2*varphi without phase unwrapping.
    """
    d = spectrum.depth
    if d < 2:
        raise ValueError("sequential phase differences need depth >= 2")
    c = spectrum.nonnegative
    if (np.abs(c) == 0.0).any():
        raise DegenerateCoefficientError("zero coefficient among k = 0..d-1")
    return np.angle(c[:-1] * np.conj(c[1:]))


def fourier_estimate(spectrum: FourierSpectrum, m_shots: int) -> EstimateReport:
    """Swap angle and phase from a measured spectrum.

    theta_hat = (1/d) sum_{k=0}^{d-1} |c_k|; varphi_hat = wpa(Delta)/2,
    which lands in (-pi/2, pi/2] (the phase is only identifiable mod pi).
    Theoretical variances are attached with theta_hat as plug-in; the depth
    and zero-coefficient checks are sequential_phase_diffs'.
    """
    d = spectrum.depth
    delta = sequential_phase_diffs(spectrum)
    amps = np.abs(spectrum.nonnegative)
    theta_hat = float(amps.mean())
    varphi_hat = 0.5 * wpa_solve(delta)
    warn = []
    floor = LOW_SNR_FLOOR_SCALE / math.sqrt(m_shots * (2 * d - 1))
    low = np.flatnonzero(amps < floor)
    if low.size:
        warn.append(f"low-snr coefficients at k={low.tolist()}")
    return EstimateReport(
        theta_hat=theta_hat,
        varphi_hat=float(varphi_hat),
        var_theory_theta=variance_theory_theta(d, m_shots),
        var_theory_varphi=variance_theory_varphi(d, m_shots, theta_hat),
        warnings=warn,
        diagnostics={
            "amplitudes": amps.tolist(),
            "phase_diffs": delta.tolist(),
        },
    )


def estimate_alpha_corrected(spectrum: FourierSpectrum):
    """Depolarizing-corrected pair (alpha_hat, theta_hat).

    A global depolarizing channel scales every coefficient by the circuit
    fidelity alpha and shifts only c_0, so
    alpha_hat = 1 - 2 sqrt(2) (|c_0| - mean_{k>=1} |c_k|) and
    theta_hat = mean_{k>=1} |c_k| / alpha_hat.
    """
    d = spectrum.depth
    if d < 3:
        raise ValueError("fidelity correction needs depth >= 3")
    amps = np.abs(spectrum.nonnegative)
    rest = float(amps[1:].mean())
    alpha_hat = 1.0 - 2.0 * math.sqrt(2.0) * (float(amps[0]) - rest)
    if alpha_hat <= 0.0:
        raise FidelityCollapseError(f"alpha_hat = {alpha_hat} <= 0")
    return alpha_hat, rest / alpha_hat


def theta_pd_estimate(amplitudes, base_depth: int, m_shots: int, var_phi_pri: float):
    """Progressive-difference swap angle from |h| on the depth ladder d..3d.

    amplitudes are the d+1 measured moduli at depths d, d+2, ..., 3d with the
    modulation angle held at the a-priori phase estimate, whose variance is
    var_phi_pri.  Returns (theta_pd, var_theory, bias_budget); the bias budget
    (13/2) d^2 theta Var(phi_pri) + 37 (d theta)^3 uses theta_pd as plug-in.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.shape != (base_depth + 1,):
        raise ValueError(f"expected {base_depth + 1} ladder amplitudes (depths d, d+2, ..., 3d)")
    gamma = np.diff(amplitudes)
    theta_pd = 0.5 * wpa_solve(gamma)
    var_theory = variance_theory_theta_pd(base_depth, m_shots)
    t = abs(theta_pd)
    budget = 6.5 * base_depth**2 * t * var_phi_pri + 37.0 * (base_depth * t) ** 3
    return float(theta_pd), var_theory, budget


@dataclass(frozen=True)
class PeakFitResult:
    """Outcome of the parabolic peak fit; theta_pf is None when rejected.

    beta1/beta2 (vertex location and value) are None for an exactly flat fit,
    where the vertex is undefined.
    """

    theta_pf: float | None
    beta0: float
    beta1: float | None
    beta2: float | None
    accepted: bool


def peak_fit(omegas, amplitudes, d: int, phi_pri: float, beta_thr: float | None = None) -> PeakFitResult:
    """Least-squares parabola through (omega_j, |h_j|) around the peak.

    Fits p = beta0 (w - beta1)^2 + beta2 in expanded form a w^2 + b w + c and
    accepts iff beta0 < 0 (concave) and |beta1 - phi_pri| < beta_thr; on
    acceptance theta_pf = beta2 / d.  beta_thr defaults to pi/(2d), half the
    local sampling half-width.
    """
    omegas = np.asarray(omegas, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if len(omegas) < 3 or len(omegas) != len(amplitudes):
        raise ValueError("need n >= 3 matched (omega, amplitude) samples")
    if beta_thr is None:
        beta_thr = math.pi / (2.0 * d)
    design = np.stack([omegas**2, omegas, np.ones_like(omegas)], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, amplitudes, rcond=None)
    if rank < 3:
        raise ValueError("singular normal equations (degenerate omega samples)")
    a, b, c = (float(v) for v in coef)
    if a == 0.0:
        return PeakFitResult(None, a, None, None, False)
    beta1 = -b / (2.0 * a)
    beta2 = c - b * b / (4.0 * a)
    if a > 0.0 or abs(beta1 - phi_pri) >= beta_thr:
        return PeakFitResult(None, a, beta1, beta2, False)
    return PeakFitResult(beta2 / d, a, beta1, beta2, True)
