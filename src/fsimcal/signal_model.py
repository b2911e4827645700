"""Measurement signal of the phase-modulated periodic calibration circuit.

Preparing the Bell states (|01> + |10>)/sqrt(2) and (|01> + i|10>)/sqrt(2),
running d gate applications interleaved with Z rotations of angle omega and
measuring the |01> outcome gives transition probabilities p_X and p_Y.  The
reconstruction h = p_X - 1/2 + i (p_Y - 1/2) is a trigonometric polynomial
sum_{k=-d+1}^{d-1} c_k e^{2 i k omega}; theta lives in the coefficient
moduli and (varphi, chi) only in their phases, which is what the estimators
exploit.  Sampling on the uniform grid omega_j = j pi / (2d-1) makes the DFT
recover the c_k exactly in the noiseless case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .su2 import FsimParams, pq_values

__all__ = [
    "FourierSpectrum",
    "omega_grid",
    "exact_signal",
    "spectrum_from_h",
]


def omega_grid(depth: int) -> np.ndarray:
    """The 2d-1 modulation angles omega_j = j pi / (2d-1), j = 0..2d-2."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = 2 * depth - 1
    return np.arange(n) * (np.pi / n)


@dataclass(frozen=True)
class FourierSpectrum:
    """DFT coefficients of the reconstruction: slot j holds c_j for j < d and c_{j-(2d-1)} above."""

    coefficients: np.ndarray = field(repr=False)
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=complex))
        if self.coefficients.shape != (2 * self.depth - 1,):
            raise ValueError("spectrum must hold exactly 2d-1 coefficients")

    @property
    def nonnegative(self) -> np.ndarray:
        """Coefficients c_0 .. c_{d-1}."""
        return self.coefficients[: self.depth]


def exact_signal(d, omegas, params: FsimParams) -> np.ndarray:
    """Noiseless h(omega) = i e^{-i(chi+varphi)} e^{-2i(omega-varphi)} sin(theta) P Q.

    d is one depth or an array of depths, one per omega.
    """
    omegas = np.asarray(omegas, dtype=float)
    return _signal(omegas, *pq_values(d, omegas - params.varphi, params.theta), params)


def _signal(omegas, p, q, params: FsimParams) -> np.ndarray:
    """h from (P, Q) at omegas - varphi: exact_signal and the Fisher weights share it."""
    return np.exp(1j * (params.varphi - params.chi - 2.0 * omegas)) * p * (1j * np.sin(params.theta)) * q


def spectrum_from_h(h, depth: int) -> FourierSpectrum:
    """Spectrum from an already-reconstructed h vector on the canonical grid."""
    h = np.asarray(h, dtype=complex)
    n = 2 * depth - 1
    if h.shape != (n,):
        raise ValueError(f"expected {n} values for depth {depth}, got {h.shape}")
    return FourierSpectrum(coefficients=np.fft.fft(h) / n, depth=depth)
