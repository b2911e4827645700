"""Measurement signal of the phase-modulated periodic calibration circuit.

Preparing the Bell states (|01> + |10>)/sqrt(2) and (|01> + i|10>)/sqrt(2),
running d gate applications interleaved with Z rotations of angle omega and
measuring the |01> outcome gives transition probabilities p_X and p_Y.  The
reconstruction h = p_X - 1/2 + i (p_Y - 1/2) is a trigonometric polynomial
sum_{k=-d+1}^{d-1} c_k e^{2 i k omega}; theta lives in the coefficient
moduli and (varphi, chi) only in their phases, which is what the estimators
exploit.  Sampling on the uniform grid omega_j = j pi / (2d-1) makes the DFT
recover the c_k exactly in the noiseless case; spectrum_from_h returns
them as a plain array in DFT slot order, and the estimators take its first d
entries, c_0 .. c_{d-1}.
"""

from __future__ import annotations

import numpy as np

from .su2 import FsimParams, pq_values

__all__ = [
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


def signal_factors(d, w, params: FsimParams):
    """(cos w, sin w, P, Q, phase, h) at w = omega - varphi: one route to h for exact_signal and fisher.gradient_grid.

    h = phase sin(theta) Q P with phase = i e^{-i(chi+varphi)} e^{-iw} and (P, Q) from su2.pq_values.
    """
    cw, sw = np.cos(w), np.sin(w)
    p, q = pq_values(d, cw, sw, params.theta)
    phase = (1j * np.exp(-1j * (params.chi + params.varphi))) * (cw - 1j * sw)
    return cw, sw, p, q, phase, phase * np.sin(params.theta) * q * p


def exact_signal(d, omegas, params: FsimParams) -> np.ndarray:
    """Noiseless h at the modulation angles omegas, from signal_factors; d is one depth or one per omega."""
    return signal_factors(d, np.asarray(omegas, dtype=float) - params.varphi, params)[-1]


def spectrum_from_h(h, depth: int) -> np.ndarray:
    """The 2d-1 DFT coefficients of h on the canonical grid, over its last axis: one row or a (..., 2d-1) batch.

    Slot j holds c_j for j < d and c_{j-(2d-1)} above, so [..., :d] is c_0 .. c_{d-1}.
    """
    h = np.asarray(h, dtype=complex)
    n = 2 * depth - 1
    if h.shape[-1:] != (n,):
        raise ValueError(f"expected {n} values for depth {depth}, got {h.shape}")
    return np.fft.fft(h) / n
