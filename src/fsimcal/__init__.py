"""Fourier-space calibration of FsimGate angles from periodic circuits.

Simulates the phase-modulated periodic calibration circuit exactly on the
single-excitation subspace, generates noisy measurement data (finite shots,
depolarizing, coherent drift, readout confusion), infers the gate angles
from the DFT of the reconstructed signal, and benchmarks the estimators
against Fisher-information lower bounds.
"""

from .estimators import (
    DegenerateCoefficientError,
    EstimateReport,
    FidelityCollapseError,
    PeakFitResult,
    estimate_alpha_corrected,
    fourier_estimate,
    peak_fit,
    sequential_phase_diffs,
    theta_pd_estimate,
    wpa_solve,
)
from .fisher import CrlbReport, FisherMatrix, crlb, fisher_matrix, preasymptotic_variances, transition_scan
from .harness import (
    ConfusionCheckConfig,
    ExperimentConfig,
    PeakFitConfig,
    emit_figure_data,
    run_mode,
    run_points,
    run_replicate,
)
from .noise import (
    ConfusionMatrix,
    DriftModel,
    InversionRejectedError,
    NoiseConfig,
    apply_depolarizing,
    confusion_sample_size,
    dem_fidelity,
    gate_count,
    invert_confusion,
    simulate_probability_batch,
)
from .signal_model import FourierSpectrum, GridMismatchError, exact_signal, omega_grid, spectrum_from_h
from .su2 import FsimParams, pq_values

__version__ = "0.1.0"
