"""Fourier-space calibration of FsimGate angles from periodic circuits.

Simulates the phase-modulated periodic calibration circuit exactly on the
single-excitation subspace, generates noisy measurement data (finite shots,
depolarizing, coherent drift, readout confusion), infers the gate angles
from the DFT of the reconstructed signal, and benchmarks the estimators
against Fisher-information lower bounds.

The package exports the config types and the two entry points, run_mode and
emit_figure_data.  Everything else is imported from its module, for example
``from fsimcal.fisher import crlb``.
"""

from .harness import ExperimentConfig, PeakFitConfig, emit_figure_data, run_mode
from .noise import ConfusionMatrix, DriftModel, NoiseConfig
from .su2 import FsimParams

__version__ = "0.1.0"
