"""Noisy data generation: finite shots, depolarizing, drift, readout error.

Every random draw comes from a generator keyed by (kind, seed, point,
replicate, block), so datasets are bit-identical regardless of evaluation
order or parallelism.  One simulator call covers a batch of circuits from
both input states: input k draws from block b + k, the noiseless signal is
evaluated once for both, and the drift pass runs over both inputs' columns
at once.  The measured object is always the 4-outcome distribution over
two-qubit bitstrings (00, 01, 10, 11); the subspace signal lives in
outcomes 01/10 and depolarizing leaks weight onto 00/11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Section, setting
from .signal_model import exact_signal
from .su2 import FsimParams

__all__ = [
    "DriftModel",
    "ConfusionMatrix",
    "NoiseConfig",
    "InversionRejectedError",
    "stream",
    "dem_fidelity",
    "gate_count",
    "invert_confusion",
    "confusion_sample_size",
    "simulate_probability_batch",
]

INPUT_STATES = ("plus", "i")


class InversionRejectedError(ValueError):
    """Confusion matrix is not diagonally dominant enough to invert safely."""

    def __init__(self, kappa: float):
        self.kappa = kappa
        super().__init__(f"confusion matrix fails diagonal dominance (kappa={kappa})")


# Version of the random-stream layout; bumped whenever a sampled value of a
# given (config, seed) changes, and recorded with every run.
STREAM_VERSION = 2
# What a generator is for, the first word of its key.
CIRCUIT, BOOTSTRAP, CONFUSION = 0, 1, 2
# (gate, column) entries per block of the drift kernel: each block array
# stays at 64-128 KB whatever the depth and batch width.
_BLOCK_ENTRIES = 8192


def stream(*key) -> np.random.Generator:
    """Independent generator keyed by a non-empty tuple of integers in [0, 2**64).

    SeedSequence sees (STREAM_VERSION, *key), each word as two uint32 halves
    (lo, hi).  Every entropy array then fills SeedSequence's 4-word pool, so
    keys that differ in length, in trailing zeros or above 2**32 never alias
    through its zero padding or its own word splitting.
    """
    words = [int(k) for k in key]
    if not words or any(not 0 <= k < 1 << 64 for k in words):
        raise ValueError(f"stream key words must lie in [0, 2**64), got {key}")
    halves = [k >> shift & 0xFFFFFFFF for k in (STREAM_VERSION, *words) for shift in (0, 32)]
    return np.random.default_rng(np.random.SeedSequence(np.array(halves, dtype=np.uint32)))


@dataclass(frozen=True)
class DriftModel(Section, path="noise.drift"):
    """Per-gate coherent angle uncertainty, uniform draws.

    At gate j of a depth-d circuit the half-widths are theta_frac * theta for
    the swap angle and phase_max * (j / d) for both phases, so the phase
    drift ramps up over the circuit.
    """

    theta_frac: float = setting(float, 0.1, ge=0.0, le=math.pi)
    phase_max: float = setting(float, 0.3, ge=0.0, le=math.pi)

    def half_widths(self, depth: int, theta: float):
        ramp = self.phase_max * np.arange(1, depth + 1) / depth
        return self.theta_frac * abs(theta), ramp


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic matrix R of readout conditional probabilities.

    R[i, j] = P(measured bitstring j | prepared bitstring i), rows ordered
    (00, 01, 10, 11).
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.asarray(self.entries, dtype=float)
        # Written so that a NaN entry fails the test.
        if r.shape != (4, 4) or not ((r >= -1e-15).all() and (np.abs(r.sum(axis=1) - 1.0) <= 1e-12).all()):
            raise ValueError("confusion matrix must be 4x4 with nonnegative entries and rows that sum to 1")
        object.__setattr__(self, "entries", r)

    @classmethod
    def uniform(cls, p_correct: float) -> "ConfusionMatrix":
        """Diagonal p_correct with errors spread evenly over the other outcomes."""
        off = (1.0 - p_correct) / 3.0
        return cls(np.full((4, 4), off) + np.eye(4) * (p_correct - off))

    @classmethod
    def from_dict(cls, rows, path: str) -> "ConfusionMatrix":
        """The matrix a config gives as a list of rows; path names it in a rejection."""
        try:
            return cls(np.array(rows, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path} must be a 4x4 row-stochastic matrix, got {rows!r}") from exc

    def to_dict(self) -> list:
        return self.entries.tolist()

    def __eq__(self, other):
        return isinstance(other, ConfusionMatrix) and np.array_equal(self.entries, other.entries)

    @property
    def dominance(self) -> float:
        return float(min(2.0 * np.diag(self.entries) - 1.0))

    @property
    def kappa(self) -> float:
        m = self.dominance
        return math.inf if m <= 0.0 else 1.0 / m


@dataclass(frozen=True)
class NoiseConfig(Section, path="noise"):
    """Full noise description of one experiment.

    exact=True disables every noise mechanism and sampling (the infinite-shot
    analytic limit); otherwise shots Bernoulli trials per circuit are drawn.
    """

    shots: int = setting(int, 100_000, ge=1, lt=1 << 63)  # the sampler counts in int64
    depol_rate: float = setting(float, 0.0, ge=0.0, lt=1.0)
    drift: DriftModel | None = setting(DriftModel, None, optional=True)
    confusion: ConfusionMatrix | None = setting(ConfusionMatrix, None, optional=True)
    seed: int = setting(int, 0, ge=0, lt=1 << 64)
    exact: bool = setting(bool, False)


def apply_depolarizing(p: float, alpha: float):
    """Measured probability alpha * p + (1 - alpha)/4 under circuit fidelity alpha."""
    return alpha * p + (1.0 - alpha) / 4.0


def dem_fidelity(depol_rate: float, n_gates: int) -> float:
    """Digital-error-model circuit fidelity (1 - r)^n_gates."""
    if not 0.0 <= depol_rate < 1.0:
        raise ValueError("depol_rate must be in [0, 1)")
    return float((1.0 - depol_rate) ** n_gates)


def gate_count(d: int, input_state: str) -> int:
    """Total gate count of a depth-d circuit: 2d+5 for the X input, 2d+6 for Y.

    The Y-input circuit spends one extra phase gate on state preparation;
    both conventions are exposed because the single-alpha model only matches
    the per-gate channel picture up to O(r).
    """
    if input_state not in INPUT_STATES:
        raise ValueError(f"input_state must be one of {INPUT_STATES}")
    return 2 * d + 5 + (1 if input_state == "i" else 0)


def invert_confusion(q4_measured, confusion: ConfusionMatrix) -> np.ndarray:
    """Solve R^T p = q_measured; the corrected vector is not clipped to [0, 1].

    q_measured is one (4,) distribution or a (4, ...) stack of columns, each
    solved on its own, so a column's bits do not depend on the columns beside
    it.  Clipping would bias the Fourier coefficients downstream, so small
    negative components are passed through as-is.
    """
    if confusion.dominance <= 0.0:
        raise InversionRejectedError(confusion.kappa)
    rows = np.asarray(q4_measured, dtype=float).T
    rt = np.broadcast_to(confusion.entries.T, rows.shape[:-1] + (4, 4))
    return np.linalg.solve(rt, rows[..., None])[..., 0].T


def confusion_sample_size(kappa: float, epsilon: float, alpha_conf: float, constant: float) -> int:
    """Shots per preparation row guaranteeing || p - p_fs ||_2 <= epsilon w.p. 1 - alpha.

    ceil(C kappa^2 ((kappa + eps)/eps)^2 ln(32/alpha)), the ratio formed first so a huge eps
    cannot overflow; C = 8 is the conservative proof-backed constant.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < alpha_conf < 1.0:
        raise ValueError("alpha_conf must be in (0, 1)")
    return math.ceil(constant * kappa**2 * ((kappa + epsilon) / epsilon) ** 2 * math.log(32.0 / alpha_conf))


def _drifted_survival(d, omegas, params, drift, rngs):
    """|<01| circuit |input>|^2 with fresh per-gate drift per circuit, one row per input.

    Input k's drift uniforms are one (3, d, nc) draw from rngs[k]: the (theta,
    varphi, chi) offsets of every gate of every circuit.  Each gate, with the
    Z rotation folded in, is [[a, b], [-conj(b), conj(a)]],
    a = cos(th) e^{-i(ph - omega)}, b = sin(th) (sin(ch + omega) - i cos(ch + omega)).
    Only row 0 of the product reaches the amplitude; it is carried as a row
    vector from the last gate back to the first, over the 2 nc columns of
    both inputs at once.  The gates are walked in blocks of about
    _BLOCK_ENTRIES (gate, column) entries, so beside the O(nc d) uniforms
    every array is O(_BLOCK_ENTRIES) whatever the depth and batch width.
    """
    u = [rng.uniform(-1.0, 1.0, size=(3, d, len(omegas))) for rng in rngs]
    dth, ramp = drift.half_widths(d, params.theta)
    step = max(1, _BLOCK_ENTRIES // (len(u) * len(omegas)))
    r0 = r1 = None
    for stop in range(d, 0, -step):
        gates = slice(max(0, stop - step), stop)
        ub, rb = np.stack([uk[:, gates] for uk in u], axis=2), ramp[gates, None, None]
        th = params.theta + dth * ub[0]
        ph = params.varphi + rb * ub[1] - omegas
        ch = params.chi + rb * ub[2] + omegas
        ct, st = np.cos(th), np.sin(th)
        a = ct * np.cos(ph) - 1j * (ct * np.sin(ph))
        b = st * np.sin(ch) - 1j * (st * np.cos(ch))
        a_conj, b_conj = a.conj(), b.conj()
        top = len(a) - 1
        if r0 is None:  # the circuit's last gate starts the row vector
            r0, r1, top = a[top], b[top], top - 1
        for g in range(top, -1, -1):
            r0, r1 = r0 * a[g] - r1 * b_conj[g], r0 * b[g] + r1 * a_conj[g]
    # The X input (|01> + |10>)/sqrt2 and the Y input (|01> + i|10>)/sqrt2.
    return np.abs(r0 + np.array([[1.0], [1.0j]]) * r1) ** 2 / 2.0


def simulate_probability_batch(
    d,
    omegas,
    params: FsimParams,
    noise: NoiseConfig,
    *,
    point: int = 0,
    replicate: int = 0,
    block: int = 0,
) -> np.ndarray:
    """Empirical |01> probabilities for a batch of circuits at angles omegas, from both inputs.

    Returns a (2, n) array: row 0 for the X input, row 1 for the Y input.  d
    is one depth or one depth per circuit.  Input k draws from its own
    generator, keyed (CIRCUIT, seed, point, replicate, block + k): the drift
    uniforms of each distinct depth in ascending depth order, then one
    multinomial over all its rows.  Under a confusion matrix the sampled
    4-outcome frequencies are pushed through its inverse before the 01
    component is returned.  Depolarizing, readout mixing and correction act
    on each row alone.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    depths = np.broadcast_to(d, omegas.shape)
    if noise.exact or noise.drift is None:
        h = exact_signal(depths, omegas, params)
        p = 0.5 + np.stack([h.real, h.imag])
        if noise.exact:
            return p
    rngs = [stream(CIRCUIT, noise.seed, point, replicate, block + k) for k in range(len(INPUT_STATES))]
    if noise.drift is not None:
        p = np.empty((len(rngs), len(omegas)))
        for dj in np.unique(depths):
            at = depths == dj
            p[:, at] = _drifted_survival(int(dj), omegas[at], params, noise.drift, rngs)
    alpha = (1.0 - noise.depol_rate) ** np.stack([gate_count(depths, state) for state in INPUT_STATES])
    q4 = np.empty(p.shape + (4,))
    q4[..., 0] = q4[..., 3] = (1.0 - alpha) / 4.0
    q4[..., 1] = apply_depolarizing(p, alpha)
    q4[..., 2] = apply_depolarizing(1.0 - p, alpha)
    if noise.confusion is not None:
        q4 = (q4[..., None, :] @ noise.confusion.entries)[..., 0, :]
    q4 /= q4.sum(axis=-1, keepdims=True)
    freq = np.stack([rng.multinomial(noise.shots, q) for rng, q in zip(rngs, q4)]) / noise.shots
    if noise.confusion is not None:
        freq = invert_confusion(freq.T, noise.confusion).T
    return freq[..., 1]
