"""Noisy data generation: finite shots, depolarizing, drift, readout error.

Every random draw comes from a dedicated generator keyed by small integers
(seed, then context indices), so datasets are bit-identical regardless of
evaluation order or parallelism.  The measured object is always the
4-outcome distribution over two-qubit bitstrings (00, 01, 10, 11); the
subspace signal lives in outcomes 01/10 and depolarizing leaks weight onto
00/11.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .signal_model import exact_signal
from .su2 import FsimParams

__all__ = [
    "DriftModel",
    "ConfusionMatrix",
    "NoiseConfig",
    "InversionRejectedError",
    "stream",
    "apply_depolarizing",
    "dem_fidelity",
    "gate_count",
    "invert_confusion",
    "confusion_sample_size",
    "simulate_probability_batch",
]

INPUT_STATES = ("plus", "i")
_BETA = {"plus": 1.0 + 0.0j, "i": 1.0j}


class InversionRejectedError(ValueError):
    """Confusion matrix is not diagonally dominant enough to invert safely."""

    def __init__(self, kappa: float):
        self.kappa = kappa
        super().__init__(f"confusion matrix fails diagonal dominance (kappa={kappa})")


def stream(*key) -> np.random.Generator:
    """Independent generator keyed by a tuple of non-negative integers."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


# numpy's SeedSequence constants (a pool of four 32-bit words) and PCG64's
# LCG multiplier, replayed by _stream_states.
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int):
    """(xor, multiplier) constants of successive SeedSequence hashmix calls."""
    return itertools.pairwise(itertools.accumulate(itertools.repeat(mult), lambda h, m: h * m & _MASK32, initial=init))


def _hashmix(v, consts):
    x, m = next(consts)
    v = (v ^ x) * m & _MASK32
    return v ^ v >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _stream_states(prefix, ids) -> list:
    """bit_generator.state of stream(*prefix, i) for every i in ids, in one pass.

    Splits each key word into little-endian 32-bit words as SeedSequence
    does, runs its entropy mixing and generate_state(4, uint64) as uint32
    arithmetic in uint64 arrays over all keys, then PCG64's two seeding LCG
    steps on Python ints.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if min(prefix, default=0) < 0 or (ids < 0).any():
        raise ValueError("stream key words must be non-negative")
    head = [k >> s & _MASK32 for k in map(int, prefix) for s in range(0, max(k.bit_length(), 1), 32)]
    n_words = len(head) + 1 + (ids >> 32 > 0)
    entropy = np.zeros((max(4, n_words.max()), len(ids)), dtype=np.uint64)
    entropy[: len(head)] = np.reshape(head, (-1, 1))
    entropy[len(head)] = ids & _MASK32
    entropy[len(head) + 1 : n_words.max()] = ids >> 32
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i], consts) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for src, dst in itertools.product(range(4, len(entropy)), range(4)):  # words past the pool
        pool[dst] = np.where(n_words > src, _mix(pool[dst], _hashmix(entropy[src], consts)), pool[dst])
    consts = _hash_consts(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % 4], consts) for i in range(8)]
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(*((out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4))):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def _each_stream(rng, states, idx):
    """rng set to each circuit's stream in turn, keeping where each one stops."""
    for i in idx:
        rng.bit_generator.state = states[i]
        yield rng
        states[i] = rng.bit_generator.state


@dataclass(frozen=True)
class DriftModel:
    """Per-gate coherent angle uncertainty, uniform draws.

    At gate j of a depth-d circuit the half-widths are theta_frac * theta for
    the swap angle and phase_max * (j / d) for both phases, so the phase
    drift ramps up over the circuit.
    """

    theta_frac: float = 0.1
    phase_max: float = 0.3

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
        if r.shape != (4, 4):
            raise ValueError("confusion matrix must be 4x4")
        if (r < -1e-15).any():
            raise ValueError("confusion matrix entries must be nonnegative")
        if np.abs(r.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("confusion matrix rows must sum to 1")
        object.__setattr__(self, "entries", r)

    @classmethod
    def uniform(cls, p_correct: float) -> "ConfusionMatrix":
        """Diagonal p_correct with errors spread evenly over the other outcomes."""
        off = (1.0 - p_correct) / 3.0
        return cls(np.full((4, 4), off) + np.eye(4) * (p_correct - off))

    @property
    def dominance(self) -> float:
        return float(min(2.0 * np.diag(self.entries) - 1.0))

    @property
    def kappa(self) -> float:
        m = self.dominance
        return math.inf if m <= 0.0 else 1.0 / m


@dataclass(frozen=True)
class NoiseConfig:
    """Full noise description of one experiment.

    exact=True disables every noise mechanism and sampling (the infinite-shot
    analytic limit); otherwise shots Bernoulli trials per circuit are drawn.
    """

    shots: int = 100_000
    depol_rate: float = 0.0
    drift: DriftModel | None = None
    confusion: ConfusionMatrix | None = None
    seed: int = 0
    exact: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not 0.0 <= self.depol_rate < 1.0:
            raise ValueError("depol_rate must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_dict(self) -> dict:
        return {
            "shots": self.shots,
            "depol_rate": self.depol_rate,
            "drift": None
            if self.drift is None
            else {"theta_frac": self.drift.theta_frac, "phase_max": self.drift.phase_max},
            "confusion": None if self.confusion is None else [list(map(float, row)) for row in self.confusion.entries],
            "seed": self.seed,
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown noise keys: {sorted(unknown)}")
        drift = data.get("drift")
        confusion = data.get("confusion")
        return cls(
            shots=int(data.get("shots", 100_000)),
            depol_rate=float(data.get("depol_rate", 0.0)),
            drift=None if drift is None else DriftModel(**drift),
            confusion=None if confusion is None else ConfusionMatrix(np.array(confusion)),
            seed=int(data.get("seed", 0)),
            exact=bool(data.get("exact", False)),
        )


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

    q_measured is one (4,) distribution or a (4, n) stack of columns.
    Clipping would bias the Fourier coefficients downstream, so small
    negative components are passed through as-is.
    """
    if confusion.dominance <= 0.0:
        raise InversionRejectedError(confusion.kappa)
    return np.linalg.solve(confusion.entries.T, np.asarray(q4_measured, dtype=float))


def confusion_sample_size(kappa: float, epsilon: float, alpha_conf: float, constant: float = 8.0) -> int:
    """Shots per preparation row guaranteeing || p - p_fs ||_2 <= epsilon w.p. 1 - alpha.

    ceil(C kappa^2 (kappa + eps)^2 ln(32/alpha) / eps^2); the default C = 8 is
    the conservative proof-backed constant and may be overridden.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < alpha_conf < 1.0:
        raise ValueError("alpha_conf must be in (0, 1)")
    return math.ceil(constant * kappa**2 * (kappa + epsilon) ** 2 * math.log(32.0 / alpha_conf) / epsilon**2)


def _drifted_survival(d, omegas, params, drift, rngs, beta):
    """|<01| circuit |beta>|^2 with fresh per-gate drift per circuit.

    Each gate, with the Z rotation folded in, is [[a, b], [-conj(b), conj(a)]],
    a = cos(th) e^{-i(ph - omega)}, b = sin(th) (sin(ch + omega) - i cos(ch + omega)).
    Only row 0 of the product reaches the amplitude; it is carried as a row
    vector from the last gate back to the first.
    """
    # Each circuit's draws come from its own stream, before its shot draw.
    u = np.stack([rng.uniform(-1.0, 1.0, size=(d, 3)) for rng in rngs])
    u = np.ascontiguousarray(u.transpose(2, 1, 0))  # (3, d, nc)
    dth, ramp = drift.half_widths(d, params.theta)
    ramp = ramp[:, None]
    th = params.theta + dth * u[0]
    ph = params.varphi + ramp * u[1] - omegas
    ch = params.chi + ramp * u[2] + omegas
    ct, st = np.cos(th), np.sin(th)
    a = ct * np.cos(ph) - 1j * (ct * np.sin(ph))
    b = st * np.sin(ch) - 1j * (st * np.cos(ch))
    a_conj, b_conj = a.conj(), b.conj()
    r0, r1 = a[-1], b[-1]
    for g in range(d - 2, -1, -1):
        r0, r1 = r0 * a[g] - r1 * b_conj[g], r0 * b[g] + r1 * a_conj[g]
    return np.abs(r0 + beta * r1) ** 2 / 2.0


def simulate_probability_batch(
    d,
    omegas,
    params: FsimParams,
    noise: NoiseConfig,
    input_state: str,
    *,
    point: int = 0,
    replicate: int = 0,
    circuit_ids=None,
    correct_readout: bool = True,
) -> np.ndarray:
    """Empirical |01> probabilities for a batch of circuits at angles omegas.

    d is one depth or one depth per circuit.  One stream per circuit, keyed
    (seed, point, replicate, circuit_id); a circuit's drift draws precede its
    shot draw on its own stream.  With correct_readout the sampled 4-outcome
    frequencies are pushed through the inverse confusion matrix before the
    01 component is returned.
    """
    if input_state not in INPUT_STATES:
        raise ValueError(f"input_state must be one of {INPUT_STATES}")
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    depths = np.broadcast_to(d, omegas.shape)
    beta = _BETA[input_state]
    if noise.exact or noise.drift is None:
        p = 0.5 + (np.conj(beta) * exact_signal(depths, omegas, params)).real
        if noise.exact:
            return p
    else:
        p = np.empty(len(omegas))
    if circuit_ids is None:
        circuit_ids = np.arange(len(omegas))
    states = _stream_states((noise.seed, point, replicate), circuit_ids)
    rng = np.random.Generator(np.random.PCG64(0))
    # Drift, confusion mixing and its inverse run once per depth, so each
    # row's bits match a call with that depth alone.
    groups = [(int(dj), np.flatnonzero(depths == dj)) for dj in np.unique(depths)]
    alpha = np.empty(len(omegas))
    for dj, idx in groups:
        if noise.drift is not None:
            p[idx] = _drifted_survival(dj, omegas[idx], params, noise.drift, _each_stream(rng, states, idx), beta)
        alpha[idx] = dem_fidelity(noise.depol_rate, gate_count(dj, input_state))
    q4 = np.empty((len(omegas), 4))
    q4[:, 0] = q4[:, 3] = (1.0 - alpha) / 4.0
    q4[:, 1] = apply_depolarizing(p, alpha)
    q4[:, 2] = apply_depolarizing(1.0 - p, alpha)
    if noise.confusion is not None:
        for _, idx in groups:
            q4[idx] = q4[idx] @ noise.confusion.entries
    pvals = q4 / q4.sum(axis=1, keepdims=True)
    counts = np.empty(q4.shape, dtype=np.int64)
    for i, state in enumerate(states):
        rng.bit_generator.state = state
        counts[i] = rng.multinomial(noise.shots, pvals[i])
    freq = counts / noise.shots
    if correct_readout and noise.confusion is not None:
        for _, idx in groups:
            freq[idx] = invert_confusion(freq[idx].T, noise.confusion).T
    return freq[:, 1]
