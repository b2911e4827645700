"""Noisy data generation: finite shots, depolarizing, drift, readout error.

Every random draw comes from a generator keyed by (kind, seed, point,
replicate), so datasets are bit-identical regardless of evaluation order or
parallelism.  The one simulator entry point takes R replicates' generators
and an (R, n) array of angles, and returns the (R, 2, n) |01> frequencies of
both input states: a replicate's two inputs draw from its one generator, the
noiseless signal and the readout steps run once over the whole batch, and
the drift kernel walks each depth's gates once over every replicate's
columns.  The measured object is always the 4-outcome
distribution over two-qubit bitstrings (00, 01, 10, 11), the last axis of
the (..., 4) arrays readout mixing and correction act on; the subspace
signal lives in outcomes 01/10 and depolarizing leaks weight onto 00/11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "invert_confusion",
    "confusion_sample_size",
    "simulate_probability_batch",
]


class InversionRejectedError(ValueError):
    """Confusion matrix is not diagonally dominant enough to invert safely."""

    def __init__(self):
        # Only noise.confusion's rejection reaches a user: the confusion check catches its estimates'.
        super().__init__("noise.confusion must be diagonally dominant (each diagonal entry > 0.5), got kappa=inf")


# Version of the random-stream layout; bumped whenever a sampled value of a
# given (config, seed) changes, and recorded with every run.
STREAM_VERSION = 4
# What a generator is for, the first word of its key.
CIRCUIT, BOOTSTRAP, CONFUSION = 0, 1, 2
# (gate, column) entries per block of the drift kernel: each block array
# stays at 64-128 KB whatever the depth, while the batch is 4096 wide or less.
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


class ConfusionMatrix:
    """Row-stochastic, diagonally dominant matrix R of readout conditional probabilities.

    R[i, j] = P(measured bitstring j | prepared bitstring i), rows ordered
    (00, 01, 10, 11).  Every diagonal entry exceeds 1/2, so readout correction
    can solve R^T x = q: dominance = min(2 R[i, i] - 1) > 0 and kappa =
    1 / dominance.  entries is a read-only copy of the given rows.
    """

    def __init__(self, entries):
        r = np.array(entries, dtype=float)
        r.flags.writeable = False
        # Written so that a NaN entry fails the test.
        if r.shape != (4, 4) or not ((r >= -1e-15).all() and (np.abs(r.sum(axis=1) - 1.0) <= 1e-12).all()):
            raise ValueError("confusion matrix must be 4x4 with nonnegative entries and rows that sum to 1")
        self.entries, self.dominance = r, float(min(2.0 * np.diag(r) - 1.0))
        if self.dominance <= 0.0:
            raise InversionRejectedError()

    @classmethod
    def uniform(cls, p_correct: float) -> "ConfusionMatrix":
        """Diagonal p_correct with errors spread evenly over the other outcomes."""
        off = (1.0 - p_correct) / 3.0
        return cls(np.full((4, 4), off) + np.eye(4) * (p_correct - off))

    @classmethod
    def from_dict(cls, rows) -> "ConfusionMatrix":
        """The matrix a config gives as the list of rows at noise.confusion."""
        try:
            return cls(rows)
        except InversionRejectedError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValueError(f"noise.confusion must be a 4x4 row-stochastic matrix, got {rows!r}") from exc

    def to_dict(self) -> list:
        return self.entries.tolist()

    def __eq__(self, other):
        return isinstance(other, ConfusionMatrix) and np.array_equal(self.entries, other.entries)

    def __repr__(self):
        return "ConfusionMatrix()"

    @property
    def kappa(self) -> float:
        return 1.0 / self.dominance


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


def gate_count(d):
    """Total gate count 2d+5 of the depth-d X-input circuit, for an int or an array of depths.

    The Y-input circuit spends one more gate on state preparation.
    """
    return 2 * d + 5


def dem_fidelity(depol_rate: float, d: int) -> float:
    """Digital-error-model fidelity (1 - r)^(2d+5) of the depth-d X-input circuit.

    The Y circuit's one extra gate moves it by O(r): the single-alpha model
    matches the per-gate channel picture only to that order.  d is one int:
    numpy's array power rounds a few (r, d) pairs differently from Python's.
    """
    if not 0.0 <= depol_rate < 1.0:
        raise ValueError("depol_rate must be in [0, 1)")
    return float((1.0 - depol_rate) ** gate_count(d))


def invert_confusion(q4_measured, confusion: ConfusionMatrix) -> np.ndarray:
    """Solve R^T p = q_measured; the corrected vector is not clipped to [0, 1].

    R is diagonally dominant, as every ConfusionMatrix is, so it is invertible.
    q_measured is one (4,) distribution or an (..., 4) stack of rows, each
    solved on its own, so a row's bits do not depend on the rows beside it;
    the result has its shape.  Clipping would bias the Fourier coefficients
    downstream, so small negative components are passed through as-is.
    """
    rows = np.asarray(q4_measured, dtype=float)
    return np.linalg.solve(confusion.entries.T, rows[..., None])[..., 0]


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
    """|<01| circuit |input>|^2 of R replicates' depth-d circuits under fresh per-gate drift, as (R, 2, nc).

    omegas is (R, nc) and rngs[r] replicate r's generator, whose drift uniforms are the (d, 3, 2, nc)
    array one rngs[r].uniform(-1, 1) draw gives: slice i holds the (theta, varphi, chi) offsets of gate
    d - 1 - i of every circuit of both inputs.  Each gate, with the Z rotation folded in, is
    [[a, b], [-conj(b), conj(a)]], a = cos(th) e^{-i(ph - omega)}, b = sin(th) (sin(ch + omega) - i cos(ch + omega)).
    Only row 0 of the product reaches the amplitude; it is carried as a row vector from the last gate
    back to the first, over the 2 nc columns of groups of max(1, _BLOCK_ENTRIES // (2 nc)) replicates,
    in blocks of about _BLOCK_ENTRIES (gate, column) entries, each one random(out=) call per replicate
    (2 random() - 1 is uniform's doubles bit for bit).  Every array is O(_BLOCK_ENTRIES + nc) whatever
    d and R, and a column's operations do not depend on its group.
    """
    reps, nc = omegas.shape
    dth, ramp = drift.half_widths(d, params.theta)
    ramp, group = ramp[::-1, None, None, None], max(1, _BLOCK_ENTRIES // (2 * nc))  # ramp in draw order
    p = np.empty((reps, 2, nc))
    for g0 in range(0, reps, group):
        rg, w = rngs[g0 : g0 + group], omegas[g0 : g0 + group, None]
        step = min(d, max(1, _BLOCK_ENTRIES // (len(rg) * 2 * nc)))
        u = np.empty((len(rg), step, 3, 2, nc))  # each replicate's slice C-contiguous, as random(out=) needs
        real, cplx = np.empty((6, step, len(rg), 2, nc)), np.empty((4, step, len(rg), 2, nc), dtype=complex)
        for start in range(0, d, step):
            n = min(step, d - start)
            for uk, rng in zip(u, rg):
                rng.random(out=uk[:n])
            ub, rb = u[:, :n], ramp[start : start + n]
            u0, u1, u2 = np.subtract(np.multiply(ub, 2.0, out=ub), 1.0, out=ub).transpose(2, 1, 0, 3, 4)  # gate-major
            th, ph, ch, ct, st, t = real[:, :n]
            a, b, a_conj, b_conj = cplx[:, :n]
            np.add(np.multiply(u0, dth, out=th), params.theta, out=th)
            np.subtract(np.add(np.multiply(u1, rb, out=ph), params.varphi, out=ph), w, out=ph)
            np.add(np.add(np.multiply(u2, rb, out=ch), params.chi, out=ch), w, out=ch)
            np.cos(th, out=ct)
            np.sin(th, out=st)
            # a = ct cos(ph) - 1j (ct sin(ph)); an imaginary part 0 - x keeps that form's signs of zero.
            np.multiply(ct, np.cos(ph, out=t), out=a.real)
            np.subtract(0.0, np.multiply(ct, np.sin(ph, out=t), out=t), out=a.imag)
            np.multiply(st, np.sin(ch, out=t), out=b.real)
            np.subtract(0.0, np.multiply(st, np.cos(ch, out=t), out=t), out=b.imag)
            np.conjugate(cplx[:2, :n], out=cplx[2:, :n])  # a_conj, b_conj
            if start == 0:  # the circuit's last gate starts the row vector, copied out of the reused buffers
                r0, r1 = a[0].copy(), b[0].copy()
            for g in range(start == 0, n):
                r0, r1 = r0 * a[g] - r1 * b_conj[g], r0 * b[g] + r1 * a_conj[g]
        # The X input (|01> + |10>)/sqrt2 and the Y input (|01> + i|10>)/sqrt2.
        p[g0 : g0 + group] = np.abs(r0 + np.array([[1.0], [1.0j]]) * r1) ** 2 / 2.0
    return p


def simulate_probability_batch(d, omegas, params: FsimParams, noise: NoiseConfig, rngs) -> np.ndarray:
    """Empirical |01> probabilities of R replicates' circuits at angles omegas, from both inputs.

    rngs holds the R replicates' generators (unused, and may be None, in exact mode) and omegas is an
    (R, n) array, row r holding the circuits of the replicate rngs[r] draws for; d is one depth, or an
    (n,) array of one depth per circuit that every replicate shares.  The result is (R, 2, n): row
    [r, 0] for the X input and [r, 1] for the Y input.  The noiseless signal, depolarizing, readout
    mixing, normalisation and correction run once over the whole (replicate, input, circuit) array,
    and act on each row alone.  Replicate r's two inputs draw from rngs[r], from where the caller left
    it: for each distinct depth in ascending order the (d, 3, 2, n_d) drift uniforms, the circuits'
    last gate first, then one multinomial over its (2, n, 4) rows.  Under a confusion matrix the
    sampled 4-outcome frequencies are pushed through its inverse before the 01 component is returned.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 2 or len(omegas) != len(rngs):
        raise ValueError(f"omegas must be ({len(rngs)}, n), one row per replicate, got {omegas.shape}")
    if np.ndim(d) and np.shape(d) != omegas.shape[1:]:
        raise ValueError(f"d must be one depth or ({omegas.shape[1]},), one per circuit, got {np.shape(d)}")
    depths = np.broadcast_to(d, omegas.shape[1:])
    if noise.exact or noise.drift is None:
        p = exact_signal(depths, omegas, params)  # h, held under p's name so its array goes once p is formed
        p = 0.5 + np.stack([p.real, p.imag], axis=1)
        if noise.exact:
            return p
    if noise.drift is not None:
        p = np.empty((len(rngs), 2, len(depths)))
        for dj in sorted(set(depths.tolist())):
            at = depths == dj
            p[:, :, at] = _drifted_survival(int(dj), omegas[:, at], params, noise.drift, rngs)
    # The Y input's extra preparation gate: alpha is (2, n), shared by the replicates.
    alpha = (1.0 - noise.depol_rate) ** (gate_count(depths) + np.array([[0], [1]]))
    q4 = np.empty(p.shape + (4,))
    q4[..., 0] = q4[..., 3] = (1.0 - alpha) / 4.0
    q4[..., 1] = apply_depolarizing(p, alpha)
    q4[..., 2] = apply_depolarizing(1.0 - p, alpha)
    if noise.confusion is not None:
        q4 = (q4[..., None, :] @ noise.confusion.entries)[..., 0, :]
    q4 /= q4.sum(axis=-1, keepdims=True)
    freq = q4  # each row's counts, then frequencies, overwrite its probabilities once drawn
    for rng, q in zip(rngs, freq):
        q[...] = rng.multinomial(noise.shots, q)
    freq /= noise.shots
    if noise.confusion is not None:
        freq = invert_confusion(freq, noise.confusion)
    return freq[..., 1]
