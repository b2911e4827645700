"""Shot sampling, depolarizing, drift, readout confusion, and their statistics."""

import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fsimcal import ConfusionMatrix, DriftModel, ExperimentConfig, FsimParams, NoiseConfig, PeakFitConfig, harness
from fsimcal import noise as noise_module
from fsimcal.estimators import theta_pd_estimate
from fsimcal.noise import (
    CIRCUIT,
    InversionRejectedError,
    _drifted_survival,
    apply_depolarizing,
    confusion_sample_size,
    dem_fidelity,
    gate_count,
    invert_confusion,
    simulate_probability_batch,
    stream,
)
from fsimcal.signal_model import exact_signal, omega_grid

from oracles import (
    INPUT_STATES,
    apply_confusion,
    brute_depolarized_probability,
    brute_noisy_counts,
    dense_laplacian,
    drifted_survival_matmul,
    drifted_survival_whole_draw,
    exact_probabilities,
    simulate_probability_batch_one_input,
)

PARAMS = FsimParams(1e-3, np.pi / 16, 5 * np.pi / 32)
NON_DOMINANT = [[0.4 if i == j else 0.2 for j in range(4)] for i in range(4)]  # row-stochastic, diagonal below 1/2


def streams(noise, replicates=(0,), point=0):
    """The replicates' generators at a run point, keyed as run_replicate keys them."""
    return [stream(CIRCUIT, noise.seed, point, r) for r in replicates]


def raw_readout(monkeypatch):
    """Skip the sampler's readout correction, so it returns the measured frequencies.

    simulate_probability_batch looks invert_confusion up as a module global.
    """
    monkeypatch.setattr(noise_module, "invert_confusion", lambda q4_measured, confusion: q4_measured)


class TestSampleCounts:
    """The shot draw of simulate_probability_batch, one circuit per sample.

    theta = 0 leaves every circuit at p = 1/2 exactly, so depolarizing alone
    sets the |01> probability the counts must follow.
    """

    FLAT = FsimParams(0.0, 0.3, -0.7)

    def test_degenerate_probabilities(self, monkeypatch):
        # A readout that reports every outcome as 01 (or as 00) pins the
        # measured frequency at 1 (or 0) whatever the circuit.  No ConfusionMatrix
        # is that far from dominant, so the sampler gets a stand-in built past the check.
        raw_readout(monkeypatch)
        for column, expected in ((1, 1.0), (0, 0.0)):
            readout = object.__new__(ConfusionMatrix)
            readout.entries = np.zeros((4, 4))
            readout.entries[:, column] = 1.0
            noise = NoiseConfig(shots=1000, seed=1, confusion=readout)
            p = simulate_probability_batch(5, [[0.1, 0.7]], PARAMS, noise, streams(noise))
            assert (p == expected).all()

    def test_variance_window(self):
        m = 100_000
        noise = NoiseConfig(shots=m, seed=7)
        freqs = simulate_probability_batch(3, np.zeros((1, 1000)), self.FLAT, noise, streams(noise))[0, 0]
        assert 0.8 / (4 * m) < freqs.var() < 1.2 / (4 * m)
        assert freqs.mean() == pytest.approx(0.5, abs=5e-4)

    def test_chi_square_goodness_of_fit(self):
        d, m, reps, rate = 3, 10_000, 1000, 0.1
        p = apply_depolarizing(0.5, dem_fidelity(rate, d))
        noise = NoiseConfig(shots=m, depol_rate=rate, seed=11)
        freqs = simulate_probability_batch(d, np.zeros((1, reps)), self.FLAT, noise, streams(noise))[0, 0]
        counts = np.rint(freqs * m).astype(int)
        # bin the binomial around its bulk, folding the tails in
        lo = int(m * p - 4 * math.sqrt(m * p * (1 - p)))
        hi = int(m * p + 4 * math.sqrt(m * p * (1 - p)))
        edges = np.linspace(lo, hi, 13).astype(int)
        observed = []
        expected = []
        cdf = stats.binom.cdf
        prev = -np.inf
        for e in list(edges[1:-1]) + [np.inf]:
            observed.append(((counts > prev) & (counts <= e)).sum())
            lo_cdf = 0.0 if prev == -np.inf else cdf(prev, m, p)
            hi_cdf = 1.0 if e == np.inf else cdf(e, m, p)
            expected.append((hi_cdf - lo_cdf) * reps)
            prev = e
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.01


class TestDepolarizing:
    def test_identity_and_full_mixing(self):
        assert apply_depolarizing(0.37, 1.0) == 0.37
        assert apply_depolarizing(0.37, 0.0) == 0.25
        assert apply_depolarizing(0.5, 0.9) == pytest.approx(0.475)

    def test_dem_fidelity_values(self):
        assert dem_fidelity(0.0, 500) == 1.0
        assert dem_fidelity(1e-3, 50) == pytest.approx(0.9003, abs=5e-4)  # 105 gates
        with pytest.raises(ValueError):
            dem_fidelity(1.0, 10)

    def test_gate_count_conventions(self):
        # dem_fidelity is the X circuit's; the Y circuit's one extra gate moves it by O(r).
        d, r = 50, 1e-3
        assert gate_count(d) == 2 * d + 5
        assert (gate_count(np.array([2, 50])) == [9, 105]).all()
        ax, ay = dem_fidelity(r, d), (1.0 - r) ** (2 * d + 6)
        assert ax == (1.0 - r) ** (2 * d + 5)
        assert 0 < ax - ay <= r

    def test_channel_composition_matches_analytic_shortcut(self):
        # per-gate uniform depolarizing after each of n_gates gates == the
        # single-alpha form alpha_dem * p + (1 - alpha_dem)/4
        rng = np.random.default_rng(3)
        for _ in range(12):
            d = int(rng.integers(1, 7))
            omega, theta = rng.uniform(-np.pi, np.pi), rng.uniform(0, 1.0)
            varphi, chi = rng.uniform(-np.pi, np.pi, size=2)
            rate = rng.uniform(0, 0.05)
            for state, beta in (("plus", 1.0), ("i", 1.0j)):
                n_gates = gate_count(d) + (state == "i")
                brute = brute_depolarized_probability(d, omega, theta, varphi, chi, beta, rate, n_gates)
                p_exact = getattr(exact_probabilities(d, omega, FsimParams(theta, varphi, chi)), "p_x" if state == "plus" else "p_y")
                shortcut = apply_depolarizing(p_exact, (1.0 - rate) ** n_gates)
                assert brute == pytest.approx(shortcut, abs=1e-12)

    def test_depolarized_sampling_mean(self):
        d, omega, m, r, reps = 9, 0.7, 10_000, 1e-3, 500
        noise = NoiseConfig(shots=m, depol_rate=r, seed=21)
        vals = simulate_probability_batch(d, np.full((reps, 1), omega), PARAMS, noise, streams(noise, range(reps)))[:, 0, 0]
        expected = apply_depolarizing(exact_probabilities(d, omega, PARAMS).p_x, dem_fidelity(r, d))
        se = math.sqrt(expected * (1 - expected) / (m * reps))
        assert abs(vals.mean() - expected) < 3 * se


class TestSimulate:
    def test_exact_mode_returns_analytic_values(self):
        noise = NoiseConfig(shots=10, depol_rate=0.5, drift=DriftModel(), seed=9, exact=True)
        s = exact_probabilities(8, 1.1, PARAMS)
        p_x, p_y = simulate_probability_batch(8, [[1.1]], PARAMS, noise, [None])[0, :, 0]  # exact mode draws nothing
        assert p_x == pytest.approx(s.p_x, abs=1e-15)
        assert p_y == pytest.approx(s.p_y, abs=1e-15)

    @pytest.mark.parametrize("omegas", [[0.4, 0.5], [[0.4, 0.5]] * 3], ids=["one-dimensional", "rows-not-replicates"])
    def test_omegas_need_one_row_per_replicate(self, omegas):
        with pytest.raises(ValueError, match=r"omegas must be \(2, n\)"):
            simulate_probability_batch(6, omegas, PARAMS, NOISE_KINDS["shots"], streams(NOISE_KINDS["shots"], [0, 1]))

    @pytest.mark.parametrize("shape", [(2, 3), (1,), (4,), (3, 1)])
    def test_depths_are_one_or_one_per_circuit(self, shape):
        # The replicates share the depths: a per-replicate (R, n) array is rejected like any other shape.
        message = r"d must be one depth or \(3,\), one per circuit, got " + re.escape(str(shape))
        with pytest.raises(ValueError, match=message):
            simulate_probability_batch(np.full(shape, 6), np.zeros((2, 3)), PARAMS, NOISE_KINDS["drift"], [None, None])

    def test_determinism_and_key_separation(self):
        noise = NoiseConfig(shots=1000, drift=DriftModel(), seed=5)
        omegas = [np.linspace(-3.0, 3.0, 40)]
        # Replicates 3 and 4 at points 12 and 13: each replicate's one generator is shared by both inputs.
        a, b, c, e = (
            simulate_probability_batch(6, omegas, PARAMS, noise, streams(noise, [rep], point))[0]
            for rep, point in ((3, 12), (3, 12), (4, 12), (3, 13))
        )
        assert a.tobytes() == b.tobytes()
        # Another key draws other counts for each input; at 1000 shots one frequency matches by chance about 1 in 50.
        for other in (c, e):
            assert ((a != other).mean(axis=1) >= 0.8).all()

    def test_batch_matches_single_circuit_path(self, monkeypatch):
        # Each circuit gate by gate, both inputs drawing from one generator in
        # the documented order: drift uniforms per depth, ascending, then the shots.
        raw_readout(monkeypatch)
        depths = np.array([7, 3, 7, 5, 3, 7])
        omegas = np.linspace(0.2, 2.9, len(depths))
        for kind, noise in NOISE_KINDS.items():
            (batch,) = simulate_probability_batch(depths, [omegas], PARAMS, noise, streams(noise, [1], 2))
            counts = brute_noisy_counts(depths, omegas, PARAMS, noise, stream(CIRCUIT, noise.seed, 2, 1))
            assert np.allclose(batch, counts[..., 1] / noise.shots, atol=0), kind

    def test_drift_half_widths(self):
        drift = DriftModel()
        dth, ramp = drift.half_widths(10, 2e-3)
        assert dth == pytest.approx(0.1 * 2e-3)
        assert np.allclose(ramp, 0.3 * np.arange(1, 11) / 10)

    def test_drift_suppresses_phase_matched_amplitude(self):
        # keep d*theta small enough that |h| sits on the rising flank, where
        # dephasing can only lower the mean amplitude
        d, theta = 30, 0.01
        params = FsimParams(theta, 0.3, -0.2)
        noise = NoiseConfig(shots=1_000_000, drift=DriftModel(), seed=31)
        ((px, py),) = simulate_probability_batch(d, np.full((1, 300), params.varphi), params, noise, streams(noise))
        drifted = np.hypot(px - 0.5, py - 0.5).mean()
        clean = abs(complex(exact_signal(d, params.varphi, params)))
        assert drifted < clean
        assert drifted > 0.3 * clean


class TestDriftKernel:
    @pytest.mark.parametrize("params", [PARAMS, FsimParams(0.4, 1.1, -0.7)])
    @pytest.mark.parametrize("state", INPUT_STATES)
    @pytest.mark.parametrize("d", [2, 3, 20, 100])
    def test_matches_matmul_reference_and_draw_order(self, d, state, params):
        # Row k of the two-input kernel against the reference fed from the same key.
        k = INPUT_STATES.index(state)
        nc = 2 * d - 1
        omegas = np.random.default_rng(d).uniform(-np.pi, np.pi, size=nc)
        drift = DriftModel(theta_frac=0.3, phase_max=0.5)
        fast, reference = stream(17, d, 1), stream(17, d, 1)
        p = _drifted_survival(d, omegas[None], params, drift, [fast])
        p_ref = drifted_survival_matmul(d, omegas, params, drift, reference)
        assert p.shape == (1, 2, nc)
        assert np.abs(p[0, k] - p_ref[k]).max() <= 1e-12
        # the kernel leaves the generator where one (d, 3, 2, nc) draw
        # would, so the shot draw that follows reads it where the reference
        # leaves it
        assert fast.bit_generator.state == reference.bit_generator.state


# Key words: zero, one 32-bit half, or both halves.
KEY_WORDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1))

NOISE_KINDS = {
    "shots": NoiseConfig(shots=100_000, seed=21),
    "depolarizing": NoiseConfig(shots=100_000, depol_rate=1e-2, seed=21),
    "drift": NoiseConfig(shots=100_000, drift=DriftModel(), seed=21),
    "confusion": NoiseConfig(shots=100_000, confusion=ConfusionMatrix.uniform(0.97), seed=21),
    "all": NoiseConfig(
        shots=100_000, depol_rate=1e-2, drift=DriftModel(), confusion=ConfusionMatrix.uniform(0.97), seed=21
    ),
}


@pytest.mark.parametrize("kind", [*NOISE_KINDS, "exact"])
@pytest.mark.parametrize(
    "depths",
    [7, np.arange(2, 14), np.array([7, 3, 7, 5, 3, 7, 3, 5, 7, 3, 7, 5])],
    ids=["scalar", "per-circuit", "mixed"],
)
def test_rows_match_the_one_input_simulator(kind, depths):
    # Row k is, byte for byte, what the one-input-at-a-time simulator gives for input k.
    noise = NOISE_KINDS.get(kind) or dataclasses.replace(NOISE_KINDS["all"], exact=True)
    omegas = np.linspace(0.2, 2.9, 12)
    batch = simulate_probability_batch(depths, [omegas], PARAMS, noise, streams(noise, [5], 2))
    assert batch.shape == (1, 2, len(omegas))
    for k, state in enumerate(INPUT_STATES):
        one = simulate_probability_batch_one_input(depths, omegas, PARAMS, noise, state, *streams(noise, [5], 2))
        assert batch[0, k].tobytes() == one.tobytes()


# Drift-kernel gate blocks hold _BLOCK_ENTRIES // (2 nc) gates, at least one: (depths, nc, blocks of each depth).
GATE_BLOCKS = {
    "one-block": (7, 12, {7: 1}),
    "full-blocks-and-a-partial": (100, 150, {100: 4}),
    "one-gate-per-block": (3, 5000, {3: 3}),
    "depth-1": (1, 40, {1: 1}),
    "mixed": (np.array([100, 1, 37] * 50), 150, {1: 1, 37: 1, 100: 2}),
}


@pytest.mark.parametrize("depths, nc, blocks", GATE_BLOCKS.values(), ids=GATE_BLOCKS)
def test_drift_rows_match_the_one_input_simulator_across_gate_blocks(depths, nc, blocks):
    widths = {int(dj): int(np.sum(np.broadcast_to(depths, nc) == dj)) for dj in np.unique(depths)}
    steps = {dj: max(1, noise_module._BLOCK_ENTRIES // (2 * widths[dj])) for dj in widths}
    assert {dj: -(-dj // steps[dj]) for dj in widths} == blocks
    omegas, noise = np.linspace(-3.0, 3.0, nc), NOISE_KINDS["all"]
    (batch,) = simulate_probability_batch(depths, [omegas], PARAMS, noise, streams(noise, [3], 1))
    for k, state in enumerate(INPUT_STATES):
        one = simulate_probability_batch_one_input(depths, omegas, PARAMS, noise, state, *streams(noise, [3], 1))
        assert batch[k].tobytes() == one.tobytes()


# (depth, columns): d = 2, then the kernel walking one block, several blocks with a partial last
# one, and one-gate blocks, the last wider than 8192 columns, so that each block array passes
# numpy's 256 KiB threshold for reusing temporaries.
WHOLE_DRAW_CASES = {
    "depth-2": (2, 3),
    "one-block": (20, 39),
    "multi-block": (100, 199),
    "one-gate-blocks": (3, 5000),
    "wider-than-8192": (3, 8193),
}


@pytest.mark.parametrize("theta", [0.0, 1e-3, 1.3])
@pytest.mark.parametrize("d, nc", WHOLE_DRAW_CASES.values(), ids=WHOLE_DRAW_CASES)
def test_drift_kernel_matches_the_whole_draw_oracle(d, nc, theta):
    # Same bytes, and the generator left where the whole (d, 3, 2, nc) draw leaves it.
    params, drift = FsimParams(theta, 0.3, -0.7), DriftModel(theta_frac=0.3, phase_max=0.5)
    omegas = np.random.default_rng(nc).uniform(-np.pi, np.pi, size=(1, nc))
    blocked, whole = ([stream(19, d, nc)] for _ in range(2))
    p = _drifted_survival(d, omegas, params, drift, blocked)
    assert p.tobytes() == drifted_survival_whole_draw(d, omegas, params, drift, whole).tobytes()
    for rng, ref in zip(blocked, whole):
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random(4).tobytes() == ref.random(4).tobytes()


def test_mixed_depth_batch_matches_the_whole_draw_oracle(monkeypatch):
    depths, noise = np.array([100, 2, 37, 3] * 50), NOISE_KINDS["all"]
    omegas = [np.linspace(-3.0, 3.0, len(depths))]
    batch = simulate_probability_batch(depths, omegas, PARAMS, noise, streams(noise, [1], 4))
    monkeypatch.setattr(noise_module, "_drifted_survival", drifted_survival_whole_draw)
    assert batch.tobytes() == simulate_probability_batch(depths, omegas, PARAMS, noise, streams(noise, [1], 4)).tobytes()


def test_drift_kernel_memory_stays_near_its_draws():
    # The gate blocks bound the working set, the uniforms included: about 1.1 MiB here,
    # where the whole (d, 3, 2, nc) draw alone would take 8.6 MB.
    d, nc = 300, 599
    omegas = np.linspace(-3.0, 3.0, nc)[None]
    rngs = [stream(17, d)]
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        _drifted_survival(d, omegas, PARAMS, DriftModel(), rngs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# (depths, one row of angles per replicate): the drift kernel walks up to _BLOCK_ENTRIES // (2 n_d)
# replicates at once.  At 1500 columns that is 2, so five replicates run as groups of 2, 2 and 1,
# the first two in one-gate blocks.
BATCH_KERNEL_CASES = {
    "grid": (20, np.broadcast_to(omega_grid(20), (6, 39))),
    "mixed-depth-ladder": (np.arange(10, 31, 2), np.random.default_rng(1).uniform(0.0, np.pi, (6, 1)).repeat(11, 1)),
    "split-into-groups": (3, np.random.default_rng(2).uniform(-np.pi, np.pi, (5, 1500))),
}


@pytest.mark.parametrize("depths, omegas", BATCH_KERNEL_CASES.values(), ids=BATCH_KERNEL_CASES)
def test_batch_kernel_matches_one_replicate_calls(depths, omegas):
    # The batch's bytes do not depend on which replicates share the kernel's walk.
    noise, replicates = NOISE_KINDS["all"], [3, 0, 7, 1, 12, 5][: len(omegas)]
    batch = simulate_probability_batch(depths, omegas, PARAMS, noise, streams(noise, replicates, 2))
    for r, w, row in zip(replicates, omegas, batch):
        (one,) = simulate_probability_batch(depths, [w], PARAMS, noise, streams(noise, [r], 2))
        assert row.tobytes() == one.tobytes()


def test_batch_kernel_memory_stays_near_its_draws():
    # A grid-stage call over 16 replicates at d = 100, the drift-sweep's batch per worker: about
    # 1.6 MiB, where holding each replicate's gate step across the batch would take 17 MiB.
    d, reps = 100, 16
    omegas, rngs = np.broadcast_to(omega_grid(d), (reps, 2 * d - 1)), streams(NOISE_KINDS["all"], range(reps))
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        simulate_probability_batch(d, omegas, PARAMS, NOISE_KINDS["all"], rngs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_deep_drifted_call_stays_small_in_a_fresh_process():
    # One grid-stage drifted call at d = 1000, with depolarizing: the whole
    # (d, 3, 2, nc) uniform draw alone would take 96 MB.  The child reads its
    # own VmHWM: its ru_maxrss would carry this process's peak across the exec.
    script = """
import pathlib, re
from fsimcal import DriftModel, FsimParams, NoiseConfig
from fsimcal.noise import CIRCUIT, simulate_probability_batch, stream
from fsimcal.signal_model import omega_grid
noise = NoiseConfig(shots=100_000, depol_rate=1e-3, drift=DriftModel(), seed=7)
simulate_probability_batch(1000, [omega_grid(1000)], FsimParams(1e-3, 0.2, 0.5), noise, [stream(CIRCUIT, 7, 0, 0)])
print(re.search(r"VmHWM:\\s*(\\d+) kB", pathlib.Path("/proc/self/status").read_text()).group(1))
"""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64 * 1024, f"peak RSS {int(proc.stdout) / 1024:.1f} MiB"


def _block(args):
    """One replicate's drifted, confused stage; module level so a worker process can run it."""
    replicate, noise = args
    depths = np.arange(2, 14)
    omegas = [np.linspace(0.0, 3.0, 12)]
    return simulate_probability_batch(depths, omegas, PARAMS, noise, streams(noise, [replicate], 1))


class _Recording:
    """Generator stand-in that logs each draw of the generator it wraps.

    Each random(out=) draw, one per gate block of the drift kernel, is
    logged as (stream position, doubles), and served from the flat array
    replay at that position if given.
    """

    def __init__(self, rng, log, replay=None):
        self.rng, self.log, self.replay, self.position = rng, log, replay, 0

    def random(self, out):
        self.rng.random(out=out)
        if self.replay is not None:
            out[...] = self.replay[self.position : self.position + out.size].reshape(out.shape)
        self.log.append(("random", (self.position, out.copy())))
        self.position += out.size
        return out

    def multinomial(self, n, pvals):
        self.log.append(("multinomial", np.array(pvals)))
        return self.rng.multinomial(n, pvals)


def _draws(log, what):
    return [value for kind, value in log if kind == what]


def _doubles(draws):
    """The doubles of logged random(out=) draws in stream order; they must tile positions 0..n once."""
    draws = sorted(draws, key=lambda draw: draw[0])
    ends = np.cumsum([0] + [v.size for _, v in draws])
    assert [position for position, _ in draws] == ends[:-1].tolist()
    return np.concatenate([np.zeros(0)] + [v.ravel() for _, v in draws])


class TestBatchSeeding:
    """One generator per replicate, keyed (CIRCUIT, seed, point, replicate), for both inputs and every stage."""

    @given(st.tuples(KEY_WORDS, KEY_WORDS, KEY_WORDS))
    @settings(max_examples=60, deadline=None)
    def test_states_match_stream(self, key):
        # The whole key reaches the replicate's generator, words above 2**32 included: run_replicate builds one
        # generator per replicate from it, the exact mode none, and a stage draws as the brute loop does.
        seed, point, replicate = key
        noise = NoiseConfig(shots=1000, drift=DriftModel(), seed=seed)
        keys = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(harness, "stream", lambda *key: keys.append(key) or stream(*key))
            for exact in (False, True):
                config = ExperimentConfig(
                    mode="calibrate", gate_truth=PARAMS, noise=dataclasses.replace(noise, exact=exact), depth=3
                )
                harness.run_replicate(config, point=point, replicates=[replicate])
        assert keys == [(CIRCUIT, seed, point, replicate)]
        depths, omegas = [3, 2, 3], [0.1, 0.9, 2.0]
        (batch,) = simulate_probability_batch(depths, [omegas], PARAMS, noise, [stream(*keys[0])])
        counts = brute_noisy_counts(depths, omegas, PARAMS, noise, stream(CIRCUIT, seed, point, replicate))
        assert np.allclose(batch, counts[..., 1] / noise.shots, atol=0)

    @pytest.mark.parametrize("prefix, ids", [((3, -1, 0), [5]), ((3, 1, 0), [5, -2]), ((-7,), [0])])
    def test_negative_key_word_rejected(self, prefix, ids):
        with pytest.raises(ValueError):
            stream(*prefix, *ids)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            stream()

    @pytest.mark.parametrize("key", [(2**64,), (0, 1, 2**64 + 5), (2**70, 0)])
    def test_key_word_beyond_64_bits_rejected(self, key):
        with pytest.raises(ValueError):
            stream(*key)
        config = ExperimentConfig(mode="calibrate", gate_truth=PARAMS, noise=NOISE_KINDS["shots"], depth=3)
        with pytest.raises(ValueError):
            harness.run_replicate(config, point=max(key))

    @pytest.mark.parametrize(
        "a, b", [((7, 0, 3), (7, 0, 3, 0)), ((5, 0, 0, 0), (5,)), ((2**32, 5), (0, 1, 5)), ((5,), (5, 0)), ((0,), (0, 0))]
    )
    def test_known_alias_pairs_are_distinct(self, a, b):
        assert stream(*a).bit_generator.state != stream(*b).bit_generator.state

    @given(st.lists(KEY_WORDS, min_size=1, max_size=7), st.lists(KEY_WORDS, min_size=1, max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_distinct_keys_give_distinct_states(self, a, b):
        # Zeros, trailing zeros and words past 32 bits: SeedSequence pads short
        # entropy with zeros and splits large words itself, which aliased
        # keys under stream version 1.
        for key in (a + [0], [0] + a, a + [2**32]):
            assert stream(*a).bit_generator.state != stream(*key).bit_generator.state
        if a != b:
            assert stream(*a).bit_generator.state != stream(*b).bit_generator.state

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("state", INPUT_STATES)
    def test_mixed_depth_batch_matches_one_call_per_depth(self, kind, state):
        # Replicate 2's generator draws the (d, 3, 2, n_d) drift uniforms of
        # each depth as one stretch of its stream, in ascending depth order;
        # they are rebuilt here from the logged gate-block draws.  Handed
        # those uniforms, a call holding one depth alone draws them in the
        # same order and gives its circuits input k's shot probabilities bit
        # for bit: drift runs per depth, depolarizing and readout mixing per row.
        noise = NOISE_KINDS[kind]
        k = INPUT_STATES.index(state)
        rng = np.random.default_rng(8)
        depths = rng.permutation([4] * 20 + [9] * 20 + list(range(10, 130)))
        omegas = rng.uniform(0.0, np.pi, size=len(depths))
        log = []
        simulate_probability_batch(depths, [omegas], PARAMS, noise, [_Recording(stream(CIRCUIT, noise.seed, 3, 2), log)])
        doubles = _doubles(_draws(log, "random"))
        (pvals,) = _draws(log, "multinomial")
        expected, start = np.empty_like(pvals), 0
        for dj in np.unique(depths):
            at = depths == dj
            size = dj * 3 * 2 * at.sum() if noise.drift else 0
            replay = doubles[start : start + size]
            if size:  # the stretch holds the depth's uniform(-1, 1) draw, bit for bit
                whole = stream(CIRCUIT, noise.seed, 3, 2)
                whole.bit_generator.advance(int(start))
                uniform = whole.uniform(-1.0, 1.0, (dj, 3, 2, at.sum()))
                assert (2.0 * replay - 1.0).tobytes() == uniform.tobytes()
            start += size
            since = len(log)
            one = _Recording(stream(CIRCUIT, noise.seed, 3, 2), log, replay)
            simulate_probability_batch(int(dj), [omegas[at]], PARAMS, noise, [one])
            assert _doubles(_draws(log[since:], "random")).tobytes() == replay.tobytes()
            expected[:, at] = _draws(log, "multinomial")[-1]
        assert start == len(doubles)
        assert pvals.shape == (2, len(depths), 4)
        assert pvals[k].tobytes() == expected[k].tobytes()

    def test_block_draws_are_reproducible_across_processes(self):
        tasks = [(replicate, NOISE_KINDS["all"]) for replicate in range(4)]
        here = [_block(t).tobytes() for t in tasks]
        assert here == [_block(t).tobytes() for t in tasks]
        pool = harness.ProcessPoolExecutor(max_workers=2)  # the workers of a --jobs 2 run
        assert [p.tobytes() for p in pool.map(_block, tasks)] == here
        assert len(set(here)) == len(here)

    def test_readout_rows_are_independent_of_the_block(self, monkeypatch):
        # The confusion mixing and its inverse act on each row alone: a row's
        # shot probabilities and corrected frequencies keep their bits whatever
        # rows share its call.
        log, corrections = [], []
        real_invert = noise_module.invert_confusion

        def spy_invert(q, confusion):
            corrections.append((np.array(q), real_invert(q, confusion)))
            return corrections[-1][1]

        monkeypatch.setattr(noise_module, "invert_confusion", spy_invert)
        recording = lambda: [_Recording(stream(CIRCUIT, noise.seed, 0, 0), log)]
        noise = NoiseConfig(shots=10_000, depol_rate=1e-2, confusion=ConfusionMatrix.uniform(0.93), seed=5)
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 121))
            depths = rng.integers(2, 40, size=n)
            omegas = rng.uniform(0.0, np.pi, size=n)
            simulate_probability_batch(depths, [omegas], PARAMS, noise, recording())
            # One shot draw over the (input, circuit) rows; the correction's are (replicate, input, circuit).
            pvals, (measured, corrected) = log[-1][1], corrections[-1]
            for i in rng.choice(n, size=5, replace=False):
                simulate_probability_batch(depths[i], [omegas[i : i + 1]], PARAMS, noise, recording())
                for k in range(2):
                    assert log[-1][1][k, 0].tobytes() == pvals[k, i].tobytes()
                    assert real_invert(measured[0, k, i], noise.confusion).tobytes() == corrected[0, k, i].tobytes()

    @pytest.mark.parametrize("kind", ["depolarizing", "drift", "confusion", "all"])
    def test_ladder_matches_per_depth_loop(self, kind, monkeypatch):
        # The ladder d, d+2, ..., 3d, both inputs, drawing from the replicate's
        # generator where the grid stage leaves it, checked against the
        # gate-by-gate loop over its depths.
        seen = []

        def spy(amps, *args, **kwargs):
            seen.append(amps)
            return theta_pd_estimate(amps, *args, **kwargs)

        monkeypatch.setattr(harness, "theta_pd_estimate", spy)
        noise = NOISE_KINDS[kind]
        config = ExperimentConfig(
            mode="calibrate",
            gate_truth=FsimParams(0.02, 0.3, -0.2),
            noise=noise,
            depth=20,
            theta_pd=True,
            peak_fit=PeakFitConfig(enabled=False),
        )
        (report,) = harness.run_replicate(config, point=1, replicates=[4])
        depths = np.arange(20, 61, 2)
        omegas = np.full(len(depths), report["varphi_hat"])
        freqs, rng = [], stream(CIRCUIT, noise.seed, 1, 4)
        simulate_probability_batch(20, [omega_grid(20)], config.gate_truth, noise, [rng])
        for f in brute_noisy_counts(depths, omegas, config.gate_truth, noise, rng):
            f = f / noise.shots
            if noise.confusion is not None:
                f = np.linalg.solve(noise.confusion.entries.T, f.T).T
            freqs.append(f[:, 1])
        expected = np.hypot(freqs[0] - 0.5, freqs[1] - 0.5)
        assert len(seen) == 1 and seen[0].shape == (1, 21)
        assert np.allclose(seen[0][0], expected, rtol=1e-9, atol=0)


class TestConfusion:
    def test_apply_identity(self, monkeypatch):
        # An identity readout leaves the sampled frequencies bit for bit.
        plain = NoiseConfig(shots=1000, depol_rate=1e-2, seed=4)
        ideal = NoiseConfig(shots=1000, depol_rate=1e-2, seed=4, confusion=ConfusionMatrix(np.eye(4)))
        omegas = np.linspace(0.0, 3.0, 7)
        for correct in (True, False):
            if not correct:
                raw_readout(monkeypatch)
            a = simulate_probability_batch(5, [omegas], PARAMS, plain, streams(plain))
            b = simulate_probability_batch(5, [omegas], PARAMS, ideal, streams(ideal))
            assert np.array_equal(a, b)

    def test_single_row_readout(self):
        entries = np.eye(4)
        entries[1] = [0.02, 0.98, 0.0, 0.0]
        r = ConfusionMatrix(entries)
        q = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.allclose(apply_confusion(q, r), [0.02, 0.98, 0.0, 0.0])
        assert np.allclose(q @ r.entries, [0.02, 0.98, 0.0, 0.0])  # the row form simulation uses

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stochasticity_preserved_and_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        r = ConfusionMatrix.uniform(rng.uniform(0.8, 1.0))
        q = rng.dirichlet(np.ones(4))
        measured = apply_confusion(q, r)
        assert measured.sum() == pytest.approx(1.0, abs=1e-12)
        assert (measured >= -1e-15).all()
        assert np.abs(invert_confusion(measured, r) - q).max() < 1e-10

    def test_inversion_rejected_without_dominance(self):
        # Below dominance, at its edge (a diagonal entry of exactly 1/2) and singular: no matrix is built.
        edge, singular = np.eye(4), np.zeros((4, 4))
        edge[2] = [0.0, 0.0, 0.5, 0.5]
        singular[:, 1] = 1.0
        for rows in (NON_DOMINANT, edge, singular):
            with pytest.raises(InversionRejectedError, match="^noise.confusion must be diagonally dominant"):
                ConfusionMatrix(rows)
        with pytest.raises(InversionRejectedError):
            ConfusionMatrix.uniform(0.45)

    def test_a_noise_config_cannot_hold_a_non_dominant_matrix(self):
        # Built directly, as scripts and the benchmark build theirs, or from config rows.
        with pytest.raises(InversionRejectedError):
            NoiseConfig(shots=1000, confusion=ConfusionMatrix(NON_DOMINANT))
        with pytest.raises(InversionRejectedError, match="^noise.confusion must be diagonally dominant"):
            NoiseConfig.from_dict({"shots": 1000, "confusion": NON_DOMINANT})

    @pytest.mark.parametrize("stack", [(5,), (2, 3, 7)], ids=["rows", "simulator-layout"])
    def test_row_batch_matches_single_vectors(self, stack):
        # (2, 3, 7, 4) has the four axes of the simulator's (replicate, input, circuit, outcome) rows
        r = ConfusionMatrix.uniform(0.9)
        q = np.random.default_rng(4).dirichlet(np.ones(4), size=stack)
        batch = invert_confusion(q, r)
        assert batch.shape == stack + (4,)
        for j in np.ndindex(stack):
            assert batch[j].tobytes() == invert_confusion(q[j], r).tobytes()

    def test_batch_readout_correction_rejects_non_dominant_matrix(self):
        # The matrix is checked once, when built, and holds its own copy of the rows: rows made
        # non-dominant after the build never reach the batch's correction.
        rows = ConfusionMatrix.uniform(0.9).entries.copy()
        noise = NoiseConfig(shots=1000, seed=3, confusion=ConfusionMatrix(rows))
        before = simulate_probability_batch(5, [[0.1, 0.2]], PARAMS, noise, streams(noise))
        rows[...] = NON_DOMINANT
        after = simulate_probability_batch(5, [[0.1, 0.2]], PARAMS, noise, streams(noise))
        assert after.tobytes() == before.tobytes()

    def test_kappa(self):
        r = ConfusionMatrix.uniform(0.55)
        assert r.kappa == pytest.approx(10.0)

    def test_row_validation(self):
        bad = np.eye(4)
        bad[0, 0] = 0.9
        with pytest.raises(ValueError):
            ConfusionMatrix(bad)


class TestConfusionSampleSize:
    def test_plug_in_arithmetic(self):
        # independently recomputed: ceil(8 * 1 * 1.1^2 * ln(32/0.05) / 0.1^2)
        expected = math.ceil(8.0 * 1.0 * 1.21 * math.log(640.0) / 0.01)
        assert confusion_sample_size(1.0, 0.1, 0.05, 8.0) == expected

    def test_monotone_in_epsilon_with_asymptote(self):
        kappa, alpha = 1.3, 0.05
        sizes = [confusion_sample_size(kappa, e, alpha, 8.0) for e in (0.01, 0.05, 0.1, 1.0, 10.0, 1e6)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        # epsilon -> inf asymptote: (kappa+eps)^2/eps^2 -> 1, so 8 k^2 ln(32/a)
        asymptote = 8 * kappa**2 * math.log(32 / alpha)
        assert asymptote <= sizes[-1] <= math.ceil(asymptote) + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_sample_size(0.5, 0.1, 0.05, 8.0)
        with pytest.raises(ValueError):
            confusion_sample_size(1.0, -0.1, 0.05, 8.0)
        with pytest.raises(ValueError):
            confusion_sample_size(1.0, 0.1, 1.5, 8.0)

    def test_finite_sample_coverage_small(self):
        r = ConfusionMatrix.uniform(0.95)
        eps, alpha = 0.05, 0.1
        m_cmt = confusion_sample_size(r.kappa, eps, alpha, 8.0)
        rng = stream(99)
        failures = 0
        trials = 200
        for _ in range(trials):
            est = np.stack([rng.multinomial(m_cmt, row) / m_cmt for row in r.entries])
            q = rng.dirichlet(np.ones(4))
            p = np.linalg.solve(r.entries.T, q)
            p_fs = np.linalg.solve(est.T, q)
            if np.linalg.norm(p - p_fs) > eps:
                failures += 1
        assert failures / trials <= alpha


@pytest.fixture(scope="module")
def spectrum_noise_dataset():
    """Measured spectra minus truth, via the module's sampling path."""
    d, reps = 50, 400
    noise = NoiseConfig(shots=100_000, seed=77)
    grid = omega_grid(d)
    truth = np.fft.fft(exact_signal(d, grid, PARAMS)) / (2 * d - 1)
    p = simulate_probability_batch(d, np.tile(grid, (reps, 1)), PARAMS, noise, streams(noise, range(reps)))
    vs = np.fft.fft(p[:, 0] - 0.5 + 1j * (p[:, 1] - 0.5), axis=1) / (2 * d - 1) - truth
    return d, noise.shots, vs


class TestFourierNoiseStatistics:
    def test_coefficient_noise_power(self, spectrum_noise_dataset):
        d, m, vs = spectrum_noise_dataset
        reps = vs.shape[0]
        power = (np.abs(vs) ** 2).mean(axis=0)
        hi = 1.0 / (2 * m * (2 * d - 1))
        lo = hi * (1.0 - 2.0 * (d * PARAMS.theta) ** 2)
        slack = 3.0 * math.sqrt(2.0 / reps)
        assert (power <= hi * (1 + slack)).all()
        assert (power >= lo * (1 - slack)).all()

    def test_cross_covariance_is_small(self, spectrum_noise_dataset):
        d, m, vs = spectrum_noise_dataset
        reps = vs.shape[0]
        cov = vs.T.conj() @ vs / reps
        bound = (d * PARAMS.theta) ** 2 / (m * (2 * d - 1))
        se = 1.0 / (2 * m * (2 * d - 1)) / math.sqrt(reps)
        off = np.abs(cov - np.diag(np.diag(cov)))
        assert off.max() <= bound + 5.0 * se  # 5 sigma: max over ~10^4 pairs

    def test_phase_difference_covariance_matches_laplacian(self, spectrum_noise_dataset):
        d, m, vs = spectrum_noise_dataset
        reps = vs.shape[0]
        truth = np.fft.fft(exact_signal(d, omega_grid(d), PARAMS)) / (2 * d - 1)
        c = truth[None, :d] + vs[:, :d]
        deltas = np.angle(c[:, :-1] * np.conj(c[:, 1:]))
        emp = np.cov(deltas.T, bias=True)
        scale = 1.0 / (4.0 * m * (2 * d - 1) * np.sin(PARAMS.theta) ** 2)
        model = scale * dense_laplacian(d - 1)
        slack_unit = d * d / (m * (2 * d - 1))
        for band, slack_coef in ((0, 28.0 / 3.0), (1, 22.0 / 3.0)):
            idx = np.arange(d - 1 - band)
            diff = np.abs(emp[idx, idx + band] - model[idx, idx + band])
            se = np.sqrt((np.diag(model)[idx] * np.diag(model)[idx + band] + model[idx, idx + band] ** 2) / reps)
            assert (diff <= slack_coef * slack_unit + 4.0 * se).all()
        # far off-diagonal entries: model is zero there
        mask = np.abs(np.subtract.outer(np.arange(d - 1), np.arange(d - 1))) > 1
        se_far = scale * 2.0 / math.sqrt(reps)
        assert np.abs(emp[mask]).max() <= 16.0 / 3.0 * slack_unit + 5.0 * se_far


class TestNoiseConfig:
    def test_roundtrip(self):
        cfg = NoiseConfig(
            shots=5000,
            depol_rate=1e-3,
            drift=DriftModel(theta_frac=0.2, phase_max=0.1),
            confusion=ConfusionMatrix.uniform(0.97),
            seed=123,
            exact=False,
        )
        again = NoiseConfig.from_dict(cfg.to_dict())
        assert again.shots == cfg.shots
        assert again.drift == cfg.drift
        assert np.array_equal(again.confusion.entries, cfg.confusion.entries)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig.from_dict({"shots": 10, "typo": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(shots=0)
        with pytest.raises(ValueError, match="seed"):
            NoiseConfig(shots=10, seed=-1)
        with pytest.raises(ValueError):
            NoiseConfig(shots=10, depol_rate=1.0)
