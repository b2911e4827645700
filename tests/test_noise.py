"""Shot sampling, depolarizing, drift, readout confusion, and their statistics."""

import dataclasses
import math
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
    INPUT_STATES,
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
    apply_confusion,
    brute_depolarized_probability,
    brute_noisy_counts,
    dense_laplacian,
    drifted_survival_matmul,
    exact_probabilities,
    simulate_probability_batch_one_input,
)

PARAMS = FsimParams(1e-3, np.pi / 16, 5 * np.pi / 32)


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
        # measured frequency at 1 (or 0) whatever the circuit.
        raw_readout(monkeypatch)
        for column, expected in ((1, 1.0), (0, 0.0)):
            entries = np.zeros((4, 4))
            entries[:, column] = 1.0
            noise = NoiseConfig(shots=1000, seed=1, confusion=ConfusionMatrix(entries))
            p = simulate_probability_batch(5, [0.1, 0.7], PARAMS, noise)
            assert (p == expected).all()

    def test_variance_window(self):
        m = 100_000
        noise = NoiseConfig(shots=m, seed=7)
        freqs = simulate_probability_batch(3, np.zeros(1000), self.FLAT, noise)[0]
        assert 0.8 / (4 * m) < freqs.var() < 1.2 / (4 * m)
        assert freqs.mean() == pytest.approx(0.5, abs=5e-4)

    def test_chi_square_goodness_of_fit(self):
        d, m, reps, rate = 3, 10_000, 1000, 0.1
        p = apply_depolarizing(0.5, dem_fidelity(rate, gate_count(d, "plus")))
        noise = NoiseConfig(shots=m, depol_rate=rate, seed=11)
        counts = np.rint(simulate_probability_batch(d, np.zeros(reps), self.FLAT, noise)[0] * m).astype(int)
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
        assert dem_fidelity(1e-3, 105) == pytest.approx(0.9003, abs=5e-4)
        with pytest.raises(ValueError):
            dem_fidelity(1.0, 10)

    def test_gate_count_conventions(self):
        d, r = 50, 1e-3
        assert gate_count(d, "plus") == 2 * d + 5
        assert gate_count(d, "i") == 2 * d + 6
        ax, ay = dem_fidelity(r, gate_count(d, "plus")), dem_fidelity(r, gate_count(d, "i"))
        assert 0 < ax - ay <= r
        with pytest.raises(ValueError):
            gate_count(d, "y")

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
                n_gates = gate_count(d, state)
                brute = brute_depolarized_probability(d, omega, theta, varphi, chi, beta, rate, n_gates)
                p_exact = getattr(exact_probabilities(d, omega, FsimParams(theta, varphi, chi)), "p_x" if state == "plus" else "p_y")
                shortcut = apply_depolarizing(p_exact, dem_fidelity(rate, n_gates))
                assert brute == pytest.approx(shortcut, abs=1e-12)

    def test_depolarized_sampling_mean(self):
        d, omega, m, r, reps = 9, 0.7, 10_000, 1e-3, 500
        noise = NoiseConfig(shots=m, depol_rate=r, seed=21)
        vals = np.array(
            [simulate_probability_batch(d, [omega], PARAMS, noise, replicate=rep)[0, 0] for rep in range(reps)]
        )
        expected = apply_depolarizing(exact_probabilities(d, omega, PARAMS).p_x, dem_fidelity(r, gate_count(d, "plus")))
        se = math.sqrt(expected * (1 - expected) / (m * reps))
        assert abs(vals.mean() - expected) < 3 * se


class TestSimulate:
    def test_exact_mode_returns_analytic_values(self):
        noise = NoiseConfig(shots=10, depol_rate=0.5, drift=DriftModel(), seed=9, exact=True)
        s = exact_probabilities(8, 1.1, PARAMS)
        p_x, p_y = simulate_probability_batch(8, [1.1], PARAMS, noise)[:, 0]
        assert p_x == pytest.approx(s.p_x, abs=1e-15)
        assert p_y == pytest.approx(s.p_y, abs=1e-15)

    def test_determinism_and_key_separation(self):
        noise = NoiseConfig(shots=1000, drift=DriftModel(), seed=5)
        # Blocks 12 and 14: the Y input of block 12 draws from block 13.
        a, b, c, e = (
            simulate_probability_batch(6, [0.4], PARAMS, noise, replicate=rep, block=block)[:, 0]
            for rep, block in ((3, 12), (3, 12), (4, 12), (3, 14))
        )
        assert a.tobytes() == b.tobytes()
        assert (a != c).all() and (a != e).all()

    def test_batch_matches_single_circuit_path(self, monkeypatch):
        # Each circuit gate by gate, input k drawing from block 9 + k in the
        # documented order: drift uniforms per depth, ascending, then the shots.
        raw_readout(monkeypatch)
        depths = np.array([7, 3, 7, 5, 3, 7])
        omegas = np.linspace(0.2, 2.9, len(depths))
        for kind, noise in NOISE_KINDS.items():
            batch = simulate_probability_batch(depths, omegas, PARAMS, noise, point=2, replicate=1, block=9)
            for k, beta in enumerate((1.0, 1.0j)):
                counts = brute_noisy_counts(depths, omegas, PARAMS, noise, beta, (CIRCUIT, noise.seed, 2, 1, 9 + k))
                assert np.allclose(batch[k], counts[:, 1] / noise.shots, atol=0), kind

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
        px, py = simulate_probability_batch(d, np.full(300, params.varphi), params, noise)
        drifted = np.hypot(px - 0.5, py - 0.5).mean()
        clean = abs(complex(exact_signal(d, params.varphi, params)))
        assert drifted < clean
        assert drifted > 0.3 * clean


class TestDriftKernel:
    @pytest.mark.parametrize("params", [PARAMS, FsimParams(0.4, 1.1, -0.7)])
    @pytest.mark.parametrize("state", INPUT_STATES)
    @pytest.mark.parametrize("d", [2, 3, 20, 100])
    def test_matches_matmul_reference_and_draw_order(self, d, state, params):
        # Row k of the two-input kernel against the reference fed from input k's generator.
        k = INPUT_STATES.index(state)
        nc = 2 * d - 1
        omegas = np.random.default_rng(d).uniform(-np.pi, np.pi, size=nc)
        drift = DriftModel(theta_frac=0.3, phase_max=0.5)
        fast, reference = [stream(17, d, 1, j) for j in range(2)], stream(17, d, 1, k)
        p = _drifted_survival(d, omegas, params, drift, fast)
        p_ref = drifted_survival_matmul(d, omegas, params, drift, reference, (1.0, 1.0j)[k])
        assert p.shape == (2, nc)
        assert np.abs(p[k] - p_ref).max() <= 1e-12
        # the kernel takes exactly one (3, d, nc) draw from each input's
        # generator, so the shot draw that follows reads it where the
        # reference leaves it
        assert fast[k].bit_generator.state == reference.bit_generator.state


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
    # Row k is, byte for byte, what one call per input state gave for input k at block + k.
    noise = NOISE_KINDS.get(kind) or dataclasses.replace(NOISE_KINDS["all"], exact=True)
    omegas = np.linspace(0.2, 2.9, 12)
    key = dict(point=2, replicate=5)
    batch = simulate_probability_batch(depths, omegas, PARAMS, noise, **key, block=4)
    assert batch.shape == (2, len(omegas))
    for k, state in enumerate(INPUT_STATES):
        one = simulate_probability_batch_one_input(depths, omegas, PARAMS, noise, state, **key, block=4 + k)
        assert batch[k].tobytes() == one.tobytes()


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
    omegas, noise, key = np.linspace(-3.0, 3.0, nc), NOISE_KINDS["all"], dict(point=1, replicate=3)
    batch = simulate_probability_batch(depths, omegas, PARAMS, noise, **key, block=6)
    for k, state in enumerate(INPUT_STATES):
        one = simulate_probability_batch_one_input(depths, omegas, PARAMS, noise, state, **key, block=6 + k)
        assert batch[k].tobytes() == one.tobytes()


def test_drift_kernel_memory_stays_near_its_draws():
    # Beyond the two inputs' (3, d, nc) uniforms, the gate blocks bound the working set.
    d, nc = 300, 599
    omegas = np.linspace(-3.0, 3.0, nc)
    rngs = [stream(17, d, k) for k in range(2)]
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        _drifted_survival(d, omegas, PARAMS, DriftModel(), rngs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 3 * d * nc * 8 + 4 * 2**20


def _block(args):
    """One drifted, confused block; module level so a worker process can run it."""
    block, noise = args
    depths = np.arange(2, 14)
    return simulate_probability_batch(depths, np.linspace(0.0, 3.0, 12), PARAMS, noise, point=1, block=block)


class _Recording:
    """stream(*key) stand-in that logs each draw with the key's block; it hands out replay[block] uniforms first."""

    def __init__(self, key, log, replay=None):
        self.rng, self.block, self.log = stream(*key), key[-1], log
        self.replay = (replay or {}).get(self.block, [])

    def uniform(self, low, high, size):
        u = self.replay.pop(0) if self.replay else self.rng.uniform(low, high, size)
        self.log.append(("uniform", self.block, u))
        return u

    def multinomial(self, n, pvals):
        self.log.append(("multinomial", self.block, np.array(pvals)))
        return self.rng.multinomial(n, pvals)


def _draws(log, what, block):
    return [value for kind, b, value in log if kind == what and b == block]


class TestBatchSeeding:
    """One generator per block, keyed (CIRCUIT, seed, point, replicate, block)."""

    @given(st.tuples(KEY_WORDS, KEY_WORDS, KEY_WORDS, KEY_WORDS))
    @settings(max_examples=60, deadline=None)
    def test_states_match_stream(self, key):
        # The whole key reaches the block's generator, words above 2**32 included.
        seed, point, replicate, block = key
        noise = NoiseConfig(shots=1000, drift=DriftModel(), seed=seed)
        depths, omegas = [3, 2, 3], [0.1, 0.9, 2.0]
        simulate = lambda: simulate_probability_batch(
            depths, omegas, PARAMS, noise, point=point, replicate=replicate, block=block
        )
        if block + 1 == 2**64:  # the Y input's block word, block + 1, is out of range
            with pytest.raises(ValueError):
                simulate()
            return
        batch = simulate()
        for k, beta in enumerate((1.0, 1.0j)):
            key = (CIRCUIT, seed, point, replicate, block + k)
            counts = brute_noisy_counts(depths, omegas, PARAMS, noise, beta, key)
            assert np.allclose(batch[k], counts[:, 1] / noise.shots, atol=0)

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
        with pytest.raises(ValueError):
            simulate_probability_batch(3, [0.1], PARAMS, NOISE_KINDS["shots"], block=max(key))

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
    def test_mixed_depth_batch_matches_one_call_per_depth(self, kind, state, monkeypatch):
        # Input k's generator (block 7 + k) draws one (3, d, n_d) array of
        # drift uniforms per depth, in ascending order.  Handed those uniforms,
        # a call holding one depth alone gives its circuits the block's shot
        # probabilities bit for bit: drift runs per depth, depolarizing and
        # readout mixing per row.
        noise = NOISE_KINDS[kind]
        block = 7 + INPUT_STATES.index(state)
        rng = np.random.default_rng(8)
        depths = rng.permutation([4] * 20 + [9] * 20 + list(range(10, 130)))
        omegas = rng.uniform(0.0, np.pi, size=len(depths))
        log, replay = [], {}
        monkeypatch.setattr(noise_module, "stream", lambda *key: _Recording(key, log, replay))
        simulate_probability_batch(depths, omegas, PARAMS, noise, point=3, replicate=2, block=7)
        uniforms = _draws(log, "uniform", block)
        (pvals,) = _draws(log, "multinomial", block)
        expected = np.empty_like(pvals)
        assert len(uniforms) == (len(np.unique(depths)) if noise.drift else 0)
        for j, dj in enumerate(np.unique(depths)):
            at = depths == dj
            replay[block] = [uniforms[j]] if noise.drift else []
            if noise.drift:
                assert uniforms[j].shape == (3, dj, at.sum())
            simulate_probability_batch(int(dj), omegas[at], PARAMS, noise, point=3, replicate=2, block=7)
            expected[at] = _draws(log, "multinomial", block)[-1]
        assert pvals.tobytes() == expected.tobytes()

    def test_block_draws_are_reproducible_across_processes(self):
        tasks = [(block, NOISE_KINDS["all"]) for block in range(4)]
        here = [_block(t).tobytes() for t in tasks]
        assert here == [_block(t).tobytes() for t in tasks]
        with harness._executor(2) as pool:  # the worker pool of a --jobs 2 run
            assert [p.tobytes() for p in pool.map(_block, tasks)] == here
        assert len(set(here)) == len(here)

    def test_readout_rows_are_independent_of_the_block(self, monkeypatch):
        # The confusion mixing and its inverse act on each row alone: a row's
        # shot probabilities and corrected frequencies keep their bits whatever
        # rows share its block.
        log, corrections = [], []
        real_invert = noise_module.invert_confusion

        def spy_invert(q, confusion):
            corrections.append((np.array(q), real_invert(q, confusion)))
            return corrections[-1][1]

        monkeypatch.setattr(noise_module, "stream", lambda *key: _Recording(key, log))
        monkeypatch.setattr(noise_module, "invert_confusion", spy_invert)
        noise = NoiseConfig(shots=10_000, depol_rate=1e-2, confusion=ConfusionMatrix.uniform(0.93), seed=5)
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 121))
            depths = rng.integers(2, 40, size=n)
            omegas = rng.uniform(0.0, np.pi, size=n)
            simulate_probability_batch(depths, omegas, PARAMS, noise)
            # The two shot draws, X then Y; the correction's columns are (outcome, circuit, input).
            pvals, (measured, corrected) = [p for _, _, p in log[-2:]], corrections[-1]
            for i in rng.choice(n, size=5, replace=False):
                simulate_probability_batch(depths[i], omegas[i : i + 1], PARAMS, noise)
                for k in range(2):
                    assert log[k - 2][2][0].tobytes() == pvals[k][i].tobytes()
                    assert real_invert(measured[:, i, k], noise.confusion).tobytes() == corrected[:, i, k].tobytes()

    @pytest.mark.parametrize("kind", ["depolarizing", "drift", "confusion", "all"])
    def test_ladder_matches_per_depth_loop(self, kind, monkeypatch):
        # The ladder d, d+2, ..., 3d is blocks 2 (X input) and 3 (Y input),
        # checked against the gate-by-gate loop over its depths.
        seen = []

        def spy(amps, *args, **kwargs):
            seen.append(list(amps))
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
        report = harness.run_replicate(config, point=1, replicate=4)
        depths = np.arange(20, 61, 2)
        omegas = np.full(len(depths), report.varphi_hat)
        freqs = []
        for block, beta in ((2, 1.0), (3, 1.0j)):
            f = brute_noisy_counts(depths, omegas, config.gate_truth, noise, beta, (CIRCUIT, noise.seed, 1, 4, block))
            f = f / noise.shots
            if noise.confusion is not None:
                f = np.linalg.solve(noise.confusion.entries.T, f.T).T
            freqs.append(f[:, 1])
        expected = np.hypot(freqs[0] - 0.5, freqs[1] - 0.5)
        assert len(seen) == 1 and len(seen[0]) == 21
        assert np.allclose(seen[0], expected, rtol=1e-9, atol=0)


class TestConfusion:
    def test_apply_identity(self, monkeypatch):
        # An identity readout leaves the sampled frequencies bit for bit.
        plain = NoiseConfig(shots=1000, depol_rate=1e-2, seed=4)
        ideal = NoiseConfig(shots=1000, depol_rate=1e-2, seed=4, confusion=ConfusionMatrix(np.eye(4)))
        omegas = np.linspace(0.0, 3.0, 7)
        for correct in (True, False):
            if not correct:
                raw_readout(monkeypatch)
            a = simulate_probability_batch(5, omegas, PARAMS, plain)
            b = simulate_probability_batch(5, omegas, PARAMS, ideal)
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
        r = ConfusionMatrix.uniform(0.45)
        with pytest.raises(InversionRejectedError) as err:
            invert_confusion(np.array([0.25, 0.25, 0.25, 0.25]), r)
        assert err.value.kappa == math.inf

    def test_column_batch_matches_single_vectors(self):
        r = ConfusionMatrix.uniform(0.9)
        q = np.random.default_rng(4).dirichlet(np.ones(4), size=5).T
        batch = invert_confusion(q, r)
        assert batch.shape == (4, 5)
        for j in range(5):
            assert batch[:, j].tobytes() == invert_confusion(q[:, j], r).tobytes()

    def test_batch_readout_correction_rejects_non_dominant_matrix(self, monkeypatch):
        noise = NoiseConfig(shots=1000, seed=3, confusion=ConfusionMatrix.uniform(0.4))
        with pytest.raises(InversionRejectedError):
            simulate_probability_batch(5, [0.1, 0.2], PARAMS, noise)
        raw_readout(monkeypatch)
        raw = simulate_probability_batch(5, [0.1, 0.2], PARAMS, noise)
        assert raw.shape == (2, 2)

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
    vs = np.empty((reps, 2 * d - 1), dtype=complex)
    for rep in range(reps):
        px, py = simulate_probability_batch(d, grid, PARAMS, noise, replicate=rep, block=0)
        vs[rep] = np.fft.fft(px - 0.5 + 1j * (py - 0.5)) / (2 * d - 1) - truth
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
