"""Fourier-space estimators, the weighted phase average, ladder and peak fit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsimcal import ExperimentConfig, FsimParams, NoiseConfig
from fsimcal.estimators import (
    DegenerateCoefficientError,
    estimate_alpha_corrected,
    fourier_estimate,
    peak_fit,
    peak_fit_operator,
    sequential_phase_diffs,
    theta_pd_estimate,
    variance_theory_theta,
    variance_theory_theta_pd,
    variance_theory_varphi,
    wpa_solve,
)
from fsimcal.harness import PeakFitConfig, run_points
from fsimcal.signal_model import exact_signal, omega_grid, spectrum_from_h

from oracles import (
    binomial_signal_replicates,
    dense_wpa,
    peak_fit_lstsq,
    peak_fit_reference,
    thomas_wpa,
    wpa_weights,
)

D, M, THETA = 50, 100_000, 1e-3
PARAMS = FsimParams(THETA, np.pi / 16, 5 * np.pi / 32)


def model_coefficients(d, theta, varphi, chi):
    """c_0 .. c_{d-1} with exactly the small-angle coefficient model."""
    ks = np.arange(d)
    return 1j * np.exp(-1j * chi) * np.exp(-1j * (2 * ks + 1) * varphi) * theta


def exact_coefficients(d, params):
    """c_0 .. c_{d-1} of the noiseless signal, as the pipeline hands them to the estimators."""
    return spectrum_from_h(exact_signal(d, omega_grid(d), params), d)[:d]


def estimate(c, m_shots):
    """fourier_estimate on c = c_0 .. c_{d-1}, its row's pieces formed as run_replicate forms them."""
    amps = np.abs(c)
    return fourier_estimate(amps, float(amps.mean()), float(0.5 * wpa_solve(sequential_phase_diffs(c))), m_shots)


class TestSequentialPhaseDiffs:
    def test_model_consistent_input(self):
        c = model_coefficients(8, 1e-3, 0.1, 0.4)
        assert np.allclose(sequential_phase_diffs(c), 0.2, atol=1e-12)

    def test_wrap_to_principal_branch(self):
        varphi = np.pi / 2 - 0.01
        c = model_coefficients(6, 1e-3, varphi, 0.0)
        deltas = sequential_phase_diffs(c)
        assert np.allclose(deltas, np.pi - 0.02, atol=1e-12)

    def test_degenerate_coefficient(self):
        # A zero coefficient's phase is undefined: its differences come out finite, and fourier_estimate fails the row.
        c = model_coefficients(5, 0.0, 0.1, 0.1)
        assert np.isfinite(sequential_phase_diffs(c)).all()
        with pytest.raises(DegenerateCoefficientError):
            estimate(c, 100)

    def test_rows_of_a_batch_match_one_row_calls(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 17, 50):
            c = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
            batch = sequential_phase_diffs(c)
            assert all(batch[i].tobytes() == sequential_phase_diffs(c[i]).tobytes() for i in range(5))

    @pytest.mark.simd_bytes
    @pytest.mark.parametrize("shape", [(400, 50), (40, 1000)])
    def test_a_batch_past_the_elision_threshold_gives_each_row_its_bits(self, shape):
        # The batch's (R, d - 1) product reaches numpy's 256 KiB temporary-elision threshold, one row's does not.
        rows, d = shape
        assert rows * (d - 1) * 16 >= 256 * 1024 > (d - 1) * 16
        rng = np.random.default_rng(rows)
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        batch = sequential_phase_diffs(c)
        assert [batch[i].tobytes() for i in range(rows)] == [sequential_phase_diffs(row).tobytes() for row in c]

    def test_noisy_covariance_diagonal(self):
        reps = 400
        h = binomial_signal_replicates(D, (THETA, PARAMS.varphi, PARAMS.chi), M, reps, seed=4040)
        deltas = np.stack(
            [sequential_phase_diffs(spectrum_from_h(row, D)[:D]) for row in h]
        )
        scale = 1.0 / (4.0 * M * (2 * D - 1) * np.sin(THETA) ** 2)
        diag = deltas.var(axis=0)
        slack = 28.0 / 3.0 * D * D / (M * (2 * D - 1)) + 4.0 * 2.0 * scale * math.sqrt(2.0 / reps)
        assert np.abs(diag - 2.0 * scale).max() <= slack


class TestWpa:
    def test_constant_vector(self):
        assert wpa_solve(np.full(9, 0.37)) == pytest.approx(0.37, abs=1e-14)

    def test_single_value(self):
        assert wpa_solve([1.7]) == 1.7

    def test_small_dense_oracle(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert wpa_solve(values) == pytest.approx(dense_wpa(values), abs=1e-13)
        assert wpa_solve(values) == pytest.approx(wpa_weights(5) @ values, abs=1e-13)

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_inverse(self, n, seed):
        values = np.random.default_rng(seed).normal(size=n)
        assert wpa_solve(values) == pytest.approx(dense_wpa(values), abs=1e-10)

    def test_matches_general_thomas_solve(self):
        # The closed-form window a_i = (i+1)(n-i)/2 against the Thomas sweep
        # on the explicit bands, to the sweep's own rounding.
        rng = np.random.default_rng(8)
        for n in range(1, 201):
            for values in (rng.normal(size=n), rng.uniform(-np.pi, np.pi, size=n)):
                assert abs(wpa_solve(values) - thomas_wpa(values)) <= 1e-13 * np.abs(values).max()

    @given(st.integers(1, 60), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_a_batch_gives_each_row_its_one_row_bytes(self, n, rows, seed):
        # One dot product per row: a matrix-vector product over the rows would sum in another order.
        values = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(rows, n))
        batch = wpa_solve(values)
        assert batch.shape == (rows,)
        assert all(batch[i].tobytes() == wpa_solve(values[i]).tobytes() for i in range(rows))
        # ... and each one-row call is the 1-D dot product a @ v / sum(a) over the window a_i = (i+1)(n-i)/2.
        a = np.arange(1, n + 1) * np.arange(n, 0, -1) / 2.0
        assert all(wpa_solve(v).tobytes() == (a @ v / a.sum()).tobytes() for v in values)

    def test_weights_closed_form_large_n(self):
        for n in (2, 17, 1000, 10_000):
            mu = wpa_weights(n)
            assert mu.sum() == pytest.approx(1.0, abs=1e-12)
            assert (mu > 0).all()
            v = np.random.default_rng(n).normal(size=n)
            assert abs(wpa_solve(v) - mu @ v) < 1e-12 * max(1.0, np.abs(v).max())


class TestFourierEstimate:
    def test_exact_signal_recovery(self):
        c = exact_coefficients(D, PARAMS)
        report = estimate(c, M)
        chat_mean_defect = 0.5 * D * D * THETA * THETA  # 1 - mean(chat_k)
        budget = 2 * (D * THETA) ** 5 + chat_mean_defect * np.sin(THETA)
        assert abs(report.theta_hat - THETA) <= budget
        assert report.varphi_hat == pytest.approx(PARAMS.varphi, abs=1e-9)
        assert report.var_theory_theta == pytest.approx(variance_theory_theta(D, M))
        assert report.var_theory_varphi == pytest.approx(variance_theory_varphi(D, M, report.theta_hat))

    def test_theta_zero_is_degenerate(self):
        c = exact_coefficients(10, FsimParams(0.0, 0.2, 0.1))
        with pytest.raises(DegenerateCoefficientError):
            estimate(c, 100)

    def test_depth_one_has_no_phase_differences(self):
        c = exact_coefficients(1, PARAMS)
        with pytest.raises(ValueError):
            estimate(c, 100)
        with pytest.raises(ValueError):
            sequential_phase_diffs(c)

    def test_varphi_reported_mod_pi(self):
        truth = np.pi / 2 + 0.3
        c = model_coefficients(12, 1e-3, truth, 0.2)
        report = estimate(c, 1000)
        assert -np.pi / 2 < report.varphi_hat <= np.pi / 2
        assert math.remainder(report.varphi_hat - truth, np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_low_snr_warning(self):
        c = np.full(5, 1e-12, dtype=complex)
        report = estimate(c, 100)
        assert any("low-snr" in w for w in report.warnings)

    def test_json_field_names(self):
        noise = NoiseConfig(shots=M, exact=True)
        (rec,) = run_points(ExperimentConfig(mode="calibrate", gate_truth=PARAMS, noise=noise, replicates=1, depth=6))
        assert list(rec["replicates"][0]) == [
            "theta_hat",
            "varphi_hat",
            "alpha_hat",
            "theta_pd",
            "theta_pf",
            "var_theory_theta",
            "var_theory_varphi",
            "warnings",
            "diagnostics",
        ]

    def test_decoupling_under_linear_phase_shifts(self):
        c = exact_coefficients(20, FsimParams(1e-2, 0.3, -0.4))
        base = estimate(c, M)
        a, b = 0.83, 0.05
        shifted = c * np.exp(1j * (a + b * np.arange(20)))
        moved = estimate(shifted, M)
        assert moved.theta_hat == base.theta_hat  # exact invariance
        assert moved.varphi_hat == pytest.approx(base.varphi_hat - b / 2.0, abs=1e-12)

    def test_variance_against_theory(self):
        reps = 400
        h = binomial_signal_replicates(D, (THETA, PARAMS.varphi, PARAMS.chi), M, reps, seed=515)
        thetas = np.empty(reps)
        varphis = np.empty(reps)
        for i, row in enumerate(h):
            rep = estimate(spectrum_from_h(row, D)[:D], M)
            thetas[i], varphis[i] = rep.theta_hat, rep.varphi_hat
        assert 0.7 < thetas.var() / variance_theory_theta(D, M) < 1.3
        assert 0.7 < varphis.var() / variance_theory_varphi(D, M, THETA) < 1.3

    def test_mse_matches_theory_within_30_percent(self):
        # Large replicate count so the band is limited by the model itself
        # (the coefficient-modulus noise floor), not by sampling scatter.
        reps = 8000
        h = binomial_signal_replicates(D, (THETA, PARAMS.varphi, PARAMS.chi), M, reps, seed=909)
        c = np.fft.fft(h, axis=1) / (2 * D - 1)
        thetas = np.abs(c[:, :D]).mean(axis=1)
        deltas = np.angle(c[:, : D - 1] * np.conj(c[:, 1:D]))
        mu = wpa_weights(D - 1)
        varphis = 0.5 * deltas @ mu
        mse_theta = ((thetas - THETA) ** 2).mean()
        mse_varphi = ((varphis - PARAMS.varphi) ** 2).mean()
        assert 0.7 < mse_theta / variance_theory_theta(D, M) < 1.3
        assert 0.7 < mse_varphi / variance_theory_varphi(D, M, THETA) < 1.3


class TestAlphaCorrected:
    def test_clean_signal(self):
        alpha_hat, theta_hat = estimate_alpha_corrected(np.abs(exact_coefficients(D, PARAMS)))
        assert alpha_hat == pytest.approx(1.0, abs=1e-5)
        assert theta_hat == pytest.approx(THETA, rel=2e-3)

    def test_depolarized_exact_signal(self):
        # Aligned phases (chi + varphi = 5 pi/4): the k = 0 offset is colinear
        # with the signal coefficient, the regime the modulus form assumes.
        alpha = 0.9
        params = FsimParams(THETA, -29 * np.pi / 32, 5 * np.pi / 32)
        h = exact_signal(D, omega_grid(D), params)
        h_depol = alpha * h - (1 - alpha) * (1 + 1j) / 4.0
        alpha_hat, theta_hat = estimate_alpha_corrected(np.abs(spectrum_from_h(h_depol, D)[:D]))
        assert alpha_hat == pytest.approx(alpha, abs=2e-3)
        assert theta_hat == pytest.approx(THETA, rel=0.05)

    def test_needs_three_coefficients(self):
        with pytest.raises(ValueError):
            estimate_alpha_corrected(np.abs(exact_coefficients(2, PARAMS)))

    def test_fidelity_collapse(self):
        c = exact_coefficients(8, PARAMS)
        c[0] += 1.0  # blow up |c_0| so the estimate turns nonpositive
        alpha_hat, theta_hat = estimate_alpha_corrected(np.abs(np.stack([exact_coefficients(8, PARAMS), c])))
        assert alpha_hat[0] > 0.0 and theta_hat[0] == pytest.approx(THETA, rel=2e-3)
        assert alpha_hat[1] <= 0.0 and np.isnan(theta_hat[1])


class TestThetaPd:
    @staticmethod
    def ladder_amplitudes(d, params, omega):
        amps = []
        for depth in range(d, 3 * d + 1, 2):
            amps.append(abs(complex(exact_signal(depth, omega, params))))
        return np.array(amps)

    def test_exact_ladder(self):
        amps = self.ladder_amplitudes(D, PARAMS, PARAMS.varphi)
        theta_pd, var_theory, budget = theta_pd_estimate(amps, D, M, var_phi_pri=0.0)
        assert abs(theta_pd - THETA) <= 37 * (D * THETA) ** 3
        assert var_theory == pytest.approx(variance_theory_theta_pd(D, M))
        assert budget == pytest.approx(37 * (D * abs(theta_pd)) ** 3)

    def test_flat_ladder_gives_zero(self):
        theta_pd, _, _ = theta_pd_estimate(np.full(11, 0.25), 10, 100, 0.0)
        assert theta_pd == 0.0

    def test_missing_depths(self):
        with pytest.raises(ValueError):
            theta_pd_estimate(np.zeros(10), 10, 100, 0.0)

    @pytest.mark.simd_bytes
    def test_a_batch_gives_each_row_its_one_row_bits(self):
        rng = np.random.default_rng(29)
        for d, rows in ((2, 3), (10, 7), (50, 48)):
            amps = rng.uniform(0.0, 0.05, size=(rows, d + 1))
            var_phi_pri = rng.uniform(0.0, 1e-3, size=rows).tolist()
            theta_pd, var_theory, budget = theta_pd_estimate(amps, d, M, var_phi_pri)
            assert theta_pd.shape == budget.shape == (rows,)
            for i in range(rows):
                one = theta_pd_estimate(amps[i], d, M, var_phi_pri[i])
                assert one[1] == var_theory
                assert (theta_pd[i].tobytes(), budget[i].tobytes()) == (one[0].tobytes(), one[2].tobytes())

    def test_monte_carlo_variance_and_bias(self):
        reps = 600
        depths = np.arange(D, 3 * D + 1, 2)
        px = np.empty(len(depths))
        py = np.empty(len(depths))
        for i, depth in enumerate(depths):
            h = complex(exact_signal(int(depth), PARAMS.varphi, PARAMS))
            px[i], py[i] = 0.5 + h.real, 0.5 + h.imag
        rng = np.random.default_rng(606)
        ex = rng.binomial(M, px, size=(reps, len(depths))) / M
        ey = rng.binomial(M, py, size=(reps, len(depths))) / M
        amps = np.hypot(ex - 0.5, ey - 0.5)
        estimates = np.array([theta_pd_estimate(a, D, M, 0.0)[0] for a in amps])
        ratio = estimates.var() / variance_theory_theta_pd(D, M)
        assert 0.6 < ratio < 1.4
        corollary_budget = 39.0 / (16 * D * D * M * THETA) + 7.0 * D * THETA / M + 19.0 * (D * THETA) ** 3
        se = estimates.std() / math.sqrt(reps)
        assert abs(estimates.mean() - THETA) <= corollary_budget + 3 * se


class TestPeakFit:
    @staticmethod
    def local_grid(d, phi_pri, n):
        """The row's angles phi_pri + o_j and the stage's operator, as run_replicate forms them."""
        offsets, operator = peak_fit_operator(d, n)
        return phi_pri + offsets, operator

    def test_exact_parabola_recovery(self):
        d, phi = 25, 0.4
        omegas, operator = self.local_grid(d, phi, 9)
        amps = -1.0 * (omegas - phi) ** 2 + d * 1e-3
        res = peak_fit(operator, amps, d, phi)
        assert res.accepted
        assert res.theta_pf == pytest.approx(1e-3, rel=1e-12)
        assert res.beta0 == pytest.approx(-1.0)
        assert res.beta1 == pytest.approx(phi, abs=1e-12)

    def test_rejects_upward_parabola(self):
        d, phi = 25, 0.4
        omegas, operator = self.local_grid(d, phi, 9)
        res = peak_fit(operator, (omegas - phi) ** 2 + 0.01, d, phi)
        assert not res.accepted
        assert res.theta_pf is None

    def test_rejects_distant_peak(self):
        d, phi = 25, 0.4
        omegas, operator = self.local_grid(d, phi, 9)
        shifted = phi + 1.5 * np.pi / (2 * d)  # beyond the default pi/(2d) gate
        res = peak_fit(operator, -(omegas - shifted) ** 2 + 0.02, d, phi)
        assert not res.accepted

    def test_exact_amplitude_oracle_bias_below_one_percent(self):
        omegas, operator = self.local_grid(D, PARAMS.varphi, 15)
        amps = np.abs(exact_signal(D, omegas, PARAMS))
        res = peak_fit(operator, amps, D, PARAMS.varphi)
        assert res.accepted
        assert res.theta_pf == pytest.approx(THETA, rel=0.01)

    @given(st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, scale, seed):
        d, phi, n = 20, -0.3, 11
        omegas, operator = self.local_grid(d, phi, n)
        rng = np.random.default_rng(seed)
        amps = np.abs(exact_signal(d, omegas, FsimParams(2e-3, phi, 0.5))) + rng.normal(0, 1e-4, n)
        base = peak_fit(operator, amps, d, phi)
        scaled = peak_fit(operator, scale * amps, d, phi)
        assert scaled.accepted == base.accepted
        if base.accepted:
            assert scaled.theta_pf == pytest.approx(scale * base.theta_pf, rel=1e-9)

    @staticmethod
    def rows(d, n, count, spread, noise, seed):
        """(phi_pri, angles, moduli) rows near the peak: d theta in [0.03, 1], |phi_pri - varphi| < spread pi/d."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            params = FsimParams(10 ** rng.uniform(-1.5, 0.0) / d, np.pi / 16, 5 * np.pi / 32)
            phi = params.varphi + rng.uniform(-spread, spread) * np.pi / d
            omegas = TestPeakFit.local_grid(d, phi, n)[0]
            amps = np.abs(exact_signal(d, omegas, params))
            yield phi, omegas, amps + rng.normal(0.0, noise * amps.max(), n)

    # Largest relative error against the 50-digit solve over these rows (n = 15, shot-like noise 1e-3 of the peak):
    #   d        beta0: lstsq / operator    beta1: lstsq / operator    beta2: lstsq / operator
    #   50       4.1e-14 / 1.9e-15          3.2e-14 / 1.4e-16          1.2e-13 / 3.7e-16
    #   1024     1.3e-11 / 3.0e-15          4.6e-14 / 0                3.5e-11 / 3.5e-16
    #   16384    4.4e-09 / 1.8e-15          1.3e-12 / 0                8.0e-09 / 6.6e-16
    #   65536    8.3e-08 / 3.0e-15          4.9e-12 / 0                8.9e-08 / 3.9e-16
    # Over 300 rows more per d the operator's worst was 5.7e-15, 1.4e-16 and 4.4e-16; the tolerances sit 3-7x above
    # that, and the lstsq fit's beta2 error at d = 65536 is 3e7 times its tolerance.
    @pytest.mark.simd_bytes
    @pytest.mark.parametrize("d", [50, 1024, 16384, 65536])
    def test_matches_the_50_digit_least_squares(self, d):
        offsets, operator = peak_fit_operator(d, 15)
        for phi, _, amps in self.rows(d, 15, 50, 0.3, 1e-3, d):
            res = peak_fit(operator, amps, d, phi)
            for got, ref, tol in zip((res.beta0, res.beta1, res.beta2), peak_fit_reference(offsets, amps, phi),
                                     (2e-14, 1e-15, 3e-15)):
                assert abs((got - ref) / ref) <= tol, (got, ref)

    def test_the_widest_stage_builds_its_operator_in_linear_memory(self):
        # The largest n_pf the config accepts (2**17 is rejected): an n x n array would take 137 GB; the QR's n x 3
        # factors and the (3, n) operator take a few MB each.
        n = PeakFitConfig(n_pf=2**17 - 1).n_pf
        tracemalloc.start()
        try:
            offsets, operator = peak_fit_operator(2**16, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert operator.shape == (3, n) and peak < 24 * 8 * n
        # It is a left inverse of [o^2, o, 1] to rounding of its products' terms (measured 8.9e-16 of them).
        design = np.vander(offsets, 3)
        assert np.all(np.abs(operator @ design - np.eye(3)) <= 1e-14 * (np.abs(operator) @ np.abs(design)))

    @pytest.mark.parametrize("d", [50, 65536])
    def test_acceptance_agrees_with_the_lstsq_fit(self, d):
        # Vertices spread over twice the gate, so both outcomes occur; a row whose |beta1 - phi_pri| lies within
        # 1e-6 of beta_thr (far above either fit's rounding of beta1) may go either way.
        beta_thr, operator = np.pi / (2 * d), peak_fit_operator(d, 15)[1]
        flags, near = [], 0
        for phi, omegas, amps in self.rows(d, 15, 400, 1.0, 1e-2, d + 1):
            res, ref = peak_fit(operator, amps, d, phi), peak_fit_lstsq(omegas, amps, d, phi)
            if abs(abs(res.beta1 - phi) - beta_thr) <= 1e-6 * beta_thr:
                near += 1
                continue
            assert res.accepted == ref.accepted, (phi, res, ref)
            flags.append(res.accepted)
        assert near <= 2 and 0 < sum(flags) < len(flags)
