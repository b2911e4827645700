"""Fourier-space estimators, the weighted phase average, ladder and peak fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsimcal import ExperimentConfig, FsimParams, NoiseConfig
from fsimcal.estimators import (
    DegenerateCoefficientError,
    FidelityCollapseError,
    estimate_alpha_corrected,
    fourier_estimate,
    peak_fit,
    sequential_phase_diffs,
    theta_pd_estimate,
    variance_theory_theta,
    variance_theory_theta_pd,
    variance_theory_varphi,
    wpa_solve,
)
from fsimcal.harness import run_points
from fsimcal.signal_model import FourierSpectrum, exact_signal, omega_grid, spectrum_from_h

from oracles import binomial_signal_replicates, dense_wpa, k_values, thomas_wpa, wpa_weights

D, M, THETA = 50, 100_000, 1e-3
PARAMS = FsimParams(THETA, np.pi / 16, 5 * np.pi / 32)


def model_spectrum(d, theta, varphi, chi):
    """Spectrum with exactly the small-angle coefficient model."""
    ks = np.arange(d)
    c = np.zeros(2 * d - 1, dtype=complex)
    c[:d] = 1j * np.exp(-1j * chi) * np.exp(-1j * (2 * ks + 1) * varphi) * theta
    return FourierSpectrum(c, d)


def exact_spectrum(d, params):
    return spectrum_from_h(exact_signal(d, omega_grid(d), params), d)


class TestSequentialPhaseDiffs:
    def test_model_consistent_input(self):
        spec = model_spectrum(8, 1e-3, 0.1, 0.4)
        assert np.allclose(sequential_phase_diffs(spec), 0.2, atol=1e-12)

    def test_wrap_to_principal_branch(self):
        varphi = np.pi / 2 - 0.01
        spec = model_spectrum(6, 1e-3, varphi, 0.0)
        deltas = sequential_phase_diffs(spec)
        assert np.allclose(deltas, np.pi - 0.02, atol=1e-12)

    def test_degenerate_coefficient(self):
        spec = model_spectrum(5, 0.0, 0.1, 0.1)
        with pytest.raises(DegenerateCoefficientError):
            sequential_phase_diffs(spec)

    def test_noisy_covariance_diagonal(self):
        reps = 400
        h = binomial_signal_replicates(D, (THETA, PARAMS.varphi, PARAMS.chi), M, reps, seed=4040)
        deltas = np.stack(
            [sequential_phase_diffs(spectrum_from_h(row, D)) for row in h]
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

    def test_weights_closed_form_large_n(self):
        for n in (2, 17, 1000, 10_000):
            mu = wpa_weights(n)
            assert mu.sum() == pytest.approx(1.0, abs=1e-12)
            assert (mu > 0).all()
            v = np.random.default_rng(n).normal(size=n)
            assert abs(wpa_solve(v) - mu @ v) < 1e-12 * max(1.0, np.abs(v).max())


class TestFourierEstimate:
    def test_exact_signal_recovery(self):
        spec = exact_spectrum(D, PARAMS)
        report = fourier_estimate(spec, M)
        chat_mean_defect = 0.5 * D * D * THETA * THETA  # 1 - mean(chat_k)
        budget = 2 * (D * THETA) ** 5 + chat_mean_defect * np.sin(THETA)
        assert abs(report.theta_hat - THETA) <= budget
        assert report.varphi_hat == pytest.approx(PARAMS.varphi, abs=1e-9)
        assert report.var_theory_theta == pytest.approx(variance_theory_theta(D, M))
        assert report.var_theory_varphi == pytest.approx(variance_theory_varphi(D, M, report.theta_hat))

    def test_theta_zero_is_degenerate(self):
        spec = exact_spectrum(10, FsimParams(0.0, 0.2, 0.1))
        with pytest.raises(DegenerateCoefficientError):
            fourier_estimate(spec, 100)

    def test_depth_one_has_no_phase_differences(self):
        spec = exact_spectrum(1, PARAMS)
        with pytest.raises(ValueError):
            fourier_estimate(spec, 100)
        with pytest.raises(ValueError):
            sequential_phase_diffs(spec)

    def test_varphi_reported_mod_pi(self):
        truth = np.pi / 2 + 0.3
        spec = model_spectrum(12, 1e-3, truth, 0.2)
        report = fourier_estimate(spec, 1000)
        assert -np.pi / 2 < report.varphi_hat <= np.pi / 2
        assert math.remainder(report.varphi_hat - truth, np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_low_snr_warning(self):
        c = np.full(2 * 5 - 1, 1e-12, dtype=complex)
        report = fourier_estimate(FourierSpectrum(c, 5), 100)
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
        spec = exact_spectrum(20, FsimParams(1e-2, 0.3, -0.4))
        base = fourier_estimate(spec, M)
        a, b = 0.83, 0.05
        ks = k_values(20)
        shifted = FourierSpectrum(spec.coefficients * np.exp(1j * (a + b * ks)), 20)
        moved = fourier_estimate(shifted, M)
        assert moved.theta_hat == base.theta_hat  # exact invariance
        assert moved.varphi_hat == pytest.approx(base.varphi_hat - b / 2.0, abs=1e-12)

    def test_variance_against_theory(self):
        reps = 400
        h = binomial_signal_replicates(D, (THETA, PARAMS.varphi, PARAMS.chi), M, reps, seed=515)
        thetas = np.empty(reps)
        varphis = np.empty(reps)
        for i, row in enumerate(h):
            rep = fourier_estimate(spectrum_from_h(row, D), M)
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
        alpha_hat, theta_hat = estimate_alpha_corrected(exact_spectrum(D, PARAMS))
        assert alpha_hat == pytest.approx(1.0, abs=1e-5)
        assert theta_hat == pytest.approx(THETA, rel=2e-3)

    def test_depolarized_exact_signal(self):
        # Aligned phases (chi + varphi = 5 pi/4): the k = 0 offset is colinear
        # with the signal coefficient, the regime the modulus form assumes.
        alpha = 0.9
        params = FsimParams(THETA, -29 * np.pi / 32, 5 * np.pi / 32)
        h = exact_signal(D, omega_grid(D), params)
        h_depol = alpha * h - (1 - alpha) * (1 + 1j) / 4.0
        alpha_hat, theta_hat = estimate_alpha_corrected(spectrum_from_h(h_depol, D))
        assert alpha_hat == pytest.approx(alpha, abs=2e-3)
        assert theta_hat == pytest.approx(THETA, rel=0.05)

    def test_needs_three_coefficients(self):
        with pytest.raises(ValueError):
            estimate_alpha_corrected(exact_spectrum(2, PARAMS))

    def test_fidelity_collapse(self):
        spec = exact_spectrum(8, PARAMS)
        c = spec.coefficients.copy()
        c[0] += 1.0  # blow up |c_0| so the estimate turns nonpositive
        with pytest.raises(FidelityCollapseError):
            estimate_alpha_corrected(FourierSpectrum(c, 8))


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
        return phi_pri + (np.pi / d) * (np.arange(n) / (n - 1) - 0.5)

    def test_exact_parabola_recovery(self):
        d, phi = 25, 0.4
        omegas = self.local_grid(d, phi, 9)
        amps = -1.0 * (omegas - phi) ** 2 + d * 1e-3
        res = peak_fit(omegas, amps, d, phi)
        assert res.accepted
        assert res.theta_pf == pytest.approx(1e-3, rel=1e-12)
        assert res.beta0 == pytest.approx(-1.0)
        assert res.beta1 == pytest.approx(phi, abs=1e-12)

    def test_rejects_upward_parabola(self):
        d, phi = 25, 0.4
        omegas = self.local_grid(d, phi, 9)
        res = peak_fit(omegas, (omegas - phi) ** 2 + 0.01, d, phi)
        assert not res.accepted
        assert res.theta_pf is None

    def test_rejects_distant_peak(self):
        d, phi = 25, 0.4
        omegas = self.local_grid(d, phi, 9)
        shifted = phi + 1.5 * np.pi / (2 * d)  # beyond the default pi/(2d) gate
        res = peak_fit(omegas, -(omegas - shifted) ** 2 + 0.02, d, phi)
        assert not res.accepted

    def test_exact_amplitude_oracle_bias_below_one_percent(self):
        n = 15
        omegas = self.local_grid(D, PARAMS.varphi, n)
        amps = np.abs(exact_signal(D, omegas, PARAMS))
        res = peak_fit(omegas, amps, D, PARAMS.varphi)
        assert res.accepted
        assert res.theta_pf == pytest.approx(THETA, rel=0.01)

    @given(st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, scale, seed):
        d, phi, n = 20, -0.3, 11
        omegas = self.local_grid(d, phi, n)
        rng = np.random.default_rng(seed)
        amps = np.abs(exact_signal(d, omegas, FsimParams(2e-3, phi, 0.5))) + rng.normal(0, 1e-4, n)
        base = peak_fit(omegas, amps, d, phi)
        scaled = peak_fit(omegas, scale * amps, d, phi)
        assert scaled.accepted == base.accepted
        if base.accepted:
            assert scaled.theta_pf == pytest.approx(scale * base.theta_pf, rel=1e-9)

    def test_singular_and_short_inputs(self):
        with pytest.raises(ValueError):
            peak_fit(np.full(5, 0.2), np.ones(5), 10, 0.2)
        with pytest.raises(ValueError):
            peak_fit(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 10, 0.15)
