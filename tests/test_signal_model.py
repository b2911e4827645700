"""Exact signal, its Fourier structure, and the first-order coefficient model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fsimcal import FsimParams
from fsimcal.signal_model import exact_signal, omega_grid, spectrum_from_h
from fsimcal.su2 import pq_values

from oracles import (
    RegimeViolationError,
    amplitude_profile,
    approx_coefficients,
    binomial_signal_replicates,
    brute_circuit_probability,
    coefficient,
    exact_probabilities,
    exact_signal_power_sign,
    exact_signal_two_exponentials,
    k_values,
    snr_leading_order,
    snr_lower_bound,
)

PARAMS = FsimParams(1e-3, np.pi / 16, 5 * np.pi / 32)


def exact_spectrum(d, params):
    grid = omega_grid(d)
    return spectrum_from_h(exact_signal(d, grid, params), d)


def real_profile(spectrum, params):
    """Strip the phase model off c_k of a (2d-1,) spectrum; the leftovers must be real (ctilde_k)."""
    ks = k_values((len(spectrum) + 1) // 2)
    rotated = spectrum * (-1j) * np.exp(1j * params.chi) * np.exp(1j * (2 * ks + 1) * params.varphi)
    return rotated


@pytest.mark.simd_bytes
class TestExactProbabilities:
    @pytest.mark.parametrize("theta", [1e-3, 0.4, 2.9])
    def test_bytes_match_the_power_sign_form(self, theta):
        # A scalar depth over a grid, one scalar angle, and one depth per circuit as the noise path passes.
        params = FsimParams(theta, -2.5, 0.8)
        depths = np.array([2, 3, 10, 11, 50, 51, 4096, 6501] * 4)
        omegas = np.linspace(-np.pi, np.pi, len(depths))
        for d, om in ((51, omega_grid(51)), (50, omega_grid(50)), (7, 1.9), (depths, omegas)):
            assert exact_signal(d, om, params).tobytes() == exact_signal_power_sign(d, om, params).tobytes()

    @pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-3, 1e-2, 0.4, np.pi / 2, 2.9, -0.3])
    def test_within_rounding_of_the_two_exponential_route(self, theta):
        # Measured: at most 1.3e-15 of max |h| (about 6 eps) here, 2.1e-15 (9 eps) over a wider scan of angles and depths.
        rng = np.random.default_rng(5)
        depths = np.array([2, 3, 10, 11, 50, 51, 4096, 6501] * 4)
        for d, om in ((2, omega_grid(2)), (51, omega_grid(51)), (4096, omega_grid(4096)), (16384, omega_grid(16384)),
                      (depths, rng.uniform(-np.pi, np.pi, len(depths)))):
            params = FsimParams(theta, *rng.uniform(-np.pi, np.pi, 2))
            h, ref = exact_signal(d, om, params), exact_signal_two_exponentials(d, om, params)
            assert np.abs(h - ref).max() <= 16 * np.finfo(float).eps * np.abs(ref).max()

    def test_theta_zero_gives_half(self):
        for omega in (0.0, 0.4, 2.9):
            s = exact_probabilities(6, omega, FsimParams(0.0, 0.3, -0.7))
            assert s.p_x == pytest.approx(0.5, abs=1e-15)
            assert s.p_y == pytest.approx(0.5, abs=1e-15)
            assert abs(s.h) < 1e-15

    def test_phase_matched_amplitude(self):
        d, theta = 40, 1e-3
        params = FsimParams(theta, 0.6, 1.0)
        s = exact_probabilities(d, params.varphi, params)
        u = np.sin(d * theta) / np.sin(theta)
        f2 = np.sin(theta) ** 2 * u * u * (1 - np.sin(theta) ** 2 * u * u)
        assert abs(s.h) ** 2 == pytest.approx(f2, rel=1e-12)
        assert abs(s.h) == pytest.approx(d * theta, rel=2e-3)  # ~ d*theta for d*theta << 1

    def test_brute_circuit_oracle_spec_point(self):
        d, params, omega = 7, FsimParams(0.2, 0.9, 0.4), 1.3
        s = exact_probabilities(d, omega, params)
        assert s.p_x == pytest.approx(
            brute_circuit_probability(d, omega, params.theta, params.varphi, params.chi, 1.0), abs=1e-12
        )
        assert s.p_y == pytest.approx(
            brute_circuit_probability(d, omega, params.theta, params.varphi, params.chi, 1.0j), abs=1e-12
        )

    @given(st.integers(1, 40), st.floats(-np.pi, np.pi), st.floats(0.0, 1.3),
           st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
    @settings(max_examples=60, deadline=None)
    def test_brute_circuit_oracle_random(self, d, omega, theta, varphi, chi):
        s = exact_probabilities(d, omega, FsimParams(theta, varphi, chi))
        assert s.p_x == pytest.approx(brute_circuit_probability(d, omega, theta, varphi, chi, 1.0), abs=1e-12)
        assert s.p_y == pytest.approx(brute_circuit_probability(d, omega, theta, varphi, chi, 1.0j), abs=1e-12)

    @given(st.integers(1, 60), st.floats(-np.pi, np.pi), st.floats(0.0, np.pi / 2),
           st.floats(-np.pi, np.pi))
    @settings(max_examples=60, deadline=None)
    def test_noiseless_amplitude_cap(self, d, omega, theta, varphi):
        # |h|^2 = a(1-a) with a <= (d sin t)^2, so |h| <= min(d sin t, 1/2).
        s = exact_probabilities(d, omega, FsimParams(theta, varphi, 0.3))
        cap = min(d * np.sin(theta) * (1 + 1e-12), np.sqrt(2.0) / 2.0)
        assert abs(s.h) <= cap + 1e-12


class TestAmplitudeProfile:
    def test_theta_zero(self):
        assert amplitude_profile(9, 0.3, FsimParams(0.0, 0.1, 0.2)) == 0.0

    def test_first_kernel_zero(self):
        d, theta = 20, 1e-3
        params = FsimParams(theta, 0.25, 0.0)
        val = amplitude_profile(d, params.varphi + np.pi / d, params)
        assert val < 1e-3 * (d * theta) ** 2 * np.sin(theta) ** 2

    @given(st.integers(1, 50), st.floats(-np.pi, np.pi), st.floats(0.0, 1.3),
           st.floats(-np.pi, np.pi))
    @settings(max_examples=60, deadline=None)
    def test_consistent_with_probabilities(self, d, omega, theta, varphi):
        params = FsimParams(theta, varphi, 0.77)
        s = exact_probabilities(d, omega, params)
        prof = amplitude_profile(d, omega, params)
        assert prof == pytest.approx((s.p_x - 0.5) ** 2 + (s.p_y - 0.5) ** 2, abs=1e-12)


class TestDftSpectrum:
    def test_zero_signal(self):
        d = 5
        spec = spectrum_from_h(np.zeros(2 * d - 1, dtype=complex), d)
        assert np.abs(spec).max() == 0.0

    def test_grid_contract(self):
        d = 4
        h = exact_signal(d, omega_grid(d), PARAMS)
        spec = spectrum_from_h(h, d)
        assert spec.shape == (2 * d - 1,)
        with pytest.raises(ValueError, match="expected .* values"):
            spectrum_from_h(h[:-1], d)
        with pytest.raises(ValueError, match="expected .* values"):
            spectrum_from_h(h, d + 1)

    def test_inverse_reconstruction(self):
        d = 9
        grid = omega_grid(d)
        h = exact_signal(d, grid, FsimParams(0.3, -0.9, 0.5))
        spec = spectrum_from_h(h, d)
        recon = np.array([np.sum(spec * np.exp(2j * k_values(d) * w)) for w in grid])
        assert np.abs(recon - h).max() < 1e-12

    def test_coefficient_model_small_angle(self):
        # c_k = i e^{-i chi} e^{-i(2k+1) varphi} theta up to the bounded remainder.
        d, theta = 20, 1e-3
        params = FsimParams(theta, np.pi / 16, 5 * np.pi / 32)
        spec = exact_spectrum(d, params)
        ks = np.arange(d)
        model = 1j * np.exp(-1j * params.chi) * np.exp(-1j * (2 * ks + 1) * params.varphi) * theta
        # certified pieces: 2(d theta)^5 remainder, (2/3)(d theta)^2 profile dip, theta^3/6
        budget = 2 * (d * theta) ** 5 + np.sin(theta) * (2.0 / 3.0) * (d * theta) ** 2 + theta**3 / 6
        assert np.abs(spec[:d] - model).max() < budget

    def test_quadrature_oracle(self):
        d, theta = 5, 0.05
        params = FsimParams(theta, np.pi / 16, 5 * np.pi / 32)
        spec = exact_spectrum(d, params)
        profile = real_profile(spec, params)

        def integrand(w, k, part):
            p, q = pq_values(d, np.cos([w]), np.sin([w]), theta)
            val = np.exp(-1j * (2 * k + 1) * w) * p[0] * q[0]
            return val.real if part == "re" else val.imag

        for k in range(-d + 1, d):
            re = quad(integrand, 0.0, np.pi, args=(k, "re"), limit=200, epsabs=1e-12, epsrel=1e-12)[0]
            im = quad(integrand, 0.0, np.pi, args=(k, "im"), limit=200, epsabs=1e-12, epsrel=1e-12)[0]
            ctilde = np.sin(theta) / np.pi * complex(re, im)
            assert abs(ctilde.imag) < 1e-11
            assert abs(coefficient(spec, k) * (-1j) * np.exp(1j * (params.chi + (2 * k + 1) * params.varphi)) - ctilde) < 1e-9

    @given(st.integers(2, 30), st.floats(0.0, 0.8), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, d, theta, varphi, chi):
        params = FsimParams(theta, varphi, chi)
        grid = omega_grid(d)
        h = exact_signal(d, grid, params)
        spec = spectrum_from_h(h, d)
        lhs = np.sum(np.abs(spec) ** 2)
        rhs = np.mean(np.abs(h) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
           st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_periodicity(self, d, theta, varphi, chi, omega):
        params = FsimParams(theta, varphi, chi)
        a = complex(exact_signal(d, omega, params))
        b = complex(exact_signal(d, omega + np.pi, params))
        assert abs(a - b) < 1e-12

    def test_profile_is_real(self):
        for d, theta in [(5, 1e-2), (20, 1e-3), (14, 0.2)]:
            params = FsimParams(theta, 0.4, -1.1)
            profile = real_profile(exact_spectrum(d, params), params)
            assert np.abs(profile.imag).max() < 1e-9

    def test_signal_magnitude_scales_with_sin_theta(self):
        d = 50
        for theta in (1e-2, 1e-3):
            params = FsimParams(theta, np.pi / 16, 5 * np.pi / 32)
            h = exact_signal(d, omega_grid(d), params)
            ratio = np.abs(h).max() / np.sin(theta)
            assert 0.9 * d * (1 - (d * theta) ** 2) <= ratio <= d

    def test_negative_coefficients_are_third_order(self):
        d, theta = 12, 1e-2
        params = FsimParams(theta, 0.2, 0.3)
        spec = exact_spectrum(d, params)
        chat = approx_coefficients(d, theta)
        neg = k_values(d) < 0
        bound = np.sin(theta) * np.abs(chat[neg]) + 2 * (d * theta) ** 5
        assert (np.abs(spec[neg]) <= bound + 1e-15).all()


class TestApproxCoefficients:
    def test_theta_zero(self):
        d = 7
        chat = approx_coefficients(d, 0.0)
        ks = k_values(d)
        assert np.array_equal(chat[ks >= 0], np.ones(d))
        assert np.array_equal(chat[ks < 0], np.zeros(d - 1))

    def test_k_zero_branch_value(self):
        d, theta = 9, 0.07
        expected = 1 - 0.5 * (3 * d * d - 1 - (d - 1) ** 2) * (1 - np.cos(theta))
        assert approx_coefficients(d, theta)[0] == pytest.approx(expected, rel=1e-15)

    def test_first_order_error_bound(self):
        for d, theta in [(10, 0.01), (5, 0.05), (20, 0.01), (50, 0.001), (50, 0.01)]:
            params = FsimParams(theta, np.pi / 16, 5 * np.pi / 32)
            profile = real_profile(exact_spectrum(d, params), params).real
            err = np.abs(profile - np.sin(theta) * approx_coefficients(d, theta)).max()
            assert err <= 2 * (d * theta) ** 5


class TestSnrBound:
    def test_zero_at_theta_zero(self):
        assert snr_lower_bound(10, 1000, 0.0) == 0.0

    def test_leading_order(self):
        d, m, theta = 50, 100_000, 1e-3
        bound = snr_lower_bound(d, m, theta)
        lead = snr_leading_order(d, m, theta)
        assert lead == pytest.approx(4 * d * m * theta**2)
        correction = (4.0 / 3.0) * (d * theta) ** 2 * (1 + 3 * d**3 * theta**2)
        assert bound == pytest.approx(2 * (2 * d - 1) * m * np.sin(theta) ** 2 * (1 - correction), rel=1e-12)
        assert bound == pytest.approx(lead, rel=0.05)

    def test_regime_violation(self):
        with pytest.raises(RegimeViolationError):
            snr_lower_bound(200, 1000, 0.05)  # d^5 theta^4 >> 1

    def test_monte_carlo_replicates_beat_bound(self):
        d, m, theta, reps = 50, 100_000, 1e-3, 500
        params = FsimParams(theta, np.pi / 16, 5 * np.pi / 32)
        h = binomial_signal_replicates(d, (theta, params.varphi, params.chi), m, reps, seed=42)
        coeffs = np.fft.fft(h, axis=1) / (2 * d - 1)
        truth = exact_spectrum(d, params)
        noise = coeffs - truth[None, :]
        var = (np.abs(noise) ** 2).mean(axis=0)
        snr = np.abs(truth[:d]) ** 2 / var[:d]
        # The bound is nearly tight here, so the finite-replicate variance
        # estimate needs its 3-standard-error allowance (rel SD sqrt(2/reps)).
        slack = 1.0 - 3.0 * np.sqrt(2.0 / reps)
        assert (snr >= snr_lower_bound(d, m, theta) * slack).all()
        assert snr.mean() >= snr_lower_bound(d, m, theta)


def test_omega_grid_spacing():
    grid = omega_grid(6)
    assert len(grid) == 11
    assert grid[0] == 0.0
    assert np.allclose(np.diff(grid), np.pi / 11)
    assert grid[-1] < np.pi
