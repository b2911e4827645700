"""Fisher information, CRLB closed forms, and the depth-scaling scan."""

import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsimcal import FsimParams, fisher
from fsimcal.fisher import (
    SingularFisherError,
    _inverse_diagonal,
    crlb,
    fisher_matrix,
    gradient_grid,
    preasymptotic_variances,
    regime_flag,
    transition_scan,
    windowed_slopes,
)
from fsimcal.signal_model import exact_signal, omega_grid

from oracles import (
    fisher_matrix_two_pass,
    gradient_grid_complex_rows,
    hand_inverse_3x3,
    richardson_gradient_grid,
    spectral_phase_gradient,
    windowed_slopes_loop,
    windowed_slopes_polyfit,
)

M = 100_000
PARAMS = FsimParams(1e-3, np.pi / 16, 5 * np.pi / 32)
REFERENCE = json.loads((pathlib.Path(__file__).parent / "fixtures" / "chebyshev_reference.json").read_text(encoding="utf-8"))


def _phase_row(d, params):
    """gradient_grid's dh/dvarphi as complex values over the grid."""
    row = gradient_grid(d, params)[0][1]
    return row[: 2 * d - 1] + 1j * row[2 * d - 1 :]


def _scaled_errors(case, phase_row):
    """|dh/dvarphi - reference| / max |dh/dvarphi| at each phase w of a reference case.

    w is put at the grid angle omega = 0 by varphi = -w.  The principal branch
    of varphi moves it by 2 pi where |w| >= pi: at w = pi the point lands on -w,
    where g(-w) = conj(g(w)) gives dg/dw = -conj(dg/dw(w)); the d = 2 grid
    phases past pi move by an ulp of w.
    """
    errors = []
    for w, (re, im) in zip(case["w"], case["dg_dw"]):
        params = FsimParams(case["theta"], -w, PARAMS.chi)
        dg = -complex(re, -im) if -params.varphi == -w != w else complex(re, im)
        ref = -1j * np.exp(-1j * params.chi) * np.sin(params.theta) * dg
        dh = phase_row(case["d"], params)
        errors.append(abs(dh[0] - ref) / np.abs(dh).max())
    return np.array(errors)


class TestGradients:
    def test_chi_derivative_identity(self):
        # d h / d chi = -i h, so dp_X/dchi = Im(h) and dp_Y/dchi = -Re(h).
        for d in (5, 50, 400):
            grads, _ = gradient_grid(d, PARAMS)
            h = exact_signal(d, omega_grid(d), PARAMS)
            analytic = np.concatenate([h.imag, -h.real])
            assert np.abs(grads[2] - analytic).max() < 1e-7

    @pytest.mark.parametrize("theta", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("d", [2, 3, 50, 1000, 4096])
    def test_matches_richardson_oracle(self, d, theta):
        params = FsimParams(theta, PARAMS.varphi, PARAMS.chi)
        grads, _ = gradient_grid(d, params)
        ref = richardson_gradient_grid(d, params)
        assert grads.shape == (3, 2 * (2 * d - 1))
        rel = np.linalg.norm(grads - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert rel.max() <= 1e-5


@pytest.mark.simd_bytes
class TestRealArithmeticRows:
    """The theta and varphi rows in real arithmetic against their complex-product form.

    Measured: at most 2.4 eps of the row's largest magnitude on these cases (d = 16384,
    theta = 0.4), and 3.3 eps with phases (2.1, -0.4) and (0, 0) too; the chi row is the
    same bytes.  Both run in fisher_matrix's blocks, two, five and eight of them at
    d = 2049, 8193 and 16384.
    """

    @pytest.mark.parametrize("theta", [0.0, 1e-4, 1e-2, 0.4, np.pi / 2])
    @pytest.mark.parametrize("d", [2, 3, 50, 2049, 8193, 16384])
    def test_rows_match_the_complex_form_within_16_eps(self, d, theta):
        params = FsimParams(theta, -0.7, 1.3)
        bound = 16 * np.finfo(float).eps * np.abs(gradient_grid_complex_rows(d, params)[0][:2]).max(axis=1)
        n, step = 2 * d - 1, fisher._BLOCK_POINTS
        for s in range(0, n, step):
            stop = min(s + step, n)
            got, ref = gradient_grid(d, params, s, stop)[0], gradient_grid_complex_rows(d, params, s, stop)[0]
            assert (np.abs(got[:2] - ref[:2]).max(axis=1) <= bound).all()
            assert got[2].tobytes() == ref[2].tobytes()


class TestPhaseDerivative:
    """The closed-form dh/dvarphi against 60 digits and against the spectral route it replaced."""

    @pytest.mark.parametrize("case", REFERENCE["cases"], ids=lambda c: f"d{c['d']}-theta{c['theta']}")
    def test_matches_60_digit_reference(self, case):
        closed = _scaled_errors(case, _phase_row)
        assert closed.max() <= 1e-12
        if case["d"] >= 4096 and case["theta"] == 1e-4:
            assert closed.max() <= _scaled_errors(case, spectral_phase_gradient).max()

    @pytest.mark.parametrize("theta", [1e-4, 1e-3, 1e-2, 0.4])
    @pytest.mark.parametrize("d", [2, 3, 4, 50, 1000, 4096, 6502])
    def test_matches_spectral_oracle_within_rounding(self, d, theta):
        # The spectral route's own error grows like d eps (about 5e-12 against
        # 60 digits at d = 16384), so the two agree to a few d eps, not to eps.
        params = FsimParams(theta, -0.7, 1.3)
        closed, spectral = _phase_row(d, params), spectral_phase_gradient(d, params)
        assert np.abs(closed - spectral).max() <= 10 * d * np.finfo(float).eps * np.abs(spectral).max()


@pytest.mark.simd_bytes
class TestOnePass:
    """One closed-form pass per point, p from its own h, against the two-pass matrix and exact_signal.

    The pass's h is exact_signal's, bit for bit: both form it through su2.pq_values with the
    same operands in the same order, so the weights' p are the simulator's exact p.  The two-pass
    oracle takes its gradients and its p from chebyshev_tu_power_sign, so the entries agree to
    rounding, not to the bit (measured: each entry 3.6e-14 of sqrt(F_ii F_jj), the CRLB diagonal
    3.6e-14 relative); test_entries_match_two_pass_bytes checks these stated bounds.
    d = 4096 and up sum the grid in two or more blocks; the oracle takes the whole grid at once.
    """

    @pytest.mark.parametrize("theta", [0.0, 1e-4, 1e-3, 1e-2, 0.4, np.pi / 2])
    @pytest.mark.parametrize("d", [2, 3, 4, 50, 1000, 4096, 6502, 8193, 16384])
    def test_entries_match_two_pass_bytes(self, d, theta):
        params = FsimParams(theta, -0.7, 1.3)
        info = fisher_matrix(d, params, M)
        entries, clamped = fisher_matrix_two_pass(d, params, M)
        assert np.abs(info.entries - entries).max() <= 1e-12 * np.abs(entries).max()
        # The entries span many decades; hold each one to its own row and column scale, as the inversion does.
        scale = np.sqrt(np.outer(np.diag(entries), np.diag(entries)))
        assert (np.abs(info.entries - entries) <= 1e-11 * scale).all()
        if 0.0 < theta < np.pi / 2:  # the phase block is singular at both ends
            assert np.abs(_inverse_diagonal(info.entries) / _inverse_diagonal(entries) - 1.0).max() <= 1e-11
        assert info.clamped_points == clamped

    @pytest.mark.parametrize("theta", [0.0, 1e-4, 1e-2, np.pi / 2])
    @pytest.mark.parametrize("d", [2, 51, 4096, 8193, 16384])
    def test_weight_probabilities_are_exact_signal_bytes(self, d, theta):
        # The whole grid in one pass, and in fisher_matrix's blocks (two or more from d = 4096 up).
        params = FsimParams(theta, 2.1, -0.4)
        n, step = 2 * d - 1, fisher._BLOCK_POINTS
        blocks = np.concatenate([gradient_grid(d, params, s, min(s + step, n))[1] for s in range(0, n, step)])
        h = exact_signal(d, omega_grid(d), params)
        assert gradient_grid(d, params)[1].tobytes() == blocks.tobytes() == h.tobytes()


@pytest.mark.simd_bytes
class TestBlocks:
    """The Fisher sum over blocks of any size: the same entries to rounding, the same clamped points."""

    # p_X = 1 + 4e-15 at column 30 of the d = 51 grid (|h| = 1/2 there), in the fifth block of 7: one clamped point.
    CLAMPED = FsimParams(1.0009435211535902, -2.195364427435445, -2.512324884421145)

    @pytest.mark.parametrize("theta", [0.0, 1e-4, 1e-2, 0.4, np.pi / 2, "clamped"])
    @pytest.mark.parametrize(
        "d, block", [(2, 1), (2, 7), (51, 1), (51, 7), (51, None), (300, 1), (300, 7), (2049, 7), (2049, None), (8193, None)]
    )
    def test_block_size_does_not_change_the_answer(self, monkeypatch, d, block, theta):
        params = self.CLAMPED if theta == "clamped" else FsimParams(theta, -0.7, 1.3)
        reference = fisher_matrix(d, params, M)
        monkeypatch.setattr(fisher, "_BLOCK_POINTS", block or 2 * d - 1)
        info = fisher_matrix(d, params, M)
        scale = np.sqrt(np.outer(np.diag(reference.entries), np.diag(reference.entries)))
        assert (np.abs(info.entries - reference.entries) <= 1e-13 * scale).all()
        assert info.clamped_points == reference.clamped_points == (1 if theta == "clamped" and d == 51 else 0)

    def test_memory_does_not_grow_with_depth(self):
        # The whole-grid pass held about 92 MiB at this depth (a (3, 2(2d-1)) gradient array and its temporaries).
        tracemalloc.start()
        try:
            crlb(262144, FsimParams(1e-4, PARAMS.varphi, PARAMS.chi), M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestFisherMatrix:
    def test_symmetric_positive_semidefinite(self):
        info = fisher_matrix(20, PARAMS, M)
        assert np.abs(info.entries - info.entries.T).max() < 1e-10
        assert np.linalg.eigvalsh(info.entries).min() >= -1e-10

    def test_varphi_information_vanishes_with_theta(self):
        tiny = fisher_matrix(10, FsimParams(1e-6, 0.2, 0.3), 1000).entries[1, 1]
        small = fisher_matrix(10, FsimParams(1e-3, 0.2, 0.3), 1000).entries[1, 1]
        assert tiny < 1e-5 * small  # scales like theta^2

    def test_preasymptotic_block_structure(self):
        d = 50
        info = fisher_matrix(d, PARAMS, M).entries
        n = 2 * d - 1
        t = PARAMS.theta
        base = 4 * M * n
        assert info[0, 0] == pytest.approx(base * d, rel=0.05)
        assert info[1, 1] == pytest.approx(base * d * (4 * d * d - 1) / 3 * t * t, rel=0.05)
        assert info[1, 2] == pytest.approx(base * d * d * t * t, rel=0.05)
        assert info[2, 2] == pytest.approx(base * d * t * t, rel=0.05)
        assert abs(info[0, 1]) < 0.05 * np.sqrt(info[0, 0] * info[1, 1])
        assert abs(info[0, 2]) < 0.05 * np.sqrt(info[0, 0] * info[2, 2])


class TestCrlb:
    def test_matches_closed_forms_in_preasymptotic_regime(self):
        for d, theta in ((50, 1e-3), (5, 1e-2), (2, 1e-2), (20, 1e-3)):
            rep = crlb(d, FsimParams(theta, PARAMS.varphi, PARAMS.chi), M)
            assert 0 < rep.crlb_theta and 0 < rep.crlb_varphi and 0 < rep.crlb_chi
            assert rep.crlb_theta == pytest.approx(rep.preasymptotic_theta, rel=0.10)
            assert rep.crlb_varphi == pytest.approx(rep.preasymptotic_varphi, rel=0.10)
            assert rep.crlb_chi == pytest.approx(rep.preasymptotic_chi, rel=0.10)

    def test_closed_form_values(self):
        d, theta = 50, 1e-3
        base = 1.0 / (4.0 * M * d * (2 * d - 1))
        vt, vp, vc = preasymptotic_variances(d, theta, M)
        assert vt == pytest.approx(base)
        assert vp == pytest.approx(3 * base / ((d * d - 1) * theta**2))
        assert vc == pytest.approx(base * (4 * d * d - 1) / ((d * d - 1) * theta**2))

    def test_doubling_shots_halves_every_entry(self):
        a = crlb(12, PARAMS, M)
        b = crlb(12, PARAMS, 2 * M)
        assert b.crlb_theta == pytest.approx(a.crlb_theta / 2, rel=1e-9)
        assert b.crlb_varphi == pytest.approx(a.crlb_varphi / 2, rel=1e-9)
        assert b.crlb_chi == pytest.approx(a.crlb_chi / 2, rel=1e-9)

    def test_hand_inverted_cross_check_at_d2(self):
        info = fisher_matrix(2, FsimParams(1e-2, 0.1, 0.2), 1000)
        inv = hand_inverse_3x3(info.entries)
        rep = crlb(2, FsimParams(1e-2, 0.1, 0.2), 1000)
        assert rep.crlb_theta == pytest.approx(inv[0, 0], rel=1e-8)
        assert rep.crlb_varphi == pytest.approx(inv[1, 1], rel=1e-8)
        assert rep.crlb_chi == pytest.approx(inv[2, 2], rel=1e-8)

    def test_singular_at_theta_zero(self):
        # theta = 0: no signal at all.  theta = pi/2: h vanishes for every
        # (varphi, chi), so only theta carries information.  varphi = 0 puts
        # the phase-matched angle on the grid.  d = 8193 sums five blocks.
        for d in (6, 7, 8193):
            for theta in (0.0, np.pi / 2):
                for varphi in (0.0, 0.1):
                    with pytest.raises(SingularFisherError):
                        crlb(d, FsimParams(theta, varphi, 0.2), 1000)

    @pytest.mark.parametrize("d", [8192, 16384])
    def test_finite_in_the_deep_regime(self, d):
        rep = crlb(d, FsimParams(1e-4, PARAMS.varphi, PARAMS.chi), M)
        assert all(np.isfinite(v) and v > 0 for v in (rep.crlb_theta, rep.crlb_varphi, rep.crlb_chi))

    def test_regime_flags(self):
        assert regime_flag(50, 1e-3) == "pre-asymptotic"
        assert regime_flag(500, 1e-3) == "transition"
        assert regime_flag(5000, 1e-3) == "asymptotic"
        assert crlb(50, PARAMS, M).regime_flag == "pre-asymptotic"


class TestTransitionScan:
    def test_synthetic_slope_is_exactly_minus_one(self):
        depths = np.array([10, 20, 40, 80, 160])
        values = 3.7 / depths  # pure 1/d from the prefactor
        slopes = windowed_slopes(depths, values)
        assert np.abs(slopes + 1.0).max() < 1e-12

    @pytest.mark.simd_bytes
    @given(st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=60), st.lists(st.floats(-700.0, 700.0), min_size=60, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_slopes_are_the_window_loop_bytes(self, log_steps, log_values):
        # Any increasing depths (log gaps of 1e-3 and up) and any positive values, two points and up.
        depths = np.exp(np.cumsum(np.abs(log_steps) + 1e-3))
        values = np.exp(log_values[: len(depths)])
        assert windowed_slopes(depths, values).tobytes() == windowed_slopes_loop(depths, values).tobytes()

    @pytest.mark.parametrize("points", [2, 3, 5, 40])
    def test_slopes_match_polyfit_on_geometric_grids(self, points):
        # With 2 or 3 depths every window is the whole grid; 5 and 40 give the 3- and 4-point edge windows.
        depths = np.geomspace(2, 16384, points)
        values = depths**-4.0 / (1.0 + depths / 100.0)  # a bend: the slope moves from -4 to -5
        assert np.abs(windowed_slopes(depths, values) - windowed_slopes_polyfit(depths, values)).max() <= 1e-12

    @given(
        st.integers(2, 40),
        st.floats(2.0, 100.0),
        st.floats(1.2, 3.0),
        st.floats(-6.0, 2.0),
        st.floats(1e-12, 1e6),
        st.floats(2.0, 16384.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_slopes_match_polyfit_on_power_laws(self, points, start, ratio, exponent, prefactor, knee, bend):
        # A broken power law: the slope moves from exponent to exponent + bend around d = knee.
        depths = start * ratio ** np.arange(points)
        values = prefactor * depths**exponent * (1.0 + depths / knee) ** bend
        assert np.abs(windowed_slopes(depths, values) - windowed_slopes_polyfit(depths, values)).max() <= 1e-12

    def test_rows_and_ordering(self):
        rows = transition_scan(FsimParams(1e-2, PARAMS.varphi, PARAMS.chi), M, [4, 8, 16])
        assert [r["d"] for r in rows] == [4, 8, 16]
        assert set(rows[0]) >= {
            "d",
            "crlb_theta",
            "crlb_varphi",
            "crlb_chi",
            "slope_theta",
            "slope_varphi",
            "slope_chi",
            "preasymptotic_varphi",
            "regime_flag",
        }
        with pytest.raises(ValueError):
            transition_scan(FsimParams(1e-2, PARAMS.varphi, PARAMS.chi), M, [8, 4])

    @pytest.mark.parametrize("grid", [[], [4], [4, 4], [4, 4, 8]])
    def test_rejects_grids_without_two_distinct_depths_in_order(self, grid):
        # A window needs two distinct depths for a slope; the crlb-scan config rule rejects the same grids.
        with pytest.raises(ValueError, match="two or more increasing depths"):
            transition_scan(FsimParams(1e-2, PARAMS.varphi, PARAMS.chi), M, grid)

    def test_preasymptotic_slope_near_minus_four(self):
        rows = transition_scan(PARAMS, M, [20, 30, 45, 70, 100, 150])
        inner = rows[2]
        assert -4.4 < inner["slope_varphi"] < -3.7
