"""Gate angles, the closed-form polynomial pair, and the oracles it is checked against."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsimcal import FsimParams
from fsimcal.su2 import pq_values, wrap_angle

from oracles import (
    chebyshev_tu_at,
    chebyshev_tu_power_sign,
    chebyshev_tu_quotient,
    closed_form_pq,
    extract_pq_coefficients,
    fsim_matrix,
    periodic_unitary_product,
    qsp_product,
    special_point_pq,
    symmetric_phases,
    x_rot,
    z_rot,
)

ANGLE = st.floats(-np.pi, np.pi)
THETA = st.floats(0.0, np.pi)


def assert_unitary(u, tol=1e-12):
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < tol
    assert abs(abs(np.linalg.det(u)) - 1.0) < tol


class TestFsimUnitary:
    def test_identity_at_zero_angles(self):
        u = fsim_matrix(0.0, 0.0, 0.0)
        assert np.abs(u - np.eye(2)).max() == 0.0

    def test_pure_swap(self):
        u = fsim_matrix(np.pi / 2, 0.0, 0.0)
        assert np.abs(u - np.array([[0, -1j], [-1j, 0]])).max() < 1e-15

    @given(THETA, ANGLE, ANGLE)
    @settings(max_examples=80, deadline=None)
    def test_matches_euler_product(self, theta, varphi, chi):
        u = fsim_matrix(theta, varphi, chi)
        euler = z_rot(-(varphi - chi - np.pi) / 2) @ x_rot(theta) @ z_rot(-(varphi + chi + np.pi) / 2)
        assert np.abs(u - euler).max() < 1e-12
        assert_unitary(u)

    def test_phases_stored_on_principal_branch(self):
        p = FsimParams(0.1, 3 * np.pi, -np.pi)
        assert abs(p.varphi - np.pi) < 1e-12
        assert abs(p.chi - np.pi) < 1e-12

    @pytest.mark.parametrize("angles", [(np.nan, 0.1, 0.2), (0.1, np.inf, 0.2), (0.1, 0.2, -np.inf)])
    def test_non_finite_angle_rejected(self, angles):
        with pytest.raises(ValueError, match="finite"):
            FsimParams(*angles)


class TestQspUnitary:
    def test_x_one_collapses_to_diagonal(self):
        phases = np.array([0.3, -1.2, 0.5])
        u = qsp_product(1.0, phases)
        total = phases.sum()
        assert np.abs(u - np.diag([np.exp(1j * total), np.exp(-1j * total)])).max() < 1e-12

    def test_depth_zero_is_single_z_rotation(self):
        u = qsp_product(0.37, [0.8])
        assert np.abs(u - z_rot(0.8)).max() < 1e-15

    @given(st.integers(1, 10), st.floats(-0.99, 0.99), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_phases_give_real_q(self, d, x, seed):
        phases = symmetric_phases(np.random.default_rng(seed), d)
        u = qsp_product(x, phases)
        q = u[0, 1] / (1j * np.sqrt(1.0 - x * x))
        assert abs(q.imag) < 1e-12


class TestPeriodicProduct:
    def test_depth_one_top_left_entry(self):
        omega, theta = 0.7, 0.3
        u = periodic_unitary_product(1, omega, theta)
        assert abs(u[0, 0] - np.exp(2j * omega) * np.cos(theta)) < 1e-14

    def test_omega_zero_collapses_to_x_rotation(self):
        u = periodic_unitary_product(9, 0.0, 0.41)
        assert np.abs(u - x_rot(9 * 0.41)).max() < 1e-12

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            periodic_unitary_product(0, 0.1, 0.1)

    def test_depth_64_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            omega, theta = rng.uniform(-np.pi, np.pi), rng.uniform(0, np.pi)
            brute = periodic_unitary_product(64, omega, theta)
            assert np.abs(brute - closed_form_pq(64, omega, theta).unitary()).max() < 1e-10


class TestClosedForm:
    def test_depth_one(self):
        pair = closed_form_pq(1, 0.9, 0.4)
        assert abs(pair.p_value - np.exp(2j * 0.9) * np.cos(0.4)) < 1e-14
        assert abs(pair.q_value - 1.0) < 1e-14

    def test_omega_zero(self):
        d, theta = 11, 0.23
        pair = closed_form_pq(d, 0.0, theta)
        assert abs(pair.p_value - np.cos(d * theta)) < 1e-12
        assert abs(pair.q_value - np.sin(d * theta) / np.sin(theta)) < 1e-12

    @given(st.integers(1, 128), ANGLE, THETA)
    @settings(max_examples=120, deadline=None)
    def test_oracle_triangle(self, d, omega, theta):
        pair = closed_form_pq(d, omega, theta)
        brute = periodic_unitary_product(d, omega, theta)
        assert np.abs(pair.unitary() - brute).max() < 1e-10

    @given(st.integers(1, 64), ANGLE, THETA)
    @settings(max_examples=80, deadline=None)
    def test_special_unitarity_identity(self, d, omega, theta):
        pair = closed_form_pq(d, omega, theta)
        defect = abs(pair.p_value) ** 2 + (1.0 - pair.x**2) * pair.q_value**2 - 1.0
        assert abs(defect) < 1e-12

    @given(st.integers(1, 40), ANGLE, st.floats(0.01, np.pi - 0.01))
    @settings(max_examples=60, deadline=None)
    def test_parity_in_x(self, d, omega, theta):
        pair = closed_form_pq(d, omega, theta)
        flipped = closed_form_pq(d, omega, np.pi - theta)  # x -> -x
        assert abs(flipped.p_value - (-1.0) ** d * pair.p_value) < 1e-10
        assert abs(flipped.q_value - (-1.0) ** (d - 1) * pair.q_value) < 1e-10

    def test_endpoint_limits_are_exact(self):
        # cos(sigma) = 1 exactly: the quotient sin(d sigma)/sin(sigma) -> d.
        pair = closed_form_pq(7, 0.0, 0.0)
        assert pair.q_value == 7.0
        for d in (7, 8):
            assert chebyshev_tu_at(d, 0.0, 0.0) == (1.0, d)  # x = 1
            # x = -1 through w = pi and through theta = pi: T_d = (-1)^d, U_{d-1} = (-1)^(d-1) d
            for w, theta in ((np.pi, 0.0), (0.0, np.pi)):
                assert chebyshev_tu_at(d, w, theta) == ((-1.0) ** d, (-1.0) ** (d - 1) * d)

    @pytest.mark.parametrize("theta", [1e-160, 1e-300])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 4096, 16383])
    def test_small_s_limits(self, d, theta):
        # At w = 0, s^2 is subnormal (theta = 1e-160) or 0 (theta = 1e-300); at w = pi, s is about
        # sin(pi).  T_d = +-1 exactly and U_{d-1} = +-d to within 4 ulp of d.
        for w, sign in ((0.0, 1.0), (np.pi, -1.0)):
            t, u = chebyshev_tu_at(d, w, theta)
            assert t == sign**d
            assert abs(u - sign ** (d - 1) * d) <= 4 * np.spacing(float(d))


class TestSpecialPoint:
    def test_j0_equals_depth_one(self):
        a = special_point_pq(0, 1.1, 0.2)
        b = closed_form_pq(1, 1.1, 0.2)
        assert abs(a.p_value - b.p_value) < 1e-14
        assert abs(a.q_value - b.q_value) < 1e-14

    def test_j3_cross_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            omega, theta = rng.uniform(-np.pi, np.pi), rng.uniform(0, np.pi)
            a = special_point_pq(3, omega, theta)
            b = closed_form_pq(8, omega, theta)
            assert abs(a.p_value - b.p_value) < 1e-11
            assert abs(a.q_value - b.q_value) < 1e-11

    def test_j6_quarter_period_q(self):
        # cos(omega) = 0 makes cos(sigma) = 0; Q is U_63 at the origin.
        pair = special_point_pq(6, np.pi / 2, 0.3)
        _, u63 = chebyshev_tu_at(64, np.pi / 2, 0.0)
        assert abs(pair.q_value - u63) < 1e-11
        assert abs(u63) < 1e-12  # U_63 is odd, so it vanishes at the origin


class TestQspStructure:
    """Degree/parity/realness of the extracted polynomials (structure oracle)."""

    @given(st.integers(1, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_extracted_polynomials_satisfy_conditions(self, d, seed):
        rng = np.random.default_rng(seed)
        phases = symmetric_phases(rng, d)
        n_nodes = 2 * (d + 1)
        p_coef, q_coef, nodes, p_vals, q_vals = extract_pq_coefficients(phases, n_nodes)
        tol = 1e-9
        assert np.abs(p_coef[d + 1 :]).max() < tol  # deg(P) <= d
        assert np.abs(q_coef[d:]).max() < tol  # deg(Q) <= d-1
        assert np.abs(p_coef[(1 - d % 2) :: 2]).max() < tol  # parity of P
        assert np.abs(q_coef[(1 - (d - 1) % 2) :: 2]).max() < tol  # parity of Q
        assert np.abs(q_coef.imag).max() < tol  # symmetric phases -> real Q
        norm = np.abs(p_vals) ** 2 + (1 - nodes**2) * np.abs(q_vals) ** 2
        assert np.abs(norm - 1.0).max() < tol

    def test_periodic_circuit_is_a_qsp_product(self):
        # Constant phases reproduce the periodic circuit exactly.
        d, omega, theta = 6, 0.83, 0.37
        u = qsp_product(np.cos(theta), np.full(d + 1, omega))
        v = periodic_unitary_product(d, omega, theta)
        assert np.abs(u - v).max() < 1e-12


def test_wrap_angle_branch():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)


@given(st.integers(1, 41), ANGLE, THETA)
@settings(max_examples=100, deadline=None)
def test_chebyshev_u_matches_recurrence(d, w, theta):
    x = np.cos(w) * np.cos(theta)
    t, u = chebyshev_tu_at(d, w, theta)
    assert u == pytest.approx(_u_by_recurrence(d - 1, x), abs=1e-9)
    assert t == pytest.approx(np.polynomial.chebyshev.Chebyshev.basis(d)(x), abs=1e-9)


def _u_by_recurrence(n, x):
    prev, cur = 1.0, 2.0 * x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


REFERENCE = json.loads((pathlib.Path(__file__).parent / "fixtures" / "chebyshev_reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", REFERENCE["cases"], ids=lambda c: f"d{c['d']}-theta{c['theta']}")
def test_chebyshev_tu_matches_60_digit_reference(case):
    # Phases spread over [-pi, pi] and the grid phases next to the phase-matched
    # point, where |x| -> 1; the references come from mpmath at 60 digits.
    t, u = chebyshev_tu_at(case["d"], np.array(case["w"]), case["theta"])
    ref_t, ref_u = np.array(case["t"]), np.array(case["u"])
    assert np.abs(u - ref_u).max() <= 1e-14 * np.abs(ref_u).max()
    assert np.abs(t - ref_t).max() <= 1e-15 * case["d"]


@pytest.mark.parametrize("d", [2, 3, 50, 51, 4096, 6501, np.array([2, 3, 7, 50, 51, 4096, 6501] * 3)])
def test_parity_sign_gives_the_power_sign_bits(d):
    # Angles with x < 0 (cos w < 0 at theta < pi/2, cos w > 0 past it); one per depth for a depth array.
    w = np.linspace(0.55 * np.pi, 1.45 * np.pi, np.size(d) if np.ndim(d) else 9)
    for theta, angles in ((1e-3, w), (0.4, w), (2.9, w - np.pi)):
        assert (np.cos(angles) * np.cos(theta) < 0.0).all()
        got = chebyshev_tu_at(d, angles, theta)
        ref = chebyshev_tu_power_sign(d, angles, theta)
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()


# Any angle, or a multiple of pi/2: sigma = 0 at theta = 0 or pi, x = 0, x < 0.
CHEBYSHEV_ANGLE = st.one_of(ANGLE, st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi, -np.pi / 2]))


@pytest.mark.simd_bytes
@given(
    st.one_of(st.integers(1, 40_000), st.lists(st.integers(1, 40_000), min_size=1, max_size=40)),
    st.lists(CHEBYSHEV_ANGLE, min_size=1, max_size=40),
    st.one_of(THETA, st.sampled_from([0.0, 1e-4, np.pi / 2, np.pi]), st.floats(-np.pi, 0.0)),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_chebyshev_tu_gives_the_sine_quotient_bits(depths, angles, theta, scalar):
    # One depth or one per point, over an array of angles or one scalar angle.
    if isinstance(depths, list):
        d, w = np.array(depths), np.resize(np.array(angles), len(depths))
    else:
        d, w = depths, (angles[0] if scalar else np.array(angles))
    cw, sw = np.cos(w), np.sin(w)
    p, q = pq_values(d, cw, sw, theta)
    got, ref = (p.real, q), chebyshev_tu_quotient(d, cw, sw, theta)
    for a, b in zip(got, ref):
        assert type(a) is type(b) and np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert np.asarray(p.imag).tobytes() == np.asarray(np.cos(theta) * sw * q).tobytes()
