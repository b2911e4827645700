"""Independent oracles and closed-form references shared by the test modules.

The brute-force oracles are deliberately written from first principles
(explicit matrix products, dense linear algebra, direct channel composition)
so the package's closed forms and fast paths are checked against a second
route.  The closed-form references are the paper's formulas the package
itself does not need: the power-of-two doubling recurrence, the first-order
coefficient profile, the amplitude profile, the SNR bounds and the
parabolic weights of the weighted phase average.  The run summary is kept
in its earlier per-name form, against which the table-driven one is checked,
the simulator in its earlier one-input-at-a-time form, the drift kernel
in a whole-draw form with no gate blocks or replicate groups, the
replicate runner with its spectra and estimators one replicate at a time,
the Chebyshev pair with its sine quotient and parity sign through np.where,
the Fisher pass's derivative rows as complex products, the log-log
slopes one window at a time, and the peak fit as a per-row design solved by
lstsq, next to its 50-digit least-squares reference.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from fsimcal import harness
from fsimcal.estimators import (
    LOW_SNR_FLOOR_SCALE,
    DegenerateCoefficientError,
    EstimateReport,
    PeakFitResult,
    peak_fit,
    peak_fit_operator,
    variance_theory_theta,
    variance_theory_theta_pd,
    variance_theory_varphi,
)
from fsimcal.noise import (
    CIRCUIT,
    NoiseConfig,
    apply_depolarizing,
    invert_confusion,
    stream,
)
from fsimcal.signal_model import exact_signal, omega_grid
from fsimcal.su2 import FsimParams


def z_rot(a):
    return np.array([[np.exp(1j * a), 0.0], [0.0, np.exp(-1j * a)]])


def x_rot(a):
    return np.array([[np.cos(a), 1j * np.sin(a)], [1j * np.sin(a), np.cos(a)]])


def fsim_matrix(theta, varphi, chi):
    return np.array(
        [
            [np.exp(-1j * varphi) * np.cos(theta), -1j * np.exp(1j * chi) * np.sin(theta)],
            [-1j * np.exp(-1j * chi) * np.sin(theta), np.exp(1j * varphi) * np.cos(theta)],
        ]
    )


def periodic_unitary_product(d, omega, theta):
    """(e^{i omega Z} e^{i theta X})^d e^{i omega Z} by repeated multiplication."""
    if d < 1:
        raise ValueError("depth d must be >= 1")
    block = z_rot(omega) @ x_rot(theta)
    u = z_rot(omega)
    for _ in range(d):
        u = block @ u
    return u


@dataclass(frozen=True)
class PolyPair:
    """Pointwise values (P, Q) of the periodic-circuit polynomials.

    The depth-d product equals [[P, i s Q], [i s Q, conj(P)]] with
    x = cos(theta), s = sin(theta) >= 0 and Q real, so special unitarity pins
    |P|^2 + s^2 Q^2 = 1.  s is carried explicitly because 1 - cos(theta)^2
    cancels to zero in floating point once theta drops below ~1e-8.
    """

    p_value: complex
    q_value: float
    x: float
    s_value: float

    def __post_init__(self):
        defect = abs(abs(self.p_value) ** 2 + self.s_value**2 * self.q_value**2 - 1.0)
        if defect > 1e-9:
            raise ValueError(f"normalization defect {defect:.3e} exceeds guard")

    def unitary(self):
        off = 1j * self.s_value * self.q_value
        return np.array([[self.p_value, off], [off, np.conj(self.p_value)]])


def closed_form_pq(d, omega, theta):
    """The package's closed-form (P, Q) (fsimcal.su2.pq_values) at one point."""
    from fsimcal.su2 import pq_values

    omega = float(omega)
    p, q = pq_values(d, np.cos(omega), np.sin(omega), theta)
    return PolyPair(complex(np.exp(1j * omega) * p), float(q), math.cos(theta), abs(math.sin(theta)))


def special_point_pq(j, omega, theta):
    """(P, Q) at depth d = 2^j via the doubling recurrence.

    Doubling steps: Q(2m) = 2 Q(m) Re(e^{-i omega} P(m)) and
    Re(e^{-i omega} P(2m)) = 2 Re(e^{-i omega} P(m))^2 - 1, seeded at d = 1;
    independent of the trig closed form.
    """
    x = math.cos(theta)
    re = math.cos(omega) * x
    im = math.sin(omega) * x
    q = 1.0
    for _ in range(j):
        q = 2.0 * q * re
        im = 2.0 * im * re
        re = 2.0 * re * re - 1.0
    return PolyPair(complex(np.exp(1j * omega) * (re + 1j * im)), q, x, abs(math.sin(theta)))


@dataclass(frozen=True)
class SignalSample:
    """Transition probabilities at one modulation angle."""

    omega: float
    p_x: float
    p_y: float

    @property
    def h(self):
        return complex(self.p_x - 0.5, self.p_y - 0.5)


def exact_probabilities(d, omega, params):
    """Noiseless p_X, p_Y at one angle from the exact signal: p_beta = 1/2 + Re(conj(beta) h)."""
    from fsimcal.signal_model import exact_signal

    h = complex(exact_signal(d, float(omega), params))
    return SignalSample(omega=float(omega), p_x=0.5 + h.real, p_y=0.5 + h.imag)


def amplitude_profile(d, omega, params):
    """|h|^2 = sin^2(t) u^2 (1 - sin^2(t) u^2), u = sin(d sigma)/sin(sigma).

    sigma = arccos(cos(omega - varphi) cos(theta)); the profile peaks at the
    phase-matched angle omega = varphi with height about (d theta)^2.
    """
    _, u = chebyshev_tu_at(d, np.asarray(omega, dtype=float) - params.varphi, params.theta)
    a = np.sin(params.theta) ** 2 * u * u
    return a * (1.0 - a)


def k_values(depth):
    """DFT slot -> harmonic index: slots 0..d-1 are k, slots d..2d-2 are k-(2d-1)."""
    n = 2 * depth - 1
    k = np.arange(n)
    return np.where(k < depth, k, k - n)


def approx_coefficients(d, theta):
    """First-order coefficient profile chat_k, in DFT slot order.

    For 0 <= k <= d-1:
        1 - (1/2) (3 d^2 - k^2 - (k+1)^2 - (d - (2k+1))^2) (1 - cos theta)
    and for negative k:
        -(1/2) (d^2 + (d+2k+1)^2 - k^2 - (k+1)^2) (1 - cos theta).
    The noiseless moduli satisfy |ctilde_k - sin(theta) chat_k| <= 2 (d theta)^5.
    """
    ks = k_values(d).astype(float)
    onec = 1.0 - np.cos(theta)
    pos = 1.0 - 0.5 * (3.0 * d * d - ks**2 - (ks + 1.0) ** 2 - (d - (2.0 * ks + 1.0)) ** 2) * onec
    neg = -0.5 * (d * d + (d + 2.0 * ks + 1.0) ** 2 - ks**2 - (ks + 1.0) ** 2) * onec
    return np.where(ks >= 0, pos, neg)


def coefficient(spectrum, k):
    """Harmonic c_k of a (2d-1,) spectrum in DFT slot order, for -(d-1) <= k <= d-1."""
    d = (len(spectrum) + 1) // 2
    if not -d < k < d:
        raise IndexError(f"harmonic index {k} outside +-(d-1)")
    return complex(spectrum[k % (2 * d - 1)])


class RegimeViolationError(ValueError):
    """A bound was requested outside the regime where it is nonnegative."""


def snr_lower_bound(d, m_shots, theta):
    """Elementwise SNR floor 2(2d-1) M sin^2(t) (1 - (4/3)(dt)^2 (1 + 3 d^3 t^2)).

    Valid when d^5 theta^4 << 1; a negative value means the regime assumption
    failed, reported as RegimeViolationError rather than a small number.
    """
    dt = d * theta
    bound = 2.0 * (2 * d - 1) * m_shots * np.sin(theta) ** 2 * (1.0 - (4.0 / 3.0) * dt * dt * (1.0 + 3.0 * d**3 * theta**2))
    if bound < 0.0:
        raise RegimeViolationError(f"SNR bound negative at d^5 theta^4 = {d**5 * theta**4:.3g}")
    return float(bound)


def snr_leading_order(d, m_shots, theta):
    """Leading-order SNR 4 d M theta^2 (regime 1 << d << theta^{-4/5})."""
    return 4.0 * d * m_shots * theta * theta


def bell_state(beta):
    return np.array([1.0, beta]) / np.sqrt(2.0)


def brute_circuit_probability(d, omega, theta, varphi, chi, beta):
    """|<01| (Zrot(omega) Fsim)^d |beta>|^2 by explicit repeated products."""
    step = z_rot(omega) @ fsim_matrix(theta, varphi, chi)
    v = np.eye(2, dtype=complex)
    for _ in range(d):
        v = step @ v
    return float(abs((v @ bell_state(beta))[0]) ** 2)


def brute_depolarized_probability(d, omega, theta, varphi, chi, beta, rate, n_gates):
    """Subspace-block density-matrix evolution with a uniform two-qubit
    depolarizing channel after each of n_gates gates.

    The state is tracked as a coherent 2x2 block over (|01>, |10>) plus
    scalar weights on |00> and |11>; the channel maps rho -> (1-r) rho +
    r I4/4, i.e. block -> (1-r) block + (r/4) I2 and each scalar weight ->
    (1-r) w + r/4.  Only d of the gates act nontrivially on the state; the
    remaining preparation/measurement gates contribute channels only.
    """
    psi = bell_state(beta)
    block = np.outer(psi, psi.conj())
    w00 = w11 = 0.0
    step = z_rot(omega) @ fsim_matrix(theta, varphi, chi)

    def channel(block, w00, w11):
        return (
            (1.0 - rate) * block + (rate / 4.0) * np.eye(2),
            (1.0 - rate) * w00 + rate / 4.0,
            (1.0 - rate) * w11 + rate / 4.0,
        )

    for _ in range(n_gates - d):
        block, w00, w11 = channel(block, w00, w11)
    for _ in range(d):
        block = step @ block @ step.conj().T
        block, w00, w11 = channel(block, w00, w11)
    return float(block[0, 0].real)


def qsp_product(x, phases):
    """e^{i w0 Z} prod_j e^{i arccos(x) X} e^{i wj Z} by explicit products."""
    u = z_rot(phases[0])
    xr = x_rot(np.arccos(x))
    for w in phases[1:]:
        u = u @ xr @ z_rot(w)
    return u


def symmetric_phases(rng, d):
    """Random phase sequence of length d+1 with w_j = w_{d-j}."""
    half = rng.uniform(-np.pi, np.pi, size=d // 2 + 1)
    return np.array([half[min(j, d - j)] for j in range(d + 1)])


def chebyshev_coefficients(values, n_nodes):
    """Chebyshev-basis coefficients from values at the n interior nodes
    x_m = cos(pi (m + 1/2) / n), via the cosine-sum (DCT) formula."""
    m = np.arange(n_nodes)
    angles = np.pi * (m + 0.5) / n_nodes
    ks = np.arange(n_nodes)
    design = np.cos(np.outer(ks, angles))
    coef = (2.0 / n_nodes) * design @ np.asarray(values)
    coef[0] *= 0.5
    return coef


def chebyshev_nodes(n_nodes):
    return np.cos(np.pi * (np.arange(n_nodes) + 0.5) / n_nodes)


def extract_pq_coefficients(phases, n_nodes):
    """Chebyshev coefficients of P and Q sampled from explicit products."""
    nodes = chebyshev_nodes(n_nodes)
    p_vals = np.empty(n_nodes, dtype=complex)
    q_vals = np.empty(n_nodes, dtype=complex)
    for i, x in enumerate(nodes):
        u = qsp_product(x, phases)
        p_vals[i] = u[0, 0]
        q_vals[i] = u[0, 1] / (1j * np.sqrt(1.0 - x * x))
    return chebyshev_coefficients(p_vals, n_nodes), chebyshev_coefficients(q_vals, n_nodes), nodes, p_vals, q_vals


def dense_laplacian(n):
    d = 2.0 * np.eye(n)
    d -= np.diag(np.ones(n - 1), 1)
    d -= np.diag(np.ones(n - 1), -1)
    return d


def dense_wpa(values):
    """(1^T D^{-1} v)/(1^T D^{-1} 1) by dense inversion."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 1:
        return float(values[0])
    inv = np.linalg.inv(dense_laplacian(n))
    ones = np.ones(n)
    return float(ones @ inv @ values / (ones @ inv @ ones))


def tridiag_solve(lower, diag, upper, rhs):
    """Thomas algorithm for a general tridiagonal system, O(n).

    lower[0] and upper[-1] are ignored padding so all bands share length n.
    """
    lower, diag, upper, rhs = (np.asarray(b, dtype=float) for b in (lower, diag, upper, rhs))
    n = len(diag)
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom if i < n - 1 else 0.0
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    x = np.empty(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def thomas_wpa(values):
    """(1^T D^{-1} v)/(1^T D^{-1} 1) with D a = 1 solved on explicit bands."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 1:
        return float(values[0])
    a = tridiag_solve(np.full(n, -1.0), np.full(n, 2.0), np.full(n, -1.0), np.ones(n))
    return float(a @ values / a.sum())


def wpa_weights(n):
    """Parabolic-window weights mu_k of the weighted phase average, sum 1.

    mu_k = (3/2)(n+1)/((n+1)^2 - 1) * (1 - ((k - (n-1)/2)/((n+1)/2))^2),
    the closed form of 1^T D^{-1} e_k / 1^T D^{-1} 1 for the discrete
    Laplacian D = tridiag(-1, 2, -1).
    """
    if n == 1:
        return np.ones(1)
    k = np.arange(n, dtype=float)
    scale = 1.5 * (n + 1) / ((n + 1) ** 2 - 1)
    return scale * (1.0 - ((k - (n - 1) / 2.0) / ((n + 1) / 2.0)) ** 2)


def apply_confusion(q4, confusion):
    """Measured distribution R^T q for a prepared 4-outcome distribution q."""
    return confusion.entries.T @ np.asarray(q4, dtype=float)


def hand_inverse_3x3(m):
    """Adjugate-formula inverse, independent of numpy.linalg."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = np.array(
        [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    )
    return adj / det


def binomial_signal_replicates(d, params_tuple, m_shots, n_replicates, seed):
    """Vectorized (replicates x grid) measured h for the drift-free model.

    Draws binomial counts directly on the exact probabilities; used by the
    statistical tests where the keyed-stream bookkeeping of the noise module
    is irrelevant and speed matters.
    """
    from fsimcal import FsimParams
    from fsimcal.signal_model import exact_signal, omega_grid

    theta, varphi, chi = params_tuple
    params = FsimParams(theta, varphi, chi)
    grid = omega_grid(d)
    h = exact_signal(d, grid, params)
    px, py = 0.5 + h.real, 0.5 + h.imag
    rng = np.random.default_rng(seed)
    ex = rng.binomial(m_shots, px, size=(n_replicates, len(grid))) / m_shots
    ey = rng.binomial(m_shots, py, size=(n_replicates, len(grid))) / m_shots
    return ex - 0.5 + 1j * (ey - 0.5)


def brute_noisy_counts(depths, omegas, params, noise, rng):
    """(2, n, 4) outcome counts of one replicate stage's noisy circuits, gate by gate, drawn from rng.

    Row [k, i] is circuit i from input k (the X input, then the Y input).
    The generator draws as the simulator documents: for each distinct depth
    in ascending order, one (d, 3, 2, n_d) array of drift uniforms for the
    circuits of that depth in stage order, the circuits' last gate first,
    then one multinomial shot draw over the depolarized, readout-confused
    distributions of both inputs' circuits.
    """
    depths = np.broadcast_to(depths, np.shape(omegas))
    offsets = [[np.zeros((d, 3))] * 2 for d in depths]
    if noise.drift is not None:
        for d in np.unique(depths):
            at = np.flatnonzero(depths == d)
            dth, ramp = noise.drift.half_widths(d, params.theta)
            u = rng.uniform(-1.0, 1.0, size=(d, 3, 2, len(at)))[::-1]  # gate order, first gate first
            for j, i in enumerate(at):
                offsets[i] = [np.column_stack([np.full(d, dth), ramp, ramp]) * u[:, :, k, j] for k in range(2)]
    q4s = np.empty((2, len(depths), 4))
    for k, beta in enumerate((1.0, 1.0j)):
        for i, (d, omega) in enumerate(zip(depths, omegas)):
            v = np.eye(2, dtype=complex)
            for theta, varphi, chi in np.array([params.theta, params.varphi, params.chi]) + offsets[i][k]:
                v = z_rot(omega) @ fsim_matrix(theta, varphi, chi) @ v
            p = float(abs((v @ bell_state(beta))[0]) ** 2)
            alpha = (1.0 - noise.depol_rate) ** (2 * d + 5 + k)
            q4 = np.array([0.0, alpha * p, alpha * (1.0 - p), 0.0]) + (1.0 - alpha) / 4.0
            if noise.confusion is not None:
                q4 = apply_confusion(q4, noise.confusion)
            q4s[k, i] = q4 / q4.sum()
    return rng.multinomial(noise.shots, q4s)


def drifted_survival_matmul(d, omegas, params, drift, rng):
    """(2, nc) |<01| circuit |input>|^2 of both inputs with per-gate drift, by stacked 2x2 matmuls.

    Builds every circuit's full (d, 2, 2) gate stack from complex exponentials
    and multiplies the whole product out; the uniforms are one (d, 3, 2, nc)
    draw from rng, slice [d - 1 - g, :, k, i] belonging to gate g of circuit
    i from input k.
    """
    nc = len(omegas)
    dth, ramp = drift.half_widths(d, params.theta)
    u = rng.uniform(-1.0, 1.0, size=(d, 3, 2, nc))[::-1]
    zp = np.exp(1j * np.asarray(omegas, dtype=float))
    out = np.empty((2, nc))
    for k, beta in enumerate((1.0, 1.0j)):
        gates = np.empty((nc, d, 2, 2), dtype=complex)
        for i in range(nc):
            th = params.theta + dth * u[:, 0, k, i]
            ph = params.varphi + ramp * u[:, 1, k, i]
            ch = params.chi + ramp * u[:, 2, k, i]
            ct, st = np.cos(th), np.sin(th)
            gates[i, :, 0, 0] = np.exp(-1j * ph) * ct
            gates[i, :, 0, 1] = -1j * np.exp(1j * ch) * st
            gates[i, :, 1, 0] = -1j * np.exp(-1j * ch) * st
            gates[i, :, 1, 1] = np.exp(1j * ph) * ct
        gates[:, :, 0, :] *= zp[:, None, None]
        gates[:, :, 1, :] *= np.conj(zp)[:, None, None]
        v = np.broadcast_to(np.eye(2, dtype=complex), (nc, 2, 2)).copy()
        for g in range(d):
            v = gates[:, g] @ v
        out[k] = np.abs((v[:, 0, 0] + beta * v[:, 0, 1]) / np.sqrt(2.0)) ** 2
    return out


def _row_vector_walk(d, omegas, params, drift, u):
    """Row 0 of the drifted circuit product, from uniforms u of shape (d, 3, ...), the last gate first.

    Each gate, with the Z rotation folded in, is [[a, b], [-conj(b), conj(a)]],
    a = cos(th) e^{-i(ph - omega)}, b = sin(th) (sin(ch + omega) - i cos(ch + omega));
    omegas broadcasts against one gate's slice of u.
    """
    dth, ramp = drift.half_widths(d, params.theta)
    ramp = ramp[::-1].reshape((d,) + (1,) * (u.ndim - 2))
    th = params.theta + dth * u[:, 0]
    ph = params.varphi + ramp * u[:, 1] - omegas
    ch = params.chi + ramp * u[:, 2] + omegas
    ct, st = np.cos(th), np.sin(th)
    a = ct * np.cos(ph) - 1j * (ct * np.sin(ph))
    b = st * np.sin(ch) - 1j * (st * np.cos(ch))
    a_conj, b_conj = a.conj(), b.conj()
    r0, r1 = a[0], b[0]
    for g in range(1, d):
        r0, r1 = r0 * a[g] - r1 * b_conj[g], r0 * b[g] + r1 * a_conj[g]
    return r0, r1


def drifted_survival_whole_draw(d, omegas, params, drift, rngs):
    """The drift kernel with no gate blocks and no replicate groups: (R, 2, nc) from (R, nc) omegas.

    Replicate r's uniforms are one (d, 3, 2, nc) rngs[r].uniform(-1, 1)
    draw, the circuits' last gate first, taken before a walk over all its
    gates at once.  The kernel must match it byte for byte, whatever its
    blocks and groups, and leave every generator in the same state.
    """
    u = np.stack([rng.uniform(-1.0, 1.0, size=(d, 3, 2, len(w))) for rng, w in zip(rngs, omegas)], axis=2)
    r0, r1 = _row_vector_walk(d, np.asarray(omegas)[:, None], params, drift, u)
    # The X input (|01> + |10>)/sqrt2 and the Y input (|01> + i|10>)/sqrt2.
    return np.abs(r0 + np.array([[1.0], [1.0j]]) * r1) ** 2 / 2.0


# The simulator as it was before one call covered both inputs: each input
# state's circuits simulated, depolarized and readout-mixed on their own.
# Both inputs draw from the replicate's one generator, so it forms both and
# returns one.  Row [0, k] of simulate_probability_batch, given [rng], must
# equal it byte for byte for input state INPUT_STATES[k], from a generator in
# the same state.
INPUT_STATES = ("plus", "i")
_BETA = {"plus": 1.0 + 0.0j, "i": 1.0j}


def drifted_survival_one_input(d, omegas, params, drift, u, beta):
    """|<01| circuit |beta>|^2 with fresh per-gate drift per circuit.

    u is one input's (d, 3, nc) slice of the drift uniforms: the (theta,
    varphi, chi) offsets of every gate of every circuit, the last gate first.
    Only row 0 of the product reaches the amplitude; it is carried as a row
    vector from the last gate back to the first.
    """
    r0, r1 = _row_vector_walk(d, omegas, params, drift, u)
    return np.abs(r0 + beta * r1) ** 2 / 2.0


def simulate_probability_batch_one_input(
    d,
    omegas,
    params: FsimParams,
    noise: NoiseConfig,
    input_state: str,
    rng,
) -> np.ndarray:
    """Empirical |01> probabilities for a batch of circuits at angles omegas, from one input state.

    d is one depth or one depth per circuit.  The batch draws from rng, the
    replicate's generator: the (d, 3, 2, n_d) drift uniforms of each distinct
    depth in ascending depth order, the last gate first, then one
    multinomial over both inputs' rows.  Under a confusion matrix the
    sampled 4-outcome frequencies are pushed through its inverse before the
    01 component is returned.  Depolarizing, readout mixing and correction
    act on each row alone.
    """
    if input_state not in INPUT_STATES:
        raise ValueError(f"input_state must be one of {INPUT_STATES}")
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    depths = np.broadcast_to(d, omegas.shape)
    if noise.exact or noise.drift is None:
        h = exact_signal(depths, omegas, params)
        p = [0.5 + (np.conj(beta) * h).real for beta in _BETA.values()]
        if noise.exact:
            return p[INPUT_STATES.index(input_state)]
    if noise.drift is not None:
        p = np.empty((2, len(omegas)))
        for dj in np.unique(depths):
            at = depths == dj
            u = rng.uniform(-1.0, 1.0, size=(dj, 3, 2, at.sum()))
            for k, beta in enumerate(_BETA.values()):
                p[k, at] = drifted_survival_one_input(int(dj), omegas[at], params, noise.drift, u[:, :, k], beta)
    q4 = np.empty((2, len(omegas), 4))
    for k, state in enumerate(INPUT_STATES):
        # 2d+5 gates from the X input; the Y input spends one more on preparation.
        alpha = (1.0 - noise.depol_rate) ** (2 * depths + 5 + (1 if state == "i" else 0))
        q4[k, :, 0] = q4[k, :, 3] = (1.0 - alpha) / 4.0
        q4[k, :, 1] = apply_depolarizing(p[k], alpha)
        q4[k, :, 2] = apply_depolarizing(1.0 - p[k], alpha)
        if noise.confusion is not None:
            q4[k] = (q4[k, :, None, :] @ noise.confusion.entries)[:, 0]
        q4[k] /= q4[k].sum(axis=1, keepdims=True)
    freq = rng.multinomial(noise.shots, q4) / noise.shots
    if noise.confusion is not None:
        freq = invert_confusion(freq, noise.confusion)
    return freq[INPUT_STATES.index(input_state), :, 1]


def bootstrap_means_loop(sq, has, rng, resamples=1000):
    """Replicate-level bootstrap: each estimator's resample means, one size-n draw and count row per resample.

    sq and has are (estimators, n): squared residuals (0 where a replicate has no value) and 0/1 value marks.
    Resample b's draw counts each replicate c_i times; estimator j's mean is sum_i c_i sq_ji / sum_i c_i has_ji,
    the numerator one 1-D sum over the replicates, and a resample with no value of j is left out of its list.
    """
    n = sq.shape[1]
    boot = [[] for _ in sq]
    for _ in range(resamples):
        c = np.bincount(rng.integers(0, n, size=n), minlength=n)
        for j, (s, h) in enumerate(zip(sq, has)):
            if (den := int(c[h > 0].sum())) > 0:
                boot[j].append((s * c).sum() / den)
    return [np.array(b) for b in boot]


def richardson_gradient_grid(d, params):
    """(3, 2(2d-1)) array of dp/dxi by central differences with Richardson
    extrapolation, the step shrinking with depth; asserts that the half-step
    estimate agrees with the extrapolated one to 1e-6 in vector norm.
    """
    from fsimcal import FsimParams
    from fsimcal.signal_model import exact_signal, omega_grid

    omegas = omega_grid(d)
    xi = np.array([params.theta, params.varphi, params.chi])

    def probabilities(z):
        h = exact_signal(d, omegas, FsimParams(*z))
        return np.concatenate([0.5 + h.real, 0.5 + h.imag])

    grads = np.empty((3, 2 * len(omegas)))
    for k in range(3):
        # Truncation of the central difference grows like (2 d h)^2.
        h = min(1e-6, 1e-3 / d) * max(1.0, abs(xi[k]))

        def shifted(delta):
            z = xi.copy()
            z[k] += delta
            return probabilities(z)

        coarse = (shifted(h) - shifted(-h)) / (2.0 * h)
        fine = (shifted(h / 2.0) - shifted(-h / 2.0)) / h
        extrap = (4.0 * fine - coarse) / 3.0
        # Absolute allowance at the difference-quotient rounding-noise level.
        noise_floor = 100.0 * np.finfo(float).eps / h * np.sqrt(extrap.size)
        assert np.linalg.norm(fine - extrap) <= 1e-6 * np.linalg.norm(extrap) + noise_floor
        grads[k] = extrap
    return grads


def chebyshev_tu_at(d, w, theta):
    """(T_d, U_{d-1}) as fsimcal.su2.pq_values gives them, (P.real, Q), at angles w, with cos(w) and
    sin(w) evaluated here."""
    from fsimcal.su2 import pq_values

    p, q = pq_values(d, np.cos(w), np.sin(w), theta)
    return p.real, q


def _chebyshev_tu_unsigned(d, cw, sw, theta):
    """(x, cos(d sigma), sin(d sigma)/s) at x = cw cos(theta), s = sqrt(sw^2 + cw^2 sin^2 theta) = sin(sigma),
    sigma = atan2(s, |x|); the quotient is d where s = 0, picked with np.where."""
    x = cw * math.cos(theta)
    s = np.sqrt(sw * sw + (cw * math.sin(theta)) ** 2)
    sigma = np.arctan2(s, np.abs(x))
    u = np.where(s > 0.0, np.sin(d * sigma) / np.where(s > 0.0, s, 1.0), d)
    return x, np.cos(d * sigma), u


def chebyshev_tu_power_sign(d, w, theta):
    """(T_d, U_{d-1}) with the trig of w evaluated inside and the x < 0 sign raised
    to the powers d and d-1 elementwise: the reference for pq_values' parity pick."""
    x, t, u = _chebyshev_tu_unsigned(d, np.cos(w), np.sin(w), theta)
    sign = np.where(x < 0.0, -1.0, 1.0)
    return sign**d * t, sign ** (d - 1) * u


def chebyshev_tu_quotient(d, cw, sw, theta):
    """pq_values' (T_d, U_{d-1}) with U_{d-1} = sin(d sigma)/s and the parity sign written out with
    np.where: the byte reference for pq_values' in-place quotient and sign steps."""
    x, t, u = _chebyshev_tu_unsigned(d, cw, sw, theta)
    sign, odd = np.where(x < 0.0, -1.0, 1.0), np.asarray(d) & 1
    return np.where(odd, sign, 1.0) * t, np.where(odd, 1.0, sign) * u


def exact_signal_power_sign(d, omegas, params):
    """exact_signal's h, its operands in its order, from chebyshev_tu_power_sign with the trig of w evaluated again."""
    w = np.asarray(omegas, dtype=float) - params.varphi
    cw, sw = np.cos(w), np.sin(w)
    t, q = chebyshev_tu_power_sign(d, w, params.theta)
    p = t + 1j * np.cos(params.theta) * sw * q
    return (1j * np.exp(-1j * (params.chi + params.varphi))) * (cw - 1j * sw) * np.sin(params.theta) * q * p


def exact_signal_two_exponentials(d, omegas, params):
    """h = e^{i(varphi - chi - 2 omega)} e^{iw} (T + i Q sin(w) cos(theta)) i sin(theta) Q, two complex
    exponentials per point: exact_signal's route before it took gradient_grid's operands."""
    omegas = np.asarray(omegas, dtype=float)
    w = omegas - params.varphi
    t, q = chebyshev_tu_at(d, w, params.theta)
    p = np.exp(1j * w) * (t + 1j * q * np.sin(w) * math.cos(params.theta))
    return np.exp(1j * (params.varphi - params.chi - 2.0 * omegas)) * p * (1j * np.sin(params.theta)) * q


def gradient_grid_complex_rows(d, params, start=0, stop=None):
    """fisher.gradient_grid with its theta and varphi rows as complex products, phase times a
    complex bracket, split into p_X and p_Y halves by .real and .imag: the reference for its
    real-arithmetic rows.  Returns (grads, h) over grid columns start..stop-1."""
    from fsimcal.su2 import pq_values

    n = 2 * d - 1
    w = np.arange(start, n if stop is None else stop) * (np.pi / n) - params.varphi
    m = len(w)
    sw, cw = np.sin(w), np.cos(w)
    st, ct = np.sin(params.theta), np.cos(params.theta)
    p, q = pq_values(d, cw, sw, params.theta)
    t = p.real
    one_minus_x2 = sw * sw + (cw * st) ** 2
    dtxq = d * t - cw * ct * q
    sq = np.divide(st * st, one_minus_x2, out=np.zeros(m), where=one_minus_x2 > 0.0)
    sq *= cw * dtxq
    dq = np.divide(dtxq, one_minus_x2, out=np.zeros(m), where=one_minus_x2 > 0.0)
    dq *= sw * ct
    grads = np.empty((3, 2 * m))
    phase = (1j * np.exp(-1j * (params.chi + params.varphi))) * (cw - 1j * sw)
    dh = ct * q * t + t * sq - d * st * st * cw * q * q
    dh = np.multiply(phase, dh + 1j * sw * q * (np.cos(2 * params.theta) * q + 2 * ct * sq))
    grads[0, :m], grads[0, m:] = dh.real, dh.imag
    h = phase * st * q * p
    dg = dq * t + q * (-d * ct * sw * q) + 1j * ct * (cw * q * q + 2.0 * sw * q * dq)
    dh = -(phase * st) * dg
    grads[1, :m], grads[1, m:] = dh.real, dh.imag
    grads[2, :m], grads[2, m:] = h.imag, -h.real
    return grads, h


def fisher_matrix_two_pass(d, params, m_shots, prob_clip=1e-12):
    """(entries, clamped points) of the Fisher matrix in two closed-form passes:
    the exact gradients with chebyshev_tu_power_sign, then the 1/(p(1-p))
    weights from exact_signal_power_sign over the whole grid again."""
    from fsimcal.signal_model import omega_grid

    omegas = omega_grid(d)
    n = len(omegas)
    w = omegas - params.varphi
    sw, cw = np.sin(w), np.cos(w)
    st, ct = np.sin(params.theta), np.cos(params.theta)
    x = cw * ct
    t, q = chebyshev_tu_power_sign(d, w, params.theta)
    one_minus_x2 = sw * sw + (cw * st) ** 2
    dtxq = d * t - x * q
    sq = np.divide(st * st, one_minus_x2, out=np.zeros(n), where=one_minus_x2 > 0.0)
    sq *= cw * dtxq
    dq = np.divide(dtxq, one_minus_x2, out=np.zeros(n), where=one_minus_x2 > 0.0)
    dq *= sw * ct
    grads = np.empty((3, 2 * n))
    phase = 1j * np.exp(-1j * (params.chi + omegas))
    dh = ct * q * t + t * sq - d * st * st * cw * q * q
    dh = phase * (dh + 1j * sw * q * (np.cos(2 * params.theta) * q + 2 * ct * sq))
    grads[0, :n], grads[0, n:] = dh.real, dh.imag
    h = phase * st * q * (t + 1j * ct * sw * q)
    if np.abs(h).max() <= n * np.finfo(float).eps:
        grads[1:] = 0.0
    else:
        dg = dq * t + q * (-d * ct * sw * q) + 1j * ct * (cw * q * q + 2.0 * sw * q * dq)
        dh = -(phase * st) * dg
        grads[1, :n], grads[1, n:] = dh.real, dh.imag
        grads[2, :n], grads[2, n:] = h.imag, -h.real
    signal = exact_signal_power_sign(d, omegas, params)
    p = np.concatenate([0.5 + signal.real, 0.5 + signal.imag])
    clamped = int(((p < prob_clip) | (p > 1.0 - prob_clip)).sum())
    p = np.clip(p, prob_clip, 1.0 - prob_clip)
    entries = m_shots * (grads * (1.0 / (p * (1.0 - p)))) @ grads.T
    return 0.5 * (entries + entries.T), clamped


def windowed_slopes_polyfit(depths, values):
    """Per-point log-log slope by one np.polyfit over the point and up to two neighbors each side:
    the reference for fisher.windowed_slopes' closed-form window slopes."""
    x = np.log(np.asarray(depths, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - 2), min(n, i + 3)
        out[i] = np.polyfit(x[lo:hi], y[lo:hi], 1)[0]
    return out


def windowed_slopes_loop(depths, values):
    """fisher.windowed_slopes one window at a time, each slice's own means and sums:
    the byte reference for its padded-window form."""
    x = np.log(np.asarray(depths, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    out = np.empty(len(x))
    for i in range(len(x)):
        xs, ys = x[max(0, i - 2) : i + 3], y[max(0, i - 2) : i + 3]
        dx, dy = xs - xs.mean(), ys - ys.mean()
        out[i] = (dx * dy).sum() / (dx * dx).sum()
    return out


def spectral_phase_gradient(d, params):
    """dh/dvarphi over the grid by spectral differentiation: dh/dvarphi = -i h - dh/domega,
    dh/domega from an FFT/IFFT pair, exact because the 2d-1 grid resolves h's
    harmonics |k| <= d-1.  The derivative gradient_grid took before its closed form."""
    from fsimcal.signal_model import exact_signal, omega_grid

    h = exact_signal(d, omega_grid(d), params)
    return -1j * h - np.fft.ifft(2j * k_values(d) * np.fft.fft(h))


# The run summary in its earlier form, before the estimator table: one
# lookup, residual and theoretical-variance branch per estimator name.
_SUMMARY_ESTIMATORS = ("theta_hat", "varphi_hat", "alpha_hat", "theta_corrected", "theta_pd", "theta_pf")


def _varphi_residual(est: float, truth: float) -> float:
    # The phase is identifiable mod pi; compare on the centered branch.
    return math.remainder(est - truth, math.pi)


def _estimator_values(name: str, reports: list[dict]):
    if name == "theta_corrected":
        vals = [(i, r["diagnostics"].get("theta_corrected")) for i, r in enumerate(reports)]
    else:
        vals = [(i, r.get(name)) for i, r in enumerate(reports)]
    return [(i, v) for i, v in vals if v is not None]


def _truth_for(name: str, config) -> float:
    if name == "varphi_hat":
        return config.gate_truth.varphi
    if name == "alpha_hat":
        if config.noise.depol_rate > 0.0 and config.depth is not None:
            # X-circuit gate count; the Y circuit differs by one gate, O(r).
            return float((1.0 - config.noise.depol_rate) ** (2 * config.depth + 5))
        return 1.0
    return config.gate_truth.theta


def summarize_by_name(config, reports: list[dict], point: int) -> dict:
    """harness._summarize as one branch per estimator name and one bootstrap loop per resample, kept as the reference."""
    from fsimcal.noise import BOOTSTRAP, stream

    summary, sq, has = {}, [], []
    for name in _SUMMARY_ESTIMATORS:
        pairs = _estimator_values(name, reports)
        if not pairs:
            continue
        truth = _truth_for(name, config)
        vals = np.array([v for _, v in pairs], dtype=float)
        if name == "varphi_hat":
            res = np.array([_varphi_residual(v, truth) for v in vals])
        else:
            res = vals - truth
        bias = float(res.mean())
        sq.append(np.zeros(len(reports)))
        has.append(np.zeros(len(reports)))
        for (i, _), r in zip(pairs, res):
            sq[-1][i], has[-1][i] = r * r, 1.0
        entry = {
            "n": len(vals),
            "truth": truth,
            "mean": float(vals.mean()),
            "bias": bias,
            "var": float(((res - bias) ** 2).mean()),
            "mse": float((res**2).mean()),
        }
        if name == "theta_hat":
            entry["var_theory"] = float(np.mean([r["var_theory_theta"] for r in reports]))
        elif name == "varphi_hat":
            entry["var_theory"] = float(np.mean([r["var_theory_varphi"] for r in reports]))
        elif name == "theta_pd":
            entry["var_theory"] = float(
                np.mean([r["diagnostics"]["theta_pd_var_theory"] for r in reports if "theta_pd_var_theory" in r["diagnostics"]])
            )
        summary[name] = entry
    if summary:
        boots = bootstrap_means_loop(np.array(sq), np.array(has), stream(BOOTSTRAP, config.noise.seed, point, 0))
        for entry, boot in zip(summary.values(), boots):
            entry.update(
                ci_low=float(np.percentile(boot, 2.5)), ci_high=float(np.percentile(boot, 97.5)), ci_resamples=len(boot)
            )
    return summary


def _wpa_1d(values) -> float:
    # The weighted phase average of one row as a 1-D dot product.
    n = len(values)
    i = np.arange(n)
    a = (i + 1) * (n - i) / 2.0
    return float(a @ values / a.sum())


def run_replicate_per_row(config, *, point=0, replicates=range(1)) -> list[dict]:
    """harness.run_replicate with its estimators run once per replicate, kept as the byte reference.

    One simulator call per stage, looked up on the harness when called; then
    each replicate's spectrum, Fourier estimates, fidelity correction, ladder
    and peak fit from its own 1-D arrays, by the same numeric routes: moduli
    through np.hypot, the phase differences through np.multiply, the budget's
    cube as a product.
    """
    d, params, noise = config.depth, config.gate_truth, config.noise
    records, failures = dict.fromkeys(replicates), {}

    rngs = {r: None if noise.exact else stream(CIRCUIT, noise.seed, point, r) for r in replicates}

    def stage(depth, omegas, finish):
        live = list(records)
        if not live:
            return
        w = omegas(live)
        p = harness.simulate_probability_batch(depth, w, params, noise, [rngs[r] for r in live])
        for r, wr, (px, py) in zip(live, w, p):
            try:
                finish(r, wr, px, py)
            except DegenerateCoefficientError as exc:
                del records[r]
                failures[r] = {"replicate": r, "reason": f"{type(exc).__name__}: {exc}"}

    def fourier(r, w, px, py):
        c = (np.fft.fft(px - 0.5 + 1j * (py - 0.5)) / (2 * d - 1))[:d]
        if (np.abs(c) == 0.0).any():
            raise DegenerateCoefficientError("zero coefficient among k = 0..d-1")
        varphi_hat = 0.5 * _wpa_1d(np.angle(np.multiply(c[:-1], np.conj(c[1:]))))
        amps = np.abs(c)
        theta_hat = float(amps.mean())
        low = np.flatnonzero(amps < LOW_SNR_FLOOR_SCALE / math.sqrt(noise.shots * (2 * d - 1)))
        record = records[r] = EstimateReport(
            theta_hat=theta_hat,
            varphi_hat=float(varphi_hat),
            alpha_hat=None,
            theta_pd=None,
            theta_pf=None,
            var_theory_theta=variance_theory_theta(d, noise.shots),
            var_theory_varphi=variance_theory_varphi(d, noise.shots, theta_hat),
            warnings=[f"low-snr coefficients at k={low.tolist()}"] if low.size else [],
            diagnostics={},
        )._asdict()
        if config.alpha_correction and d >= 3:
            rest = float(amps[1:].mean())
            alpha_hat = 1.0 - 2.0 * math.sqrt(2.0) * (float(amps[0]) - rest)
            if alpha_hat <= 0.0:
                record["warnings"].append(f"alpha_hat = {alpha_hat} <= 0")
            else:
                record["alpha_hat"] = alpha_hat
                record["diagnostics"]["theta_corrected"] = rest / alpha_hat

    def ladder(r, w, px, py):
        record = records[r]
        theta_pd = 0.5 * _wpa_1d(np.diff(np.hypot(px - 0.5, py - 0.5)))
        t = abs(theta_pd)
        dt = d * t
        record["theta_pd"] = theta_pd
        record["diagnostics"]["theta_pd_var_theory"] = variance_theory_theta_pd(d, noise.shots)
        record["diagnostics"]["theta_pd_bias_budget"] = (
            6.5 * d**2 * t * record["var_theory_varphi"] + 37.0 * (dt * dt * dt)
        )

    def fit(r, w, px, py):
        record = records[r]
        result = peak_fit(operator, np.hypot(px - 0.5, py - 0.5), d, record["varphi_hat"], config.peak_fit.beta_thr)
        record["theta_pf"] = result.theta_pf
        record["diagnostics"]["peak_fit"] = {
            "beta0": result.beta0, "beta1": result.beta1, "beta2": result.beta2, "accepted": result.accepted
        }

    phi = lambda live: np.array([[records[r]["varphi_hat"]] for r in live])
    grid = omega_grid(d)
    stage(d, lambda live: np.broadcast_to(grid, (len(live), grid.size)), fourier)
    if config.theta_pd:
        depths = np.arange(d, 3 * d + 1, 2)
        stage(depths, lambda live: phi(live).repeat(len(depths), axis=1), ladder)
    if config.peak_fit.enabled:
        offsets, operator = peak_fit_operator(d, config.peak_fit.n_pf)
        stage(d, lambda live: phi(live) + offsets, fit)
    return [failures[r] if r in failures else records[r] for r in replicates]


def peak_fit_lstsq(omegas, amplitudes, d: int, phi_pri: float, beta_thr: float | None = None) -> PeakFitResult:
    """The earlier peak fit: the design [w^2, w, 1] at the row's own angles, solved by lstsq.

    Its design's condition number grows as d^2 (5.6e9 at d = 65536 for
    n = 15), and beta2 = c - b^2/(4a) cancels near the vertex, so its beta2
    loses digits as d grows; kept as the reference the operator's acceptance
    flags are held to.
    """
    omegas = np.asarray(omegas, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if beta_thr is None:
        beta_thr = math.pi / (2.0 * d)
    design = np.stack([omegas**2, omegas, np.ones_like(omegas)], axis=1)
    a, b, c = (float(v) for v in np.linalg.lstsq(design, amplitudes, rcond=None)[0])
    if a == 0.0:
        return PeakFitResult(None, a, None, None, False)
    beta1 = -b / (2.0 * a)
    beta2 = c - b * b / (4.0 * a)
    if a > 0.0 or abs(beta1 - phi_pri) >= beta_thr:
        return PeakFitResult(None, a, beta1, beta2, False)
    return PeakFitResult(beta2 / d, a, beta1, beta2, True)


def peak_fit_reference(offsets, amplitudes, phi_pri: float) -> tuple:
    """(beta0, beta1, beta2) of the least-squares parabola through (phi_pri + o_j, |h_j|), solved at 50 digits.

    The abscissae are the exact sums of the double phi_pri and offsets, so
    the problem is the one in o = w - phi_pri; the returned values are mpf.
    """
    with mpmath.workdps(50):
        o = [mpmath.mpf(float(v)) for v in offsets]
        design = mpmath.matrix([[v * v, v, 1] for v in o])
        a, b, c = mpmath.qr_solve(design, mpmath.matrix([mpmath.mpf(float(v)) for v in amplitudes]))[0]
        return a, mpmath.mpf(phi_pri) - b / (2 * a), c - b * b / (4 * a)
