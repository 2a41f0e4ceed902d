"""Reference implementations the library's closed forms and oracles are
checked against. None of them imports `floquet_dqpt.lattice` or calls the
library's field or band kernels: from the library they take only
`ModelParams` and `StepCountTooSmall`.

The references own their 2x2 matrices: the Pauli matrices `SIGMA_0`,
`SIGMA_X`, `SIGMA_Y`, `SIGMA_Z` and the micromotion U_R(t) = diag(1, e^{i w t})
of the rotating frame, `micromotion`, are defined here and nowhere in the
library, whose closed forms never build them. They own the field too:
`bloch_field` writes (h_xy, h_z) from the four parameters, so a wrong
`model.normal_field` moves no reference value.

`rotating_frame_hamiltonian` builds the static H_F(k) as a matrix; its
`np.linalg.eigh` gives the reference quasienergies and modes, whose phases
are arbitrary, so the tests compare only phase-invariant quantities.
`hamiltonian_lab` is the lab-frame H(k, t). `eigenvector_phases` is the
geometric phase's definition, total - dynamical, read from those modes.

`bdg_hamiltonian` builds the lab-frame chain H_bdg(t) of the `lattice`
module docstring, open or antiperiodic. `one_period_propagator` is its
time-ordered RK4 U(T), the oracle of `lattice.obc_floquet_spectrum`, and
`momentum_consistency_check` compares its Fourier blocks with H(k, t).

`ring_loschmidt_rate` is the many-body Loschmidt rate g_N(t) of the
antiperiodic ring (Heyl, Polkovnikov & Kehrein, PRL 110, 135704, 2013),
from determinants of the chain's BdG modes with no reference to k;
`open_chain_loschmidt_rate` is the same route on the open chain.

`chiral_block_spectrum` is the open chain's spectrum from its real N x N
chiral block alone: one SVD gives the quasienergies, up to the fold, and the
edge weights.

`scalar_rk4_propagator` is the per-step Python loop that
`dynamics.propagator_oracle` replaced with one pairwise product of RK4 step
matrices streamed through blocks of steps: the same scheme, step count and
step times, with the steps applied to U one after the other, on all four
entries. It ends in a general polar factor from numpy's SVD, where the
oracle divides its SU(2) pair by hypot(|a|, |b|); nothing here imports
`floquet_dqpt.dynamics`.

The W1/W2 references for `topology.chiral_winding_numbers` work on a k grid:
`brute_winding` accumulates the angle of the planar vector
(h_z - w/2, +-h_xy), `winding_integral` integrates its winding density, and
`symmetric_frame_operators` builds the two chiral-symmetric Floquet
operators whose effective Hamiltonians that vector describes.
"""

import cmath
import math

import numpy as np

from floquet_dqpt.errors import StepCountTooSmall
from floquet_dqpt.model import ModelParams

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

DEFAULT_WINDING_GRID = 4001
MIN_SPECTRUM_STEPS = 1024


def micromotion(params: ModelParams, t: float) -> np.ndarray:
    """Micromotion operator U_R(t) = diag(1, e^{i w t})."""
    return np.diag([1.0, cmath.exp(1j * params.omega_drive * t)])


def bloch_field(params: ModelParams, k):
    """(h_xy, h_z) of H(k, t) at k, scalar or array, from the four
    parameters: h_xy = Omega sin(k)/2 and h_z = delta1 cos(k)/2 + delta2/2,
    each term halved before the sum, as `dynamics.propagator_oracle` forms
    them."""
    return (0.5 * params.omega_amp * np.sin(k),
            0.5 * params.delta1 * np.cos(k) + 0.5 * params.delta2)


def rotating_frame_hamiltonian(params: ModelParams, k: float) -> np.ndarray:
    """Static H_F(k) = h_xy sx + (h_z - w/2) sz + (w/2) I."""
    h_xy, h_z = bloch_field(params, k)
    return (h_xy * SIGMA_X + (h_z - 0.5 * params.omega_drive) * SIGMA_Z
            + 0.5 * params.omega_drive * SIGMA_0)


def eigenvector_phases(params: ModelParams, band: str, k: float,
                       t: float):
    """(total, dynamical) phases of the band's mode chi of H_F(k) at t.

    chi is column 0 ("minus") or 1 ("plus") of the eigh of H_F, E its
    quasienergy; total = arg(<chi| U_R(t) |chi> e^{-i E t}) and dynamical =
    -<chi| H_R |chi> t with H_R = h_xy sx + h_z sz built as a matrix. Their
    difference is the geometric phase, modulo 2 pi.
    """
    energies, modes = np.linalg.eigh(rotating_frame_hamiltonian(params, k))
    column = ("minus", "plus").index(band)
    chi = modes[:, column]
    h_xy, h_z = bloch_field(params, k)
    h_r = np.array([[h_z, h_xy], [h_xy, -h_z]], dtype=complex)
    overlap = chi.conj() @ micromotion(params, t) @ chi
    total = cmath.phase(overlap * cmath.exp(-1j * energies[column] * t))
    return total, -float((chi.conj() @ h_r @ chi).real) * t


def hamiltonian_lab(params: ModelParams, k: float, t: float) -> np.ndarray:
    """Lab-frame Bloch Hamiltonian H(k, t) as a 2x2 Hermitian matrix."""
    h_xy, h_z = bloch_field(params, k)
    wt = params.omega_drive * t
    return (h_xy * (math.cos(wt) * SIGMA_X + math.sin(wt) * SIGMA_Y)
            + h_z * SIGMA_Z)


def bdg_hamiltonian(params: ModelParams, n_sites: int, t: float,
                    antiperiodic: bool = False) -> np.ndarray:
    """2N x 2N H_bdg(t) = [[A, B e^{-i w t}], [B^dag e^{i w t}, -A^T]].

    A holds the onsite delta2 and the hopping delta1/2 on each bond, B the
    antisymmetric pairing Omega/(2i). The antiperiodic chain adds the bond
    (N, 1) with the sign of f_{N+1} = -f_1.
    """
    n = n_sites
    a = params.delta2 * np.eye(n, dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    bonds = [(j, j + 1, 1.0) for j in range(n - 1)]
    if antiperiodic:
        bonds.append((n - 1, 0, -1.0))
    for i, j, sign in bonds:
        a[i, j] += sign * 0.5 * params.delta1
        a[j, i] += sign * 0.5 * params.delta1
        b[i, j] += sign * params.omega_amp / 2j
        b[j, i] -= sign * params.omega_amp / 2j
    b *= cmath.exp(-1j * params.omega_drive * t)
    return np.block([[a, b], [b.conj().T, -a.T]])


def momentum_consistency_check(params: ModelParams, n_sites: int) -> float:
    """Max deviation of the Fourier blocks from the Bloch Hamiltonian.

    Transforms the antiperiodic real-space BdG matrix at t = 0, T/3 and T/2
    (even n_sites) to the momentum set k_m = 2 pi (m + 1/2) / N and compares
    each undoubled 2x2 block against H(k_m, t). Exercises the whole
    fermionization + Fourier pipeline; the result should sit at rounding
    level.
    """
    n = n_sites
    sites = np.arange(1, n + 1)
    worst = 0.0
    for t in (0.0, params.period / 3.0, params.period / 2.0):
        h = bdg_hamiltonian(params, n, t, antiperiodic=True)
        for m in range(n):
            k = 2.0 * math.pi * (m + 0.5) / n
            c = np.exp(-1j * k * sites) / math.sqrt(n)
            rows = np.zeros((2, 2 * n), dtype=complex)
            rows[0, :n] = c
            rows[1, n:] = c
            block = 0.5 * (rows @ h @ rows.conj().T)
            ref = hamiltonian_lab(params, k, t)
            worst = max(worst, float(np.max(np.abs(block - ref))))
    return worst


def one_period_propagator(params: ModelParams, n_sites: int, steps: int,
                          antiperiodic: bool = False) -> np.ndarray:
    """RK4 time-ordered U(T) of the undoubled matrix; the spectrum's oracle."""
    if steps < MIN_SPECTRUM_STEPS:
        raise StepCountTooSmall(f"steps={steps} < {MIN_SPECTRUM_STEPS}")
    h = params.period / steps
    n = n_sites
    u = np.eye(2 * n, dtype=complex)
    # Only the pairing blocks depend on t: H(t) = H_s + e^{-i w t} P
    # + e^{i w t} P^dag, P the upper-right block of H(0). The generator
    # -i H(t)/2 is split that way once.
    g = -0.5j * bdg_hamiltonian(params, n, 0.0, antiperiodic)
    g_plus, g_minus = np.zeros_like(g), np.zeros_like(g)
    g_plus[:n, n:] = g[:n, n:]      # -i P / 2
    g_minus[n:, :n] = g[n:, :n]     # -i P^dag / 2
    g_static = g - g_plus - g_minus
    w = params.omega_drive

    def gen(t):
        phase = cmath.exp(-1j * w * t)
        return g_static + phase * g_plus + phase.conjugate() * g_minus

    for i in range(steps):
        t0 = i * h
        g0 = gen(t0)
        gm = gen(t0 + 0.5 * h)
        g1 = gen(t0 + h)
        k1 = g0 @ u
        k2 = gm @ (u + 0.5 * h * k1)
        k3 = gm @ (u + 0.5 * h * k2)
        k4 = g1 @ (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return u


def ring_loschmidt_rate(params: ModelParams, n_sites: int, ts) -> np.ndarray:
    """g_N(t) = -(2/N) ln |<psi0| e^{i w t N/2} |psi0>|^2 at each t of ts.

    psi0 fills the N negative modes W (2N x N) of the antiperiodic ring's
    H_bdg(0)/2 - (w/2) tau_z, the rotating-frame Hamiltonian up to a
    constant, and the overlap squared is |det(W^dag S W)| with
    S = diag(e^{-i w t/2} I, e^{i w t/2} I): g_N is normalized like
    `dqpt.rate_function`. ValueError where no gap separates the modes.
    """
    n = n_sites
    energies, modes = _effective_modes(params, n, antiperiodic=True)
    if not energies[n - 1] < 0.0 < energies[n]:
        raise ValueError("no gap at zero energy: the filling is ambiguous")
    return _loschmidt_rate(params, modes[:, :n], ts)


def open_chain_loschmidt_rate(params: ModelParams, n_sites: int, ts,
                              chirality: int = 1) -> np.ndarray:
    """ring_loschmidt_rate's g_N(t) on the open chain.

    psi0 fills the modes of H_eff below -gap_floor and, out of the modes
    with |e| <= gap_floor (the pi pairs, split only by rounding, so eigh's
    order among them is arbitrary), the tau_y = chirality eigenstates of
    their span, as many as make N: one end's edge modes. tau_y
    anticommutes with H_eff, so the span is tau_y-invariant.
    """
    n = n_sites
    energies, modes = _effective_modes(params, n, antiperiodic=False)
    filled = modes[:, energies < -params.gap_floor]
    pair = modes[:, np.abs(energies) <= params.gap_floor]
    tau_y_pair = np.concatenate([-1j * pair[n:], 1j * pair[:n]])
    _, rotation = np.linalg.eigh(pair.conj().T @ tau_y_pair)
    if chirality > 0:
        rotation = rotation[:, ::-1]
    chosen = pair @ rotation[:, :n - filled.shape[1]]
    return _loschmidt_rate(params, np.hstack([filled, chosen]), ts)


def _effective_modes(params, n, antiperiodic):
    """eigh of H_eff = H_bdg(0)/2 - (w/2) tau_z on the ring or open chain."""
    tau_z = np.repeat([1.0, -1.0], n)
    return np.linalg.eigh(0.5 * bdg_hamiltonian(params, n, 0.0, antiperiodic)
                          - np.diag(0.5 * params.omega_drive * tau_z))


def _loschmidt_rate(params, w, ts):
    """-(2/N) ln |det(W^dag S W)| at each t, W the filled 2N x N modes."""
    n = w.shape[1]
    tau_z = np.repeat([1.0, -1.0], n)
    rates = []
    for t in ts:
        s = np.exp(-0.5j * params.omega_drive * t * tau_z)
        _, log_abs = np.linalg.slogdet(w.conj().T @ (s[:, None] * w))
        rates.append(-2.0 / n * log_abs)
    return np.array(rates)


def chiral_block_spectrum(params: ModelParams, n_sites: int):
    """(s, edge) of the open chain from its chiral block, with no 2N x 2N
    matrix: tau_y anticommutes with H_eff = H_bdg(0)/2 - (w/2) tau_z, and in
    its eigenbasis H_eff = [[0, M], [M^T, 0]], M real and tridiagonal with
    diagonal (delta2 - w)/2, superdiagonal (delta1 - Omega)/4 and
    subdiagonal (delta1 + Omega)/4. With M = U diag(s) V^T, H_eff has the
    eigenvalues +-s, and the pair of modes j puts the weight
    (u_j^2 + v_j^2)/2 on a site; edge sums it over the outer tenth of the
    sites at both ends.
    """
    n = n_sites
    m = np.diag(np.full(n, 0.5 * (params.delta2 - params.omega_drive)))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = 0.25 * (params.delta1 - params.omega_amp)
    m[idx + 1, idx] = 0.25 * (params.delta1 + params.omega_amp)
    u, s, vt = np.linalg.svd(m)
    weight = 0.5 * (u * u + vt.T * vt.T)
    n_edge = max(1, math.ceil(0.1 * n))
    return s, weight[:n_edge].sum(axis=0) + weight[n - n_edge:].sum(axis=0)


def su2_exponential(nx: float, nz: float) -> np.ndarray:
    """exp(-i (nx sx + nz sz)) via the closed-form Pauli identity."""
    angle = math.hypot(nx, nz)
    if angle == 0.0:
        return SIGMA_0.copy()
    return (math.cos(angle) * SIGMA_0
            - 1j * math.sin(angle) / angle * (nx * SIGMA_X + nz * SIGMA_Z))


def symmetric_frame_operators(params: ModelParams, k: float):
    """(U1(k), U2(k)) Floquet operators in the two symmetric time frames."""
    h_xy, h_z = bloch_field(params, k)
    tt = params.period
    dz = (h_z - 0.5 * params.omega_drive) * tt
    u1 = -su2_exponential(h_xy * tt, dz)
    u2 = -su2_exponential(-h_xy * tt, dz)
    return u1, u2


def brute_winding(params, flip_x=False, n=DEFAULT_WINDING_GRID):
    """Raw W1 (W2 with flip_x) by accumulated atan2 angle over the zone."""
    k = np.linspace(-math.pi, math.pi, n)
    h_xy, h_z = bloch_field(params, k)
    z = h_z - 0.5 * params.omega_drive
    x = -h_xy if flip_x else h_xy
    ang = np.unwrap(np.arctan2(x, z))
    return (ang[-1] - ang[0]) / (2.0 * math.pi)


def winding_integral(params: ModelParams, n_points: int = 10_000) -> float:
    """Midpoint-rule evaluation of the W1 winding integrand.

    Integrates [z x' - x z'] / (z^2 + x^2) / 2 pi over the full zone with
    analytic derivatives; kept separate from the angle-accumulation route
    so the two can be compared before rounding.
    """
    k = (np.arange(n_points) + 0.5) * (2.0 * math.pi / n_points) - math.pi
    x, h_z = bloch_field(params, k)
    z = h_z - 0.5 * params.omega_drive
    dx = 0.5 * params.omega_amp * np.cos(k)
    dz = -0.5 * params.delta1 * np.sin(k)
    integrand = (z * dx - x * dz) / (z * z + x * x)
    return float(integrand.sum() * (2.0 * math.pi / n_points) / (2.0 * math.pi))


def scalar_rk4_propagator(params: ModelParams, k: float, t: float,
                          steps: int):
    """(U, correction) of fixed-step RK4 on dU/dt = -i H(k, t) U, step by step.

    Uses n = ceil(|t| / (T / steps)) uniform steps of h = t / n, backwards
    in time where t < 0. U is the polar factor V W^dag of the SVD of the
    integrated matrix M = V S W^dag, and the correction is the spectral norm
    of M - U.
    """
    # plain floats keep the loop in Python complex arithmetic
    hxy, hz = map(float, bloch_field(params, k))
    w = params.omega_drive
    n = max(1, math.ceil(abs(t) / (params.period / steps)))
    h = t / n

    def deriv(time, u00, u01, u10, u11):
        # -i H U with H = [[hz, p], [conj(p), -hz]], p = hxy e^{-i w t}
        p = hxy * cmath.exp(-1j * w * time)
        q = p.conjugate()
        return (-1j * (hz * u00 + p * u10), -1j * (hz * u01 + p * u11),
                -1j * (q * u00 - hz * u10), -1j * (q * u01 - hz * u11))

    u00, u01, u10, u11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for i in range(n):
        t0 = i * h
        a0, a1, a2, a3 = deriv(t0, u00, u01, u10, u11)
        b0, b1, b2, b3 = deriv(t0 + 0.5 * h, u00 + 0.5 * h * a0,
                               u01 + 0.5 * h * a1, u10 + 0.5 * h * a2,
                               u11 + 0.5 * h * a3)
        c0, c1, c2, c3 = deriv(t0 + 0.5 * h, u00 + 0.5 * h * b0,
                               u01 + 0.5 * h * b1, u10 + 0.5 * h * b2,
                               u11 + 0.5 * h * b3)
        d0, d1, d2, d3 = deriv(t0 + h, u00 + h * c0, u01 + h * c1,
                               u10 + h * c2, u11 + h * c3)
        u00 += h / 6.0 * (a0 + 2.0 * (b0 + c0) + d0)
        u01 += h / 6.0 * (a1 + 2.0 * (b1 + c1) + d1)
        u10 += h / 6.0 * (a2 + 2.0 * (b2 + c2) + d2)
        u11 += h / 6.0 * (a3 + 2.0 * (b3 + c3) + d3)

    m = np.array([[u00, u01], [u10, u11]], dtype=complex)
    v, _, wh = np.linalg.svd(m)
    u = v @ wh
    return u, float(np.linalg.norm(m - u, 2))
