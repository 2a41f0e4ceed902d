"""Real-space fermionized chain in Bogoliubov-de Gennes form.

The chain couples N spinless fermions with nearest-neighbour hopping
delta1/2, onsite potential delta2 and a periodically modulated pairing
Omega/(2i) e^{-i w t} on the bonds. In the Nambu basis
(f_1 .. f_N, f_1^dag .. f_N^dag), H = (1/2) Psi^dag H_bdg(t) Psi + const with

    H_bdg(t) = [[A, B e^{-i w t}], [B^dag e^{i w t}, -A^T]],

A carrying hopping and onsite terms and B the (antisymmetric) pairing.
Nambu doubling makes the momentum blocks of H_bdg twice the Bloch
Hamiltonian; the undoubled H_bdg/2 generates the one-period propagator U(T),
whose folded spectrum carries the pi edge modes. Only the pairing depends on
t, so R(t) = diag(e^{-i w t/2} I, e^{i w t/2} I) makes the chain static, as
U_R(t) does per k: R^dag H_bdg(t) R = H_bdg(0), and psi = R phi turns
i d_t psi = (H_bdg/2) psi into i d_t phi = H_eff phi with
H_eff = H_bdg(0)/2 - (w/2) tau_z. As R(T) = -I, U(T) = -exp(-i H_eff T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSize
from .model import ModelParams, hamiltonian_lab

MAX_SITES = 1000

# pi-mode criterion: folded quasienergy within this fraction of w from
# +-w/2 and at least half the weight on the outer tenth of the sites.
PI_MODE_ENERGY_TOL = 0.02
PI_MODE_EDGE_WEIGHT = 0.5
EDGE_FRACTION = 0.1


@dataclass(frozen=True)
class BdgChain:
    """N-site chain with open or antiperiodic boundary."""

    params: ModelParams
    n_sites: int
    boundary: str

    def hamiltonian_at(self, t: float) -> np.ndarray:
        """2N x 2N Hermitian BdG matrix at time t."""
        p = self.params
        n = self.n_sites
        hop = 0.5 * p.delta1
        pair = p.omega_amp / 2j * np.exp(-1j * p.omega_drive * t)

        a = np.zeros((n, n), dtype=complex)
        b = np.zeros((n, n), dtype=complex)
        idx = np.arange(n - 1)
        a[np.arange(n), np.arange(n)] = p.delta2
        a[idx, idx + 1] = hop
        a[idx + 1, idx] = hop
        b[idx, idx + 1] = pair
        b[idx + 1, idx] = -pair
        if self.boundary == "antiperiodic":
            # wrap bond picks up the f_{N+1} = -f_1 sign
            a[n - 1, 0] += -hop
            a[0, n - 1] += -hop
            b[n - 1, 0] += -pair
            b[0, n - 1] += pair

        top = np.hstack([a, b])
        bottom = np.hstack([b.conj().T, -a.T])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class FloquetSpectrum:
    """Folded OBC quasienergies with localization data, sorted ascending."""

    quasienergies: np.ndarray        # (2N,), in [-w/2, w/2)
    modes: np.ndarray                # (2N, 2N), columns matching entries
    edge_weights: np.ndarray         # weight on the outer 10% of sites
    pi_mode: np.ndarray              # boolean flags per mode


def build_chain(params: ModelParams, n_sites: int, boundary: str) -> BdgChain:
    """Assemble the chain; boundary is 'open' or 'antiperiodic'."""
    if n_sites < 2:
        raise InvalidSize(f"n_sites = {n_sites} < 2")
    if boundary not in ("open", "antiperiodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    return BdgChain(params=params, n_sites=n_sites, boundary=boundary)


def momentum_consistency_check(params: ModelParams, n_sites: int) -> float:
    """Max deviation of the Fourier blocks from the Bloch Hamiltonian.

    Transforms the antiperiodic real-space BdG matrix at t = 0, T/3 and T/2
    to the momentum set k_m = 2 pi (m + 1/2) / N and compares each undoubled
    2x2 block against H(k_m, t). Exercises the whole fermionization +
    Fourier pipeline; the result should sit at rounding level.
    """
    if n_sites < 8 or n_sites % 2:
        raise InvalidSize("momentum check needs even n_sites >= 8")
    chain = build_chain(params, n_sites, "antiperiodic")

    n = n_sites
    sites = np.arange(1, n + 1)
    ks = 2.0 * math.pi * (np.arange(n) + 0.5) / n

    worst = 0.0
    for t in (0.0, params.period / 3.0, params.period / 2.0):
        h = chain.hamiltonian_at(t)
        for k in ks:
            c = np.exp(-1j * k * sites) / math.sqrt(n)
            rows = np.zeros((2, 2 * n), dtype=complex)
            rows[0, :n] = c
            rows[1, n:] = c
            block = 0.5 * (rows @ h @ rows.conj().T)
            ref = hamiltonian_lab(params, k, t)
            worst = max(worst, float(np.max(np.abs(block - ref))))
    return worst


def obc_floquet_spectrum(params: ModelParams, n_sites: int) -> FloquetSpectrum:
    """Folded quasienergy spectrum of the open chain with edge diagnostics.

    Exact via the static frame (module docstring): U(T) = -exp(-i H_eff T),
    so one eigh of H_eff gives orthonormal modes and eigenvalues e, and the
    principal angle of e^{-i eps T} = -e^{-i e T} folds eps = e + w/2 into
    [-w/2, w/2). Each mode is scored by its weight on the outer tenth of the
    sites (particle and hole components of a site counted together); modes
    within 0.02 w of +-w/2 with edge weight >= 0.5 are pi modes.
    """
    chain = build_chain(params, n_sites, "open")
    n = n_sites
    w = params.omega_drive
    h_eff = 0.5 * chain.hamiltonian_at(0.0)
    h_eff -= np.diag(0.5 * w * np.repeat([1.0, -1.0], n))
    e, evecs = np.linalg.eigh(h_eff)
    eps = -np.angle(-np.exp(-1j * e * params.period)) / params.period

    n_edge = max(1, math.ceil(EDGE_FRACTION * n))
    site_weight = np.abs(evecs[:n, :]) ** 2 + np.abs(evecs[n:, :]) ** 2
    site_weight /= site_weight.sum(axis=0)
    edge = (site_weight[:n_edge, :].sum(axis=0)
            + site_weight[n - n_edge:, :].sum(axis=0))

    pi_flag = ((0.5 * w - np.abs(eps)) < PI_MODE_ENERGY_TOL * w) \
        & (edge >= PI_MODE_EDGE_WEIGHT)

    order = np.argsort(eps)
    return FloquetSpectrum(quasienergies=eps[order], modes=evecs[:, order],
                           edge_weights=edge[order], pi_mode=pi_flag[order])
