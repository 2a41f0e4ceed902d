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
The open chain at t = 0 is therefore the only matrix this module builds.
"""

from __future__ import annotations

import math

from ._lazy import np
from ._record import record
from .errors import InvalidSize
from .model import MAX_SITES, ModelParams

# pi-mode criterion: folded quasienergy within this fraction of w from
# +-w/2 and at least half the weight on the outer tenth of the sites.
PI_MODE_ENERGY_TOL = 0.02
PI_MODE_EDGE_WEIGHT = 0.5
EDGE_FRACTION = 0.1


@record
class FloquetSpectrum:
    """Folded OBC quasienergies with localization data, sorted ascending."""

    quasienergies: np.ndarray        # (2N,), in [-w/2, w/2)
    edge_weights: np.ndarray         # weight on the outer 10% of sites
    pi_mode: np.ndarray              # boolean flags per mode


def obc_floquet_spectrum(params: ModelParams, n_sites: int) -> FloquetSpectrum:
    """Folded quasienergy spectrum of the open chain with edge diagnostics.

    Exact via the static frame (module docstring): U(T) = -exp(-i H_eff T),
    so one eigh of H_eff gives its modes and eigenvalues e, and the
    principal angle of e^{-i eps T} = -e^{-i e T} folds eps = e + w/2 into
    [-w/2, w/2). Each mode is scored by its weight on the outer tenth of the
    sites (particle and hole components of a site counted together); modes
    within 0.02 w of +-w/2 with edge weight >= 0.5 are pi modes.

    Raises InvalidSize for n_sites outside [2, MAX_SITES], before any
    allocation.
    """
    if not 2 <= n_sites <= MAX_SITES:
        raise InvalidSize(f"n_sites = {n_sites} outside [2, {MAX_SITES}]")
    n = n_sites
    w = params.omega_drive
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    a[np.arange(n), np.arange(n)] = params.delta2
    a[idx, idx + 1] = a[idx + 1, idx] = 0.5 * params.delta1
    b[idx, idx + 1] = params.omega_amp / 2j
    b[idx + 1, idx] = -b[idx, idx + 1]
    # Halve the assembled H_bdg(0), not each block: that fixes the signs of
    # its zero entries, on which the bits of eigh's output depend.
    h_eff = 0.5 * np.block([[a, b], [b.conj().T, -a.T]])
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
    return FloquetSpectrum(quasienergies=eps[order], edge_weights=edge[order],
                           pi_mode=pi_flag[order])
