"""Driven two-level model: Bloch Hamiltonian, rotating frame, exact Floquet data.

The system is a harmonically driven spin chain reduced, per quasimomentum k,
to a qubit in a rotating field,

    H(k, t) = h_xy(k) [cos(w t) sx + sin(w t) sy] + h_z(k) sz,

with h_xy = Omega sin(k)/2 and h_z = (delta1 cos(k) + delta2)/2. In the frame
rotating with U_R(t) = diag(1, e^{i w t}) the problem becomes static,

    H_F(k) = h_xy sx + (h_z - w/2) sz + (w/2) I,

whose eigenpairs give the quasienergies E_pm(k) = w/2 +- Delta(k)/2 and the
Floquet modes at t = 0. Quasienergies are kept UNFOLDED because every phase
formula downstream needs them that way; `fold_quasienergy` is display-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessPoint

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Relative gap floor below which band labels are numerically meaningless.
GAP_FLOOR_REL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Drive/coupling parameters. All values in rad per unit time.

    omega_drive : drive angular frequency w (> 0), period T = 2 pi / w
    delta1      : nearest-neighbour coupling delta1
    delta2      : longitudinal field delta2
    omega_amp   : drive amplitude Omega
    """

    omega_drive: float
    delta1: float
    delta2: float
    omega_amp: float

    def __post_init__(self):
        vals = (self.omega_drive, self.delta1, self.delta2, self.omega_amp)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("all model parameters must be finite")
        if self.omega_drive <= 0:
            raise ValueError("omega_drive must be positive")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega_drive

    @property
    def scale(self) -> float:
        """Largest parameter magnitude, used for relative floors."""
        return max(abs(self.omega_amp), abs(self.delta1),
                   abs(self.delta2), self.omega_drive)

    @property
    def gap_floor(self) -> float:
        return GAP_FLOOR_REL * self.scale


@dataclass(frozen=True)
class BlochComponents:
    """Field components of the Bloch Hamiltonian at fixed k."""

    h_xy: float
    h_z: float


@dataclass(frozen=True)
class FloquetSolution:
    """Unfolded quasienergies and t = 0 Floquet modes at one k."""

    e_minus: float
    e_plus: float
    chi_minus: np.ndarray
    chi_plus: np.ndarray
    gap: float


def bloch_components(params: ModelParams, k):
    """Transverse and longitudinal field components at quasimomentum k.

    Accepts scalar or array k; returns a BlochComponents pair whose fields
    follow the input shape.
    """
    h_xy = 0.5 * params.omega_amp * np.sin(k)
    h_z = 0.5 * (params.delta1 * np.cos(k) + params.delta2)
    return BlochComponents(h_xy=h_xy, h_z=h_z)


def hamiltonian_lab(params: ModelParams, k: float, t: float) -> np.ndarray:
    """Lab-frame Bloch Hamiltonian H(k, t) as a 2x2 Hermitian matrix."""
    b = bloch_components(params, k)
    wt = params.omega_drive * t
    return (b.h_xy * (math.cos(wt) * SIGMA_X + math.sin(wt) * SIGMA_Y)
            + b.h_z * SIGMA_Z)


def micromotion(params: ModelParams, t: float) -> np.ndarray:
    """Micromotion operator U_R(t) = diag(1, e^{i w t})."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * params.omega_drive * t)]],
                    dtype=complex)


def _fix_phase(chi: np.ndarray) -> np.ndarray:
    """Make the first nonzero component real positive."""
    for c in chi:
        if c != 0:
            return chi * (abs(c) / c)
    return chi


def gap_guard(params: ModelParams, k: float):
    """(Bloch components, h_z - w/2, Delta/2) at k.

    Raises GaplessPoint when the gap Delta is at or below the relative floor:
    the guard of floquet_solution, for callers that need no eigenvectors.
    """
    b = bloch_components(params, k)
    dz = b.h_z - 0.5 * params.omega_drive
    half_gap = math.hypot(b.h_xy, dz)
    gap = 2.0 * half_gap
    if gap <= params.gap_floor:
        raise GaplessPoint(f"gap {gap:.3e} at k={k} below floor "
                           f"{params.gap_floor:.3e}")
    return b, dz, half_gap


def min_half_gap(params: ModelParams) -> float:
    """Exact minimum over the zone of Delta/2 = |(h_z - w/2, h_xy)|.

    With c = cos k and d = delta2 - w its square is the quadratic
    [(delta1^2 - Omega^2) c^2 + 2 delta1 d c + d^2 + Omega^2] / 4 on [-1, 1],
    least at an endpoint, |d +- delta1|/2, or at the vertex when convex
    (there is none when delta1^2 = Omega^2).
    """
    d, d1, amp = (params.delta2 - params.omega_drive, params.delta1,
                  params.omega_amp)
    lengths = [0.5 * abs(d + d1), 0.5 * abs(d - d1)]
    curvature = d1 * d1 - amp * amp
    if curvature > 0:
        c = -d1 * d / curvature
        if -1.0 < c < 1.0:
            lengths.append(0.5 * math.hypot(d1 * c + d,
                                            amp * math.sqrt(1.0 - c * c)))
    return min(lengths)


def floquet_solution(params: ModelParams, k: float) -> FloquetSolution:
    """Exact quasienergies and eigenmodes of H_F(k).

    Uses the sign-resolved closed forms of the H_F eigenvectors; at the
    Brillouin-zone edges (h_xy = 0) these degenerate to the sz basis states
    with chi_plus the state of eigenvalue sign(h_z - w/2).

    Raises GaplessPoint when the gap falls below the relative floor.
    """
    w = params.omega_drive
    b, dz, half_gap = gap_guard(params, k)
    zt = dz / half_gap  # (2 h_z - w) / Delta
    up = math.sqrt(max(0.0, 0.5 * (1.0 + zt)))
    um = math.sqrt(max(0.0, 0.5 * (1.0 - zt)))
    s = 1.0 if b.h_xy >= 0 else -1.0
    chi_plus = _fix_phase(np.array([up, s * um], dtype=complex))
    chi_minus = _fix_phase(np.array([s * um, -up], dtype=complex))
    return FloquetSolution(e_minus=0.5 * w - half_gap,
                           e_plus=0.5 * w + half_gap,
                           chi_minus=chi_minus, chi_plus=chi_plus,
                           gap=2.0 * half_gap)


def band_weights(params: ModelParams, band: str, k):
    """(|a|^2, |b|^2) of the band's t = 0 mode, vectorized over k.

    The weights only depend on the longitudinal tilt, so they are available
    in closed form without building eigenvectors. Used by the grid sweeps.
    """
    if band not in ("minus", "plus"):
        raise ValueError(f"band must be 'minus' or 'plus', got {band!r}")
    b = bloch_components(params, k)
    dz = b.h_z - 0.5 * params.omega_drive
    half_gap = np.hypot(b.h_xy, dz)
    zt = np.where(half_gap > 0, dz / np.where(half_gap > 0, half_gap, 1.0),
                  np.nan)
    if band == "plus":
        wa = 0.5 * (1.0 + zt)
    else:
        wa = 0.5 * (1.0 - zt)
    return wa, 1.0 - wa


# typed: a float n that linspace refuses is not answered from an int entry
@functools.lru_cache(maxsize=1, typed=True)
def _uniform_band_weights(params: ModelParams, band: str, n: int):
    """(k, |a|^2, |b|^2) on n uniform points of [0, pi], all read-only.

    H_F is static, so the weights do not depend on t: a trace over t at one
    (params, band, n) computes them once. One entry serves every caller, a
    trace interleaving rate_function and winding_number included; the
    arrays are shared, hence read-only. Parameters equal under == share the
    entry: those that differ only in the sign of a zero give the same bits.
    """
    k = np.linspace(0.0, math.pi, n)
    wa, wb = band_weights(params, band, k)
    for a in (k, wa, wb):
        a.flags.writeable = False
    return k, wa, wb


def band_energy(params: ModelParams, band: str, k):
    """Unfolded quasienergy E_band(k), vectorized over k."""
    if band not in ("minus", "plus"):
        raise ValueError(f"band must be 'minus' or 'plus', got {band!r}")
    b = bloch_components(params, k)
    half_gap = np.hypot(b.h_xy, b.h_z - 0.5 * params.omega_drive)
    sign = 1.0 if band == "plus" else -1.0
    return 0.5 * params.omega_drive + sign * half_gap


def fold_quasienergy(params: ModelParams, e):
    """Fold an unfolded quasienergy into [-w/2, w/2). Display-only."""
    w = params.omega_drive
    return np.mod(np.asarray(e) + 0.5 * w, w) - 0.5 * w
