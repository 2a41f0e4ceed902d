"""Rate function, Fisher zeros and the critical condition.

Continuing the return amplitude to complex time it -> tau + it, the zeros
organize into lines indexed by n with constant imaginary part (2n-1) T / 2
and k-dependent real part

    tau_band(k) = (1/w) ln[ h_xy^2 / (E_band - h_z)^2 ].

A transition happens iff some line crosses the imaginary axis, i.e.
tau(k_c) = 0 for a real k_c, which reduces to delta1 cos(k_c) = w - delta2
and hence to |w - delta2| <= |delta1|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDelta1, UndefinedTau
from .model import (ModelParams, _uniform_band_weights, band_energy,
                    bloch_components)

# Clamp on |G|^2 before the log: the integrand has an integrable log
# singularity exactly at (k_c, t_c); clamping bounds the trapezoid sum
# without moving the kink locations.
PROB_FLOOR = 1e-14

DEFAULT_K_GRID = 2001

# Most critical times `critical_times` lists, checked before building it.
MAX_CRITICAL_TIMES = 100_000


@dataclass(frozen=True)
class FisherLine:
    """One line of Fisher zeros: z(k) = tau_of_k + i t_imag over the k grid."""

    n: int
    k_grid: np.ndarray
    tau_of_k: np.ndarray
    t_imag: float


@dataclass(frozen=True)
class CriticalSet:
    """Whether the drive hosts transitions, and where/when."""

    has_dqpt: bool
    k_c: float | None
    critical_times: list = field(default_factory=list)


def critical_times(params: ModelParams, t_max: float) -> list:
    """All t_c = (2n-1) T/2 up to and including t_max.

    Raises ValueError when there are more than MAX_CRITICAL_TIMES of them.
    """
    half = 0.5 * params.period
    bound = (t_max + 1e-12 * params.period) / params.period + 0.5
    if not bound < MAX_CRITICAL_TIMES + 1:  # NaN and inf too
        raise ValueError(f"the critical times up to t_max = {t_max} "
                         f"exceed {MAX_CRITICAL_TIMES}")
    return [(2 * n - 1) * half for n in range(1, math.floor(bound) + 1)]


def dqpt_condition(params: ModelParams) -> CriticalSet:
    """Critical momentum and times, or the verdict that none exist.

    has_dqpt iff |w - delta2| <= |delta1| (boundary included); then
    k_c = arccos((w - delta2) / delta1). The library's one statement of the
    condition (topology reads it). Critical times are listed over the first
    three periods; `critical_times` gives other horizons.
    """
    w, d1, d2 = params.omega_drive, params.delta1, params.delta2
    if d1 == 0.0:
        if w == d2:
            raise DegenerateDelta1(
                "delta1 = 0 with omega = delta2: every momentum is critical")
        return CriticalSet(has_dqpt=False, k_c=None)

    ratio = (w - d2) / d1
    has = abs(w - d2) <= abs(d1)
    if not has:
        return CriticalSet(has_dqpt=False, k_c=None)
    k_c = math.acos(max(-1.0, min(1.0, ratio)))
    return CriticalSet(has_dqpt=True, k_c=k_c,
                       critical_times=critical_times(params,
                                                     3.0 * params.period))


def fisher_tau(params: ModelParams, band: str, k: float) -> float:
    """Real part tau_band(k) of the Fisher-zero line, in time units.

    Raises UndefinedTau at the two divergent limits: h_xy = 0 (tau -> -inf)
    and E = h_z (tau -> +inf). Grid sweeps map these to signed infinities
    instead (see fisher_lines).
    """
    b = bloch_components(params, k)
    e = float(band_energy(params, band, k))
    if b.h_xy == 0.0:
        raise UndefinedTau("h_xy = 0: tau -> -inf")
    if e == b.h_z:
        raise UndefinedTau("E = h_z: tau -> +inf")
    return float(fisher_tau_grid(params, band, k))


def fisher_tau_grid(params: ModelParams, band: str, k_grid) -> np.ndarray:
    """tau over k (any shape) with +-inf markers at the divergent points."""
    k_grid = np.asarray(k_grid, dtype=float)
    b = bloch_components(params, k_grid)
    e = band_energy(params, band, k_grid)
    num = np.abs(b.h_xy)
    den = np.abs(e - b.h_z)
    out = np.full_like(k_grid, np.nan)
    out[(num == 0) & (den > 0)] = -np.inf
    out[(den == 0) & (num > 0)] = np.inf
    ok = (num > 0) & (den > 0)
    out[ok] = (2.0 / params.omega_drive) * (np.log(num[ok]) - np.log(den[ok]))
    return out


def fisher_lines(params: ModelParams, band: str, k_grid,
                 n_lines: int = 3) -> list:
    """Fisher-zero lines n = 1 .. n_lines sampled over the k grid.

    tau is k-dependent but shared by every line; the lines differ only in
    their (constant) imaginary part, i.e. they are parallel to the real axis.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    tau = fisher_tau_grid(params, band, k_grid)
    return [FisherLine(n=n, k_grid=k_grid, tau_of_k=tau,
                       t_imag=(2 * n - 1) * 0.5 * params.period)
            for n in range(1, n_lines + 1)]


def rate_function(params: ModelParams, band: str, t: float,
                  k_grid_size: int = DEFAULT_K_GRID) -> float:
    """Rate function g_band(t) = -(1/pi) int_0^pi dk ln |G(k, t)|^2.

    Trapezoidal rule on a uniform k grid including both endpoints (which
    contribute ln 1 = 0 exactly); |G|^2 is clamped below at PROB_FLOOR. The
    1/pi measure makes g intensive and grid-size comparable. The k grid and
    band weights are computed once per (params, band, k_grid_size), so each
    t costs only |G|^2 = ||a|^2 + e^{iwt}|b|^2|^2 and the sum.
    """
    if k_grid_size < 2:
        raise ValueError("k_grid_size must be >= 2")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    k, wa, wb = _uniform_band_weights(params, band, k_grid_size)
    prob = np.abs(wa + np.exp(1j * params.omega_drive * np.asarray(t))
                  * wb) ** 2
    logp = np.log(np.maximum(prob, PROB_FLOOR))
    return float(-np.trapezoid(logp, k) / math.pi)
