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

from ._lazy import np
from ._record import record
from .dynamics import micromotion_overlap
from .errors import DegenerateDelta1, UndefinedTau
from .model import (ModelParams, _t_chunks, _uniform_band_weights,
                    band_energy, finite_point, normal_field,
                    require_resolved_time)

# Clamp on |G|^2 before the log: the integrand has an integrable log
# singularity exactly at (k_c, t_c); clamping bounds the trapezoid sum
# without moving the kink locations.
PROB_FLOOR = 1e-14

DEFAULT_K_GRID = 2001


@record
class FisherLine:
    """One line of Fisher zeros: z(k) = tau_of_k + i t_imag on the k grid."""

    n: int
    tau_of_k: np.ndarray
    t_imag: float


@record
class CriticalSet:
    """Whether the drive hosts transitions, and where/when."""

    has_dqpt: bool
    k_c: float | None
    critical_times: list


def dqpt_condition(params: ModelParams) -> CriticalSet:
    """Critical momentum and times, or the verdict that none exist.

    has_dqpt iff |w - delta2| <= |delta1| (boundary included); then
    k_c = arccos((w - delta2) / delta1). The library's one statement of the
    condition (topology reads it). Critical times t_c = (2n-1) T/2 are
    listed over the first three periods.
    """
    w, d1, d2 = params.omega_drive, params.delta1, params.delta2
    if abs(w - d2) > abs(d1):
        return CriticalSet(has_dqpt=False, k_c=None, critical_times=[])
    if d1 == 0.0:
        raise DegenerateDelta1(
            "delta1 = 0 with omega = delta2: every momentum is critical")
    k_c = math.acos((w - d2) / d1)  # |a| <= |b| keeps fl(a/b) in [-1, 1]
    half = 0.5 * params.period
    return CriticalSet(has_dqpt=True, k_c=k_c,
                       critical_times=[(2 * n - 1) * half for n in (1, 2, 3)])


def fisher_tau(params: ModelParams, band: str, k: float) -> float:
    """Real part tau_band(k) of the Fisher-zero line, in time units.

    Raises ValueError for a non-finite k, and UndefinedTau at the two
    divergent limits: h_xy = 0 (tau -> -inf) and E = h_z (tau -> +inf),
    read off the markers of fisher_tau_grid, which grid sweeps keep (see
    fisher_lines).
    """
    finite_point(k)
    tau = float(fisher_tau_grid(params, band, k))
    if tau == -math.inf or math.isnan(tau):  # NaN: both limits at once
        raise UndefinedTau("h_xy = 0: tau -> -inf")
    if tau == math.inf:
        raise UndefinedTau("E = h_z: tau -> +inf")
    return tau


def fisher_tau_grid(params: ModelParams, band: str, k_grid) -> np.ndarray:
    """tau over k (any shape); log 0 = -inf gives its +-inf, NaN markers."""
    k, unit = np.asarray(k_grid, dtype=float), params.normal_form[0]
    h_xy, h_z = (x * unit for x in normal_field(params, k)[:2])
    e = band_energy(params, band, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.log(np.abs(h_xy)) - np.log(np.abs(e - h_z))
    return np.asarray((2.0 / params.omega_drive) * tau)


def fisher_lines(params: ModelParams, band: str, k_grid,
                 n_lines: int = 3) -> list:
    """Fisher-zero lines n = 1 .. n_lines sampled over the k grid.

    tau is k-dependent but shared by every line, as one array; the lines
    differ only in their (constant) imaginary part, i.e. they are parallel
    to the real axis. The k grid is the caller's, and no line holds it.
    """
    tau = fisher_tau_grid(params, band, k_grid)
    return [FisherLine(n=n, tau_of_k=tau,
                       t_imag=(2 * n - 1) * 0.5 * params.period)
            for n in range(1, n_lines + 1)]


def rate_function(params: ModelParams, band: str, t: float,
                  k_grid_size: int = DEFAULT_K_GRID) -> float:
    """Rate function g_band(t) = -(1/pi) int_0^pi dk ln |G(k, t)|^2.

    Trapezoidal rule on a uniform k grid including both endpoints (which
    contribute ln 1 = 0 exactly); |G|^2 is clamped below at PROB_FLOOR. The
    1/pi measure makes g intensive and grid-size comparable. The kernel of
    rate_function_grid at the one t: ValueError for a non-finite t, and
    TimeUnresolved where doubles cannot resolve w t.
    """
    _check_rate_grid(k_grid_size)
    finite_point(t=t)
    require_resolved_time(params, t)
    return float(_trapezoid_rate(
        params, _uniform_band_weights(params, band, k_grid_size), t))


def rate_function_grid(params: ModelParams, band: str, ts,
                       k_grid_size: int = DEFAULT_K_GRID) -> np.ndarray:
    """rate_function at every t of a 1-D array, bit for bit; NaN at a NaN t.

    The k grid, band weights and half spacing are computed once per
    (params, band, k_grid_size), and the times are evaluated against them
    in chunks of rows of at most model.GRID_CHUNK k samples, so each t costs
    only |G|^2 from `micromotion_overlap` and the sum, and memory does not
    grow with the number of times.
    """
    _check_rate_grid(k_grid_size)
    ts = np.asarray(ts, dtype=float)
    require_resolved_time(params, ts)
    row = _uniform_band_weights(params, band, k_grid_size)
    g = np.empty(ts.shape)
    for rows in _t_chunks(ts.size, k_grid_size):
        g[rows] = _trapezoid_rate(params, row, ts[rows, None])
    return g


def _check_rate_grid(k_grid_size):
    if k_grid_size < 2:
        raise ValueError("k_grid_size must be >= 2")


def _trapezoid_rate(params, row, t):
    # numpy's trapezoid over the last axis of |G|^2 at t (a scalar, or a
    # column of times), written out on the row's half_dk = (k[j+1] - k[j])/2:
    # halving is exact, so (dk/2)(y0+y1) has the bits of dk(y0+y1)/2
    prob = np.abs(micromotion_overlap(params, row.wa, row.wb, t))
    prob *= prob
    logp = np.log(np.maximum(prob, PROB_FLOOR, out=prob), out=prob)
    area = logp[..., 1:] + logp[..., :-1]
    area *= row.half_dk
    return -area.sum(axis=-1) / math.pi
