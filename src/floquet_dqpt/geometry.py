"""Pancharatnam phases and the dynamical topological invariant.

The total phase is the argument of the return amplitude; subtracting the
dynamical phase -<chi| H_R |chi> t leaves the non-adiabatic, non-cyclic
geometric phase. H_R = H_F + (w/2)(sz - I) is static in the rotating frame, so
the dynamical phase is -(E - (w/2)(1 - <sz>)) t in closed form, with
<sz> = |a|^2 - |b|^2 from the band weights. Its winding along k in [0, pi] is
the integer invariant nu(t), which jumps by one at every critical time.
`exact_winding` gives nu in closed form; `winding_number`, the wrapped sum
over a k grid, is its numerical oracle.

All reported phases live on the principal branch (-pi, pi].
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (BandUnsupported, GaplessPoint, GridTooCoarse,
                     NearCriticalTime, PhaseUndefined, TimeUnresolved,
                     WindingNotQuantized)
from .model import (ModelParams, _uniform_band_weights, band_energy,
                    band_weights, floquet_solution, gap_guard, micromotion,
                    min_half_gap)
from .dynamics import micromotion_overlap, return_amplitude
from .dqpt import dqpt_condition

# Phase of a complex number smaller than this is numerically meaningless.
AMP_FLOOR = 1e-9

# Exclusion window around critical times, as a fraction of the period.
T_GUARD_FRACTION = 1e-3

MIN_WINDING_GRID = 401
WINDING_INT_TOL = 0.05


def principal_branch(x):
    """Reduce an angle (or array of angles) to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x)))


def total_phase(params: ModelParams, band: str, k: float, t: float) -> float:
    """Argument of the return amplitude, principal branch."""
    g = return_amplitude(params, band, k, t).value
    if abs(g) < AMP_FLOOR:
        raise PhaseUndefined(f"|G| = {abs(g):.3e} < {AMP_FLOOR}")
    return cmath.phase(g)


def dynamical_phase(params: ModelParams, band: str, k: float,
                    t: float) -> float:
    """-<chi| H_R |chi> t = -(E - (w/2)(1 - <sz>)) t; exact, linear in t."""
    gap_guard(params, k)
    wa, wb = band_weights(params, band, k)
    e = band_energy(params, band, k)
    return float(-(e - 0.5 * params.omega_drive * (1.0 - (wa - wb))) * t)


def geometric_phase(params: ModelParams, band: str, k: float,
                    t: float) -> float:
    """total - dynamical at one (k, t), reduced to (-pi, pi]."""
    gap_guard(params, k)
    g = abs(complex(micromotion_overlap(params, band, k, t)))
    if g < AMP_FLOOR:
        raise PhaseUndefined(f"|G| = {g:.3e} < {AMP_FLOOR}")
    return float(geometric_phase_grid(params, band, k, t))


def geometric_phase_grid(params: ModelParams, band: str, k_grid,
                         t) -> np.ndarray:
    """Geometric phase broadcast over k and t; NaN where undefined.

    Uses the quasienergy-free form arg<chi|U_R|chi> + (w/2)<sz> t - w t/2,
    identical (mod 2 pi) to total - dynamical.
    """
    wa, wb = band_weights(params, band, np.asarray(k_grid, dtype=float))
    return _phase_and_drift(params, wa, wb, t)[0]


def _phase_and_drift(params, wa, wb, t):
    # the geometric phase and its t-linear part (w t/2)<sz> from the band
    # weights
    overlap = wa + np.exp(1j * params.omega_drive * t) * wb
    drift = 0.5 * params.omega_drive * t * (wa - wb)
    raw = np.angle(overlap) + drift - 0.5 * params.omega_drive * t
    out = np.asarray(principal_branch(raw), dtype=float)
    out[np.abs(overlap) < AMP_FLOOR] = np.nan
    return out, drift


def _critical_time_guard(params: ModelParams, t: float):
    # NearCriticalTime within the guard window of a critical time, and
    # TimeUnresolved where doubles near t are spaced that window or wider,
    # if the drive has any critical time
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    guard = T_GUARD_FRACTION * params.period
    if math.ulp(t) >= guard:
        if dqpt_condition(params).has_dqpt:
            raise TimeUnresolved(f"t = {t} is resolved only to {math.ulp(t)}"
                                 f", not to the {guard} critical-time window")
        return
    half = 0.5 * params.period
    # nearest critical time (2n-1) T/2; the others are at least T/2 away
    n = max(1, round((t / half + 1) / 2)) if t > 0 else 1
    near = abs(t - (2 * n - 1) * half) < guard
    if near and dqpt_condition(params).has_dqpt:
        raise NearCriticalTime(f"t = {t} within {guard} of a critical time")


def exact_winding_grid(params: ModelParams, band: str, t) -> np.ndarray:
    """Closed-form nu_band(t), broadcast over t.

    The overlap |a|^2 + e^{iwt}|b|^2 runs along the chord from 1 to e^{iwt},
    and at k = 0 and pi (h_xy = 0) |a|^2 is 0 or 1. So along k the lift of
    the geometric phase changes by m (wt - principal(wt)) = 2 pi m round(t/T),
    with m = |a|^2(pi) - |a|^2(0), nonzero iff |w - delta2| < |delta1|.
    Raises GaplessPoint when the gap closes anywhere in the zone, where the
    band labels swap.
    """
    gap = 2.0 * min_half_gap(params)
    if gap <= params.gap_floor:
        raise GaplessPoint(f"gap closes to {gap:.3e} in the zone, below "
                           f"floor {params.gap_floor:.3e}")
    wa, _ = band_weights(params, band, np.array([0.0, math.pi]))
    m = np.rint(wa[1] - wa[0])
    return m * np.rint(np.asarray(t, dtype=float) / params.period)


def exact_winding(params: ModelParams, band: str, t: float) -> int:
    """Dynamical invariant nu_band(t) in closed form (exact_winding_grid).

    Raises ValueError for a non-finite t; DegenerateDelta1,
    NearCriticalTime and TimeUnresolved like winding_number; and
    GaplessPoint.
    """
    _critical_time_guard(params, t)
    dqpt_condition(params)  # DegenerateDelta1 at any t
    return int(exact_winding_grid(params, band, t))


def winding_number(params: ModelParams, band: str, t: float,
                   k_grid_size: int = 2001,
                   return_raw: bool = False):
    """Dynamical invariant nu_band(t): winding of the geometric phase.

    Sums principal-branch-wrapped differences of the geometric phase over
    adjacent points of a uniform k grid on [0, pi] and divides by 2 pi.
    The result is rounded to the nearest integer; a raw value farther than
    0.05 from that integer raises WindingNotQuantized instead of rounding
    silently. The k grid and band weights are computed once per (params,
    band, k_grid_size), so each t costs only the phases and their sum.

    Raises ValueError for a non-finite t, and NearCriticalTime within
    T_GUARD_FRACTION of a period of a critical time, or TimeUnresolved where
    t is too large for doubles to resolve that window, if the drive has
    critical times.
    """
    if k_grid_size < MIN_WINDING_GRID:
        raise ValueError(f"k_grid_size must be >= {MIN_WINDING_GRID}")
    _critical_time_guard(params, t)

    _, wa, wb = _uniform_band_weights(params, band, k_grid_size)
    phi, drift = _phase_and_drift(params, wa, wb, t)
    if np.isnan(phi).any():
        raise PhaseUndefined("geometric phase undefined on the winding grid")
    # the t-linear part (w t/2)<sz> must change slowly in k, or the wrapped
    # differences alias while their sum still lands on an integer
    jump = np.abs(np.diff(drift)).max()
    if jump >= 0.5 * math.pi:
        raise GridTooCoarse(f"(w t/2)<sz> changes by {jump:.3g} rad between "
                            "adjacent k samples")
    steps = np.asarray(principal_branch(np.diff(phi)))
    big = np.abs(steps) > math.pi * (1.0 - 1e-6)
    if np.any(big[:-1] & big[1:]):
        raise GridTooCoarse("two successive wrapped steps in the ambiguity band")
    raw = float(steps.sum() / (2.0 * math.pi))
    nu = int(round(raw))
    if abs(raw - nu) > WINDING_INT_TOL:
        raise WindingNotQuantized(f"raw winding {raw} not within "
                                  f"{WINDING_INT_TOL} of an integer")
    return (nu, raw) if return_raw else nu


def bloch_expectations(params: ModelParams, band: str, k: float, t: float):
    """(<sx>, <sy>, <sz>) of the evolved Floquet state at (k, t)."""
    fs = floquet_solution(params, k)
    chi = fs.chi_minus if band == "minus" else fs.chi_plus
    psi = micromotion(params, t) @ chi
    a, b = psi[0], psi[1]
    cross = 2.0 * a.conjugate() * b
    return (float(cross.real), float(cross.imag),
            float((abs(a) ** 2 - abs(b) ** 2)))


def geometric_phase_from_tomography(params: ModelParams, k: float, t: float,
                                    band: str = "minus") -> float:
    """Geometric phase reconstructed from Pauli expectation values.

    Mirrors the measurement pipeline: from (<sx>, <sy>, <sz>) of the evolved
    state build the Bloch angles (theta for the initial state from the model
    parameters, vartheta and phi for the evolved state, with the phi quadrant
    fixed by the sign of <sy>), form the overlap of initial and evolved
    modes, and subtract the analytically integrated dynamical contribution
    (<sz> is constant in the rotating frame). The initial lower-band mode is
    (sin(theta/2), -s cos(theta/2)) with s the sign of h_xy(k), the same
    convention as `floquet_solution`, so the overlap's second term carries s.

    Only the lower band is supported.
    """
    if band != "minus":
        raise BandUnsupported("tomography reconstruction defined for band "
                              "'minus' only")
    g = abs(complex(micromotion_overlap(params, band, k, t)))
    if g < AMP_FLOOR:
        raise PhaseUndefined(f"|G| = {g:.3e} < {AMP_FLOOR}")

    sx, sy, sz = bloch_expectations(params, band, k, t)
    w, d1, d2, amp = (params.omega_drive, params.delta1, params.delta2,
                      params.omega_amp)

    zcomp = d1 * math.cos(k) + d2 - w
    xcomp = amp * math.sin(k)
    theta = math.acos(zcomp / math.hypot(zcomp, xcomp))
    s = 1.0 if xcomp >= 0 else -1.0

    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    cos_vt = max(-1.0, min(1.0, sz / norm))
    rho = math.hypot(sx, sy)
    if rho > 0:
        phi = math.copysign(math.acos(max(-1.0, min(1.0, sx / rho))), 1.0)
        if sy < 0:
            phi = -phi
    else:
        phi = 0.0

    overlap = (math.sin(0.5 * theta) * math.sqrt(0.5 * (1.0 + cos_vt))
               - s * cmath.exp(1j * phi) * math.cos(0.5 * theta)
               * math.sqrt(0.5 * (1.0 - cos_vt)))
    return principal_branch(cmath.phase(overlap) + 0.5 * w * sz * t
                            - 0.5 * w * t)
