"""Pancharatnam phases and the dynamical topological invariant.

The total phase is the argument of the return amplitude; subtracting the
dynamical phase -<chi| H_R |chi> t leaves the non-adiabatic, non-cyclic
geometric phase. H_R = H_F + (w/2)(sz - I) is static in the rotating frame, so
the dynamical phase is -(E - (w/2)(1 - <sz>)) t in closed form, with
<sz> = |a|^2 - |b|^2 from the band weights. Its winding along k in [0, pi] is
the integer invariant nu(t), which jumps by one at every critical time.
`exact_winding` gives nu in closed form; `winding_number`, the wrapped sum
over a k grid (`wrapped_winding`), is its numerical oracle, and
`raw_winding_grid` the trace of that oracle over t that `fdqpt winding`
prints. The experiment reads that sum over `tomography_phase_grid`, the
phase rebuilt from a measured Bloch vector (`bloch_vector_grid` gives the
exact one).

Every value computed from w t refuses, with TimeUnresolved, a t that doubles
cannot resolve, from |t| = ModelParams.time_limit on. The one exception is
exact_winding on a drive without critical times, where nu is exactly 0.
All reported phases live on the principal branch (-pi, pi].
"""

from __future__ import annotations

import cmath
import math

from ._lazy import np
from .errors import (GridTooCoarse, NearCriticalTime, PhaseUndefined,
                     WindingNotQuantized)
from .model import (T_GUARD_FRACTION, ModelParams, _band_sign, _t_chunks,
                    _uniform_band_weights, band_weights, finite_point,
                    gap_guard, normal_field, require_resolved_time,
                    zone_gap_guard)
from .dynamics import micromotion_overlap, return_amplitude
from .dqpt import DEFAULT_K_GRID, dqpt_condition

# Phase of a complex number smaller than this is numerically meaningless.
AMP_FLOOR = 1e-9

MIN_WINDING_GRID = 401
WINDING_INT_TOL = 0.05


def principal_branch(x):
    """Reduce an angle (or array of angles) to (-pi, pi] in real arithmetic,
    bit for bit arg(e^{ix}): numpy's exp(0 + ix) is exactly cos x + i sin x,
    and + 0.0 turns -0.0 into +0.0 as that complex round trip does."""
    return _principal_branch(x)


def _principal_branch(x, out=None):
    # principal_branch(x) written into out, which may be x itself: sin x is
    # taken before cos x overwrites it
    out = np.arctan2(np.sin(x), np.cos(x, out=out), out=out)
    out += 0.0
    return out


def total_phase(params: ModelParams, band: str, k: float, t: float) -> float:
    """Argument of the return amplitude, principal branch."""
    z = return_amplitude(params, band, k, t).value
    if abs(z) < AMP_FLOOR:
        raise PhaseUndefined(f"|G| = {abs(z):.3e} < {AMP_FLOOR}")
    return cmath.phase(z)


def dynamical_phase(params: ModelParams, band: str, k: float,
                    t: float) -> float:
    """-<chi| H_R |chi> t = -(E - (w/2)(1 - <sz>)) t; exact, linear in t.

    In band +-, E = w/2 +- Delta/2 and <sz> = +-(h_z - w/2)/(Delta/2), all
    read on the normal form and times 2^e t."""
    _, _, dz, half_gap = gap_guard(params, k, t)
    unit, w = params.normal_form[:2]
    return float(-_band_sign(band) * (half_gap + 0.5 * w * (dz / half_gap))
                 * (unit * t))


def geometric_phase(params: ModelParams, band: str, k: float,
                    t: float) -> float:
    """total - dynamical at one (k, t), reduced to (-pi, pi]: the grid
    kernel at the point, with PhaseUndefined where it reads NaN."""
    gap_guard(params, k, t)
    phi = float(geometric_phase_grid(params, band, k, t))
    if math.isnan(phi):
        raise PhaseUndefined(f"|G| < {AMP_FLOOR} at k = {k}, t = {t}")
    return phi


def geometric_phase_grid(params: ModelParams, band: str, k_grid,
                         t) -> np.ndarray:
    """Geometric phase broadcast over k and t; NaN where undefined.

    Uses the quasienergy-free form arg<chi|U_R|chi> + (w/2)<sz> t - w t/2,
    identical (mod 2 pi) to total - dynamical.
    """
    require_resolved_time(params, t)
    wa, wb = band_weights(params, band, np.asarray(k_grid, dtype=float))
    return _phase_and_drift(params, wa, wb, t)[0]


def _phase_and_drift(params, wa, wb, t):
    # the geometric phase and its t-linear part (w t/2)<sz> from the band
    # weights; NaN where |G| < AMP_FLOOR. The phase is built and wrapped in
    # one buffer, an array even at one point: |G| first, which arctan2
    # overwrites once the mask is read, and the overlap goes before the
    # drift is formed
    overlap = micromotion_overlap(params, wa, wb, t)
    phase = np.abs(overlap, out=np.empty(overlap.shape))
    undefined = phase < AMP_FLOOR
    np.arctan2(overlap.imag, overlap.real, out=phase)
    del overlap
    drift = 0.5 * params.omega_drive * t * (wa - wb)
    phase += drift
    phase -= 0.5 * params.omega_drive * t
    _principal_branch(phase, out=phase)
    phase[undefined] = np.nan
    return phase, drift


def exact_winding_grid(params: ModelParams, band: str, t) -> np.ndarray:
    """Closed-form nu_band(t), broadcast over t.

    The overlap |a|^2 + e^{iwt}|b|^2 runs along the chord from 1 to e^{iwt},
    and at k = 0 and pi (h_xy = 0) |a|^2 is 0 or 1. So along k the lift of
    the geometric phase changes by m (wt - principal(wt)) = 2 pi m round(t/T),
    with m = |a|^2(pi) - |a|^2(0), nonzero iff |w - delta2| < |delta1|;
    where m = 0, nu is the signed zero m t at every finite t, however small
    the period, and NaN at a non-finite t, as at a NaN t. Raises
    GaplessPoint when the gap closes anywhere in the zone
    (model.zone_gap_guard), then, where m != 0 (the drive has critical
    times), TimeUnresolved at the largest |t| from params.time_limit on
    (model.require_resolved_time).
    """
    zone_gap_guard(params)
    wa, _ = band_weights(params, band, np.array([0.0, math.pi]))
    m = np.rint(wa[1] - wa[0])
    t = np.asarray(t, dtype=float)
    if not m:  # no t/T, which overflows on a tiny period, and no 0 inf
        return m * np.where(np.isfinite(t), t, np.nan)
    require_resolved_time(params, t)
    return m * np.rint(t / params.period)


def exact_winding(params: ModelParams, band: str, t: float) -> int:
    """Dynamical invariant nu_band(t) in closed form (exact_winding_grid).

    Raises ValueError for a non-finite t, DegenerateDelta1, winding_number's
    time rule (TimeUnresolved from |t| = params.time_limit on, then
    NearCriticalTime) if the drive has critical times (without them nu is
    exactly 0 at every t, so no t is refused), and GaplessPoint."""
    finite_point(t=t)
    if dqpt_condition(params).has_dqpt:
        _time_guard(params, t)
    return int(exact_winding_grid(params, band, t))


def winding_number(params: ModelParams, band: str, t: float,
                   k_grid_size: int = DEFAULT_K_GRID,
                   return_raw: bool = False):
    """Dynamical invariant nu_band(t): winding of the geometric phase.

    wrapped_winding's sum over a uniform k grid on [0, pi], rounded. Raises,
    in order: ValueError for a non-finite t, TimeUnresolved where doubles
    cannot resolve t, NearCriticalTime within T_GUARD_FRACTION T of a
    critical time +-(2n-1) T/2 of a drive that has them; then, from t's row,
    PhaseUndefined, GridTooCoarse where (w t/2)<sz> moves by pi/2 or more
    between adjacent k samples (the wrapped sum aliases) or two successive
    wrapped steps fall in the ambiguity band, and WindingNotQuantized for a
    sum farther than WINDING_INT_TOL from an integer.
    """
    _check_winding_grid(k_grid_size)
    _time_guard(params, t)  # before the row: w t is noise at a refused t
    raw = _row_verdict(*_winding_rows(
        params, *_uniform_band_weights(params, band, k_grid_size)[1:], t))
    nu = int(round(raw))
    return (nu, raw) if return_raw else nu


def raw_winding_grid(params: ModelParams, band: str, ts,
                     k_grid_size: int = DEFAULT_K_GRID):
    """(kept times, raw winding) over a 1-D array of times, the trace
    `fdqpt winding` prints: winding_number's loop over ts in array order,
    with a t in a guard window (NearCriticalTime) left out, a too-coarse
    grid (GridTooCoarse) read as NaN, and any other error raised at the
    first t that has one. The rows, bit for bit winding_number's, read the
    cached k grid and weights in chunks of at most model.GRID_CHUNK k
    samples, up to the first t that doubles cannot resolve.
    """
    _check_winding_grid(k_grid_size)
    ts = np.asarray(ts, dtype=float)
    unresolved = ~(np.abs(ts) < params.time_limit)
    n = unresolved.argmax() if unresolved.any() else ts.size
    ts, refused = ts[:n], ts[n:]
    _, wa, wb = _uniform_band_weights(params, band, k_grid_size)
    rows = (np.concatenate(f).tolist() for f in zip(*(
        _winding_rows(params, wa, wb, ts[c, None])
        for c in _t_chunks(n, k_grid_size))))
    kept, raws = [], []
    for t, *row in zip(ts.tolist(), *rows):
        try:
            _time_guard(params, t)
            raws.append(_row_verdict(*row))
        except NearCriticalTime:
            continue
        except GridTooCoarse:
            raws.append(math.nan)
        kept.append(t)
    if refused.size:
        _time_guard(params, refused[0].item())  # raises: t is not resolved
    return np.array(kept), np.array(raws)


def _row_verdict(jump, ambiguous, raw):
    # winding_number's checks on one row of _winding_rows, in their order:
    # the raw winding as a float, or the first error
    raw = float(raw)
    if math.isnan(raw):
        raise PhaseUndefined("geometric phase undefined on the winding grid")
    if jump >= 0.5 * math.pi:
        raise GridTooCoarse(f"(w t/2)<sz> changes by {jump:.3g} rad between "
                            "adjacent k samples")
    if ambiguous:
        raise GridTooCoarse("two successive wrapped steps in the ambiguity band")
    if abs(raw - round(raw)) > WINDING_INT_TOL:
        raise WindingNotQuantized(f"raw winding {raw} not within "
                                  f"{WINDING_INT_TOL} of an integer")
    return raw


def _time_guard(params, t):
    # winding_number's time rule at a float t; near its nearest (2n-1) T/2,
    # t is refused if the drive has critical times
    finite_point(t=t)
    require_resolved_time(params, t)
    half, window = 0.5 * params.period, T_GUARD_FRACTION * params.period
    a = abs(float(t))
    n = max(1, round((a / half + 1) / 2))
    if abs(a - (2 * n - 1) * half) < window and \
            dqpt_condition(params).has_dqpt:
        raise NearCriticalTime(f"t = {t} within {window} of a critical time")


def _check_winding_grid(k_grid_size):
    if k_grid_size < MIN_WINDING_GRID:
        raise ValueError(f"k_grid_size must be >= {MIN_WINDING_GRID}")


def _winding_rows(params, wa, wb, t):
    # (largest step of (w t/2)<sz> between adjacent k samples, ambiguous,
    # raw) at t (a scalar, or a column of times); raw is NaN where a phase
    # on the row is undefined. One buffer holds the drift's steps, then the
    # phase's, wrapped in place; the drift and the phase go after their
    # last readers
    phi, drift = _phase_and_drift(params, wa, wb, t)
    steps = drift[..., 1:] - drift[..., :-1]
    del drift
    jump = np.abs(steps, out=steps).max(axis=-1)
    np.subtract(phi[..., 1:], phi[..., :-1], out=steps)
    del phi
    return (jump, *_wrapped_facts(_principal_branch(steps, out=steps)))


def wrapped_winding(phi):
    """(ambiguous, raw) of phases sampled along k on the last axis: whether
    two successive wrapped steps fall in the ambiguity band, and the sum of
    the principal-branch-wrapped steps over 2 pi, NaN where a phase is."""
    return _wrapped_facts(principal_branch(phi[..., 1:] - phi[..., :-1]))


def _wrapped_facts(steps):
    # wrapped_winding's (ambiguous, raw) from the wrapped steps
    big = np.abs(steps) > math.pi * (1.0 - 1e-6)
    return ((big[..., :-1] & big[..., 1:]).any(axis=-1),
            steps.sum(axis=-1) / (2.0 * math.pi))


def bloch_expectations(params: ModelParams, band: str, k: float, t: float):
    """(<sx>, <sy>, <sz>) at (k, t): bloch_vector_grid at the point, past
    gap_guard's checks."""
    gap_guard(params, k, t)
    return tuple(bloch_vector_grid(params, band, k, t).tolist())


def bloch_vector_grid(params: ModelParams, band: str, k, t) -> np.ndarray:
    """(<sx>, <sy>, <sz>) of the evolved Floquet state over k and t, stacked
    on a first axis of three: the band's Bloch vector +-(h_xy, 0, h_z -
    w/2)/(Delta/2) turned about z by w t. NaN where the gap closes."""
    require_resolved_time(params, t)
    sign = _band_sign(band)
    xy, _, dz, half_gap = normal_field(params, k)
    wt = params.omega_drive * np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = sign / half_gap
        return np.stack(np.broadcast_arrays(r * xy * np.cos(wt),
                                            r * xy * np.sin(wt), r * dz))


def geometric_phase_from_tomography(params: ModelParams, k: float,
                                    t: float) -> float:
    """tomography_phase_grid at one (k, t), fed the analytic Bloch vector;
    PhaseUndefined where it reads NaN. Lower band only: no band argument."""
    gap_guard(params, k, t)
    phi = float(tomography_phase_grid(
        params, k, t, bloch_vector_grid(params, "minus", k, t)))
    if math.isnan(phi):
        raise PhaseUndefined(f"|G| < {AMP_FLOOR} at k = {k}, t = {t}")
    return phi


def tomography_phase_grid(params: ModelParams, k, t, bloch) -> np.ndarray:
    """Lower-band geometric phase rebuilt, as the experiment does, from the
    measured Bloch vector bloch = (<sx>, <sy>, <sz>) of one shape, broadcast
    with k and t: the angles theta of the initial state (cos theta =
    (h_z - w/2)/(Delta/2)) and vartheta, phi of the measured one give the
    overlap of the initial mode (sin(theta/2), -s cos(theta/2)), s = sign
    h_xy (+1 at h_xy = 0), with the evolved one; (w/2)(<sz> - 1) t adds the
    dynamical part. NaN where that overlap is below AMP_FLOOR or bloch = 0."""
    require_resolved_time(params, t)
    h_xy, _, dz, half_gap = normal_field(params, k)
    sx, sy, sz = bloch = np.asarray(bloch, dtype=float)
    w, t = params.omega_drive, np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        theta = np.arccos(dz / half_gap)
        # its length, scaled by an exact power of two so no square overflows
        x, y, z = np.ldexp(bloch, -np.frexp(np.abs(bloch).max(axis=0))[1])
        cos_vt = np.clip(z / np.sqrt(x * x + y * y + z * z), -1.0, 1.0)
        # where h_xy = 0 the vector sits on a pole with no azimuth of its
        # own; take its limit along the drive's turn, w t + pi for s = +1
        phi = np.where(h_xy != 0, np.arctan2(sy, sx), w * t + math.pi)
        overlap = (np.sin(0.5 * theta) * np.sqrt(0.5 * (1.0 + cos_vt))
                   - np.where(h_xy >= 0, 1.0, -1.0) * np.exp(1j * phi)
                   * np.cos(0.5 * theta) * np.sqrt(0.5 * (1.0 - cos_vt)))
        phase = principal_branch(np.angle(overlap) + 0.5 * w * sz * t
                                 - 0.5 * w * t)
    return np.where(np.abs(overlap) < AMP_FLOOR, np.nan, phase)
