"""Pancharatnam phases and the dynamical topological invariant.

The non-adiabatic, non-cyclic geometric phase is the total phase, the
argument of the return amplitude, less the dynamical phase -<chi| H_R |chi> t:
the definition, which tests/oracles.eigenvector_phases computes from H_F's
eigenvectors. H_R = H_F + (w/2)(sz - I) is static in the rotating frame, so
the quasienergy cancels: `geometric_phase_grid` forms arg<chi|U_R|chi> +
(w/2)<sz> t - w t/2, with <sz> = |a|^2 - |b|^2 from the band weights. Its
winding along k in [0, pi] is the integer invariant nu(t), which jumps by one
at every critical time.
`exact_winding` gives nu in closed form; `winding_number`, the wrapped sum
over a k grid (`wrapped_winding`), is its numerical oracle, and
`raw_winding_grid` the trace of that oracle over t that `fdqpt winding`
prints. The experiment reads that sum over `tomography_phase_grid`, the
lower band's phase rebuilt from a measured Bloch vector; on the exact one,
`bloch_vector_grid`'s, it is the geometric phase again.

Every value computed from w t refuses, with TimeUnresolved, a t that doubles
cannot resolve, from |t| = ModelParams.time_limit on. The one exception is
exact_winding on a drive without critical times, where nu is exactly 0.
All reported phases live on the principal branch (-pi, pi].
"""

from __future__ import annotations

import math

from ._lazy import np
from .errors import (GridTooCoarse, NearCriticalTime, PhaseUndefined,
                     WindingNotQuantized)
from .model import (T_GUARD_FRACTION, ModelParams, _band_sign, _t_chunks,
                    _uniform_band_weights, band_weights, finite_point,
                    gap_guard, normal_field, require_resolved_time,
                    zone_gap_guard)
from .dynamics import micromotion_overlap
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


def geometric_phase(params: ModelParams, band: str, k: float,
                    t: float) -> float:
    """The geometric phase at one (k, t), reduced to (-pi, pi]: the grid
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
    identical (mod 2 pi) to total - dynamical
    (tests/oracles.eigenvector_phases).
    """
    require_resolved_time(params, t)
    wa, wb = band_weights(params, band, np.asarray(k_grid, dtype=float))
    return _phase(params, wa, wb, wa - wb, t)


def _phase(params, wa, wb, sz, t):
    # the geometric phase from wa, wb and sz = wa - wb; NaN where |G| <
    # AMP_FLOOR. It is built and wrapped in one buffer, an array even at one
    # point: |G| first, which arctan2 overwrites once the mask is read, and
    # the overlap goes before the drift (w t/2)<sz> is added
    overlap = micromotion_overlap(params, wa, wb, t)
    phase = np.abs(overlap, out=np.empty(overlap.shape))
    undefined = phase < AMP_FLOOR
    np.arctan2(overlap.imag, overlap.real, out=phase)
    del overlap
    phase += 0.5 * params.omega_drive * t * sz
    phase -= 0.5 * params.omega_drive * t
    _principal_branch(phase, out=phase)
    phase[undefined] = np.nan
    return phase


def exact_winding_grid(params: ModelParams, band: str, t) -> np.ndarray:
    """Closed-form nu_band(t), broadcast over t.

    The overlap |a|^2 + e^{iwt}|b|^2 runs along the chord from 1 to e^{iwt},
    and at k = 0 and pi (h_xy = 0) |a|^2 is 0 or 1. So along k the lift of
    the geometric phase changes by m (wt - principal(wt)) = 2 pi m round(t/T),
    with m = |a|^2(pi) - |a|^2(0). The lower band's |a|^2 is 1 where
    h_z - w/2 = (+-delta1 + delta2 - w)/2 < 0, so m is nonzero iff those
    two signs differ, |w - delta2| < |delta1|: the DQPT condition, which m
    reads from its one statement, dqpt.dqpt_condition, as topology's
    W1 = sign(delta1 Omega) does. Where it holds, m = sign(delta1) for the
    lower band and -sign(delta1) for the upper one; else m = +0.0, and nu
    is the signed zero m t at every finite t, however small the period, and
    NaN at a non-finite t, as at a NaN t. Raises GaplessPoint when the gap
    closes anywhere in the zone (model.zone_gap_guard), then ValueError
    for a band other than "minus" or "plus", then, where m != 0 (the drive
    has critical times), TimeUnresolved at the largest |t| from
    params.time_limit on (model.require_resolved_time).
    """
    zone_gap_guard(params)
    sign = _band_sign(band)
    return _winding_line(params, sign, dqpt_condition(params).has_dqpt, t)


def _winding_line(params, sign, has_dqpt, t):
    # exact_winding_grid past its guards: nu = m round(t/T), the slope m
    # from the band's sign and the drive's DQPT condition
    m = -sign * math.copysign(1.0, params.delta1) if has_dqpt else 0.0
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
    has_dqpt = dqpt_condition(params).has_dqpt
    if has_dqpt:
        _time_guard(params, t)
    zone_gap_guard(params)
    return int(_winding_line(params, _band_sign(band), has_dqpt, t))


def winding_number(params: ModelParams, band: str, t: float,
                   k_grid_size: int = DEFAULT_K_GRID,
                   return_raw: bool = False):
    """Dynamical invariant nu_band(t): winding of the geometric phase.

    wrapped_winding's sum over a uniform k grid on [0, pi], rounded. Raises,
    in order: ValueError for a non-finite t, TimeUnresolved where doubles
    cannot resolve t, NearCriticalTime within T_GUARD_FRACTION T of a
    critical time +-(2n-1) T/2 of a drive that has them; then, from t's row,
    PhaseUndefined, GridTooCoarse only where (w t/2)<sz> moves by pi/2 or
    more between adjacent k samples (|w t/2| max_j |<sz>_{j+1} - <sz>_j| >=
    pi/2: the wrapped sum aliases), and WindingNotQuantized for a sum
    farther than WINDING_INT_TOL from an integer.
    """
    _check_winding_grid(k_grid_size)
    _time_guard(params, t)  # before the row: w t is noise at a refused t
    raw = _row_verdict(*_winding_rows(
        params, _uniform_band_weights(params, band, k_grid_size), t))
    nu = int(round(raw))
    return (nu, raw) if return_raw else nu


def raw_winding_grid(params: ModelParams, band: str, ts,
                     k_grid_size: int = DEFAULT_K_GRID):
    """(kept times, raw winding) over a 1-D array of times, the trace
    `fdqpt winding` prints: winding_number's loop over ts in array order,
    with a t in a guard window (NearCriticalTime) left out, a too-coarse
    grid (GridTooCoarse) read as NaN, and any other error raised at the
    first t that has one. The rows, bit for bit winding_number's, read the
    cached k row in chunks of at most model.GRID_CHUNK k samples, up to the
    first t that doubles cannot resolve.
    """
    _check_winding_grid(k_grid_size)
    ts = np.asarray(ts, dtype=float)
    unresolved = ~(np.abs(ts) < params.time_limit)
    n = unresolved.argmax() if unresolved.any() else ts.size
    ts, refused = ts[:n], ts[n:]
    k_row = _uniform_band_weights(params, band, k_grid_size)
    rows = (np.concatenate(f, axis=None).tolist() for f in zip(*(
        _winding_rows(params, k_row, ts[c, None])
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


def _row_verdict(jump, raw):
    # winding_number's checks on one row of _winding_rows, in their order:
    # the raw winding as a float, or the first error. Past the jump guard no
    # two successive wrapped steps both reach pi (1 - 1e-6): README's proof,
    # "Why the jump guard suffices", whose bounds tests/test_grid_kernels.py
    # ::test_guarded_rows_keep_successive_steps_off_pi checks
    raw = float(raw)
    if math.isnan(raw):
        raise PhaseUndefined("geometric phase undefined on the winding grid")
    if jump >= 0.5 * math.pi:
        raise GridTooCoarse(f"(w t/2)<sz> changes by {jump:.3g} rad between "
                            "adjacent k samples")
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


def _winding_rows(params, row, t):
    # (largest step of (w t/2)<sz> between adjacent k samples, raw) at t (a
    # scalar, or a column of times, which gives a column of steps) on the
    # cached k row: |w t/2| times its sz_step. raw is NaN where a phase on
    # the row is undefined
    return (abs(0.5 * params.omega_drive * t) * row.sz_step,
            wrapped_winding(_phase(params, row.wa, row.wb, row.sz, t)))


def wrapped_winding(phi):
    """The raw winding of phases sampled along k on the last axis: the sum
    of the principal-branch-wrapped steps over 2 pi, NaN where a phase is.
    The steps are wrapped in place, in phi's float type (float64 for
    integer phases)."""
    steps = (phi[..., 1:] - phi[..., :-1]).astype(np.result_type(phi, 0.0),
                                                  copy=False)
    _principal_branch(steps, out=steps)
    return steps.sum(axis=-1) / (2.0 * math.pi)


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
