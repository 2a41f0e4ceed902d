"""Driven two-level model: Bloch Hamiltonian, rotating frame, exact Floquet data.

The system is a harmonically driven spin chain reduced, per quasimomentum k,
to a qubit in a rotating field,

    H(k, t) = h_xy(k) [cos(w t) sx + sin(w t) sy] + h_z(k) sz,

with h_xy = Omega sin(k)/2 and h_z = (delta1 cos(k) + delta2)/2. In the frame
rotating with U_R(t) = diag(1, e^{i w t}) the problem becomes static,

    H_F(k) = h_xy sx + (h_z - w/2) sz + (w/2) I,

a constant plus the static field (h_xy, 0, h_z - w/2) of length Delta(k)/2.
The quasienergies are E_pm(k) = w/2 +- Delta(k)/2, kept UNFOLDED, as every
phase formula downstream needs; a scalar API is the point guard `gap_guard`,
then the public kernel at the point.

The normal form: H(k, t; s p) = s H(k, s t; p), so a dimensionless quantity
reads the drive only as p 2^-e, e the exponent of its largest parameter
(`ModelParams.normal_form`), exactly so for s = 2^j. The field is formed
once, there, by `normal_field` in units of 2^e; the guard and every kernel
read it. Physical units appear only in the values a caller receives
(`bloch_components`, `band_energy`, `min_half_gap`, the Fisher tau and the
chain spectrum) and in the RK4 oracle's H(k, t).
"""

from __future__ import annotations

import functools
import math

from ._lazy import np
from ._record import record
from .errors import GaplessPoint, TimeUnresolved

# Relative gap floor below which band labels are numerically meaningless.
GAP_FLOOR_REL = 1e-9

# Exclusion window around critical times, as a fraction of the period.
T_GUARD_FRACTION = 1e-3

# k samples a t-grid kernel evaluates at once: 16 rows of the 2001-k rate
# grid, 81 of the 401-k winding grid. A chunk costs about 15 numpy calls
# whatever its size, and the median `datasets` benchmark op is 10% faster
# at this size than at 8191 (BENCH_45.json); the traced peak, a chunk's
# complex overlap and a few float rows, stays below the 1 MB that
# tests/test_grid_kernels.py holds it to (at 999 t x 2001 k: rate 0.84 MB,
# winding 0.95 MB).
GRID_CHUNK = 32767

# Resource limits, checked before any work: `cli.RunConfig` checks all four
# (values a command holds, k x t points or Fisher lines x k points; Fisher
# lines; chain sites; RK4 steps per period), `lattice.obc_floquet_spectrum`
# its sites and `dynamics.propagator_oracle` its step floor. The library's
# own k grids (rate_function, winding_number, grid kernels) are not capped yet.
MAX_GRID_POINTS = 2_000_000
MAX_N_LINES = 100
MAX_SITES = 1000
MIN_ORACLE_STEPS = 256
DEFAULT_ORACLE_STEPS = 4096
MAX_STEPS = 16 * DEFAULT_ORACLE_STEPS


@record
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

    @functools.cached_property
    def normal_form(self) -> tuple:
        """(2^e, w, delta1, delta2, Omega times 2^-e), e the exponent of scale
        clamped to +-1022: the largest scaled parameter is in [2^-52, 4)."""
        e = min(max(math.frexp(self.scale)[1], -1022), 1022)
        return (2.0 ** e, *(x * 2.0 ** -e for x in (
            self.omega_drive, self.delta1, self.delta2, self.omega_amp)))

    @functools.cached_property
    def time_limit(self) -> float:
        """Least |t| doubles cannot resolve, 2^(52 + ceil(log2 W)): the least
        power of two whose ulp reaches the window W = T_GUARD_FRACTION T, where
        t cannot be told from a critical time; inf past the largest double."""
        mantissa, exponent = math.frexp(T_GUARD_FRACTION * self.period)
        try:  # ceil(2 mantissa) is 1 where W is a power of two, else 2
            return math.ldexp(math.ceil(2.0 * mantissa), 51 + exponent)
        except OverflowError:  # that power, or the period, is infinite
            return math.inf


@record
class BlochComponents:
    """Field components of the Bloch Hamiltonian at fixed k."""

    h_xy: float
    h_z: float


def normal_field(params: ModelParams, k):
    """(h_xy, h_z, h_z - w/2, Delta/2) at k, broadcast over k: the field of
    H_F - (w/2) I and its length on the normal form, in units of 2^e."""
    _, w, d1, d2, amp = params.normal_form
    h_z = 0.5 * (d1 * np.cos(k) + d2)
    h_xy, dz = 0.5 * amp * np.sin(k), h_z - 0.5 * w
    return h_xy, h_z, dz, np.hypot(h_xy, dz)


def bloch_components(params: ModelParams, k):
    """(h_xy, h_z) at k, scalar or array: normal_field's times 2^e."""
    unit = params.normal_form[0]
    h_xy, h_z = normal_field(params, k)[:2]
    return BlochComponents(h_xy=h_xy * unit, h_z=h_z * unit)


def finite_point(k=0.0, t=0.0):
    """Raise ValueError unless k and t are finite: the scalar APIs' check."""
    for name, x in (("k", k), ("t", t)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


def require_resolved_time(params: ModelParams, t):
    """TimeUnresolved where |t| reaches params.time_limit: it names t, or
    the largest |t| of an array of times, NaN ignored (a NaN t passes)."""
    if not isinstance(t, (int, float)):
        t = float(np.fmax.reduce(np.abs(t), axis=None, initial=0.0))
    if abs(float(t)) >= params.time_limit:
        raise TimeUnresolved(f"t = {t} is resolved only to {math.ulp(t)}, "
                             f"not to the {T_GUARD_FRACTION * params.period} "
                             "critical-time window")


def _t_chunks(n_t: int, n_k: int):
    """Slices of n_t times whose rows of n_k samples hold at most
    GRID_CHUNK samples together (one row at least)."""
    rows = max(1, GRID_CHUNK // n_k)
    return [slice(lo, lo + rows) for lo in range(0, n_t, rows)]


def gap_guard(params: ModelParams, k: float, t: float = 0.0):
    """normal_field at one point, guarded: ValueError for a non-finite k or
    t, GaplessPoint when the gap Delta is at or below the relative floor
    (both read on the normal form), then TimeUnresolved where doubles cannot
    resolve w t."""
    finite_point(k, t)
    field = normal_field(params, k)
    unit = params.normal_form[0]
    if 2.0 * field[3] <= GAP_FLOOR_REL * (params.scale / unit):
        raise GaplessPoint(f"gap {2.0 * field[3] * unit:.3e} at k={k} below "
                           f"floor {params.gap_floor:.3e}")
    require_resolved_time(params, t)
    return field


def min_half_gap(params: ModelParams) -> float:
    """Exact minimum over the zone of Delta/2 = |(h_z - w/2, h_xy)|.

    With c = cos k and d = delta2 - w its square is the quadratic
    [(delta1^2 - Omega^2) c^2 + 2 delta1 d c + d^2 + Omega^2] / 4 on [-1, 1],
    least at an endpoint, |d +- delta1|/2, or at the vertex when convex
    (there is none when delta1^2 = Omega^2), on the drive's normal form, so
    that no square overflows or underflows.
    """
    unit, w, d1, d2, amp = params.normal_form
    d = d2 - w
    lengths = [0.5 * abs(d + d1), 0.5 * abs(d - d1)]
    curvature = d1 * d1 - amp * amp
    if curvature > 0:
        c = -d1 * d / curvature
        if -1.0 < c < 1.0:
            lengths.append(0.5 * math.hypot(d1 * c + d,
                                            amp * math.sqrt(1.0 - c * c)))
    return float(min(lengths) * unit)


def zone_gap_guard(params: ModelParams):
    """GaplessPoint where 2 min_half_gap is at or below the gap floor: the
    zone-gap test of the closed-form nu and chiral invariants."""
    gap = 2.0 * min_half_gap(params)
    if gap <= params.gap_floor:
        raise GaplessPoint(f"gap closes to {gap:.3e} in the zone, below "
                           f"floor {params.gap_floor:.3e}")


def _band_sign(band: str) -> float:
    # +1 for the upper band, -1 for the lower one
    if band not in ("minus", "plus"):
        raise ValueError(f"band must be 'minus' or 'plus', got {band!r}")
    return 1.0 if band == "plus" else -1.0


def band_weights(params: ModelParams, band: str, k):
    """(|a|^2, |b|^2) of the band's t = 0 mode, vectorized over k.

    The weights only depend on the longitudinal tilt, so they are available
    in closed form without building eigenvectors.
    """
    sign = _band_sign(band)
    _, _, dz, half_gap = normal_field(params, k)
    # half_gap = 0 forces dz = 0: 0/0 = NaN exactly where the gap closes
    with np.errstate(invalid="ignore"):
        wa = 0.5 * (1.0 + sign * (dz / half_gap))
    return wa, 1.0 - wa


# typed: a float n that linspace refuses is not answered from an int entry
@functools.lru_cache(maxsize=2, typed=True)
def _uniform_band_weights(params: ModelParams, band: str, n: int):
    """(k, |a|^2, |b|^2) on n uniform points of [0, pi], all read-only.

    H_F is static, so the weights do not depend on t: a trace over t at one
    (params, band, n) computes them once. Two entries hold both bands of
    one (params, n), so a caller alternating bands, or rate_function and
    winding_number interleaved, hits; the arrays are shared, hence
    read-only. Parameters equal under == share an entry: those that differ
    only in the sign of a zero give the same bits.
    """
    k = np.linspace(0.0, math.pi, n)
    wa, wb = band_weights(params, band, k)
    for a in (k, wa, wb):
        a.flags.writeable = False
    return k, wa, wb


def band_energy(params: ModelParams, band: str, k):
    """Unfolded quasienergy E_band(k): 2^e (w/2 +- Delta/2), normal form."""
    sign = _band_sign(band)
    unit, w = params.normal_form[:2]
    return unit * (0.5 * w + sign * normal_field(params, k)[3])
