"""Propagators and return amplitudes.

Two routes to the time evolution operator are kept deliberately separate:

* `propagator_analytic` uses the exact rotating-frame factorization
  U(k, t) = U_R(t) exp(-i H_F(k) t) as the SU(2) matrix [[a, b], [-b*, a*]]
  whose two entries are closed forms in the field `model.normal_field`;
* `propagator_oracle` integrates dU/dt = -i H(k, t) U with a classical
  fixed-step 4th-order scheme and knows nothing about the rotating frame.

The oracle is the independent check for everything built on the analytic
route, so it must never share code with it. It takes the lab-frame H(k, t) as
given: each RK4 step is the 2x2 matrix the scheme applies to U, built from H
at its three times in numpy blocks, and one pairwise product streamed through
the blocks multiplies them in time order. Every matrix is the pair (a, b) of
[[a, b], [-b*, a*]], exact because H is traceless and Hermitian; that follows
from H alone, and nothing in the oracle factors out the drive, so the rotating
frame stays what it checks, not what it uses. The pair's U^dag U is
(|a|^2 + |b|^2) I, so one division by sigma = hypot(|a|, |b|) at the end is
its polar factor, and the raw integrator error shows in convergence tests.

H(k, -t) = H(k, t)*, so U(k, -t) = conj U(k, t). Both routes answer t < 0
and meet that identity bit for bit, up to the signs of zeros; the oracle
steps back by h = t/n.
"""

from __future__ import annotations

import cmath
import math

from ._lazy import np
from ._record import record
from .errors import StepCountTooSmall
from .model import (DEFAULT_ORACLE_STEPS, MIN_ORACLE_STEPS, ModelParams,
                    _band_sign, band_weights, bloch_components, finite_point,
                    gap_guard, require_resolved_time)

# RK4 steps built at once. At most two blocks of partial products and one
# block's stage temporaries are held, a peak of 0.37 MB (tracemalloc) for any
# t; the 8192 steps of two periods held at once take 2.1 MB, growing with t.
ORACLE_BLOCK = 1024


@record
class ReturnAmplitude:
    """Complex return amplitude G_band(k, t) at the caller's (band, k, t)."""

    value: complex


def propagator_analytic(params: ModelParams, k: float, t: float) -> np.ndarray:
    """Exact propagator U(k, t) = U_R(t) exp(-i H_F(k) t) as an SU(2) pair:

    U = [[a, b], [-b*, a*]], a = p (cos x - i n_z sin x), b = -i p n_x sin x,
    with p = e^{-i w t/2}, x = Delta t/2, n = (h_xy, 0, dz)/(Delta/2); n,
    sin(x)/(Delta/2) and x = (Delta/2)(2^e t) on the normal form.
    """
    h_xy, _, dz, half_gap = gap_guard(params, k, t)
    angle = half_gap * (params.normal_form[0] * t)
    s = math.sin(angle) / half_gap
    phase = cmath.exp(-0.5j * params.omega_drive * t)
    u00 = phase * complex(math.cos(angle), -s * dz)
    u01 = phase * complex(0.0, -s * h_xy)
    return np.array([[u00, u01], [-u01.conjugate(), u00.conjugate()]])


def propagator_oracle(params: ModelParams, k: float, t: float,
                      steps: int = DEFAULT_ORACLE_STEPS,
                      return_correction: bool = False):
    """Brute-force time-ordered propagator.

    Fixed-step RK4 on dU/dt = -i H(k, t) U with at least `steps` uniform
    substeps per drive period, H the lab-frame Hamiltonian. The equation is
    linear in U, so RK4 step n is a fixed 2x2 map U -> M_n U. -i H and I are
    [[a, b], [-b*, a*]], and so are their real combinations and products:
    every RK4 stage, M_n and product of them is stored as its pair (a, b),
    half the arithmetic of four entries. The M_n are built ORACLE_BLOCK steps
    at a time and appended to the partial products held, which pairwise
    products in time order halve until at most ORACLE_BLOCK remain (so memory
    does not grow with t); after the last block they reduce to U - I. U/sigma,
    sigma = hypot(|a|, |b|), is the polar factor of the pair, and
    return_correction=True adds |sigma - 1|. A negative t takes the steps of
    |t|, each of h = t/n < 0. Like every route through w t, it refuses
    |t| >= params.time_limit.
    """
    if steps < MIN_ORACLE_STEPS:
        raise StepCountTooSmall(f"steps={steps} < {MIN_ORACLE_STEPS}")
    finite_point(k, t)
    require_resolved_time(params, t)

    if t == 0:
        u = np.eye(2, dtype=complex)
        return (u, 0.0) if return_correction else u

    b = bloch_components(params, k)
    w = params.omega_drive
    n = max(1, math.ceil(abs(t) / (params.period / steps)))
    h = t / n

    # A block of m pairs is one (2, m) array, and eye is the pair of I. Step
    # maps M and products of them are held as M - I: M_n is nearly the same
    # matrix at every step, and rounding I + (M_n - I) would add the same
    # error n times, pulling U off the unitary group by about n ulp.
    eye = np.array([[1.0], [0.0]])
    sign = np.array([[-1.0], [1.0]])

    def mul(x, y):
        # (a, b)(c, d) = (a c - b d*, a d + b c*)
        return x[0] * y + sign * (x[1] * y[::-1].conj())

    def compose(x, y):
        # (I + x)(I + y) - I
        return x + y + mul(x, y)

    def step_maps(a):
        # a: -i H at the 2m + 1 half-step times of m steps, step j at a[:, 2j]
        # M - I = (h/6)(K1 + 2 K2 + 2 K3 + K4), where RK4's k_i = K_i U
        k1, am = a[:, :-1:2], a[:, 1::2]
        k2 = mul(am, eye + 0.5 * h * k1)
        k3 = mul(am, eye + 0.5 * h * k2)
        k4 = mul(a[:, 2::2], eye + h * k3)
        return h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)

    def ordered_product(m, width):
        # pairwise M_{2j+1} M_{2j} until at most `width` columns remain; an
        # odd leftover is the latest step and stays last
        while m.shape[1] > width:
            even = m.shape[1] // 2 * 2
            pairs = compose(m[:, 1:even:2], m[:, 0:even:2])
            m = np.concatenate((pairs, m[:, even:]), axis=1)
        return m

    # -i H = (-i hz, -i hxy e^{-i w t}); at half-step j of the block from
    # step `first`, e^{-i w t} = e^{-i w h first} e^{-i w h j/2}: one table
    a = np.empty((2, 2 * min(n, ORACLE_BLOCK) + 1), dtype=complex)
    a[0] = -1j * float(b.h_z)
    drive = -1j * float(b.h_xy) * np.exp(-0.5j * w * h
                                         * np.arange(a.shape[1]))
    # partial products in time order; a block's steps pair only with each
    # other until they are its product, which folds into the prefix product
    held = np.empty((2, 0), dtype=complex)
    for first in range(0, n, ORACLE_BLOCK):
        size = 2 * (min(first + ORACLE_BLOCK, n) - first) + 1
        a[1, :size] = cmath.exp(-1j * w * h * first) * drive[:size]
        held = ordered_product(np.concatenate(
            (held, step_maps(a[:, :size])), axis=1), ORACLE_BLOCK)

    v0, v1 = ordered_product(held, 1)[:, 0]  # U - I
    u = np.array([[1.0 + v0, v1], [-v1.conjugate(), 1.0 + v0.conjugate()]])
    sigma = math.hypot(abs(u[0, 0]), abs(v1))
    return (u / sigma, abs(sigma - 1.0)) if return_correction else u / sigma


def micromotion_overlap(params: ModelParams, wa, wb, t):
    """<chi| U_R(t) |chi> = |a|^2 + e^{i w t} |b|^2 from the band weights,
    broadcast over their shape and t: the one kernel of the overlap that
    every return amplitude, rate function and phase reads. |a|^2 joins the
    real part in place: the complex sum's bits bar an imaginary -0, which
    stays -0 (|b|^2 = 0, cos w t < 0, sin w t < 0). 0-d for scalars.
    It applies no time rule: its callers refuse a t that doubles cannot
    resolve (model.require_resolved_time) before they call it."""
    z = np.asarray(np.exp(1j * params.omega_drive * np.asarray(t)) * wb)
    z.real += wa
    return z


def return_amplitude(params: ModelParams, band: str, k: float,
                     t: float) -> ReturnAmplitude:
    """Return amplitude G_band(k, t) of the band's Floquet state.

    G = e^{-i E t} <chi| U_R(t) |chi>; the micromotion overlap carries the
    whole modulus, the quasienergy only a phase, E t = e (2^e t) with
    e = w/2 +- Delta/2 on the normal form.
    """
    half_gap = gap_guard(params, k, t)[3]
    unit, w = params.normal_form[:2]
    e = float(0.5 * w + _band_sign(band) * half_gap)
    value = cmath.exp(-1j * e * (unit * t)) * complex(
        micromotion_overlap(params, *band_weights(params, band, k), t))
    return ReturnAmplitude(value=value)


def return_probability(params: ModelParams, k: float, t: float) -> float:
    """|G(k, t)|^2, the same for both bands: return_probability_grid at the
    point, past gap_guard's checks."""
    gap_guard(params, k, t)
    return float(return_probability_grid(params, k, t))


def return_probability_grid(params: ModelParams, k_grid, t) -> np.ndarray:
    """|G|^2 = |<chi| U_R(t) |chi>|^2 of the lower band's mode, broadcast
    over k and t; the upper band's, its weights swapped, differs only in
    rounding. TimeUnresolved where doubles cannot resolve w t at the largest
    |t|."""
    require_resolved_time(params, t)
    weights = band_weights(params, "minus", np.asarray(k_grid))
    return np.abs(micromotion_overlap(params, *weights, t)) ** 2
