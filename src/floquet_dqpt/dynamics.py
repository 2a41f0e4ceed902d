"""Propagators and return amplitudes.

Two routes to the time evolution operator are kept deliberately separate:

* `propagator_analytic` uses the exact rotating-frame factorization
  U(k, t) = U_R(t) exp(-i H_F(k) t) via the spectral decomposition of H_F;
* `propagator_oracle` integrates dU/dt = -i H(k, t) U with a classical
  fixed-step 4th-order scheme and knows nothing about the rotating frame.

The oracle is the independent check for everything built on the analytic
route, so it must never share code with it. It is re-unitarized at most once,
at the end, so that the raw integrator error stays visible in convergence
tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import StepCountTooSmall
from .model import ModelParams, band_weights, bloch_components, \
    floquet_solution, gap_guard, micromotion

MIN_ORACLE_STEPS = 256
DEFAULT_ORACLE_STEPS = 4096


@dataclass(frozen=True)
class ReturnAmplitude:
    """Complex return amplitude G_band(k, t) with its grid coordinates."""

    value: complex
    band: str
    k: float
    t: float


def propagator_analytic(params: ModelParams, k: float, t: float) -> np.ndarray:
    """Exact propagator U(k, t) = U_R(t) exp(-i H_F(k) t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    fs = floquet_solution(params, k)
    pm = np.outer(fs.chi_minus, fs.chi_minus.conj())
    pp = np.outer(fs.chi_plus, fs.chi_plus.conj())
    expf = (cmath.exp(-1j * fs.e_minus * t) * pm
            + cmath.exp(-1j * fs.e_plus * t) * pp)
    return micromotion(params, t) @ expf


def propagator_oracle(params: ModelParams, k: float, t: float,
                      steps: int = DEFAULT_ORACLE_STEPS,
                      return_correction: bool = False):
    """Brute-force time-ordered propagator.

    Fixed-step RK4 on dU/dt = -i H(k, t) U with at least `steps` uniform
    substeps per drive period, implemented in scalar complex arithmetic for
    speed. A single polar-like re-unitarization is applied at the end; pass
    return_correction=True to also get the norm of that correction.
    """
    if steps < MIN_ORACLE_STEPS:
        raise StepCountTooSmall(f"steps={steps} < {MIN_ORACLE_STEPS}")
    if t < 0:
        raise ValueError("t must be >= 0")

    if t == 0:
        u = np.eye(2, dtype=complex)
        return (u, 0.0) if return_correction else u

    b = bloch_components(params, k)
    # plain floats keep the loop in Python complex arithmetic; numpy scalars
    # give the same numbers about four times slower
    hz = float(b.h_z)
    hxy = float(b.h_xy)
    w = params.omega_drive
    n = max(1, math.ceil(t / (params.period / steps)))
    h = t / n

    def deriv(time, u00, u01, u10, u11):
        # -i H U with H = [[hz, p], [conj(p), -hz]], p = hxy e^{-i w t}
        p = hxy * cmath.exp(-1j * w * time)
        q = p.conjugate()
        return (-1j * (hz * u00 + p * u10), -1j * (hz * u01 + p * u11),
                -1j * (q * u00 - hz * u10), -1j * (q * u01 - hz * u11))

    u00, u01, u10, u11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for i in range(n):
        t0 = i * h
        a0, a1, a2, a3 = deriv(t0, u00, u01, u10, u11)
        b0, b1, b2, b3 = deriv(t0 + 0.5 * h, u00 + 0.5 * h * a0,
                               u01 + 0.5 * h * a1, u10 + 0.5 * h * a2,
                               u11 + 0.5 * h * a3)
        c0, c1, c2, c3 = deriv(t0 + 0.5 * h, u00 + 0.5 * h * b0,
                               u01 + 0.5 * h * b1, u10 + 0.5 * h * b2,
                               u11 + 0.5 * h * b3)
        d0, d1, d2, d3 = deriv(t0 + h, u00 + h * c0, u01 + h * c1,
                               u10 + h * c2, u11 + h * c3)
        u00 += h / 6.0 * (a0 + 2.0 * (b0 + c0) + d0)
        u01 += h / 6.0 * (a1 + 2.0 * (b1 + c1) + d1)
        u10 += h / 6.0 * (a2 + 2.0 * (b2 + c2) + d2)
        u11 += h / 6.0 * (a3 + 2.0 * (b3 + c3) + d3)

    u = np.array([[u00, u01], [u10, u11]], dtype=complex)
    u_unitary, correction = reunitarize(u)
    return (u_unitary, correction) if return_correction else u_unitary


def reunitarize(u: np.ndarray):
    """Closest unitary in the polar sense; returns (unitary, correction norm)."""
    v, _, wh = np.linalg.svd(u)
    uu = v @ wh
    return uu, float(np.linalg.norm(u - uu, 2))


def micromotion_overlap(params: ModelParams, band: str, k, t):
    """<chi| U_R(t) |chi> = |a|^2 + e^{i w t} |b|^2, broadcast over k and t."""
    wa, wb = band_weights(params, band, k)
    return wa + np.exp(1j * params.omega_drive * np.asarray(t)) * wb


def return_amplitude(params: ModelParams, band: str, k: float,
                     t: float) -> ReturnAmplitude:
    """Return amplitude G_band(k, t) of the band's Floquet state.

    G = e^{-i E t} <chi| U_R(t) |chi>; the micromotion overlap carries the
    whole modulus, the quasienergy only a phase.
    """
    fs = floquet_solution(params, k)  # gap guard
    e = fs.e_plus if band == "plus" else fs.e_minus
    value = cmath.exp(-1j * e * t) * complex(
        micromotion_overlap(params, band, k, t))
    return ReturnAmplitude(value=value, band=band, k=float(k), t=float(t))


def return_probability(params: ModelParams, band: str, k: float,
                       t: float) -> float:
    """|G_band(k, t)|^2; independent of the quasienergy phase."""
    gap_guard(params, k)
    return float(return_probability_grid(params, band, k, t))


def return_probability_grid(params: ModelParams, band: str, k_grid,
                            t) -> np.ndarray:
    """|G|^2 = |<chi| U_R(t) |chi>|^2, broadcast over k and t."""
    return np.abs(micromotion_overlap(params, band, np.asarray(k_grid), t)) ** 2
