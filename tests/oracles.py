"""Reference implementations the library's own oracles are checked against.

`scalar_rk4_propagator` is the per-step Python loop that
`dynamics.propagator_oracle` replaced with a block product of RK4 step
matrices: the same scheme, step count, step times and single final
re-unitarization, with the steps applied to U one after the other.
"""

import cmath
import math

import numpy as np

from floquet_dqpt.dynamics import reunitarize
from floquet_dqpt.model import ModelParams, bloch_components


def scalar_rk4_propagator(params: ModelParams, k: float, t: float,
                          steps: int):
    """(U, correction) of fixed-step RK4 on dU/dt = -i H(k, t) U, step by step.

    Uses n = ceil(t / (T / steps)) uniform steps of h = t / n.
    """
    b = bloch_components(params, k)
    # plain floats keep the loop in Python complex arithmetic
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

    return reunitarize(np.array([[u00, u01], [u10, u11]], dtype=complex))
