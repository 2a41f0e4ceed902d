"""How far the trapezoid rate function is from the exact integral.

The reference is g(t) = -(1/pi) int_0^pi ln|G(k, t)|^2 dk by `mpmath.quad`,
split at the critical momentum k_c, with |G|^2 = 1 - sin^2(theta)
sin^2(w t / 2) and sin^2(theta) = h_xy^2 / (Delta/2)^2, for the double
parameters and t the library sees. At 30 digits sin^2(w t_c / 2) rounds to
1 and the reference is inf, so it runs at 40.

Away from critical times the two agree to within 2 ulp. At a critical time
the integrand has a log singularity at k_c, and the trapezoid's clamp of
|G|^2 at PROB_FLOOR, not the physics, sets its value; each bound below is
the deviation measured there, rounded up.
"""

import math

import mpmath
import pytest

from floquet_dqpt.cli import PRESETS
from floquet_dqpt.dqpt import dqpt_condition, rate_function

DIGITS = 40


def exact_rate(p, t) -> float:
    with mpmath.workdps(DIGITS):
        w, d1, d2, amp = map(mpmath.mpf, (p.omega_drive, p.delta1,
                                          p.delta2, p.omega_amp))
        s2 = mpmath.sin(w * mpmath.mpf(t) / 2) ** 2

        def log_prob(k):
            h_xy = amp * mpmath.sin(k) / 2
            dz = (d1 * mpmath.cos(k) + d2 - w) / 2
            return mpmath.log(1 - h_xy ** 2 / (h_xy ** 2 + dz ** 2) * s2)

        k_c = mpmath.acos((w - d2) / d1)
        return float(-mpmath.quad(log_prob, [0, k_c, mpmath.pi]) / mpmath.pi)


# (preset, t, k points, signed deviation bound: trapezoid - exact)
CASES = [
    ("example1", 1.0, 2001, (-5.5e-4, 0.0)),  # t_c: low by 0.1%
    ("example1", 1.0, 181, (0.0, 0.1265)),    # t_c: high by 23%
    ("nv-plus", 0.1, 2001, (0.0, 7.2e-3)),    # t_c, k_c = pi/2 on the grid
    ("example1", 0.5, 2001, None),            # T/4
    ("nv-plus", 0.05, 2001, None),            # T/4
]


@pytest.mark.parametrize("preset, t, n_k, bounds", CASES)
def test_trapezoid_against_mpmath(preset, t, n_k, bounds):
    p = PRESETS[preset]
    crit = dqpt_condition(p)
    assert crit.has_dqpt
    assert (t == crit.critical_times[0]) == (bounds is not None)
    exact = exact_rate(p, t)
    assert math.isfinite(exact)
    deviation = rate_function(p, "minus", t, n_k) - exact
    if bounds is None:
        assert abs(deviation) <= 2 * math.ulp(exact)
    else:
        assert bounds[0] <= deviation <= bounds[1]
