"""The precision ledger: each shipped dataset column against a 40-digit
mpmath value written from the paper's formulas, not from the library.

The columns are sampled on a strided subgrid of the grids `fdqpt` ships at
its defaults (181 k on [0, pi] times 241 t over three periods), for the
double k, t and parameters the library sees. Each bound is the largest
deviation measured there, rounded up.

retprob: |G|^2 = 1 - sin^2(theta) sin^2(w t / 2), with
sin^2(theta) = h_xy^2 / (Delta/2)^2, h_xy = Omega sin(k) / 2 and
Delta/2 = |(h_xy, (delta1 cos k + delta2 - w) / 2)|. Measured in the
shipped minus band: 1.11e-15 (example1, nv-plus), 7.8e-16 (example3),
6.7e-16 (nv-minus), 5.6e-16 (example2).
"""

import mpmath
import numpy as np
import pytest

from floquet_dqpt import cli
from floquet_dqpt.dynamics import return_probability_grid

DIGITS = 40
K_STRIDE, T_STRIDE = 9, 8
RETPROB_BOUND = 2e-15


def shipped_subgrid(preset):
    """(params, k, t): every K_STRIDE-th k and T_STRIDE-th t of the grids
    `fdqpt retprob --preset PRESET` writes at its defaults."""
    _, cfg = cli.build_config(["retprob", "--preset", preset])
    return (cfg.params, cli.k_grid(cfg)[::K_STRIDE],
            cli.t_grid(cfg)[::T_STRIDE])


def exact_return_probability(p, k, t) -> float:
    with mpmath.workdps(DIGITS):
        w, d1, d2, amp, k, t = map(mpmath.mpf, (
            p.omega_drive, p.delta1, p.delta2, p.omega_amp, k, t))
        h_xy = amp * mpmath.sin(k) / 2
        dz = (d1 * mpmath.cos(k) + d2 - w) / 2
        sin2_theta = h_xy ** 2 / (h_xy ** 2 + dz ** 2)
        return float(1 - sin2_theta * mpmath.sin(w * t / 2) ** 2)


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_retprob_column_against_mpmath(preset):
    p, ks, ts = shipped_subgrid(preset)
    got = return_probability_grid(p, "minus", ks[:, None], ts)
    exact = np.array([[exact_return_probability(p, k, t) for t in ts]
                      for k in ks])
    assert np.abs(got - exact).max() <= RETPROB_BOUND
