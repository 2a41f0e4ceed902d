"""The two bands of one drive, against each other.

The upper band's mode is the lower one's with |a|^2 and |b|^2 swapped, so
|G|^2 and g do not depend on the band, the geometric phase and the winding
change sign, and the Fisher-zero lines mirror: (E+ - h_z)(E- - h_z) = -h_xy^2
gives tau+ = -tau-. return_probability takes no band: each band's
|G_band|^2, squared from its return amplitude, is held to it. Each relation
is held to the bound it meets on seeded drives, over interior k (tau
diverges where h_xy = 0) and t within three periods either side of 0.
"""

import math

import numpy as np

from floquet_dqpt import dqpt, dynamics, geometry
from floquet_dqpt.errors import NumericalGuardError

from conftest import random_params

KS = np.linspace(0.0, math.pi, 102)[1:-1]


def bands(fn, p, *args):
    """fn(p, band, *args) for the upper band, then the lower one."""
    return [fn(p, band, *args) for band in ("plus", "minus")]


def squared_amplitude(p, band, k, t):
    return abs(dynamics.return_amplitude(p, band, k, t).value) ** 2


def trace(p, band, ts):
    """raw_winding_grid's trace, or its error's type and message."""
    try:
        return geometry.raw_winding_grid(p, band, ts, 401)
    except NumericalGuardError as exc:
        return type(exc), str(exc)


def test_band_symmetries_on_seeded_drives():
    rng = np.random.default_rng(20261019)
    worst = dict.fromkeys(("phase", "prob", "rate", "tau"), 0.0)
    compared = nonzero = 0
    for _ in range(300):
        p = random_params(rng)
        ts = rng.uniform(-3.0 * p.period, 3.0 * p.period, 8)
        plus, minus = bands(geometry.geometric_phase_grid, p, KS[:, None], ts)
        assert np.array_equal(np.isnan(plus), np.isnan(minus))
        worst["phase"] = max(worst["phase"], np.nanmax(
            np.abs(geometry.principal_branch(plus + minus)), initial=0.0))
        for k in KS[::25].tolist():
            for t in ts[:4].tolist():
                prob = dynamics.return_probability(p, k, t)
                worst["prob"] = max(worst["prob"], *(abs(x - prob) for x in (
                    bands(squared_amplitude, p, k, t))))
        plus, minus = bands(dqpt.rate_function_grid, p, ts, 181)
        worst["rate"] = max(worst["rate"], np.abs(plus - minus).max())
        plus, minus = bands(dqpt.fisher_tau_grid, p, KS)
        assert np.isfinite(plus).all() and np.isfinite(minus).all()
        worst["tau"] = max(worst["tau"], (np.abs(plus + minus) / np.maximum(
            np.abs(plus), np.abs(minus))).max())
        plus, minus = bands(geometry.exact_winding_grid, p, ts)
        assert np.array_equal(plus, -minus)
        plus, minus = bands(trace, p, ts)
        if isinstance(plus[0], type):
            assert minus[0] is plus[0]
            continue
        assert np.array_equal(plus[0], minus[0])
        assert np.array_equal(np.rint(plus[1]), -np.rint(minus[1]),
                              equal_nan=True)
        nu = np.rint(plus[1][np.isfinite(plus[1])])
        compared, nonzero = compared + nu.size, nonzero + (nu != 0).sum()
    assert compared > 2000 and nonzero > 500
    # measured 1.8e-14, 6.7e-16, 6.7e-16 and 9.7e-9 (relative): the phase
    # carries the rounding of w t, |G|^2 that of |e^{-iEt}|, tau the
    # cancellation in E - h_z
    assert worst["phase"] < 5e-14, worst
    assert worst["prob"] < 3e-15, worst
    assert worst["rate"] < 3e-15, worst
    assert worst["tau"] < 3e-8, worst
