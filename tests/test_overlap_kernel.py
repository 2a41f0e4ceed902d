"""The one overlap kernel against the written-out complex sum.

`micromotion_overlap` adds |a|^2 to the real part of e^{iwt}|b|^2 in place
instead of forming the complex sum |a|^2 + e^{iwt}|b|^2. The two differ only
in the sign of an imaginary zero: where |b|^2 = 0 (k = 0 or pi for one band)
and cos wt < 0, sin wt < 0, the product's imaginary part is -0, which the
complex sum turns into +0. Every reader of the overlap must still give the
complex sum's bits, the sign of every zero included.
"""

import math
import warnings

import numpy as np
import pytest

from floquet_dqpt import dqpt, dynamics, geometry
from floquet_dqpt.errors import GaplessPoint
from floquet_dqpt.model import band_weights

from api import DRIVES, bits, random_params
from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3

DRAWS = [EXAMPLE1, EXAMPLE2, EXAMPLE3] + [
    random_params(np.random.default_rng(seed)) for seed in range(6)]
ENDPOINTS = np.array([0.0, math.pi])


def complex_sum(params, wa, wb, t):
    # the overlap as the complex sum, written out
    return wa + np.exp(1j * params.omega_drive * np.asarray(t)) * wb


def times(p):
    # t = 0 and w t in every quadrant, the third (cos, sin < 0) three times,
    # once at a negative t; none on a critical time (2n - 1) T/2
    return np.array([0.0, 0.1, 0.35, 0.6, 0.85, 1.6, -0.3]) * p.period


def readers(p, band, ts):
    """Every reader of the overlap at k = 0 and pi (or on a uniform grid,
    which has both) and the times ts, by name."""
    points = [(k, t) for k in ENDPOINTS for t in ts]
    return {
        "return_amplitude": [dynamics.return_amplitude(p, band, k, t).value
                             for k, t in points],
        "return_probability": [dynamics.return_probability(p, k, t)
                               for k, t in points],
        "return_probability_grid": dynamics.return_probability_grid(
            p, ENDPOINTS[:, None], ts),
        "geometric_phase": [geometry.geometric_phase(p, band, k, t)
                            for k, t in points],
        "geometric_phase_grid": geometry.geometric_phase_grid(
            p, band, ENDPOINTS[:, None], ts),
        "rate_function": [dqpt.rate_function(p, band, t, 181) for t in ts],
        "rate_function_grid": dqpt.rate_function_grid(p, band, ts, 181),
        "raw_winding_grid": np.concatenate(
            geometry.raw_winding_grid(p, band, ts, 401)),
    }


def test_kernel_is_the_complex_sum_bar_the_sign_of_an_imaginary_zero():
    flips = 0
    for p in DRAWS:
        t = times(p)[:, None]
        wt = p.omega_drive * t
        for band in ("minus", "plus"):
            wa, wb = band_weights(p, band, np.array([0.0, 0.7, math.pi]))
            got = dynamics.micromotion_overlap(p, wa, wb, t)
            want = complex_sum(p, wa, wb, t)
            assert np.array_equal(got.real.view(np.int64),
                                  want.real.view(np.int64))
            flipped = got.imag.view(np.int64) != want.imag.view(np.int64)
            assert np.array_equal(
                flipped, (wb == 0.0) & (np.cos(wt) < 0.0) & (np.sin(wt) < 0.0))
            assert (got.imag[flipped] == 0.0).all()
            assert np.signbit(got.imag[flipped]).all()
            flips += flipped.sum()
    # every draw has |b|^2 = 0 at an endpoint for one band, at three times
    assert flips >= 3 * len(DRAWS)


@pytest.mark.parametrize("p", DRAWS)
def test_every_reader_has_the_complex_sums_bits(monkeypatch, p):
    ts = times(p)
    for band in ("minus", "plus"):
        with monkeypatch.context() as m:
            for module in (dynamics, dqpt, geometry):
                m.setattr(module, "micromotion_overlap", complex_sum)
            want = readers(p, band, ts)
        got = readers(p, band, ts)
        for name in want:
            assert np.array_equal(bits(got[name]), bits(want[name])), name


def test_scalar_readers_return_python_scalars():
    # the kernel returns a 0-d array at a scalar t; the APIs do not
    for band in ("minus", "plus"):
        for k in (0.0, 0.7, math.pi):
            t = 0.6 * EXAMPLE1.period
            assert isinstance(dynamics.micromotion_overlap(
                EXAMPLE1, *band_weights(EXAMPLE1, band, k), t), np.ndarray)
            assert type(dynamics.return_probability(EXAMPLE1, k, t)) \
                is float
            assert type(dynamics.return_amplitude(EXAMPLE1, band, k,
                                                  t).value) is complex
            assert type(geometry.geometric_phase(EXAMPLE1, band, k, t)) \
                is float
        assert type(dqpt.rate_function(EXAMPLE1, band, 0.3)) is float


def test_nan_weights_at_a_gapless_k_raise_no_warning():
    p = DRIVES["gapless0"]
    t = 0.6 * p.period
    ks = np.array([0.0, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for band in ("minus", "plus"):
            wa, wb = band_weights(p, band, 0.0)
            assert np.isnan(wa) and np.isnan(wb)
            z = dynamics.micromotion_overlap(p, wa, wb, t)
            assert z.shape == () and np.isnan(z.real) and np.isnan(z.imag)
            values = geometry.geometric_phase_grid(p, band, ks, t)
            assert np.isnan(values[0]) and np.isfinite(values[1])
            for point in (dynamics.return_amplitude,
                          geometry.geometric_phase):
                with pytest.raises(GaplessPoint):
                    point(p, band, 0.0, t)
        values = dynamics.return_probability_grid(p, ks, t)
        assert np.isnan(values[0]) and np.isfinite(values[1])
        with pytest.raises(GaplessPoint):
            dynamics.return_probability(p, 0.0, t)
