"""The uniform-grid band weights behind rate_function and winding_number.

H_F is static, so the weights are computed once per (params, band, grid);
every result must equal, bit for bit, the route that recomputes them.
"""

import math

import numpy as np
import pytest

from floquet_dqpt import model
from floquet_dqpt.dqpt import PROB_FLOOR, rate_function
from floquet_dqpt.errors import NumericalGuardError
from floquet_dqpt.geometry import (_phase_and_drift, exact_winding,
                                   principal_branch, winding_number)
from floquet_dqpt.model import ModelParams, _uniform_band_weights, band_weights

from api import random_params
from conftest import EXAMPLE1


def uncached_rate(p, band, t, n):
    # |G|^2 = ||a|^2 + e^{iwt}|b|^2|^2 written out from the band weights, so
    # the reference does not read the overlap kernel
    k = np.linspace(0.0, math.pi, n)
    wa, wb = band_weights(p, band, k)
    prob = np.abs(wa + np.exp(1j * p.omega_drive * t) * wb) ** 2
    return float(-np.trapezoid(np.log(np.maximum(prob, PROB_FLOOR)), k)
                 / math.pi)


def uncached_raw_winding(p, band, t, n):
    k = np.linspace(0.0, math.pi, n)
    phi, _ = _phase_and_drift(p, *band_weights(p, band, k), t)
    return float(principal_branch(np.diff(phi)).sum() / (2.0 * math.pi))


def raw_winding_or_none(p, band, t, n):
    try:
        return winding_number(p, band, t, n, return_raw=True)[1]
    except NumericalGuardError:
        return None


@pytest.mark.parametrize("n", [2, 401, 2001, 4001])
def test_cached_route_equals_recomputed_weights(n):
    # three draws interleaved at every t, one more than the cache holds, so
    # each call replaces the entry the draw before last left
    rng = np.random.default_rng(n)
    windings = 0
    for i in range(6):
        draws = [(random_params(rng), band)
                 for band in ("minus", "plus", "minus")]
        if i % 2:
            draws.reverse()
        ts = np.linspace(0.0, 2.0 * draws[0][0].period, 9)
        for t in ts:
            for p, band in draws:
                assert rate_function(p, band, t, n) \
                    == uncached_rate(p, band, t, n)
            if n < 401:
                continue
            for p, band in draws:
                raw = raw_winding_or_none(p, band, t, n)
                if raw is not None:
                    assert raw == uncached_raw_winding(p, band, t, n)
                    windings += 1
    assert n < 401 or windings > 50


def test_cache_holds_both_bands_of_read_only_arrays():
    assert _uniform_band_weights.cache_info().maxsize == 2
    _uniform_band_weights.cache_clear()
    k, wa, wb = _uniform_band_weights(EXAMPLE1, "minus", 11)
    fresh = np.linspace(0.0, math.pi, 11)
    assert np.array_equal(k, fresh)
    assert all(np.array_equal(a, b) for a, b in
               zip((wa, wb), band_weights(EXAMPLE1, "minus", fresh)))
    for a in (k, wa, wb):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    plus = _uniform_band_weights(EXAMPLE1, "plus", 11)
    assert _uniform_band_weights.cache_info().currsize == 2
    # both bands stay: each read again is a hit, the same arrays
    hits = _uniform_band_weights.cache_info().hits
    assert _uniform_band_weights(EXAMPLE1, "minus", 11)[1] is wa
    assert _uniform_band_weights(EXAMPLE1, "plus", 11)[1] is plus[1]
    assert _uniform_band_weights.cache_info().hits == hits + 2


def test_signed_zero_parameters_give_identical_results():
    # ModelParams equal under == share a cache entry
    for fields in ((2.0, 0.0, 0.5, 1.0), (2.0, 3.0, 0.0, 1.0),
                   (math.pi, 1.0, 2.0, 0.0)):
        zeros = [i for i, v in enumerate(fields) if v == 0.0]
        variants = []
        for sign in (1.0, -1.0):
            values = list(fields)
            for i in zeros:
                values[i] = math.copysign(0.0, sign)
            variants.append(ModelParams(*values))
        for t in (0.3, 0.5 * variants[0].period, 1.7):
            for order in (variants, variants[::-1]):
                _uniform_band_weights.cache_clear()
                rates = [rate_function(p, "minus", t) for p in order]
                raws = [raw_winding_or_none(p, "minus", t, 2001)
                        for p in order]
                assert rates[0] == rates[1] \
                    == uncached_rate(order[1], "minus", t, 2001)
                assert raws[0] == raws[1]


def test_trace_at_one_key_evaluates_the_weights_once(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args[1])
        return band_weights(*args)

    monkeypatch.setattr(model, "band_weights", spy)
    _uniform_band_weights.cache_clear()
    for t in np.linspace(0.0, 2.0 * EXAMPLE1.period, 121):
        rate_function(EXAMPLE1, "minus", t)
        raw_winding_or_none(EXAMPLE1, "minus", t, 2001)
    assert calls == ["minus"]
    _uniform_band_weights.cache_clear()


def test_rate_and_winding_defaults_share_one_entry():
    # a trace interleaving both at their default grid sizes, as the scan
    # benchmark does, computes the weights once
    _uniform_band_weights.cache_clear()
    for t in np.linspace(0.1, 0.9, 5):
        rate_function(EXAMPLE1, "minus", t)
        winding_number(EXAMPLE1, "minus", t)
    assert _uniform_band_weights.cache_info().misses == 1
    _uniform_band_weights.cache_clear()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_t_refused_before_any_work(t):
    before = _uniform_band_weights.cache_info()
    for call in (lambda: rate_function(EXAMPLE1, "minus", t),
                 lambda: winding_number(EXAMPLE1, "minus", t),
                 lambda: exact_winding(EXAMPLE1, "minus", t)):
        with pytest.raises(ValueError, match="finite"):
            call()
    assert _uniform_band_weights.cache_info() == before
