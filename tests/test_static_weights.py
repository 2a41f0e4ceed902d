"""The uniform k row behind rate_function and winding_number.

H_F is static, so the row (the k grid, band weights, <sz>, its largest step
and the trapezoid's half spacing) is computed once per (params, band, grid);
every result must equal, bit for bit, the route that recomputes them.
"""

import math
import tracemalloc

import numpy as np
import pytest

from floquet_dqpt import model
from floquet_dqpt.dqpt import PROB_FLOOR, rate_function
from floquet_dqpt.errors import NumericalGuardError
from floquet_dqpt.geometry import (_phase, exact_winding, principal_branch,
                                   winding_number)
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
    wa, wb = band_weights(p, band, k)
    phi = _phase(p, wa, wb, wa - wb, t)
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


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_cache_holds_both_bands_of_read_only_arrays():
    # every fact of the row has the bits of its written-out expression
    assert _uniform_band_weights.cache_info().maxsize == 2
    _uniform_band_weights.cache_clear()
    row = _uniform_band_weights(EXAMPLE1, "minus", 11)
    k = np.linspace(0.0, math.pi, 11)
    wa, wb = band_weights(EXAMPLE1, "minus", k)
    want = {"wa": wa, "wb": wb, "sz": wa - wb,
            "sz_step": np.abs(np.diff(wa - wb)).max(),
            "half_dk": (k[1:] - k[:-1]) / 2}
    assert row.__match_args__ == tuple(want)
    for name, expected in want.items():
        assert np.array_equal(bits(getattr(row, name)), bits(expected))
    for a in (row.wa, row.wb, row.sz, row.half_dk):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    plus = _uniform_band_weights(EXAMPLE1, "plus", 11)
    assert _uniform_band_weights.cache_info().currsize == 2
    # both bands stay: each read again is a hit, the same record
    hits = _uniform_band_weights.cache_info().hits
    assert _uniform_band_weights(EXAMPLE1, "minus", 11) is row
    assert _uniform_band_weights(EXAMPLE1, "plus", 11) is plus
    assert _uniform_band_weights.cache_info().hits == hits + 2


def test_a_cold_entry_keeps_32_bytes_a_k_sample():
    # four arrays of about n doubles: wa, wb, sz and half_dk; not k
    n = 10 ** 5
    _uniform_band_weights.cache_clear()
    tracemalloc.start()
    try:
        row = _uniform_band_weights(EXAMPLE1, "minus", n)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _uniform_band_weights.cache_clear()
    assert row.wa.size == n
    assert 32 * n - 8 <= retained < 32 * n + 4096


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
    # the weights and the row's facts formed from them, sz, its largest
    # step and the half spacing, each once for the 121-t trace
    calls, rows = [], []

    def spy(*args):
        calls.append(args[1])
        return band_weights(*args)

    def row_spy(*facts):
        rows.append(facts)
        return k_row(*facts)

    k_row = model._KRow
    monkeypatch.setattr(model, "band_weights", spy)
    monkeypatch.setattr(model, "_KRow", row_spy)
    _uniform_band_weights.cache_clear()
    for t in np.linspace(0.0, 2.0 * EXAMPLE1.period, 121):
        rate_function(EXAMPLE1, "minus", t)
        raw_winding_or_none(EXAMPLE1, "minus", t, 2001)
    assert calls == ["minus"]
    assert len(rows) == 1 and len(rows[0]) == len(k_row.__match_args__)
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
