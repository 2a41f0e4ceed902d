"""The t-grid kernels behind `fdqpt rate` and `fdqpt winding`.

`rate_function_grid` and `raw_winding_grid` evaluate many times against one
cached k row, in chunks of rows; `rate_function` and `winding_number` are
the same kernels at one t. Every grid value must equal the scalar call bit
for bit, and the winding trace must equal a loop of scalar calls over t:
its kept times, its raw values, and its first guard error.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from floquet_dqpt import cli, geometry
from floquet_dqpt.dqpt import rate_function, rate_function_grid
from floquet_dqpt.dynamics import (propagator_analytic, return_amplitude,
                                   return_probability,
                                   return_probability_grid)
from floquet_dqpt.errors import (GaplessPoint, GridTooCoarse,
                                 NearCriticalTime, NumericalGuardError,
                                 PhaseUndefined, TimeUnresolved)
from floquet_dqpt.geometry import (bloch_expectations, bloch_vector_grid,
                                   dynamical_phase, exact_winding_grid,
                                   geometric_phase, geometric_phase_grid,
                                   geometric_phase_from_tomography,
                                   raw_winding_grid,
                                   tomography_phase_grid, total_phase,
                                   winding_number)
from floquet_dqpt.model import GRID_CHUNK, _uniform_band_weights

from api import DRIVES, bits, random_params
from conftest import EXAMPLE1, EXAMPLE2

K_SIZES = (2, 401, 2001, 4001)


def t_counts(n_k):
    # one row, and the row counts on either side of a chunk's edge
    rows = max(1, GRID_CHUNK // n_k)
    return (1, max(1, rows - 1), rows, rows + 1, 241)


def draw_times(rng, p, n):
    """n times over +-4 periods: some on critical times +-(2m-1) T/2 (the
    guard's window), some just outside that window (|G| nearly 0 at k_c)
    and some 40 to 80 periods out (a coarse grid)."""
    half = 0.5 * p.period
    ts = rng.uniform(-8.0 * half, 8.0 * half, n)
    pick = rng.random(n)
    crit = (2 * rng.integers(-3, 4, n) - 1) * half
    ts = np.where(pick < 0.1, crit, ts)
    near = crit + rng.choice([-1.0, 1.0], n) * rng.uniform(2e-3, 4e-3, n) * half
    ts = np.where((pick >= 0.1) & (pick < 0.2), near, ts)
    return np.where(pick > 0.9, rng.uniform(80.0, 160.0, n) * half, ts)


def outcome(fn, *args):
    """('ok', value) or (error type, message) of one call."""
    try:
        return "ok", fn(*args)
    except (NumericalGuardError, ValueError) as exc:
        return type(exc), str(exc)


def winding_loop(p, band, ts, n_k, kinds):
    """raw_winding_grid's outcome written as a loop of winding_number calls
    over ts: a guard window is a gap, a too-coarse grid a NaN raw, and any
    other error ends the loop. kinds counts every t's own outcome."""
    kept, raws, first = [], [], None
    for t in ts.tolist():
        got = outcome(winding_number, p, band, t, n_k, True)
        kind = got[0] if got[0] == "ok" else got[0].__name__
        kinds[kind] = kinds.get(kind, 0) + 1
        if first or got[0] is NearCriticalTime:
            continue
        if got[0] in ("ok", GridTooCoarse):
            kept.append(t)
            raws.append(got[1][1] if got[0] == "ok" else math.nan)
        else:
            first = got
    return first or ("ok", (np.array(kept), np.array(raws)))


def draws():
    """(n_k, n_t, band) of 204 draws: every k size with every t count and
    both bands. Past 4000 times (k = 2), and at 241, fewer draws are taken."""
    plan = []
    for n_k in K_SIZES:
        for n_t in t_counts(n_k):
            plan += [(n_k, n_t)] * (2 if n_t > 4000 else 4 if n_t == 241
                                    else 14)
    return [(n_k, n_t, ("minus", "plus")[i % 2])
            for i, (n_k, n_t) in enumerate(plan)]


def seeded_cases():
    """(params, n_k, times, band): gapless0 at 5 times, then the
    seeded draws with their times."""
    rng = np.random.default_rng(20261018)
    cases = [(DRIVES["gapless0"], 401, 5, "minus")]
    cases += [(random_params(rng), *draw) for draw in draws()]
    return [(p, n_k, draw_times(rng, p, n_t), band)
            for p, n_k, n_t, band in cases]


def assert_tomography_kernels_equal_scalar_calls(p, band, ts):
    """The Bloch vector and tomography phase over a (k, t) grid, the zone
    ends and example1's k_c = pi/3 included, equal the scalar calls bit for
    bit, and are NaN where those raise (GaplessPoint, PhaseUndefined)."""
    ks = np.linspace(0.0, math.pi, 4)
    vectors = bloch_vector_grid(p, band, ks[:, None], ts)
    phases = tomography_phase_grid(
        p, ks[:, None], ts, bloch_vector_grid(p, "minus", ks[:, None], ts))
    assert vectors.shape == (3,) + phases.shape == (3, 4, ts.size)
    for (i, j), phase in np.ndenumerate(phases):
        k, t = ks[i].item(), ts[j].item()
        for got, want in ((vectors[:, i, j],
                           outcome(bloch_expectations, p, band, k, t)),
                          (phase, outcome(geometric_phase_from_tomography,
                                          p, k, t))):
            if want[0] == "ok":
                assert np.array_equal(bits(got), bits(want[1]))
            else:
                assert want[0] in (GaplessPoint, PhaseUndefined), want
                assert np.isnan(got).all()


def test_grids_equal_scalar_calls_bit_for_bit():
    cases = seeded_cases()
    assert len(cases) > 200
    # |G| = 0 exactly at example1's (k_c, t_c) = (pi/3, 1)
    assert_tomography_kernels_equal_scalar_calls(EXAMPLE1, "minus",
                                                 np.array([1.0, 0.5]))
    kinds, traces = {}, dict.fromkeys(("whole", "gaps", "raised"), 0)
    for p, n_k, ts, band in cases:
        g = rate_function_grid(p, band, ts, n_k)
        assert g.shape == ts.shape
        assert np.array_equal(bits(g), bits([rate_function(p, band, t, n_k)
                                             for t in ts.tolist()]))
        assert_tomography_kernels_equal_scalar_calls(p, band, ts[:2])
        if n_k < geometry.MIN_WINDING_GRID:
            assert outcome(raw_winding_grid, p, band, ts, n_k) \
                == outcome(winding_number, p, band, 0.0, n_k)
            continue
        got = outcome(raw_winding_grid, p, band, ts, n_k)
        want = winding_loop(p, band, ts, n_k, kinds)
        assert got[0] == want[0]
        if got[0] == "ok":
            traces["whole" if got[1][0].size == ts.size else "gaps"] += 1
            for a, b in zip(got[1], want[1]):
                assert np.array_equal(bits(a), bits(b))
        else:
            traces["raised"] += 1
            assert got[1] == want[1]
    assert {"ok", "NearCriticalTime", "GridTooCoarse",
            "PhaseUndefined"} <= set(kinds), kinds
    assert kinds["ok"] > 2000 and kinds["GridTooCoarse"] > 50, kinds
    assert min(traces.values()) > 0, traces


def test_winding_facts_equal_their_written_out_expressions():
    # the raw sum is NaN exactly where a phase on the k row is undefined;
    # every fact keeps the bits of its own expression.
    # One phase is undefined in every row of gapless0 (k = 0) and,
    # at its critical times, of example1 on 601 k (k_c = pi/3 on the grid)
    partial = (EXAMPLE1, 601, np.array([0.5, 1.0, 3.0, 5.0]), "minus")
    undefined = []
    for p, n_k, ts, band in seeded_cases() + [partial]:
        if n_k < geometry.MIN_WINDING_GRID:
            continue
        _, wa, wb = _uniform_band_weights(p, band, n_k)
        phi, drift = geometry._phase_and_drift(p, wa, wb, ts[:, None])
        steps = geometry.principal_branch(phi[:, 1:] - phi[:, :-1])
        big = np.abs(steps) > math.pi * (1.0 - 1e-6)
        want = (np.abs(drift[:, 1:] - drift[:, :-1]).max(axis=1),
                (big[:, :-1] & big[:, 1:]).any(axis=1),
                steps.sum(axis=1) / (2.0 * math.pi))
        got = geometry._winding_rows(p, wa, wb, ts[:, None])
        for fact, expected in zip(got, want, strict=True):
            assert np.array_equal(bits(fact), bits(expected))
        assert np.array_equal(np.isnan(got[2]), np.isnan(phi).any(axis=1))
        undefined += np.isnan(phi).sum(axis=1)[np.isnan(got[2])].tolist()
    assert undefined == [1] * 8


def first_error(calls):
    """(type, message) of the first call that raises, or None."""
    for call in calls:
        try:
            call()
        except NumericalGuardError as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("mark", ["undefined", "quantized"])
def test_winding_raises_the_first_error_in_t_order(monkeypatch, capsys,
                                                   mark):
    # example1 over [0, 1e16]: t = 0 is resolved, and from t = 2.5e15 on
    # doubles cannot resolve a critical time, so the guard refuses t there.
    # A kernel row failing at t = 0 comes first, as in a loop over t.
    rows = geometry._winding_rows

    def failing_at_zero(params, wa, wb, t):
        jump, ambiguous, raw = rows(params, wa, wb, t)
        at_zero = np.reshape(t, np.shape(raw)) == 0.0
        raw = np.where(at_zero, math.nan if mark == "undefined" else 0.3, raw)
        return jump, ambiguous, raw

    monkeypatch.setattr(geometry, "_winding_rows", failing_at_zero)
    ts = np.linspace(0.0, 1e16, 5).tolist()
    want = first_error(
        [lambda t=t: winding_number(EXAMPLE1, "minus", t, 401)
         for t in ts])
    assert want[0].__name__ == {"undefined": "PhaseUndefined",
                                "quantized": "WindingNotQuantized"}[mark]
    assert outcome(raw_winding_grid, EXAMPLE1, "minus", ts, 401) == want
    assert cli.main(["winding", "--preset", "example1", "--t-max", "1e16",
                     "--t-points", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical guard: {want[0].__name__}: {want[1]}\n"


@pytest.mark.parametrize("preset, t_max", [("example1", "1e308"),
                                            ("nv-minus", "1e307"),
                                            ("example2", "1e17"),
                                            ("nv-minus", "1e17")])
def test_winding_stops_its_rows_at_the_first_refused_time(
        monkeypatch, capsys, preset, t_max):
    # over [0, t_max] only t = 0 is resolved, with or without critical
    # times, and w t overflows further out at 1e307 and 1e308. No row past
    # t = 0 is evaluated (a RuntimeWarning would fail the test), the trace
    # raises the scalar call's refusal at the second t, and that refusal is
    # all stderr holds
    p = cli.PRESETS[preset]
    ts = np.linspace(0.0, float(t_max), 5)
    rows, seen = geometry._winding_rows, []

    def counted(params, wa, wb, t):
        seen.extend(np.ravel(t).tolist())
        return rows(params, wa, wb, t)

    monkeypatch.setattr(geometry, "_winding_rows", counted)
    with pytest.raises(TimeUnresolved) as refused:
        winding_number(p, "minus", ts[1].item(), 401)
    assert seen == []
    assert outcome(raw_winding_grid, p, "minus", ts) \
        == (TimeUnresolved, str(refused.value))
    assert seen == [0.0]
    assert cli.main(["winding", "--preset", preset, "--t-max", t_max,
                     "--t-points", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical guard: TimeUnresolved: {refused.value}\n"


def test_winding_reads_coarse_rows_as_nan_and_goes_on(monkeypatch, capsys):
    # an ambiguous row reads as raw = nan; a later undefined one still
    # raises, as the scalar loop over t does
    rows = geometry._winding_rows

    def marked(params, wa, wb, t):
        jump, ambiguous, raw = rows(params, wa, wb, t)
        at = np.reshape(t, np.shape(raw))
        return jump, ambiguous | (at == 2.0), np.where(at == 4.0, math.nan,
                                                       raw)

    monkeypatch.setattr(geometry, "_winding_rows", marked)
    with pytest.raises(GridTooCoarse, match="ambiguity band"):
        winding_number(EXAMPLE1, "minus", 2.0, 401)
    assert cli.main(["winding", "--preset", "example1", "--t-max", "6",
                     "--t-points", "4"]) == 3
    assert capsys.readouterr().err == ("numerical guard: PhaseUndefined: "
                                       "geometric phase undefined on the "
                                       "winding grid\n")
    assert cli.main(["winding", "--preset", "example1", "--t-max", "3",
                     "--t-points", "4"]) == 0
    rows_out = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[0] for r in rows_out] == ["0", "2"]
    assert rows_out[1].split(",")[2] == "nan"


@pytest.mark.parametrize("kernel, n_k", [(rate_function_grid, 2001),
                                         (raw_winding_grid, 2001),
                                         (raw_winding_grid, 401)])
def test_grid_kernels_run_in_bounded_memory(kernel, n_k):
    # the 2,000,000-value cap of the CLI: 999 t against 2001 k, and the
    # winding trace's own default grid of 401 k. All rows at once would take
    # 32 MB of complex overlap; chunks keep the peak below 1 MB, as for the
    # RK4 oracle
    ts = np.linspace(0.0, 6.0, 999)
    _uniform_band_weights(EXAMPLE2, "minus", n_k)
    tracemalloc.start()
    try:
        kernel(EXAMPLE2, "minus", ts, n_k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_library_refuses_times_doubles_cannot_resolve():
    # past t = 2^44 doubles are spaced 1e-3 T or wider for T = 2: w t is
    # noise, so each quantity raises TimeUnresolved (or, on the winding
    # grid, stops its rows), with or without critical times; just below,
    # it answers, and a NaN t reads as NaN
    below = math.nextafter(2.0 ** 44, 0.0)
    for p in (EXAMPLE1, EXAMPLE2):
        for t in (2.0 ** 44, 1e17, -1e300):
            for call in (lambda: rate_function(p, "minus", t),
                         lambda: rate_function_grid(p, "minus", [0.0, t]),
                         lambda: geometric_phase(p, "minus", 0.7, t),
                         lambda: geometric_phase_grid(p, "minus", 0.7,
                                                      np.array([t, 1.0])),
                         lambda: return_probability(p, 0.7, t),
                         lambda: return_probability_grid(p, 0.7,
                                                         [[t], [0.0]]),
                         lambda: winding_number(p, "minus", t),
                         lambda: raw_winding_grid(p, "minus",
                                                  [1.0, t, 0.5])):
                with pytest.raises(TimeUnresolved,
                                   match=re.escape(f"{abs(t)} is resolved")):
                    call()
        assert math.isfinite(rate_function(p, "minus", below))
        assert math.isfinite(geometric_phase(p, "minus", 0.7, below))
        assert math.isfinite(return_probability(p, 0.7, below))
        g = rate_function_grid(p, "minus", [below, math.nan, 1.0])
        assert math.isnan(g[1]) and np.isfinite(g[[0, 2]]).all()
        prob = return_probability_grid(p, 0.7, [math.nan, below])
        assert math.isnan(prob[0]) and math.isfinite(prob[1])
    # the closed form of nu reads t/T only on a drive with critical times:
    # example1's, and example1 x 2^1020's, where t/T overflows at 1e300
    huge = DRIVES["example1*2^1020"]
    for p, t in ((EXAMPLE1, 2.0 ** 44), (EXAMPLE1, 1e17), (EXAMPLE1, -1e300),
                 (huge, 1e300)):
        with pytest.raises(TimeUnresolved,
                           match=re.escape(f"{abs(t)} is resolved")):
            exact_winding_grid(p, "minus", [1.0, t])
    nu = exact_winding_grid(EXAMPLE1, "minus", [below, math.nan])
    assert math.isfinite(nu[0]) and math.isnan(nu[1])


def test_point_guard_refuses_times_doubles_cannot_resolve():
    # every scalar API behind gap_guard: after the finite check and the gap,
    # TimeUnresolved past t = 2^44 for T = 2, and an answer just below
    below = math.nextafter(2.0 ** 44, 0.0)
    calls = (lambda p, k, t: return_amplitude(p, "minus", k, t).value,
             lambda p, k, t: propagator_analytic(p, k, t),
             lambda p, k, t: total_phase(p, "minus", k, t),
             lambda p, k, t: dynamical_phase(p, "minus", k, t),
             lambda p, k, t: bloch_expectations(p, "minus", k, t),
             lambda p, k, t: geometric_phase_from_tomography(p, k, t))
    for call in calls:
        for p in (EXAMPLE1, EXAMPLE2):
            for t in (2.0 ** 44, 1e17, 1e300):
                with pytest.raises(TimeUnresolved,
                                   match=re.escape(f"{t} is resolved")):
                    call(p, 0.7, t)
            assert np.isfinite(call(p, 0.7, below)).all()
        with pytest.raises(GaplessPoint):
            call(DRIVES["gapless0"], 0.0, 1e300)
        with pytest.raises(ValueError):
            call(EXAMPLE1, 0.7, math.nan)
