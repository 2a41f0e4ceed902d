import cmath
import inspect
import itertools
import math
import pickle
import sys
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floquet_dqpt import dqpt, dynamics, geometry, model, topology
from floquet_dqpt.cli import PRESETS
from floquet_dqpt.dqpt import fisher_tau_grid
from floquet_dqpt.dynamics import return_amplitude, return_probability
from floquet_dqpt.errors import (GaplessPoint, NearCriticalTime,
                                 NumericalGuardError, PhaseUndefined,
                                 TimeUnresolved, UndefinedTau)
from floquet_dqpt.geometry import dynamical_phase, geometric_phase
from floquet_dqpt.model import (T_GUARD_FRACTION, ModelParams,
                                bloch_components, band_energy, band_weights,
                                gap_guard, min_half_gap, normal_field,
                                require_resolved_time)

import api
from api import random_params
from conftest import EXAMPLE1
from oracles import (SIGMA_Y, SIGMA_Z, hamiltonian_lab, micromotion,
                     rotating_frame_hamiltonian)
from test_datasets import load_script

param_floats = st.floats(-5.0, 5.0, allow_nan=False)
k_floats = st.floats(0.0, math.pi, allow_nan=False)


def small_params(w, d1, d2, amp):
    return ModelParams(omega_drive=w, delta1=d1, delta2=d2, omega_amp=amp)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega_drive=0.0, delta1=1.0, delta2=1.0, omega_amp=1.0)
    with pytest.raises(ValueError):
        ModelParams(omega_drive=1.0, delta1=math.inf, delta2=1.0,
                    omega_amp=1.0)
    assert EXAMPLE1.period == pytest.approx(2.0)


def test_bloch_components_example_values(ex1):
    b = bloch_components(ex1, math.pi / 3)
    assert b.h_xy == pytest.approx(math.sqrt(3) / 4, abs=1e-15)
    assert b.h_z == pytest.approx(math.pi / 2, abs=1e-15)


def test_bloch_components_endpoints():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = random_params(rng)
        assert bloch_components(p, 0.0).h_xy == 0.0
        assert bloch_components(p, math.pi).h_xy == pytest.approx(0.0,
                                                                  abs=1e-15)
        assert bloch_components(p, 0.0).h_z == \
            pytest.approx(0.5 * (p.delta1 + p.delta2))
        assert bloch_components(p, math.pi).h_z == \
            pytest.approx(0.5 * (p.delta2 - p.delta1))


@given(w=st.floats(0.5, 6.0), d1=param_floats, d2=param_floats,
       amp=param_floats, k=k_floats, t=st.floats(0.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_hamiltonian_lab_hermitian_traceless(w, d1, d2, amp, k, t):
    h = hamiltonian_lab(small_params(w, d1, d2, amp), k, t)
    assert np.abs(h - h.conj().T).max() < 1e-14
    assert abs(np.trace(h)) < 1e-13


def test_hamiltonian_lab_t0_real_and_periodic(ex1):
    h0 = hamiltonian_lab(ex1, 0.9, 0.0)
    assert np.abs(h0.imag).max() == 0.0
    hT = hamiltonian_lab(ex1, 0.9, ex1.period)
    assert np.abs(hT - h0).max() < 1e-14


def test_hamiltonian_lab_quarter_period(ex1):
    # cos -> 0, sin -> 1 at t = T/4
    h = hamiltonian_lab(ex1, math.pi / 3, ex1.period / 4)
    b = bloch_components(ex1, math.pi / 3)
    expected = b.h_xy * SIGMA_Y + b.h_z * SIGMA_Z
    assert np.abs(h - expected).max() < 1e-14
    # cross-check against the rotating-frame transform
    t = ex1.period / 4
    ur = micromotion(ex1, t)
    dur = np.array([[0, 0], [0, 1j * ex1.omega_drive
                             * np.exp(1j * ex1.omega_drive * t)]])
    hf = rotating_frame_hamiltonian(ex1, math.pi / 3)
    rebuilt = ur @ (hf + 1j * ur.conj().T @ dur) @ ur.conj().T
    assert np.abs(h - rebuilt).max() < 1e-12


def test_band_energy_example_point(ex1):
    k = math.pi / 3
    assert float(band_energy(ex1, "minus", k)) == pytest.approx(
        math.pi / 2 - math.sqrt(3) / 4, abs=1e-14)
    assert float(band_energy(ex1, "plus", k)) == pytest.approx(
        math.pi / 2 + math.sqrt(3) / 4, abs=1e-14)
    b = bloch_components(ex1, k)
    assert 2.0 * math.hypot(b.h_xy, b.h_z - 0.5 * ex1.omega_drive) == \
        pytest.approx(math.sqrt(3) / 2, abs=1e-14)
    # chi_pm = (1, +-1)/sqrt(2) up to global phase: equal weights
    for band in ("minus", "plus"):
        assert band_weights(ex1, band, k) == pytest.approx((0.5, 0.5),
                                                           abs=1e-14)


def test_zone_edge_convention():
    # h_xy = 0 with h_z > w/2: the sz basis states, the upper band up
    p = ModelParams(omega_drive=1.0, delta1=1.0, delta2=2.0, omega_amp=1.0)
    assert band_weights(p, "plus", 0.0) == (1.0, 0.0)
    assert band_weights(p, "minus", 0.0) == (0.0, 1.0)


def test_gapless_point_raised():
    # k_c with h_xy(k_c) = 0 happens when |(w - d2)/d1| = 1: gap closes at
    # the zone edge. Build one directly: h_xy(0) = 0, h_z(0) = w/2.
    p = api.DRIVES["gapless0"]
    with pytest.raises(GaplessPoint):
        gap_guard(p, 0.0)


def test_gap_guard_is_the_scalar_guard():
    # the scalar phases and return probability take the guard alone; it
    # raises the same error with the same message before any other guard
    p = api.DRIVES["gapless0"]
    with pytest.raises(GaplessPoint) as want:
        gap_guard(p, 0.0)
    for fn in (lambda p, k: return_probability(p, k, 1.0),
               lambda p, k: dynamical_phase(p, "plus", k, 1.0),
               lambda p, k: geometric_phase(p, "minus", k, 1.0)):
        with pytest.raises(GaplessPoint) as got:
            fn(p, 0.0)
        assert str(got.value) == str(want.value)
    rng = np.random.default_rng(11)
    for _ in range(50):
        q, k = random_params(rng), rng.uniform(0.0, math.pi)
        # it returns the normal form's field, 2^-e times the physical one
        field = gap_guard(q, k)
        assert field == normal_field(q, k)
        unit, w = q.normal_form[:2]
        h_xy, h_z, _, half_gap = (x * unit for x in field)
        b = bloch_components(q, k)
        assert (h_xy, h_z) == (b.h_xy, b.h_z)
        assert band_energy(q, "plus", k) - band_energy(q, "minus", k) == \
            pytest.approx(2.0 * half_gap)
        assert field[2] == field[1] - 0.5 * w


def reference_masks(p, t):
    """The time rule written out at one float t: unresolved where
    ulp(t) >= the guard window, else near where |t| lies within that window
    of its nearest critical time (2n-1) T/2; a NaN t is neither."""
    guard = T_GUARD_FRACTION * p.period
    if math.isnan(t):
        return False, False
    if math.ulp(t) >= guard:
        return True, False
    half = 0.5 * p.period
    a = abs(t)
    n = max(1, round((a / half + 1) / 2))
    return False, abs(a - (2 * n - 1) * half) < guard


def mask_times(rng, p, n):
    """n times of each kind the rule separates, each with a random sign:
    0, NaN, uniform over +-10 periods, critical times (2m-1) T/2, the
    window's edges around them (and one ulp either side), powers of two
    from 2^30 to 2^60 and their neighbours (the resolution limit for these
    periods), and magnitudes from 2^-60 to 2^1000."""
    half, guard = 0.5 * p.period, T_GUARD_FRACTION * p.period
    crit = (2.0 * rng.integers(1, 10 ** 6, n) - 1.0) * half
    edge = crit + rng.choice([-1.0, 1.0], n) * guard
    nudged = np.nextafter(edge, rng.choice([-np.inf, np.inf], n))
    edge = np.where(rng.random(n) < 0.5, edge, nudged)
    powers = np.ldexp(1.0, rng.integers(30, 61, n))
    powers = np.nextafter(powers, rng.choice([-np.inf, 0.0, np.inf], n))
    kinds = (np.full(n, 0.0), rng.uniform(-10.0, 10.0, n) * p.period,
             crit, edge, powers, np.ldexp(1.0, rng.integers(-60, 1001, n)))
    ts = np.choose(rng.integers(0, len(kinds), n), kinds)
    ts *= rng.choice([-1.0, 1.0], n)
    ts[rng.random(n) < 0.01] = np.nan
    return ts


def guard_outcome(p, t):
    """The exception type geometry's time guard raises at a float t, or
    None: the outcome the written-out rule predicts is compared to it."""
    try:
        geometry._time_guard(p, t)
    except (ValueError, TimeUnresolved, NearCriticalTime) as err:
        return type(err)
    return None


def test_time_limit_equals_the_ulp_rule(monkeypatch):
    # |t| >= time_limit over arrays and at each float, the near-critical
    # test at each float, and require_resolved_time on arrays: 200 draws of
    # 600 times each
    rng = np.random.default_rng(20261018)
    seen = np.zeros(3, int)
    for _ in range(200):
        p = random_params(rng)
        has_dqpt = dqpt.dqpt_condition(p).has_dqpt
        ts = mask_times(rng, p, 600)
        want = np.array([reference_masks(p, t) for t in ts.tolist()])
        unresolved = np.abs(ts) >= p.time_limit
        assert np.array_equal(unresolved, want[:, 0])
        assert [abs(t) >= p.time_limit for t in ts.tolist()] \
            == want[:, 0].tolist()
        expected = [ValueError if math.isnan(t) else TimeUnresolved if u
                    else NearCriticalTime if near and has_dqpt else None
                    for t, (u, near) in zip(ts.tolist(), want.tolist())]
        assert [guard_outcome(p, t) for t in ts.tolist()] == expected
        for rows in (slice(None), slice(rng.integers(1, 20)), ~want[:, 0]):
            part = ts[rows]
            largest = max((abs(t) for t in part.tolist() if t == t),
                          default=0.0)
            if want[rows, 0].any():
                with pytest.raises(TimeUnresolved) as got:
                    require_resolved_time(p, part)
                assert str(got.value).startswith(f"t = {largest} is ")
            else:
                assert require_resolved_time(p, part) is None
        seen += unresolved.sum(), want[:, 1].sum() * has_dqpt, \
            np.isnan(ts).sum()
    # every kind occurs: unresolved, near, and NaN (neither)
    assert (seen > 1000).all(), seen
    # the limit is the least power of two whose ulp reaches the window, or
    # inf: 2^44 for T = 2 and 2^40 for T = 0.2; drives from w = 5e-324
    # (an infinite period) to the largest double, at times from 0 to +-inf
    assert EXAMPLE1.time_limit == 2.0 ** 44
    assert PRESETS["nv-plus"].time_limit == 2.0 ** 40
    for w in (5e-324, 1e-310, 1e-300, 1e-10, 0.5, math.pi, 1e10, 1e300,
              1.7e308, sys.float_info.max):
        p = small_params(w, 1.0, 1.0, 1.0)
        window, limit = T_GUARD_FRACTION * p.period, p.time_limit
        ts = [0.0, 5e-324, 2.0 ** -60, 1e300, -(2.0 ** 1000), math.inf,
              -math.inf, math.nan]
        if math.isfinite(limit):
            ts += [limit, -limit, math.nextafter(limit, 0.0)]
        for t in ts:
            assert (abs(t) >= limit) == (t == t
                                         and not math.ulp(t) < window), (w, t)
    assert small_params(1e-300, 1.0, 1.0, 1.0).time_limit == math.inf
    # the limit is computed once per instance: the params stay frozen (the
    # limit too), a new drive reads its own limit, and equal params stay
    # equal, with equal hashes, whether or not they have read it
    read, unread = api.replaced(EXAMPLE1), api.replaced(EXAMPLE1)
    assert read.time_limit == 2.0 ** 44
    assert "time_limit" in vars(read) and "time_limit" not in vars(unread)
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread)
    assert pickle.loads(pickle.dumps(read)) == unread
    for name in ("omega_drive", "time_limit"):
        with pytest.raises(AttributeError):
            setattr(read, name, 1.0)
    faster = api.replaced(read, omega_drive=10.0 * math.pi)
    assert faster.time_limit == 2.0 ** 40
    # a window that is a power of two, 2^-10 T = 2^-9 for T = 2: the ulp of
    # 2^43 reaches it, the ulp of its predecessor does not. An instance
    # that has not read its limit yet reads the new window; one that has
    # keeps its limit
    monkeypatch.setattr(model, "T_GUARD_FRACTION", 2.0 ** -10)
    assert unread.time_limit == 2.0 ** 43 and read.time_limit == 2.0 ** 44
    assert guard_outcome(unread, -(2.0 ** 1000)) is TimeUnresolved
    assert guard_outcome(unread, 2.0 ** -60) is None


NON_FINITE = (math.nan, math.inf, -math.inf)
POINT_ROWS = [row for row in api.API if row.kind == "point"]


def test_the_api_table_has_one_row_per_public_function():
    # and each row's arguments are its function's parameters, in order
    public = sorted(
        (module, fn.__name__) for module in api.MODULES
        for fn in vars(import_module(f"floquet_dqpt.{module}")).values()
        if inspect.isfunction(fn) and not fn.__name__.startswith("_")
        and fn.__module__ == f"floquet_dqpt.{module}")
    assert sorted((row.module, row.name) for row in api.API) == public
    for row in api.API:
        assert [*inspect.signature(row.fn).parameters] == [*row.roles], row


def test_bits_ab_calls_every_row_of_the_api_table():
    # its call list is the table's rows expanded, built here without being
    # run: a new public function is in the next record once it has a row
    calls = load_script("bits_ab").call_list(api)
    assert {row for _, row, _ in calls} == set(api.API)
    assert len({label for label, _, _ in calls}) == len(calls) > 30000


# the guard errors a scalar API may raise where its kernel reads a marker
REFUSALS = {"geometric_phase": PhaseUndefined, "fisher_tau": UndefinedTau,
            "geometric_phase_from_tomography": PhaseUndefined}


def test_scalar_apis_are_their_public_kernels_at_the_point():
    # each scalar API is gap_guard (or its own guard) and then its row's
    # kernel at the point, bit for bit, signed zeros and the point where
    # |G| = 0 (example1's (k_c, t_c) = (pi/3, 1)) included. Where it refuses,
    # the kernel reads math.nan (PhaseUndefined) or the limit of tau the
    # message names (UndefinedTau; NaN: both limits at once). The return
    # amplitude's kernel is written out
    def same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert api.bits(got) == api.bits(want)

    rng, refused = np.random.default_rng(7), set()
    for p in (EXAMPLE1, PRESETS["nv-minus"], random_params(rng)):
        points = [(0.0, 0.3 * p.period), (math.pi, -0.7 * p.period),
                  (math.pi / 3, 1.0),
                  (rng.uniform(0.0, math.pi), rng.uniform(-3.0, 3.0)
                   * p.period)]
        for k, t in points:
            for row, args, want in api.kernel_calls(p, k, t):
                try:
                    got = row.call(args)
                except REFUSALS.get(row.name, ()) as err:
                    refused.add(type(err))
                    if type(err) is UndefinedTau:  # NaN: both limits at once
                        limit = float(str(err).rpartition(" ")[2])
                        assert want == limit or limit < 0 and np.isnan(want)
                        continue
                    got = math.nan
                same(got, want)
            for band in api.BANDS:
                e = float(band_energy(p, band, k))
                overlap = dynamics.micromotion_overlap(
                    p, *band_weights(p, band, k), t)
                same(return_amplitude(p, band, k, t).value,
                     cmath.exp(-1j * e * t) * complex(overlap))
    assert refused == {PhaseUndefined, UndefinedTau}


# k = 0 (h_xy = 0), an interior k and k = pi, where hypot rounds Delta/2
# to |dz| for example1; delta1 + delta2 = w closes the gap at k = 0
MARKER_GRIDS = [(EXAMPLE1, np.array([0.0, 0.7, math.pi])),
                (small_params(3.0, 1.0, 2.0, 1.0),
                 np.array([0.0, 0.7, math.pi]))]


def assert_same_bits(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64),
                          want[~nan].view(np.uint64))


def test_band_weights_equal_the_masked_formula():
    # NaN where the gap closes comes from 0/0, not from a mask
    seen_nan = False
    for p, ks in MARKER_GRIDS:
        _, _, dz, half_gap = normal_field(p, ks)
        zt = np.where(half_gap > 0,
                      dz / np.where(half_gap > 0, half_gap, 1.0), np.nan)
        for band, sign in (("minus", -1.0), ("plus", 1.0)):
            wa = 0.5 * (1.0 + sign * zt)
            got = band_weights(p, band, ks)
            assert_same_bits(got[0], wa)
            assert_same_bits(got[1], 1.0 - wa)
            seen_nan |= bool(np.isnan(wa).any())
    assert seen_nan


def test_fisher_tau_grid_equals_the_masked_formula():
    # the +-inf and NaN markers come from log 0 = -inf, not from masks
    seen = set()
    for p, ks in MARKER_GRIDS:
        b = bloch_components(p, ks)
        for band in ("minus", "plus"):
            num = np.abs(b.h_xy)
            den = np.abs(band_energy(p, band, ks) - b.h_z)
            want = np.full_like(ks, np.nan)
            want[(num == 0) & (den > 0)] = -np.inf
            want[(den == 0) & (num > 0)] = np.inf
            ok = (num > 0) & (den > 0)
            want[ok] = (2.0 / p.omega_drive) * (np.log(num[ok])
                                                - np.log(den[ok]))
            assert_same_bits(fisher_tau_grid(p, band, ks), want)
            seen |= {repr(float(x)) for x in want if not np.isfinite(x)}
            scalar = fisher_tau_grid(p, band, ks[0])
            assert isinstance(scalar, np.ndarray) and scalar.ndim == 0
            assert_same_bits(scalar[None], want[:1])
    assert seen == {"-inf", "inf", "nan"}


@pytest.mark.parametrize("row", POINT_ROWS, ids=lambda row: row.name)
def test_scalar_apis_refuse_non_finite_points(ex1, row):
    # ValueError from the point guard, before any kernel sees the NaN, at
    # each band and each of k and t the API takes
    for _, _, args in api.calls({"params": ex1}, [0.7], [0.5], rows=[row]):
        for role, x in itertools.product(row.takes & {"k", "t"}, NON_FINITE):
            with pytest.raises(ValueError):
                row.call({**args, role: x})
        row.call(args)  # a finite point passes


def test_scalar_band_apis_check_the_point_before_the_band():
    # an invalid band never hides the point's error: each point API with a
    # band raises, with band "bogus", what gap_guard raises at each point it
    # takes: a NaN k, the gapless k = 0 of (1, 1, 0, 1) (with a t), a NaN t
    # and a t doubles cannot resolve
    p = ModelParams(omega_drive=1.0, delta1=1.0, delta2=0.0, omega_amp=1.0)
    rows = [row for row in POINT_ROWS if "band" in row.takes]
    for roles, k, t in (({"k"}, math.nan, 0.5), ({"k", "t"}, 0.0, 0.5),
                        ({"t"}, 0.7, math.nan), ({"t"}, 0.7, 1e300)):
        with pytest.raises((ValueError, GaplessPoint,
                            TimeUnresolved)) as point:
            gap_guard(p, k, t)
        for row in rows:
            if roles <= row.takes:
                with pytest.raises(type(point.value)) as got:
                    row.call({"params": p, "band": "bogus", "k": k, "t": t})
                assert str(got.value) == str(point.value), row.name
    for row in rows:  # a good point reaches the band check; without a k the
        # API reads the whole zone, whose gap closes on p, so example1's
        with pytest.raises(ValueError, match="band must be"):
            row.call({"params": p if "k" in row.takes else EXAMPLE1,
                      "band": "bogus", "k": 0.7, "t": 0.5})


def test_micromotion_special_times(ex1):
    assert np.allclose(micromotion(ex1, 0.0), np.eye(2))
    assert np.allclose(micromotion(ex1, ex1.period / 2),
                       np.diag([1.0, -1.0]))
    assert np.allclose(micromotion(ex1, ex1.period), np.eye(2))


def test_rotating_frame_identity():
    # U_R^dag H U_R - i U_R^dag dU_R/dt == H_F on a (k, t) grid
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_params(rng)
        w = p.omega_drive
        for k in np.linspace(0.0, math.pi, 7):
            hf = rotating_frame_hamiltonian(p, k)
            for t in np.linspace(0.0, p.period, 5):
                ur = micromotion(p, t)
                dur = np.array([[0, 0],
                                [0, 1j * w * np.exp(1j * w * t)]])
                lhs = ur.conj().T @ hamiltonian_lab(p, k, t) @ ur \
                    - 1j * ur.conj().T @ dur
                assert np.abs(lhs - hf).max() < 1e-10


def test_floquet_mode_solves_schroedinger(ex1):
    # central finite difference on psi(t) = e^{-iEt} U_R(t) chi
    h = ex1.period / 1e6
    for k in (0.4, 1.2, 2.5):
        energies, modes = np.linalg.eigh(rotating_frame_hamiltonian(ex1, k))
        for e, chi in zip(energies, modes.T):
            for t in (0.3, 1.7):
                def psi(s):
                    return np.exp(-1j * e * s) * (micromotion(ex1, s) @ chi)
                lhs = (psi(t + h) - psi(t - h)) / (2 * h)
                rhs = -1j * hamiltonian_lab(ex1, k, t) @ psi(t)
                assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-6


def test_critical_momentum_equal_amplitude():
    rng = np.random.default_rng(23)
    found = 0
    while found < 20:
        p = random_params(rng)
        if abs(p.omega_drive - p.delta2) > abs(p.delta1) or p.delta1 == 0:
            continue
        k_c = math.acos((p.omega_drive - p.delta2) / p.delta1)
        try:
            gap_guard(p, k_c)
        except GaplessPoint:
            continue
        _, modes = np.linalg.eigh(rotating_frame_hamiltonian(p, k_c))
        for band, chi in zip(("minus", "plus"), modes.T):
            assert abs(abs(chi[0]) - abs(chi[1])) < 1e-10
            wa, wb = band_weights(p, band, k_c)
            assert abs(wa - wb) < 1e-10
        found += 1


def test_band_helpers_match_solution():
    # oracle: numerical eigendecomposition of the explicitly built H_F
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = random_params(rng)
        k = rng.uniform(0.0, math.pi)
        energies, modes = np.linalg.eigh(rotating_frame_hamiltonian(p, k))
        for band, e, chi in zip(("minus", "plus"), energies, modes.T):
            assert float(band_energy(p, band, k)) == pytest.approx(e,
                                                                   abs=1e-12)
            wa, wb = band_weights(p, band, k)
            assert float(wa) == pytest.approx(abs(chi[0]) ** 2, abs=1e-12)
            assert float(wb) == pytest.approx(abs(chi[1]) ** 2, abs=1e-12)
        assert float(band_energy(p, "plus", k) + band_energy(p, "minus", k)) \
            == pytest.approx(p.omega_drive, abs=1e-12)


def test_min_half_gap_against_dense_grid():
    # exact minimum of Delta/2 = |(h_z - w/2, h_xy)| over the zone: never
    # above the sampled minimum, and within the grid's resolution of it; half
    # the draws have delta1^2 = Omega^2, where the quadratic in cos k is
    # linear
    rng = np.random.default_rng(73)
    k = np.linspace(-math.pi, math.pi, 200_001)
    for i in range(40):
        p = random_params(rng)
        if i % 2:
            p = ModelParams(p.omega_drive, p.delta1, p.delta2,
                            math.copysign(p.delta1, p.omega_amp))
        b = bloch_components(p, k)
        sampled = np.hypot(b.h_z - 0.5 * p.omega_drive, b.h_xy).min()
        exact = min_half_gap(p)
        assert exact <= sampled + 1e-15
        assert sampled - exact < 1e-8 * p.scale


def test_min_half_gap_scales_exactly_with_the_drive():
    # scaling every parameter by 2^+-600 scales Delta/2 by exactly 2^+-600:
    # no square of a parameter overflows or underflows on the way
    rng = np.random.default_rng(74)
    for i in range(200):
        p = random_params(rng)
        if i % 2:
            p = ModelParams(p.omega_drive, p.delta1, p.delta2,
                            math.copysign(p.delta1, p.omega_amp))
        for e in (-600, 600):
            scaled = api.scaled(p, 2.0 ** e)
            assert min_half_gap(scaled) == math.ldexp(min_half_gap(p), e)


def test_min_half_gap_is_a_float_whatever_the_field_types():
    # a drive built from numpy.float64 fields gets the float the same drive
    # in Python floats gets, bits and all; the seeded draws reach both the
    # endpoint and the vertex branch
    rng = np.random.default_rng(75)
    for _ in range(20):
        fields = rng.uniform([0.5, -5.0, -5.0, -5.0], [6.0, 5.0, 5.0, 5.0])
        gap = min_half_gap(ModelParams(*fields))
        assert type(gap) is float
        assert api.bits(gap) == api.bits(
            min_half_gap(ModelParams(*fields.tolist())))


def errors_at_scale(s):
    # (s, 0.8 s, 1.1 s, 0) closes its gap at the interior vertex cos k =
    # -1/8, which a square overflowing (s > 1e154) or underflowing
    # (s < 1e-154) would hide
    p = api.scaled(api.VERTEX, s)
    out = [min_half_gap(p) < 1e-15 * s]
    for call in (lambda: topology.chiral_winding_numbers(p),
                 lambda: geometry.exact_winding(p, "minus", p.period / 4)):
        with pytest.raises(NumericalGuardError) as err:
            call()
        out.append(type(err.value))
    return out


def test_gap_closing_at_the_vertex_is_seen_at_every_scale():
    at_one = errors_at_scale(1.0)
    assert at_one == [True, GaplessPoint, GaplessPoint]
    for s in (1e-300, 1e160, 1e300):
        assert errors_at_scale(s) == at_one
