import cmath
import math

import numpy as np
import pytest

from floquet_dqpt.errors import (DegenerateDelta1, GaplessPoint,
                                 GridTooCoarse, NearCriticalTime,
                                 NumericalGuardError, PhaseUndefined,
                                 TimeUnresolved)
from floquet_dqpt import dynamics, geometry, model
from floquet_dqpt.cli import PRESETS
from floquet_dqpt.model import band_energy, bloch_components
from floquet_dqpt.dynamics import propagator_oracle, return_probability
from floquet_dqpt.geometry import (bloch_expectations, bloch_vector_grid,
                                   dynamical_phase, exact_winding,
                                   exact_winding_grid, geometric_phase,
                                   geometric_phase_grid,
                                   geometric_phase_from_tomography,
                                   principal_branch, tomography_phase_grid,
                                   total_phase, winding_number,
                                   wrapped_winding)

from api import DRIVES, random_params, replaced
from oracles import micromotion, rotating_frame_hamiltonian

K_C1 = math.pi / 3  # critical momentum of the first example set


def eigenvector_phases(p, k, t):
    """(total, dynamical) phases of the lower band from its eigenvector.

    total = arg(<chi| U_R(t) |chi> e^{-i E t}) and dynamical =
    -<chi| H_R |chi> t with H_R = h_xy sx + h_z sz built as a matrix; the
    reference for the band-weight closed forms of the library.
    """
    energies, modes = np.linalg.eigh(rotating_frame_hamiltonian(p, k))
    chi = modes[:, 0]
    b = bloch_components(p, k)
    h_r = np.array([[b.h_z, b.h_xy], [b.h_xy, -b.h_z]], dtype=complex)
    overlap = chi.conj() @ micromotion(p, t) @ chi
    total = cmath.phase(overlap * cmath.exp(-1j * energies[0] * t))
    return total, -float((chi.conj() @ h_r @ chi).real) * t


def test_principal_branch():
    assert principal_branch(3 * math.pi) == pytest.approx(math.pi)
    assert principal_branch(-math.pi / 2) == pytest.approx(-math.pi / 2)
    arr = principal_branch(np.array([0.0, 2 * math.pi, -3 * math.pi]))
    assert arr[:2] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert abs(arr[2]) == pytest.approx(math.pi, abs=1e-12)


def test_principal_branch_equals_complex_round_trip_bit_for_bit():
    # the reference is the complex route arg(e^{ix}); comparing the int64
    # views tells -0.0 from +0.0 and holds NaN equal to NaN
    def round_trip(x):
        return np.angle(np.exp(1j * x))

    rng = np.random.default_rng(29)
    draws = np.concatenate([rng.uniform(-10.0 ** m, 10.0 ** m, 20_000)
                            for m in (-6, -1, 0, 1, 2, 4, 8, 15)])
    edges = np.array([0.0, -0.0, math.pi, -math.pi, 2 * math.pi,
                      -2 * math.pi, 1e300, -1e300, 5e-324, -5e-324, np.nan])
    for x in (draws, edges):
        assert np.array_equal(principal_branch(x).view(np.int64),
                              round_trip(x).view(np.int64))
    for x in edges:
        assert (np.float64(principal_branch(float(x))).view(np.int64)
                == round_trip(np.float64(x)).view(np.int64))


def test_principal_branch_leaves_its_argument_and_scalar_type():
    # the grid rows wrap their own buffers in place; principal_branch
    # writes only a fresh result, a numpy.float64 for a scalar
    x = np.random.default_rng(30).uniform(-100.0, 100.0, 1000)
    before = x.copy()
    principal_branch(x)
    assert np.array_equal(x.view(np.int64), before.view(np.int64))
    for scalar in (3.0, np.float64(-7.5), np.array(11.0)):
        assert type(principal_branch(scalar)) is np.float64


def test_phase_decomposition(ex1):
    rng = np.random.default_rng(13)
    for _ in range(20):
        k = rng.uniform(0.1, math.pi - 0.1)
        t = rng.uniform(0.0, 4.0)
        if return_probability(ex1, k, t) < 1e-6:
            continue
        total = total_phase(ex1, "minus", k, t)
        dynamical = dynamical_phase(ex1, "minus", k, t)
        geometric = geometric_phase(ex1, "minus", k, t)
        assert geometric == pytest.approx(
            principal_branch(total - dynamical), abs=1e-12)
        ref_total, ref_dynamical = eigenvector_phases(ex1, k, t)
        assert dynamical == pytest.approx(ref_dynamical, abs=1e-12)
        assert abs(principal_branch(total - ref_total)) < 1e-12


def test_total_phase_closed_form_at_critical_momentum(ex1):
    # equal band weights make arg<chi|U_R|chi> = w t / 2 below the jump
    t = 0.4 * ex1.period
    e = float(band_energy(ex1, "minus", K_C1))
    expected = principal_branch(-e * t + 0.5 * ex1.omega_drive * t)
    assert total_phase(ex1, "minus", K_C1, t) == pytest.approx(expected,
                                                              abs=1e-10)


def test_dynamical_phase_at_critical_momentum(ex1):
    # <H_R> = E_minus - w/2 exactly at k_c (equal weights, <sz> = 0)
    e = float(band_energy(ex1, "minus", K_C1))
    for t in (0.3, 1.1, 2.6):
        assert dynamical_phase(ex1, "minus", K_C1, t) == pytest.approx(
            -e * t + 0.5 * ex1.omega_drive * t, abs=1e-10)


def test_dynamical_phase_against_quadrature():
    # oracle: integrate <psi(t)| H_R |psi(t)> dt; the integrand is constant,
    # so compare against a fine Riemann sum built from evolved oracle states
    rng = np.random.default_rng(19)
    for _ in range(5):
        p = random_params(rng)
        k = rng.uniform(0.2, math.pi - 0.2)
        chi = np.linalg.eigh(rotating_frame_hamiltonian(p, k))[1][:, 0]
        t = 0.8 * p.period
        n = 400
        ts = (np.arange(n) + 0.5) * (t / n)
        b = bloch_components(p, k)
        h_r = np.array([[b.h_z, b.h_xy], [b.h_xy, -b.h_z]], dtype=complex)
        acc = 0.0
        for s in ts:
            u = propagator_oracle(p, k, s, steps=256)
            psi = u @ chi
            # undo the micromotion so the state lives in the rotating frame
            chi_t = micromotion(p, s).conj().T @ psi
            acc += float((chi_t.conj() @ h_r @ chi_t).real)
        quad = -acc * (t / n)
        assert dynamical_phase(p, "minus", k, t) == pytest.approx(quad,
                                                                 abs=1e-5)


def test_geometric_phase_pi_jump(ex1):
    eps = ex1.period / 1000
    t_c = 1.0
    before = geometric_phase(ex1, "minus", K_C1, t_c - eps)
    after = geometric_phase(ex1, "minus", K_C1, t_c + eps)
    assert before == pytest.approx(0.0, abs=1e-10)
    assert abs(after) == pytest.approx(math.pi, abs=1e-10)
    # the jump is by pi exactly, modulo 2 pi
    assert abs(principal_branch(after - before - math.pi)) < 1e-10


def test_phase_undefined_at_amplitude_zero(ex1):
    with pytest.raises(PhaseUndefined):
        total_phase(ex1, "minus", K_C1, 1.0)  # |G| = 0 exactly
    with pytest.raises(PhaseUndefined):
        geometric_phase(ex1, "minus", K_C1, 1.0)


def test_geometric_phase_grid_matches_scalar(ex1):
    # per-k reference from the eigenvector route, not from the grid kernel
    ks = np.linspace(0.15, math.pi - 0.15, 25)
    t = 0.8
    grid = geometric_phase_grid(ex1, "minus", ks, t)
    for k, val in zip(ks, grid):
        total, dynamical = eigenvector_phases(ex1, k, t)
        assert abs(principal_branch(val - (total - dynamical))) < 1e-10


def test_geometric_phase_grid_nan_at_zero(ex1):
    grid = geometric_phase_grid(ex1, "minus", np.array([0.3, K_C1]), 1.0)
    assert np.isfinite(grid[0])
    assert np.isnan(grid[1])


def test_winding_number_sequence(ex1):
    assert winding_number(ex1, "minus", 0.5) == 0
    assert winding_number(ex1, "minus", 2.0) == 1
    assert winding_number(ex1, "minus", 4.0) == 2
    assert winding_number(ex1, "minus", 5.5) == 3


def test_winding_jumps_at_critical_times(ex1):
    eps = ex1.period / 100
    for n, t_c in enumerate((1.0, 3.0, 5.0)):
        assert winding_number(ex1, "minus", t_c - eps) == n
        assert winding_number(ex1, "minus", t_c + eps) == n + 1


def test_winding_long_time_grid_guard(ex1):
    # at 400 periods (w t/2)<sz> moves by about 6.2 rad between adjacent k
    # samples of the default grid; the wrapped sum aliases to an integer
    # (81 instead of 400), so the guard must refuse
    with pytest.raises(GridTooCoarse):
        winding_number(ex1, "minus", 800.0)
    assert winding_number(ex1, "minus", 20.0) == 10


def test_winding_zero_without_transition(ex2):
    for t in (0.5, 1.0, 2.0, 4.0, 5.5):
        assert winding_number(ex2, "minus", t) == 0


def test_winding_quantization(ex1):
    for t in (0.5, 2.0, 4.0):
        nu, raw = winding_number(ex1, "minus", t, return_raw=True)
        assert abs(raw - nu) <= 0.05


def test_winding_guards(ex1, ex2):
    with pytest.raises(NearCriticalTime):
        winding_number(ex1, "minus", 1.0 + 1e-5)
    # no transition, no critical time to guard against
    assert winding_number(ex2, "minus", 1.0 + 1e-5) == 0
    with pytest.raises(ValueError):
        winding_number(ex1, "minus", 0.5, k_grid_size=100)


@pytest.mark.parametrize("winding", [exact_winding, winding_number])
@pytest.mark.parametrize("n", [1, 2])
def test_winding_guards_negative_critical_times(ex1, winding, n):
    # t = -(2n-1) T/2 is as critical as +(2n-1) T/2: inside its window the
    # two routes need not agree; away from it both give nu(-t) = -nu(t)
    t_c = -(2 * n - 1) * 0.5 * ex1.period
    with pytest.raises(NearCriticalTime):
        winding(ex1, "minus", t_c)
    for t in (t_c - 0.1, t_c + 0.1):
        assert winding(ex1, "minus", t) == -winding(ex1, "minus", -t)


def test_exact_winding_matches_grid_oracle():
    # closed form against the wrapped sum over k: random draws, both bands,
    # t up to 30 T, at every t where the grid route returns
    rng = np.random.default_rng(89)
    checked, nonzero = 0, 0
    for _ in range(60):
        p = random_params(rng)
        ts = rng.uniform(0.0, 30.0 * p.period, 10)
        for band in ("minus", "plus"):
            nus = exact_winding_grid(p, band, ts)
            for t, nu in zip(ts.tolist(), nus.tolist()):
                try:
                    expected = winding_number(p, band, t)
                except NumericalGuardError:
                    continue
                assert exact_winding(p, band, t) == expected == nu
                checked += 1
                nonzero += expected != 0
    assert checked > 1000 and nonzero > 300


def test_exact_winding_values_and_guards(ex1, ex2):
    # example1: nu = round(t/T) for the lower band, -round(t/T) for the upper
    for t in (0.5, 2.0, 5.5, 60.0, 1e9):
        assert exact_winding(ex1, "minus", t) == round(t / 2.0)
        assert exact_winding(ex1, "plus", t) == -round(t / 2.0)
    assert exact_winding(ex2, "minus", 1e9) == 0
    assert exact_winding(ex2, "minus", 1.0 + 1e-5) == 0
    with pytest.raises(NearCriticalTime):
        exact_winding(ex1, "minus", 1.0 + 1e-5)
    # doubles near 2^44 are 2^-8 apart, wider than the 2e-3 window around
    # each critical time of example1 (T = 2); near 2^43 they are 2^-9 apart
    assert exact_winding(ex1, "minus", 2.0 ** 43) == 2 ** 42
    for t in (2.0 ** 44, 1e16, 1e300):
        with pytest.raises(TimeUnresolved):
            exact_winding(ex1, "minus", t)
        with pytest.raises(TimeUnresolved):
            winding_number(ex1, "minus", t)
        assert exact_winding(ex2, "minus", t) == 0
    with pytest.raises(DegenerateDelta1):
        exact_winding(replaced(ex1, delta1=0.0, delta2=ex1.omega_drive),
                      "minus", 0.5)
    # the gap closes at k = 0 when delta1 + delta2 = omega, and at the
    # interior k_c when Omega = 0 inside the DQPT region
    for p in (replaced(ex1, delta2=0.0), replaced(ex1, omega_amp=0.0)):
        with pytest.raises(GaplessPoint):
            exact_winding(p, "minus", 0.5)
        with pytest.raises(GaplessPoint):
            exact_winding_grid(p, "minus", [0.5, 2.0])


def test_exact_winding_is_zero_at_every_t_of_a_tiny_period(ex2):
    # without critical times nu = 0 at every t, also where t/T overflows:
    # (1, 1, -1, 1) x 1e308 and example2 x 2^(1022 - e) have T < 2e-307, so
    # t/T is inf from t = 11 and 32 on, which 0 inf turned into NaN. The
    # zero keeps the sign of m t: example2 reads -0 at t < 0 and at t = -0.
    # A non-finite t reads NaN, with no warning, also where time_limit is
    # inf (example2 x 2^-1000)
    for p in (DRIVES["mixed*1e+308"], DRIVES["example2*2^1020"]):
        for band in ("minus", "plus"):
            nu = exact_winding_grid(p, band, [1.0, 12.0, 1e300, math.inf,
                                              -math.inf, math.nan])
            assert nu[:3].tolist() == [0.0, 0.0, 0.0]
            assert np.isnan(nu[3:]).all()
            assert exact_winding(p, band, 12.0) == 0
            assert exact_winding(p, band, 1e300) == 0
    nu = exact_winding_grid(ex2, "minus", [-0.3, -5.0, -0.0, 0.0, 3.0])
    assert np.signbit(nu).tolist() == [True, True, True, False, False]
    assert not nu.any()
    tiny = DRIVES["example2*2^-1000"]
    assert tiny.time_limit == math.inf
    nu = exact_winding_grid(tiny, "minus", [-math.inf, -2.0, -0.0, 0.0,
                                            1e300, math.inf, math.nan])
    assert np.signbit(nu[1:5]).tolist() == [True, True, False, False]
    assert not nu[1:5].any() and np.isnan(nu[[0, 5, 6]]).all()


def test_guards_run_once_per_call(ex1, ex2, monkeypatch):
    # exact_winding reads dqpt_condition once, and once more, through the
    # time rule, only to refuse a t in a guard window; winding_number reads
    # it only near a critical time and then once, and the tomography route
    # guards its point once
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(geometry, name, wrapped)

    counting("dqpt_condition", geometry.dqpt_condition)
    counting("gap_guard", geometry.gap_guard)
    for p, t in ((ex1, 0.5), (ex2, 0.5), (ex2, 1.0 + 1e-5), (ex2, 1e300)):
        calls.clear()
        exact_winding(p, "minus", t)
        assert calls == ["dqpt_condition"]
    for t, error, reads in ((1.0 + 1e-5, NearCriticalTime, 2),
                            (1e300, TimeUnresolved, 1)):
        calls.clear()
        with pytest.raises(error):
            exact_winding(ex1, "minus", t)
        assert calls == ["dqpt_condition"] * reads
    calls.clear()
    winding_number(ex1, "minus", 0.5)
    assert calls == []
    # near T/2 on a drive without critical times the time rule reads the
    # condition, once
    winding_number(ex2, "minus", 1.0 + 1e-5)
    assert calls == ["dqpt_condition"]
    calls.clear()
    geometric_phase_from_tomography(ex1, 0.7, 0.5)
    assert calls == ["gap_guard"]
    # ValueError, then DegenerateDelta1, ahead of the time guards and the gap
    degenerate = replaced(ex1, delta1=0.0, delta2=ex1.omega_drive)
    with pytest.raises(ValueError):
        exact_winding(degenerate, "minus", math.nan)
    for t in (0.5, 1.0, 1e300):
        with pytest.raises(DegenerateDelta1):
            exact_winding(degenerate, "minus", t)


def test_angle_routes_form_the_field_once(ex1, monkeypatch):
    # dynamical_phase and propagator_analytic read the field that the point
    # guard returns, and form no second one; return_amplitude and
    # total_phase read its Delta/2 for the quasienergy phase and form one
    # more, for the band weights
    calls, field = [], model.normal_field

    def counted(*args):
        calls.append(args)
        return field(*args)

    for module in (model, geometry, dynamics):
        monkeypatch.setattr(module, "normal_field", counted, raising=False)
    for route in (lambda: dynamical_phase(ex1, "minus", 0.7, 0.5),
                  lambda: dynamics.propagator_analytic(ex1, 0.7, 0.5)):
        calls.clear()
        route()
        assert len(calls) == 1
    for route in (lambda: dynamics.return_amplitude(ex1, "plus", 0.7, 0.5),
                  lambda: total_phase(ex1, "minus", 0.7, 0.5)):
        calls.clear()
        route()
        assert len(calls) == 2


def test_bloch_expectations_unit_norm_and_initial_values(ex1):
    sx, sy, sz = bloch_expectations(ex1, "minus", K_C1, 0.0)
    assert (sx, sy, sz) == pytest.approx((-1.0, 0.0, 0.0), abs=1e-12)
    sx, sy, sz = bloch_expectations(ex1, "plus", K_C1, 0.0)
    assert (sx, sy, sz) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    for t in (0.4, 1.3):
        v = bloch_expectations(ex1, "minus", 0.9, t)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_bloch_expectations_against_oracle():
    rng = np.random.default_rng(29)
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))
    checked = 0
    while checked < 10:
        p = random_params(rng)
        k = rng.uniform(0.1, math.pi - 0.1)
        t = rng.uniform(0.0, 2.0 * p.period)
        modes = np.linalg.eigh(rotating_frame_hamiltonian(p, k))[1]
        u = propagator_oracle(p, k, t, steps=2048)
        for band, chi in zip(("minus", "plus"), modes.T):
            psi = u @ chi
            expected = [float((psi.conj() @ s @ psi).real) for s in paulis]
            got = bloch_expectations(p, band, k, t)
            assert got == pytest.approx(expected, abs=1e-7)
        checked += 1


def test_bloch_expectations_reject_unknown_band(ex1):
    with pytest.raises(ValueError, match="band"):
        bloch_expectations(ex1, "foo", 0.7, 0.5)


def test_tomography_matches_direct_phase():
    # omega_amp < 0 makes h_xy < 0, which flips the relative sign of the
    # initial mode's components
    rng = np.random.default_rng(37)
    for sign in (1.0, -1.0):
        checked = 0
        while checked < 50:
            p = random_params(rng, positive_amp=True)
            p = replaced(p, omega_amp=sign * p.omega_amp)
            k = rng.uniform(0.05, math.pi - 0.05)
            t = rng.uniform(0.0, 2.0 * p.period)
            try:
                if return_probability(p, k, t) < 0.01:
                    continue
                direct = geometric_phase(p, "minus", k, t)
                tomo = geometric_phase_from_tomography(p, k, t)
            except GaplessPoint:
                continue
            assert abs(principal_branch(tomo - direct)) < 1e-8
            checked += 1


@pytest.mark.parametrize("preset", ["example1", "nv-plus", "nv-minus"])
def test_tomography_at_zone_ends(preset):
    # h_xy = 0 at k = 0 puts the evolved Bloch vector on a pole, where
    # atan2(0, 0) has no azimuth to read; the route takes the limit along
    # the drive's turn, so w t is kept
    p = PRESETS[preset]
    for k in (0.0, math.pi):
        for fraction in (0.3, 0.7, 1.3, 2.4):
            t = fraction * p.period
            tomo = geometric_phase_from_tomography(p, k, t)
            direct = geometric_phase(p, "minus", k, t)
            assert abs(principal_branch(tomo - direct)) < 1e-12


def tomography_winding(p, t, n_k=401):
    """nu as an experiment reads it: the wrapped sum of the tomography
    route's phase over n_k uniform k on [0, pi], both ends included."""
    k = np.linspace(0.0, math.pi, n_k)
    bloch = bloch_vector_grid(p, "minus", k, t)
    return float(wrapped_winding(tomography_phase_grid(p, k, t, bloch))[1])


@pytest.mark.parametrize("preset, nus", [("example1", (0, 1, 1, 2)),
                                         ("nv-plus", (0, 1, 1, 2)),
                                         ("nv-minus", (0, 0, 0, 0))])
def test_tomography_winding_at_the_presets(preset, nus):
    # between the critical times (2n-1) T/2 of example1 and nv-plus, and at
    # the same times of nv-minus, which has none
    p = PRESETS[preset]
    for fraction, nu in zip((0.3, 0.7, 1.3, 2.4), nus):
        t = fraction * p.period
        assert exact_winding(p, "minus", t) == nu
        assert abs(tomography_winding(p, t) - nu) < 1e-12


def test_tomography_winding_equals_the_closed_form():
    # 200 seeded draws over the first three periods that pass the guards
    rng = np.random.default_rng(2024)
    checked, nonzero = 0, 0
    while checked < 200:
        p = random_params(rng)
        t = rng.uniform(0.0, 3.0 * p.period)
        try:
            nu = exact_winding(p, "minus", t)
            raw = tomography_winding(p, t)
        except NumericalGuardError:
            continue
        assert abs(raw - nu) < 1e-12
        checked += 1
        nonzero += nu != 0
    assert nonzero > 40


@pytest.mark.parametrize("preset, nus", [("example1", (0, 1, 1, 2)),
                                         ("nv-plus", (0, 1, 1, 2)),
                                         ("nv-minus", (0, 0, 0, 0))])
def test_tomography_winding_survives_shot_noise(preset, nus):
    # each measured component is the mean of `shots` outcomes +-1, with
    # p(+1) = (1 + s)/2; 20 seeded repeats per time. On 4000 draws per
    # preset, example1 slipped a winding at 1000 shots on 21 or 41 k and at
    # 2000 on 41 k, never at 5000 on 41 k; the NV presets never did
    shots, k = 10_000, np.linspace(0.0, math.pi, 41)
    rng = np.random.default_rng(22)
    p = PRESETS[preset]
    for fraction, nu in zip((0.3, 0.7, 1.3, 2.4), nus):
        t = fraction * p.period
        assert exact_winding(p, "minus", t) == nu
        p_up = np.clip(0.5 * (1.0 + bloch_vector_grid(p, "minus", k, t)),
                       0.0, 1.0)
        for _ in range(20):
            measured = 2.0 * rng.binomial(shots, p_up) / shots - 1.0
            _, raw = wrapped_winding(tomography_phase_grid(p, k, t, measured))
            assert abs(raw - nu) < geometry.WINDING_INT_TOL
    # a zero vector has no direction: NaN, and no RuntimeWarning (which the
    # suite's warning filter turns into an error)
    zero = np.zeros((3, k.size))
    assert np.isnan(tomography_phase_grid(p, k, 0.3 * p.period, zero)).all()


def test_tomography_band_guard(ex1):
    # the route covers the lower band only and takes no band argument
    with pytest.raises(TypeError):
        geometric_phase_from_tomography(ex1, 0.7, 0.5, band="plus")
    # guarded on the overlap it reconstructs from the Bloch angles
    with pytest.raises(PhaseUndefined):
        geometric_phase_from_tomography(ex1, K_C1, 1.0)
