import math

import numpy as np
import pytest

from floquet_dqpt.errors import DegenerateDelta1, UndefinedTau
from floquet_dqpt.cli import PRESETS
from floquet_dqpt.dynamics import return_probability_grid
from floquet_dqpt.model import ModelParams, band_weights, min_half_gap
from floquet_dqpt.dqpt import (dqpt_condition, fisher_lines, fisher_tau,
                               fisher_tau_grid, rate_function,
                               rate_function_grid)

from api import CLOSURES, random_params
from oracles import (bloch_field, open_chain_loschmidt_rate,
                     ring_loschmidt_rate)


def test_condition_examples(ex1, ex2, ex3):
    c1 = dqpt_condition(ex1)
    assert c1.has_dqpt and c1.k_c == pytest.approx(math.pi / 3, abs=1e-12)
    assert c1.critical_times == pytest.approx([1.0, 3.0, 5.0], abs=1e-12)

    c2 = dqpt_condition(ex2)
    assert not c2.has_dqpt and c2.k_c is None and c2.critical_times == []

    # negative hopping: arccos of a negative ratio, still critical
    c3 = dqpt_condition(ex3)
    assert c3.has_dqpt and c3.k_c == pytest.approx(2 * math.pi / 3, abs=1e-12)


def test_condition_boundary_and_degenerate():
    # |w - d2| = |d1| sits exactly on the boundary: included, k_c at the edge
    p = ModelParams(omega_drive=3.0, delta1=1.0, delta2=2.0, omega_amp=1.0)
    c = dqpt_condition(p)
    assert c.has_dqpt and c.k_c == pytest.approx(0.0)

    p0 = ModelParams(omega_drive=2.0, delta1=0.0, delta2=1.0, omega_amp=1.0)
    assert not dqpt_condition(p0).has_dqpt

    with pytest.raises(DegenerateDelta1):
        dqpt_condition(CLOSURES["degenerate"])


def test_tau_vanishes_at_critical_momentum():
    rng = np.random.default_rng(31)
    found = 0
    while found < 20:
        p = random_params(rng)
        c = None
        try:
            c = dqpt_condition(p)
        except DegenerateDelta1:
            continue
        if not c.has_dqpt or c.k_c in (0.0, math.pi):
            continue
        assert abs(fisher_tau(p, "minus", c.k_c)) < 1e-10
        found += 1


def test_tau_against_complex_zero_oracle(ex1):
    # the continued overlap w_a + e^{i w z} w_b must vanish at
    # z = (2n-1) T/2 - i tau(k)
    for k in (0.4, 1.1, math.pi / 2, 2.3):
        tau = fisher_tau(ex1, "minus", k)
        wa, wb = band_weights(ex1, "minus", k)
        for n in (1, 2, 3):
            z = (2 * n - 1) * 0.5 * ex1.period - 1j * tau
            assert abs(wa + np.exp(1j * ex1.omega_drive * z) * wb) < 1e-12


def test_tau_against_bisection_oracle(ex1):
    # solve e^{w tau} (E - h_z)^2 = h_xy^2 for tau by bisection
    from floquet_dqpt.model import band_energy
    k = math.pi / 2
    h_xy, h_z = bloch_field(ex1, k)
    e = float(band_energy(ex1, "minus", k))

    def f(tau):
        return math.exp(ex1.omega_drive * tau) * (e - h_z) ** 2 - h_xy ** 2

    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert fisher_tau(ex1, "minus", k) == pytest.approx(0.5 * (lo + hi),
                                                        abs=1e-10)


def test_tau_divergences(ex1):
    with pytest.raises(UndefinedTau, match="h_xy = 0"):
        fisher_tau(ex1, "minus", 0.0)
    # h_xy != 0, but E - h_z rounds to 0 in the upper band near k = 0
    with pytest.raises(UndefinedTau, match="E = h_z"):
        fisher_tau(ex1, "plus", 1e-12)
    grid = fisher_tau_grid(ex1, "minus", np.array([0.0, math.pi / 3, math.pi]))
    assert grid[0] == -math.inf
    assert np.isinf(grid[2])  # zone edge: both log arguments degenerate
    assert grid[1] == pytest.approx(0.0, abs=1e-12)


def test_non_critical_tau_has_constant_sign(ex2):
    # no transition: the zero line never crosses the imaginary axis
    k = np.linspace(0.0, math.pi, 2001)
    tau = fisher_tau_grid(ex2, "minus", k)
    finite = tau[np.isfinite(tau)]
    assert finite.size > 0
    assert (finite < 0).all() or (finite > 0).all()


def test_critical_tau_changes_sign(ex1):
    k = np.linspace(0.0, math.pi, 2001)
    tau = fisher_tau_grid(ex1, "minus", k)
    finite = tau[np.isfinite(tau)]
    assert (finite < 0).any() and (finite > 0).any()


def test_fisher_lines_structure(ex1):
    k = np.linspace(0.0, math.pi, 101)
    lines = fisher_lines(ex1, "minus", k, n_lines=4)
    assert [ln.n for ln in lines] == [1, 2, 3, 4]
    assert [ln.t_imag for ln in lines] == pytest.approx([1.0, 3.0, 5.0, 7.0])
    # lines are parallel: identical real parts
    for ln in lines[1:]:
        assert np.array_equal(ln.tau_of_k, lines[0].tau_of_k,
                              equal_nan=True)


def test_rate_function_refuses_a_one_point_grid(ex1):
    for rate in (lambda n: rate_function(ex1, "minus", 1.0, n),
                 lambda n: rate_function_grid(ex1, "minus", [1.0], n)):
        with pytest.raises(ValueError, match="k_grid_size must be >= 2"):
            rate(1)
        assert rate(2) == pytest.approx(0.0, abs=1e-12)


def test_rate_function_zero_at_full_periods(ex1):
    for n in (1, 2, 3):
        assert rate_function(ex1, "minus", n * ex1.period) < 1e-10
    assert rate_function(ex1, "minus", 0.0) == pytest.approx(0.0, abs=1e-12)


def test_rate_function_periodicity(ex1):
    rng = np.random.default_rng(77)
    for t in rng.uniform(0.0, 2.0, 20):
        g1 = rate_function(ex1, "minus", t)
        g2 = rate_function(ex1, "minus", t + ex1.period)
        assert abs(g1 - g2) < 1e-10
        assert g1 >= -1e-12


def test_rate_function_grid_convergence(ex1):
    # away from the kink the trapezoid sum is fully converged; at the kink
    # itself the integrable log singularity slows convergence to ~1e-4
    for t in (0.7, 1.4, 1.9):
        g_a = rate_function(ex1, "minus", t, k_grid_size=2001)
        g_b = rate_function(ex1, "minus", t, k_grid_size=4001)
        assert abs(g_a - g_b) < 1e-12
    assert abs(rate_function(ex1, "minus", 1.0, k_grid_size=2001)
               - rate_function(ex1, "minus", 1.0, k_grid_size=4001)) < 1e-3


def test_rate_function_kink_at_critical_time(ex1):
    # slope jump across t_c = 1, measured by one-sided secants that skip the
    # singular sample itself; stable under k-grid refinement to a few percent
    t_c, h = 1.0, 5e-3

    def slope_gap(grid):
        def g(t):
            return rate_function(ex1, "minus", t, k_grid_size=grid)
        left = (g(t_c - h) - g(t_c - 2 * h)) / h
        right = (g(t_c + 2 * h) - g(t_c + h)) / h
        return abs(right - left)

    gap_coarse = slope_gap(2001)
    gap_fine = slope_gap(20001)
    assert gap_coarse > 0.5
    assert abs(gap_fine - gap_coarse) / abs(gap_fine) < 0.05


def test_no_kink_without_transition(ex2):
    # smooth background: the same secant construction gives a tiny gap
    t_c, h = 1.0, 1e-3

    def g(t):
        return rate_function(ex2, "minus", t)

    left = (g(t_c - h) - g(t_c - 2 * h)) / h
    right = (g(t_c + 2 * h) - g(t_c + h)) / h
    assert abs(right - left) < 1e-2


def test_smooth_rate_function_for_random_noncritical():
    rng = np.random.default_rng(101)
    found = 0
    while found < 5:
        p = random_params(rng)
        try:
            c = dqpt_condition(p)
        except DegenerateDelta1:
            continue
        if c.has_dqpt:
            continue
        t_c = 0.5 * p.period
        h = 1e-3 * p.period
        g = lambda t: rate_function(p, "minus", t, k_grid_size=801)
        left = (g(t_c - h) - g(t_c - 2 * h)) / h
        right = (g(t_c + 2 * h) - g(t_c + h)) / h
        assert abs(right - left) < 0.05 * p.scale
        found += 1


def test_ring_loschmidt_rate_is_the_mean_over_the_ring_momenta():
    # the chain's own g_N(t), from the BdG vacuum of the antiperiodic ring,
    # is exactly the mean of -ln |G|^2 over the ring's k_j = (2j + 1) pi / N
    rng = np.random.default_rng(73)
    drives = list(PRESETS.values())
    while len(drives) < 9:
        p = random_params(rng)
        if min_half_gap(p) > 0.05 * p.scale:
            drives.append(p)
    x = np.linspace(0.0, 3.0, 31)
    x = x[np.abs(x % 1.0 - 0.5) > 0.1]  # away from t_c, an odd multiple of T/2
    for p in drives:
        ts = p.period * x
        for n in (12, 40):
            k = (2 * np.arange(n) + 1) * math.pi / n
            probs = return_probability_grid(p, k[:, None], ts)
            expected = -np.log(probs).mean(axis=0)
            assert np.abs(ring_loschmidt_rate(p, n, ts) - expected).max() \
                < 1e-13


def test_open_chain_loschmidt_rate_converges_as_one_over_n():
    # the open chain's g_N(t) reaches the k integral, here on 64001 points,
    # with N |g_N - g| bounded and already settled at N = 100 (0.165 to
    # 0.425 on the presets): the two ends cost one O(1) term, shared out
    # over N sites; either end's pi modes, filled, give the same bound
    x = np.array([0.13, 0.31, 0.77, 1.21, 1.63, 2.27])  # t/T, off t_c
    for p in PRESETS.values():
        ts = p.period * x
        g = rate_function_grid(p, "minus", ts, 64001)
        for chirality in (1, -1):
            scaled = [n * np.abs(open_chain_loschmidt_rate(p, n, ts,
                                                           chirality)
                                 - g).max() for n in (100, 200)]
            assert max(scaled) <= 0.5
            assert abs(scaled[1] - scaled[0]) <= 0.01
