"""Top-level acceptance suite.

Each test checks one numbered claim end to end, enforces its runtime budget,
and prints a single PASS line (pytest fails the test before the line prints
if any assertion trips).
"""

import math
import time

import numpy as np

from floquet_dqpt.errors import DegenerateDelta1, GaplessPoint
from floquet_dqpt.dynamics import (propagator_analytic, propagator_oracle,
                                   return_probability,
                                   return_probability_grid)
from floquet_dqpt.dqpt import dqpt_condition, rate_function
from floquet_dqpt.geometry import (geometric_phase, principal_branch,
                                   geometric_phase_from_tomography,
                                   winding_number)
from floquet_dqpt.topology import chiral_winding_numbers
from floquet_dqpt.lattice import obc_floquet_spectrum
from floquet_dqpt.cli import PRESETS

from api import random_params
from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3
from oracles import momentum_consistency_check, rotating_frame_hamiltonian


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_acceptance_1_critical_condition():
    t0 = time.perf_counter()
    c1 = dqpt_condition(EXAMPLE1)
    c2 = dqpt_condition(EXAMPLE2)
    c3 = dqpt_condition(EXAMPLE3)
    elapsed = time.perf_counter() - t0
    assert c1.has_dqpt and abs(c1.k_c - math.pi / 3) < 1e-12
    assert not c2.has_dqpt and c2.k_c is None
    assert c3.has_dqpt and abs(c3.k_c - 2 * math.pi / 3) < 1e-12
    assert elapsed < 1e-3
    report(1, f"(has_dqpt, k_c) = (T, pi/3), (F, -), (T, 2pi/3) "
              f"within 1e-12 in {elapsed * 1e6:.0f} us")


def test_acceptance_2_experimental_figures():
    t0 = time.perf_counter()
    nvp, nvm = PRESETS["nv-plus"], PRESETS["nv-minus"]
    for t in (0.1, 0.3, 0.5):
        assert return_probability(nvp, math.pi / 2, t) < 1e-10
    for t, nu in ((0.15, 1), (0.35, 2), (0.55, 3)):
        assert winding_number(nvp, "minus", t) == nu
    ks = np.linspace(0.0, math.pi, 13)
    min_prob = min(return_probability_grid(nvm, ks, t).min()
                   for t in np.linspace(0.0, 0.6, 49))
    assert min_prob > 0.0
    for t in (0.15, 0.35, 0.55):
        assert winding_number(nvm, "minus", t) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"nv-plus zeros at 0.1/0.3/0.5 us (< 1e-10), nu = 1,2,3; "
              f"nv-minus min retprob {min_prob:.3f} > 0, nu = 0; "
              f"{elapsed:.2f} s")


def test_acceptance_3_rate_function_kinks():
    t0 = time.perf_counter()
    p = EXAMPLE1
    h = 5e-3

    def g(t):
        return rate_function(p, "minus", t, k_grid_size=2001)

    # slope-estimation noise: secant spread at a smooth reference point
    t_ref = 0.5
    noise = abs((g(t_ref + h) - g(t_ref - h)) / (2 * h)
                - (g(t_ref + 2 * h) - g(t_ref - 2 * h)) / (4 * h))
    noise = max(noise, 1e-12)

    gaps = []
    for t_c in (1.0, 3.0, 5.0):
        left = (g(t_c - h) - g(t_c - 2 * h)) / h
        right = (g(t_c + 2 * h) - g(t_c + h)) / h
        # local maximum with a genuine kink
        assert g(t_c) > g(t_c - 2 * h) and g(t_c) > g(t_c + 2 * h)
        gap = abs(right - left)
        assert gap > 10.0 * noise
        gaps.append(gap)
    for n in (1, 2, 3):
        assert g(n * p.period) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"kinks at t = 1, 3, 5 with slope gaps "
              f"{', '.join(f'{x:.2f}' for x in gaps)} > 10 x noise "
              f"({noise:.1e}); g(nT) < 1e-10; {elapsed:.2f} s")


def test_acceptance_4_geometric_phase_jump():
    p = EXAMPLE1
    k_c = math.pi / 3
    eps = p.period / 1000
    before = geometric_phase(p, "minus", k_c, 1.0 - eps)
    after = geometric_phase(p, "minus", k_c, 1.0 + eps)
    assert abs(before) < 1e-10
    assert abs(abs(after) - math.pi) < 1e-10
    report(4, f"phase at k_c: {before:.2e} before t_c, |{after:.12f}| = pi "
              f"after, both within 1e-10")


def test_acceptance_5_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250824)
    worst = 0.0
    done = 0
    while done < 100:
        p = random_params(rng)
        k = rng.uniform(0.0, math.pi)
        e_minus, e_plus = np.linalg.eigvalsh(rotating_frame_hamiltonian(p, k))
        if e_plus - e_minus <= 0.01:
            continue
        t = rng.uniform(0.0, 2.0 * p.period)
        dev = np.abs(propagator_analytic(p, k, t)
                     - propagator_oracle(p, k, t, steps=4096)).max()
        worst = max(worst, float(dev))
        done += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-7
    assert elapsed < 2.0
    report(5, f"100 gapped draws, max |U_analytic - U_oracle| = "
              f"{worst:.2e} < 1e-7; {elapsed:.2f} s")


def test_acceptance_6_topology():
    c1 = chiral_winding_numbers(EXAMPLE1)
    c2 = chiral_winding_numbers(EXAMPLE2)
    c3 = chiral_winding_numbers(EXAMPLE3)
    assert (c1.w0, c1.wpi) == (0, 1)
    assert (c2.w0, c2.wpi) == (0, 0)
    assert abs(c3.wpi) == 1

    rng = np.random.default_rng(606)
    done = 0
    while done < 200:
        p = random_params(rng)
        try:
            c = chiral_winding_numbers(p)
        except GaplessPoint:
            continue
        assert c.w2 == -c.w1
        done += 1

    done = 0
    while done < 50:
        p = random_params(rng)
        try:
            c = chiral_winding_numbers(p)
            has = dqpt_condition(p).has_dqpt
        except (GaplessPoint, DegenerateDelta1):
            continue
        assert has == (c.wpi != 0)
        done += 1
    report(6, "(W0, Wpi) = (0,1)/(0,0)/|1|; W2 = -W1 on 200 draws; "
              "has_dqpt <=> Wpi != 0 on 50 draws")


def test_acceptance_7_momentum_consistency():
    worst = max(momentum_consistency_check(p, 16)
                for p in (EXAMPLE1, EXAMPLE2, EXAMPLE3))
    assert worst < 1e-10
    report(7, f"N = 16 Fourier blocks match the Bloch Hamiltonian at three "
              f"times, all three parameter sets; worst deviation "
              f"{worst:.2e} < 1e-10")


def test_acceptance_8_bulk_boundary():
    t0 = time.perf_counter()
    w = EXAMPLE1.omega_drive

    s1 = obc_floquet_spectrum(EXAMPLE1, 40)
    eps1 = s1.quasienergies[s1.pi_mode]
    assert eps1.size == 2
    # particle-hole pair pinned near +-w/2
    assert np.abs(np.abs(eps1) - 0.5 * w).max() < 0.02 * w
    assert abs(eps1[0] + eps1[1]) < 1e-6 or \
        abs(abs(eps1[0]) - abs(eps1[1])) < 1e-6

    s2 = obc_floquet_spectrum(EXAMPLE2, 40)
    assert int(s2.pi_mode.sum()) == 0

    s80 = obc_floquet_spectrum(EXAMPLE1, 80)
    eps80 = s80.quasienergies[s80.pi_mode]
    assert eps80.size == 2
    d40 = np.abs(np.abs(eps1) - 0.5 * w).max()
    d80 = np.abs(np.abs(eps80) - 0.5 * w).max()
    assert d80 < d40
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(8, f"N = 40: pi-mode pair for example 1 (detuning {d40:.1e}), "
              f"none for example 2; N = 80 tightens to {d80:.1e}; "
              f"{elapsed:.1f} s")


def test_acceptance_9_tomography():
    rng = np.random.default_rng(909)
    worst = 0.0
    done = 0
    while done < 50:
        p = random_params(rng, positive_amp=True)
        k = rng.uniform(0.05, math.pi - 0.05)
        t = rng.uniform(0.0, 2.0 * p.period)
        try:
            if return_probability(p, k, t) <= 0.01:
                continue
            dev = abs(principal_branch(
                geometric_phase_from_tomography(p, k, t)
                - geometric_phase(p, "minus", k, t)))
        except GaplessPoint:
            continue
        worst = max(worst, dev)
        done += 1
    assert worst < 1e-8
    report(9, f"tomography route matches the direct geometric phase on 50 "
              f"draws with |G| > 0.1; worst deviation {worst:.2e} < 1e-8")
