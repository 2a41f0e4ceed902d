import math

import numpy as np
import pytest

from floquet_dqpt.errors import (DegenerateDelta1, GaplessPoint,
                                 NumericalGuardError)
from floquet_dqpt.model import MAX_SITES, ModelParams, min_half_gap
from floquet_dqpt.dynamics import propagator_analytic
from floquet_dqpt.dqpt import dqpt_condition
from floquet_dqpt.geometry import exact_winding, winding_number
from floquet_dqpt.lattice import obc_floquet_spectrum
from floquet_dqpt.topology import chiral_winding_numbers

from conftest import random_params
from oracles import (SIGMA_Y, brute_winding, su2_exponential,
                     symmetric_frame_operators, winding_integral)


def test_su2_exponential_against_expm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        nx, nz = rng.uniform(-4, 4, 2)
        got = su2_exponential(nx, nz)
        h = np.array([[nz, nx], [nx, -nz]], dtype=complex)
        evals, evecs = np.linalg.eigh(h)
        expected = evecs @ np.diag(np.exp(-1j * evals)) @ evecs.conj().T
        assert np.abs(got - expected).max() < 1e-12
    assert np.allclose(su2_exponential(0.0, 0.0), np.eye(2))


def test_example_invariants(ex1, ex2, ex3):
    c1 = chiral_winding_numbers(ex1)
    assert (c1.w1, c1.w2, c1.w0, c1.wpi) == (1, -1, 0, 1)
    c2 = chiral_winding_numbers(ex2)
    assert (c2.w1, c2.w2, c2.w0, c2.wpi) == (0, 0, 0, 0)
    c3 = chiral_winding_numbers(ex3)
    assert (c3.w0, abs(c3.wpi)) == (0, 1)
    assert c3.wpi == -1


def test_chiral_symmetry_of_frame_operators():
    rng = np.random.default_rng(41)
    for _ in range(30):
        p = random_params(rng)
        k = rng.uniform(-math.pi, math.pi)
        for u in symmetric_frame_operators(p, k):
            assert np.abs(SIGMA_Y @ u @ SIGMA_Y - u.conj().T).max() < 1e-12
            assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


def test_frame_operator_equals_one_period_propagator(ex1, ex2, ex3):
    # the first symmetric frame coincides with the stroboscopic propagator
    for p in (ex1, ex2, ex3):
        for k in (0.0, 0.7, math.pi / 3, 2.6):
            u1, _ = symmetric_frame_operators(p, k)
            u = propagator_analytic(p, k, p.period)
            assert np.abs(u1 - u).max() < 1e-12


def test_frames_coincide_where_transverse_vanishes(ex1):
    u1, u2 = symmetric_frame_operators(ex1, 0.0)
    assert np.abs(u1 - u2).max() < 1e-15


def test_winding_pair_against_brute_oracle():
    rng = np.random.default_rng(59)
    done = 0
    while done < 200:
        p = random_params(rng)
        try:
            c = chiral_winding_numbers(p)
        except GaplessPoint:
            continue
        assert c.w2 == -c.w1
        assert c.w1 == round(brute_winding(p))
        assert c.w2 == round(brute_winding(p, flip_x=True))
        assert abs(brute_winding(p) - c.w1) < 0.02
        assert c.raw_w1 == c.w1
        done += 1


def test_integral_cross_check():
    rng = np.random.default_rng(61)
    done = 0
    while done < 30:
        p = random_params(rng)
        try:
            c = chiral_winding_numbers(p)
        except GaplessPoint:
            continue
        assert abs(winding_integral(p) - c.w1) < 1e-3
        done += 1


def test_encircling_condition_closed_form():
    # the atan2 oracle encircles the origin iff |w - d2| < |d1| (strict), and
    # so does the closed form's Wpi, which topo reports as "encircling"
    rng = np.random.default_rng(67)
    for _ in range(200):
        p = random_params(rng)
        strict = abs(p.omega_drive - p.delta2) < abs(p.delta1)
        assert (round(brute_winding(p)) != 0) == strict
        assert (chiral_winding_numbers(p).wpi != 0) == strict


def test_wpi_iff_encircling_iff_transition():
    rng = np.random.default_rng(71)
    done = 0
    while done < 50:
        p = random_params(rng)
        try:
            c = chiral_winding_numbers(p)
            has = dqpt_condition(p).has_dqpt
        except (GaplessPoint, DegenerateDelta1):
            continue
        assert (c.wpi != 0) == \
            (abs(p.omega_drive - p.delta2) < abs(p.delta1))
        assert (c.wpi != 0) == has
        done += 1


def test_gap_closure_raised():
    # z and x both vanish at k = 0 when delta1 + delta2 = omega (here also
    # delta1^2 = Omega^2: no vertex)
    p = ModelParams(omega_drive=2.0, delta1=1.0, delta2=1.0, omega_amp=1.0)
    with pytest.raises(GaplessPoint):
        chiral_winding_numbers(p)
    # Omega = 0 inside the ellipse: the vector crosses the origin at k_c,
    # the vertex of the quadratic in cos k
    p = ModelParams(omega_drive=2.0, delta1=1.0, delta2=1.5, omega_amp=0.0)
    with pytest.raises(GaplessPoint):
        chiral_winding_numbers(p)
    # a small Omega lifts the vertex minimum to about 0.43 Omega, above the
    # floor
    p = ModelParams(omega_drive=2.0, delta1=1.0, delta2=1.5, omega_amp=1e-3)
    assert chiral_winding_numbers(p).wpi == 1


def verdict(call):
    # a value, or the guard error's type and message
    try:
        return call()
    except NumericalGuardError as exc:
        return type(exc), str(exc)


def drives_at_the_floor(rng):
    """A degenerate drive (delta1 = 0, w = delta2), then seeded drives whose
    gap closes at k = 0 or pi, each moved off the closure, inward or outward
    of the ellipse, to min Delta/2 = x scale for x from 0 to 1e-7."""
    out = [ModelParams(2.0, 0.0, 2.0, 1.0)]
    for _ in range(40):
        w, d1, amp = rng.uniform(0.5, 6.0), *rng.uniform(-5.0, 5.0, 2)
        for end in (1.0, -1.0):  # dz = 0 at k = 0 (d2 = w - d1), or at pi
            scale = max(w, abs(d1), abs(amp), abs(w - end * d1))
            for x in (0.0, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7):
                for side in (1.0, -1.0):
                    d2 = w - end * d1 + side * 2.0 * x * scale
                    out.append(ModelParams(w, d1, d2, amp))
    return out


def test_topo_and_winding_refuse_the_same_drives():
    # chiral_winding_numbers and exact_winding read one zone-gap test after
    # the condition: on every drive, at the floor too, both answer or both
    # raise the same error; where they answer, Wpi != 0 iff nu(3T/4) != 0
    rng = np.random.default_rng(25)
    seeded = [random_params(rng) for _ in range(200)]
    seen = set()
    for i, p in enumerate(seeded + drives_at_the_floor(rng)):
        c = verdict(lambda: chiral_winding_numbers(p))
        nu = verdict(lambda: exact_winding(p, "minus", 0.25 * p.period))
        if isinstance(c, tuple):
            assert c == nu
            seen.add(c[0])
        else:
            assert nu == 0
            after = exact_winding(p, "minus", 0.75 * p.period)
            assert (c.wpi != 0) == (after != 0) == dqpt_condition(p).has_dqpt
            seen.add(c.wpi != 0)
        if i > len(seeded):  # past the degenerate drive, the floor decides
            refused = 2.0 * min_half_gap(p) <= p.gap_floor
            assert isinstance(c, tuple) == refused
    assert seen == {True, False, GaplessPoint, DegenerateDelta1}


def gapped_draw(rng, coupling):
    """Parameters at least 0.2 from the DQPT boundary, with |Omega| >= 0.5."""
    while True:
        p = ModelParams(omega_drive=rng.uniform(0.5, 6.0),
                        delta1=rng.uniform(-coupling, coupling),
                        delta2=rng.uniform(-coupling, coupling),
                        omega_amp=rng.uniform(-coupling, coupling))
        margin = abs(abs(p.omega_drive - p.delta2) - abs(p.delta1))
        if margin >= 0.2 and abs(p.omega_amp) >= 0.5:
            return p


def settled_pi_mode_count(p):
    # the flagged count of the open chain once it is the same at three
    # successive sizes N, 2N, 4N (or at MAX_SITES): an edge pair with a long
    # localization length is flagged only from a few hundred sites on
    n, counts = 40, []
    while True:
        counts.append(int(obc_floquet_spectrum(p, n).pi_mode.sum()))
        if n == MAX_SITES or counts[-3:] == [counts[-1]] * 3:
            return counts[-1]
        n = min(2 * n, MAX_SITES)


def test_dqpt_iff_nontrivial_floquet_phase():
    # the paper's claim on random gapped draws, half of them with couplings
    # up to 15 (bulk bands wrapping the zone many times): four routes agree
    rng = np.random.default_rng(97)
    for i in range(20):
        p = gapped_draw(rng, 15.0 if i % 2 else 5.0)
        has = dqpt_condition(p).has_dqpt
        wpi = chiral_winding_numbers(p).wpi
        assert wpi == round(brute_winding(p))
        assert (wpi != 0) == has
        band = ("minus", "plus")[i % 3 == 0]
        before, after = 0.25 * p.period, 0.75 * p.period
        assert exact_winding(p, band, before) == 0 \
            == winding_number(p, band, before)
        nu = exact_winding(p, band, after)
        assert nu == winding_number(p, band, after)
        assert (nu != 0) == has
        assert settled_pi_mode_count(p) == 2 * abs(wpi)
