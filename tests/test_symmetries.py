"""Exact symmetries of the driven chain, held over the public API.

- Scale. H(k, t; s p) = s H(k, s t; p). With s = 2^j, (p, t) -> (s p, t/s)
  is exact in doubles, so every dimensionless output keeps its bits, and
  energies and times scale by s and 1/s exactly. Two outputs miss by a
  measured bound, each with its reason at its assertion.
- Time reversal. H(k, -t) = H(k, t)*, so U(k, -t) = conj U(k, t), and the
  return amplitude G(k, -t) = conj G(k, t) (Heyl, Polkovnikov & Kehrein,
  PRL 110, 135704, 2013): |G|^2 and the rate g are even in t, and the
  geometric phase is odd.
- Sign of the drive amplitude. Omega -> -Omega is a pi turn about z, which
  flips h_xy alone: |G|^2, g and the geometric phase keep their bits, and
  W_pi changes sign.

The swap of the two bands is the fourth symmetry, in test_band_symmetry.py.
"""

import math

import numpy as np
import pytest

from floquet_dqpt import dqpt, dynamics, geometry, lattice, model, topology
from floquet_dqpt.cli import PRESETS
from floquet_dqpt.errors import GaplessPoint, NumericalGuardError
from floquet_dqpt.model import ModelParams

from conftest import random_params

SCALES = (3, -3, 60, -60, 600, -600, 900, -900)


def seeded_drives(n, seed):
    rng = np.random.default_rng(seed)
    return [*PRESETS.values(), *(random_params(rng) for _ in range(n))]


def scaled(p, s):
    return ModelParams(s * p.omega_drive, s * p.delta1, s * p.delta2,
                       s * p.omega_amp)


def bits(x):
    """A value's int64 bits, real and imaginary parts apart, so signed zeros
    and NaN payloads count."""
    a = np.asarray(x)
    if a.dtype.kind != "c":
        a = a.astype(float)
    return np.ascontiguousarray(a).reshape(-1).view(np.int64).tolist()


def outcome(fn, *args):
    """fn(*args), or the type of the guard it raised (whose message holds
    the scaled numbers)."""
    try:
        return fn(*args)
    except NumericalGuardError as exc:
        return type(exc)


def scale_free(p, s, band, ks, ts):
    """Every output of the drive p that the scale s leaves unchanged, as
    bits or a guard's type: p is s times a base drive and ts are its times,
    energies are divided by s and times multiplied by s, both exact. The
    grids take every (k, t), the scalar APIs the band at ks[:3] x ts[1:4]."""
    out = {}
    k_col = np.asarray(ks)[:, None]
    crit = dqpt.dqpt_condition(p)
    out["dqpt_condition"] = (crit.has_dqpt, crit.k_c,
                             bits(np.multiply(crit.critical_times, s)))
    out["chiral_winding_numbers"] = outcome(topology.chiral_winding_numbers,
                                            p)
    out["min_half_gap"] = bits(model.min_half_gap(p) / s)
    out["time_limit"] = bits(p.time_limit * s)
    out["band_energy"] = bits(model.band_energy(p, band, ks) / s)
    out["rate_function_grid"] = bits(dqpt.rate_function_grid(p, band, ts,
                                                             181))
    out["return_probability_grid"] = bits(
        dynamics.return_probability_grid(p, k_col, ts))
    for fn in (geometry.geometric_phase_grid, geometry.bloch_vector_grid):
        out[fn.__name__] = bits(fn(p, band, k_col, ts))
    bloch = geometry.bloch_vector_grid(p, "minus", k_col, ts)
    out["tomography_phase_grid"] = bits(
        geometry.tomography_phase_grid(p, k_col, ts, bloch))
    trace = outcome(geometry.raw_winding_grid, p, band, ts, 401)
    out["raw_winding_grid"] = trace if isinstance(trace, type) \
        else (bits(trace[0] * s), bits(trace[1]))
    out["exact_winding_grid"] = outcome(
        lambda: bits(geometry.exact_winding_grid(p, band, ts)))
    scalar = {
        "propagator_analytic": lambda k, t:
            dynamics.propagator_analytic(p, k, t),
        "return_amplitude": lambda k, t:
            dynamics.return_amplitude(p, band, k, t).value,
        "geometric_phase_from_tomography": lambda k, t:
            geometry.geometric_phase_from_tomography(p, k, t)}
    for fn in (geometry.total_phase, geometry.dynamical_phase,
               geometry.geometric_phase, geometry.bloch_expectations):
        scalar[fn.__name__] = lambda k, t, fn=fn: fn(p, band, k, t)
    for i, t in enumerate(ts[1:4]):
        out["winding_number", i] = outcome(
            lambda: bits(geometry.winding_number(p, band, t, 401, True)[1]))
        out["exact_winding", i] = outcome(geometry.exact_winding, p, band, t)
        for k in ks[:3]:
            for name, fn in scalar.items():
                out[name, k, i] = outcome(lambda: bits(fn(k, t)))
    return out


@pytest.mark.filterwarnings("error")
def test_scale_keeps_the_bits():
    # SCALES, and the two edges of the double range: the largest parameter
    # just below 2^1022, and 2^-1000, where h_xy at k = pi is subnormal
    rng = np.random.default_rng(2026102601)
    for n, p in enumerate(seeded_drives(9, 261)):
        band = ("minus", "plus")[n % 2]
        ks = [0.0, math.pi, *rng.uniform(0.0, math.pi, 2)]
        ts = np.concatenate([[0.0, 0.5 * p.period],
                             rng.uniform(-3.0 * p.period, 3.0 * p.period, 3)])
        base = scale_free(p, 1.0, band, ks, ts)
        for j in (*SCALES, 1022 - math.frexp(p.scale)[1], -1000):
            s = 2.0 ** j
            ps = scaled(p, s)
            got = scale_free(ps, s, band, ks, ts / s)
            assert got.keys() == base.keys()
            for key in base:
                # past the largest double the time limit is inf
                if key != "time_limit" or math.isfinite(ps.time_limit):
                    assert got[key] == base[key], (p, j, key)


def test_dynamical_phase_at_extreme_scales():
    # w (dz / half_gap): (w dz) / half_gap overflowed to inf at 2^600 and
    # underflowed to 0.38934 at 2^-600
    p = PRESETS["example1"]
    for j in (0, 600, -600):
        s = 2.0 ** j
        phi = geometry.dynamical_phase(scaled(p, s), "minus", 0.7,
                                       0.37 * p.period / s)
        assert phi == pytest.approx(1.30843, abs=1e-5)
        assert phi == geometry.dynamical_phase(p, "minus", 0.7,
                                               0.37 * p.period)


# times in periods, given as w t / 2 pi, so that w t keeps its bits
CYCLES = (0.37, 0.75, 2.2)


def dimensionless(p):
    """{(API, band, k, t index): flat complex array}: every dimensionless
    output of the drive p at k = 0, 0.7, pi and at the times of CYCLES
    periods, t index last where the API takes one t."""
    ks = np.array([0.0, 0.7, math.pi])
    ts = np.array(CYCLES) * (2.0 * math.pi) / p.omega_drive
    k_col = ks[:, None]
    bloch = geometry.bloch_vector_grid(p, "minus", k_col, ts)
    out = {("k_c",): dqpt.dqpt_condition(p).k_c,
           ("chiral_winding_numbers",):
               topology.chiral_winding_numbers(p).wpi,
           ("tomography_phase_grid",):
               geometry.tomography_phase_grid(p, k_col, ts, bloch),
           ("return_probability_grid",):
               dynamics.return_probability_grid(p, k_col, ts)}
    for band in ("minus", "plus"):
        out["band_weights", band] = model.band_weights(p, band, ks)
        out["exact_winding_grid", band] = geometry.exact_winding_grid(
            p, band, ts)
        out["raw_winding_grid", band] = geometry.raw_winding_grid(
            p, band, ts, 401)[1]
        out["rate_function_grid", band] = dqpt.rate_function_grid(
            p, band, ts, 181)
        for fn in (geometry.geometric_phase_grid, geometry.bloch_vector_grid):
            out[fn.__name__, band] = fn(p, band, k_col, ts)
        for i, t in enumerate(ts):
            out["rate_function", band, i] = dqpt.rate_function(p, band, t,
                                                               181)
            out["winding_number", band, i] = geometry.winding_number(
                p, band, t, 401, True)
            out["exact_winding", band, i] = geometry.exact_winding(p, band,
                                                                   t)
            for k in ks:
                out["return_amplitude", band, k, i] = \
                    dynamics.return_amplitude(p, band, k, t).value
                for fn in (geometry.total_phase, geometry.dynamical_phase,
                           geometry.geometric_phase,
                           geometry.bloch_expectations):
                    out[fn.__name__, band, k, i] = fn(p, band, k, t)
    for i, t in enumerate(ts):
        for k in ks:
            out["propagator_analytic", k, i] = dynamics.propagator_analytic(
                p, k, t)
            out["return_probability", k, i] = dynamics.return_probability(
                p, k, t)
            out["geometric_phase_from_tomography", k, i] = \
                geometry.geometric_phase_from_tomography(p, k, t)
    return {key: np.asarray(v, dtype=complex).reshape(-1)
            for key, v in out.items()}


INTEGERS = {"chiral_winding_numbers", "exact_winding", "exact_winding_grid"}


@pytest.mark.filterwarnings("error")
def test_drives_near_the_largest_double():
    # (1, 1, 1, 1) times 1e308 and 1.7e308: no API warns, nu is exact and
    # every dimensionless output (a phase mod 2 pi) is within 1e-15 of
    # (1, 1, 1, 1) per period elapsed, at least one. Neither scale is a power
    # of two, so the rounding of the field and of the phase arguments w t
    # and Delta t/2 moves. The RK4 oracle is left out: it keeps the
    # physical H(k, t) as the independent check, and overflows here
    one = ModelParams(1.0, 1.0, 1.0, 1.0)
    base, worst = dimensionless(one), 0.0
    for s in (1e308, 1.7e308):
        p = scaled(one, s)
        got = dimensionless(p)
        assert got.keys() == base.keys()
        for key, want in base.items():
            d = got[key] - want
            if "phase" in key[0]:
                d = geometry.principal_branch(d.real)
            periods = max(1.0, CYCLES[key[-1] if len(key) > 2 else -1])
            worst = max(worst, np.abs(d).max() / periods)
            if key[0] in INTEGERS:
                assert np.array_equal(got[key], want), (s, key)
            if key[0] == "winding_number":  # (nu, raw)
                assert got[key][0] == want[0], (s, key)
        # and those with units answer finite numbers
        ks = np.array([0.0, 0.7, math.pi])
        b = model.bloch_components(p, ks)
        physical = [b.h_xy, b.h_z, model.min_half_gap(p),
                    lattice.obc_floquet_spectrum(p, 12).quasienergies]
        for band in ("minus", "plus"):
            physical += [model.band_energy(p, band, ks),
                         dqpt.fisher_lines(p, band, ks)[0].tau_of_k[1],
                         dqpt.fisher_tau(p, band, 0.7)]
        assert all(np.isfinite(x).all() for x in physical)
    assert worst <= 1e-15, worst


@pytest.mark.filterwarnings("error")
def test_mixed_sign_drives_near_the_largest_double():
    # (1, 1, -1, 1) times 1.7e308 and 1e308: |h_z - w/2| at k = pi is 1.5
    # times the largest parameter, past the largest double, while the
    # normal form holds it. Every point API answers without a warning, the
    # two with a grid kernel with its bits. The plus band's quasienergy
    # w/2 + Delta/2 is itself past the largest double at k = pi (and at
    # k = 0.7 on 1.7e308), so band_energy is held on the minus band alone;
    # the return amplitude and total phase take its phase on the normal
    # form, within 1e-15 of (1, 1, -1, 1)'s on both bands
    one = ModelParams(1.0, 1.0, -1.0, 1.0)
    for s in (1.7e308, 1e308):
        p = ModelParams(s, s, -s, s)
        t = 0.3 * p.period
        for k in (0.0, 0.7, math.pi):
            assert bits(dynamics.return_probability(p, k, t)) == \
                bits(dynamics.return_probability_grid(p, k, t))
            for band in ("minus", "plus"):
                assert bits(geometry.geometric_phase(p, band, k, t)) == \
                    bits(geometry.geometric_phase_grid(p, band, k, t))
                values = [dynamics.propagator_analytic(p, k, t),
                          geometry.dynamical_phase(p, band, k, t),
                          geometry.bloch_expectations(p, band, k, t),
                          geometry.geometric_phase_from_tomography(p, k, t)]
                if band == "minus":
                    values.append(model.band_energy(p, band, k))
                assert all(np.isfinite(x).all() for x in values), (s, k, band)
                amplitude = dynamics.return_amplitude(p, band, k, t).value
                want = dynamics.return_amplitude(one, band, k,
                                                 0.3 * one.period).value
                assert abs(amplitude - want) <= 1e-15, (s, k, band)
                assert abs(geometry.principal_branch(
                    geometry.total_phase(p, band, k, t) - geometry.total_phase(
                        one, band, k, 0.3 * one.period))) <= 1e-15


def test_scale_moves_fisher_lines_and_chain_spectrum_by_rounding():
    ks = np.linspace(0.0, math.pi, 102)[1:-1]
    for p in seeded_drives(9, 262):
        taus = [dqpt.fisher_tau_grid(p, band, ks) for band in ("minus",
                                                               "plus")]
        spectrum = lattice.obc_floquet_spectrum(p, 12)
        for j in SCALES:
            s = 2.0 ** j
            ps = scaled(p, s)
            # tau = (2/w)(log|h_xy| - log|E - h_z|): each log of an s-scaled
            # number carries j ln 2, so the difference keeps the absolute
            # rounding of |j| ln 2. Measured: 6.9e-14 in tau on example1 at
            # j = +-900, and (w/2)|d tau| up to 0.81 ulp(|j| ln 2)
            for band, tau in zip(("minus", "plus"), taus):
                err = np.abs(dqpt.fisher_tau_grid(ps, band, ks) * s - tau)
                assert (0.5 * p.omega_drive * err).max() \
                    <= 2.0 * (abs(j) * math.log(2.0) + 4.0) * 2.0 ** -52
            got = lattice.obc_floquet_spectrum(ps, 12)
            if abs(j) <= 60:
                assert bits(got.quasienergies / s) \
                    == bits(spectrum.quasienergies)
                assert bits(got.edge_weights) == bits(spectrum.edge_weights)
            else:
                # eigh scales a matrix whose norm is this far from 1 by a
                # factor that is not a power of two, so its rounding moves:
                # measured 5.3e-15 w and 2.9e-14
                assert np.abs(got.quasienergies / s - spectrum.quasienergies
                              ).max() <= 2.4e-14 * p.omega_drive
                assert np.abs(got.edge_weights - spectrum.edge_weights
                              ).max() <= 5e-14
            assert np.array_equal(got.pi_mode, spectrum.pi_mode)


def test_propagators_are_conjugate_under_time_reversal():
    # U(k, -t) = conj U(k, t) bit for bit, both routes, the oracle at 256
    # steps. Where a zero's sign is free the two sides may differ in it
    # alone: at t = +-0, and at k = 0, where h_xy and so b are exactly 0
    rng = np.random.default_rng(2026102602)
    drives = 0
    while drives < 300:
        p = random_params(rng)
        k = (0.0, math.pi, rng.uniform(0.0, math.pi))[drives % 3]
        t = rng.uniform(0.0, 3.0 * p.period)
        try:
            u_back = dynamics.propagator_analytic(p, k, -t)
        except GaplessPoint:
            continue
        for fn in (dynamics.propagator_analytic,
                   lambda *a: dynamics.propagator_oracle(*a, steps=256)):
            for time, exact in ((t, k != 0.0), (0.0, False)):
                forward, back = fn(p, k, time), fn(p, k, -time)
                assert np.array_equal(back, forward.conj())
                if exact:
                    assert bits(back) == bits(forward.conj())
        # and the oracle stepping back reaches the closed form (a quarter of
        # the drives, at the default steps; k cycles through all three)
        if drives % 4 == 0:
            assert np.abs(dynamics.propagator_oracle(p, k, -t)
                          - u_back).max() < 1e-7
        drives += 1


def test_rate_and_probability_even_phase_odd_in_t():
    rng = np.random.default_rng(2026102603)
    ks = np.array([0.0, math.pi, *rng.uniform(0.0, math.pi, 6)])[:, None]
    worst = 0.0
    for n, p in enumerate(seeded_drives(40, 263)):
        band = ("minus", "plus")[n % 2]
        ts = rng.uniform(0.0, 3.0 * p.period, 8)
        assert bits(dqpt.rate_function_grid(p, band, -ts, 181)) \
            == bits(dqpt.rate_function_grid(p, band, ts, 181))
        assert bits(dynamics.return_probability_grid(p, ks, -ts)) \
            == bits(dynamics.return_probability_grid(p, ks, ts))
        phi, phi_back = (geometry.geometric_phase_grid(p, band, ks, x)
                         for x in (ts, -ts))
        assert np.array_equal(np.isnan(phi), np.isnan(phi_back))
        worst = max(worst, np.nanmax(np.abs(
            geometry.principal_branch(phi + phi_back)), initial=0.0))
    # phi(-t) = -phi(t) up to the rounding of w t and its drift term
    assert worst < 1e-13, worst


def test_amplitude_sign_keeps_observables_and_flips_w_pi():
    rng = np.random.default_rng(2026102604)
    ks = np.array([0.0, math.pi, *rng.uniform(0.0, math.pi, 6)])[:, None]
    flipped_w_pi = 0
    for n, p in enumerate(seeded_drives(40, 264)):
        band = ("minus", "plus")[n % 2]
        flipped = ModelParams(p.omega_drive, p.delta1, p.delta2,
                              -p.omega_amp)
        ts = rng.uniform(-3.0 * p.period, 3.0 * p.period, 8)
        assert bits(dqpt.rate_function_grid(flipped, band, ts, 181)) \
            == bits(dqpt.rate_function_grid(p, band, ts, 181))
        assert bits(dynamics.return_probability_grid(flipped, ks, ts)) \
            == bits(dynamics.return_probability_grid(p, ks, ts))
        assert bits(geometry.geometric_phase_grid(flipped, band, ks, ts)) \
            == bits(geometry.geometric_phase_grid(p, band, ks, ts))
        inv, inv_flipped = (outcome(topology.chiral_winding_numbers, x)
                            for x in (p, flipped))
        if isinstance(inv, type):
            assert inv_flipped is inv
        else:
            assert inv_flipped.wpi == -inv.wpi
            flipped_w_pi += inv.wpi != 0
    assert flipped_w_pi >= 10
