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
- Zone reflection. (delta1, k) -> (-delta1, pi - k) keeps the field and
  swaps the ends of the zone: |G|^2, g and the gap stay, nu and W_pi change
  sign.

The swap of the two bands is the fourth symmetry, in test_band_symmetry.py.
"""

import math

import numpy as np
import pytest

from floquet_dqpt import dqpt, dynamics, geometry, lattice, model, topology
from floquet_dqpt.cli import PRESETS
from floquet_dqpt.errors import GaplessPoint
from floquet_dqpt.model import ModelParams

import api
from api import bits, random_params, scaled
from oracles import eigenvector_phases

SCALES = (3, -3, 60, -60, 600, -600, 900, -900)


def seeded_drives(n, seed):
    rng = np.random.default_rng(seed)
    return [*PRESETS.values(), *(random_params(rng) for _ in range(n))]


# the ledgers below call every row but these: the outputs that move under
# the scale by rounding, the Fisher lines and the chain spectrum (each held
# to a bound in test_scale_moves_fisher_lines_and_chain_spectrum_by_rounding);
# and the RK4 oracle, which keeps the physical H(k, t) as the independent
# check
ROUNDED = {"fisher_tau_grid", "fisher_lines", "obc_floquet_spectrum",
           "propagator_oracle"}
LEDGER_ROWS = [row for row in api.API if row.name not in ROUNDED]
POWER = {"energy": -1, "time": 1}


def scale_free(p, s, band, ks, ts):
    """Every output of the drive p that the scale s leaves unchanged, as
    bits or a guard's type: p is s times a base drive and ts are its times,
    energies are divided by s and times multiplied by s, both exact. The
    grids take every (k, t), the point APIs the band at ks[:3] x ts[1:4]."""
    out = {"time_limit": bits(p.time_limit * s)}
    grid = {"params": p, "ks": np.asarray(ks)[:, None], "ts": ts}
    for row, key, args in api.calls(grid, ks[:3], ts[1:4], [band],
                                     LEDGER_ROWS):
        value = api.outcome(row.call, args)  # its message holds the scale
        out[key] = value if isinstance(value, type) else [
            bits(x * s ** POWER[unit] if unit in POWER else x)
            for unit, x in api.parts(value, row.unit)]
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
    # the eigenvector oracle's -<chi| H_R |chi> t, in physical units, holds
    # the unscaled value at 2^600 and 2^-600, where a product w dz of two
    # scaled fields overflows or underflows; the library's geometric phase
    # keeps its bits under the scale in test_scale_keeps_the_bits
    p = PRESETS["example1"]
    for j in (0, 600, -600):
        s = 2.0 ** j
        _, phi = eigenvector_phases(scaled(p, s), "minus", 0.7,
                                    0.37 * p.period / s)
        assert phi == pytest.approx(1.30843, abs=1e-5)


# times in periods, given as w t / 2 pi, so that w t keeps its bits
CYCLES = (0.37, 0.75, 2.2)


def dimensionless(p, cycles):
    """{(API, band, k index, t index): flat complex array}: every
    dimensionless output of the drive p at k = 0, 0.7, pi and at the times
    of `cycles` periods."""
    ks = np.array([0.0, 0.7, math.pi])
    ts = np.array(cycles) * (2.0 * math.pi) / p.omega_drive
    out = {}
    grid = {"params": p, "ks": ks[:, None], "ts": ts}
    rows = [row for row in LEDGER_ROWS if "dimensionless" in np.ravel(
        row.unit)]
    for row, key, args in api.calls(grid, ks, ts, rows=rows):
        values = [np.asarray(x, dtype=complex).reshape(-1) for unit, x in
                  api.parts(row.call(args), row.unit)
                  if unit == "dimensionless" and x is not None]
        out[key] = np.concatenate(values)
    return out


INTEGERS = {"chiral_winding_numbers", "exact_winding", "exact_winding_grid",
            "winding_number"}


def near_the_largest_double(one, cycles):
    """The largest difference between a dimensionless output of `one` and
    of `one` times 1e308 or 1.7e308 (a phase mod 2 pi), per period elapsed,
    at least one; nu is exact, and winding_number's raw rounds to it."""
    base, worst = dimensionless(one, cycles), 0.0
    for s in (1e308, 1.7e308):
        got = dimensionless(scaled(one, s), cycles)
        assert got.keys() == base.keys()
        for key, want in base.items():
            d = got[key] - want
            if "phase" in key[0]:
                d = geometry.principal_branch(d.real)
            periods = max(1.0, cycles[-1 if key[3] is None else key[3]])
            worst = max(worst, np.abs(d).max() / periods)
            if key[0] in INTEGERS:
                assert np.array_equal(np.rint(got[key]), np.rint(want)), key
    return worst


@pytest.mark.filterwarnings("error")
def test_drives_near_the_largest_double():
    # (1, 1, 1, 1) times 1e308 and 1.7e308: no API warns, nu is exact and
    # every dimensionless output (a phase mod 2 pi) is within 1e-15 of
    # (1, 1, 1, 1) per period elapsed, at least one. Neither scale is a power
    # of two, so the rounding of the field and of the phase arguments w t
    # and Delta t/2 moves. The RK4 oracle is left out: it keeps the
    # physical H(k, t) as the independent check, and overflows here
    one = ModelParams(1.0, 1.0, 1.0, 1.0)
    assert near_the_largest_double(one, CYCLES) <= 1e-15
    for s in (1e308, 1.7e308):  # and those with units answer finite numbers
        p = scaled(one, s)
        ks = np.array([0.0, 0.7, math.pi])
        h_xy, h_z = model.normal_field(p, ks)[:2]
        unit = p.normal_form[0]
        physical = [h_xy * unit, h_z * unit, model.min_half_gap(p),
                    lattice.obc_floquet_spectrum(p, 12).quasienergies]
        for band in ("minus", "plus"):
            physical += [model.band_energy(p, band, ks),
                         dqpt.fisher_lines(p, band, ks)[0].tau_of_k[1]]
        assert all(np.isfinite(x).all() for x in physical)


@pytest.mark.filterwarnings("error")
def test_mixed_sign_drives_near_the_largest_double():
    # (1, 1, -1, 1) times 1.7e308 and 1e308: |h_z - w/2| at k = pi is 1.5
    # times the largest parameter, past the largest double, while the
    # normal form holds it. Every API answers without a warning, a scalar
    # API with its kernel's bits, a dimensionless output within 1e-15 of
    # (1, 1, -1, 1)'s at t = 0.3 T, the return amplitude and total phase on
    # both bands too, as they take their phase on the normal form. The plus
    # band's quasienergy w/2 + Delta/2 is itself past the largest double at
    # k = pi (and at k = 0.7 on 1.7e308), so band_energy is held on the
    # minus band alone, and the Fisher times are left out
    one = ModelParams(1.0, 1.0, -1.0, 1.0)
    assert near_the_largest_double(one, (0.3,)) <= 1e-15
    for s in (1.7e308, 1e308):
        p, ks = scaled(one, s), [0.0, 0.7, math.pi]
        assert np.isfinite(model.band_energy(p, "minus", ks)).all()
        for k in ks:
            for row, args, want in api.kernel_calls(p, k, 0.3 * p.period,
                                                    LEDGER_ROWS):
                assert bits(row.call(args)) == bits(want), (s, k, row.name)


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
        inv, inv_flipped = (api.outcome(topology.chiral_winding_numbers, x)
                            for x in (p, flipped))
        if isinstance(inv, type):
            assert inv_flipped is inv
        else:
            assert inv_flipped.wpi == -inv.wpi
            flipped_w_pi += inv.wpi != 0
    assert flipped_w_pi >= 10


def test_zone_reflection_keeps_observables_and_flips_the_windings():
    # (delta1, k) -> (-delta1, pi - k) keeps the field: sin(pi - k) = sin k
    # and -delta1 cos(pi - k) = delta1 cos k. It swaps the ends of the zone,
    # so |G|^2 at pi - k, g and the gap stay, and nu and W_pi change sign;
    # example1 -> example3 is the preset case
    def reflected(p):
        return ModelParams(p.omega_drive, -p.delta1, p.delta2, p.omega_amp)

    assert PRESETS["example3"] == reflected(PRESETS["example1"])
    rng = np.random.default_rng(2026102605)
    ks = np.array([0.0, math.pi, *rng.uniform(0.0, math.pi, 6)])[:, None]
    worst, flipped = {"prob": 0.0, "rate": 0.0}, 0
    for n, p in enumerate(seeded_drives(300, 265)):
        band, q = ("minus", "plus")[n % 2], reflected(p)
        ts = rng.uniform(-3.0 * p.period, 3.0 * p.period, 8)
        worst["prob"] = max(worst["prob"], np.abs(
            dynamics.return_probability_grid(q, math.pi - ks, ts)
            - dynamics.return_probability_grid(p, ks, ts)).max())
        worst["rate"] = max(worst["rate"], np.abs(
            dqpt.rate_function_grid(q, band, ts, 181)
            - dqpt.rate_function_grid(p, band, ts, 181)).max())
        assert bits(model.min_half_gap(q)) == bits(model.min_half_gap(p))
        assert np.array_equal(geometry.exact_winding_grid(q, band, ts),
                              -geometry.exact_winding_grid(p, band, ts))
        w_pi = topology.chiral_winding_numbers(p).wpi
        assert topology.chiral_winding_numbers(q).wpi == -w_pi
        flipped += w_pi != 0
    assert flipped >= 50
    # measured 2.8e-15 (|G|^2 at pi - k: the rounding of pi - k and of
    # sin) and 8.9e-16 (g: the trapezoid sums the k grid in reverse)
    assert worst["prob"] < 1e-14 and worst["rate"] < 3e-15, worst
