"""The precision ledger: each shipped dataset column against a 40-digit
mpmath value written from the paper's formulas, not from the library.

The columns are sampled on a strided subgrid of the grids `fdqpt` ships at
its defaults (181 k on [0, pi] times 241 t over three periods), for the
double k, t and parameters the library sees. Each bound is the largest
deviation measured there, rounded up.

retprob: |G|^2 = 1 - sin^2(theta) sin^2(w t / 2), with
sin^2(theta) = h_xy^2 / (Delta/2)^2, h_xy = Omega sin(k) / 2 and
Delta/2 = |(h_xy, (delta1 cos k + delta2 - w) / 2)|. Measured in the
shipped minus band: 1.11e-15 (example1, nv-plus), 7.8e-16 (example3),
6.7e-16 (nv-minus), 5.6e-16 (example2).

geo: the Pancharatnam phase arg G + <chi|H(0)|chi> t modulo 2 pi, with
G = <chi| U_R(t) |chi> e^{-i E t}, E = w/2 - Delta/2, |chi> the lower
eigenvector of h_xy sx + (h_z - w/2) sz and U_R(t) = diag(1, e^{i w t}); the
lab-frame energy <psi(t)|H(t)|psi(t)> = <chi|H(0)|chi> is conserved, so the
dynamical phase is -<chi|H(0)|chi> t. Cells the library reads as NaN (|G| below 1e-9) are
skipped. Measured in the shipped minus band, modulo 2 pi: 5.3e-15
(example1), 4.4e-15 (example3), 3.3e-15 (example2), 2.8e-15 (nv-minus),
2.2e-15 (nv-plus, 3 NaN cells).

fisher tau: (1/w) ln[h_xy^2 / (E - h_z)^2] with E = w/2 - Delta/2, on the
interior k of the 401-point grid the bundled `*_fisher.csv` datasets use,
relative where |tau| > 1. The zone ends k = 0 and pi are left out: there
|E - h_z| = |Delta/2 + dz| cancels to rounding for one band (nv-minus
prints tau = 0.005 at k = pi against 2.402), a change held for a maintainer
decision. Measured in the shipped minus band: 7.13e-12 (example3), 7.12e-12
(example1), 1.42e-12 (example2), 3.71e-13 (nv-minus), 1.49e-14 (nv-plus),
the worst next to a zone end, where the cancellation begins.
"""

import mpmath
import numpy as np
import pytest

from floquet_dqpt import cli
from floquet_dqpt.dqpt import fisher_tau_grid
from floquet_dqpt.dynamics import return_probability_grid
from floquet_dqpt.geometry import AMP_FLOOR, geometric_phase_grid

DIGITS = 40
K_STRIDE, T_STRIDE = 9, 8
RETPROB_BOUND = 2e-15
GEO_BOUND = 6e-15
FISHER_K_POINTS = 401
FISHER_BOUNDS = {"example1": 8e-12, "example2": 2e-12, "example3": 8e-12,
                 "nv-minus": 4e-13, "nv-plus": 2e-14}


def shipped_subgrid(preset, command="retprob"):
    """(params, k, t): every K_STRIDE-th k and T_STRIDE-th t of the grids
    `fdqpt COMMAND --preset PRESET` writes at its defaults."""
    _, cfg = cli.build_config([command, "--preset", preset])
    return (cfg.params, cli.k_grid(cfg)[::K_STRIDE],
            cli.t_grid(cfg)[::T_STRIDE])


def exact_return_probability(p, k, t) -> float:
    with mpmath.workdps(DIGITS):
        w, d1, d2, amp, k, t = map(mpmath.mpf, (
            p.omega_drive, p.delta1, p.delta2, p.omega_amp, k, t))
        h_xy = amp * mpmath.sin(k) / 2
        dz = (d1 * mpmath.cos(k) + d2 - w) / 2
        sin2_theta = h_xy ** 2 / (h_xy ** 2 + dz ** 2)
        return float(1 - sin2_theta * mpmath.sin(w * t / 2) ** 2)


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_retprob_column_against_mpmath(preset):
    p, ks, ts = shipped_subgrid(preset)
    got = return_probability_grid(p, ks[:, None], ts)
    exact = np.array([[exact_return_probability(p, k, t) for t in ts]
                      for k in ks])
    assert np.abs(got - exact).max() <= RETPROB_BOUND


def exact_geometric_phase(p, k, t):
    """(phase in [-pi, pi), |G|) of the lower band at (k, t)."""
    with mpmath.workdps(DIGITS):
        w, d1, d2, amp, k, t = map(mpmath.mpf, (
            p.omega_drive, p.delta1, p.delta2, p.omega_amp, k, t))
        h_xy = amp * mpmath.sin(k) / 2
        h_z = (d1 * mpmath.cos(k) + d2) / 2
        dz = h_z - w / 2
        r = mpmath.sqrt(h_xy ** 2 + dz ** 2)
        # the two forms of the eigenvector of -r; one vanishes at h_xy = 0
        a, b = max([(h_xy, -(dz + r)), (dz - r, h_xy)],
                   key=lambda v: abs(v[0]) + abs(v[1]))
        norm = mpmath.sqrt(a ** 2 + b ** 2)
        a, b = a / norm, b / norm
        g = mpmath.exp(-1j * (w / 2 - r) * t) * (
            a ** 2 + mpmath.exp(1j * w * t) * b ** 2)
        energy = h_z * (a ** 2 - b ** 2) + 2 * h_xy * a * b
        phase = mpmath.arg(g) + energy * t
        turns = mpmath.floor((phase + mpmath.pi) / (2 * mpmath.pi))
        return float(phase - 2 * mpmath.pi * turns), float(abs(g))


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_geo_column_against_mpmath(preset):
    p, ks, ts = shipped_subgrid(preset, "geo")
    got = geometric_phase_grid(p, "minus", ks[:, None], ts)
    exact, modulus = np.moveaxis(np.array(
        [[exact_geometric_phase(p, k, t) for t in ts] for k in ks]), -1, 0)
    nan = np.isnan(got)
    assert (modulus[nan] < AMP_FLOOR).all()
    d = got[~nan] - exact[~nan]
    assert np.abs(np.arctan2(np.sin(d), np.cos(d))).max() <= GEO_BOUND


def exact_fisher_tau(p, k) -> float:
    with mpmath.workdps(DIGITS):
        w, d1, d2, amp, k = map(mpmath.mpf, (
            p.omega_drive, p.delta1, p.delta2, p.omega_amp, k))
        h_xy = amp * mpmath.sin(k) / 2
        h_z = (d1 * mpmath.cos(k) + d2) / 2
        energy = w / 2 - mpmath.sqrt(h_xy ** 2 + (h_z - w / 2) ** 2)
        return float(mpmath.log(h_xy ** 2 / (energy - h_z) ** 2) / w)


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_fisher_tau_column_against_mpmath(preset):
    _, cfg = cli.build_config(["fisher", "--preset", preset, "--k-points",
                               str(FISHER_K_POINTS)])
    ks = cli.k_grid(cfg)[1:-1]  # interior k: the zone ends are left out
    got = fisher_tau_grid(cfg.params, "minus", ks)
    exact = np.array([exact_fisher_tau(cfg.params, k) for k in ks])
    err = np.abs(got - exact) / np.maximum(1.0, np.abs(exact))
    assert err.max() <= FISHER_BOUNDS[preset]
