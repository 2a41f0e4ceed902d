import math

import numpy as np
import pytest

from floquet_dqpt.cli import PRESETS
from floquet_dqpt.errors import InvalidSize, StepCountTooSmall
from floquet_dqpt.model import MAX_SITES, ModelParams
from floquet_dqpt.lattice import (PI_MODE_EDGE_WEIGHT, PI_MODE_ENERGY_TOL,
                                  obc_floquet_spectrum)

from api import random_params
from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3
from test_datasets import load_script
from oracles import (bdg_hamiltonian, chiral_block_spectrum,
                     one_period_propagator, rotating_frame_hamiltonian)


def test_obc_spectrum_size_range(ex1, monkeypatch):
    # refused before the (2N)^2 matrix is allocated
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated")
    monkeypatch.setattr(np, "zeros", no_alloc)
    for n in (1, MAX_SITES + 1):
        with pytest.raises(InvalidSize):
            obc_floquet_spectrum(ex1, n)


def test_hand_assembled_two_site_open_matrix(ex1):
    # N = 2 open chain written out by hand
    p = ex1
    t = 0.37
    hop = 0.5 * p.delta1
    pair = p.omega_amp / 2j * np.exp(-1j * p.omega_drive * t)
    expected = np.array(
        [[p.delta2, hop, 0, pair],
         [hop, p.delta2, -pair, 0],
         [0, np.conj(-pair), -p.delta2, -hop],
         [np.conj(pair), 0, -hop, -p.delta2]], dtype=complex)
    h = bdg_hamiltonian(p, 2, t)
    assert np.abs(h - expected).max() < 1e-15


def test_hermiticity_and_periodicity():
    rng = np.random.default_rng(83)
    for antiperiodic in (False, True):
        p = random_params(rng)
        t = rng.uniform(0.0, p.period)
        h = bdg_hamiltonian(p, 6, t, antiperiodic)
        assert np.abs(h - h.conj().T).max() < 1e-14
        h_next = bdg_hamiltonian(p, 6, t + p.period, antiperiodic)
        assert np.abs(h - h_next).max() < 1e-12


def test_particle_hole_symmetry():
    # tau_x H^* tau_x = -H in the Nambu basis
    rng = np.random.default_rng(89)
    p = random_params(rng)
    n = 5
    h = bdg_hamiltonian(p, n, 0.61)
    tau_x = np.kron(np.array([[0, 1], [1, 0]]), np.eye(n))
    assert np.abs(tau_x @ h.conj() @ tau_x + h).max() < 1e-13


def test_zero_pairing_block_without_drive_amplitude():
    p = ModelParams(omega_drive=math.pi, delta1=1.0, delta2=0.3,
                    omega_amp=0.0)
    h = bdg_hamiltonian(p, 4, 0.9)
    assert np.abs(h[:4, 4:]).max() == 0.0
    assert np.abs(h.imag).max() == 0.0


def test_antiperiodic_spectrum_matches_bloch_quasienergies(ex1):
    # one-period eigenvalues of the N-site antiperiodic chain must be
    # {e^{-i E_pm(k_m) T}} over the half-integer momentum set, compared on
    # the unit circle; the chain is block-diagonal in k_m, so any even N
    # checks the same claim
    n = 16
    u = one_period_propagator(ex1, n, 2048, antiperiodic=True)
    lam = np.linalg.eigvals(u)
    energies = np.concatenate([
        np.linalg.eigvalsh(rotating_frame_hamiltonian(ex1, k))
        for k in 2.0 * math.pi * (np.arange(n) + 0.5) / n])
    expected = np.exp(-1j * energies * ex1.period)
    dist = np.abs(lam[:, None] - expected[None, :])
    assert dist.min(axis=1).max() < 1e-6
    assert dist.min(axis=0).max() < 1e-6


def test_obc_spectrum_structure(ex1):
    spec = obc_floquet_spectrum(ex1, 20)
    assert spec.quasienergies.shape == (40,)
    assert (np.diff(spec.quasienergies) >= 0).all()
    assert spec.edge_weights.min() >= 0 and spec.edge_weights.max() <= 1 + 1e-12
    # particle-hole partners: the folded spectrum pairs as +-eps (the two
    # zone-edge values fold onto the same endpoint)
    eps = spec.quasienergies
    inner = eps[(np.abs(np.abs(eps) - 0.5 * ex1.omega_drive) > 1e-6)]
    assert np.abs(np.sort(inner) + np.sort(-inner)[::-1]).max() < 1e-8


def test_obc_step_guard(ex1):
    with pytest.raises(StepCountTooSmall):
        one_period_propagator(ex1, 10, 512)


def test_obc_spectrum_matches_rk4_oracle():
    # exact static-frame spectrum vs the time-ordered RK4 propagator; compare
    # on the unit circle so modes near the fold boundary +-w/2 cannot flip
    rng = np.random.default_rng(2048)
    draws = [EXAMPLE1, EXAMPLE2, EXAMPLE3] + [random_params(rng)
                                              for _ in range(3)]
    n = 12
    for p in draws:
        spec = obc_floquet_spectrum(p, n)
        u = one_period_propagator(p, n, 8192)
        lam = np.exp(-1j * spec.quasienergies * p.period)
        oracle = np.linalg.eigvals(u)
        dist = np.abs(lam[:, None] - oracle[None, :])
        assert dist.min(axis=1).max() < 1e-9
        assert dist.min(axis=0).max() < 1e-9


# pi modes of each preset's open chain
PI_MODES = {"example1": 2, "example2": 0, "example3": 2, "nv-plus": 2,
            "nv-minus": 0}
# Largest |edge weight - chiral block's| per N and preset, with one BLAS
# thread or two, measured: at N = 40 5.9e-15, 4.5e-14, 4.3e-15, 7.4e-15,
# 1.9e-13; at N = 100 3.7e-14, 3.9e-13, 2.2e-14, 4.1e-14, 4.0e-13; at
# N = 400 3.6e-13 and 1.1e-11. At N = 400 the library's eigh takes about
# 0.4 s a preset, so two presets, one with pi modes and one without, keep
# the suite's growth within 2 s.
EDGE_TOL = {40: {"example1": 1e-14, "example2": 1e-13, "example3": 1e-14,
                 "nv-plus": 1e-14, "nv-minus": 3e-13},
            100: {"example1": 6e-14, "example2": 6e-13, "example3": 4e-14,
                  "nv-plus": 6e-14, "nv-minus": 6e-13},
            400: {"example1": 6e-13, "nv-minus": 2e-11}}


@pytest.mark.parametrize("n", [40, 100, 400])
def test_obc_spectrum_matches_chiral_block(n):
    # H_eff has the eigenvalues +-s of the chiral block, so on the unit
    # circle e^{-i eps T} = -e^{-+i s T}, with no fold to flip; the block's
    # pi modes, by the library's criterion on its own quasienergies and edge
    # weights, are as many. The modes of +-s share |eps| and the edge
    # weight of the pair, so ordering both sides by |eps| pairs the weights
    for name, tol in EDGE_TOL[n].items():
        p = PRESETS[name]
        spec = obc_floquet_spectrum(p, n)
        s, edge = chiral_block_spectrum(p, n)
        lam = np.exp(-1j * spec.quasienergies * p.period)
        oracle = -np.exp(-1j * np.concatenate([s, -s]) * p.period)
        dist = np.abs(lam[:, None] - oracle[None, :])
        assert dist.min(axis=1).max() < 1e-13
        assert dist.min(axis=0).max() < 1e-13
        w = p.omega_drive
        near_pi = 0.5 * w - np.abs(np.angle(oracle) / p.period) \
            < PI_MODE_ENERGY_TOL * w
        pi_modes = near_pi & (np.tile(edge, 2) >= PI_MODE_EDGE_WEIGHT)
        assert pi_modes.sum() == spec.pi_mode.sum() == PI_MODES[name]
        got = spec.edge_weights[np.argsort(np.abs(spec.quasienergies),
                                           kind="stable")]
        key = np.abs(np.angle(oracle[:s.size])) / p.period
        want = np.repeat(edge[np.argsort(key, kind="stable")], 2)
        assert np.abs(got - want).max() <= tol


def test_pi_mode_tolerance_leaves_out_a_mode_past_it(ex1):
    # example1's open chain of 6 sites has two edge modes 0.0221 w from
    # +-w/2 with edge weight 0.567: past the 0.02 w tolerance, so no pi mode
    spec = obc_floquet_spectrum(ex1, 6)
    w = ex1.omega_drive
    detuning = (0.5 * w - np.abs(spec.quasienergies)) / w
    edge = (detuning > 0.02) & (detuning < 0.03) & (spec.edge_weights >= 0.5)
    assert edge.sum() == 2
    assert np.allclose(detuning[edge], 0.022066, atol=1e-6)
    assert not spec.pi_mode.any()


def test_bulk_boundary_correspondence(ex1, ex2, ex3):
    # nontrivial pi invariant <-> a pair of edge-localized pi modes
    s1 = obc_floquet_spectrum(ex1, 40)
    assert int(s1.pi_mode.sum()) == 2
    s2 = obc_floquet_spectrum(ex2, 40)
    assert int(s2.pi_mode.sum()) == 0
    s3 = obc_floquet_spectrum(ex3, 40)
    assert int(s3.pi_mode.sum()) == 2


def test_edge_mode_scaling_script_reads_as_the_readme_quotes(capsys):
    # scripts/edge_mode_scaling.py at N = 20, 40, 80: example1 flags two pi
    # modes at each size, pinned to +-w/2 ever closer; example2 flags none
    load_script("edge_mode_scaling").main(["edge_mode_scaling", "20", "40",
                                           "80"])
    rows, preset = {}, None
    for line in capsys.readouterr().out.splitlines():
        if not line.startswith(" "):
            preset = line.split(":")[0]
        elif line.split()[0].isdigit():
            n, modes, detuning, _ = line.split()
            rows[preset, int(n)] = (int(modes), detuning)
    assert set(rows) == {(name, n) for name in ("example1", "example2")
                         for n in (20, 40, 80)}
    assert [rows["example1", n][0] for n in (20, 40, 80)] == [2, 2, 2]
    assert float(rows["example1", 20][1]) == pytest.approx(5.69e-4, rel=0.01)
    assert float(rows["example1", 40][1]) == pytest.approx(8.83e-7, rel=0.01)
    assert float(rows["example1", 80][1]) < 1e-11
    assert [rows["example2", n] for n in (20, 40, 80)] == [(0, "-")] * 3
