"""Held defects: calls that answer neither a correct number nor a typed
error, pinned as they behave today.

The north star promises every input a number or a typed error. Each call
below breaks that promise on a drive, or at a time, at an end of the double
range; its fix waits for the ROADMAP item named with it, and shows up as an
edit here. The suite turns a RuntimeWarning into an error, so `pytest.warns`
records them.
"""

import math

import numpy as np
import pytest

from floquet_dqpt import cli
from floquet_dqpt.dqpt import fisher_tau, rate_function, rate_function_grid
from floquet_dqpt.dynamics import micromotion_overlap, propagator_oracle
from floquet_dqpt.errors import UndefinedTau
from floquet_dqpt.lattice import obc_floquet_spectrum
from floquet_dqpt.model import band_energy, band_weights, bloch_components

from api import DRIVES, SUBNORMAL, model_ini
from conftest import EXAMPLE1

# (1, 1, -1, 1) x 1.7e308: the plus band's w/2 + Delta/2 is past the
# largest double, the minus band's is not; x 1e308 it is past it at k = pi
# only
HUGE, LARGE = DRIVES["mixed*1.7e+308"], DRIVES["mixed*1e+308"]
PERIOD_INF = SUBNORMAL["1e-320"]


def messages(record):
    return [str(w.message) for w in record]


def test_open_chain_of_a_huge_drive_reads_nan():
    # ROADMAP items 7 and 14: half the quasienergies are NaN, no typed error
    with pytest.warns(RuntimeWarning) as record:
        spec = obc_floquet_spectrum(HUGE, 12)
    assert set(messages(record)) == {"invalid value encountered in multiply"}
    assert spec.quasienergies.size == 24
    assert np.isnan(spec.quasienergies).sum() == 12


@pytest.mark.parametrize("params, warned", [
    (SUBNORMAL["5e-324"], ["invalid value encountered in multiply"]),
    (PERIOD_INF,
     ["invalid value encountered in multiply",
      "invalid value encountered in exp"])], ids=["5e-324", "1e-320"])
def test_open_chain_of_a_drive_whose_period_overflows_reads_nan(params,
                                                                warned):
    # ROADMAP items 7 and 14: ModelParams accepts a w whose period 2 pi / w
    # is inf, and every quasienergy of its chain is NaN
    assert params.period == math.inf
    with pytest.warns(RuntimeWarning) as record:
        spec = obc_floquet_spectrum(params, 12)
    assert messages(record) == warned
    assert spec.quasienergies.size == 24
    assert np.isnan(spec.quasienergies).all()


def test_rk4_oracle_of_a_huge_drive_is_all_nan():
    # ROADMAP item 14: the oracle keeps physical units by design, so its
    # H(k, t) overflows at 1e308 and U is NaN, with no typed error
    params = DRIVES["one*1e+308"]
    with pytest.warns(RuntimeWarning) as record:
        u = propagator_oracle(params, 0.7, 0.37 * params.period, 256)
    assert any(m.startswith("overflow encountered") for m in messages(record))
    assert u.shape == (2, 2) and np.isnan(u).all()


@pytest.mark.parametrize("params, k", [
    (HUGE, 0.7), (HUGE, math.pi), (LARGE, math.pi)],
    ids=["0.7", "3.141592653589793", "1e308-3.141592653589793"])
def test_plus_band_energy_of_a_huge_drive_overflows(params, k):
    # ROADMAP item 7: band_energy returns E itself, so a typed error here
    # would be a new limit
    with pytest.warns(RuntimeWarning) as record:
        energy = band_energy(params, "plus", k)
    assert len(record) == 1
    assert messages(record)[0].startswith("overflow encountered")
    assert energy == math.inf
    assert math.isfinite(band_energy(params, "minus", k))


def test_plus_band_fisher_tau_of_a_huge_drive_blames_h_xy():
    # ROADMAP item 7: the overflowed E reads as h_xy = 0, though h_xy != 0;
    # the stable tau held there skips E
    for params, k in ((HUGE, 0.7), (LARGE, math.pi)):
        assert bloch_components(params, k).h_xy != 0.0
        with pytest.warns(RuntimeWarning) as record, pytest.raises(
                UndefinedTau, match=r"^h_xy = 0: tau -> -inf$"):
            fisher_tau(params, "plus", k)
        assert len(record) == 1
        assert messages(record)[0].startswith("overflow encountered")
    # x 1e308, the plus band's E and tau are finite, with no warning, off pi
    assert math.isfinite(band_energy(LARGE, "plus", 0.7))
    assert math.isfinite(fisher_tau(LARGE, "plus", 0.7))


def test_overlap_past_the_time_limit_reads_noise_then_nan():
    # ROADMAP item 14: micromotion_overlap leaves the time rule to its
    # callers, so past time_limit it answers a phase doubles cannot resolve,
    # and NaN once w t overflows
    wa, wb = band_weights(EXAMPLE1, "minus", np.array([0.3, 0.7]))
    assert EXAMPLE1.time_limit < 1e300
    z = micromotion_overlap(EXAMPLE1, wa, wb, 1e300)
    assert z.shape == (2,) and np.isfinite(z).all()
    with pytest.warns(RuntimeWarning) as record:
        z = micromotion_overlap(EXAMPLE1, wa, wb, 1e308)
    assert messages(record) == ["overflow encountered in multiply",
                                "invalid value encountered in exp"]
    assert z.shape == (2,)
    assert np.isnan(z.real).all() and np.isnan(z.imag).all()


def test_spectrum_command_of_a_drive_whose_period_overflows_prints_nan(
        tmp_path, capsys):
    # ROADMAP items 7 and 14: `fdqpt spectrum` exits 0 with a nan
    # quasienergy in every row, and numpy's two warnings on stderr
    ini = model_ini(tmp_path / "model.ini", PERIOD_INF)
    with pytest.warns(RuntimeWarning) as record:
        code = cli.main(["spectrum", "--config", ini, "--sites", "12"])
    assert code == 0
    assert messages(record) == ["invalid value encountered in multiply",
                                "invalid value encountered in exp"]
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "index,quasienergy,edge_weight,pi_mode"
    assert len(rows) == 24
    assert all(row.split(",")[1] == "nan" for row in rows)


@pytest.mark.filterwarnings("error")
def test_rate_function_of_the_gapless_drive_reads_nan(tmp_path, capsys):
    # ROADMAP items 1 and 14: the band weights are 0/0 at the grid point
    # k = 0, where the gap closes, and the trapezoid sums that NaN with no
    # warning, though g(t) is a finite integral (g(0) = 0); `fdqpt rate`
    # exits 0 with a nan column
    p = DRIVES["gapless0"]
    for band in ("minus", "plus"):
        assert math.isnan(rate_function(p, band, 0.0))
        assert math.isnan(rate_function(p, band, 0.3))
    assert np.isnan(rate_function_grid(p, "minus", [0.0, 0.3, 1.0], 181)).all()
    ini = model_ini(tmp_path / "model.ini", p)
    code = cli.main(["rate", "--config", ini, "--t-points", "3",
                     "--k-points", "5"])
    assert code == 0
    assert capsys.readouterr() == ("t,g\n0,nan\n4.7123889803846897,nan\n"
                                   "9.4247779607693793,nan\n", "")
