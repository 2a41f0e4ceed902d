"""Held defects: calls that answer neither a correct number nor a typed
error, pinned as they behave today.

The north star promises every input a number or a typed error. Each call
below breaks that promise on a drive at an end of the double range; its fix
waits for the ROADMAP item named with it, and shows up as an edit here. The
suite turns a RuntimeWarning into an error, so `pytest.warns` records them.
"""

import math

import numpy as np
import pytest

from floquet_dqpt.dqpt import fisher_tau
from floquet_dqpt.dynamics import propagator_oracle
from floquet_dqpt.errors import UndefinedTau
from floquet_dqpt.lattice import obc_floquet_spectrum
from floquet_dqpt.model import ModelParams, band_energy, bloch_components

# (1, 1, -1, 1) x 1.7e308: the plus band's w/2 + Delta/2 is past the
# largest double, the minus band's is not
HUGE = ModelParams(*(x * 1.7e308 for x in (1.0, 1.0, -1.0, 1.0)))


def messages(record):
    return [str(w.message) for w in record]


def test_open_chain_of_a_huge_drive_reads_nan():
    # ROADMAP items 7 and 14: half the quasienergies are NaN, no typed error
    with pytest.warns(RuntimeWarning) as record:
        spec = obc_floquet_spectrum(HUGE, 12)
    assert set(messages(record)) == {"invalid value encountered in multiply"}
    assert spec.quasienergies.size == 24
    assert np.isnan(spec.quasienergies).sum() == 12


@pytest.mark.parametrize("drive, warned", [
    ((5e-324,) * 4, ["invalid value encountered in multiply"]),
    ((1e-320, 1e-320, 5e-321, 1e-320),
     ["invalid value encountered in multiply",
      "invalid value encountered in exp"])], ids=["5e-324", "1e-320"])
def test_open_chain_of_a_drive_whose_period_overflows_reads_nan(drive,
                                                                warned):
    # ROADMAP items 7 and 14: ModelParams accepts a w whose period 2 pi / w
    # is inf, and every quasienergy of its chain is NaN
    params = ModelParams(*drive)
    assert params.period == math.inf
    with pytest.warns(RuntimeWarning) as record:
        spec = obc_floquet_spectrum(params, 12)
    assert messages(record) == warned
    assert spec.quasienergies.size == 24
    assert np.isnan(spec.quasienergies).all()


def test_rk4_oracle_of_a_huge_drive_is_all_nan():
    # ROADMAP item 14: the oracle keeps physical units by design, so its
    # H(k, t) overflows at 1e308 and U is NaN, with no typed error
    params = ModelParams(*(1e308,) * 4)
    with pytest.warns(RuntimeWarning) as record:
        u = propagator_oracle(params, 0.7, 0.37 * params.period, 256)
    assert any(m.startswith("overflow encountered") for m in messages(record))
    assert u.shape == (2, 2) and np.isnan(u).all()


@pytest.mark.parametrize("k", [0.7, math.pi])
def test_plus_band_energy_of_a_huge_drive_overflows(k):
    # ROADMAP item 7: band_energy returns E itself, so a typed error here
    # would be a new limit
    with pytest.warns(RuntimeWarning) as record:
        energy = band_energy(HUGE, "plus", k)
    assert len(record) == 1
    assert messages(record)[0].startswith("overflow encountered")
    assert energy == math.inf
    assert math.isfinite(band_energy(HUGE, "minus", k))


def test_plus_band_fisher_tau_of_a_huge_drive_blames_h_xy():
    # ROADMAP item 7: the overflowed E reads as h_xy = 0, though h_xy != 0;
    # the stable tau held there skips E
    assert bloch_components(HUGE, 0.7).h_xy != 0.0
    with pytest.warns(RuntimeWarning) as record, pytest.raises(
            UndefinedTau, match=r"^h_xy = 0: tau -> -inf$"):
        fisher_tau(HUGE, "plus", 0.7)
    assert len(record) == 1
    assert messages(record)[0].startswith("overflow encountered")
