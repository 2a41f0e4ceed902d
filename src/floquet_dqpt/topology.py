"""Chiral-symmetric time frames and the (W0, Wpi) invariant pair, exactly.

Recentring the period in two symmetric ways gives Floquet operators
U_1,2(k) = -exp(-i [(h_z - w/2) sz +- h_xy sx] T), both obeying
sy U sy = U^dagger, with planar effective Hamiltonians. Over the zone the
vector (h_z - w/2, h_xy) traces an ellipse centred at ((delta2 - w)/2, 0)
with semi-axes |delta1|/2, |Omega|/2. For Omega != 0 it winds once around
the origin, with orientation sign(delta1 Omega), iff |w - delta2| < |delta1|,
the condition of `dqpt.dqpt_condition`. That gives W1 in closed form, and
the flipped h_xy of U_2 gives W2 = -W1.

W0 = (W1 + W2)/2 = 0 and Wpi = (W1 - W2)/2 = W1 are structural. In the
static frame U(T) = -exp(-i H_eff T) with H_eff time-independent (see
lattice): a chiral edge mode of H_eff sits at e = 0, and the sign
-1 = e^{-i pi} folds it to quasienergy pi. No edge mode sits at 0.

Where the vector meets the origin the winding is undefined: the closed form
raises exact_winding's errors in its order, DegenerateDelta1 from the
condition, then GaplessPoint from the zone-gap test, model.zone_gap_guard.
"""

from __future__ import annotations

import math

from ._record import record
from .dqpt import dqpt_condition
from .model import ModelParams, zone_gap_guard


@record
class ChiralInvariants:
    """The invariants of the two chiral time frames: W1, W2 = -W1, W0 =
    (W1 + W2)/2 and Wpi = (W1 - W2)/2, integers; raw_w1 is W1 as a float."""

    w1: int
    w2: int
    w0: int
    wpi: int
    raw_w1: float


def chiral_winding_numbers(params: ModelParams) -> ChiralInvariants:
    """(W1, W2, W0, Wpi): W1 = sign(delta1 Omega) where the DQPT condition
    holds, else 0 (module docstring). Raises DegenerateDelta1, then
    GaplessPoint where the gap closes in the zone, which includes the
    condition's boundary (the vector meets the origin at k = 0 or pi)."""
    has_dqpt = dqpt_condition(params).has_dqpt
    zone_gap_guard(params)
    w1 = 0
    if has_dqpt:
        w1 = int(math.copysign(1.0, params.delta1 * params.omega_amp))
    return ChiralInvariants(w1=w1, w2=-w1, w0=0, wpi=w1, raw_w1=float(w1))
