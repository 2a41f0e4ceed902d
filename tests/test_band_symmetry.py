"""The two bands of one drive, against each other.

The upper band's mode is the lower one's with |a|^2 and |b|^2 swapped, so
|G|^2 and g do not depend on the band, the geometric phase and the winding
change sign, and the Fisher-zero lines mirror: (E+ - h_z)(E- - h_z) = -h_xy^2
gives tau+ = -tau-; each API's relation is its row's `band` in `api.py`.
Each band's |G_band|^2, squared from its return amplitude, is held to the
band-free return_probability. Each relation is held to the bound it meets on
seeded drives, over interior k (tau diverges where h_xy = 0) and t within
three periods either side of 0.
"""

import math

import numpy as np

import api
from floquet_dqpt import dynamics, geometry

KS = np.linspace(0.0, math.pi, 102)[1:-1]
# measured 6.7e-16 (g), 1.8e-14 (the phase: the rounding of w t), 9.7e-9
# (tau, relative: the cancellation in E - h_z) and 6.7e-16 (|e^{-iEt}|)
BOUNDS = {"same": 3e-15, "sign": 5e-14, "mirror": 3e-8, "prob": 3e-15}


def deviation(relation, plus, minus):
    """How far the upper band's outputs are from their relation to the lower
    one's: |difference|, the sum reduced mod 2 pi, or |sum| relative."""
    if relation == "same":
        return np.abs(plus - minus)
    if relation == "sign":
        return np.abs(geometry.principal_branch(plus + minus))
    assert np.isfinite(plus).all() and np.isfinite(minus).all()
    return np.abs(plus + minus) / np.maximum(np.abs(plus), np.abs(minus))


def test_band_symmetries_on_seeded_drives():
    rng = np.random.default_rng(20261019)
    # a scalar API with a kernel is the kernel at the point (test_model), so
    # it relates its bands as the kernel does
    rows = [row for row in api.API
            if row.band not in (None, "state") and not row.kernel]
    seen, worst = {}, dict.fromkeys(BOUNDS, 0.0)
    for _ in range(300):
        p = api.random_params(rng)
        ts = rng.uniform(-3.0 * p.period, 3.0 * p.period, 8)
        grid = {"params": p, "ks": KS[:, None], "ts": ts}
        calls = list(api.calls(grid, KS[::50], ts[:2], [None], rows))
        # one band's calls, then the other's: a k grid's weights serve both
        plus, minus = ([api.outcome(row.call, {**args, "band": band})
                        for row, _, args in calls] for band in ("plus",
                                                                "minus"))
        for (row, _, _), x, y in zip(calls, plus, minus):
            if isinstance(x, type):
                assert y is x, row.name
                continue
            for (relation, a), (_, b) in zip(api.parts(x, row.band),
                                             api.parts(y, row.band),
                                             strict=True):
                pair = seen.setdefault((row.name, relation), ([], []))
                pair[0].append(np.ravel(a))
                pair[1].append(np.ravel(b))
        for k in KS[::25].tolist():
            for t in ts[:4].tolist():
                prob = dynamics.return_probability(p, k, t)
                worst["prob"] = max(worst["prob"], *(abs(abs(
                    dynamics.return_amplitude(p, band, k, t).value) ** 2
                    - prob) for band in api.BANDS))
    assert {name for name, _ in seen} == {row.name for row in rows}
    for (name, relation), pair in seen.items():
        x, y = (np.concatenate(values).astype(float) for values in pair)
        assert np.array_equal(np.isnan(x), np.isnan(y)), name
        worst[relation] = max(worst[relation], np.nanmax(
            deviation(relation, x, y), initial=0.0))
        # compared on many values, a sign on a quarter of them away from 0:
        # a winding trace on more than 2000, 500 of them nonzero
        many = 2000 if relation == "sign" and api.ROWS[name].kind == "grid" \
            else 500
        assert np.isfinite(x).sum() > many, name
        assert relation != "sign" or (np.abs(x) >= 0.5).sum() > many / 4, name
    assert all(worst[key] < bound for key, bound in BOUNDS.items()), worst
