"""The dataset writer's number kernel against "%.17g".

`_cells._format_cells` writes each float as the bytes "%.17g" gives it: an
exact integer route for the cells %g writes in fixed notation, and "%"
itself for the rest. The reference here formats every value with "%.17g",
one by one, and the two texts must be equal byte for byte.
"""

import math
from fractions import Fraction

import numpy as np

from floquet_dqpt._cells import CELL, _format_cells

SEED = 20261018


def kernel_lines(x) -> list:
    # one row per cell, CELL bytes then a line end; NULs are padding
    rows = np.empty((np.size(x), CELL + 1), np.uint8)
    rows[:, CELL] = ord("\n")
    _format_cells(x, rows[:, :CELL])
    text = rows.tobytes().translate(None, b"\0").decode("ascii")
    return text.split("\n")[:-1]


def reference_lines(x) -> list:
    return ["%.17g" % v for v in np.asarray(x, dtype=float).tolist()]


def assert_formats_like_percent_g(x):
    got, want = kernel_lines(x), reference_lines(x)
    bad = [(v, g, w) for v, g, w in zip(np.ravel(x).tolist(), got, want)
           if g != w]
    assert not bad, f"{len(bad)} of {len(want)} cells differ: {bad[:5]}"


def powers_of_ten_and_neighbours() -> np.ndarray:
    xs = []
    for e in range(-8, 19):
        v = float(f"1e{e}")
        xs += [np.nextafter(v, 0.0), v, np.nextafter(v, math.inf)]
    xs = np.array(xs)
    return np.concatenate([xs, -xs])


def exact_ties(rng, count) -> np.ndarray:
    """Doubles whose 18th significant digit is a final 5: x = N / 2^j with
    N odd and j = 17 - e fraction digits, e = floor(log10 x) in [-4, 15]."""
    xs = []
    while len(xs) < count:
        e = int(rng.integers(-4, 16))
        j = 17 - e
        lo = math.ceil(Fraction(10) ** e * 2 ** j)
        hi = min(math.floor(Fraction(10) ** (e + 1) * 2 ** j), 2 ** 53)
        n = int(rng.integers(lo, hi)) | 1
        x = Fraction(n, 2 ** j)
        scaled = x * Fraction(10) ** (16 - e)
        assert scaled.denominator == 2 and 10 ** 16 < scaled < 10 ** 17
        assert Fraction(float(x)) == x
        xs.append(float(x) * (1 if rng.integers(2) else -1))
    return np.array(xs)


def test_kernel_equals_percent_g_on_a_million_values():
    rng = np.random.default_rng(SEED)
    n_bits = 250_000
    bits = rng.integers(0, 2 ** 64, n_bits, dtype=np.uint64)
    # random patterns, and the same mantissas with exponent 0 (subnormals)
    # and all ones (infinities and NaN payloads of both signs)
    subnormal = bits[:20_000] & np.uint64(0x800F_FFFF_FFFF_FFFF)
    nan_payload = bits[:20_000] | np.uint64(0x7FF0_0000_0000_0001)
    sign = rng.choice([-1.0, 1.0], 400_000)
    x = np.concatenate([
        rng.uniform(-1.0, 1.0, 250_000),
        rng.uniform(-1e3, 1e3, 100_000),
        np.exp(rng.uniform(math.log(1e-8), math.log(1e19), 400_000)) * sign,
        bits.view(np.float64),
        subnormal.view(np.float64),
        nan_payload.view(np.float64),
        powers_of_ten_and_neighbours(),
        exact_ties(rng, 3000),
        2.0 ** 53 + np.arange(-16.0, 18.0, 2.0),
        -(2.0 ** 53 + np.arange(-16.0, 18.0, 2.0)),
        [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan],
    ])
    assert x.size >= 1_000_000
    assert np.isnan(x).sum() > 20_000
    assert ((x != 0) & (np.abs(x) < np.finfo(float).tiny)).sum() > 10_000
    assert_formats_like_percent_g(x)


def test_kernel_casts_float32_exactly():
    rng = np.random.default_rng(SEED + 1)
    x = (rng.uniform(-1.0, 1.0, 100_000)
         * 10.0 ** rng.integers(-8, 19, 100_000)).astype(np.float32)
    x[:4] = [np.float32(0.1), np.float32(-0.0), np.inf, np.nan]
    assert_formats_like_percent_g(x)
    assert kernel_lines(x[:1]) == ["0.10000000149011612"]


def test_kernel_spells_tokens_and_round_trips():
    assert kernel_lines([math.nan, math.inf, -math.inf, 1.0, -0.0]) \
        == ["nan", "inf", "-inf", "1", "-0"]
    # 17 significant digits read back as the same double
    x = math.pi / 3
    assert float(kernel_lines([x])[0]) == x


def test_kernel_writes_integers_like_percent_d():
    # integer and boolean columns are cast to float64: below 2^53 the cast
    # is exact and "%.17g" of an integral value spells it as "%d" does
    rng = np.random.default_rng(SEED + 2)
    top = 2 ** 53 - 1
    magnitude = (2.0 ** rng.uniform(0.0, 53.0, 50_000)).astype(np.int64)
    ints = np.concatenate([
        magnitude * rng.choice([-1, 1], magnitude.size),
        rng.integers(-top, top, 50_000, endpoint=True),
        [0, 1, -1, top, -top]])
    assert np.abs(ints).max() == top
    for x in (ints, rng.integers(0, 2, 1000).astype(bool)):
        assert kernel_lines(x) == ["%d" % v for v in x.tolist()]
