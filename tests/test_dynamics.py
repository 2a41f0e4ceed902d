import ast
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floquet_dqpt import dynamics
from floquet_dqpt.errors import (GaplessPoint, StepCountTooSmall,
                                 TimeUnresolved)
from floquet_dqpt.dynamics import (propagator_analytic, propagator_oracle,
                                   return_amplitude, return_probability_grid)
from floquet_dqpt.model import normal_field

import oracles
from api import CLOSURES, DRIVES, bits, random_params
from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3
from oracles import (SIGMA_X, bloch_field, micromotion,
                     rotating_frame_hamiltonian, scalar_rk4_propagator)


def test_propagators_identity_at_t0(ex1):
    assert np.allclose(propagator_analytic(ex1, 0.8, 0.0), np.eye(2))
    assert np.allclose(propagator_oracle(ex1, 0.8, 0.0), np.eye(2))


def test_oracle_step_guard(ex1):
    with pytest.raises(StepCountTooSmall):
        propagator_oracle(ex1, 0.8, 1.0, steps=128)


def test_oracle_refuses_non_finite_t(ex1):
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            propagator_oracle(ex1, 0.8, t)


def test_oracle_refuses_unresolved_t(ex1, monkeypatch):
    # refused before any step: without the time rule these times would run
    # about 4e16 and 2e303 RK4 steps of noise; a negative t is answered
    # (U(k, -t) = conj U(k, t), tests/test_symmetries.py)

    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError("the oracle started integrating")

    monkeypatch.setattr(dynamics, "np", NoArrays())
    for t in (ex1.time_limit, 1e300, -1e300):
        with pytest.raises(TimeUnresolved):
            propagator_oracle(ex1, 0.8, t)


def field_readers(names=("bloch_field",)) -> set:
    """The functions tests/oracles.py defines that read the field: those
    that name bloch_field, or a function that reads it."""
    defined = {fn.__name__: fn for fn in vars(oracles).values()
               if inspect.isfunction(fn) and fn.__module__ == oracles.__name__}
    readers = {name for name, fn in defined.items()
               if code_names(fn.__code__) & set(names)} | set(names)
    return readers if readers == set(names) else field_readers(readers)


def test_oracle_reads_no_field_of_the_analytic_route(ex1, monkeypatch):
    # the oracles check the analytic route, so they form H's field from the
    # parameters themselves: with the route's field kernel broken, the
    # library's RK4 oracle and every reference that reads the field, directly
    # or through another reference, keep their bits
    from floquet_dqpt import model

    def broken(*args):
        raise AssertionError("an oracle read model.normal_field")

    ks = np.linspace(0.0, math.pi, 7)
    calls = [(propagator_oracle, (ex1, k, t, 256))
             for k in (0.0, 0.8, math.pi) for t in (1.3, -2.1)]
    references = {
        "bloch_field": [(ex1, ks), (ex1, 0.8)],
        "rotating_frame_hamiltonian": [(ex1, 0.8), (ex1, math.pi)],
        "eigenvector_phases": [(ex1, band, 0.8, -2.1)
                               for band in ("minus", "plus")],
        "hamiltonian_lab": [(ex1, 0.8, 1.3), (ex1, 0.0, -2.1)],
        "momentum_consistency_check": [(ex1, 6)],
        "symmetric_frame_operators": [(ex1, 0.8), (EXAMPLE3, 0.0)],
        "brute_winding": [(ex1,), (EXAMPLE3, True, 401)],
        "winding_integral": [(ex1, 1000)],
        "scalar_rk4_propagator": [(ex1, 0.8, 1.3, 256),
                                  (EXAMPLE2, 0.8, -0.3, 256)]}
    assert set(references) == field_readers()
    calls += [(getattr(oracles, name), args)
              for name, arg_list in references.items() for args in arg_list]

    def parts(out):
        return [bits(x) for x in (out if isinstance(out, tuple) else (out,))]

    want = [parts(fn(*args)) for fn, args in calls]
    monkeypatch.setattr(model, "normal_field", broken)
    for (fn, args), value in zip(calls, want):
        assert parts(fn(*args)) == value, fn.__name__


def test_oracle_field_is_the_library_field():
    # the one link between the references and the library: bloch_field is
    # normal_field's (h_xy, h_z) times 2^e, bit for bit, signed zeros
    # included, on every drive of the sweep and every closure of the gap
    rng = np.random.default_rng(52)
    ks = np.concatenate([[0.0, math.pi], np.linspace(0.0, math.pi, 401),
                         rng.uniform(0.0, math.pi, 200)])
    for name, p in {**DRIVES, **CLOSURES}.items():
        unit = p.normal_form[0]
        for k in (ks, *ks[[0, 1, 300]].tolist()):
            want = [x * unit for x in normal_field(p, k)[:2]]
            assert [bits(x) for x in bloch_field(p, k)] == \
                [bits(x) for x in want], name


def test_oracle_refuses_non_finite_k(ex1):
    # refused up front: a NaN k would give a NaN U, an inf one would reach
    # sin and cos
    for k in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="k must be finite"):
            propagator_oracle(ex1, k, 1.0)


def test_oracle_diagonal_at_k0(ex1):
    # h_xy(0) = 0 so H is static sz; the oracle must give a diagonal phase
    hz = bloch_field(ex1, 0.0)[1]
    t = 1.37
    u = propagator_oracle(ex1, 0.0, t, steps=1024)
    expected = np.diag([np.exp(-1j * hz * t), np.exp(1j * hz * t)])
    assert np.abs(u - expected).max() < 1e-10


def test_propagator_closed_form_matches_spectral_form():
    # U_R(t) sum_pm e^{-i E_pm t} |chi_pm><chi_pm| from the Floquet modes
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 200:
        p = random_params(rng)
        k = rng.uniform(0.0, math.pi)
        t = rng.uniform(0.0, 4.0 * p.period)
        try:
            u = propagator_analytic(p, k, t)
        except GaplessPoint:
            continue
        energies, modes = np.linalg.eigh(rotating_frame_hamiltonian(p, k))
        spectral = micromotion(p, t) @ (modes * np.exp(-1j * energies * t)) \
            @ modes.conj().T
        assert np.abs(u - spectral).max() < 1e-10
        # exactly the SU(2) pair [[a, b], [-b*, a*]], bit for bit
        pair = np.array([-u[0, 1].conjugate(), u[0, 0].conjugate()])
        assert np.array_equal(u[1].view(np.int64), pair.view(np.int64))
        assert abs(np.linalg.det(u) - 1.0) <= 1e-15
        checked += 1


def test_propagator_half_period_closed_form(ex1):
    # U(k_c, T/2) = e^{-i pi sz/2} e^{-i (Omega T/4) sin(k_c) sx}
    k_c = math.pi / 3
    t = ex1.period / 2
    theta = 0.25 * ex1.omega_amp * ex1.period * math.sin(k_c)
    rot_z = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
    rot_x = (math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * SIGMA_X)
    assert np.abs(propagator_analytic(ex1, k_c, t) - rot_z @ rot_x).max() \
        < 1e-12


def test_oracle_matches_analytic_example(ex1):
    u_a = propagator_analytic(ex1, math.pi / 3, 3 * ex1.period)
    u_o = propagator_oracle(ex1, math.pi / 3, 3 * ex1.period, steps=4096)
    assert np.abs(u_a - u_o).max() < 1e-8
    # self-convergence: doubling the steps barely moves the result
    u_o2 = propagator_oracle(ex1, math.pi / 3, 3 * ex1.period, steps=8192)
    assert np.abs(u_o - u_o2).max() < 1e-10


def test_oracle_equivalence_random_draws():
    rng = np.random.default_rng(42)
    done = 0
    while done < 25:
        p = random_params(rng)
        k = rng.uniform(0.0, math.pi)
        try:
            u_a = propagator_analytic(p, k, 0.0)
        except GaplessPoint:
            continue
        t = rng.uniform(0.0, 2.0 * p.period)
        try:
            u_a = propagator_analytic(p, k, t)
        except GaplessPoint:
            continue
        u_o = propagator_oracle(p, k, t, steps=4096)
        assert np.abs(u_a - u_o).max() < 1e-7
        done += 1


BLOCK = dynamics.ORACLE_BLOCK


@pytest.mark.parametrize("n", [1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 3, 3 * BLOCK, 4 * BLOCK + 1,
                               11 * BLOCK + 7])
def test_oracle_block_product_matches_scalar_loop(n):
    # n steps: odd counts leave a step over at some level of the pairwise
    # product; past one block each block's steps join the held partial
    # products, which are halved until one block's width remains, so the
    # held run is halved many times and has odd widths; at -t both take
    # the n steps of |t| backwards
    rng = np.random.default_rng(n)
    p = random_params(rng)
    k = rng.uniform(0.0, math.pi)
    steps = dynamics.MIN_ORACLE_STEPS
    t = (n - 0.5) * p.period / steps
    assert math.ceil(t / (p.period / steps)) == n
    for t in (t, -t):
        u, corr = propagator_oracle(p, k, t, steps, return_correction=True)
        u_ref, corr_ref = scalar_rk4_propagator(p, k, t, steps)
        assert np.abs(u - u_ref).max() < 1e-13
        assert abs(corr - corr_ref) < 1e-13


def test_oracle_long_run_memory_and_rounding(ex1):
    # 50 periods are 204,800 steps; their step matrices held at once would
    # take more than 10 MB, and the held partial products must not grow
    # with t: the peak at 50 periods is that at 2
    peaks = {}
    for periods in (2, 50):
        tracemalloc.start()
        try:
            _, corr = propagator_oracle(ex1, 0.8, periods * ex1.period,
                                        return_correction=True)
            peaks[periods] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[50] < 1_000_000
    assert peaks[50] <= 1.1 * peaks[2]
    # the scalar loop gives 5e-15; storing each step map with its identity
    # part rounds the same way at every step and gives 2e-12
    assert corr < 1e-13


# U and the correction of propagator_oracle, as float.hex of U's real and
# imaginary parts in memory order and of the correction: (params, k, steps
# taken, hex); None stands for 50 periods at the default steps per period.
# The streamed product must give the bits of one pairwise tree per block
# with the block products applied to U in time order, signed zeros included.
# Each entry is that streamed product, followed by the polar step
# (U/sigma, |sigma - 1|) with sigma = hypot(|a|, |b|).
ORACLE_BIT_PINS = [
    (EXAMPLE1, 0.8, 1, [
        "0x1.fffc56792c8cep-1", "-0x1.e138361ef01ebp-8",
        "-0x1.2076ca5fa1173p-17", "-0x1.6f477954802f3p-10",
        "0x1.2076ca5fa1173p-17", "-0x1.6f477954802f3p-10",
        "0x1.fffc56792c8cep-1", "0x1.e138361ef01ebp-8",
        "0x1.a000000000000p-50"]),
    (EXAMPLE2, 2.1, 3, [
        "0x1.fff185d823cc1p-1", "-0x1.911c64ca8ebfap-7",
        "-0x1.0f1fc5873ce98p-12", "-0x1.1413fe304441ep-7",
        "0x1.0f1fc5873ce98p-12", "-0x1.1413fe304441ep-7",
        "0x1.fff185d823cc1p-1", "0x1.911c64ca8ebfap-7",
        "0x1.6000000000000p-49"]),
    (EXAMPLE3, 0.0, BLOCK, [
        "0x1.ffff621621504p-1", "-0x1.921f8c8f9906dp-9", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.ffff621621504p-1",
        "0x1.921f8c8f9906dp-9", "0x1.aa00000000000p-42"]),
    (EXAMPLE1, math.pi, BLOCK + 1, [
        "0x1.ffff621622502p-1", "0x1.921f8b49d23b7p-9",
        "-0x1.bb8f28957aaa2p-70", "-0x1.1a6001670e048p-62",
        "0x1.bb8f28957aaa2p-70", "-0x1.1a6001670e048p-62",
        "0x1.ffff621622502p-1", "-0x1.921f8b49d23b7p-9",
        "0x1.aa40000000000p-42"]),
    (EXAMPLE2, 1.3, 8 * BLOCK + 5, [
        "-0x1.0582d234c81bep-1", "-0x1.664ffc19ee306p-1",
        "0x1.c39484784194ap-6", "0x1.fe908567b62e4p-2",
        "-0x1.c39484784194ap-6", "0x1.fe908567b62e4p-2",
        "-0x1.0582d234c81bep-1", "0x1.664ffc19ee306p-1",
        "0x1.f437400000000p-35"]),
    (EXAMPLE1, 0.8, None, [
        "-0x1.f3eaec6a65dbbp-1", "0x1.20abfa9fdaca0p-3",
        "-0x1.ae00000000023p-47", "0x1.4f18be71d4d17p-3",
        "0x1.ae00000000023p-47", "0x1.4f18be71d4d17p-3",
        "-0x1.f3eaec6a65dbbp-1", "-0x1.20abfa9fdaca0p-3",
        "0x1.4800000000000p-48"]),
]


@pytest.mark.parametrize("p, k, n, pinned", ORACLE_BIT_PINS)
def test_oracle_bits_pinned(p, k, n, pinned):
    if n is None:
        u, corr = propagator_oracle(p, k, 50 * p.period,
                                    return_correction=True)
    else:
        steps = dynamics.MIN_ORACLE_STEPS
        u, corr = propagator_oracle(p, k, (n - 0.5) * p.period / steps,
                                    steps, return_correction=True)
    assert [x.hex() for x in u.ravel().view(float).tolist()] \
        + [corr.hex()] == pinned


def test_oracle_is_fourth_order():
    # RK4's global error goes as h^4: halving the step divides it by 16
    rng = np.random.default_rng(404)
    ratios = []
    while len(ratios) < 20:
        p = random_params(rng)
        k = rng.uniform(0.0, math.pi)
        t = 2.0 * p.period
        try:
            u_a = propagator_analytic(p, k, t)
        except GaplessPoint:
            continue
        coarse, fine = (np.abs(propagator_oracle(p, k, t, steps) - u_a).max()
                        for steps in (256, 512))
        ratios.append(coarse / fine)
    assert 15.0 <= min(ratios) and max(ratios) <= 17.0

def test_unitarity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_params(rng)
        k, t = rng.uniform(0, math.pi), rng.uniform(0, 2 * p.period)
        try:
            u_a = propagator_analytic(p, k, t)
        except GaplessPoint:
            continue
        u_o = propagator_oracle(p, k, t, steps=1024)
        for u in (u_a, u_o):
            assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10


def test_oracle_reports_polar_correction():
    # U/sigma is the pair [[a, b], [-b*, a*]] bit for bit, with
    # |a|^2 + |b|^2 = 1 to rounding. The correction |sigma - 1| is RK4's drift
    # off the unitary group: a step scales the norm by 1 - O(h^6), so the
    # drift over a fixed t is O(h^5), 32 times less per halved step
    corrs = []
    for steps in (256, 512):
        u, corr = propagator_oracle(EXAMPLE1, 1.0, 1.5, steps=steps,
                                    return_correction=True)
        pair = np.array([-u[0, 1].conjugate(), u[0, 0].conjugate()])
        assert np.array_equal(u[1].view(np.int64), pair.view(np.int64))
        assert abs(abs(u[0, 0]) ** 2 + abs(u[0, 1]) ** 2 - 1.0) <= 4.5e-16
        corrs.append(corr)
    assert corrs[1] < 1e-12
    assert 28.0 <= corrs[0] / corrs[1] <= 36.0


def test_return_amplitude_basics(ex1):
    g0 = return_amplitude(ex1, "minus", 0.7, 0.0)
    assert g0.value == pytest.approx(1.0)
    # critical momentum, half period: exact zero
    assert abs(return_amplitude(ex1, "minus", math.pi / 3, 1.0).value) \
        < 1e-14
    # quarter period: |G|^2 = cos^2(pi t / T) = 1/2
    assert float(return_probability_grid(ex1, math.pi / 3, 0.5)) == \
        pytest.approx(0.5, abs=1e-12)


def test_return_amplitude_against_oracle(ex1):
    # |<chi| U_oracle |chi>| should match the closed form
    for k in (0.5, math.pi / 3, 2.0):
        chi = np.linalg.eigh(rotating_frame_hamiltonian(ex1, k))[1][:, 0]
        for t in (0.3, 0.9, 2.7):
            u = propagator_oracle(ex1, k, t, steps=2048)
            brute = abs(chi.conj() @ u @ chi) ** 2
            assert float(return_probability_grid(ex1, k, t)) == \
                pytest.approx(brute, abs=1e-9)


def test_amplitude_bound_and_period_returns():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = random_params(rng)
        k, t = rng.uniform(0, math.pi), rng.uniform(0, 3 * p.period)
        try:
            g = return_amplitude(p, "minus", k, t)
        except GaplessPoint:
            continue
        assert abs(g.value) <= 1 + 1e-12
        gn = return_amplitude(p, "minus", k, 2 * p.period)
        assert abs(abs(gn.value) - 1.0) < 1e-12


@given(k=st.floats(0.01, math.pi - 0.01), t=st.floats(0.0, 6.0))
@settings(max_examples=40, deadline=None)
def test_micromotion_periodicity_and_band_symmetry(k, t):
    p = EXAMPLE1
    g1 = abs(return_amplitude(p, "minus", k, t).value)
    g2 = abs(return_amplitude(p, "minus", k, t + p.period).value)
    assert abs(g1 - g2) < 1e-12
    for band in ("minus", "plus"):
        assert abs(return_amplitude(p, band, k, t).value) ** 2 == \
            pytest.approx(float(return_probability_grid(p, k, t)), abs=1e-12)


def test_return_probability_grid_matches_scalar(ex1):
    # per-k reference |chi^dag U_oracle chi|^2, independent of the kernel
    ks = np.linspace(0.1, 3.0, 11)
    t = 1.3
    probs = return_probability_grid(ex1, ks, t)
    for k, pr in zip(ks, probs):
        chi = np.linalg.eigh(rotating_frame_hamiltonian(ex1, k))[1][:, 0]
        u = propagator_oracle(ex1, k, t, steps=2048)
        assert pr == pytest.approx(abs(chi.conj() @ u @ chi) ** 2, abs=1e-9)


# the oracle shares the input checks, finite_point and
# require_resolved_time, but none of these
ANALYTIC_ROUTE = {"normal_field", "gap_guard", "band_weights", "band_energy",
                  "micromotion_overlap", "propagator_analytic",
                  "obc_floquet_spectrum"}


def code_names(code) -> set:
    """Global and attribute names used by a code object and its nested ones."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= code_names(const)
    return names


def test_oracles_share_no_code_with_analytic_route():
    # the library's RK4 oracle and every function tests/oracles.py defines
    defined = [fn for fn in vars(oracles).values()
               if inspect.isfunction(fn) and fn.__module__ == oracles.__name__]
    for oracle in (dynamics.propagator_oracle, *defined):
        assert not code_names(oracle.__code__) & ANALYTIC_ROUTE, \
            oracle.__name__
    # the chain oracles build their own matrix, not the library's
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    sources, library_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sources |= {node.module} | {f"{node.module}.{alias.name}"
                                        for alias in node.names}
            if node.module.split(".")[0] == "floquet_dqpt":
                library_names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            sources |= {alias.name for alias in node.names}
    assert "floquet_dqpt.lattice" not in sources
    # the scalar RK4 loop checks the oracle with a polar step of its own
    assert not {name for name in sources
                if name.split(".")[:2] == ["floquet_dqpt", "dynamics"]}
    # from the library they take the parameters and one error type: they
    # own their Pauli matrices, U_R(t) and the field
    assert library_names == {"ModelParams", "StepCountTooSmall"}


def test_nv_experiment_values():
    # experiment parameters: Omega = 2pi x 10, w = d1 = 2pi x 5, d2 = +-2pi x 5
    from floquet_dqpt.cli import PRESETS
    nvp, nvm = PRESETS["nv-plus"], PRESETS["nv-minus"]
    for t in (0.1, 0.3, 0.5):
        assert float(return_probability_grid(nvp, math.pi / 2, t)) < 1e-10
    ks = np.linspace(0.0, math.pi, 13)
    for t in np.linspace(0.0, 0.6, 49):
        assert return_probability_grid(nvm, ks, t).min() > 0.0
