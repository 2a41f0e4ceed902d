"""The benchmark's four workloads.

Each workload builds a fixed list of operations from the seed, runs one
operation through the library's public API (`run`), and checks its output
against references taken at the seed commit (`check`). `check` also returns
the computed counters of the operation. Every call into the library goes
through a module attribute, so the tracer's wrappers see it.

Why each workload exists:

* datasets - the user-facing path: `cli.main` over the dataset list of
  `scripts/make_figure_datasets.py` without `spectrum`, plus the grids as
  JSON for one preset. Serialization dominates; JSON uses it differently.
* scan     - library calls only, for seeded random parameter draws: kernel-
  and per-call-bound, with no serialization. About a third of the draws end
  in typed guard errors, which are checked like any other outcome.
* spectrum - the open chain's Floquet spectrum at two sizes; the only
  workload that touches `lattice`.
* oracle   - the RK4 oracle propagator against the analytic one, as
  `fdqpt oracle-check` does it, with the seed taken as an argument.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from floquet_dqpt import cli, dqpt, dynamics, geometry, lattice, topology
from floquet_dqpt.errors import NumericalGuardError
from floquet_dqpt.model import ModelParams

REFERENCE = Path(__file__).resolve().parent / "reference"

TOL = 1e-10          # scan and spectrum floats
ORACLE_TOL = 1e-7    # analytic vs oracle propagator, per draw
ORACLE_STEPS = 4096

EXAMPLE1 = ModelParams(omega_drive=math.pi, delta1=math.pi,
                       delta2=math.pi / 2, omega_amp=1.0)
EXAMPLE2 = ModelParams(omega_drive=math.pi, delta1=math.pi / 5,
                       delta2=math.pi / 2, omega_amp=1.0)


def oracle_check_params(rng: np.random.Generator) -> ModelParams:
    """One parameter draw of the `fdqpt oracle-check` distribution."""
    return ModelParams(omega_drive=rng.uniform(0.5, 6.0),
                       delta1=rng.uniform(-5.0, 5.0),
                       delta2=rng.uniform(-5.0, 5.0),
                       omega_amp=rng.uniform(0.1, 5.0))


# ---------------------------------------------------------------- datasets

DATASET_PRESETS = (("example1", "6.0"), ("example2", "6.0"),
                   ("example3", "6.0"), ("nv-plus", "0.6"),
                   ("nv-minus", "0.6"))
JSON_PRESET = "example1"


def dataset_ops() -> list:
    """(output file name, argv) per dataset, in a fixed order."""
    ops = []
    for preset, t_max in DATASET_PRESETS:
        tag = preset.replace("-", "_")
        grids = {
            "retprob": ["--t-max", t_max],
            "rate": ["--k-points", "2001", "--t-points", "241",
                     "--t-max", t_max],
            "fisher": ["--k-points", "401"],
            "geo": ["--t-max", t_max],
            "winding": ["--t-points", "121", "--t-max", t_max],
        }
        fmts = ("csv", "json") if preset == JSON_PRESET else ("csv",)
        for fmt in fmts:
            for cmd, extra in grids.items():
                argv = [cmd, "--preset", preset] + extra
                if fmt == "json":
                    argv += ["--format", "json"]
                ops.append((f"{tag}_{cmd}.{fmt}", argv))
        ops.append((f"{tag}_topo.json",
                    ["topo", "--preset", preset, "--format", "json"]))
    return ops


def count_cells(name: str, data: bytes) -> int:
    """Values serialized in one dataset file."""
    if name.endswith(".csv"):
        lines = data.decode().splitlines()
        return (len(lines) - 1) * (lines[0].count(",") + 1)
    obj = json.loads(data)
    if "rows" in obj:
        return sum(len(row) for row in obj["rows"])
    return len(obj)


class Datasets:
    nominal_pass_s = 2.8

    def __init__(self, root: Path, seed: int):
        self.ops = dataset_ops()
        self.ref = json.loads((REFERENCE / "datasets.json").read_text())
        self.out = root / ".perfbench" / "datasets"
        self.out.mkdir(parents=True, exist_ok=True)

    def run(self, op):
        name, argv = op
        return cli.main(argv + ["--out", str(self.out / name)])

    def check(self, op, code):
        path = self.out / op[0]
        if code != 0 or not path.exists():
            return False, {}
        data = path.read_bytes()
        path.unlink()  # the next pass must write the file again
        ok = hashlib.sha256(data).hexdigest() == self.ref["files"][op[0]]
        return ok, {"cli.bytes": len(data),
                    "cli.cells": count_cells(op[0], data)}


# -------------------------------------------------------------------- scan

POOL_SEED = 20261017
POOL_SIZE = 32
SCAN_DRAWS = 16          # draws per pass, chosen from the pool by the seed
TRACE_T = 121            # rate-function and winding traces over [0, 2T]
FISHER_K = 201
PROBES = 100             # amplitude, geometric phase, propagator in turn

# Value kinds in a flattened scan outcome.
FLOAT, EXACT, PHASE = 0, 1, 2


def scan_pool_inputs() -> dict:
    """The fixed pool of scan draws the references were taken on."""
    rng = np.random.default_rng(POOL_SEED)
    params, bands, probe_k, probe_t = [], [], [], []
    for _ in range(POOL_SIZE):
        p = oracle_check_params(rng)
        params.append([p.omega_drive, p.delta1, p.delta2, p.omega_amp])
        bands.append(str(rng.choice(["minus", "plus"])))
        probe_k.append(rng.uniform(0.0, math.pi, PROBES))
        probe_t.append(rng.uniform(0.0, 2.0 * p.period, PROBES))
    return {"params": np.array(params), "band": np.array(bands),
            "probe_k": np.array(probe_k), "probe_t": np.array(probe_t)}


def _call(record: list, fn, *args, **kwargs):
    """Call fn; record 'ok' or the typed guard's name. Returns the value."""
    try:
        value = fn(*args, **kwargs)
    except NumericalGuardError as exc:
        record.append(type(exc).__name__)
        return None
    record.append("ok")
    return value


def scan_draw(params, band, probe_k, probe_t):
    """All scan calls for one draw -> (outcomes, values, kinds)."""
    p = ModelParams(*params)
    outcomes, values, kinds = [], [], []

    def put(kind, *xs):
        values.extend(float(x) for x in xs)
        kinds.extend([kind] * len(xs))

    crit = _call(outcomes, dqpt.dqpt_condition, p)
    if crit is not None:
        put(EXACT, crit.has_dqpt)
        put(FLOAT, math.nan if crit.k_c is None else crit.k_c,
            *crit.critical_times)
    inv = _call(outcomes, topology.chiral_winding_numbers, p)
    if inv is not None:
        put(EXACT, inv.w1, inv.w2, inv.w0, inv.wpi)
        put(FLOAT, inv.raw_w1)
    for t in np.linspace(0.0, 2.0 * p.period, TRACE_T):
        g = _call(outcomes, dqpt.rate_function, p, band, t)
        if g is not None:
            put(FLOAT, g)
        nu = _call(outcomes, geometry.winding_number, p, band, t,
                   return_raw=True)
        if nu is not None:
            put(EXACT, nu[0])
            put(FLOAT, nu[1])
    lines = _call(outcomes, dqpt.fisher_lines, p, band,
                  np.linspace(0.0, math.pi, FISHER_K), 3)
    for line in lines or ():
        put(EXACT, line.n)
        put(FLOAT, line.t_imag, *line.tau_of_k)
    for j, (k, t) in enumerate(zip(probe_k, probe_t)):
        if j % 3 == 0:
            amp = _call(outcomes, dynamics.return_amplitude, p, band, k, t)
            if amp is not None:
                put(FLOAT, amp.value.real, amp.value.imag)
        elif j % 3 == 1:
            phase = _call(outcomes, geometry.geometric_phase, p, band, k, t)
            if phase is not None:
                put(PHASE, phase)
        else:
            u = _call(outcomes, dynamics.propagator_analytic, p, k, t)
            if u is not None:
                put(FLOAT, *u.real.ravel(), *u.imag.ravel())
    return outcomes, np.array(values), np.array(kinds, dtype=np.int8)


def values_match(got, ref, kinds) -> bool:
    """Floats within TOL (relative above 1), phases mod 2 pi, rest exact."""
    if got.shape != ref.shape:
        return False
    with np.errstate(invalid="ignore"):
        same = (got == ref) | (np.isnan(got) & np.isnan(ref))
        diff = np.abs(got - ref)
        wrapped = np.abs((got - ref + math.pi) % (2.0 * math.pi) - math.pi)
        near = np.where(kinds == PHASE, wrapped <= TOL,
                         diff <= TOL * np.maximum(1.0, np.abs(ref)))
    return bool(np.all(same | ((kinds != EXACT) & near)))


class Scan:
    nominal_pass_s = 0.95

    def __init__(self, root: Path, seed: int):
        with np.load(REFERENCE / "scan.npz") as ref:
            self.ref = {key: ref[key] for key in ref.files}
        chosen = np.random.default_rng(seed).permutation(POOL_SIZE)
        self.ops = [int(i) for i in chosen[:SCAN_DRAWS]]

    def run(self, i):
        r = self.ref
        return scan_draw(r["params"][i], str(r["band"][i]), r["probe_k"][i],
                         r["probe_t"][i])

    def check(self, i, out):
        r = self.ref
        lo, hi = r["outcome_offsets"][i:i + 2]
        vlo, vhi = r["value_offsets"][i:i + 2]
        outcomes, values, kinds = out
        ok = (outcomes == list(r["outcomes"][lo:hi])
              and np.array_equal(kinds, r["kinds"][vlo:vhi])
              and values_match(values, r["values"][vlo:vhi], kinds))
        return ok, {}


# ---------------------------------------------------------------- spectrum

# N = 40 runs twice per pass, so that the median and the tail operation of a
# run both fall inside the N = 40 group, not on the edge between two sizes.
SPECTRUM_OPS = (("example1", 20), ("example2", 20)) \
    + (("example1", 40), ("example2", 40)) * 2
SPECTRUM_PARAMS = {"example1": EXAMPLE1, "example2": EXAMPLE2}
# Work of the seed commit's RK4 route per spectrum, computed from N:
# 2048 steps, three Hamiltonian builds and four complex (2N)^3 matmuls each.
SPECTRUM_STEPS = 2048


class Spectrum:
    nominal_pass_s = 5.45

    def __init__(self, root: Path, seed: int):
        self.ops = list(SPECTRUM_OPS)
        self.ref = json.loads((REFERENCE / "spectrum.json").read_text())

    def run(self, op):
        preset, n = op
        return lattice.obc_floquet_spectrum(SPECTRUM_PARAMS[preset], n)

    def check(self, op, spec):
        ref = self.ref[f"{op[0]}/N{op[1]}"]
        got = np.sort(np.asarray(spec.quasienergies))
        want = np.array(ref["quasienergies"])
        ok = (got.shape == want.shape
              and bool(np.all(np.abs(got - want) <= TOL))
              and int(np.sum(spec.pi_mode)) == ref["pi_modes"])
        n2 = 2 * op[1]
        return ok, {"lattice.hamiltonian_builds": 3 * SPECTRUM_STEPS,
                    "lattice.gflop": SPECTRUM_STEPS * 4 * 8 * n2 ** 3 / 1e9}


# ------------------------------------------------------------------ oracle

ORACLE_DRAWS = 41  # odd, so the median operation is the middle stratum


def oracle_draws(seed: int) -> list:
    """(params, k, t) draws of `fdqpt oracle-check`, seeded.

    Draws with a quasienergy gap <= 0.01 are skipped as oracle-check skips
    them. t/2T takes the centres of ORACLE_DRAWS equal strata of [0, 1), in
    seeded order, so that the RK4 work of every operation (which grows with
    t/T) and hence the spread of operation times is the same for every seed.
    """
    rng = np.random.default_rng(seed)
    strata = rng.permutation(ORACLE_DRAWS)
    draws = []
    while len(draws) < ORACLE_DRAWS:
        p = oracle_check_params(rng)
        k = rng.uniform(0.0, math.pi)
        h_xy = 0.5 * p.omega_amp * math.sin(k)
        h_z = 0.5 * (p.delta1 * math.cos(k) + p.delta2)
        if 2.0 * math.hypot(h_xy, h_z - 0.5 * p.omega_drive) <= 0.01:
            continue
        frac = (strata[len(draws)] + 0.5) / ORACLE_DRAWS
        draws.append((p, k, 2.0 * p.period * frac))
    return draws


def rk4_steps(p: ModelParams, t: float) -> int:
    """RK4 steps the seed commit's oracle takes for (p, t), computed."""
    return max(1, math.ceil(t / (p.period / ORACLE_STEPS))) if t > 0 else 0


class Oracle:
    nominal_pass_s = 4.2

    def __init__(self, root: Path, seed: int):
        self.ops = oracle_draws(seed)

    def run(self, op):
        p, k, t = op
        ua = dynamics.propagator_analytic(p, k, t)
        uo = dynamics.propagator_oracle(p, k, t, ORACLE_STEPS)
        return float(np.abs(ua - uo).max())

    def check(self, op, deviation):
        return deviation < ORACLE_TOL, {
            "dynamics.oracle.rk4_steps": rk4_steps(op[0], op[2])}


WORKLOADS = {"datasets": Datasets, "scan": Scan, "spectrum": Spectrum,
             "oracle": Oracle}
