"""The library's public API as one table, `API`: a row per public function
(a function of a module in `MODULES` whose name has no leading underscore
and whose `__module__` is that module). A row names its function by
(module, name), resolved with `getattr` on call, so the table loads against
any tree.

- args: each parameter, in order, as `name:role`, or `name` whose role is
  the name. Roles: params, band, k and t (a point), ks and ts (arrays, a k
  column and a t row), size and rate_size (k grids), lines, steps, flag,
  sites, angles, and wa, wb and bloch (unless given, the lower band's on ks
  and ts).
- unit: of the output, or per field or item: dimensionless, energy, time,
  normal (energy in units of the normal form's 2^e) or None (no output).
- band: the upper band's output against the lower one's: same, sign
  (negated; a phase mod 2 pi), mirror (a Fisher time, negated) or state
  (it carries the band's energy or state), per field where a tuple.
- kernel: the grid kernel a scalar API equals at the point.

Below the table, the named drives that the tests and `scripts/bits_ab.py`
share, each built once: `DRIVES`, the sweep bits_ab.py runs every row on,
`VERTEX` and `CLOSURES`, whose gap closes or nearly closes, and `SUBNORMAL`;
with `scaled`, `random_params` and `model_ini`, which writes a drive's INI
file.
"""

import dataclasses
import functools
import importlib
import itertools
import math

import numpy as np

from floquet_dqpt.cli import PRESETS
from floquet_dqpt.errors import NumericalGuardError
from floquet_dqpt.model import ModelParams

MODULES = ("model", "dynamics", "dqpt", "geometry", "topology", "lattice")
BANDS = ("minus", "plus")
D = "dimensionless"
# the roles no caller sets: size is the least winding grid
DEFAULTS = {"size": 401, "rate_size": 181, "lines": 3, "steps": 256,
            "flag": True, "sites": 12, "angles": np.linspace(-10.0, 10.0, 9)}


@dataclasses.dataclass(frozen=True)
class Row:
    module: str
    name: str
    args: str
    unit: object = D
    band: object = None
    kernel: str = None

    @functools.cached_property
    def roles(self) -> dict:
        return {name: role or name for name, _, role in
                (arg.partition(":") for arg in self.args.split())}

    @functools.cached_property
    def takes(self) -> set:
        return set(self.roles.values())

    @property
    def kind(self) -> str:
        if self.takes & {"k", "t"}:
            return "point"
        return "grid" if self.takes & {"ks", "ts", "angles"} else "drive"

    @property
    def fn(self):
        return getattr(importlib.import_module(f"floquet_dqpt.{self.module}"),
                       self.name)

    def call(self, args):
        """The function on args by role, DEFAULTS' or the lower band's where
        args has none."""
        args = {**DEFAULTS, **args}
        lower = {**args, "band": "minus"}
        if "wa" in self.takes and "wa" not in args:
            args["wa"], args["wb"] = ROWS["band_weights"].call(lower)
        if "bloch" in self.takes and "bloch" not in args:
            args["bloch"] = ROWS["bloch_vector_grid"].call(lower)
        return self.fn(*(args[role] for role in self.roles.values()))


API = (
    Row("model", "normal_field", "params k:ks", "normal"),
    Row("model", "bloch_components", "params k:ks", "energy"),
    Row("model", "finite_point", "k t", None),
    Row("model", "require_resolved_time", "params t:ts", None),
    Row("model", "gap_guard", "params k t", "normal", kernel="normal_field"),
    Row("model", "min_half_gap", "params", "energy"),
    Row("model", "zone_gap_guard", "params", None),
    Row("model", "band_weights", "params band k:ks", D, "state"),
    Row("model", "band_energy", "params band k:ks", "energy", "state"),
    Row("dynamics", "propagator_analytic", "params k t"),
    Row("dynamics", "propagator_oracle",
        "params k t steps return_correction:flag"),
    Row("dynamics", "micromotion_overlap", "params wa wb t:ts"),
    Row("dynamics", "return_amplitude", "params band k t", D, "state"),
    Row("dynamics", "return_probability", "params k t",
        kernel="return_probability_grid"),
    Row("dynamics", "return_probability_grid", "params k_grid:ks t:ts"),
    Row("dqpt", "dqpt_condition", "params", (D, D, "time")),
    Row("dqpt", "fisher_tau", "params band k", "time", "mirror",
        "fisher_tau_grid"),
    Row("dqpt", "fisher_tau_grid", "params band k_grid:ks", "time", "mirror"),
    Row("dqpt", "fisher_lines", "params band k_grid:ks n_lines:lines",
        (D, "time", "time"), ("same", "mirror", "same")),
    Row("dqpt", "rate_function", "params band t k_grid_size:rate_size", D,
        "same", "rate_function_grid"),
    Row("dqpt", "rate_function_grid", "params band ts k_grid_size:rate_size",
        D, "same"),
    Row("geometry", "principal_branch", "x:angles"),
    Row("geometry", "total_phase", "params band k t", D, "state"),
    Row("geometry", "dynamical_phase", "params band k t", D, "state"),
    Row("geometry", "geometric_phase", "params band k t", D, "sign",
        "geometric_phase_grid"),
    Row("geometry", "geometric_phase_grid", "params band k_grid:ks t:ts", D,
        "sign"),
    Row("geometry", "exact_winding_grid", "params band t:ts", D, "sign"),
    Row("geometry", "exact_winding", "params band t", D, "sign"),
    Row("geometry", "winding_number",
        "params band t k_grid_size:size return_raw:flag", D, "sign"),
    Row("geometry", "raw_winding_grid", "params band ts k_grid_size:size",
        ("time", D), ("same", "sign")),
    Row("geometry", "wrapped_winding", "phi:angles"),
    Row("geometry", "bloch_expectations", "params band k t", D, "state",
        "bloch_vector_grid"),
    Row("geometry", "bloch_vector_grid", "params band k:ks t:ts", D, "state"),
    Row("geometry", "geometric_phase_from_tomography", "params k t",
        kernel="tomography_phase_grid"),
    Row("geometry", "tomography_phase_grid", "params k:ks t:ts bloch"),
    Row("topology", "chiral_winding_numbers", "params"),
    Row("lattice", "obc_floquet_spectrum", "params n_sites:sites",
        ("energy", D, D)),
)
ROWS = {row.name: row for row in API}


def calls(args, ks=(), ts=(), bands=BANDS, rows=API):
    """(row, key, arguments) per call: one per band of bands if the row
    takes one, per k of ks and per t of ts if it takes a point's k and t,
    the rest from args. key is (name, band, k index, t index), None where
    the row has no such role."""
    for row in rows:
        for band, (i, k), (j, t) in itertools.product(
                bands if "band" in row.takes else [None],
                enumerate(ks) if "k" in row.takes else [(None, None)],
                enumerate(ts) if "t" in row.takes else [(None, None)]):
            yield row, (row.name, band, i, j), {**args, "band": band, "k": k,
                                                "t": t}


def kernel_calls(params, k, t, rows=API):
    """(row, arguments, kernel's output) at (k, t) for each scalar API of
    rows with a kernel, at each band; the kernel reads ts = [t], whose axis
    is dropped."""
    grid = {"params": params, "ks": k, "ts": np.array([t])}
    for row, _, args in calls(grid, [k], [t],
                              rows=[row for row in rows if row.kernel]):
        kernel = ROWS[row.kernel]
        want = np.asarray(kernel.call(args))
        yield row, args, want[..., 0] if "ts" in kernel.takes else want


def fields(record) -> tuple:
    """A record's field values, in order."""
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def replaced(record, **changes):
    """A new record of record's type: its fields, changes over them."""
    names = type(record).__match_args__
    return type(record)(**{**dict(zip(names, fields(record))), **changes})


def parts(value, spec):
    """[(spec, part)] of an output: a list's items each with the whole spec,
    a record's fields or a tuple's items each with its item of spec where
    spec is a tuple, else with spec."""
    if isinstance(value, list):
        return [p for item in value for p in parts(item, spec)]
    if hasattr(type(value), "__match_args__"):
        value = fields(value)
    if not isinstance(value, tuple):
        return [(spec, value)]
    specs = spec if isinstance(spec, tuple) else [spec] * len(value)
    return [p for x, s in zip(value, specs, strict=True) for p in parts(x, s)]


def outcome(fn, *args):
    """fn(*args), or the type of the guard error it raised."""
    try:
        return fn(*args)
    except NumericalGuardError as exc:
        return type(exc)


def bits(x):
    """A value's int64 bits, real and imaginary parts apart, so signed zeros
    and NaN payloads count; None stays None."""
    if x is None:
        return None
    a = np.asarray(x)
    if a.dtype.kind != "c":
        a = a.astype(float)
    return np.ascontiguousarray(a).reshape(-1).view(np.int64).tolist()


def scaled(p, s):
    """p with each parameter times s."""
    return ModelParams(*(s * x for x in fields(p)))


def random_params(rng: np.random.Generator, positive_amp=False) -> ModelParams:
    """One random parameter draw on the scales used throughout the suite."""
    return ModelParams(rng.uniform(0.5, 6.0), rng.uniform(-5.0, 5.0),
                       rng.uniform(-5.0, 5.0),
                       rng.uniform(0.1 if positive_amp else -5.0, 5.0))


def model_ini(path, p) -> str:
    """Write p to path as an INI file's [model] section, a `key =
    repr(value)` line a field; path as a str, for `--config`."""
    path.write_text("[model]\n" + "".join(
        f"{key} = {value!r}\n" for key, value in zip(
            type(p).__match_args__, fields(p))), encoding="utf-8")
    return str(path)


def _drives() -> dict:
    """The presets, 20 seeded draws, a drive whose gap closes at k = 0,
    example1 scaled by 2^+-600, where a product of two parameters over- or
    underflows, each preset scaled by 2^(1022 - e) (e the exponent of its
    largest parameter) and 2^-1000, and (1, 1, 1, 1) and (1, 1, -1, 1)
    times 1e308 and 1.7e308, where |h_z - w/2| at k = pi is past the
    largest double."""
    rng = np.random.default_rng(20261018)
    out = dict(sorted(PRESETS.items()))
    out.update((f"draw{i}", random_params(rng)) for i in range(20))
    # gapless at k = 0, on every uniform k grid: both band weights are NaN
    # there, so every grid row's phase is undefined
    out["gapless0"] = ModelParams(2.0, 1.0, 1.0, 1.0)
    powers = [("example1", 600), ("example1", -600)]
    for name, p in sorted(PRESETS.items()):
        powers += [(name, 1022 - math.frexp(p.scale)[1]), (name, -1000)]
    out.update((f"{name}*2^{j}", scaled(PRESETS[name], 2.0 ** j))
               for name, j in powers)
    for name, d2 in (("one", 1.0), ("mixed", -1.0)):
        for s in (1e308, 1.7e308):
            out[f"{name}*{s:g}"] = scaled(ModelParams(1.0, 1.0, d2, 1.0), s)
    return out


DRIVES = _drives()
# gap closing at cos k = -1/8, the interior vertex of the quadratic in cos k
VERTEX = ModelParams(1.0, 0.8, 1.1, 0.0)
# the vertex where a parameter's square over- or underflows; min Delta/2 at
# 1.6e-9 of the scale, between the gap floor 1e-9 and the closed form's
# former floor 1e-8, and below both; degenerate (delta1 = 0, w = delta2)
CLOSURES = {
    **{f"vertex*{s:g}": scaled(VERTEX, s) for s in (1e-300, 1e160, 1e300)},
    "floor+": ModelParams(math.pi, math.pi, 2.0 * math.pi - 2e-8, 1.0),
    "floor-": ModelParams(math.pi, math.pi, 2.0 * math.pi - 2e-9, 1.0),
    "degenerate": ModelParams(2.0, 0.0, 2.0, 1.0)}
# 1e-310's period is finite; 5e-324's and 1e-320's (delta2 = 5e-321) are inf
SUBNORMAL = {"1e-310": ModelParams(*(1e-310,) * 4),
             "5e-324": ModelParams(*(5e-324,) * 4),
             "1e-320": ModelParams(1e-320, 1e-320, 5e-321, 1e-320)}
