"""Command-line front end producing plot-ready datasets.

Subcommands sweep (k, t) grids and serialize CSV (or JSON) deterministically:
rows sorted by k then t, 17 significant digits, non-finite values spelled
"nan"/"inf"/"-inf". Each subcommand takes only the flags it reads. An
INI-style config file can pre-set them: its keys are the flag names, parsed
by the same parser, and command-line flags win over the file.

The cells are written by the private module `_cells` (see there), which
`write_dataset` imports on its first table. A command loads only the
modules it runs: `geometry`, `lattice`, `configparser` and `json` are
imported where a command first needs them, so `topo`, `--help` and the
refusals compile neither the writer nor the grid modules.

Exit codes: 0 success, 2 configuration or output-file error, 3 numerical
guard error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import dqpt, dynamics, topology
from ._lazy import np
from ._record import record
from .errors import ConfigError, NumericalGuardError, WindingMismatch
from .model import (DEFAULT_ORACLE_STEPS, MAX_GRID_POINTS, MAX_N_LINES,
                    MAX_SITES, MAX_STEPS, ModelParams, normal_field)

TWO_PI = 2.0 * math.pi

# Bundled parameter presets (rad per unit time; the nv presets use
# 2 pi x MHz so times come out in microseconds).
PRESETS = {
    "example1": ModelParams(omega_drive=math.pi, delta1=math.pi,
                            delta2=math.pi / 2, omega_amp=1.0),
    "example2": ModelParams(omega_drive=math.pi, delta1=math.pi / 5,
                            delta2=math.pi / 2, omega_amp=1.0),
    "example3": ModelParams(omega_drive=math.pi, delta1=-math.pi,
                            delta2=math.pi / 2, omega_amp=1.0),
    "nv-plus": ModelParams(omega_drive=TWO_PI * 5.0, delta1=TWO_PI * 5.0,
                           delta2=TWO_PI * 5.0, omega_amp=TWO_PI * 10.0),
    "nv-minus": ModelParams(omega_drive=TWO_PI * 5.0, delta1=TWO_PI * 5.0,
                            delta2=-TWO_PI * 5.0, omega_amp=TWO_PI * 10.0),
}


def _check_range(name: str, value, lo, hi):
    if value is not None and not lo <= value <= hi:
        raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value}")


@record
class RunConfig:
    """The validated settings of one run; options it does not read are None."""

    params: ModelParams | None   # None only for oracle-check
    band: str | None = None
    k_points: int | None = None
    t_points: int | None = None
    t_max: float | None = None   # None: three periods
    sites: int | None = None
    steps: int | None = None
    n_lines: int | None = None
    out: str | None = None       # None: stdout
    fmt: str | None = None

    def __post_init__(self):
        _check_range("k_points", self.k_points, 2, MAX_GRID_POINTS)
        _check_range("t_points", self.t_points, 2, MAX_GRID_POINTS)
        _check_range("n_lines", self.n_lines, 1, MAX_N_LINES)
        axes = [n for n in (self.k_points, self.t_points, self.n_lines)
                if n is not None]
        if math.prod(axes) > MAX_GRID_POINTS:
            raise ConfigError(f"grid of {' x '.join(map(str, axes))} values "
                              f"exceeds {MAX_GRID_POINTS}")
        t_max = None if self.t_points is None else self.resolved_t_max
        if t_max is not None and not 0 < t_max < math.inf:
            raise ConfigError("t_max (three periods when not given) must be "
                              f"positive and finite, got {t_max}")
        _check_range("sites", self.sites, 2, MAX_SITES)
        if self.out is not None and "\0" in self.out:  # from an INI value
            raise ConfigError("out must not contain a NUL character")
        # the lower bound is the oracle's own StepCountTooSmall guard
        if self.steps is not None and self.steps > MAX_STEPS:
            raise ConfigError(f"steps must be <= {MAX_STEPS}, "
                              f"got {self.steps}")

    @property
    def resolved_t_max(self) -> float:
        return self.t_max if self.t_max is not None else 3.0 * self.params.period


def _write_text(cfg: RunConfig, parts):
    """Write an iterable of UTF-8 byte strings, in turn, to --out or, when
    it is None, to stdout.

    A new or regular file is written to a temporary sibling renamed over it,
    so a failed run leaves no partial file; a link, device or pipe is
    written through.
    """
    if cfg.out is None:
        for part in parts:
            sys.stdout.write(str(part, "utf-8"))
        return
    path = cfg.out
    if not (os.path.islink(path)
            or os.path.exists(path) and not os.path.isfile(path)):
        head, tail = os.path.split(path)
        path = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part)
        if path != cfg.out:
            os.replace(path, cfg.out)
    except BaseException:
        if path != cfg.out and os.path.exists(path):
            os.unlink(path)
        raise


def write_dataset(cfg: RunConfig, header, columns):
    """Write a table as CSV or JSON: its rows are the columns broadcast
    together in C order (see `_cells.table`), each cell "%.17g" of the value
    cast to float64, so integral values print as integers. A (k, t) grid is
    (ks[:, None], ts, values), written as k-major (k, t, value) rows."""
    from ._cells import table
    _write_text(cfg, table(cfg.fmt, header, columns))


def k_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, math.pi, cfg.k_points)


def t_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.resolved_t_max, cfg.t_points)


def cmd_retprob(cfg: RunConfig):
    ks, ts = k_grid(cfg), t_grid(cfg)
    probs = dynamics.return_probability_grid(cfg.params, ks[:, None], ts)
    write_dataset(cfg, ("k", "t", "retprob"), (ks[:, None], ts, probs))


def cmd_rate(cfg: RunConfig):
    ts = t_grid(cfg)
    g = dqpt.rate_function_grid(cfg.params, "minus", ts, cfg.k_points)
    write_dataset(cfg, ("t", "g"), (ts, g))


def cmd_fisher(cfg: RunConfig):
    ks = k_grid(cfg)
    lines = dqpt.fisher_lines(cfg.params, cfg.band, ks, cfg.n_lines)
    # the lines share the k grid and one tau; n and t_imag are one per line
    write_dataset(cfg, ("n", "k", "tau", "t_imag"),
                  (np.array([[line.n] for line in lines]), ks,
                   lines[0].tau_of_k,
                   np.array([[line.t_imag] for line in lines])))


def cmd_geo(cfg: RunConfig):
    from . import geometry
    ks, ts = k_grid(cfg), t_grid(cfg)
    phases = geometry.geometric_phase_grid(cfg.params, cfg.band,
                                           ks[:, None], ts)
    write_dataset(cfg, ("k", "t", "phase"), (ks[:, None], ts, phases))


def cmd_winding(cfg: RunConfig):
    """nu in closed form next to raw_winding_grid's trace on
    max(k_points, MIN_WINDING_GRID) k points: guard windows are gaps, raw is
    NaN where that grid cannot resolve t, and a finite raw that rounds to
    another integer than nu is an error."""
    from . import geometry
    # topo's refusals, DegenerateDelta1 then GaplessPoint, before any t
    topology.chiral_winding_numbers(cfg.params)
    n_k = max(cfg.k_points, geometry.MIN_WINDING_GRID)
    ts, raws = geometry.raw_winding_grid(cfg.params, cfg.band, t_grid(cfg),
                                         n_k)
    nus = geometry.exact_winding_grid(cfg.params, cfg.band, ts)
    wrong = np.isfinite(raws) & (np.rint(raws) != nus)
    if wrong.any():
        t, nu, raw = (float(c[wrong.argmax()]) for c in (ts, nus, raws))
        raise WindingMismatch(f"at t = {t} the closed form gives nu = "
                              f"{nu:.0f}, the {n_k}-point k grid {raw}")
    write_dataset(cfg, ("t", "nu", "raw"), (ts, nus + 0.0, raws))


def cmd_topo(cfg: RunConfig):
    inv = topology.chiral_winding_numbers(cfg.params)
    crit = dqpt.dqpt_condition(cfg.params)
    report = {
        "encircling": inv.wpi != 0,
        "w1": inv.w1, "w2": inv.w2, "w0": inv.w0, "wpi": inv.wpi,
        "has_dqpt": crit.has_dqpt,
        "k_c": crit.k_c,
        "critical_times": crit.critical_times,
    }
    if cfg.fmt == "json":
        import json
        text = json.dumps(report) + "\n"
    else:
        text = "".join(f"{key} = {val}\n" for key, val in report.items())
    _write_text(cfg, [text.encode("utf-8")])


def cmd_spectrum(cfg: RunConfig):
    from . import lattice
    spec = lattice.obc_floquet_spectrum(cfg.params, cfg.sites)
    write_dataset(cfg, ("index", "quasienergy", "edge_weight", "pi_mode"),
                  (np.arange(spec.quasienergies.size), spec.quasienergies,
                   spec.edge_weights, spec.pi_mode))


def cmd_oracle_check(cfg: RunConfig):
    """Analytic-vs-oracle propagator suite; nonzero exit on failure."""
    tol, draws = 1e-7, 20
    rng = np.random.default_rng(20240831)
    worst = 0.0
    done = 0
    while done < draws:
        p = ModelParams(omega_drive=rng.uniform(0.5, 6.0),
                        delta1=rng.uniform(-5.0, 5.0),
                        delta2=rng.uniform(-5.0, 5.0),
                        omega_amp=rng.uniform(0.1, 5.0))
        k = rng.uniform(0.0, math.pi)
        if 2.0 * normal_field(p, k)[3] * p.normal_form[0] <= 0.01:
            continue
        t = rng.uniform(0.0, 2.0 * p.period)
        ua = dynamics.propagator_analytic(p, k, t)
        uo = dynamics.propagator_oracle(p, k, t, cfg.steps)
        worst = max(worst, float(np.abs(ua - uo).max()))
        done += 1
    ok = worst < tol
    sys.stdout.write(f"draws = {draws}\nmax_deviation = {worst:.17g}\n"
                     f"tolerance = {tol:.17g}\n"
                     f"status = {'pass' if ok else 'fail'}\n")
    return 0 if ok else 1


DISPATCH = {
    "retprob": cmd_retprob,
    "rate": cmd_rate,
    "fisher": cmd_fisher,
    "geo": cmd_geo,
    "winding": cmd_winding,
    "topo": cmd_topo,
    "spectrum": cmd_spectrum,
    "oracle-check": cmd_oracle_check,
}

# Every option, declared once: flag name -> argparse keywords. A default
# applies only to the subcommands that read the option.
OPTIONS = {
    "preset": dict(choices=sorted(PRESETS)),
    "config": dict(metavar="PATH"),
    "band": dict(choices=("minus", "plus"), default="minus"),
    "k-points": dict(type=int, default=181),
    "t-points": dict(type=int, default=241),
    "t-max": dict(type=float),  # three periods when not given
    "n-lines": dict(type=int, default=3),
    "sites": dict(type=int, default=40),
    "steps": dict(type=int, default=DEFAULT_ORACLE_STEPS),
    "out": dict(metavar="PATH"),  # stdout when not given
    "format": dict(dest="fmt", choices=("csv", "json"), default="csv"),
}

# The flags each subcommand reads, besides --preset and --config. |G|^2,
# hence retprob and rate, is the same for both bands: they read no --band.
GRID_FLAGS = ("k-points", "t-points", "t-max", "out", "format")
COMMAND_FLAGS = {
    "retprob": GRID_FLAGS,
    "rate": GRID_FLAGS,
    "fisher": ("band", "k-points", "n-lines", "out", "format"),
    "geo": ("band", *GRID_FLAGS),
    "winding": ("band", *GRID_FLAGS),
    "topo": ("out", "format"),
    "spectrum": ("sites", "out", "format"),
    "oracle-check": ("steps",),
}


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a bad argument instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(
        prog="fdqpt",
        description="Datasets for driven-chain return amplitudes, rate "
                    "functions, Fisher zeros, geometric phases, winding "
                    "numbers and open-chain Floquet spectra.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in DISPATCH:
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in ("preset", "config") + COMMAND_FLAGS[name]:
            p.add_argument("--" + flag, **OPTIONS[flag])
    return parser


def load_config_file(path: str, command: str) -> tuple[dict | None, list]:
    """Read an INI file into ([model] parameters or None, flag tokens).

    [model] holds either `preset = NAME` or the four model parameters. Each
    key of the [command] section names one of the subcommand's flags (`_`
    reads as `-`) and becomes the token `--key=value`, so the subcommand's
    parser checks it like a flag. Values are read literally.
    """
    import configparser
    ini = configparser.ConfigParser(interpolation=None)
    try:
        read = ini.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}")
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    model, tokens = None, []
    if ini.has_section("model"):
        sec = ini["model"]
        if "preset" in sec and len(sec) > 1:
            raise ConfigError(f"{path}: [model] holds either preset or the "
                              f"model parameters, not both: "
                              f"{', '.join(sec)}")
        if "preset" in sec:
            tokens.append("--preset=" + sec["preset"])
        else:
            try:
                model = {key: sec.getfloat(key) for key in sec}
            except ValueError as exc:
                raise ConfigError(f"bad numeric value in [model]: {exc}")
    if ini.has_section(command):
        tokens += [f"--{key.replace('_', '-')}={value}"
                   for key, value in ini[command].items()]
    return model, tokens


def build_config(argv: list) -> tuple[str, RunConfig]:
    """Parse argv into (subcommand, RunConfig); flags win over --config."""
    parser = make_parser()
    args = parser.parse_args(argv)
    model = None
    if args.config is not None:
        model, tokens = load_config_file(args.config, args.command)
        try:
            # the file's tokens go before the flags, so the flags win; argv
            # alone parsed, so an error here comes from the file
            args = parser.parse_args([args.command, *tokens, *argv[1:]])
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    opts = vars(args)
    command, preset = opts.pop("command"), opts.pop("preset")
    del opts["config"]
    if preset is not None:
        params = PRESETS[preset]
    elif model is not None:
        try:
            params = ModelParams(**model)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[model]: {exc}")
    elif command == "oracle-check":  # draws its own parameters
        params = None
    else:
        raise ConfigError("no model parameters: use --preset or a config "
                          "file with a [model] section")
    return command, RunConfig(params=params, **opts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, cfg = build_config(argv)
        # oracle-check returns 1 when the propagators disagree
        return DISPATCH[command](cfg) or 0
    except ConfigError as exc:
        message = " ".join(str(exc).split())  # one line
        sys.stderr.write(f"config error: {message}\n")
        return 2
    except NumericalGuardError as exc:
        sys.stderr.write(f"numerical guard: {type(exc).__name__}: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
