"""Command-line front end producing plot-ready datasets.

Subcommands sweep (k, t) grids and serialize CSV (or JSON) deterministically:
rows sorted by k then t, 17 significant digits, non-finite values spelled
"nan"/"inf"/"-inf". A declarative INI-style config file can pre-set any
option; command-line flags win over the file.

Exit codes: 0 success, 2 configuration or output-file error, 3 numerical
guard error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import dqpt, dynamics, geometry, lattice, topology
from .errors import ConfigError, NearCriticalTime, NumericalGuardError
from .model import ModelParams, floquet_solution

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

COMMANDS = ("retprob", "rate", "fisher", "geo", "winding", "topo",
            "spectrum", "oracle-check")


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    band: str = "minus"
    k_points: int = 181
    t_points: int = 241
    t_max: float | None = None   # defaults to three periods
    sites: int = 40
    steps: int = dynamics.DEFAULT_ORACLE_STEPS
    n_lines: int = 3
    out: str | None = None       # None = stdout
    fmt: str = "csv"

    def __post_init__(self):
        if self.k_points < 2 or self.t_points < 2:
            raise ConfigError("k_points and t_points must be >= 2")
        if self.t_max is not None and self.t_max <= 0:
            raise ConfigError("t_max must be positive")
        if not 2 <= self.sites <= lattice.MAX_SITES:
            raise ConfigError(f"sites must be in [2, {lattice.MAX_SITES}], "
                              f"got {self.sites}")
        if self.band not in ("minus", "plus"):
            raise ConfigError(f"band must be minus or plus, got {self.band!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")

    @property
    def resolved_t_max(self) -> float:
        return self.t_max if self.t_max is not None else 3.0 * self.params.period


def fmt_num(x) -> str:
    """17-significant-digit serialization with fixed non-finite tokens."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _write_text(cfg: RunConfig, text: str):
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_dataset(cfg: RunConfig, header, rows):
    rows = [[fmt_num(v) if not isinstance(v, str) else v for v in row]
            for row in rows]
    if cfg.fmt == "csv":
        text = "\n".join([",".join(header)]
                         + [",".join(r) for r in rows]) + "\n"
    else:
        text = json.dumps({"columns": list(header), "rows": rows},
                          indent=None, separators=(",", ":")) + "\n"
    _write_text(cfg, text)


def k_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, math.pi, cfg.k_points)


def t_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.resolved_t_max, cfg.t_points)


def grid_rows(ks, ts, values) -> list:
    """(k, t, value) rows, k-major, from a (len(ks), len(ts)) array."""
    ts = ts.tolist()
    return [[k, t, v] for k, row in zip(ks.tolist(), values.tolist())
            for t, v in zip(ts, row)]


def cmd_retprob(cfg: RunConfig):
    ks, ts = k_grid(cfg), t_grid(cfg)
    probs = dynamics.return_probability_grid(cfg.params, cfg.band,
                                             ks[:, None], ts)
    write_dataset(cfg, ("k", "t", "retprob"), grid_rows(ks, ts, probs))


def cmd_rate(cfg: RunConfig):
    ts = t_grid(cfg)
    rows = [[t, dqpt.rate_function(cfg.params, cfg.band, t, cfg.k_points)]
            for t in ts]
    write_dataset(cfg, ("t", "g"), rows)


def cmd_fisher(cfg: RunConfig):
    ks = k_grid(cfg)
    lines = dqpt.fisher_lines(cfg.params, cfg.band, ks, cfg.n_lines)
    rows = [[str(line.n), k, tau, line.t_imag]
            for line in lines for k, tau in zip(line.k_grid, line.tau_of_k)]
    write_dataset(cfg, ("n", "k", "tau", "t_imag"), rows)


def cmd_geo(cfg: RunConfig):
    ks, ts = k_grid(cfg), t_grid(cfg)
    phases = geometry.geometric_phase_grid(cfg.params, cfg.band,
                                           ks[:, None], ts)
    write_dataset(cfg, ("k", "t", "phase"), grid_rows(ks, ts, phases))


def cmd_winding(cfg: RunConfig):
    dqpt.dqpt_condition(cfg.params)  # DegenerateDelta1 before any t
    rows = []
    for t in t_grid(cfg):
        try:
            nu, raw = geometry.winding_number(cfg.params, cfg.band, t,
                                              max(cfg.k_points,
                                                  geometry.MIN_WINDING_GRID),
                                              return_raw=True)
        except NearCriticalTime:
            continue  # guard windows are emitted as gaps
        rows.append([t, str(nu), raw])
    write_dataset(cfg, ("t", "nu", "raw"), rows)


def cmd_topo(cfg: RunConfig):
    inv = topology.chiral_winding_numbers(cfg.params)
    crit = dqpt.dqpt_condition(cfg.params, 3.0 * cfg.params.period)
    report = {
        "encircling": topology.encircling_condition(cfg.params),
        "w1": inv.w1, "w2": inv.w2, "w0": inv.w0, "wpi": inv.wpi,
        "has_dqpt": crit.has_dqpt,
        "k_c": crit.k_c,
        "critical_times": crit.critical_times[:3],
    }
    if cfg.fmt == "json":
        text = json.dumps(report) + "\n"
    else:
        text = "".join(f"{key} = {val}\n" for key, val in report.items())
    _write_text(cfg, text)


def cmd_spectrum(cfg: RunConfig):
    spec = lattice.obc_floquet_spectrum(cfg.params, cfg.sites)
    rows = [[str(i), e, w, str(int(flag))]
            for i, (e, w, flag) in enumerate(zip(spec.quasienergies,
                                                 spec.edge_weights,
                                                 spec.pi_mode))]
    write_dataset(cfg, ("index", "quasienergy", "edge_weight", "pi_mode"),
                  rows)


def cmd_oracle_check(cfg: RunConfig, tol: float = 1e-7, draws: int = 20):
    """Analytic-vs-oracle propagator suite; nonzero exit on failure."""
    rng = np.random.default_rng(20240831)
    worst = 0.0
    done = 0
    while done < draws:
        p = ModelParams(omega_drive=rng.uniform(0.5, 6.0),
                        delta1=rng.uniform(-5.0, 5.0),
                        delta2=rng.uniform(-5.0, 5.0),
                        omega_amp=rng.uniform(0.1, 5.0))
        k = rng.uniform(0.0, math.pi)
        try:
            fs = floquet_solution(p, k)
        except NumericalGuardError:
            continue
        if fs.gap <= 0.01:
            continue
        t = rng.uniform(0.0, 2.0 * p.period)
        ua = dynamics.propagator_analytic(p, k, t)
        uo = dynamics.propagator_oracle(p, k, t, cfg.steps)
        worst = max(worst, float(np.abs(ua - uo).max()))
        done += 1
    ok = worst < tol
    sys.stdout.write(f"draws = {draws}\nmax_deviation = {fmt_num(worst)}\n"
                     f"tolerance = {fmt_num(tol)}\n"
                     f"status = {'pass' if ok else 'fail'}\n")
    return 0 if ok else 1


def load_config_file(path: str, command: str) -> dict:
    """Read [model] and per-command sections from an INI-style file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values: dict = {}
    if parser.has_section("model"):
        sec = parser["model"]
        if "preset" in sec:
            name = sec["preset"]
            if name not in PRESETS:
                raise ConfigError(f"unknown preset {name!r} in {path}")
            values["preset"] = name
        else:
            try:
                values["model"] = {key: sec.getfloat(key) for key in sec}
            except ValueError as exc:
                raise ConfigError(f"bad numeric value in [model]: {exc}")
    if parser.has_section(command):
        for key, raw in parser[command].items():
            values[key.replace("-", "_")] = raw
    return values


def _coerce(key: str, raw):
    ints = {"k_points", "t_points", "sites", "steps", "n_lines"}
    floats = {"t_max"}
    if isinstance(raw, str):
        try:
            if key in ints:
                return int(raw)
            if key in floats:
                return float(raw)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}")
    return raw


def build_config(args) -> RunConfig:
    file_vals = {}
    if args.config:
        file_vals = load_config_file(args.config, args.command)

    preset = args.preset or file_vals.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        params = PRESETS[preset]
    elif "model" in file_vals:
        m = file_vals["model"]
        missing = {"omega_drive", "delta1", "delta2", "omega_amp"} - set(m)
        if missing:
            raise ConfigError(f"[model] missing keys: {sorted(missing)}")
        try:
            params = ModelParams(**m)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc))
    else:
        raise ConfigError("no model parameters: use --preset or a config "
                          "file with a [model] section")

    kwargs = {}
    for key in ("band", "k_points", "t_points", "t_max", "sites", "steps",
                "n_lines", "out", "fmt"):
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
        elif key in file_vals:
            kwargs[key] = _coerce(key, file_vals[key])
    return RunConfig(params=params, **kwargs)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdqpt",
        description="Datasets for driven-chain return amplitudes, rate "
                    "functions, Fisher zeros, geometric phases, winding "
                    "numbers and open-chain Floquet spectra.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", metavar="PATH")
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"))
        p.add_argument("--band", choices=("minus", "plus"))
        p.add_argument("--k-points", dest="k_points", type=int)
        p.add_argument("--t-points", dest="t_points", type=int)
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--sites", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--n-lines", dest="n_lines", type=int)
    return parser


DISPATCH = {
    "retprob": cmd_retprob,
    "rate": cmd_rate,
    "fisher": cmd_fisher,
    "geo": cmd_geo,
    "winding": cmd_winding,
    "topo": cmd_topo,
    "spectrum": cmd_spectrum,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    try:
        if args.command == "oracle-check":
            return cmd_oracle_check(cfg)
        DISPATCH[args.command](cfg)
    except NumericalGuardError as exc:
        sys.stderr.write(f"numerical guard: {type(exc).__name__}: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
