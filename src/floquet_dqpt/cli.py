"""Command-line front end producing plot-ready datasets.

Subcommands sweep (k, t) grids and serialize CSV (or JSON) deterministically:
rows sorted by k then t, 17 significant digits, non-finite values spelled
"nan"/"inf"/"-inf". Each subcommand takes only the flags it reads. An
INI-style config file can pre-set them: its keys are the flag names, parsed
by the same parser, and command-line flags win over the file.

Every cell holds the bytes "%.17g" % x gives for a double x, from one numpy
kernel, `_format_cells`; integer columns are cast to float64, exact below
2^53, and print as integers. Where %g writes fixed notation (finite x,
1e-4 <= |x| < 1e17) it takes an exact route: Dekker's product gives
|x| 10^(16 - e) exactly, for e = floor(log10|x|), and rounding it half-even
to an integer gives the 17 significant digits CPython's correctly rounded
dtoa prints. The other cells (0, -0, nan, infinities, exponent notation,
and any cell whose log10 is off by one) go through one "%.17g" template.
A table's rows are its columns broadcast together in C order, so a value
repeated along an axis (a k or t of a grid; fisher's n, k, tau and t_imag)
is formatted once and gathered. Rows are built in blocks of FORMAT_BLOCK,
NUL-padded, and streamed to the output without NULs.

Exit codes: 0 success, 2 configuration or output-file error, 3 numerical
guard error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import dqpt, dynamics, geometry, lattice, topology
from ._lazy import np
from .errors import ConfigError, NumericalGuardError, WindingMismatch
from .model import ModelParams, normal_field

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

# Resource limits, checked in RunConfig before any work: values a subcommand
# computes or writes (k_points x t_points, or n_lines x k_points for fisher;
# a (k, t) grid's values are held in memory, their text is written a block
# at a time), Fisher lines and oracle steps per period.
MAX_GRID_POINTS = 2_000_000
MAX_N_LINES = 100
MAX_STEPS = 16 * dynamics.DEFAULT_ORACLE_STEPS


def _check_range(name: str, value, lo, hi):
    if value is not None and not lo <= value <= hi:
        raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
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
        _check_range("sites", self.sites, 2, lattice.MAX_SITES)
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


# Bytes of one formatted cell: the longest "%.17g" string is 24 characters,
# "-1.2345678901234567e-308"; shorter ones are padded with NULs.
CELL = 24
# Cells the dataset writer formats at a time. It bounds the writer's
# temporaries, the largest of which hold 24 bytes a cell, below 128 KiB, so
# that glibc serves them from its heap rather than from fresh mmaps (the
# limit model.GRID_CHUNK keeps for the t-grid kernels); only the reused
# block of rows is larger.
FORMAT_BLOCK = 4096

def _split(a):
    # Veltkamp split: a = hi + lo exactly, each with at most 26 significant
    # bits, so products of halves are exact
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _words(rows) -> np.ndarray:
    # rows of 24 bytes as three little-endian 64-bit words each
    return np.frombuffer(bytes(b for row in rows for b in row),
                         "<u8").reshape(-1, 3)


@functools.cache
def _tables():
    """The writer's constant tables, built on the first formatted cell so
    that a run writing none never imports numpy.

    10^q for q = 0 .. 20, exact doubles (5^q < 2^53 for q <= 22), and its
    Veltkamp halves, split in Python floats. A fixed-notation cell shows
    s = "0000" d0 .. d16 (bytes 0 .. 20 of a 24-byte row) from s[min(ie, 4)]
    to s[end], with a point after s[ie], where ie = e + 4. Per ie: the bytes
    kept in place, those moved up one byte to make room for the point, and
    the point; per end: the bytes shown once moved. Last, eight ASCII zeros.
    """
    pow10 = [float(10 ** q) for q in range(21)]
    return (np.array(pow10), *np.array([_split(b) for b in pow10]).T,
            _words([[255 * (min(ie, 4) <= i <= ie) for i in range(24)]
                    for ie in range(21)]),
            _words([[255 * (i > ie) for i in range(24)] for ie in range(21)]),
            _words([[46 * (i == ie + 1) for i in range(24)]
                    for ie in range(21)]),
            _words([[255 * (i <= end) for i in range(24)]
                    for end in range(22)]),
            np.uint64(0x3030303030303030))


def _format_cells(x, out):
    """Write "%.17g" % x[i] into row i of out, an (n, CELL) uint8 array, as
    ASCII padded with NULs; x is any real array, cast exactly to float64.

    On the exact route (see the module docstring), p + err = |x| 10^q
    exactly with q = 16 - e, and p >= 10^16 > 2^53 is an even integer, so
    D = p + rint(err) is that product rounded half-even: the digits dtoa
    prints. A row stays on the route only where 10^16 <= D < 10^17, which
    refuses a log10 off by one next to a power of ten and a rounding that
    carries to 10^17.
    """
    x = np.asarray(x, dtype=float)
    for lo in range(0, x.size, FORMAT_BLOCK):
        hi = lo + FORMAT_BLOCK
        _format_block(x[lo:hi], out[lo:hi])


def _format_block(x, out):
    pow10, pow10_hi, pow10_lo, keep, move, point, upto, zeros = _tables()
    a = np.abs(x)
    with np.errstate(divide="ignore"):  # log10(0) = -inf
        e = np.log10(a)
    np.floor(e, out=e)
    exact = (e >= -4.0) & (e <= 16.0)  # false for 0, nan and +-inf
    # a dummy value on the other rows, overwritten below
    np.copyto(a, 1.0, where=~exact)
    np.copyto(e, 0.0, where=~exact)
    ie = e.astype(np.intp)
    q = 16 - ie
    ah, al = _split(a)
    p = a * pow10[q]
    err = ah * pow10_hi[q] - p
    err += ah * pow10_lo[q]
    err += al * pow10_hi[q]
    err += al * pow10_lo[q]
    d = p.astype(np.int64)
    d += np.rint(err, out=err).astype(np.int64)
    exact &= (d >= 10 ** 16) & (d < 10 ** 17)

    # the digits of D as bytes 4 .. 20 of a zeroed 24-byte row s: nine
    # divisions by 10 of each int32 half, the high half's last one giving
    # the zero of byte 3
    n = x.size
    s = np.zeros((n, 24), np.uint8)
    half = np.empty((2, n), np.int32)
    half[0] = high = d // 10 ** 9
    half[1] = d - high * 10 ** 9
    quot, rem = np.empty_like(half), np.empty_like(half)
    for j in range(9):
        np.floor_divide(half, 10, out=quot)
        np.multiply(quot, 10, out=rem)
        np.subtract(half, rem, out=rem)
        s[:, 11 - j] = rem[0]
        s[:, 20 - j] = rem[1]
        half, quot = quot, half
    words = s.view("<u8")
    # the last nonzero digit is the top nonzero byte of the 192-bit row:
    # digits are below 16, so the binary exponent of its value as a double
    # names that byte even after rounding
    w = words.astype(float)
    _, ex = np.frexp(w[:, 0] + 2.0 ** 64 * w[:, 1] + 2.0 ** 128 * w[:, 2])
    last = (ex - 1) >> 3
    ie += 4
    end = np.maximum(last, ie)
    end += end > ie  # the point, where a fraction digit is shown

    words |= zeros
    cell = np.take(keep, ie, axis=0)
    cell &= words
    words &= np.take(move, ie, axis=0)
    cell |= words << 8
    cell[:, 1] |= words[:, 0] >> 56
    cell[:, 2] |= words[:, 1] >> 56
    cell |= np.take(point, ie, axis=0)
    cell &= np.take(upto, end, axis=0)
    out[:, 0] = np.where(np.signbit(x), 45, 0)  # "-"
    out[:, 1:] = cell.astype("<u8", copy=False).view(np.uint8)[:, :23]
    other = np.flatnonzero(~exact)
    if other.size:
        # one "%.17g" template, left-justified to CELL; spaces become NULs
        text = (f"%-{CELL}.17g" * other.size) % tuple(x[other].tolist())
        out[other] = np.frombuffer(text.replace(" ", "\0").encode("ascii"),
                                   np.uint8).reshape(-1, CELL)


# Row open, cell separator, row close and row separator. JSON rows are lists
# of the same number strings the CSV holds.
LAYOUTS = {"csv": ("", ",", "\n", ""), "json": ('["', '","', '"]', ",")}


def _rows(layout, columns):
    """Yield the rows of `columns` broadcast together in C order, as ASCII
    bytes, FORMAT_BLOCK rows at a time.

    A column with one value per row is formatted a block at a time. A
    column that repeats along an axis of a (rows, cols) table, of shape
    (rows, 1) or (cols,), is formatted once, and row r gathers its cell
    r // cols or r % cols. Each block of rows is built in one reused,
    NUL-padded buffer, and its bytes other than NUL are yielded.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    n, cols = math.prod(shape), shape[-1]
    parts = []  # (values, None) or (cells, 0 for r // cols, 1 for r % cols)
    for c in columns:
        if c.shape == shape:
            parts.append((c.reshape(-1), None))
        else:
            cells = np.empty((c.size, CELL), np.uint8)
            _format_cells(c.reshape(-1), cells)
            parts.append((cells, 0 if c.ndim == 2 else 1))
    row_open, sep, row_close, between = layout
    template = np.frombuffer(
        (between + row_open + sep.join(["\0" * CELL] * len(parts))
         + row_close).encode("ascii"), np.uint8)
    first = len(between) + len(row_open)
    size = min(n, FORMAT_BLOCK)
    buf = bytearray(size * template.size)
    block = np.frombuffer(buf, np.uint8).reshape(size, template.size)
    block[:] = template
    for lo in range(0, n, FORMAT_BLOCK):
        hi = min(lo + FORMAT_BLOCK, n)
        block[hi - lo:] = 0  # past the last row: dropped with the NULs
        index = np.divmod(np.arange(lo, hi), cols)
        for j, (part, axis) in enumerate(parts):
            o = first + j * (CELL + len(sep))
            slot = block[:hi - lo, o:o + CELL]
            if axis is None:
                _format_cells(part[lo:hi], slot)
            else:
                slot[...] = np.take(part, index[axis], axis=0)
        text = buf.translate(None, b"\0")
        yield memoryview(text)[len(between):] if lo == 0 else text


def write_dataset(cfg: RunConfig, header, columns):
    """Write a table as CSV or JSON: its rows are the columns broadcast
    together in C order (see `_rows`), each cell "%.17g" of the value cast
    to float64, so integral values print as integers. A (k, t) grid is
    (ks[:, None], ts, values), written as k-major (k, t, value) rows."""
    if cfg.fmt == "csv":
        head, tail = ",".join(header) + "\n", ""
    else:
        head = ('{"columns":' + json.dumps(list(header), separators=(",", ":"))
                + ',"rows":[')
        tail = "]}\n"
    _write_text(cfg, itertools.chain([head.encode("utf-8")],
                                     _rows(LAYOUTS[cfg.fmt], columns),
                                     [tail.encode("utf-8")]))


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
    ks, ts = k_grid(cfg), t_grid(cfg)
    phases = geometry.geometric_phase_grid(cfg.params, cfg.band,
                                           ks[:, None], ts)
    write_dataset(cfg, ("k", "t", "phase"), (ks[:, None], ts, phases))


def cmd_winding(cfg: RunConfig):
    """nu in closed form next to raw_winding_grid's trace on
    max(k_points, MIN_WINDING_GRID) k points: guard windows are gaps, raw is
    NaN where that grid cannot resolve t, and a finite raw that rounds to
    another integer than nu is an error."""
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
        text = json.dumps(report) + "\n"
    else:
        text = "".join(f"{key} = {val}\n" for key, val in report.items())
    _write_text(cfg, [text.encode("utf-8")])


def cmd_spectrum(cfg: RunConfig):
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
    "steps": dict(type=int, default=dynamics.DEFAULT_ORACLE_STEPS),
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
