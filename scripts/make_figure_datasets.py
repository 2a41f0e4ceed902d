#!/usr/bin/env python3
"""Produce the full set of plot-ready datasets for every bundled preset.

Writes, per preset, the return-probability grid, rate function, Fisher-zero
lines, geometric-phase grid, winding-number trace, topology report and (for
the textbook-scale examples) the open-chain Floquet spectrum. Everything is
driven through the `fdqpt` CLI so the files match what a user would generate
by hand.

Usage: python3 scripts/make_figure_datasets.py [OUTDIR]   (default: datasets/)
"""

import pathlib
import sys

from floquet_dqpt.cli import main

# Each preset's t_max: three periods (T = 2) for the examples, and for the
# NV experiments 0.6 microseconds, which covers t_c = 0.5.
T_MAX = {"example1": "6.0", "example2": "6.0", "example3": "6.0",
         "nv-plus": "0.6", "nv-minus": "0.6"}
# Each command's flags besides --preset, --format and --out; T_MAX stands for
# the preset's t_max. The first five are the grid commands.
FLAGS = {"retprob": ("--t-max", T_MAX),
         "rate": ("--k-points", "2001", "--t-points", "241", "--t-max", T_MAX),
         "fisher": ("--k-points", "401"),
         "geo": ("--t-max", T_MAX),
         "winding": ("--t-points", "121", "--t-max", T_MAX),
         "topo": (),
         "spectrum": ("--sites", "40")}
GRIDS = tuple(FLAGS)[:5]


def dataset(preset: str, command: str, fmt: str = "csv"):
    """(file name, fdqpt argv without --out) of one dataset."""
    flags = [T_MAX[preset] if f is T_MAX else f for f in FLAGS[command]]
    return (f"{preset.replace('-', '_')}_{command}.{fmt}",
            [command, "--preset", preset, *flags, "--format", fmt])


def main_script(argv):
    outdir = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path("datasets")
    outdir.mkdir(parents=True, exist_ok=True)
    for preset in T_MAX:
        # topo as JSON; the open-chain spectrum for the examples only
        runs = [(command, "csv") for command in GRIDS] + [("topo", "json")]
        if preset.startswith("example"):
            runs.append(("spectrum", "csv"))
        for command, fmt in runs:
            name, args = dataset(preset, command, fmt)
            code = main([*args, "--out", str(outdir / name)])
            if code != 0:
                raise SystemExit(f"fdqpt {' '.join(args)} exited with {code}")
    print(f"datasets written to {outdir}/")


if __name__ == "__main__":
    main_script(sys.argv)
