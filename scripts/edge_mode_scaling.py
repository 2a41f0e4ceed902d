#!/usr/bin/env python3
"""Scaling of the pi edge-mode pinning with chain length.

For each chain size, prints the number of flagged pi modes, their maximal
detuning from +-w/2 and their edge weight, for the first example parameter
set (topologically nontrivial) and the second (trivial). The detuning should
fall exponentially with N in the nontrivial phase.

Usage: python3 scripts/edge_mode_scaling.py [N1 N2 ...]
(default: 20 40 80 160 400)
"""

import sys

import numpy as np

from floquet_dqpt.cli import PRESETS
from floquet_dqpt.lattice import obc_floquet_spectrum


def main(argv):
    sizes = [int(a) for a in argv[1:]] or [20, 40, 80, 160, 400]
    for name in ("example1", "example2"):
        p = PRESETS[name]
        print(f"{name}: omega={p.omega_drive:.4f} delta1={p.delta1:.4f} "
              f"delta2={p.delta2:.4f} amp={p.omega_amp:.4f}")
        print(f"  {'N':>4} {'pi modes':>9} {'max detuning':>13} "
              f"{'min edge weight':>16}")
        for n in sizes:
            spec = obc_floquet_spectrum(p, n)
            eps = spec.quasienergies[spec.pi_mode]
            if eps.size:
                det = float(np.abs(np.abs(eps) - 0.5 * p.omega_drive).max())
                wmin = float(spec.edge_weights[spec.pi_mode].min())
                print(f"  {n:>4} {eps.size:>9} {det:>13.3e} {wmin:>16.3f}")
            else:
                print(f"  {n:>4} {0:>9} {'-':>13} {'-':>16}")


if __name__ == "__main__":
    main(sys.argv)
