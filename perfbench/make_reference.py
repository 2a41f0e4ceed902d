#!/usr/bin/env python3
"""Write the reference outputs that every benchmark run is checked against.

Run it only at the commit whose outputs are the reference (the references
in `reference/` were taken at the seed commit of the benchmark); a later
commit must match them, not replace them.

Usage: python3 perfbench/make_reference.py
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # fixes the BLAS thread count before numpy is imported

run.use_source_tree()

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402


def datasets(root: Path) -> dict:
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        files = {}
        for name, argv in w.dataset_ops():
            path = Path(tmp) / name
            if w.cli.main(argv + ["--out", str(path)]) != 0:
                raise SystemExit(f"fdqpt {' '.join(argv)} failed")
            files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    topo = subprocess.run([sys.executable, "-c", run.SETUP_CODE], cwd=root,
                          env=run.child_env(root), capture_output=True,
                          check=True, timeout=120)
    return {"files": files,
            "setup_stdout_sha256": hashlib.sha256(topo.stdout).hexdigest()}


def spectrum() -> dict:
    ref = {}
    for preset, n in sorted(set(w.SPECTRUM_OPS)):
        spec = w.lattice.obc_floquet_spectrum(w.SPECTRUM_PARAMS[preset], n)
        ref[f"{preset}/N{n}"] = {
            "quasienergies": np.sort(spec.quasienergies).tolist(),
            "pi_modes": int(np.sum(spec.pi_mode))}
    return ref


def scan() -> dict:
    pool = w.scan_pool_inputs()
    outcomes, values, kinds = [], [], []
    outcome_offsets, value_offsets = [0], [0]
    for i in range(w.POOL_SIZE):
        o, v, k = w.scan_draw(pool["params"][i], str(pool["band"][i]),
                              pool["probe_k"][i], pool["probe_t"][i])
        outcomes += o
        values.append(v)
        kinds.append(k)
        outcome_offsets.append(len(outcomes))
        value_offsets.append(value_offsets[-1] + len(v))
    return dict(pool, outcomes=np.array(outcomes),
                outcome_offsets=np.array(outcome_offsets),
                values=np.concatenate(values), kinds=np.concatenate(kinds),
                value_offsets=np.array(value_offsets))


def main():
    root = run.ROOT
    w.REFERENCE.mkdir(exist_ok=True)
    (w.REFERENCE / "datasets.json").write_text(
        json.dumps(datasets(root), indent=1, sort_keys=True) + "\n")
    (w.REFERENCE / "spectrum.json").write_text(
        json.dumps(spectrum(), indent=1, sort_keys=True) + "\n")
    np.savez_compressed(w.REFERENCE / "scan.npz", **scan())


if __name__ == "__main__":
    main()
