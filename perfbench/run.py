#!/usr/bin/env python3
"""floquet-dqpt benchmark: one workload, end-to-end or per-layer metrics.

Usage:
    python3 perfbench/run.py --workload {datasets,scan,spectrum,oracle}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the library from its
`src/`. One caller drives the workload closed loop in this process: a warm-up
pass, then a fixed number of passes over the workload's operation list (the
number is set from --seconds and the workload's pass time at the seed commit,
so every commit times the same operations). Every operation's output is
checked against the references in `reference/`; a mismatch counts as a
failed operation and never stops the run.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1, the passes alternate between untraced and traced
(the library's public functions wrapped by `tracer.Tracer`), and the last
line holds the per-layer metrics. The line before it is run metadata. Spans are
written to `.perfbench/` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Fixed before numpy is imported. One thread keeps the shared-core timings
# steady; the spectrum's 80x80 matmuls gain nothing from more.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

# What every `fdqpt` invocation pays before any compute.
SETUP_CODE = ("import sys; from floquet_dqpt.cli import main; "
              "sys.exit(main(['topo', '--preset', 'example1']))")
SETUP_RUNS = 7

# The host's shared cores change speed by up to 2x over seconds, for pure
# Python, numpy and BLAS alike. Untraced times are therefore scaled by a
# fixed pure-Python loop timed just before and after each of them, to the
# speed at which that loop takes CALIB_REF_S (about its time on a quiet
# 2-core Xeon). Raw wall times go into the run metadata.
CALIB_LOOPS = 25_000
CALIB_REF_S = 1e-3
# Four passes give every workload at least 20 operation samples, so the tail
# (TAIL_BEYOND samples beyond it) never falls below the median.
MIN_PASSES = 4
MIN_TRACED_ROUNDS = 2
TAIL_BEYOND = 10


def use_source_tree(root: Path = ROOT):
    """Import the library from root/src, never from an installed copy."""
    src = root / "src"
    if not (src / "floquet_dqpt" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library source under {src}")
    sys.path.insert(0, str(src))
    import floquet_dqpt
    if Path(floquet_dqpt.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit("benchmark: floquet_dqpt imported from "
                         f"{floquet_dqpt.__file__}, not from {src}")


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc += i
    return perf_counter() - t0


def scales(calib: list) -> list:
    """Scale per interval between calibrations, to CALIB_REF_S speed."""
    return [2.0 * CALIB_REF_S / (a + b) for a, b in zip(calib, calib[1:])]


def measure_setup(root: Path, expected_sha: str):
    """Fresh `fdqpt topo --preset example1` -> (scaled times, wall, failed)."""
    walls, calib, failed = [], [calibrate()], 0
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              env=child_env(root), capture_output=True,
                              timeout=120)
        walls.append(perf_counter() - t0)
        calib.append(calibrate())
        if (proc.returncode != 0
                or hashlib.sha256(proc.stdout).hexdigest() != expected_sha):
            failed += 1
    return [w * k for w, k in zip(walls, scales(calib))], walls, failed


def run_pass(wl, tracer=None):
    """One pass over wl.ops -> (op wall times, op scales, outputs).

    An untraced pass times the calibration loop between operations, and an
    operation's scale comes from the loop times just before and after it.
    A traced pass is not scaled. Exceptions are outputs.
    """
    walls, outs = [], []
    calib = [] if tracer else [calibrate()]
    for op in wl.ops:
        s = perf_counter()
        try:
            if tracer is None:
                out = wl.run(op)
            else:
                with tracer.span("bench.op"):
                    out = wl.run(op)
        except Exception as exc:  # a failed operation; the run goes on
            out = exc
        walls.append(perf_counter() - s)
        outs.append(out)
        if tracer is None:
            calib.append(calibrate())
    return walls, scales(calib), outs


def check_pass(wl, outs, errors: list):
    """Check one pass's outputs -> (failed count, summed counters)."""
    failed, counters = 0, {}
    for op, out in zip(wl.ops, outs):
        if isinstance(out, Exception):
            ok = False
            errors.append(f"{type(out).__name__}: {out}")
        else:
            ok, extra = wl.check(op, out)
            for key, val in extra.items():
                counters[key] = counters.get(key, 0) + val
        failed += not ok
    return failed, counters


def run_passes(wl, n: int, errors: list):
    """n untraced passes -> ([(op walls, op scales)] per pass, failed)."""
    passes, failed = [], 0
    for _ in range(n):
        walls, ks, outs = run_pass(wl)
        passes.append((walls, ks))
        failed += check_pass(wl, outs, errors)[0]
    return passes, failed


def run_traced_passes(wl, n: int, errors: list, tracer):
    """n rounds of an untraced pass then a traced one, so that drift in
    the machine's speed does not show up as tracing overhead.
    -> (untraced wall times, traced wall times, failed, counters)"""
    untraced, traced, failed, counters = [], [], 0, {}
    for _ in range(n):
        walls, _, outs = run_pass(wl)
        untraced.append(sum(walls))
        failed += check_pass(wl, outs, errors)[0]
        tracer.install()
        try:
            with tracer.span("bench.pass"):
                walls, _, outs = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(walls))
        f, counters = check_pass(wl, outs, errors)
        failed += f
    return untraced, traced, failed, counters


def tail(latencies: list):
    """Highest percentile with TAIL_BEYOND samples beyond it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(per_pass: list, counters: dict, traced_s: list,
                  untraced_s: list) -> dict:
    """Per-layer metrics: medians over traced passes, counts per pass."""
    def med(bucket, field):
        return statistics.median(p[bucket][field] for p in per_pass)

    m = {}
    for layer in ("model", "dynamics.analytic", "dqpt", "geometry",
                  "topology", "dynamics.oracle", "lattice"):
        m[f"{layer}.calls"] = (med(layer, 0), "count")
        m[f"{layer}.self_s"] = (med(layer, 1), "s")
    for layer in ("model", "dynamics.analytic", "dqpt", "geometry",
                  "topology"):
        m[f"{layer}.kpoints"] = (med(layer, 2), "count")
    calls = m["geometry.calls"][0]
    m["geometry.guard_ratio"] = (med("geometry", 3) / calls if calls else 0.0,
                                 "ratio")
    m["cli.config_s"] = (med("cli.config", 1), "s")
    m["cli.compute_s"] = (med("cli.compute", 1), "s")
    m["cli.write_s"] = (med("cli.write", 1), "s")
    m["cli.cells"] = (counters.get("cli.cells", 0), "count")
    m["cli.bytes"] = (counters.get("cli.bytes", 0), "B")

    steps = counters.get("dynamics.oracle.rk4_steps", 0)
    oracle_s = m["dynamics.oracle.self_s"][0]
    m["dynamics.oracle.rk4_steps"] = (steps, "count")
    m["dynamics.oracle.steps_per_s"] = (steps / oracle_s if oracle_s else 0.0,
                                        "1/s")
    gflop = counters.get("lattice.gflop", 0.0)
    lattice_s = m["lattice.self_s"][0]
    m["lattice.hamiltonian_builds"] = (
        counters.get("lattice.hamiltonian_builds", 0), "count")
    m["lattice.gflop"] = (gflop, "GFLOP")
    m["lattice.gflop_per_s"] = (gflop / lattice_s if lattice_s else 0.0,
                                "GFLOP/s")

    m["trace.pass_s"] = (statistics.median(traced_s), "s")
    m["trace.overhead_s"] = (statistics.median(
        t - u for t, u in zip(traced_s, untraced_s)), "s")
    m["trace.unattributed_s"] = (med("bench.pass", 1) + med("bench.op", 1),
                                 "s")
    m["trace.spans"] = (statistics.median(sum(s[0] for s in p.values())
                                          for p in per_pass),
                        "count")
    return m


def metadata(root: Path, args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    src = hashlib.sha256()
    for path in sorted((root / "src" / "floquet_dqpt").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": sha, "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "loop": "closed, one caller"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("datasets", "scan", "spectrum", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    use_source_tree(ROOT)
    import workloads
    from tracer import Tracer

    setup_ref = json.loads((workloads.REFERENCE / "datasets.json")
                           .read_text())["setup_stdout_sha256"]
    setup, setup_walls, failed = measure_setup(ROOT, setup_ref)
    attempted = SETUP_RUNS

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    errors = []
    failed += run_passes(wl, 1, errors)[1]  # warm-up
    if args.trace:
        n = max(MIN_TRACED_ROUNDS,
                round(args.seconds / 2 / wl.nominal_pass_s))
        tracer = Tracer()
        untraced, traced, f, counters = run_traced_passes(wl, n, errors,
                                                          tracer)
    else:
        n = max(MIN_PASSES, round(args.seconds / wl.nominal_pass_s))
        passes, f = run_passes(wl, n, errors)
    failed += f
    attempted += len(wl.ops) * (1 + n * (1 + args.trace))

    meta = metadata(ROOT, args)
    meta.update(passes=n, ops_per_pass=len(wl.ops),
                fail_ratio=failed / attempted, errors=errors[:5])
    if args.trace:
        per_pass = tracer.per_pass()
        metrics = layer_metrics(per_pass, counters, traced, untraced)
        meta["trace_accounted_share"] = sum(
            statistics.median(p[bucket][1] for p in per_pass)
            for bucket in per_pass[0]) / metrics["trace.pass_s"][0]
        meta["computed_counters"] = [
            "cli.cells", "cli.bytes", "*.kpoints",
            "dynamics.oracle.rk4_steps", "lattice.hamiltonian_builds",
            "lattice.gflop"]
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        np.savez(out / f"spans-{args.workload}-seed{args.seed}.npz",
                 **tracer.arrays())
    else:
        latencies = [w * k for walls, ks in passes for w, k in zip(walls, ks)]
        tail_s, tail_pct = tail(latencies)
        meta.update(op_samples=len(latencies), op_tail_percentile=tail_pct,
                    wall_setup_s=statistics.median(setup_walls),
                    wall_pass_s=statistics.median(sum(w) for w, _ in passes),
                    machine_speed=statistics.median(
                        k for _, ks in passes for k in ks))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (statistics.median(
                sum(w * k for w, k in zip(walls, ks)) for walls, ks in passes),
                "s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * tail_s, "ms"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
