#!/usr/bin/env python3
"""Compare two source trees on the benchmark, in alternating pairs.

Usage:
    python3 scripts/bench_ab.py PARENT CHANGE --number N
        [--pairs P] [--workload NAME ...]

PARENT and CHANGE are source trees, each with its own `perfbench/run.py`
and `src/`. For every workload declared in CHANGE's `BENCHMARK.json`, or
for each one named by `--workload` (repeatable), pair i of P (default 10)
runs that file's `command` (`python3 perfbench/run.py`, as found on
`PATH`) with `--trace 0` once in each tree, with seed 2000 + i and the
benchmark's `run_seconds`; the parent runs first in even pairs and the
change first in odd ones. Runs are sequential, in fresh processes.

The record, `BENCH_<N>.json` in the current directory, holds the machine,
numpy and BLAS as the runs' metadata line reports them, the pair count, and
per workload and end-to-end metric the median and quartiles of each side,
every run's value, the pairs the change won, and its median's change
relative to the parent's against the metric's bound. A gain is shown where
the change wins at least nine pairs in ten and its median beats the
parent's by more than the parent's quartile spread. The verdict is
`unresolved` where the parent's quartile spread exceeds the bound relative
to its median and not every change run beats every parent run; otherwise
`within_bound` or `beyond_bound`. Nothing in either tree is written, apart
from the scratch output the benchmark itself keeps in `.perfbench/`.

Bytecode. A tree's own `__pycache__`, stale, missing or full, moves
`setup_s`: compiling `cli.py` alone takes about 10 ms a launch. So each tree
runs with its own fresh `PYTHONPYCACHEPREFIX`, a temporary directory outside
both trees, filled by one untimed warm-up run per workload that writes
bytecode. The timed runs read that cache with `PYTHONDONTWRITEBYTECODE=1`,
and no `__pycache__` in either tree is read or written. The record says so
under `bytecode`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
DEFAULT_PAIRS = 10
FIRST_SEED = 2000
# the warm-up run: the fewest passes the benchmark takes, untimed
WARMUP_SECONDS = 1e-3
BYTECODE = ("each tree with its own fresh PYTHONPYCACHEPREFIX outside both "
            "trees, filled by one warm-up run per workload; timed runs read "
            "it with PYTHONDONTWRITEBYTECODE=1, no tree's __pycache__ is "
            "read or written")


def run_once(command: list, tree: Path, workload: str, seed: int,
             seconds: float, env: dict) -> dict:
    """One benchmark run of `command` in `tree` -> {"meta", "result"} from
    its last two lines of standard output."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    meta, result = proc.stdout.splitlines()[-2:]
    return {"meta": json.loads(meta)["meta"], "result": json.loads(result)}


def bytecode_envs(caches: Path) -> dict:
    """Per side, (warm-up, timed) environments: the side's own bytecode
    cache under `caches`, written by the warm-up and only read when timed."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    envs = {}
    for side in SIDES:
        warm = dict(env, PYTHONPYCACHEPREFIX=str(caches / side))
        envs[side] = (warm, dict(warm, PYTHONDONTWRITEBYTECODE="1"))
    return envs


def run_pairs(command: list, trees: dict, workload: str, seeds: list,
              seconds: float, envs: dict) -> dict:
    """Each side's runs of one workload, in pairs, after one untimed warm-up
    run per side that fills its bytecode cache."""
    for side in SIDES:
        run_once(command, trees[side], workload, FIRST_SEED, WARMUP_SECONDS,
                 envs[side][0])
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(command, trees[side], workload, seed,
                                       seconds, envs[side][1]))
            r = runs[side][-1]["result"]["metrics"]
            print(f"{workload} pair {i} {side}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in r.items()),
                file=sys.stderr, flush=True)
    return runs


def quartiles(xs: list) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metric: dict, runs: dict) -> dict:
    """Both sides of one end-to-end metric over the pairs."""
    values = {side: [r["result"]["metrics"][metric["name"]]["value"]
                     for r in runs[side]] for side in SIDES}
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (c - p) < 0
               for p, c in zip(values["parent"], values["change"]))
    ties = sum(p == c for p, c in zip(values["parent"], values["change"]))
    out = {"unit": metric["unit"], "better": metric["better"],
           "bound": metric["bound"]}
    for side in SIDES:
        out[side] = dict(quartiles(values[side]), runs=values[side])
    base, new = out["parent"]["median"], out["change"]["median"]
    relative = (new - base) / abs(base) if base else 0.0
    spread = out["parent"]["q3"] - out["parent"]["q1"]
    # in "lower is better" terms: the change's worst run against the
    # parent's best
    beats_every_run = (max(sign * c for c in values["change"])
                       < min(sign * p for p in values["parent"]))
    if spread > metric["bound"] * abs(base) and not beats_every_run:
        verdict = "unresolved"
    elif sign * relative <= metric["bound"]:
        verdict = "within_bound"
    else:
        verdict = "beyond_bound"
    out.update(change_wins=wins, ties=ties, relative_change=relative,
               verdict=verdict,
               gain_shown=(wins >= 0.9 * len(values["parent"])
                           and sign * (base - new) > spread))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--number", type=int, required=True,
                        help="N of the record's name, BENCH_<N>.json")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS,
                        help="pairs of runs per workload (default 10)")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default all)")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.pairs < 2:  # quartiles need two runs a side
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    for name in args.workload or ():
        if name not in names:
            parser.error(f"unknown workload {name!r}; one of {names}")
    seeds = [FIRST_SEED + i for i in range(args.pairs)]
    seconds = bench["run_seconds"]

    record = {"command": [*bench["command"], "--trace", "0"],
              "seconds": seconds,
              "pairs": args.pairs, "seeds": seeds,
              "order": "parent first in even pairs, change first in odd",
              "bytecode": BYTECODE, "trees": {}, "machine": None,
              "workloads": {}}
    with tempfile.TemporaryDirectory() as caches:
        envs = bytecode_envs(Path(caches))
        for workload in args.workload or names:
            runs = run_pairs(bench["command"], trees, workload, seeds,
                             seconds, envs)
            meta = runs["change"][0]["meta"]
            record["machine"] = {key: meta[key] for key in
                                 ("cpu_model", "nproc", "python", "numpy",
                                  "blas", "blas_threads")}
            for side in SIDES:
                m = runs[side][0]["meta"]
                record["trees"][side] = {"git_sha": m["git_sha"],
                                         "src_sha256": m["src_sha256"]}
            record["workloads"][workload] = {
                "failed": {side: sum(r["result"]["failed"]
                                     for r in runs[side]) for side in SIDES},
                "metrics": {metric["name"]: summarize(metric, runs)
                            for metric in bench["end_to_end"]}}

    out = Path(f"BENCH_{args.number}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
