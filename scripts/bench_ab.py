#!/usr/bin/env python3
"""Compare two source trees on the benchmark, in alternating pairs.

Usage:
    python3 scripts/bench_ab.py PARENT CHANGE --number N

PARENT and CHANGE are source trees, each with its own `perfbench/run.py`
and `src/`. For every workload declared in `BENCHMARK.json`, pair i of ten
runs `perfbench/run.py --trace 0` once in each tree with seed 2000 + i and
the benchmark's `run_seconds`; the parent runs first in even pairs and the
change first in odd ones. Runs are sequential, in fresh processes.

The record, `BENCH_<N>.json` in the current directory, holds the machine,
numpy and BLAS as the runs' metadata line reports them, the pair count, and
per workload and end-to-end metric the median and quartiles of each side,
every run's value, the pairs the change won, and its median's change
relative to the parent's against the metric's bound. The verdict is
`unresolved` where the parent's quartile spread exceeds the bound relative
to its median and not every change run beats every parent run; otherwise
`within_bound` or `beyond_bound`. Nothing in either tree is written, apart
from the scratch output the benchmark itself keeps in `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 2000


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree` -> {"meta", "result"} from its last two
    lines of standard output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    meta, result = proc.stdout.splitlines()[-2:]
    return {"meta": json.loads(meta)["meta"], "result": json.loads(result)}


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
               gain_shown=(wins >= 0.9 * PAIRS
                           and sign * (base - new) > spread))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--number", type=int, required=True,
                        help="N of the record's name, BENCH_<N>.json")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seeds = [FIRST_SEED + i for i in range(PAIRS)]
    seconds = bench["run_seconds"]

    record = {"command": "perfbench/run.py --trace 0", "seconds": seconds,
              "pairs": PAIRS, "seeds": seeds,
              "order": "parent first in even pairs, change first in odd",
              "trees": {}, "machine": None, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed,
                                           seconds))
                r = runs[side][-1]["result"]["metrics"]
                print(f"{workload} pair {i} {side}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in r.items()),
                    file=sys.stderr, flush=True)
        meta = runs["change"][0]["meta"]
        record["machine"] = {key: meta[key] for key in
                             ("cpu_model", "nproc", "python", "numpy",
                              "blas", "blas_threads")}
        for side in SIDES:
            m = runs[side][0]["meta"]
            record["trees"][side] = {"git_sha": m["git_sha"],
                                     "src_sha256": m["src_sha256"]}
        record["workloads"][workload] = {
            "failed": {side: sum(r["result"]["failed"] for r in runs[side])
                       for side in SIDES},
            "metrics": {metric["name"]: summarize(metric, runs)
                        for metric in bench["end_to_end"]}}

    out = Path(f"BENCH_{args.number}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
