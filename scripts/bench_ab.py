#!/usr/bin/env python3
"""Compare two git revisions on the benchmark, in alternating pairs.

Usage:
    python3 scripts/bench_ab.py PARENT CHANGE --number N
        [--pairs P] [--workload NAME ...]

PARENT and CHANGE are revisions of the git repository this script lives in:
a sha, a branch, HEAD~1, or `$(git stash create)` for uncommitted changes
to tracked files (`git add` a new file first; on a clean tree that command
prints nothing, so pass HEAD). A revision that names no commit exits 2
before anything runs. Each side runs in its own `git archive` export in a
temporary directory. For every workload declared in CHANGE's
`BENCHMARK.json`, or for each one named by `--workload` (repeatable), pair
i of P (default 10) runs that file's `command` (`python3 perfbench/run.py`,
as found on `PATH`) with `--trace 0` once in each tree, with seed 2000 + i
and the benchmark's `run_seconds`; the parent runs first in even pairs and
the change first in odd ones. Runs are sequential, in fresh processes. Each
tree's bytecode, which moves `setup_s`, is written by one untimed warm-up
run per workload and only read by the timed runs.

The record, `records/BENCH_<N>.json` under the current directory (made if
missing; an existing one exits 2 before anything runs) and the one file
written there, holds the machine, numpy and BLAS as the runs' metadata line
reports them, with every `MALLOC_*` variable the runs inherit (glibc's
malloc tunables, which move `peak_rss_mb`; `{}` where there is none), the
pair count, per side the revision as given, its commit's `git_sha` and the
tree's `src_sha256` (as the runs report it), and per workload and end-to-end
metric the median and quartiles of each side, every run's value, the pairs
the change won, and its median's change relative to the parent's against the
metric's bound. A gain is shown where the change wins at least nine pairs in
ten and its median beats the parent's by more than the parent's quartile
spread. The verdict is `unresolved` where the parent's quartile spread
exceeds the bound relative to its median and not every change run beats
every parent run; otherwise `within_bound` or `beyond_bound`.
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

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
DEFAULT_PAIRS = 10
FIRST_SEED = 2000
# the warm-up run: the fewest passes the benchmark takes, untimed
WARMUP_SECONDS = 1e-3
BYTECODE = ("each tree a fresh export, its __pycache__ written by one "
            "warm-up run per workload; timed runs read it with "
            "PYTHONDONTWRITEBYTECODE=1")


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


def bytecode_envs() -> tuple:
    """(warm-up, timed) environments: the warm-up writes each tree's
    bytecode, and the timed runs only read it."""
    warm = {k: v for k, v in os.environ.items()
            if k != "PYTHONDONTWRITEBYTECODE"}
    return warm, dict(warm, PYTHONDONTWRITEBYTECODE="1")


def malloc_env(env: dict) -> dict:
    """The MALLOC_* variables of env, by name."""
    return {k: v for k, v in sorted(env.items()) if k.startswith("MALLOC_")}


def export(repo: Path, revisions: dict, into: Path) -> dict:
    """{side: {"revision", "git_sha"}} of the commit that revisions[side]
    names in the git repository `repo`, whose tree `git archive` writes
    into `into / side`, `into` an existing directory. ValueError, before
    anything is written, where a revision names no commit."""
    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args],
                              capture_output=True, check=True).stdout
    trees = {}
    for side, revision in revisions.items():
        try:
            sha = git("rev-parse", "--verify", "--end-of-options",
                      f"{revision}^{{commit}}").decode().strip()
        except subprocess.CalledProcessError:
            raise ValueError(
                f"{revision!r} names no commit of {repo}") from None
        trees[side] = {"revision": revision, "git_sha": sha}
    for side, tree in trees.items():
        subprocess.run(["tar", "-x", "-C", str(into)], check=True, input=git(
            "archive", f"--prefix={side}/", tree["git_sha"]))
    return trees


def record_path(parser, name: str) -> Path:
    """records/<name> if no such file exists yet, else the parser's exit 2."""
    if Path("records", name).exists():
        parser.error(f"records/{name} exists; a record is never overwritten")
    return Path("records", name)


def run_pairs(command: list, trees: dict, workload: str, seeds: list,
              seconds: float, envs: dict) -> dict:
    """Each side's runs of one workload, in pairs, after one untimed warm-up
    run per side that writes its bytecode."""
    for side in SIDES:
        run_once(command, trees[side], workload, FIRST_SEED, WARMUP_SECONDS,
                 envs[0])
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(command, trees[side], workload, seed,
                                       seconds, envs[1]))
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


def main(argv=None, repo: Path = REPO) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="a revision of this repository")
    parser.add_argument("change", help="a revision of this repository")
    parser.add_argument("--number", type=int, required=True,
                        help="N of the record's name, BENCH_<N>.json")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS,
                        help="pairs of runs per workload (default 10)")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default all)")
    args = parser.parse_args(argv)
    if args.pairs < 2:  # quartiles need two runs a side
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    out = record_path(parser, f"BENCH_{args.number}.json")

    with tempfile.TemporaryDirectory() as scratch:
        try:
            names = export(repo, {"parent": args.parent,
                                  "change": args.change}, Path(scratch))
        except ValueError as exc:
            parser.error(str(exc))
        trees = {side: Path(scratch, side) for side in SIDES}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in bench["workloads"]]
        for name in args.workload or ():
            if name not in workloads:
                parser.error(f"unknown workload {name!r}; one of {workloads}")
        seeds = [FIRST_SEED + i for i in range(args.pairs)]
        seconds = bench["run_seconds"]
        record = {"command": [*bench["command"], "--trace", "0"],
                  "seconds": seconds, "pairs": args.pairs, "seeds": seeds,
                  "order": "parent first in even pairs, change first in odd",
                  "bytecode": BYTECODE, "trees": names,
                  "machine": None, "workloads": {}}
        envs = bytecode_envs()
        for workload in args.workload or workloads:
            runs = run_pairs(bench["command"], trees, workload, seeds,
                             seconds, envs)
            meta = runs["change"][0]["meta"]
            record["machine"] = {key: meta[key] for key in
                                 ("cpu_model", "nproc", "python", "numpy",
                                  "blas", "blas_threads")}
            record["machine"]["malloc_env"] = malloc_env(envs[1])
            for side in SIDES:
                names[side]["src_sha256"] = runs[side][0]["meta"]["src_sha256"]
            record["workloads"][workload] = {
                "failed": {side: sum(r["result"]["failed"]
                                     for r in runs[side]) for side in SIDES},
                "metrics": {metric["name"]: summarize(metric, runs)
                            for metric in bench["end_to_end"]}}

    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
