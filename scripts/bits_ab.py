#!/usr/bin/env python3
"""Compare two git revisions call by call, bit for bit.

Usage:
    python3 scripts/bits_ab.py PARENT CHANGE --number N

PARENT and CHANGE are git revisions, as `bench_ab.py` takes them and exports
them. Each exported tree runs CHANGE's one fixed, seeded list of calls, in a
fresh process with its own `src/` and CHANGE's `scripts/` (`call_list`,
`emit`) and `tests/` on the path, so CHANGE's `git_sha` names the list: the
rows of the API table `tests/api.py`, expanded by `api.calls`, each row's
function looked up by name in the tree that runs it (so a row whose
parameters a change edits raises TypeError on the parent's side), on

- the drives of `api.DRIVES` (`tests/api.py` names them), at both bands;
  a point API at k = 0, pi and random k and at t = 0, a negative t, t on a
  critical time, just inside and outside its guard window, a random t, t
  at and just below `ModelParams.time_limit`, 1e300 and nan (the RK4
  oracle, whose work grows with |t|, only to 3T and where it refuses t at
  once), a grid API on those k and t and on the t that doubles resolve;
- the drives of `api.CLOSURES`, whose gap closes or nearly closes: the
  drive APIs, and nu at T/4 (and 3T/4);
- every point API that takes a band, with band = "bogus", at a NaN k, the
  gapless k = 0 and a NaN t: the record shows which error comes first;
- a subnormal drive's Bloch vectors and tomography phase, the tomography
  grid on noisy vectors, the open chain at 6 and 20 sites, the phase
  wrappers on seeded phases, and 3000 seeded draws of the
  `tomography_phase_grid` row on the exact Bloch vector, with k = 0 and pi;
- `fdqpt` over a fixed list of argument vectors, in process; `winding` and
  `topo` also on the gapless drive `gapless0`, from a [model] INI file
  written into the exported tree.

Each outcome is the error type and message, or the value's type and bits
(float64 and complex128 as int64 views, so signed zeros and NaN payloads
count), then the category and message of each warning the call raised; for
`fdqpt`, the exit code and the SHA-256 of standard output and standard
error. A name missing from a tree raises AttributeError.

`records/BITS_<N>.json`, under the current directory (made if missing; an
existing one exits 2 first), holds each side's revision as given and its
`git_sha`, the number of calls and, per API, the calls that differ, those
that differ in the value's type alone, and the largest absolute difference,
plain and modulo 2 pi, over values that are arrays of one shape or sequences
of them (else null); then each other differing call with both outcomes, a
value by its type, shape, digest and first values. Nothing else is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from bench_ab import REPO, SIDES, export, record_path

TOMOGRAPHY_DRAWS = 3000
LABELS = {"band": "band", "k": "k", "ks": "k", "t": "t", "ts": "t"}
CLI_VECTORS = (
    "retprob --k-points 7 --t-points 5", "rate --k-points 31 --t-points 9",
    "fisher --k-points 9 --band plus", "fisher --n-lines 1",
    "fisher --n-lines 5 --format json",
    # a block boundary inside a k row; a table of two blocks
    "retprob --k-points 3 --t-points 2000",
    "rate --k-points 31 --t-points 5000",
    "geo --k-points 7 --t-points 5 --format json", "winding --t-points 9",
    "topo", "spectrum --sites 6",
    # refused: the two band-free commands read no --band
    "rate --band plus", "retprob --band plus")
CLI_ERRORS = ("winding --preset example1 --t-max 1e300",
              "rate --preset example1 --k-points 1", "geo --preset nope",
              "topo", "oracle-check --steps 256",
              "winding --config gapless0.ini", "topo --config gapless0.ini")


def time_limit(omega):
    """ModelParams.time_limit, written out here so that the call list does
    not depend on either tree: 2^(52 + ceil(log2 W)), W = 1e-3 T."""
    mantissa, exponent = math.frexp(1e-3 * 2.0 * math.pi / omega)
    try:
        return math.ldexp(math.ceil(2.0 * mantissa), 51 + exponent)
    except OverflowError:
        return math.inf


def call_label(index, row, call, drive):
    """`module.name #index`, then the drive and, where the call has them as
    scalars, its band, k and t."""
    where = {"drive": drive, **{
        key: call[role] for role, key in LABELS.items()
        if role in row.takes and isinstance(call[role], (str, float))}}
    return " ".join([f"{row.module}.{row.name} #{index}", *(
        f"{key}={value if isinstance(value, str) else repr(float(value))}"
        for key, value in where.items() if value is not None)])


def call_list(api):
    """[(label, row, arguments)] in a fixed order: api.API's rows expanded
    by api.calls over the families of the docstring."""
    rng = np.random.default_rng(22)
    rows, calls = api.ROWS, []

    def add(selected, args, ks=(), ts=(), bands=api.BANDS, drive=None):
        for row, _, call in api.calls(args, ks, ts, bands, selected):
            calls.append((call_label(len(calls), row, call, drive), row, call))

    point = [row for row in api.API if row.kind == "point"]
    of_drive = [row for row in api.API
                if row.kind != "point" and "params" in row.takes]
    oracle = rows["propagator_oracle"]
    for drive, p in api.DRIVES.items():
        period, limit = 2.0 * math.pi / p.omega_drive, time_limit(
            p.omega_drive)
        ks = [0.0, math.pi, *rng.uniform(0.0, math.pi, 2).tolist()]
        ts = [0.0, -0.37 * period, 0.5 * period, (0.5 + 4e-4) * period,
              (1.5 + 2e-3) * period, rng.uniform(0.0, 3.0 * period), limit,
              math.nextafter(limit, 0.0), 1e300, math.nan]
        resolved = np.array(ts[:6] + ts[7:8])
        k_col = np.array(ks)[:, None]
        add([row for row in point if row is not oracle], {"params": p}, ks,
            ts, drive=drive)
        # the oracle's work grows with |t|: to 3T, and where it refuses t
        add([oracle], {"params": p}, ks,
            [t for t in ts if not 3.0 * period < abs(t) < limit], drive=drive)
        # a k grid alone is 1-D; with times, a column against their row
        add([row for row in of_drive if "ts" not in row.takes],
            {"params": p, "ks": np.array(ks)}, drive=drive)
        for times in (resolved, np.array(ts)):
            add([row for row in of_drive if "ts" in row.takes],
                {"params": p, "ks": k_col, "ts": times}, drive=drive)
        add([rows["tomography_phase_grid"]], {
            "params": p, "ks": k_col, "ts": resolved,
            "bloch": rng.normal(size=(3, len(ks), resolved.size))},
            drive=drive)
    # an invalid band at a non-finite point and at gapless0's gapless k = 0
    for k, t in ((math.nan, 0.5), (0.0, 0.5), (0.0, math.nan)):
        add([row for row in point if "band" in row.takes],
            {"params": api.DRIVES["gapless0"]}, [k], [t], ["bogus"],
            drive="gapless0")
    tiny = api.SUBNORMAL["1e-310"]
    add([rows["tomography_phase_grid"]], {"params": tiny, "ks": 0.7,
                                          "ts": 1.0}, drive="subnormal")
    add([rows["bloch_vector_grid"]], {"params": tiny, "ks": np.array(
        [0.0, 0.7, math.pi]), "ts": 1.0}, drive="subnormal")
    for drive, p in api.CLOSURES.items():
        w = p.omega_drive
        add([row for row in api.API if row.kind == "drive"], {"params": p},
            drive=drive)
        add([rows["exact_winding"]], {"params": p}, ts=[
            0.5 * math.pi / w, 1.5 * math.pi / w], bands=["minus"],
            drive=drive)
    for name in ("example1", "example2", "nv-plus"):
        for sites in (6, 20):
            add([rows["obc_floquet_spectrum"]],
                {"params": api.DRIVES[name], "sites": sites}, drive=name)
    add([row for row in api.API if "angles" in row.takes],
        {"angles": rng.uniform(-10.0, 10.0, (4, 50))})
    for i in range(TOMOGRAPHY_DRAWS):
        p = api.random_params(rng)
        period = 2.0 * math.pi / p.omega_drive
        k = float(rng.choice([0.0, math.pi, rng.uniform(0.0, math.pi)],
                             p=[0.2, 0.2, 0.6]))
        t = rng.uniform(-3.0 * period, 3.0 * period)
        add([rows["tomography_phase_grid"]], {"params": p, "ks": k, "ts": t},
            drive=f"tomo{i}")
    return calls


def encode(x):
    """A value as JSON: records (their `__match_args__` fields) and
    sequences of non-numbers by parts, everything else as its type, dtype,
    shape and int64 bits."""
    if hasattr(type(x), "__match_args__"):
        return [type(x).__name__] + [encode(getattr(x, name))
                                     for name in type(x).__match_args__]
    if isinstance(x, (list, tuple)) and not all(
            isinstance(v, (int, float, complex, np.number)) for v in x):
        return [type(x).__name__] + [encode(v) for v in x]
    if x is None or isinstance(x, str):
        return repr(x)
    a = np.asarray(x)
    flat = a.reshape(-1)
    if a.dtype.kind in "fc":
        flat = flat.astype(np.complex128 if a.dtype.kind == "c"
                           else np.float64).view(np.int64)
    return {"type": type(x).__name__, "dtype": a.dtype.str,
            "shape": list(a.shape), "bits": flat.astype(np.int64).tolist()}


def outcome(row, args):
    """["ok", value] or [error type, message], then the [category, message]
    of each warning the call raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ["ok", encode(row.call(args))]
        except Exception as exc:  # every error is an outcome to compare
            result = [type(exc).__name__, str(exc)]
    return [*result, [[w.category.__name__, str(w.message)] for w in caught]]


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return ["exit", code, *(hashlib.sha256(s.getvalue().encode()).hexdigest()
                            for s in (out, err)), err.getvalue()[:300]]


def emit(path):
    """Run the call list on the floquet_dqpt and tests/api.py that run_tree
    puts on the path, and write the outcomes."""
    import api
    from floquet_dqpt import cli
    results = {}
    for label, row, args in call_list(api):
        results[label] = outcome(row, args)
    for preset in cli.PRESETS:
        for vector in CLI_VECTORS:
            command, *rest = vector.split()
            argv = [command, "--preset", preset, *rest]
            results["fdqpt " + " ".join(argv)] = run_cli(cli, argv)
    api.model_ini(Path("gapless0.ini"), api.DRIVES["gapless0"])
    for vector in CLI_ERRORS:
        results[f"fdqpt {vector}"] = run_cli(cli, vector.split())
    Path(path).write_text(json.dumps(results))


def values(encoded):
    """float64 leaves of an encoded value, those of a sequence's parts in
    order, or None if it has other parts."""
    if isinstance(encoded, list):
        parts = [values(part) for part in encoded[1:]]
        if not parts or any(part is None for part in parts):
            return None
        return np.concatenate(parts)
    if not isinstance(encoded, dict) or encoded["dtype"][1] not in "fc":
        return None
    return np.array(encoded["bits"], dtype=np.int64).view(np.float64)


def difference(a, b):
    """(plain, modulo 2 pi) largest |a - b| of two values of one shape."""
    if a[0] != "ok" or b[0] != "ok":
        return None
    x, y = values(a[1]), values(b[1])
    if x is None or y is None or x.shape != y.shape:
        return None
    if not np.array_equal(np.isnan(x), np.isnan(y)):
        return [math.inf, math.inf]
    with np.errstate(invalid="ignore"):
        d = np.where(x == y, 0.0, x - y)  # inf - inf is no difference
    if not np.isfinite(d[~np.isnan(x)]).all():
        return [math.inf, math.inf]
    d = np.nan_to_num(d)
    wrapped = np.abs(np.arctan2(np.sin(d), np.cos(d)))
    return [float(np.abs(d).max(initial=0.0)),
            float(wrapped.max(initial=0.0))]


def type_only(a, b):
    """Whether two outcomes are values with the same bits and warnings and
    types apart."""
    return (a[0] == b[0] == "ok" and isinstance(a[1], dict)
            and isinstance(b[1], dict) and a[2:] == b[2:]
            and {**a[1], "type": None} == {**b[1], "type": None})


def summary(outcome):
    """An outcome as the record lists it: an error as it is, a value as the
    digest of its encoding, its type and shape, and its first values; then
    its warnings."""
    if outcome[0] != "ok":
        return outcome
    value = outcome[1]
    out = {"sha256": hashlib.sha256(
        json.dumps(value).encode()).hexdigest()[:16]}
    if isinstance(value, dict):
        out.update(type=value["type"], shape=value["shape"])
        x = values(value)
        if x is not None:
            out["head"] = x[:4].tolist()
    return ["ok", out, *outcome[2:]]


def run_tree(tree: Path, change: Path) -> dict:
    """The outcomes of the call list of export `change`, run in `tree`."""
    path = [tree / "src", change / "scripts", change / "tests"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", "import bits_ab; bits_ab.emit("
                    "'outcomes.json')"], cwd=tree, env=env, check=True)
    return json.loads((tree / "outcomes.json").read_text())


def main(argv=None, repo: Path = REPO) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="a revision of this repository")
    parser.add_argument("change", help="a revision of this repository")
    parser.add_argument("--number", type=int, required=True,
                        help="N of the record's name, BITS_<N>.json")
    args = parser.parse_args(argv)
    out = record_path(parser, f"BITS_{args.number}.json")
    with tempfile.TemporaryDirectory() as scratch:
        try:
            trees = export(repo, {"parent": args.parent,
                                  "change": args.change}, Path(scratch))
        except ValueError as exc:
            parser.error(str(exc))
        runs = {side: run_tree(Path(scratch, side), Path(scratch, "change"))
                for side in SIDES}
    labels = list(dict.fromkeys([*runs["parent"], *runs["change"]]))
    differing, per_api = [], {}
    for label in labels:
        a, b = (runs[side].get(label, ["missing"]) for side in SIDES)
        if a == b:
            continue
        api = per_api.setdefault(label.split(" #")[0], {
            "differing": 0, "type_only": 0, "max_abs_diff": None})
        api["differing"] += 1
        if type_only(a, b):
            api["type_only"] += 1
            continue
        diff = difference(a, b)
        if diff:
            api["max_abs_diff"] = [max(x, y) for x, y in
                                   zip(api["max_abs_diff"] or diff, diff)]
        differing.append({"call": label, "parent": summary(a),
                          "change": summary(b), "max_abs_diff": diff})
    record = {"trees": trees, "calls": len(labels),
              "differing_calls": sum(a["differing"] for a in per_api.values()),
              "per_api": per_api, "differing": differing}
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{out}: {record['differing_calls']} of {len(labels)} calls "
          "differ", json.dumps(per_api))
    return 0


if __name__ == "__main__":
    sys.exit(main())
