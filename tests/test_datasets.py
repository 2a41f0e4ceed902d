"""Dataset bytes: golden hashes and the writer's edge cases.

`golden_datasets.json` holds the SHA-256 of every bundled dataset as the
per-cell serializer wrote it; the columnar writer must reproduce those bytes.
The edge cases compare `write_dataset` with that per-cell reference, kept
here, on cells the bundled datasets never hold.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from floquet_dqpt import _cells, dqpt
from floquet_dqpt.cli import PRESETS, RunConfig, main, write_dataset

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden_datasets.json")
                    .read_text(encoding="utf-8"))["sha256"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_datasets_match_golden_hashes(tmp_path, capsys):
    script = load_script("make_figure_datasets")
    script.main_script(["", str(tmp_path)])
    for cmd in script.GRIDS:
        name, argv = script.dataset("example1", cmd, "json")
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    assert sorted(got) == sorted(GOLDEN)
    assert {name for name in got if got[name] != GOLDEN[name]} == set()


def test_grid_datasets_from_a_fresh_process(tmp_path):
    # the test above runs in-process, after numpy is imported; a fresh
    # `fdqpt` binds numpy unrun and runs it at the first array, and must
    # write the same bytes
    script = load_script("make_figure_datasets")
    runs = [script.dataset("example1", cmd)
            for cmd in (*script.GRIDS, "spectrum")]
    code = ("import json, sys\nfrom floquet_dqpt.cli import main\n"
            "assert 'numpy._core' not in sys.modules\n"
            "for name, argv in json.loads(sys.argv[1]):\n"
            "    assert main([*argv, '--out', name]) == 0, argv\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                   cwd=tmp_path, env=env, check=True)
    for name, _ in runs:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == GOLDEN[name], name


# -- the per-cell reference serializer ---------------------------------------

def ref_num(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def ref_text(fmt, header, rows) -> str:
    rows = [[v if isinstance(v, str) else ref_num(v) for v in row]
            for row in rows]
    if fmt == "csv":
        return "\n".join([",".join(header)]
                         + [",".join(r) for r in rows]) + "\n"
    return json.dumps({"columns": list(header), "rows": rows},
                      indent=None, separators=(",", ":")) + "\n"


def written(tmp_path, fmt, header, columns) -> str:
    out = tmp_path / f"d.{fmt}"
    write_dataset(RunConfig(params=PRESETS["example1"], fmt=fmt,
                            out=str(out)), header, columns)
    return out.read_text(encoding="utf-8")


SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
           2.2250738585072014e-308, 1e300, -math.pi, 1.0, 0.1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_table_edge_cases(tmp_path, monkeypatch, fmt):
    n = len(SPECIAL)
    ints = np.arange(-3, n - 3)
    flags = np.arange(n) % 2 == 0
    floats32 = np.linspace(0.1, 1.0, n, dtype=np.float32)
    header = ("i", "x", "flag", "y")
    rows = [[str(i), x, str(int(f)), y]
            for i, x, f, y in zip(ints.tolist(), SPECIAL, flags, floats32)]
    # the writer's own block size, then block boundaries inside the table
    for block in (_cells.FORMAT_BLOCK, 1, 5):
        monkeypatch.setattr(_cells, "FORMAT_BLOCK", block)
        assert written(tmp_path, fmt, header,
                       (ints, SPECIAL, flags, floats32)) \
            == ref_text(fmt, header, rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_empty_table(tmp_path, fmt):
    header = ("t", "nu", "raw")
    text = written(tmp_path, fmt, header, ([], np.array([], dtype=int), []))
    assert text == ref_text(fmt, header, [])
    assert text == ("t,nu,raw\n" if fmt == "csv"
                    else '{"columns":["t","nu","raw"],"rows":[]}\n')


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_grid_edge_cases(tmp_path, fmt):
    ks = np.array([0.0, 1e-310, math.pi])
    ts = np.array([-0.0, 0.25, 1e20, 6.0])
    values = np.array(SPECIAL).reshape(len(ks), len(ts))
    rows = [[k, t, values[i, j]] for i, k in enumerate(ks)
            for j, t in enumerate(ts)]
    assert written(tmp_path, fmt, ("k", "t", "phase"),
                   (ks[:, None], ts, values)) \
        == ref_text(fmt, ("k", "t", "phase"), rows)


# Axis values at the edges of the writer's exact route: -0, 1e-4 (the
# smallest fixed-notation magnitude) and its predecessor, and 1e17 and above
# (exponent notation).
AXIS_EDGES = [-0.0, 1e-4, float(np.nextafter(1e-4, 0.0)), 1e17, -3e17,
              0.5, 2.5]


@pytest.mark.parametrize("n_k, n_t, block", [(1, 1, None), (7, 6, 1),
                                             (7, 6, 5), (2, 4099, None)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_grid_routes_and_blocks(tmp_path, monkeypatch, fmt, n_k, n_t,
                                       block):
    # rows mix cells of the exact route with cells "%" writes, and block
    # boundaries (every 5 cells, or 4096 for the writer's own size) fall
    # inside k rows; (1, 1) is a one-cell grid
    if block is not None:
        monkeypatch.setattr(_cells, "FORMAT_BLOCK", block)
    ks = np.resize(AXIS_EDGES, n_k)
    ts = np.resize(AXIS_EDGES[::-1], n_t)
    cells = SPECIAL + [0.123, -45.5, 1e16, 9.99e16, 1e17, -1e-5]
    values = np.resize(cells, (n_k, n_t))
    rows = [[k, t, values[i, j]] for i, k in enumerate(ks)
            for j, t in enumerate(ts)]
    assert written(tmp_path, fmt, ("k", "t", "phase"),
                   (ks[:, None], ts, values)) \
        == ref_text(fmt, ("k", "t", "phase"), rows)
    # fisher's shapes: n and t_imag one per line, and k and tau one row
    # that every line shares; here the row is the n_t values of ts
    header = ("n", "k", "tau", "t_imag")
    tau = np.resize(cells[::-1], n_t)
    for n_lines in (1, 5):
        n = np.arange(1, n_lines + 1)[:, None]
        t_imag = np.resize(AXIS_EDGES, (n_lines, 1))
        rows = [[str(i), k, tau[j], t_imag[i - 1, 0]] for i in n[:, 0]
                for j, k in enumerate(ts)]
        assert written(tmp_path, fmt, header, (n, ts, tau, t_imag)) \
            == ref_text(fmt, header, rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fisher_infinities_match_reference(tmp_path, fmt):
    # tau is -inf at k = 0 and pi (h_xy = 0); every line repeats the k grid
    # and tau, and one line is a table of a single (1, k) row
    out = tmp_path / f"f.{fmt}"
    ks = np.linspace(0.0, math.pi, 5)  # the k grid of --k-points 5
    for n_lines in (1, 2, 5):
        assert main(["fisher", "--preset", "example1", "--k-points", "5",
                     "--n-lines", str(n_lines), "--format", fmt,
                     "--out", str(out)]) == 0
        lines = dqpt.fisher_lines(PRESETS["example1"], "minus", ks, n_lines)
        rows = [[str(line.n), k, tau, line.t_imag] for line in lines
                for k, tau in zip(ks, line.tau_of_k)]
        assert np.isinf(lines[0].tau_of_k[[0, -1]]).all()
        assert out.read_text(encoding="utf-8") \
            == ref_text(fmt, ("n", "k", "tau", "t_imag"), rows)


def test_bench_ab_launches_the_declared_benchmark_command(monkeypatch):
    # bench_ab.py starts perfbench as BENCHMARK.json declares it (python3
    # on PATH), not through its own interpreter's full path
    script = load_script("bench_ab")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    launched = []

    def run(argv, **kwargs):
        launched.append((argv, kwargs["cwd"], kwargs["env"]))
        return subprocess.CompletedProcess(
            argv, 0, stdout='{"meta": {"seed": 7}}\n{"failed": 0}\n')

    monkeypatch.setattr(script.subprocess, "run", run)
    env = {"PYTHONDONTWRITEBYTECODE": "1"}
    out = script.run_once(command, ROOT, "scan", 7, 0.5, env)
    assert out == {"meta": {"seed": 7}, "result": {"failed": 0}}
    assert launched == [([*command, "--workload", "scan", "--seed", "7",
                          "--seconds", "0.5", "--trace", "0"], ROOT, env)]
