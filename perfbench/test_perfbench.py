"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_source_tree()

import tracer  # noqa: E402
import workloads  # noqa: E402
from floquet_dqpt import cli, dqpt, model  # noqa: E402


def outputs(wl, ops, trace=None):
    if trace is not None:
        trace.install()
    try:
        return [wl.run(op) for op in ops]
    finally:
        if trace is not None:
            trace.uninstall()


@pytest.fixture
def datasets(tmp_path):
    wl = workloads.Datasets(run.ROOT, 0)
    wl.out = tmp_path
    wl.ops = [op for op in wl.ops if op[0] in ("example1_topo.json",
                                                "example2_fisher.csv")]
    return wl


def test_corrupted_output_byte_counts_as_failure(datasets):
    outs = outputs(datasets, datasets.ops)
    assert run.check_pass(datasets, outs, [])[0] == 0
    outs = outputs(datasets, datasets.ops)
    path = datasets.out / datasets.ops[1][0]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    errors = []
    assert run.check_pass(datasets, outs, errors)[0] == 1
    assert errors == []


def test_perturbed_reference_counts_as_failure():
    wl = workloads.Scan(run.ROOT, 0)
    wl.ops = wl.ops[:2]
    outs = outputs(wl, wl.ops)
    assert run.check_pass(wl, outs, [])[0] == 0
    vlo, vhi = wl.ref["value_offsets"][wl.ops[1]:wl.ops[1] + 2]
    values = wl.ref["values"].copy()
    finite = np.flatnonzero(np.isfinite(values[vlo:vhi])
                            & (wl.ref["kinds"][vlo:vhi] == workloads.FLOAT))
    values[vlo + finite[len(finite) // 2]] += 1e-8
    wl.ref["values"] = values
    assert run.check_pass(wl, outs, [])[0] == 1


def test_perturbed_spectrum_reference_counts_as_failure():
    wl = workloads.Spectrum(run.ROOT, 0)
    op = ("example1", 20)
    spec = wl.run(op)
    assert wl.check(op, spec)[0]
    ref = wl.ref["example1/N20"]
    ref["quasienergies"][0] += 1e-8
    assert not wl.check(op, spec)[0]
    ref["quasienergies"][0] -= 1e-8
    ref["pi_modes"] += 1
    assert not wl.check(op, spec)[0]


def test_oracle_deviation_above_tolerance_counts_as_failure():
    wl = workloads.Oracle(run.ROOT, 0)
    errors = []
    outs = [workloads.ORACLE_TOL * 2, ValueError("unexpected")] \
        + [0.0] * (len(wl.ops) - 2)
    assert run.check_pass(wl, outs, errors)[0] == 2
    assert errors == ["ValueError: unexpected"]


def test_seed_changes_scan_and_oracle_inputs_only():
    for cls, changes in ((workloads.Scan, True), (workloads.Oracle, True),
                         (workloads.Datasets, False),
                         (workloads.Spectrum, False)):
        a, a2, b = (cls(run.ROOT, seed).ops for seed in (1, 1, 2))
        same = [repr(op) for op in a] == [repr(op) for op in b]
        assert [repr(op) for op in a] == [repr(op) for op in a2]
        assert same is not changes, cls.__name__


def test_oracle_draws_cover_strata():
    fracs = sorted(t / (2.0 * p.period)
                   for p, _, t in workloads.oracle_draws(5))
    n = workloads.ORACLE_DRAWS
    assert all(i / n <= f < (i + 1) / n for i, f in enumerate(fracs))


def test_traced_and_untraced_outputs_identical(datasets):
    plain_band_weights = model.band_weights
    t = tracer.Tracer()

    scan = workloads.Scan(run.ROOT, 3)
    ops = scan.ops[:1]
    plain, traced = outputs(scan, ops), outputs(scan, ops, t)
    assert plain[0][0] == traced[0][0]
    assert np.array_equal(plain[0][1], traced[0][1], equal_nan=True)

    oracle = workloads.Oracle(run.ROOT, 3)
    ops = oracle.ops[:2]
    assert outputs(oracle, ops) == outputs(oracle, ops, t)

    files = []
    for trace in (None, t):
        outputs(datasets, datasets.ops, trace)
        files.append([(datasets.out / name).read_bytes()
                      for name, _ in datasets.ops])
    assert files[0] == files[1]

    assert model.band_weights is plain_band_weights
    assert cli.DISPATCH["rate"] is cli.cmd_rate
    assert len(t.bucket) > 0


def test_tracer_self_times_and_kpoints():
    t = tracer.Tracer()
    t.install()
    try:
        with t.span("bench.pass"):
            dqpt.rate_function(workloads.EXAMPLE1, "minus", 0.5, 101)
    finally:
        t.uninstall()
    (stats,) = t.per_pass()
    assert stats["dqpt"][0] == 1 and stats["dqpt"][2] == 101
    assert stats["dynamics.analytic"][2] == 2 * 101
    assert stats["model"][2] == 2 * 101
    pass_s = t.end[0] - t.start[0]
    assert math.isclose(sum(s[1] for s in stats.values()), pass_s,
                        rel_tol=1e-9)


def test_metrics_match_benchmark_json(capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "scan", "--seed", "4",
                         "--seconds", "0.1", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want


def test_fails_without_library_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "scan", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
