"""The committed A/B records, each re-derived from its own runs.

`scripts/bench_ab.py` writes `records/BENCH_<N>.json`, a paired benchmark
record, and `scripts/bits_ab.py` writes `records/BITS_<N>.json`, a call-by-
call bit comparison. Every field of a BENCH metric entry must be what
`bench_ab.summarize` derives from that entry's own runs, unit, direction
and bound, so a hand-edited `change_wins` or `verdict` fails here; every
BITS record's counts must add up. A record names the trees it compared by
revision and commit sha, where the script that wrote it took revisions, as
both scripts have from the records numbered 53 on.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_datasets import ROOT, commit_files, load_script

RECORDS = ROOT / "records"
BENCH = sorted(RECORDS.glob("BENCH_*.json"))
BITS = sorted(RECORDS.glob("BITS_*.json"))
# assembled from bench_ab.py's run_once and summarize outside its main (the
# record's `note`), so it names each tree by its commit, not by src_sha256
BY_COMMIT = {"BENCH_25_scan.json": {"parent": "a9cbc42", "change": "89512f9"}}
SHA256 = re.compile("[0-9a-f]{64}")
GIT_SHA = re.compile("[0-9a-f]{40}")
NUMBER = re.compile(r"(?:BENCH|BITS)_(\d+)")
# the first records of the scripts that take revisions
FIRST_NAMED = 53
bench_ab = load_script("bench_ab")


def test_records_lie_in_records_not_the_root():
    # the tests below pass vacuously on an empty or missing records/
    assert len(BENCH) >= 36 and len(BITS) >= 22
    assert not [*ROOT.glob("BENCH_*.json"), *ROOT.glob("BITS_*.json")]


@pytest.mark.parametrize("path", BENCH, ids=lambda path: path.name)
def test_bench_record_rederives_from_its_runs(path):
    record = json.loads(path.read_text())
    pairs = record["pairs"]
    assert len(record["seeds"]) == pairs
    if path.name in BY_COMMIT:
        assert record["trees"] == BY_COMMIT[path.name]
    else:
        for side in bench_ab.SIDES:
            assert SHA256.fullmatch(record["trees"][side]["src_sha256"])
    assert record["workloads"]
    for workload in record["workloads"].values():
        for name, entry in workload["metrics"].items():
            metric = dict(name=name, unit=entry["unit"],
                          better=entry["better"], bound=entry["bound"])
            runs = {side: [{"result": {"metrics": {name: {"value": v}}}}
                           for v in entry[side]["runs"]]
                    for side in bench_ab.SIDES}
            assert all(len(runs[side]) == pairs for side in bench_ab.SIDES)
            assert bench_ab.summarize(metric, runs) == entry, name


@pytest.mark.parametrize("path", BITS, ids=lambda path: path.name)
def test_bits_record_counts_add_up(path):
    record = json.loads(path.read_text())
    per_api = record["per_api"].values()
    assert record["differing_calls"] \
        == sum(api["differing"] for api in per_api) <= record["calls"]
    assert len(record["differing"]) == record["differing_calls"] \
        - sum(api["type_only"] for api in per_api)


@pytest.mark.parametrize("path", BENCH + BITS, ids=lambda path: path.name)
def test_record_names_its_trees(path):
    # a git_sha is a full sha; a record written from revisions, as every
    # record is from FIRST_NAMED on, names both sides by revision and sha
    trees = json.loads(path.read_text()).get("trees", {})
    named = [tree for tree in trees.values() if isinstance(tree, dict)]
    for tree in named:
        assert tree["git_sha"] is None or GIT_SHA.fullmatch(tree["git_sha"])
    if (any("revision" in tree for tree in named)
            or int(NUMBER.match(path.name)[1]) >= FIRST_NAMED):
        assert set(trees) == set(bench_ab.SIDES)
        for tree in trees.values():
            assert tree["revision"] and GIT_SHA.fullmatch(tree["git_sha"])


@pytest.mark.parametrize("name", ["bench_ab", "bits_ab"])
def test_ab_script_refuses_a_revision_that_names_no_commit(
        monkeypatch, tmp_path, capsys, name):
    # the argument parser's exit 2, before any export or run, and no record
    script = load_script(name)
    repo = tmp_path / "repo"
    commit_files(repo, {"BENCHMARK.json": "{}"})

    run, launched = subprocess.run, []

    def logged(argv, **kwargs):
        launched.append(argv)
        return run(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", logged)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        script.main(["HEAD", "no-such-revision", "--number", "0"],
                    repo=repo)
    assert exit_.value.code == 2
    assert "'no-such-revision' names no commit" in capsys.readouterr().err
    assert not (tmp_path / "records").exists()
    # HEAD resolved, the revision after it did not, and nothing else ran
    assert [argv[3:5] for argv in launched] == [["rev-parse", "--verify"]] * 2


@pytest.mark.parametrize("name,kind", [("bench_ab", "BENCH"),
                                       ("bits_ab", "BITS")])
def test_ab_script_refuses_to_overwrite_a_record(
        monkeypatch, tmp_path, capsys, name, kind):
    # an existing records/<kind>_<N>.json is the parser's exit 2: the file
    # keeps its bytes, and no git command or export runs
    script = load_script(name)
    repo = tmp_path / "repo"
    commit_files(repo, {"BENCHMARK.json": "{}"})
    record = tmp_path / "records" / f"{kind}_0.json"
    record.parent.mkdir()
    record.write_bytes(b'{"kept": true}\n')
    launched = []
    monkeypatch.setattr(subprocess, "run",
                        lambda argv, **kwargs: launched.append(argv))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        script.main(["HEAD", "HEAD", "--number", "0"], repo=repo)
    assert exit_.value.code == 2
    assert f"records/{kind}_0.json exists" in capsys.readouterr().err
    assert record.read_bytes() == b'{"kept": true}\n'
    assert launched == []


def test_bits_ab_runs_the_change_call_list_in_both_trees(monkeypatch,
                                                         tmp_path):
    # each side's process has its own src/ and the change export's scripts/
    # (call_list, emit) and tests/ (api.py) on its path, and no path of the
    # checkout that launched it; the emit runs are stubbed
    script = load_script("bits_ab")
    repo = tmp_path / "repo"
    commit_files(repo, {"src/a.py": "x = 1\n"})
    commit_files(repo, {"src/a.py": "x = 2\n"})
    run, paths = subprocess.run, {}

    def emit(argv, **kwargs):
        if argv[0] != sys.executable:  # git and tar
            return run(argv, **kwargs)
        tree = Path(kwargs["cwd"])
        paths[tree] = kwargs["env"]["PYTHONPATH"].split(os.pathsep)
        (tree / "outcomes.json").write_text("{}")

    monkeypatch.setattr(subprocess, "run", emit)
    monkeypatch.chdir(tmp_path)
    assert script.main(["HEAD~1", "HEAD", "--number", "0"], repo=repo) == 0
    scratch = next(iter(paths)).parent
    change = scratch / "change"
    assert paths == {scratch / side: [str(scratch / side / "src"),
                                      str(change / "scripts"),
                                      str(change / "tests")]
                     for side in bench_ab.SIDES}
    assert not [path for tree in paths.values() for path in tree
                if Path(path).is_relative_to(ROOT)]


def test_bits_ab_lists_what_differs_and_counts_the_rest(monkeypatch,
                                                       tmp_path):
    # two stubbed trees' outcomes, compared as main compares them; the
    # record lands under records/ and its counts add up
    script = load_script("bits_ab")

    def ok(value):
        return ["ok", script.encode(value), []]

    # equal; 2 pi apart; float64 against float; on one side; two messages
    parent = {"same #0": ok(1.5), "phase #0": ok(np.array([2 * np.pi, 0.])),
              "typed #0": ok(np.float64(1.0)), "gone #0": ok(0.0),
              "error #0": ["ValueError", "a", []]}
    change = {"same #0": ok(1.5), "phase #0": ok(np.array([0.0, 0.0])),
              "typed #0": ok(1.0), "error #0": ["ValueError", "b", []]}
    outcomes = iter([parent, change])
    monkeypatch.setattr(script, "run_tree",
                        lambda tree, change: next(outcomes))
    monkeypatch.chdir(tmp_path)
    repo = tmp_path / "repo"
    first = commit_files(repo, {"a.txt": "a\n"})
    second = commit_files(repo, {"a.txt": "b\n"})
    assert script.main(["HEAD~1", "HEAD", "--number", "0"], repo=repo) == 0
    path = tmp_path / "records" / "BITS_0.json"
    record = json.loads(path.read_text())
    assert record["trees"] == {
        "parent": {"revision": "HEAD~1", "git_sha": first},
        "change": {"revision": "HEAD", "git_sha": second}}
    assert record["calls"] == 5 and record["differing_calls"] == 4
    assert "same" not in record["per_api"]
    assert record["per_api"]["typed"] == {"differing": 1, "type_only": 1,
                                          "max_abs_diff": None}
    listed = {entry["call"]: entry for entry in record["differing"]}
    assert list(listed) == ["phase #0", "gone #0", "error #0"]
    assert listed["phase #0"]["max_abs_diff"] \
        == pytest.approx([2 * np.pi, 0.0], abs=1e-15)
    assert listed["gone #0"]["change"] == ["missing"]
    assert listed["error #0"]["max_abs_diff"] is None
    assert listed["error #0"]["change"] == ["ValueError", "b", []]
    test_bits_record_counts_add_up(path)
    test_record_names_its_trees(path)
