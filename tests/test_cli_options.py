"""What each subcommand accepts, from flags and from INI config files.

Every argv and every config file either runs (exit 0), is refused with one
`config error:` line (exit 2) or trips a numerical guard (exit 3); `main`
returns for all of them, and only `--help` exits through SystemExit.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from floquet_dqpt.cli import PRESETS, RunConfig, main, make_parser
from floquet_dqpt.model import (DEFAULT_ORACLE_STEPS, MAX_GRID_POINTS,
                                MAX_N_LINES, MAX_SITES, MAX_STEPS)

from api import SUBNORMAL, model_ini

# The flags each subcommand reads, besides --preset and --config. |G|^2
# does not depend on the band, so retprob and rate read no --band.
GRID = {"--k-points", "--t-points", "--t-max", "--out", "--format"}
READS = {
    "retprob": GRID, "rate": GRID,
    "geo": GRID | {"--band"}, "winding": GRID | {"--band"},
    "fisher": {"--band", "--k-points", "--n-lines", "--out", "--format"},
    "topo": {"--out", "--format"},
    "spectrum": {"--sites", "--out", "--format"},
    "oracle-check": {"--steps"},
}
ALL_FLAGS = set().union(*READS.values())


def run(argv):
    """(exit code, stdout, stderr) of one in-process `fdqpt` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_refused(argv, *words):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and err.count("\n") == 1
    assert all(word in err for word in words)


def write_ini(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    sub = make_parser()._subparsers._group_actions[0].choices
    assert set(sub) == set(READS)
    pairs = 0
    for name, parser in sub.items():
        flags = {opt for action in parser._actions
                 for opt in action.option_strings} - {"-h", "--help"}
        assert flags == READS[name] | {"--preset", "--config"}
        pairs += len(flags)
    assert pairs == 49  # every subcommand took all 11 flags: 88 pairs


def test_unread_flags_are_refused():
    for name, reads in READS.items():
        for flag in sorted(ALL_FLAGS - reads):
            assert_refused([name, "--preset", "example1", flag, "7"], flag)
    # no abbreviations either: a flag is spelled one way
    assert_refused(["spectrum", "--preset", "example1", "--s", "7"])


def test_ini_keys_are_flag_names(tmp_path, capsys):
    # format = json used to be ignored (the field was `fmt`); both spellings
    # of a flag name work, and the flags still win over the file
    path = write_ini(tmp_path / "run.ini", "[model]\npreset = example1\n"
                     "[topo]\nformat = json\n[fisher]\nk_points = 5\n"
                     "n-lines = 1\n")
    assert main(["topo", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["wpi"] == 1
    assert main(["topo", "--config", path, "--format", "csv"]) == 0
    assert "wpi = 1" in capsys.readouterr().out
    assert main(["fisher", "--config", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5


@pytest.mark.parametrize("section", ["[retprob]\nkpoints = 99\n",
                                     "[retprob]\nsites = 4\n",
                                     "[rate]\nband = plus\n",
                                     "[spectrum]\nsteps = 7\n",
                                     "[oracle-check]\nout = x.csv\n"])
def test_unknown_ini_keys_are_refused(tmp_path, section):
    path = write_ini(tmp_path / "run.ini",
                     "[model]\npreset = example1\n" + section)
    command = section[1:section.index("]")]
    assert_refused([command, "--config", path], path, "unrecognized")


def test_ini_model_mixing_preset_and_parameters_is_refused(tmp_path):
    # the preset would silently shadow omega_drive
    path = write_ini(tmp_path / "run.ini", "[model]\npreset = example1\n"
                     "omega_drive = 9\n")
    assert_refused(["topo", "--config", path], path, "preset", "omega_drive")


def test_t_max_must_be_finite(tmp_path):
    for value in ("nan", "inf", "-inf", "0"):
        assert_refused(["retprob", "--preset", "example1",
                        f"--t-max={value}"], "t_max")
        path = write_ini(tmp_path / "run.ini", "[model]\npreset = example1\n"
                         f"[geo]\nt-max = {value}\n")
        assert_refused(["geo", "--config", path], "t_max")


def test_drive_whose_period_overflows_is_refused(tmp_path):
    # T = 2 pi / w is inf, so the default t_max of three periods is no time
    # axis: refused with one line, not a traceback or numpy's warnings
    path = model_ini(tmp_path / "run.ini", SUBNORMAL["1e-320"])
    for command in ("retprob", "rate", "geo", "winding"):
        assert_refused([command, "--config", path], "t_max", "inf")


def test_ini_without_section_header_is_refused(tmp_path):
    path = write_ini(tmp_path / "run.ini", "k-points = 5\n[model]\n"
                     "preset = example1\n")
    assert_refused(["retprob", "--config", path], "no section headers")


def test_ini_with_duplicate_key_is_refused(tmp_path):
    path = write_ini(tmp_path / "run.ini", "[model]\npreset = example1\n"
                     "[rate]\nk-points = 5\nk-points = 7\n")
    assert_refused(["rate", "--config", path], "already exists")


def test_ini_values_are_read_literally(tmp_path):
    out = tmp_path / "100%_topo.json"
    path = write_ini(tmp_path / "run.ini", "[model]\npreset = example1\n"
                     f"[topo]\nformat = json\nout = {out}\n")
    assert run(["topo", "--config", path]) == (0, "", "")
    assert json.loads(out.read_text())["has_dqpt"] is True


def test_ini_out_with_nul_is_refused(tmp_path):
    # argv cannot carry a NUL, a file can; open() would raise ValueError
    path = write_ini(tmp_path / "run.ini", "[model]\npreset = example1\n"
                     "[topo]\nout = a\0b.txt\n")
    assert_refused(["topo", "--config", path], "NUL")


def test_oracle_steps_capped():
    # the cap is checked by value; oracle-check never runs at it
    p = PRESETS["example1"]
    assert RunConfig(params=p, steps=MAX_STEPS).steps == MAX_STEPS
    for steps in (MAX_STEPS + 1, 10 ** 8):
        assert_refused(["oracle-check", "--preset", "example1",
                        "--steps", str(steps)], "steps")


def test_each_limit_accepts_its_value_and_refuses_the_next():
    # at its value a limit passes RunConfig, which runs no work; one past
    # it, the command is refused with this line before any work
    assert MAX_STEPS == 16 * DEFAULT_ORACLE_STEPS
    p = PRESETS["example1"]
    for at_limit in ({"k_points": MAX_GRID_POINTS},
                     {"t_points": MAX_GRID_POINTS},
                     {"k_points": 2, "t_points": MAX_GRID_POINTS // 2},
                     {"k_points": MAX_GRID_POINTS // MAX_N_LINES,
                      "n_lines": MAX_N_LINES},
                     {"sites": MAX_SITES}, {"steps": MAX_STEPS}):
        cfg = RunConfig(params=p, **at_limit)
        assert {name: getattr(cfg, name) for name in at_limit} == at_limit
    for argv, message in (
            ("rate --k-points 2000001",
             "k_points must be in [2, 2000000], got 2000001"),
            ("retprob --t-points 2000001",
             "t_points must be in [2, 2000000], got 2000001"),
            ("geo --k-points 3 --t-points 666667",
             "grid of 3 x 666667 values exceeds 2000000"),
            ("fisher --k-points 666667 --n-lines 3",
             "grid of 666667 x 3 values exceeds 2000000"),
            ("fisher --n-lines 101", "n_lines must be in [1, 100], got 101"),
            ("spectrum --sites 1001", "sites must be in [2, 1000], got 1001"),
            ("oracle-check --steps 65537",
             "steps must be <= 65536, got 65537")):
        assert run([*argv.split(), "--preset", "example1"]) \
            == (2, "", f"config error: {message}\n")


def test_main_returns_for_bad_argv_and_help_exits_zero(capsys):
    for argv in ([], ["nope"], ["rate", "--k-points"], ["rate", "stray"],
                 ["rate", "--preset", "example9"],
                 ["rate", "--preset", "example1", "--k-points", "1.5"]):
        assert_refused(argv)
    for argv in (["--help"], ["rate", "--help"], ["oracle-check", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--t-max" in capsys.readouterr().out


# ------------------------------------------------------------------ fuzzing

# In-range values keep every run small: at most 17 x 5 grids, 1024 oracle
# steps (the default 4096 takes a second). The rest are out of range, not
# numbers, or not values of the flag at all.
SMALL = {"--preset": sorted(PRESETS), "--band": ["minus", "plus"],
         "--k-points": ["2", "3", "17"], "--t-points": ["2", "5"],
         "--t-max": ["1", "6", "1e300"], "--n-lines": ["1", "3"],
         "--sites": ["2", "4"], "--steps": ["1024", "2048", "128"],
         "--format": ["csv", "json"]}
GARBAGE = ["nan", "inf", "-1", "-1e9", "0", "1.5", "abc", "", "%s", "1e400",
           str(10 ** 30), str(MAX_GRID_POINTS + 1), str(MAX_STEPS + 1),
           "100", "1001", "nope"]
FLAGS = sorted(SMALL) + ["--kpoints", "--fmt"]
# Model sections: gapped, gapless at k = 0 (exit 3 where a grid reaches it)
# and broken ones.
MODELS = ["omega_drive = 3\ndelta1 = 1\ndelta2 = 1.5\nomega_amp = 1\n",
          "omega_drive = 2\ndelta1 = 1\ndelta2 = 1\nomega_amp = 1\n",
          "omega_drive = -1\ndelta1 = 1\ndelta2 = 1\nomega_amp = 1\n",
          "omega_drive = 3\ndelta1 = nan\n", "omega = 2\n", "delta1 = abc\n",
          "preset = nope\n"] + [f"preset = {name}\n" for name in PRESETS]


@st.composite
def settings_for(draw, command):
    """(flag, value) pairs, three in four read by `command` and in range."""
    reads = sorted(READS.get(command, set()) - {"--out"})
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        if reads and draw(st.integers(0, 3)):
            flag = draw(st.sampled_from(reads))
            pairs.append((flag, draw(st.sampled_from(SMALL[flag]))))
        else:
            flag = draw(st.sampled_from(FLAGS))
            pairs.append((flag, draw(st.sampled_from(SMALL.get(flag, [])
                                                     + GARBAGE))))
    return pairs


def check_outcome(argv):
    try:
        code, _, err = run(argv)
    except SystemExit as exc:
        pytest.fail(f"SystemExit({exc.code}) escaped main for {argv}")
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert err.count("\n") == (code != 0), (argv, err)


def base_argv(command, root: Path, out):
    """`command` with few oracle steps and `out`, relative to `root`."""
    if command == "oracle-check":
        return [command, "--steps", "1024"]
    return [command] + ([] if out is None else ["--out", str(root / out)])


FUZZ = settings(max_examples=100, deadline=5000, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
COMMANDS = st.sampled_from(sorted(READS))
# a file, stdout, a file in a missing directory, a directory
OUTS = st.sampled_from(["o.dat", None, "missing/o.dat", "."])


@FUZZ
@given(command=st.one_of(COMMANDS, st.just("nope")), data=st.data(),
       preset=st.sampled_from(sorted(PRESETS) + [None]),
       out=OUTS)
def test_fuzz_argv(command, data, preset, out):
    with tempfile.TemporaryDirectory() as root:
        argv = base_argv(command, Path(root), out)
        if preset is not None:
            argv += ["--preset", preset]
        for flag, value in data.draw(settings_for(command)):
            argv += [flag, value]
        check_outcome(argv)


@FUZZ
@given(command=COMMANDS, model=st.sampled_from(MODELS), data=st.data(),
       underscores=st.booleans(),
       head=st.sampled_from(["", "", "", "t-max = 1\n"]), out=OUTS)
def test_fuzz_ini(command, model, data, underscores, head, out):
    # a key before the first section header makes the file unreadable; a
    # repeated key too, so each flag is given once
    text = f"{head}[model]\n{model}[{command}]\n"
    for flag, value in dict(data.draw(settings_for(command))).items():
        key = flag[2:].replace("-", "_") if underscores else flag[2:]
        text += f"{key} = {value}\n"
    with tempfile.TemporaryDirectory() as root:
        path = write_ini(Path(root) / "run.ini", text)
        check_outcome(base_argv(command, Path(root), out)
                      + ["--config", path])
