import errno
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from floquet_dqpt import cli, geometry
from floquet_dqpt.cli import PRESETS, RunConfig, main, make_parser
from floquet_dqpt.errors import GridTooCoarse
from floquet_dqpt.dynamics import return_probability_grid
from floquet_dqpt.geometry import geometric_phase_grid
from floquet_dqpt.model import MAX_GRID_POINTS, MAX_N_LINES, ModelParams

from api import CLOSURES, DRIVES, VERTEX, model_ini


def run_cli(args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(["retprob", "--preset", "example1", "--k-points", "11",
                        "--t-points", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_retprob_format_and_values(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(["retprob", "--preset", "example1", "--k-points", "5",
                    "--t-points", "4", "--t-max", "3.0",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "t", "retprob"]
    assert len(rows) == 5 * 4
    ks = [float(r[0]) for r in rows]
    ts = [float(r[1]) for r in rows]
    assert ks == sorted(ks)
    # within each k block, t ascending
    for i in range(0, 20, 4):
        assert ts[i:i + 4] == sorted(ts[i:i + 4])
    # t = 0 column -> all 1
    for r in rows:
        if float(r[1]) == 0.0:
            assert float(r[2]) == pytest.approx(1.0, abs=1e-14)


def test_rate_zero_at_t0_and_periodicity(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli(["rate", "--preset", "example1", "--k-points", "401",
                    "--t-points", "13", "--t-max", "6.0",
                    "--out", str(out)]) == 0
    _, rows = read_csv(out)
    g = {float(r[0]): float(r[1]) for r in rows}
    assert g[0.0] == pytest.approx(0.0, abs=1e-12)
    # matching grid points one period (T = 2) apart
    assert g[0.5] == pytest.approx(g[2.5], abs=1e-8)
    assert g[1.5] == pytest.approx(g[3.5], abs=1e-8)


def test_fisher_output(tmp_path):
    out = tmp_path / "f.csv"
    assert run_cli(["fisher", "--preset", "example1", "--k-points", "201",
                    "--n-lines", "2", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["n", "k", "tau", "t_imag"]
    for r in rows:
        n = int(r[0])
        assert float(r[3]) == pytest.approx((2 * n - 1) * 1.0, abs=1e-15)
    # tau crosses zero at k = pi/3 on each line; serialized infinities parse
    taus = [float(r[2]) for r in rows if r[0] == "1"]
    finite = [x for x in taus if math.isfinite(x)]
    assert min(finite) < 0 < max(finite)
    assert any(math.isinf(x) for x in taus)


def test_fisher_no_sign_change_without_transition(tmp_path):
    out = tmp_path / "f2.csv"
    assert run_cli(["fisher", "--preset", "example2", "--k-points", "201",
                    "--out", str(out)]) == 0
    _, rows = read_csv(out)
    finite = [float(r[2]) for r in rows
              if r[0] == "1" and math.isfinite(float(r[2]))]
    assert all(x < 0 for x in finite) or all(x > 0 for x in finite)


def test_geo_output_and_net_wrap(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli(["geo", "--preset", "example1", "--k-points", "181",
                    "--t-points", "3", "--t-max", "4.0",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "t", "phase"]
    by_t = {}
    for r in rows:
        by_t.setdefault(float(r[1]), []).append((float(r[0]), float(r[2])))
    # t = 0 column -> all zero
    assert all(abs(p) < 1e-12 for _, p in by_t[0.0])
    # between the first and second critical times: one net 2 pi wrap in k
    phases = np.array([p for _, p in sorted(by_t[2.0])])
    steps = np.angle(np.exp(1j * np.diff(phases)))
    assert round(float(steps.sum() / (2 * math.pi))) == 1


def test_winding_output_with_guard_gaps(tmp_path):
    out = tmp_path / "w.csv"
    assert run_cli(["winding", "--preset", "example1", "--t-points", "13",
                    "--t-max", "6.0", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "nu", "raw"]
    got = {float(r[0]): int(r[1]) for r in rows}
    # grid points at the critical times 1, 3, 5 are emitted as gaps
    assert set(got) == {0.0, 0.5, 1.5, 2.0, 2.5, 3.5, 4.0, 4.5, 5.5, 6.0}
    assert got[0.5] == 0 and got[1.5] == 1 and got[3.5] == 2 and got[5.5] == 3


def test_winding_grid_grows_with_t(tmp_path):
    # the 401-point grid resolves example1 up to about t = 40 (at t = 50,
    # (w t/2)<sz> moves 1.95 rad between adjacent k samples); past that nu
    # still comes from the closed form, and raw is nan
    p = PRESETS["example1"]
    with pytest.raises(GridTooCoarse):
        geometry.winding_number(p, "minus", 60.0, 401)
    out = tmp_path / "w.csv"
    assert run_cli(["winding", "--preset", "example1", "--t-max", "60",
                    "--t-points", "7", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [(float(r[0]), int(r[1])) for r in rows] \
        == [(10.0 * i, 5 * i) for i in range(7)]
    assert [r[2] for r in rows[5:]] == ["nan", "nan"]
    assert all(abs(float(r[2]) - int(r[1])) < 1e-9 for r in rows[:5])


def test_winding_raw_disagreeing_with_closed_form(monkeypatch, capsys):
    # a finite raw that rounds to another integer than nu is a guard error
    exact = geometry.exact_winding_grid
    monkeypatch.setattr(geometry, "exact_winding_grid",
                        lambda *args: exact(*args) + 1)
    assert run_cli(["winding", "--preset", "example1", "--t-points", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: WindingMismatch")
    assert err.count("\n") == 1


def test_winding_refuses_times_doubles_cannot_resolve(capsys):
    # near 1e16 doubles are 2 apart, so t = 1e16 cannot be told from its
    # nearest critical time 1e16 - 1: a guard error, not a dropped row
    for t_max in ("1e16", "1e300"):
        assert run_cli(["winding", "--preset", "example1", "--t-max", t_max,
                        "--t-points", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical guard: TimeUnresolved")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["retprob", "rate", "geo"])
def test_grid_commands_refuse_times_doubles_cannot_resolve(command, capsys):
    # past t = 2^44 doubles are spaced 1e-3 T or wider for T = 2, and at
    # 1e17 w t is rounded by up to 32 rad: refused before any work, with or
    # without critical times
    below = repr(math.nextafter(2.0 ** 44, 0.0))
    for preset in ("example1", "example2"):
        for t_max, code in (("1e9", 0), (below, 0), (str(2.0 ** 44), 3),
                            ("1e17", 3), ("1e300", 3)):
            assert run_cli([command, "--preset", preset, "--t-max", t_max,
                            "--t-points", "2", "--k-points", "2"]) == code
            captured = capsys.readouterr()
            if code == 0:
                assert captured.err == ""
                continue
            assert captured.out == ""
            assert captured.err.startswith("numerical guard: TimeUnresolved")
            assert captured.err.count("\n") == 1


def test_failed_write_keeps_earlier_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.csv"
    args = ["retprob", "--preset", "example1", "--t-points", "4",
            "--out", str(out)]
    assert run_cli(args + ["--k-points", "5"]) == 0
    before = out.read_bytes()

    class HalfWriter:
        # writes half the text, then fails like a full disk
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open",
                        lambda *args, **kw: HalfWriter(open(*args, **kw)),
                        raising=False)
    assert run_cli(args + ["--k-points", "7"]) == 2
    assert capsys.readouterr().err.startswith("output error:")
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["r.csv"]


def test_output_error_names_the_out_path(tmp_path, capsys):
    # not the temporary sibling the file is written to first
    out = tmp_path / "missing" / "r.csv"
    assert run_cli(["topo", "--preset", "example1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("output error: [Errno 2] ") and repr(str(out)) in err
    assert ".tmp" not in err
    assert os.listdir(tmp_path) == []


def test_output_error_without_a_filename_names_the_out_path(
        tmp_path, capsys, monkeypatch):
    # a full disk: the OSError a write raises carries no filename
    class FullDisk:
        def __init__(self, path, mode):
            builtin_open(path, mode).close()

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    builtin_open = open
    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    out = tmp_path / "x.txt"
    assert run_cli(["topo", "--preset", "example1", "--out", str(out)]) == 2
    full = os.strerror(errno.ENOSPC)
    assert capsys.readouterr().err == (
        f"output error: [Errno 28] {full}: {str(out)!r}\n")
    assert os.listdir(tmp_path) == []


def test_topo_report_text_and_json(tmp_path, capsys):
    assert run_cli(["topo", "--preset", "example1"]) == 0
    text = capsys.readouterr().out
    assert "wpi = 1" in text and "has_dqpt = True" in text

    out = tmp_path / "t.json"
    assert run_cli(["topo", "--preset", "example2", "--format", "json",
                    "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["has_dqpt"] is False and rep["wpi"] == 0
    assert rep["k_c"] is None and rep["critical_times"] == []


def test_topo_boundary_case_via_config_file(tmp_path, capsys):
    # delta2 = omega with delta1 != 0: non-strict inequality, k_c = pi/2
    cfg = model_ini(tmp_path / "run.ini", ModelParams(3.0, 1.0, 3.0, 1.0))
    assert run_cli(["topo", "--config", cfg, "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["has_dqpt"] is True
    assert rep["k_c"] == pytest.approx(math.pi / 2, abs=1e-12)


def test_spectrum_output(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["spectrum", "--preset", "example1", "--sites", "16",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["index", "quasienergy", "edge_weight", "pi_mode"]
    assert len(rows) == 32
    eps = [float(r[1]) for r in rows]
    assert eps == sorted(eps)
    assert all(r[3] in ("0", "1") for r in rows)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\npreset = example1\n\n[retprob]\n"
                   "k-points = 5\nt-points = 4\nt-max = 3.0\n",
                   encoding="utf-8")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["retprob", "--config", str(cfg), "--out", str(a)]) == 0
    # same settings given purely by flags: identical dataset
    assert run_cli(["retprob", "--preset", "example1", "--k-points", "5",
                    "--t-points", "4", "--t-max", "3.0",
                    "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # flag wins over file
    c = tmp_path / "c.csv"
    assert run_cli(["retprob", "--config", str(cfg), "--k-points", "3",
                    "--out", str(c)]) == 0
    _, rows = read_csv(c)
    assert len(rows) == 3 * 4


def test_exit_codes(tmp_path, capsys):
    # 2: configuration problems
    assert run_cli(["rate", "--preset", "example1", "--k-points", "1"]) == 2
    assert run_cli(["rate"]) == 2
    assert run_cli(["rate", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\npreset = nope\n", encoding="utf-8")
    assert run_cli(["rate", "--config", str(bad)]) == 2
    for sites in ("1", "1001"):
        assert run_cli(["spectrum", "--preset", "example1",
                        "--sites", sites]) == 2
    capsys.readouterr()
    # 2: resource limits, refused before any grid is built; the limits
    # themselves are checked by value, without running at them
    p = PRESETS["example1"]
    assert RunConfig(params=p, k_points=MAX_GRID_POINTS // 241,
                     t_points=241).k_points == MAX_GRID_POINTS // 241
    assert RunConfig(params=p, n_lines=MAX_N_LINES).n_lines == MAX_N_LINES
    assert 2001 * 241 <= MAX_GRID_POINTS  # the largest bundled grid
    for cmd in ("retprob", "rate", "geo", "winding"):
        assert run_cli([cmd, "--preset", "example1", "--t-points", "241",
                        "--k-points", str(MAX_GRID_POINTS // 241 + 1)]) == 2
        assert run_cli([cmd, "--preset", "example1", "--k-points", "2",
                        "--t-points", str(10 ** 30)]) == 2
    # fisher holds n_lines x k_points values and reads no t grid
    assert run_cli(["fisher", "--preset", "example1", "--n-lines", "100",
                    "--k-points", "20001"]) == 2
    assert run_cli(["fisher", "--preset", "example1", "--k-points", "10001",
                    "--out", str(tmp_path / "fisher.csv")]) == 0
    for n_lines in ("0", "-1", str(MAX_N_LINES + 1), str(10 ** 30)):
        assert run_cli(["fisher", "--preset", "example1",
                        "--n-lines", n_lines]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(line.startswith("config error:")
               for line in captured.err.splitlines())
    # 2: unwritable output path, reported on one line
    for cmd in (["spectrum", "--sites", "4"], ["topo"]):
        for out in (tmp_path / "missing" / "a.csv", tmp_path):
            assert run_cli(cmd + ["--preset", "example1",
                                  "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("output error:") and err.count("\n") == 1
    # 3: numerical guard tripped (gap closes at k = 0 for these parameters)
    gapless = model_ini(tmp_path / "gapless.ini", DRIVES["gapless0"])
    assert run_cli(["winding", "--config", gapless, "--t-max", "2.0"]) == 3
    capsys.readouterr()
    # 3: Omega = 0 closes the gap at the interior k_c, between k samples
    interior = model_ini(tmp_path / "interior.ini",
                         ModelParams(2.0, 1.0, 1.5, 0.0))
    assert run_cli(["winding", "--config", interior]) == 3
    assert "GaplessPoint" in capsys.readouterr().err
    # 3: delta1 = 0 with omega = delta2 keeps its own error in winding
    degenerate = model_ini(tmp_path / "degenerate.ini", CLOSURES["degenerate"])
    assert run_cli(["winding", "--config", degenerate]) == 3
    err = capsys.readouterr().err
    assert "DegenerateDelta1" in err and err.count("\n") == 1
    # where its 401-point k grid cannot resolve t, winding prints the
    # closed-form nu with raw = nan
    assert run_cli(["winding", "--preset", "example1", "--t-max", "1e9",
                    "--t-points", "13"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert [int(r[1]) for r in rows] \
        == [round(float(r[0]) / 2.0) for r in rows]
    assert rows[0] == ["0", "0", "0"]
    assert all(r[2] == "nan" for r in rows[1:])
    assert len(rows) == 13


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_grid_kernels_broadcast_bit_identical(preset):
    # retprob and geo evaluate one (k, t) broadcast; their bytes equal the
    # per-k and per-t evaluations only if the kernels agree bit for bit
    # (default CLI grids: 181 k points, 241 t points over three periods)
    p = PRESETS[preset]
    ks = np.linspace(0.0, math.pi, 181)
    ts = np.linspace(0.0, 3.0 * p.period, 241)
    kernels = [return_probability_grid] + [
        lambda p, k, t, band=band: geometric_phase_grid(p, band, k, t)
        for band in ("minus", "plus")]
    for kernel in kernels:
        grid = kernel(p, ks[:, None], ts)
        per_t = np.stack([kernel(p, ks, t) for t in ts], axis=1)
        per_k = np.stack([kernel(p, k, ts) for k in ks])
        assert np.array_equal(grid, per_t, equal_nan=True)
        assert np.array_equal(grid, per_k, equal_nan=True)


def test_oracle_check_pass_and_step_guard(capsys):
    assert run_cli(["oracle-check", "--preset", "example1"]) == 0
    out = capsys.readouterr().out
    deviation = out.split("max_deviation = ")[1].splitlines()[0]
    assert float(deviation) < 1e-7
    # both numbers are "%.17g" of a double
    assert out == (f"draws = 20\nmax_deviation = "
                   f"{'%.17g' % float(deviation)}\n"
                   f"tolerance = 9.9999999999999995e-08\nstatus = pass\n")
    # oracle-check draws its own parameters, so it needs no model
    assert run_cli(["oracle-check"]) == 0
    assert capsys.readouterr().out == out
    assert run_cli(["oracle-check", "--preset", "example1",
                    "--steps", "128"]) == 3


def test_oracle_check_skips_a_closed_gap(monkeypatch, capsys):
    # a draw whose gap is at most 0.01 is skipped: where the first draw
    # reads a closed gap, 20 others are still checked, and pass
    fields, checked = [], []
    field, oracle = cli.normal_field, cli.dynamics.propagator_oracle

    def closed_first(p, k):
        fields.append(p)
        h_xy, h_z, dz, half_gap = field(p, k)
        return h_xy, h_z, dz, 0.0 if len(fields) == 1 else half_gap

    def counted(p, *args):
        checked.append(p)
        return oracle(p, *args)

    monkeypatch.setattr(cli, "normal_field", closed_first)
    monkeypatch.setattr(cli.dynamics, "propagator_oracle", counted)
    assert run_cli(["oracle-check"]) == 0
    assert len(checked) == 20 and fields[0] not in checked
    assert capsys.readouterr().out.startswith("draws = 20\n")


def test_fdqpt_topo_and_winding_exit_together(tmp_path, capsys):
    # one gap rule: a drive whose gap sits between 1e-9 and 1e-8 of its
    # scale answers in both; below 1e-9, where the gap closes at k = 0, pi
    # or the interior vertex, and where delta1 = 0 with omega = delta2,
    # both exit 3 with the same guard line: winding refuses before any t
    def run(command, params):
        ini = model_ini(tmp_path / "drive.ini", params)
        return run_cli([command, "--config", ini]), capsys.readouterr()

    code, captured = run("topo", CLOSURES["floor+"])
    assert code == 0 and captured.err == ""
    assert "wpi = 1\n" in captured.out and "has_dqpt = True\n" in captured.out
    assert run("winding", CLOSURES["floor+"])[0] == 0
    for params, error in ((CLOSURES["floor-"], "GaplessPoint"),
                          (DRIVES["gapless0"], "GaplessPoint"),
                          (ModelParams(2.0, -1.0, 1.0, 1.0), "GaplessPoint"),
                          (VERTEX, "GaplessPoint"),
                          (CLOSURES["degenerate"], "DegenerateDelta1")):
        (code_t, topo), (code_w, winding) = (run(command, params)
                                             for command in ("topo", "winding"))
        assert code_t == code_w == 3 and topo.out == winding.out == ""
        assert topo.err == winding.err
        assert topo.err.startswith(f"numerical guard: {error}: ")
        assert topo.err.count("\n") == 1


def fresh_python(code, *args, **kwargs):
    """`python -c code args` in a fresh process that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, **kwargs)


def test_parser_built_once_and_not_at_import():
    assert make_parser() is make_parser()
    code = ("import floquet_dqpt.cli as c; "
            "print(c.make_parser.cache_info().currsize)")
    assert fresh_python(code, check=True, text=True).stdout == "0\n"


def test_import_loads_only_the_standard_library_and_numpy():
    # keeps startup flat: a fresh `import floquet_dqpt.cli` loads nothing
    # but standard-library modules, numpy and the package, and neither
    # decimal nor fractions; numpy is bound but not run, so that commands
    # without arrays never pay its import
    code = ("import sys; before = set(sys.modules); "
            "import floquet_dqpt.cli; "
            "print(*sorted(set(sys.modules) - before))")
    loaded = fresh_python(code, check=True, text=True).stdout.split()
    assert "floquet_dqpt.cli" in loaded
    tops = {name.split(".")[0] for name in loaded}
    assert tops - sys.stdlib_module_names == {"numpy", "floquet_dqpt"}
    assert not {"decimal", "fractions"} & tops
    assert not [name for name in loaded if name.startswith("numpy.")]
    # a numpy imported first is the one every module that binds it uses
    code = ("import sys, numpy; from floquet_dqpt import (_cells, cli, "
            "dqpt, dynamics, geometry, lattice, model); print(all(m.np is "
            "numpy is sys.modules['numpy'] for m in (_cells, cli, dqpt, "
            "dynamics, geometry, lattice, model)))")
    assert fresh_python(code, check=True, text=True).stdout == "True\n"


# `fdqpt ARGS` in a fresh process, whose last stderr line lists the modules
# it loaded past `import sys`
FRESH_LOADS = ("import sys\nbefore = set(sys.modules)\n"
               "from floquet_dqpt.cli import main\ntry:\n"
               "    sys.exit(main(sys.argv[1:]))\nfinally:\n"
               "    print(*sorted(set(sys.modules) - before), "
               "file=sys.stderr)\n")


def test_launch_loads_only_the_modules_its_command_runs(tmp_path):
    # topo runs two closed forms: no grid module, no writer, no INI or JSON
    # reader; each of those comes with the first command that needs it
    (tmp_path / "ex1.ini").write_text("[model]\npreset = example1\n",
                                      encoding="utf-8")

    def loaded(*args, code=0):
        run = fresh_python(FRESH_LOADS, *args, cwd=tmp_path, text=True)
        assert run.returncode == code, run.stderr
        return run.stdout, set(run.stderr.splitlines()[-1].split())

    # the records are no dataclasses: no launch below compiles the
    # introspection modules `dataclasses` imports
    introspection = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    _, helped = loaded("--help")
    _, refused = loaded("rate", "--preset", "example1", "--k-points", "1",
                        code=2)
    assert not introspection & (helped | refused)
    # a chain size is refused by the limits in `model`: neither the chain
    # module nor numpy's core is loaded
    for sites in ("1001", "1"):
        _, refused = loaded("spectrum", "--preset", "example1",
                            "--sites", sites, code=2)
        assert "floquet_dqpt.lattice" not in refused
        assert not [name for name in refused if name.startswith("numpy.")]

    text, topo = loaded("topo", "--preset", "example1")
    unused = {"floquet_dqpt.geometry", "floquet_dqpt.lattice",
              "floquet_dqpt._cells", "configparser", "json"}
    assert "floquet_dqpt.topology" in topo and not unused & topo
    _, as_json = loaded("topo", "--preset", "example1", "--format", "json")
    assert {n.split(".")[0].lstrip("_") for n in as_json - topo} == {"json"}
    assert topo <= as_json
    from_ini, with_ini = loaded("topo", "--config", "ex1.ini")
    assert from_ini == text and with_ini - topo == {"configparser"}
    assert topo <= with_ini
    assert not introspection & (topo | as_json | with_ini)
    _, rate = loaded("rate", "--preset", "example1", "--k-points", "3",
                     "--t-points", "3")
    assert "floquet_dqpt._cells" in rate
    assert not {"floquet_dqpt.geometry", "floquet_dqpt.lattice"} & rate


@pytest.mark.parametrize("hide", [
    "sys.modules['numpy'] = None",
    "sys.path[:] = [p for p in sys.path "
    "if not os.path.isdir(os.path.join(p or '.', 'numpy'))]"])
def test_missing_numpy_fails_at_import_as_import_numpy_does(hide):
    # blocked in sys.modules, or absent from the path: `import floquet_dqpt`
    # raises the ModuleNotFoundError `import numpy` raises
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (f"import os, sys\n{hide}\nsys.path.insert(0, sys.argv[1])\n"
            "for name in ('numpy', 'floquet_dqpt'):\n"
            "    try:\n        __import__(name)\n"
            "    except ModuleNotFoundError as exc:\n"
            "        print(exc.name, exc)\n")
    lines = fresh_python(code, src, check=True, text=True).stdout.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert lines[0].startswith("numpy ")


# The package's public names: its re-exports and the modules they come from.
PACKAGE_ALL = [
    "ChiralInvariants", "CriticalSet", "FisherLine", "FloquetSpectrum",
    "ModelParams", "ReturnAmplitude", "chiral_winding_numbers", "dqpt",
    "dqpt_condition", "dynamics", "errors", "exact_winding", "fisher_lines",
    "geometric_phase", "geometry", "lattice", "model", "obc_floquet_spectrum",
    "propagator_analytic", "propagator_oracle", "rate_function",
    "return_amplitude", "topology", "winding_number"]

# In a fresh process: `dir` of the package, README's import line, a star
# import, `__all__`, then each public name as the module that defines it
# holds it (a module name: the module), and `dir` again.
FRESH_PACKAGE = """\
import json, re, sys
import floquet_dqpt as pkg

def public_dir():
    return [n for n in dir(pkg) if not n.startswith("__")]

seen = {"dir_before": public_dir()}
readme = open(sys.argv[1], encoding="utf-8").read()
exec(re.search(r"^from floquet_dqpt import .+$", readme, re.M).group(), {})
star = {}
exec("from floquet_dqpt import *", star)
seen["star"] = sorted(n for n in star if not n.startswith("__"))
seen["all"] = pkg.__all__
homes = {}
for name in pkg.__all__:
    value = getattr(pkg, name)
    home = sys.modules.get(f"floquet_dqpt.{name}")
    if value is not home:
        home = sys.modules[value.__module__]
        assert getattr(home, name) is value, name
    homes[name] = home.__name__
seen["homes"] = homes
seen["dir_after"] = public_dir()
print(json.dumps(seen))
"""


def test_package_names_resolve_to_their_defining_modules():
    # the re-exports are bound on first access: `__all__` and `dir` are what
    # eager imports gave, with no helper of the lazy one, and each name is
    # the object of the module that defines it
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    seen = json.loads(fresh_python(FRESH_PACKAGE, readme, check=True,
                                   text=True).stdout)
    assert seen["all"] == PACKAGE_ALL == seen["star"]
    assert seen["dir_before"] == sorted(["_lazy", "_record", *PACKAGE_ALL])
    assert seen["dir_after"] == seen["dir_before"]
    modules = {"dqpt", "dynamics", "errors", "geometry", "lattice", "model",
               "topology"}
    assert {name for name, home in seen["homes"].items()
            if home == f"floquet_dqpt.{name}"} == modules
    assert all(home.startswith("floquet_dqpt.")
               and home.removeprefix("floquet_dqpt.") in modules
               for home in seen["homes"].values())


# `fdqpt ARGS` in a fresh process, whose last stderr line says whether
# numpy's core ran
FRESH_MAIN = ("import sys\nfrom floquet_dqpt.cli import main\ntry:\n"
              "    sys.exit(main(sys.argv[1:]))\nfinally:\n"
              "    print('numpy ran:', 'numpy._core' in sys.modules, "
              "file=sys.stderr)\n")


@pytest.mark.parametrize("args, exit_code", [
    (["topo", "--preset", "example1"], 0),
    (["topo", "--preset", "example1", "--format", "json"], 0),
    (["--help"], 0),
    (["rate", "--preset", "example1", "--k-points", "1"], 2),
    (["spectrum", "--preset", "example1", "--sites", "1001"], 2),
    (["topo", "--config", "degenerate.ini"], 3)],
    ids=["topo", "topo-json", "help", "refused-k-points", "refused-sites",
         "degenerate"])
def test_launch_without_numpy(args, exit_code, tmp_path, monkeypatch,
                              capsysbinary):
    # topo, --help and the refusals raised before the first array need only
    # math: a fresh process never runs numpy, and writes the bytes and exits
    # with the code of cli.main in-process
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse's help wraps to
    (tmp_path / "degenerate.ini").write_text(  # delta1 = 0 with omega = delta2
        "[model]\nomega_drive = 1\ndelta1 = 0\ndelta2 = 1\nomega_amp = 1\n",
        encoding="utf-8")
    try:
        code = main(args)
    except SystemExit as exc:  # --help
        code = exc.code
    assert code == exit_code
    expected = capsysbinary.readouterr()
    fresh = fresh_python(FRESH_MAIN, *args, cwd=tmp_path)
    assert fresh.returncode == exit_code
    assert fresh.stdout == expected.out
    assert fresh.stderr == expected.err + b"numpy ran: False\n"


def test_presets_available():
    assert set(PRESETS) == {"example1", "example2", "example3",
                            "nv-plus", "nv-minus"}
    nv = PRESETS["nv-plus"]
    assert nv.omega_drive == pytest.approx(2 * math.pi * 5)
    assert nv.omega_amp == pytest.approx(2 * math.pi * 10)
