import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dickmanlab
from dickmanlab import audits, config, dickman, exact_dist, simulate
from dickmanlab.cli import main

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "cli_digests.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rho_value(capsys):
    code, out = run(capsys, "rho", "--x", "1.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,rho,density,cdf"
    fields = lines[1].split(",")
    assert float(fields[1]) == pytest.approx(1 - math.log(1.5), abs=1e-10)


def test_pmf_rows(capsys):
    code, out = run(capsys, "pmf", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    got = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert got[1] == pytest.approx(1 / 3, abs=1e-15)
    assert got[6] == pytest.approx(1 / 6, abs=1e-15)


def test_llt_table_monotone(capsys):
    code, out = run(capsys, "llt-table", "--n", "125,250,500")
    assert code == 0
    errs = [float(r.split(",")[3]) for r in out.strip().splitlines()[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_json_format_carries_config(capsys):
    code, out = run(capsys, "rho", "--x", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "rho"
    assert doc["config"]["x"] == [2.0]
    assert len(doc["rows"]) == 1


def test_byte_identical_reports(capsys):
    args = ("aslt", "--N", "20000", "--paths", "3", "--seed", "11")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert first.splitlines()[0] == "path,seed,N,hits,log_avg"


def test_lemmino_exit_codes(capsys):
    code, out = run(capsys, "lemmino", "--x", "1", "--eps", "0.2",
                    "--m", "40", "--n", "50")
    assert code == 0
    assert out.strip().splitlines()[1].endswith("true")
    code, _ = run(capsys, "lemmino", "--x", "1", "--eps", "0.2",
                  "--m", "40", "--n", "70")
    assert code == 2  # outside the band: usage error


def test_golden_check_passes(capsys):
    # Every recorded report (the five audits' golden checks and the rho,
    # zs, llt-table, lemmino and cumulants tables) is byte-identical, and
    # none writes to stderr or raises a warning.
    digests = json.loads(DIGESTS.read_text())
    assert len(digests) == 11
    for argv, digest in digests.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv.split())
        out, err = capsys.readouterr()
        assert code == 0 and err == "", argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    assert set(audits.AUDITS) == set(config.load_golden())


# sha256 of the stdout of two JSON audit reports, recorded when AuditRow
# was a dataclass: the header and every row, ratio included, keep their bytes.
JSON_AUDIT_DIGESTS = {
    "stimabase --golden check --format json":
        "66879e3aa1f5a7272cfb2a506ba227006e747508c30db28a0efc4c93099f2058",
    "cov-audit --regime far --format json":
        "50d32f20eb14da16370471eb22bef678d92d40fddefc581ea18d2ac51da21cac",
}


@pytest.mark.parametrize("argv", list(JSON_AUDIT_DIGESTS))
def test_json_audit_reports_keep_their_bytes(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_AUDIT_DIGESTS[argv]
    assert list(json.loads(out)["rows"][0]) == [*audits.AuditRow._fields, "ratio"]


def test_golden_regenerate_rewrites_only_its_constant(tmp_path, monkeypatch, capsys):
    golden = config.load_golden()
    golden["cov_far"]["grid_hash"] = "stale000"
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(config, "golden_path", lambda: path)
    code, _ = run(capsys, "cov-audit", "--regime", "diag", "--golden", "regenerate")
    assert code == 0
    stored = json.loads(path.read_text())
    assert stored["cov_far"] == golden["cov_far"]
    assert stored["cov_diag"]["grid_hash"] == audits.grid_hash("cov_diag")
    code, _ = run(capsys, "cov-audit", "--regime", "far", "--golden", "check")
    assert code == 1  # the stale entry still fails its hash check


def test_a_grid_edit_fails_only_its_own_audits_golden_check(monkeypatch, capsys):
    # Editing W2_PAIRS leaves the stored w2 stamp stale; every other
    # audit's stamp covers none of it, so their checks still pass.
    monkeypatch.setattr(config, "W2_PAIRS", config.W2_PAIRS[:-1])
    code = main(["w2", "--golden", "check"])
    assert code == 1
    assert capsys.readouterr().err == "golden regression: w2: grid hash mismatch (grids changed?)\n"
    code, _ = run(capsys, "cov-audit", "--regime", "diag", "--golden", "check")
    assert code == 0


def test_golden_file_is_where_regenerate_writes_and_check_reads(tmp_path, capsys):
    packaged = Path(str(config.golden_path())).read_bytes()
    path = tmp_path / "golden.json"
    code, _ = run(capsys, "cov-audit", "--regime", "diag", "--golden", "regenerate",
                  "--golden-file", str(path))
    assert code == 0
    assert Path(str(config.golden_path())).read_bytes() == packaged
    assert json.loads(path.read_text()) == {
        "cov_diag": {"constant": 2.0 / 3.0, "grid_hash": audits.grid_hash("cov_diag")}}
    code, _ = run(capsys, "cov-audit", "--regime", "diag", "--golden", "check",
                  "--golden-file", str(path))
    assert code == 0
    # The new file holds no cov_far entry, which the packaged file has.
    code = main(["cov-audit", "--regime", "far", "--golden", "check", "--golden-file", str(path)])
    assert code == 1
    assert "cov_far: missing from golden file" in capsys.readouterr().err
    code, _ = run(capsys, "cov-audit", "--regime", "far", "--golden", "check")
    assert code == 0
    with pytest.raises(SystemExit) as exc:  # checked before any DP, with no report
        main(["w2", "--golden", "check", "--golden-file", str(tmp_path / "none.json")])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(dickmanlab.__file__).parents[1]))
    probe = "import dickmanlab.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["stimabase", "--m", "3"])
    assert exc.value.code == 2
    for argv in (["w2", "--n", "50"], ["stimabase", "--n", "50"], ["cov-audit", "--n", "50"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv  # --n requires --m, not the default grid
        out, err = capsys.readouterr()
        assert out == "" and "--n requires --m" in err, argv
    code, _ = run(capsys, "pmf", "--n", "70", "--mode", "exact")
    assert code == 2  # beyond the exact-mode cap
    code, out = run(capsys, "cov-audit", "--regime", "near", "--x", "2.4")
    assert code == 2  # no near-diagonal pair on the m grid at this slope
    assert out == ""  # the usage error writes no report
    for argv in (("cov-audit", "--regime", "far", "--m", "3", "--n", "3"),
                 ("cov-audit", "--regime", "diag", "--m", "2", "--n", "5"),
                 ("cov-audit", "--regime", "near", "--m", "5", "--n", "50"),
                 ("zs", "--n", ","), ("llt-table", "--n", ","), ("llt-table", "--n", "0,5")):
        code, out = run(capsys, *argv)
        assert code == 2, argv  # a pair outside its regime; a table needs some n >= 1
        assert out == "", argv
    for argv in (("dispersion", "--N", "1,100"), ("dispersion", "--N", "0,100"),
                 ("aslt", "--paths", "0"), ("estimate-gamma", "--paths", "0"),
                 ("estimate-rho", "--x", "2", "--paths", "0")):
        code, _ = run(capsys, *argv)
        assert code == 2, argv  # a horizon below 2 or no paths
    missing = tmp_path / "no-such-dir"
    for argv in (("rho", "--x", "1", "--output", str(missing / "f.csv")),
                 ("stimabase", "--golden", "regenerate", "--golden-file", str(missing / "g.json")),
                 ("pmf", "--n", str(10**7))):  # the full law needs 364 TiB
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv  # an unwritable file or a law too large
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not missing.exists()
    for argv in (("w2", "--m", "0", "--n", "3"), ("w2", "--m", "-1", "--n", "3")):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv  # the block is checked before a log reads it
        assert "need 2 <= m < n" in err, argv


def test_aslt_reaches_large_horizons(capsys):
    code, out = run(capsys, "aslt", "--N", str(10**15), "--paths", "4")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert len(rows) == 4 and all(int(r[3]) >= 1 for r in rows)


def test_zs_command(capsys):
    code, out = run(capsys, "zs", "--n", "2,4")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert float(rows[0].split(",")[1]) == pytest.approx(2 * math.pi, abs=1e-12)


def test_cumulants_dump(capsys):
    code, out = run(capsys, "cumulants", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert "coeff,3,3,2" in lines  # leading coefficient of x(1-x)(1-2x)


def test_output_file_gets_the_stdout_bytes(tmp_path, capsys):
    path = tmp_path / "r.json"
    _, stdout = run(capsys, "rho", "--x", "1,2", "--format", "json")
    code, out = run(capsys, "rho", "--x", "1,2", "--format", "json", "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == stdout


def test_x_below_one_warns_once():
    env = dict(os.environ, PYTHONPATH=str(Path(dickmanlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dickmanlab.cli", "aslt", "--x", "0.5",
                           "--N", "1000", "--paths", "3"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: x=0.5 < 1")


def _golden_copy(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(Path(str(config.golden_path())).read_bytes())
    return path


def test_regenerate_stores_the_full_grid_constant(tmp_path, capsys, table):
    path = _golden_copy(tmp_path)
    # The report shows the x = 2 rows; the stored constant is the calibration's.
    code, out = run(capsys, "cov-audit", "--regime", "far", "--x", "2", "--golden", "regenerate",
                    "--golden-file", str(path))
    assert code == 0 and out.splitlines()[1].split(",")[3] == "2"
    constants = audits.run_calibration(table)
    assert json.loads(path.read_text())["cov_far"]["constant"] == constants["cov_far"]
    code, _ = run(capsys, "cov-audit", "--regime", "far", "--golden", "check",
                  "--golden-file", str(path))
    assert code == 0
    for argv, name in ((("stimabase",), "stimabase"), (("w2",), "w2")):
        code, _ = run(capsys, *argv, "--golden", "regenerate", "--golden-file", str(path))
        assert code == 0 and json.loads(path.read_text())[name]["constant"] == constants[name]


def test_regenerate_of_one_cell_is_a_usage_error(tmp_path, capsys):
    path = _golden_copy(tmp_path)
    before = path.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["stimabase", "--m", "20", "--n", "1000", "--golden", "regenerate",
              "--golden-file", str(path)])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert path.read_bytes() == before


UNCALIBRATED = {
    "stimabase-x2": ("stimabase", "--x", "2"),  # stimabase is calibrated at x = 1 only
    "stimabase-cell": ("stimabase", "--m", "2", "--n", "9"),  # a cell off the grid
    "cov-far-x3": ("cov-audit", "--regime", "far", "--x", "3"),  # COV_X is (1, 2)
    "cov-far-round": ("cov-audit", "--regime", "far", "--kappa-mode", "round"),
}


# One rule for both modes: each gates the constant of the default grid at
# the audit's slopes with floor kappa, so no other cells may come with it.
@pytest.mark.parametrize("mode, argv", [
    *(pytest.param("check", argv, id=name) for name, argv in UNCALIBRATED.items()),
    *(pytest.param("regenerate", argv, id=f"{name}-regenerate")
      for name, argv in UNCALIBRATED.items()),
])
def test_check_outside_the_calibrated_cells_is_a_usage_error(tmp_path, capsys, mode, argv):
    path = _golden_copy(tmp_path)
    before = path.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--golden", mode, "--golden-file", str(path)])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert path.read_bytes() == before


def test_check_gates_the_constant_of_every_slope(tmp_path, capsys):
    # The x = 2 rows alone solve to 0.0227; the cov_far constant is 0.0500562 at x = 1.
    path = _golden_copy(tmp_path)
    golden = json.loads(path.read_text())
    golden["cov_far"]["constant"] = 0.03
    path.write_text(json.dumps(golden))
    code = main(["cov-audit", "--regime", "far", "--x", "2", "--golden", "check",
                 "--golden-file", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out.splitlines()[1].split(",")[3] == "2"
    assert "cov_far: constant grew 0.03 -> 0.0500562" in err


@pytest.mark.parametrize("argv, tables", [
    (("cov-audit", "--regime", "far"), 0),
    (("stimabase",), 0),
    (("w2",), 1),
], ids=["cov-far", "stimabase", "w2"])
def test_regenerate_costs_one_sweep_of_its_own_audit(tmp_path, monkeypatch, capsys, dp_sweeps,
                                                     argv, tables):
    built, build = [], dickman.build_rho_table
    monkeypatch.setattr(dickman, "build_rho_table", lambda **k: built.append(k) or build(**k))
    code, _ = run(capsys, *argv, "--golden", "regenerate",
                  "--golden-file", str(tmp_path / "g.json"))
    assert code == 0 and len(dp_sweeps) == 1 and len(built) == tables


def _probe(code: str, *argv: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(dickmanlab.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


LOADED = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'dickmanlab'), "
          "'numpy' in sys.modules)")


def test_import_loads_only_the_core_modules():
    # A bare ``import dickmanlab`` loads no numeric module: its exports
    # resolve on first access.
    assert _probe("import dickmanlab, sys; " + LOADED) == [str(["dickmanlab"]) + " False"]


def test_cli_import_loads_only_cli_and_config():
    assert _probe("import dickmanlab.cli, sys; " + LOADED) == [
        str(["dickmanlab", "dickmanlab.cli", "dickmanlab.config"]) + " False"]


# Run one command as ``python -m dickmanlab.cli`` would, then print its exit
# code, the sha256 of its stdout and whether numpy was loaded.
RUN_CLI = """
import contextlib, hashlib, io, sys
from dickmanlab import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(), 'numpy' in sys.modules)
"""


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("w2", "--n", "50"), 2),  # a usage error
    (("cumulants", "--n", "6"), 0),
], ids=["help", "usage-error", "cumulants"])
def test_commands_that_need_no_numpy_never_load_it(argv, code):
    got_code, digest, numpy_loaded = _probe(RUN_CLI, *argv)[0].split()
    assert (int(got_code), numpy_loaded) == (code, "False")
    if argv[0] == "cumulants":
        assert digest == json.loads(DIGESTS.read_text())["cumulants --n 6"]


# The home of each export, as the package imported them before they were lazy.
EXPORT_HOMES = {
    dickman: ("EULER_GAMMA", "DickmanRangeError", "RhoTable", "build_rho_table", "dickman_cdf",
              "dickman_density", "rho", "rho_integral", "rho_sq_integral"),
    exact_dist: ("KappaSeq", "Pmf", "cov_Y", "kolmogorov_distance", "pmf", "prob_at"),
    simulate: ("PathEstimate", "estimate_gamma", "estimate_rho", "simulate_path",
               "simulate_paths"),
}


def test_every_export_is_its_home_modules_object(monkeypatch):
    names = [name for homes in EXPORT_HOMES.values() for name in homes]
    assert sorted(dickmanlab.__all__) == sorted(names)
    listed = dir(dickmanlab)
    for home, homes in EXPORT_HOMES.items():
        for name in homes:
            assert getattr(dickmanlab, name) is getattr(home, name), name
            assert name in listed, name
    with pytest.raises(AttributeError):
        dickmanlab.no_such_name
    # Read through at each access, so a patched or traced function shows here too.
    monkeypatch.setattr(exact_dist, "pmf", lambda m, n: None)
    assert dickmanlab.pmf is exact_dist.pmf


def test_a_run_that_exits_2_leaves_the_golden_file_as_it_was(tmp_path, capsys):
    path = _golden_copy(tmp_path)
    golden = json.loads(path.read_text())
    golden["cov_diag"]["constant"] = 1.0
    path.write_text(json.dumps(golden))
    before = path.read_bytes()
    missing = tmp_path / "missing" / "dir"
    code = main(["cov-audit", "--regime", "diag", "--golden", "regenerate",
                 "--golden-file", str(path), "--output", str(missing / "r.csv")])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: [Errno 2]")
    assert path.read_bytes() == before
    # An unwritable golden file fails before the report: nothing on stdout.
    code = main(["cov-audit", "--regime", "diag", "--golden", "regenerate",
                 "--golden-file", str(missing / "g.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: ")


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("argv", [
    ("rho", "--x", "0.5,2"),
    ("pmf", "--n", "6", "--mode", "exact"),
    ("llt-table", "--n", "10,20"),
    ("stimabase", "--m", "2", "--n", "20"),
    ("w2", "--m", "2", "--n", "40"),
    ("zs", "--n", "2,4"),
    ("lemmino", "--x", "1", "--eps", "0.2", "--m", "40", "--n", "50"),
    ("cov-audit", "--regime", "far", "--m", "3", "--n", "12"),
    ("cumulants", "--n", "4"),
    ("aslt", "--N", "1000", "--paths", "2"),
    ("estimate-gamma", "--N", "1000", "--paths", "2"),
    ("estimate-rho", "--x", "2", "--N", "1000", "--paths", "2"),
    ("dispersion", "--N", "100,1000", "--paths", "2"),
], ids=lambda argv: argv[0])
def test_json_reports_are_strict_json(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out, parse_constant=_no_constant)
    assert doc["command"] == argv[0] and doc["rows"]
    if argv[0] == "w2":
        assert doc["rows"][0]["x"] is None  # NaN in the row, null in the report


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("dickmanlab ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)[1:]
        assert "regenerate" not in argv, line  # the examples must not write the golden file
        code, out = run(capsys, *argv)
        assert code == 0, line
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            json.loads(out, parse_constant=_no_constant)


def test_a_bad_integer_list_is_a_usage_error(capsys):
    for argv, message in ((["llt-table", "--n", "1,x"], "bad integer list '1,x'"),
                          (["rho", "--x", "1,abc"], "bad number list '1,abc'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err and "<lambda>" not in err


@pytest.mark.parametrize("argv", [["llt-table", "--x", "0"], ["aslt", "--x", "-1"]])
def test_a_rejected_slope_is_one_error_line(capsys, argv):
    # The x < 1 warning comes only after KappaSeq accepts the slope.
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: target slope must be positive")
