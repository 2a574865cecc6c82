import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dickmanlab
from dickmanlab import audits, config
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
    assert stored["cov_diag"]["grid_hash"] == config.grid_hash()
    code, _ = run(capsys, "cov-audit", "--regime", "far", "--golden", "check")
    assert code == 1  # the stale entry still fails its hash check


def test_golden_file_is_where_regenerate_writes_and_check_reads(tmp_path, capsys):
    packaged = Path(str(config.golden_path())).read_bytes()
    path = tmp_path / "golden.json"
    code, _ = run(capsys, "cov-audit", "--regime", "diag", "--golden", "regenerate",
                  "--golden-file", str(path))
    assert code == 0
    assert Path(str(config.golden_path())).read_bytes() == packaged
    assert json.loads(path.read_text()) == {
        "cov_diag": {"constant": 2.0 / 3.0, "grid_hash": config.grid_hash()}}
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
