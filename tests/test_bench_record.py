"""tools/bench_record.py: its aggregation, its stop rule and its ledger counts."""
import json
import subprocess
import types

import pytest

import bench_record  # on sys.path through conftest, next to opcount
from dickmanlab import exact_dist


def _result(wall, setup, correct=True):
    return {"correct": correct, "attempted": 4, "failed": 0 if correct else 1, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": setup, "unit": "s"}}}


def test_summary_is_the_median_and_iqr_of_each_metric():
    got = bench_record.summarize([_result(2.0, 0.25), _result(3.0, 0.05)])
    # Inclusive quartiles of two values a < b are a + (b - a)/4 and a + 3(b - a)/4.
    assert got["wall_s"] == {"unit": "s", "median": 2.5, "iqr": 0.5, "values": [2.0, 3.0]}
    assert got["setup_s"]["median"] == pytest.approx(0.15)
    assert got["setup_s"]["iqr"] == pytest.approx(0.1)


def _canned(monkeypatch, result):
    facts = {"facts": {"seed": 7, "pass_s": [1.0, 2.0, 3.0], "failed_checks": {"x": 1}}}
    stdout = "\n".join([json.dumps(facts), json.dumps(result)]) + "\n"
    monkeypatch.setattr(subprocess, "run",
                        lambda argv, **kw: types.SimpleNamespace(stdout=stdout, returncode=0))
    monkeypatch.setattr(bench_record, "probe", lambda: 0.017)


def test_a_run_keeps_its_command_and_facts(monkeypatch):
    _canned(monkeypatch, _result(2.0, 0.1))
    run = bench_record.run_workload(["python3", "perfbench/run.py"], "calibration", 7, 2.0)
    assert run["command"] == ["python3", "perfbench/run.py", "--workload", "calibration",
                              "--seed", "7", "--seconds", "2.0", "--trace", "0"]
    assert run["facts"]["passes"] == 3 and "pass_s" not in run["facts"]
    assert run["host"] == {"probe_s": 0.017}


def _host_runs(*hosts):
    return {"calibration": {"runs": [{"host": h} for h in hosts]}}


def test_host_summary_is_the_median_probe():
    got = bench_record.host_summary(_host_runs(
        {"probe_s": 0.02}, {"probe_s": 0.01}, {"probe_s": 0.04}))
    assert got["probe_s"] == 0.02


def test_medians_compare_only_with_a_file_of_a_like_host():
    host = {"probe_s": 0.0200}
    within = bench_record.comparability(host, {"host": {"probe_s": 0.0185}}, "BENCH_25.json")
    assert within["with"] == "BENCH_25.json" and within["comparable"]
    beyond = bench_record.comparability(host, {"host": {"probe_s": 0.0170}}, "BENCH_25.json")
    assert not beyond["comparable"] and beyond["probe_ratio"] > 1.1
    blind = bench_record.comparability(host, {"ledger": {}}, "BENCH_25.json")
    assert not blind["comparable"] and "no host state" in blind["why"]
    assert not bench_record.comparability(host, None, None)["comparable"]


def test_the_last_file_is_the_highest_number_below(tmp_path):
    for name in ("BENCH_9.json", "BENCH_24.json", "BENCH_25.json", "BENCH_27.json", "notes.json"):
        (tmp_path / name).write_text("{}")
    assert bench_record.previous(tmp_path / "BENCH_26.json").name == "BENCH_25.json"
    assert bench_record.previous(tmp_path / "BENCH_10.json").name == "BENCH_9.json"
    assert bench_record.previous(tmp_path / "BENCH_9.json") is None


def test_a_failed_check_stops_the_record(monkeypatch):
    _canned(monkeypatch, _result(2.0, 0.1, correct=False))
    with pytest.raises(SystemExit, match="failed 1 of 4 checks"):
        bench_record.run_workload(["python3", "perfbench/run.py"], "calibration", 7, 2.0)


def test_ledger_counts_are_the_dp_ops_counts(dp_ops):
    ledger = bench_record.count(lambda: exact_dist.pmf(0, 600))
    ops, reads = dp_ops()  # the counters are shared, so count the second call alone
    exact_dist.pmf(0, 600)
    assert ledger == {"sweeps": 1, "element_ops": dp_ops()[0] - ops,
                      "item_reads": dp_ops()[1] - reads}
    # Both routes count through the same counters, so pin the recorded cost
    # too: a miscount that both share still fails here.
    assert ledger == {"sweeps": 1, "element_ops": 60_060_321, "item_reads": 0}
