"""Tests of the benchmark's own machinery: tracer, self times and checks.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import END, NAME, PARENT, START, Tracer, self_times, summarize  # noqa: E402

from dickmanlab import audits, config, exact_dist  # noqa: E402


def _fake_modules():
    lib = types.ModuleType("fakelib.core")

    def work(n):
        return helper(n) + 1

    def helper(n):
        return 2 * n

    class Box:
        def size(self):
            return 3

    for obj in (work, helper, Box):
        obj.__module__ = lib.__name__
    Box.size.__module__ = lib.__name__
    lib.work, lib.helper, lib.Box = work, helper, Box
    user = types.ModuleType("fakelib.user")
    user.work = work  # as after ``from .core import work``
    return lib, user, work, helper, Box


def test_install_wraps_every_site_and_uninstall_restores():
    lib, user, work, helper, Box = _fake_modules()
    size = Box.__dict__["size"]
    tracer = Tracer()
    tracer.install([lib, user])
    assert lib.work is not work and user.work is lib.work
    assert lib.work.__wrapped__ is work
    assert user.work(5) == 11 and Box().size() == 3
    assert [s[NAME] for s in tracer.spans] == ["core.work", "core.Box.size"]
    tracer.uninstall()
    assert lib.work is work and user.work is work and lib.helper is helper
    assert Box.__dict__["size"] is size


def test_library_names_imported_elsewhere_are_traced_and_restored():
    original = exact_dist.pmf
    tracer = Tracer(layers.COUNTERS)
    tracer.install(layers.dickmanlab_modules())
    try:
        assert audits.pmf is exact_dist.pmf is not original
        audits.pmf(0, 6)
    finally:
        tracer.uninstall()
    assert audits.pmf is original and exact_dist.pmf is original
    (span,) = [s for s in tracer.spans if s[NAME] == "exact_dist.pmf"]
    # support lengths 2, 4, 7, 11, 16, 22 after steps k = 1..6
    assert span[5]["cells"] == 62


def test_self_time_is_span_minus_covered_children():
    spans = [
        ["outer", 0.0, 10.0, -1, "r", None],
        ["a", 1.0, 3.0, 0, "r", None],
        ["b", 4.0, 5.5, 0, "r", None],
        ["leaf", 4.5, 5.0, 2, "r", None],
        ["late", 9.0, 12.0, 0, "r", None],  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 2.0 - 1.5 - 1.0, 2.0, 1.0, 0.5, 3.0])
    by_name, _ = summarize(spans)
    assert by_name["outer"]["self_s"] == pytest.approx(5.5)


def test_recursion_counted_once_in_inclusive_time():
    spans = [["f", 0.0, 4.0, -1, "r", {"steps": 4}], ["f", 1.0, 2.0, 0, "r", {"steps": 1}]]
    by_name, counts = summarize(spans)
    assert by_name["f"] == {"calls": 2, "s": 4.0, "self_s": pytest.approx(4.0)}
    assert counts == {"f.steps": 4}
    assert spans[1][START] >= spans[0][START] and spans[1][END] <= spans[0][END]
    assert spans[1][PARENT] == 0


def _calibration_failures(monkeypatch, golden):
    stored = {k: v["constant"] for k, v in config.load_golden().items()}
    monkeypatch.setattr(audits, "run_calibration", lambda table: dict(stored))
    wl = workloads.Calibration(0, None, run.ROOT)
    wl.golden = golden
    rec = workloads.Recorder()
    wl.run_pass(rec)
    return [label for label, ok in rec.checks if not ok]


def test_golden_constants_pass_and_a_perturbed_one_fails(monkeypatch):
    golden = config.load_golden()
    assert _calibration_failures(monkeypatch, golden) == []
    perturbed = json.loads(json.dumps(golden))
    perturbed["w1"]["constant"] *= 1 + 1e-9
    assert _calibration_failures(monkeypatch, perturbed) == ["golden w1"]


def test_changed_cli_byte_fails_the_report():
    argv = ("cumulants", "--n", "6")
    proc = subprocess.run([sys.executable, "-m", "dickmanlab.cli", *argv], cwd=run.ROOT,
                          env=workloads.child_env(run.ROOT), capture_output=True, check=True)
    digest = json.loads(workloads.DIGESTS.read_text())[" ".join(argv)]
    assert workloads.report_ok(proc.returncode, proc.stdout, digest)
    changed = proc.stdout.replace(b"-", b"+", 1)
    assert changed != proc.stdout
    assert not workloads.report_ok(0, changed, digest)
    assert not workloads.report_ok(1, proc.stdout, digest)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
