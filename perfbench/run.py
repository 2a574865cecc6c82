"""dickmanlab benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the source is read from ``src/`` next to
this directory; nothing needs installing).  Workloads: calibration,
large_n_tables, monte_carlo, cli_reports; NOTES.md says why each exists.

``--trace 0`` sets up the process, then repeats the workload's pass until
S seconds have passed and reports the end-to-end metrics.  ``--trace 1``
spends the first half of S on plain passes and the second half on passes
with every public dickmanlab function wrapped (see tracing.py), and
reports the per-layer metrics of layers.py, the tracing overhead among
them; the spans go to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The second-to-last stdout line is a JSON object of run facts (machine,
versions, source digest, input sizes, per-pass times, failed checks); the
last is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 7

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("cmd_p50_s", "s")]

# In-process set-up: import (numpy and scipy included), the rho table and
# the first CDF call, which builds the lazy cumulative integrals.
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import dickmanlab; "
    "t = dickmanlab.build_rho_table(); dickmanlab.dickman_cdf(t, 1.5); "
    "print(time.perf_counter() - t0)"
)


class Stats:
    """Checks and per-operation times accumulated over passes."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {}

    def add(self, rec) -> None:
        self.attempted += len(rec.checks)
        for label, ok in rec.checks:
            if not ok:
                self.failed[label] = self.failed.get(label, 0) + 1
        self.errors.extend(e for e in rec.errors if e not in self.errors)
        for label, t in rec.times.items():
            self.times.setdefault(label, []).append(t)


def run_passes(workload, until: float, stats: Stats, min_passes: int,
               before=None, after=None) -> list[float]:
    """Repeat the workload's pass while another one fits before ``until``.

    A pass starts when fewer than ``min_passes`` have run, or when the
    median pass so far would end by ``until``.  So a run keeps to its time
    whatever the pass length, instead of overrunning by up to a pass.
    """
    from workloads import Recorder

    walls = []
    while len(walls) < min_passes or time.perf_counter() + statistics.median(walls) <= until:
        i = len(walls)
        if before:
            before(i)
        rec = Recorder()
        t0 = time.perf_counter()
        workload.run_pass(rec)
        walls.append(time.perf_counter() - t0)
        stats.add(rec)
        if after:
            after(i)
    return walls


def setup_samples(cli: bool, env: dict) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, one at a time.

    For cli_reports a sample is the wall time of ``python -c "import
    dickmanlab.cli"``; otherwise the process times its own set-up.
    """
    out = []
    for _ in range(SETUP_PROBES):
        if cli:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import dickmanlab.cli"], cwd=ROOT, env=env,
                           check=True)
            out.append(time.perf_counter() - t0)
        else:
            proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                                  check=True, capture_output=True, text=True)
            out.append(float(proc.stdout))
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dickmanlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def traced_run(workload, table_spans, until_plain: float, until: float, stats: Stats):
    """Plain passes, then traced passes; returns (per-layer metrics, tracer)."""
    from layers import COUNTERS, MEMORY, dickmanlab_modules, span_metrics
    from tracing import Tracer
    from workloads import pmf_cache

    plain = run_passes(workload, until_plain, stats, 1)
    plain_times = {k: list(v) for k, v in stats.times.items()}

    tracer = Tracer(COUNTERS, MEMORY)
    cache = pmf_cache()
    hits = misses = 0
    startups: list[float] = []
    cli_s: dict[str, float] = {}
    cli = workload.name == "cli_reports"

    def before(i):
        tracer.run_id = f"pass-{i}"
        if cli:
            workload.child_files.clear()

    def after(i):
        nonlocal hits, misses
        if cache is not None and not cli:
            info = cache.cache_info()  # the workload cleared it at the start of the pass
            hits, misses = hits + info.hits, misses + info.misses
        for argv, path in workload.child_files if cli else ():
            child = json.loads(path.read_text())
            path.unlink()
            startups.append(child["startup_s"])
            offset = len(tracer.spans)
            for name, start, end, parent, _, counts in child["spans"]:
                tracer.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                                     f"pass-{i}/{argv[0]}", counts])
                if name == "cli.main":
                    cli_s[argv[0]] = cli_s.get(argv[0], 0.0) + end - start

    tmp = None
    if cli:
        OUT_DIR.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=OUT_DIR))
        workload.trace_dir = tmp
    else:
        tracer.install(dickmanlab_modules())
    try:
        traced = run_passes(workload, until, stats, 1, before, after)
    finally:
        tracer.uninstall()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    out = span_metrics(tracer.spans, len(traced), table_spans)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["audits.pmf_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if "llt_table double" in plain_times:
        out["audits.llt_table.double_slope_s"] = statistics.median(plain_times["llt_table double"])
    if workload.name == "monte_carlo":
        out["simulate.steps_per_s"] = workload.steps_per_pass() / statistics.median(plain)
    if startups:
        out["cli.startup.s"] = statistics.median(startups)
    for sub, total in cli_s.items():
        out[f"cli.{sub}.s"] = total / len(traced)
    return out, tracer, {"plain_pass_s": plain, "traced_pass_s": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dickmanlab" / "__init__.py").is_file():
        print(f"perfbench: no dickmanlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy

    import dickmanlab
    from layers import COUNTERS, MEMORY, PER_LAYER, dickmanlab_modules
    from tracing import Tracer
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cli = args.workload == "cli_reports"
    setup = [] if args.trace else setup_samples(cli, child_env(ROOT))

    table_tracer = Tracer(COUNTERS, MEMORY)
    if args.trace:
        table_tracer.install(dickmanlab_modules())
    try:
        table = dickmanlab.build_rho_table()
        dickmanlab.dickman_cdf(table, 1.5)
    finally:
        table_tracer.uninstall()
    workload = WORKLOADS[args.workload](args.seed, table, ROOT)

    stats = Stats()
    start = time.perf_counter()
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "sizes": workload.sizes(),
    }
    if args.trace:
        values, tracer, walls = traced_run(workload, table_tracer.spans,
                                           start + args.seconds / 2, start + args.seconds, stats)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans_file)
        facts.update(walls, spans_file=str(spans_file.relative_to(ROOT)))
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        walls = run_passes(workload, start + args.seconds, stats, workload.min_passes)
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        cmd_times = ([t for label, ts in stats.times.items() for t in ts] if cli else walls)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "cmd_p50_s": statistics.median(cmd_times),
        }
        facts.update(pass_s=walls, setup_samples_s=setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    facts["op_s"] = {k: statistics.median(v) for k, v in stats.times.items()}
    facts["failed_checks"] = stats.failed
    facts["errors"] = stats.errors
    failed = sum(stats.failed.values())
    for label, count in stats.failed.items():
        print(f"perfbench: check failed {count}x: {label}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": failed == 0, "attempted": stats.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
