"""Record the benchmark's costs in one BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_23.json [--seeds K]

Run from the repository root.  The file holds two parts:

- ``workloads``: each workload of BENCHMARK.json run by its command
  (``perfbench/run.py --trace 0``) once for each of the seeds 1 to K
  (``--seeds``, default 5), for BENCHMARK.json's ``run_seconds`` each.
  The workload order rotates by one
  between seeds, so no workload always runs first.  Per workload: the
  median and interquartile range of each end-to-end metric, and per run
  its command and facts line, with the per-pass times ``pass_s`` cut to
  their count ``passes``.  A run that reports ``correct: false`` stops the
  tool before anything is written.
- ``host``: per run, the time of ``PROBE``, fixed numpy work that does
  not use the package, run in a child just before it.  At the top, the
  median of the probe times, and ``comparable``: whether this file's
  medians compare with those of the last file (the BENCH_<n>.json with
  the largest n below this file's).  They do when both files record host
  state and their probe medians differ by at most ``PROBE_TOLERANCE``.
- ``ledger``: DP sweeps (``exact_dist._steps`` calls), element operations
  and ``item`` reads, counted by ``tools/opcount.py`` for fixed calls: the
  calibration, ``pmf(0, 600)``, the x = 1 rows of ``large_n_tables``, a
  dense covariance row (x = 2, m = 10, every n to 2000) and each pinned
  CLI report.  These counts repeat exactly between runs, so two
  files' ledgers diff to the cost change between their commits.

The workloads run before this process imports numpy or the package: on
Linux a child's peak RSS starts at its parent's resident size, so a large
recorder would raise every workload's ``peak_rss_mb`` to its own.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# Fixed numpy work, about 17 ms a timing on 2 CPUs: many small ufunc calls,
# as in a DP step, and passes over a 4 MB array.  It prints the median of 5.
PROBE = """
import statistics, time
import numpy as np
def once(small=np.ones(1000), big=np.ones(1 << 19)):
    t = time.perf_counter()
    for _ in range(2000):
        small *= 0.5; small += 0.5
    for _ in range(20):
        big *= 0.5; big += 0.5
    return time.perf_counter() - t
print(statistics.median(once() for _ in range(5)))
"""
PROBE_TOLERANCE = 0.10  # the largest relative gap between two files' probe medians


def probe() -> float:
    """Seconds of one ``PROBE`` run, in a child of its own."""
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, check=True)
    return float(out.stdout)


def summarize(results: list[dict]) -> dict:
    """Median and interquartile range of each end-to-end metric over result lines."""
    out = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": metric["unit"], "median": statistics.median(values),
                     "iqr": q3 - q1, "values": values}
    return out


def run_workload(command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    host = {"probe_s": probe()}
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    facts_line, result_line = proc.stdout.splitlines()[-2:]
    facts, result = json.loads(facts_line)["facts"], json.loads(result_line)
    if not result["correct"]:
        raise SystemExit(f"bench_record: {' '.join(argv)} failed {result['failed']} "
                         f"of {result['attempted']} checks: {facts['failed_checks']}")
    facts["passes"] = len(facts.pop("pass_s"))
    return {"command": argv, "facts": facts, "result": result, "host": host}


def record_workloads(bench: dict, seeds: list[int], seconds: float) -> dict:
    names = [w["name"] for w in bench["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i, seed in enumerate(seeds):
        for name in names[i % len(names):] + names[:i % len(names)]:
            print(f"bench_record: {name} seed {seed}", file=sys.stderr)
            runs[name].append(run_workload(bench["command"], name, seed, seconds))
    return {name: {"metrics": summarize([r["result"] for r in rs]),
                   "runs": [{"seed": r["facts"]["seed"], "command": r["command"],
                             "facts": r["facts"], "host": r["host"]} for r in rs]}
            for name, rs in runs.items()}


def host_summary(workloads: dict) -> dict:
    """The median probe time over every run."""
    hosts = [run["host"] for w in workloads.values() for run in w["runs"]]
    return {"probe_s": statistics.median(h["probe_s"] for h in hosts), "cpus": os.cpu_count()}


def previous(out: Path) -> Path | None:
    """The BENCH_<n>.json beside ``out`` with the largest n below its own, if any."""
    def number(path: Path):
        found = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        return int(found[1]) if found else None

    mine = number(out)
    older = [p for p in out.parent.glob("BENCH_*.json")
             if number(p) is not None and (mine is None or number(p) < mine)]
    return max(older, key=number, default=None)


def comparability(host: dict, last: dict | None, name: str | None) -> dict:
    """Whether medians under ``host`` compare with those of the file ``last``, and why."""
    if last is None:
        return {"with": None, "comparable": False, "why": "no earlier file"}
    if "host" not in last:
        return {"with": name, "comparable": False, "why": f"{name} records no host state"}
    ratio = host["probe_s"] / last["host"]["probe_s"]
    ok = abs(ratio - 1.0) <= PROBE_TOLERANCE
    return {"with": name, "comparable": ok, "probe_ratio": ratio,
            "why": f"probe medians {'within' if ok else 'beyond'} {PROBE_TOLERANCE:.0%} "
                   f"(ratio {ratio:.3f})"}


def count(call) -> dict:
    """Sweeps, element operations and item reads of one call of ``call()``."""
    from opcount import counting

    from dickmanlab import exact_dist

    sweeps = []
    steps = exact_dist._steps
    exact_dist._steps = lambda *a, **k: sweeps.append(a) or steps(*a, **k)
    try:
        with counting() as read:
            call()
            ops, reads = read()
    finally:
        exact_dist._steps = steps
    return {"sweeps": len(sweeps), "element_ops": ops, "item_reads": reads}


def _cli_report(argv: tuple, digest: str) -> None:
    from dickmanlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != digest:
        raise SystemExit(f"bench_record: {' '.join(argv)} exited {code} or moved its bytes")


def ledger() -> dict:
    """The ledger's counts by name of the counted call."""
    from workloads import CLI_COMMANDS, DIGESTS, LLT1_N

    from dickmanlab import audits, dickman, exact_dist

    table = dickman.build_rho_table()
    digests = json.loads(DIGESTS.read_text())
    calls = {
        "run_calibration": lambda: audits.run_calibration(table),
        "pmf(0, 600)": lambda: exact_dist.pmf(0, 600),
        "large_n_tables llt_table x=1": lambda: audits.llt_table(
            exact_dist.KappaSeq(1, mode="exact-multiple"), LLT1_N, table),
        "dense cov row x=2 m=10 to 2000": lambda: exact_dist._covariances(
            exact_dist.KappaSeq(2), [(10, n) for n in range(11, 2001)]),
    }
    for argv in CLI_COMMANDS:
        key = " ".join(argv)
        calls[f"cli {key}"] = lambda argv=argv, key=key: _cli_report(argv, digests[key])
    return {name: count(call) for name, call in calls.items()}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    ap.add_argument("--seeds", type=int, default=5, help="runs per workload")
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("--seeds needs at least 2 runs for an interquartile range")

    seeds, seconds = list(range(1, args.seeds + 1)), bench["run_seconds"]
    workloads = record_workloads(bench, seeds, seconds)
    host = host_summary(workloads)
    out = Path(args.out)
    last = previous(out)
    doc = {"seeds": seeds, "seconds": seconds, "host": host,
           "comparable": comparability(host, last and json.loads(last.read_text()),
                                       last and last.name),
           "workloads": workloads, "ledger": ledger()}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
