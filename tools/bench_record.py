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
- ``ledger``: DP sweeps (``exact_dist._steps`` calls), element operations
  and ``item`` reads, counted by ``tools/opcount.py`` for fixed calls: the
  calibration, ``pmf(0, 600)``, the x = 1 rows of ``large_n_tables`` and
  each pinned CLI report.  These counts repeat exactly between runs, so two
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
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


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
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    facts_line, result_line = proc.stdout.splitlines()[-2:]
    facts, result = json.loads(facts_line)["facts"], json.loads(result_line)
    if not result["correct"]:
        raise SystemExit(f"bench_record: {' '.join(argv)} failed {result['failed']} "
                         f"of {result['attempted']} checks: {facts['failed_checks']}")
    facts["passes"] = len(facts.pop("pass_s"))
    return {"command": argv, "facts": facts, "result": result}


def record_workloads(bench: dict, seeds: list[int], seconds: float) -> dict:
    names = [w["name"] for w in bench["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i, seed in enumerate(seeds):
        for name in names[i % len(names):] + names[:i % len(names)]:
            print(f"bench_record: {name} seed {seed}", file=sys.stderr)
            runs[name].append(run_workload(bench["command"], name, seed, seconds))
    return {name: {"metrics": summarize([r["result"] for r in rs]),
                   "runs": [{"seed": r["facts"]["seed"], "command": r["command"],
                             "facts": r["facts"]} for r in rs]}
            for name, rs in runs.items()}


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
    doc = {"seeds": seeds, "seconds": seconds,
           "workloads": record_workloads(bench, seeds, seconds), "ledger": ledger()}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
