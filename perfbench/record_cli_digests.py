"""Record the stdout digests that cli_reports checks every report against.

    python3 perfbench/record_cli_digests.py

Run from the repository root.  Only for a deliberate change of report
bytes: the recorded digests are the contract that a refactor keeps every
CLI report byte-identical.
"""
import json
import sys

from run import ROOT, SRC

sys.path.insert(0, str(SRC))

from workloads import DIGESTS, record_digests  # noqa: E402

if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record_digests(ROOT), indent=2) + "\n")
