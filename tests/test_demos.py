"""Every demo prints the bytes recorded in demo_digests.json."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dickmanlab

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((Path(__file__).with_name("demo_digests.json")).read_text())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_is_byte_identical(name):
    env = dict(os.environ, PYTHONPATH=str(Path(dickmanlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
