import sys
from pathlib import Path

import pytest

from dickmanlab.dickman import build_rho_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from opcount import counting  # noqa: E402

# One line per acceptance criterion, echoed in the terminal summary so the
# pass/fail record survives pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def table():
    return build_rho_table(x_max=30.0, step=1e-3)


@pytest.fixture
def dp_ops():
    """A reader of (element operations, item reads) on the float arrays exact_dist allocates."""
    with counting() as read:
        yield read


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
