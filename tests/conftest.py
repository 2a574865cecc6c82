import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from dickmanlab import exact_dist
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


@pytest.fixture
def dp_sweeps(monkeypatch):
    """The exact_dist._steps calls made in the test, in order.

    Each is recorded as it starts, with its ``args``; its ``steps``,
    ``cells`` (entries over all columns) and ``widest`` (the longest view
    yielded) count what the caller iterated.
    """
    sweeps, steps = [], exact_dist._steps

    def counted(sweep, views):
        for k, laws in views:
            sweep.steps += 1
            sweep.cells += laws.size
            sweep.widest = max(sweep.widest, len(laws))
            yield k, laws

    def recorded(*args, **kwargs):
        sweeps.append(SimpleNamespace(args=args, steps=0, cells=0, widest=0))
        return counted(sweeps[-1], steps(*args, **kwargs))

    monkeypatch.setattr(exact_dist, "_steps", recorded)
    return sweeps


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
