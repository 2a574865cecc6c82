import types

import numpy as np
import pytest

from dickmanlab import exact_dist
from dickmanlab.dickman import build_rho_table

# One line per acceptance criterion, echoed in the terminal summary so the
# pass/fail record survives pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def table():
    return build_rho_table(x_max=30.0, step=1e-3)


class CountedOps(np.ndarray):
    """An array whose every ufunc call adds the size of its outputs to ``total``.

    In-place and new outputs count alike, so the total is the number of
    element operations made on such arrays and on views of them.  Each
    ``item`` read adds one to ``reads``.
    """

    total = 0
    reads = 0

    def item(self, *args):
        CountedOps.reads += 1
        return super().item(*args)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = [np.asarray(a) if isinstance(a, CountedOps) else a for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(a) if isinstance(a, CountedOps) else a for a in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        results = result if isinstance(result, tuple) else (result,)
        CountedOps.total += sum(np.size(r) for r in results)
        if out is None:
            return result
        return out[0] if len(out) == 1 else out


@pytest.fixture
def dp_ops(monkeypatch):
    """A reader of (element operations, item reads) on the float arrays exact_dist allocates.

    ``exact_dist`` sees a numpy whose ``zeros`` returns ``CountedOps`` for
    float arrays: the DP table of ``_steps`` and the laws copied from it.
    """
    def zeros(shape, dtype=float, **kwargs):
        arr = np.zeros(shape, dtype, **kwargs)
        return arr.view(CountedOps) if arr.dtype == np.float64 else arr

    counting = types.ModuleType("numpy")
    counting.__dict__.update(vars(np))
    counting.zeros = zeros
    monkeypatch.setattr(exact_dist, "np", counting)
    CountedOps.total = CountedOps.reads = 0
    return lambda: (CountedOps.total, CountedOps.reads)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
