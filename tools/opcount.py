"""Deterministic work counts of the DP kernel in ``dickmanlab.exact_dist``.

``counting()`` swaps the numpy that ``exact_dist`` sees for one whose
``zeros`` returns ``CountedOps`` for float arrays: the DP table of
``_steps`` and the laws copied from it.  Unlike a timing, the counts repeat
exactly from run to run.  The ``dp_ops`` test fixture and
``tools/bench_record.py`` both count through it.
"""
from __future__ import annotations

import contextlib
import types

import numpy as np

from dickmanlab import exact_dist


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


def _zeros(shape, dtype=float, **kwargs):
    arr = np.zeros(shape, dtype, **kwargs)
    return arr.view(CountedOps) if arr.dtype == np.float64 else arr


@contextlib.contextmanager
def counting():
    """Count from zero while the block runs; yields a reader of (element operations, item reads)."""
    counted = types.ModuleType("numpy")
    counted.__dict__.update(vars(np))
    counted.zeros = _zeros
    saved = exact_dist.np
    exact_dist.np = counted
    CountedOps.total = CountedOps.reads = 0
    try:
        yield lambda: (CountedOps.total, CountedOps.reads)
    finally:
        exact_dist.np = saved
