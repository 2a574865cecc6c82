"""Versioned audit grids and golden-file handling.

The grids below are part of the calibration contract: the constants in
the golden file were recorded on exactly these grids, and the grid hash
stored next to each constant detects silent grid edits.  Change a grid
and the golden file must be regenerated explicitly.
"""
from __future__ import annotations

import json
from pathlib import Path

GRID_VERSION = 1

# Local-limit-theorem error sequence (n-doubling).
LLT_N_LIST = (125, 250, 500, 1000, 2000)

# Parseval checkpoints for the L2 characteristic-function integral.
ZS_N_LIST = (100, 200, 400, 800)

# Point-estimate audit grid: m and the n multiples swept for each m.
STIMABASE_M = (2, 5, 10, 20)
STIMABASE_N_FACTORS = (4, 10, 40)
STIMABASE_N_CAP = 1000


def stimabase_pairs() -> list[tuple[int, int]]:
    pairs = []
    for m in STIMABASE_M:
        ns = {min(f * m, STIMABASE_N_CAP) for f in STIMABASE_N_FACTORS}
        ns.add(STIMABASE_N_CAP)
        pairs.extend((m, n) for n in sorted(ns) if n > m)
    return pairs


# f-envelope audit of the characteristic-function distance: (m, n) pairs
# and the t grid on [-5, 5].
W1_PAIRS = ((2, 10), (5, 50), (10, 100), (20, 400))
W1_T_POINTS = 41
W1_T_SPAN = 5.0

# Kolmogorov-distance audit pairs.
W2_PAIRS = ((2, 40), (2, 400), (5, 50), (10, 200), (20, 400))

# Covariance audit: slopes and the (m, n) pair families per regime.
COV_M = (2, 3, 5, 10, 20, 50)
COV_X = (1.0, 2.0)
COV_FAR_FACTORS = (2, 4, 10)
COV_N_CAP = 800
COV_EPS = 0.2


def cov_diag_pairs() -> list[tuple[int, int]]:
    return [(m, m) for m in COV_M]


def cov_far_pairs() -> list[tuple[int, int]]:
    pairs = []
    for m in COV_M:
        for f in COV_FAR_FACTORS:
            n = f * m
            if n <= COV_N_CAP:
                pairs.append((m, n))
    return sorted(set(pairs))


def grid_descriptor() -> dict:
    """Canonical description of every calibration grid, for hashing."""
    return {
        "version": GRID_VERSION,
        "llt_n": list(LLT_N_LIST),
        "zs_n": list(ZS_N_LIST),
        "stimabase": stimabase_pairs(),
        "w1_pairs": [list(p) for p in W1_PAIRS],
        "w1_t": [W1_T_POINTS, W1_T_SPAN],
        "w2_pairs": [list(p) for p in W2_PAIRS],
        "cov_m": list(COV_M),
        "cov_x": list(COV_X),
        "cov_far": cov_far_pairs(),
        "cov_eps": COV_EPS,
    }


def grid_hash() -> str:
    import hashlib

    blob = json.dumps(grid_descriptor(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def golden_path():
    from importlib import resources

    return resources.files("dickmanlab") / "golden" / "constants.json"


def load_golden(path=None) -> dict:
    """The golden entries at ``path``, by default the packaged file."""
    path = golden_path() if path is None else Path(path)
    with path.open("r") as fh:
        return json.load(fh)


def save_golden(entries: dict, path=None) -> None:
    """Write the entries as given, hashes included; the only mutation path.

    ``path`` defaults to the packaged file.
    """
    with open(str(golden_path() if path is None else path), "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
