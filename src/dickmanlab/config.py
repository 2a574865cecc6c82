"""Audit grids, two CLI defaults and golden-file handling.

The calibration grids below are part of the calibration contract: each
golden constant was recorded on exactly its audit's grids.  Each entry of
``audits.AUDITS`` reads its grid from here, and ``audits.grid_hash(key)``
stamps its constant with a hash of what that audit reads, so a grid edit
invalidates only the constants of the audits that read it; regenerate
those explicitly.  ``LLT_N_LIST`` and ``ZS_N_LIST`` are CLI defaults that
no constant reads, and no stamp covers them.
"""
from __future__ import annotations

import json
from pathlib import Path

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

# Gamma-kernel audit: the u points on [0, pi] swept in each cell.
GAMMA_U_POINTS = 10001

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


def golden_path():
    from importlib import resources

    return resources.files("dickmanlab") / "golden" / "constants.json"


def load_golden(path=None) -> dict:
    """The golden entries at ``path``, by default the packaged file."""
    path = golden_path() if path is None else Path(path)
    with path.open("r") as fh:
        return json.load(fh)


def save_golden(entries: dict, path=None) -> None:
    """Write the entries as given, stamps included; the only mutation path.

    ``path`` defaults to the packaged file.
    """
    with open(str(golden_path() if path is None else path), "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
