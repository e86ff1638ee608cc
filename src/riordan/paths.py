"""Combinatorial counting oracles: Motzkin paths, grand Motzkin paths, and
domino/square tilings, counted by the statistic attached to each triangle.

These never touch the series machinery, so they serve as independent checks
of the closed forms.  Motzkin paths take steps U=(1,1), D=(1,-1), H=(1,0)
from height 0 back to height 0; the plain variant never dips below 0, the
grand variant may.  Nothing is enumerated path by path.  Paths are counted
by one cached dynamic program per variant and statistic over (steps
remaining, height).  A statistic is its row of ``STATISTICS``, the amount that
each of U, D and H adds to it.  The program's state holds the counts for every
statistic value at once, so the counts of all k and all shorter lengths share
it.  Tilings are counted the same way: one cached program over the board
length holds the counts for every number of squares.

``MAX_PATH_LENGTH`` and ``MAX_BOARD_LENGTH`` bound the lengths the oracles
accept, a little above the lengths the ``paths`` suite and the tests check
(n <= 12 for paths, n <= 14 for tilings).  They are not cost limits: the
path program has O(n^2) states of O(n) counts each, and filling it for
length 16 takes about a millisecond.
"""

from __future__ import annotations

from functools import cache

VARIANTS = ("motzkin", "grand_motzkin")
STATISTICS = {  # statistic -> (U, D, H) step weights
    "level_steps": (0, 0, 1),
    "up_steps": (1, 0, 0),
    "up_plus_level_steps": (1, 0, 1),
}

MAX_PATH_LENGTH = 16
MAX_BOARD_LENGTH = 20


@cache
def _path_counts(grand: bool, weights: tuple[int, int, int], rem: int, h: int) -> tuple[int, ...]:
    """Entry c counts the ways to finish a path from height h in ``rem``
    steps, back at height 0, whose steps add c to the statistic with the
    (U, D, H) ``weights``.

    Each state shifts the counts after a U, a D (plain paths only above
    height 0) and an H step by the weight of that step; a height that
    cannot return to 0 in the remaining steps has no ways at all.
    """
    if abs(h) > rem:
        return ()
    if rem == 0:
        return (1,)
    wu, wd, wh = weights
    steps = [(h + 1, wu), (h, wh)]
    if grand or h > 0:
        steps.append((h - 1, wd))
    out = [0] * (rem + 1)  # no step adds more than 1
    for height, weight in steps:
        for c, ways in enumerate(_path_counts(grand, weights, rem - 1, height), weight):
            out[c] += ways
    return tuple(out)


def count_paths(variant: str, statistic: str, n: int, k: int) -> int:
    """Paths of the ``variant`` of length n whose ``statistic`` equals k:
    entry k of the cached counts of every statistic value (see
    ``_path_counts``)."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if statistic not in STATISTICS:
        raise ValueError(f"statistic must be one of {tuple(STATISTICS)}")
    if n < 0 or n > MAX_PATH_LENGTH:
        raise ValueError(f"path length must be in 0..{MAX_PATH_LENGTH}, got {n}")
    if k < 0:
        raise ValueError(f"statistic value must be >= 0, got {k}")
    counts = _path_counts(variant == "grand_motzkin", STATISTICS[statistic], n, 0)
    return counts[k] if k < len(counts) else 0


@cache
def _tiling_counts(n: int) -> tuple[int, ...]:
    """Entry k counts the tilings of a 1 x n board with exactly k squares.

    The leftmost tile is a square, which adds 1 to the count of the rest,
    or a domino; a board of negative length has no tilings.
    """
    if n < 0:
        return ()
    if n == 0:
        return (1,)
    out = [0] * (n + 1)
    for rest, weight in ((n - 1, 1), (n - 2, 0)):
        for k, ways in enumerate(_tiling_counts(rest), weight):
            out[k] += ways
    return tuple(out)


def count_tilings(n: int, k: int) -> int:
    """Tilings of a 1 x n board by dominoes and exactly k unit squares:
    entry k of the cached counts of every square number (see
    ``_tiling_counts``)."""
    if n < 0 or n > MAX_BOARD_LENGTH:
        raise ValueError(f"board length must be in 0..{MAX_BOARD_LENGTH}, got {n}")
    if k < 0:
        raise ValueError(f"square count must be >= 0, got {k}")
    counts = _tiling_counts(n)
    return counts[k] if k < len(counts) else 0
