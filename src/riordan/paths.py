"""Combinatorial counting oracles: Motzkin paths, grand Motzkin paths, and
domino/square tilings, counted by the statistic attached to each triangle.

These never touch the series machinery, so they serve as independent checks
of the closed forms.  Motzkin paths take steps U=(1,1), D=(1,-1), H=(1,0)
from height 0 back to height 0; the plain variant never dips below 0, the
grand variant may.  Nothing is enumerated path by path: each count is a
memoized dynamic program over the step-by-step state, (steps remaining,
height, statistic so far) for paths and (cells remaining, squares so far)
for tilings.

``MAX_PATH_LENGTH`` and ``MAX_BOARD_LENGTH`` bound the lengths the oracles
accept, a little above the lengths the ``paths`` suite and the tests check
(n <= 12 for paths, n <= 14 for tilings).  They are not cost limits: the
path program has O(n^3) states, and a length-16 count takes about a
millisecond.
"""

from __future__ import annotations

from ._value import Value

VARIANTS = ("motzkin", "grand_motzkin")
STATISTICS = ("level_steps", "up_steps", "up_plus_level_steps")

MAX_PATH_LENGTH = 16
MAX_BOARD_LENGTH = 20


class PathClass(Value):
    __slots__ = ("variant", "statistic")

    def __init__(self, variant: str, statistic: str):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if statistic not in STATISTICS:
            raise ValueError(f"statistic must be one of {STATISTICS}")
        super().__init__(variant, statistic)


def _step_weights(statistic: str) -> tuple[int, int, int]:
    """How much (U, D, H) each add to the statistic."""
    if statistic == "level_steps":
        return 0, 0, 1
    if statistic == "up_steps":
        return 1, 0, 0
    return 1, 0, 1  # up_plus_level_steps


def count_paths(cls: PathClass, n: int, k: int) -> int:
    """Paths of length n whose statistic equals k.

    A memoized recursion over (steps remaining, height, statistic so far):
    each state sums the counts after a U, a D (plain paths only above
    height 0) and an H step, pruned once the statistic exceeds k or the
    height cannot return to 0 in the remaining steps.
    """
    if n < 0 or n > MAX_PATH_LENGTH:
        raise ValueError(f"path length must be in 0..{MAX_PATH_LENGTH}, got {n}")
    if k < 0:
        raise ValueError(f"statistic value must be >= 0, got {k}")
    grand = cls.variant == "grand_motzkin"
    wu, wd, wh = _step_weights(cls.statistic)
    memo: dict[tuple[int, int, int], int] = {}

    def rec(rem: int, h: int, c: int) -> int:
        if c > k or abs(h) > rem:
            return 0
        if rem == 0:
            return 1 if h == 0 and c == k else 0
        key = (rem, h, c)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = rec(rem - 1, h + 1, c + wu)  # U
        if grand or h > 0:
            total += rec(rem - 1, h - 1, c + wd)  # D
        total += rec(rem - 1, h, c + wh)  # H
        memo[key] = total
        return total

    return rec(n, 0, 0)


def count_tilings(n: int, k: int) -> int:
    """Tilings of a 1 x n board by dominoes and exactly k unit squares.

    A memoized recursion over (cells remaining, squares so far), placing the
    leftmost tile first: a square or a domino.
    """
    if n < 0 or n > MAX_BOARD_LENGTH:
        raise ValueError(f"board length must be in 0..{MAX_BOARD_LENGTH}, got {n}")
    if k < 0:
        raise ValueError(f"square count must be >= 0, got {k}")
    memo: dict[tuple[int, int], int] = {}

    def rec(rem: int, squares: int) -> int:
        if squares > k or rem < 0:
            return 0
        if rem == 0:
            return 1 if squares == k else 0
        key = (rem, squares)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = rec(rem - 1, squares + 1) + rec(rem - 2, squares)
        memo[key] = total
        return total

    return rec(n, 0)
