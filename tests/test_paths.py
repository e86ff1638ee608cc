"""Lattice-path and tiling counts: literal enumeration, examples, bounds.

The closed forms the counts equal are checked by the ``verify paths`` suite,
whose report ``test_acceptance.test_path_oracles`` asserts.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from riordan.paths import count_paths, count_tilings


def oracle_enumerate(variant, statistic, n, k):
    """Literal filter over all 3^n step strings; slow but assumption-free."""
    weights = {
        "level_steps": {"U": 0, "D": 0, "H": 1},
        "up_steps": {"U": 1, "D": 0, "H": 0},
        "up_plus_level_steps": {"U": 1, "D": 0, "H": 1},
    }[statistic]
    count = 0
    for steps in itertools.product("UDH", repeat=n):
        h = 0
        ok = True
        for s in steps:
            h += {"U": 1, "D": -1, "H": 0}[s]
            if variant == "motzkin" and h < 0:
                ok = False
                break
        if ok and h == 0 and sum(weights[s] for s in steps) == k:
            count += 1
    return count


class TestAgainstLiteralEnumeration:
    @pytest.mark.parametrize("variant", ["motzkin", "grand_motzkin"])
    @pytest.mark.parametrize(
        "statistic", ["level_steps", "up_steps", "up_plus_level_steps"]
    )
    def test_memoized_matches_brute_force(self, variant, statistic):
        for n in range(8):
            for k in range(n + 3):  # past n every count is 0
                want = oracle_enumerate(variant, statistic, n, k)
                assert count_paths(variant, statistic, n, k) == want


class TestMotzkinStatistics:
    def test_level_steps_example(self):
        assert count_paths("motzkin", "level_steps", 4, 2) == 6

    def test_up_steps_example(self):
        assert count_paths("motzkin", "up_steps", 5, 2) == 10


class TestGrandMotzkin:
    def test_level_steps_example(self):
        assert count_paths("grand_motzkin", "level_steps", 4, 2) == 12


class TestTilings:
    def test_examples(self):
        assert count_tilings(4, 2) == 3
        assert count_tilings(3, 1) == 2
        for n in range(10):
            assert count_tilings(n, n) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10))
    def test_total_tilings_are_fibonacci(self, n):
        # summing over the square count gives the Fibonacci numbers
        total = sum(count_tilings(n, k) for k in range(n + 1))
        from riordan.exact import fibonacci

        assert total == fibonacci(n + 1)


class TestBounds:
    def test_path_length_bound(self):
        with pytest.raises(ValueError):
            count_paths("motzkin", "level_steps", 17, 0)

    def test_board_length_bound(self):
        with pytest.raises(ValueError):
            count_tilings(21, 0)

    def test_bad_class(self):
        with pytest.raises(ValueError, match="variant must be one of"):
            count_paths("dyck", "level_steps", 4, 2)
        with pytest.raises(ValueError, match="statistic must be one of"):
            count_paths("motzkin", "down_steps", 4, 2)

    def test_negative_statistic(self):
        with pytest.raises(ValueError):
            count_paths("motzkin", "level_steps", 4, -1)
