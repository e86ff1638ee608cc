"""Operation counts of CLI commands, pinned: a change that adds ring work
fails here, and one that removes some updates the pinned count.

Counts are taken in process by wrapping from the test side, with no hook in
the package.  The ``functools`` caches are cleared first, so a count does not
depend on which tests ran before.
"""

import pytest

from riordan import cli, exact, paths, verify
from riordan.exact import PolynomialRing, RationalField

# ``ring.dot`` calls per ring, by command
DOT_CALLS = {
    ("triangle", "cf@1", "--rows", "32", "--invert"): {"Q[y]": 591},
}


def dot_calls(argv) -> dict:
    """The ``ring.dot`` calls of ``riordan argv``, counted per ring."""
    for module in (exact, paths, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    counts = {}

    def counting(dot):
        def wrapper(ring, *args):
            counts[repr(ring)] = counts.get(repr(ring), 0) + 1
            return dot(ring, *args)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for cls in (RationalField, PolynomialRing):
            patch.setattr(cls, "dot", counting(cls.dot))
        assert cli.main(list(argv)) == 0
    return counts


@pytest.mark.parametrize("argv", DOT_CALLS, ids=" ".join)
def test_dot_calls(argv, capsys):
    assert dot_calls(argv) == DOT_CALLS[argv]
    assert capsys.readouterr().out
