"""Value semantics shared by every value type: copies, pickles, immutability."""

import copy
import pickle

import pytest

from riordan.exact import QA, QAB, QQ, QY, PolynomialRing, RationalField
from riordan.families import pair_fib
from riordan.series import from_coeffs
from riordan.triangles import Triangle
from riordan.verify import Check, run

# (value, an attribute that must refuse deletion, one that must refuse assignment)
CASES = {
    "Q[y] polynomial": (QY.poly([1, -2, 3]), "_c", "ring"),
    "Q[a][b] polynomial": (QAB.poly([QA.poly([1, 2]), QA.generator()]), "_c", "ring"),
    "series": (from_coeffs(QY, [1, QY.generator()], 4), "coeffs", "ring"),
    "triangle": (Triangle(QQ, [[1], [1, 1]]), "rows", "ring"),
    "Riordan pair": (pair_fib(6), "d", "ring"),
    "QY": (QY, "base", "var"),
    "QQ": (QQ, "zero", "zero"),
    "Q[a][y]": (PolynomialRing(QA, "y"), "base", "var"),
    "verify check": (Check("c", True, "d"), "detail", "ok"),
    "verify report": (run("hankel")[0], "checks", "notes"),
}


@pytest.mark.parametrize("value, slot, attr", CASES.values(), ids=CASES)
def test_value_semantics(value, slot, attr):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value
        assert hash(twin) == hash(value)
    before = repr(value)
    with pytest.raises(AttributeError):
        delattr(value, slot)
    with pytest.raises(AttributeError):
        setattr(value, attr, QA)
    assert repr(value) == before


@pytest.mark.parametrize("ring", [QQ, QY, QA, QAB, PolynomialRing(QA, "y")], ids=repr)
def test_named_rings_keep_their_identity(ring):
    for twin in (copy.copy(ring), copy.deepcopy(ring), pickle.loads(pickle.dumps(ring))):
        assert twin is ring


def test_one_ring_per_base_and_variable():
    assert RationalField() is QQ
    assert PolynomialRing(QQ, "y") is QY and PolynomialRing(QA, "b") is QAB
    assert PolynomialRing(QA, "y") is PolynomialRing(QA, "y")
    assert PolynomialRing(QA, "y") != PolynomialRing(QQ, "y")
    assert hash(QY) == object.__hash__(QY)


def test_copied_values_share_the_named_ring():
    p = QY.poly([1, -2, 3])
    q = QAB.poly([QA.poly([1, 2]), QA.generator()])
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin.ring is QY
    assert copy.deepcopy(q).ring is QAB
    assert copy.deepcopy(q).coeffs[0].ring is QA
    assert copy.deepcopy(from_coeffs(QY, [p], 2)).ring is QY
