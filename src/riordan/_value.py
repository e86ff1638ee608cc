"""The package's one immutable-value base.

Every value type derives from ``Value``: the ring descriptors, polynomials,
series, triangles, Riordan pairs, the ``gfparse`` tokens and the ``verify``
records.
"""

from __future__ import annotations


class Value:
    """An immutable value whose fields are its ``__slots__``.

    Equality is type-exact and compares every field; hashing agrees with
    it.  The ring descriptors of ``exact`` are the exception: there is one
    per ring, and they compare by identity.  Copies and pickles rebuild the
    stored fields without calling the constructor, so they work whatever its
    signature.  Subclasses take their fields in slot order and pass them on
    to ``Value.__init__``, or set them with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # the default protocol's state of a slotted object: (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
