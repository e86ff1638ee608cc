"""The private base of the package's small immutable records."""

from __future__ import annotations


class Value:
    """An immutable record whose fields are its ``__slots__``.

    Equality is type-exact and compares every field except ``pos``, a source
    offset; hashing agrees with it.  Subclasses take their fields in slot
    order and pass them on to ``Value.__init__``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name != "pos")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
