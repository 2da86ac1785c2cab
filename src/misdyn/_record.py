"""Plain record classes, written out instead of generated at import.

A record lists its fields in __slots__, in constructor order, and sets
them in its own __init__. Record gives it a dataclass-style repr and a
field-wise == (so, like an unfrozen dataclass, it is unhashable);
FrozenRecord also refuses assignment and hashes the compared fields.
"""


class Record:
    __slots__ = ()

    def _key(self):
        """The field values that == compares: all of them by default."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class FrozenRecord(Record):
    """A record whose fields are set once, by object.__setattr__ in
    __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key())
