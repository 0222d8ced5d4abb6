"""The base class of the package's immutable, validated values."""

from operator import attrgetter


class Value:
    """An immutable value, equal to another of its class with equal slots.

    A subclass lists its fields in a non-empty `__slots__` and sets each
    one once, in its validating `__init__`, through `object.__setattr__`;
    afterwards every assignment or deletion raises.  Equality and the hash
    compare the slots in order, so a slot holding a dict makes the value
    unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the slot values as one tuple, read at C speed
        cls._values = property(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._values == other._values

    def __hash__(self):
        return hash(self._values)
