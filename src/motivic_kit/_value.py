"""The base class of the package's immutable, validated values, and the
field check their `from_json` readers share."""

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


def require_fields(data, what: str, fields):
    """Check that `data` is a JSON object holding every one of `fields`.

    Otherwise raise a `ValueError` that names `what` and the field.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object with required field "
                         f"{fields[0]!r}, got {data!r}")
    for field in fields:
        if field not in data:
            raise ValueError(f"{what} is missing required field {field!r}")
