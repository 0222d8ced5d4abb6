"""The base class of the package's immutable, validated values, and the
one reader of outside JSON that their `from_json` methods share.

Every field a `from_json` reads goes through `field`, which checks its
JSON type and raises an `InputError` naming the field's path and the
expected type.
"""

import json
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


class InputError(ValueError):
    """Outside JSON of the wrong shape, found at `path` (e.g. `sets[0].size`);
    each reader the error leaves on its way out puts its step in front."""

    def __init__(self, problem: str, path: str = ""):
        super().__init__(problem)
        self.path = path

    def __str__(self):
        return f"{self.path or 'top-level value'} {self.args[0]}"


_KINDS = {dict: "an object", list: "a list", int: "an integer",
          str: "a string"}


def show(value) -> str:
    """A JSON value as an error message shows it: containers by kind."""
    if type(value) in (dict, list):
        return _KINDS[type(value)]
    return json.dumps(value, default=repr)


def read(value, spec, step=None):
    """`value` read by `spec`: a JSON type (exact: a boolean is no integer),
    `[spec]` for a list, `{key: spec}` for an object whose member names the
    function `key` parses, or a function such as a `from_json`.  `step` is
    where `value` sits in its parent: an index, a member or a (field,)."""
    try:
        if type(spec) is type:
            if type(value) is not spec:
                raise InputError(f"must be {_KINDS[spec]}, got {show(value)}")
            return value
        if type(spec) is list:
            return [read(v, spec[0], i)
                    for i, v in enumerate(read(value, list))]
        if type(spec) is dict:
            [(key, inner)] = spec.items()
            return {read(k, key, k): read(v, inner, k)
                    for k, v in read(value, dict).items()}
        return spec(value)
    except InputError as exc:
        if step is not None:
            dot = "." if exc.path[:1] not in ("", "[") else ""
            head = step[0] if type(step) is tuple else f"[{json.dumps(step)}]"
            exc.path = head + dot + exc.path
        raise


def field(data, name: str, spec, optional: bool = False):
    """Field `name` of the object `data`, read by `spec`; an absent field
    is an error unless `optional`, and then reads as None."""
    if name in read(data, dict):
        return read(data[name], spec, (name,))
    if not optional:
        kind = _KINDS.get(spec if type(spec) is type else type(spec))
        raise InputError(f"is missing, must be {kind or 'an object'}", name)


def degree_key(name: str) -> int:
    """The degree keying an object member, such as "0" or "-1"."""
    try:
        return int(name)
    except ValueError:
        raise InputError("is not keyed by an integer") from None
