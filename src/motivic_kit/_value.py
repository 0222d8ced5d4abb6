"""The base class of the package's immutable, validated values, and the
one reader of outside JSON that their `from_json` methods share.

Each `from_json` reads its input through a reader that `compile_reader`
builds once, at import, from a spec of the JSON shape it expects; the
reader checks every JSON type and raises an `InputError` naming the
field's path and the expected type.  A JSON type inside a list, an
object or a field is checked in line, by `type(v) is T`; its own reader
runs only when that check fails, to raise the error.
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

    def inside(self, head: str) -> "InputError":
        """This error, with `head` (a field name, or "[index]") in front."""
        dot = "." if self.path[:1] not in ("", "[") else ""
        self.path = head + dot + self.path
        return self


class RepeatedKey(InputError):
    """The first member name that `parse` reads to an earlier one's key."""

    def __init__(self, members, parse):
        seen = {}
        k = next(k for k in members if seen.setdefault(parse(k), k) != k)
        self.earlier = f"[{json.dumps(seen[parse(k)])}]"
        super().__init__("names the same member as", f"[{json.dumps(k)}]")

    def __str__(self):  # the two members' paths differ in the last step
        parent = self.path[:self.path.rindex("[")]
        return f"{super().__str__()} {parent}{self.earlier}"


_KINDS = {dict: "an object", list: "a list", int: "an integer",
          str: "a string"}


def show(value) -> str:
    """A JSON value as an error message shows it: containers by kind."""
    if type(value) in (dict, list):
        return _KINDS[type(value)]
    return json.dumps(value, default=repr)


def compile_reader(spec):
    """The function that reads a JSON value by `spec`, compiled once.

    A spec is a JSON type (exact: a boolean is no integer), `[spec]` for
    a list, `{key: spec}` for an object whose member names the function
    `key` parses to distinct keys, `{"name": spec, ...}` for the fields
    of an object, read in this order into a tuple (a name ending in "?"
    may be absent and reads as None), or a function such as `from_json`.
    An `InputError` leaving a nested read gets that step put in front.
    A nested spec is checked in line, by `type(v) is spec`, true only for
    a JSON type; where that fails, the spec's reader reads `v`.  So the
    reader of a JSON type only refuses: it runs once that check failed.
    """
    if type(spec) is type:
        def refuse_type(value):  # runs only once `type(value) is spec` failed
            raise InputError(f"must be {_KINDS[spec]}, got {show(value)}")
        return refuse_type
    if type(spec) is list:
        [kind] = spec
        read_list, item = compile_reader(list), compile_reader(kind)

        def read_items(value):
            out = []
            for v in value if type(value) is list else read_list(value):
                try:
                    out.append(v if type(v) is kind else item(v))
                except InputError as exc:
                    raise exc.inside(f"[{len(out)}]")
            return out
        return read_items
    if type(spec) is not dict:
        return spec
    read_object = compile_reader(dict)
    if type(next(iter(spec))) is not str:
        [(key_kind, kind)] = spec.items()
        key, inner = compile_reader(key_kind), compile_reader(kind)

        def read_members(value):
            out = {}
            for k, v in (value if type(value) is dict
                         else read_object(value)).items():
                try:  # the key first, as the file lists it
                    k_read = k if type(k) is key_kind else key(k)
                    out[k_read] = v if type(v) is kind else inner(v)
                except InputError as exc:
                    raise exc.inside(f"[{json.dumps(k)}]")
            if len(out) < len(value):
                raise RepeatedKey(value, key)
            return out
        return read_members
    fields = [(name.rstrip("?"), name.endswith("?"), inner,
               compile_reader(inner), "is missing, must be " + _KINDS.get(
                   inner if type(inner) is type else type(inner), "an object"))
              for name, inner in spec.items()]

    def read_fields(value):
        if type(value) is not dict:
            read_object(value)
        out = []
        for name, optional, kind, inner, missing in fields:
            if name in value:
                v = value[name]
                try:
                    out.append(v if type(v) is kind else inner(v))
                except InputError as exc:
                    raise exc.inside(name)
            elif optional:
                out.append(None)
            else:
                raise InputError(missing, name)
        return tuple(out)
    return read_fields


def degree_key(name: str) -> int:
    """The degree keying an object member, such as "0" or "-1"."""
    try:
        return int(name)
    except ValueError:
        raise InputError("is not keyed by an integer") from None
