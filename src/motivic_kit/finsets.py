"""Finite sets, set maps, and chain diagrams S1 -> ... -> Sk up to isomorphism.

The basic combinatorial layer: sets are {0..n-1} with optional display
labels, maps are value lists, and a k-diagram is a composable chain of
maps.  Isomorphisms of diagrams are tuples of bijections making every
square commute.

A chain is a forest: the roots are the elements of Sk and an element's
children are its preimages.  Canonical forms refine each level into
classes of isomorphic subtrees, bottom-up, and then number the levels
top-down by (class, label of the image); one relabeling reaches the
lexicographic minimum of a fixed encoding over all relabelings, so
isomorphism testing compares representatives.  The automorphism group is
the iterated wreath product over the forest, generated by swaps of
isomorphic siblings.  No function here tries every relabeling, and
bounded classes are generated in `monad`, from subtree shapes.

Everything here is immutable after construction and all functions are
pure.
"""

from __future__ import annotations

import itertools
from math import factorial, prod

from ._value import InputError, Value, compile_reader, show


class FinSet(Value):
    """A finite nonempty set {0..size-1}, optionally carrying display labels."""

    __slots__ = ("size", "labels")

    def __init__(self, size: int, labels=None):
        if size < 1:
            raise ValueError("FinSet must be nonempty (size >= 1)")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size:
                raise ValueError("labels length must equal size")
            if len(set(labels)) != size:
                raise ValueError("labels must be distinct")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "labels", labels)

    def __repr__(self):
        if self.labels is None:
            return f"FinSet({self.size})"
        return f"FinSet({self.size}, labels={list(self.labels)})"

    @staticmethod
    def from_json(data) -> "FinSet":
        args = _READ_FINSET(data)
        try:
            return FinSet(*args)
        except ValueError as exc:  # named with the path the readers add
            raise InputError(f"is not a finite set: {exc}") from None


def _label(x):
    """A display label read from JSON: any value but a list or an object."""
    if type(x) in (list, dict):
        raise InputError(f"must be a string or a number, got {show(x)}")
    return x


class SetMap(Value):
    """A map of finite sets, stored as values[i] = image of element i."""

    __slots__ = ("dom", "cod", "values")

    def __init__(self, dom: FinSet, cod: FinSet, values):
        values = tuple(values)
        if len(values) != dom.size:
            raise ValueError("values length must equal dom.size")
        for v in values:
            if not (0 <= v < cod.size):
                raise ValueError(f"value {v} out of range for cod of size {cod.size}")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "values", values)

    def __repr__(self):
        return f"SetMap({self.dom.size}->{self.cod.size}, {list(self.values)})"

    def is_bijective(self) -> bool:
        return (self.dom.size == self.cod.size
                and len(set(self.values)) == self.dom.size)

    def fiber_sizes(self) -> tuple:
        """Sizes of the preimages of 0..cod.size-1, in element order."""
        sizes = [0] * self.cod.size
        for v in self.values:
            sizes[v] += 1
        return tuple(sizes)


def set_map_json(dom: int, cod: int, values) -> dict:
    """The JSON record of the set map dom -> cod with these values."""
    return {"dom": dom, "cod": cod, "values": list(values)}


def read_set_map(dom: FinSet, cod: FinSet, values, path: str) -> SetMap:
    """SetMap(dom, cod, values) read from a file, a fault naming its member."""
    try:
        return SetMap(dom, cod, values)
    except ValueError as exc:
        raise InputError(f"is not a set map: {exc}", path) from None


def map_values(dom: FinSet, cod: FinSet):
    """The value tuples of all set maps dom -> cod, in lexicographic order."""
    return itertools.product(range(cod.size), repeat=dom.size)


class FinDiagram(Value):
    """A chain S1 -> S2 -> ... -> Sk of maps of finite nonempty sets.

    k = 0 encodes the unique empty diagram (the one object in degree zero
    of the tower of diagram groupoids).
    """

    __slots__ = ("sets", "maps")

    def __init__(self, sets, maps):
        sets = tuple(sets)
        maps = tuple(maps)
        if len(sets) == 0 and len(maps) != 0:
            raise ValueError("empty diagram has no maps")
        if len(sets) > 0 and len(maps) != len(sets) - 1:
            raise ValueError("need exactly k-1 maps for k sets")
        for i, m in enumerate(maps):
            if m.dom.size != sets[i].size or m.cod.size != sets[i + 1].size:
                raise ValueError(f"map {i} does not chain sets {i} -> {i+1}")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "maps", maps)

    @property
    def k(self) -> int:
        return len(self.sets)

    def sizes(self) -> tuple:
        return tuple(s.size for s in self.sets)

    def __repr__(self):
        if self.k == 0:
            return "FinDiagram([])"
        parts = [str(self.sets[0].size)]
        for i, m in enumerate(self.maps):
            parts.append(f"-{list(m.values)}->{self.sets[i + 1].size}")
        return "FinDiagram(" + "".join(parts) + ")"

    def encoding(self):
        """Total-order key: sizes, then fiber structure right-to-left, then values."""
        fibers = tuple(m.fiber_sizes() for m in reversed(self.maps))
        values = tuple(m.values for m in self.maps)
        return (self.sizes(), fibers, values)

    def relabel(self, perms) -> "FinDiagram":
        """Apply bijections sigma_i : S_i -> S_i, conjugating every map."""
        perms = tuple(tuple(p) for p in perms)
        if len(perms) != self.k:
            raise ValueError("need one permutation per set")
        inv = []
        for p in perms:
            q = [0] * len(p)
            for i, v in enumerate(p):
                q[v] = i
            inv.append(q)
        new_sets = tuple(s if s.labels is None else FinSet(s.size)
                         for s in self.sets)
        new_maps = []
        for i, m in enumerate(self.maps):
            after, values = perms[i + 1], m.values
            new_maps.append(SetMap(new_sets[i], new_sets[i + 1],
                                   [after[values[x]] for x in inv[i]]))
        return FinDiagram(new_sets, new_maps)

    @staticmethod
    def from_json(data) -> "FinDiagram":
        sets, maps = _READ_DIAGRAM(data)
        if len(maps) != max(len(sets) - 1, 0):
            raise ValueError("need exactly k-1 maps for k sets")
        (declared,) = _READ_DIAGRAM_MAPS(data)
        chain = []
        for i, (dom, cod, values) in enumerate(declared):
            # a `dom` or `cod` the map declares is checked
            for name, size, j in (("dom", dom, i), ("cod", cod, i + 1)):
                if size not in (None, sets[j].size):
                    raise InputError(f"is {size}, but sets[{j}] has size "
                                     f"{sets[j].size}", f"maps[{i}].{name}")
            chain.append(read_set_map(sets[i], sets[i + 1], values, f"maps[{i}]"))
        return FinDiagram(sets, chain)


def _level_classes(d: FinDiagram) -> tuple:
    """(the isomorphism-class index of the subtree below each element, per
    level; the order of the self-isomorphism group of d), in one pass.

    Level 1 is one class.  An element of level j+1 has the key (number of
    preimages, -(preimages in each class of level j, in class order)); the
    classes of level j+1 are the distinct keys in sorted order.  Two
    elements of a level share a class iff their preimage trees are
    isomorphic, since a tree is the multiset of its children's classes.
    The group is the iterated wreath product over the forest, the roots
    hung from a virtual root, so its order is the product of m! over the
    counts -m the keys hold and over the class multiplicities of the roots.
    """
    classes = [[0] * d.sets[0].size]
    order = 1
    for m in d.maps:
        prev = classes[-1]
        width = max(prev) + 1
        counts = [[0] * width for _ in range(m.cod.size)]
        for x, y in enumerate(m.values):
            counts[y][prev[x]] -= 1
        keys = [(-sum(row), tuple(row)) for row in counts]
        index = {key: c for c, key in enumerate(sorted(set(keys)))}
        classes.append([index[key] for key in keys])
        order *= prod(factorial(-n) for row in counts for n in row if n < -1)
    roots = classes[-1]
    return classes, order * prod(map(factorial, map(roots.count, set(roots))))


def _canonical_form(d: FinDiagram) -> tuple:
    """(the canonical representative of the isomorphism class of d, a
    diagram of at least one set, and the order of its self-isomorphism
    group), from one `_level_classes` pass.

    The last level is numbered by class, then each level below it by
    (class, new label of its image).  Fibers come out sorted at every
    level, and each map's values are as small as the levels above allow,
    which is the lexicographic minimum of `FinDiagram.encoding` over all
    relabelings.  Remaining ties are broken by old index.  So isomorphic
    diagrams map to the identical representative, and the map is
    idempotent.  Labels are discarded.  The order is the representative's
    too, since relabeling does not change it.
    """
    classes, order = _level_classes(d)
    perms = [None] * d.k
    image = [0] * d.sets[-1].size  # the roots hang from one virtual root
    for i in range(d.k - 1, -1, -1):
        keys = sorted(zip(classes[i], image, range(len(image))))
        perm = [0] * len(keys)
        for label, (_, _, x) in enumerate(keys):
            perm[x] = label
        perms[i] = perm
        if i > 0:
            image = [perm[y] for y in d.maps[i - 1].values]
    return d.relabel(perms), order


class PermGroup(Value):
    """Automorphism group of a diagram: its degrees, its generators, each a
    tuple of one permutation tuple per set, and its order."""

    __slots__ = ("degrees", "generators", "order")

    def __init__(self, degrees, generators, order: int):
        object.__setattr__(self, "degrees", tuple(degrees))
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "order", order)

    def __repr__(self):
        return f"PermGroup(degrees={self.degrees}, order={self.order})"

    def to_json(self):
        return {"order": self.order,
                "degrees": list(self.degrees),
                "generators": [
                    {"components": [set_map_json(n, n, p)
                                    for n, p in zip(self.degrees, g)]}
                    for g in self.generators]}


def automorphism_group(d: FinDiagram) -> PermGroup:
    """Generators and order of the self-isomorphism group of d, both from
    one `_level_classes` pass.  Each generator, one permutation tuple per
    set, swaps two adjacent isomorphic siblings (children sorted by
    (class, index)) and carries one subtree onto the other, pairing their
    children in the same order: an automorphism by construction, which
    is not checked again here (tests/helpers closes the generators).
    """
    if d.k == 0:
        return PermGroup((), (), 1)
    classes, order = _level_classes(d)
    children = [None]
    for i, m in enumerate(d.maps):
        kids = [[] for _ in range(m.cod.size)]
        for x, y in enumerate(m.values):
            kids[y].append(x)
        children.append([sorted(c, key=lambda x: (classes[i][x], x))
                         for c in kids])
    top = d.k - 1
    roots = sorted(range(d.sets[top].size), key=lambda y: (classes[top][y], y))
    # (level of the siblings, sorted siblings), the virtual root first
    nodes = [(top, roots)]
    for level in range(top, 0, -1):
        nodes.extend((level - 1, kids) for kids in children[level])
    gens = []
    for level, kids in nodes:
        for a, b in zip(kids, kids[1:]):
            if classes[level][a] != classes[level][b]:
                continue
            perms = [list(range(s.size)) for s in d.sets]
            pairs = [(level, a, b)]
            while pairs:
                lv, u, v = pairs.pop()
                perms[lv][u], perms[lv][v] = v, u
                if lv > 0:
                    pairs.extend((lv - 1, p, q) for p, q in
                                 zip(children[lv][u], children[lv][v]))
            gens.append(tuple(map(tuple, perms)))
    return PermGroup(d.sizes(), gens, order)


# the readers of input files, compiled once
_READ_FINSET = compile_reader({"size": int, "labels?": [_label]})
_READ_DIAGRAM = compile_reader({"sets": [FinSet.from_json], "maps": list})
_READ_DIAGRAM_MAPS = compile_reader(
    {"maps": [{"dom?": int, "cod?": int, "values": [int]}]})
