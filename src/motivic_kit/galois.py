"""Finite group actions on finite sets and the descent comparison.

A finite group is a full multiplication table; a G-set is a set with a
homomorphic family of bijections.  These model the Galois-theoretic data
of the zero-dimensional situation: equivariant set maps on one side,
group-fixed comonoid morphisms on the other, with the graph construction
matching them up.
"""

from __future__ import annotations

from ._value import InputError, Value, compile_reader
from .artin import graph_matrix, solve_coalgebra_morphisms
from .finsets import FinSet, SetMap, map_values, read_set_map
from .qlinalg import matmul


class FiniteGroup(Value):
    """A group given by its order x order multiplication table.

    table[g][h] is the product g*h.  Identity, inverses and associativity
    are checked, and a generating set is found greedily, at construction.
    """

    __slots__ = ("order", "table", "identity", "generators")

    def __init__(self, table):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise ValueError("empty group table")
        for row in table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("table is not order x order over 0..order-1")
        identity = None
        for e in range(n):
            if all(table[e][g] == g and table[g][e] == g for g in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        for g in range(n):
            if identity not in table[g]:
                raise ValueError(f"element {g} has no inverse")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        gens, closed = [], {identity}
        for g in range(n):
            if g not in closed:
                gens.append(g)
                closed = self.closure(gens)
        object.__setattr__(self, "generators", tuple(gens))
        # Light's test: the g with (a*b)*g = a*(b*g) for all a, b include
        # the identity and are closed under products, so generators suffice
        for g in gens:
            column = [row[g] for row in table]
            if any(column[ab] != row[column[b]]
                   for row in table for b, ab in enumerate(row)):
                raise ValueError("multiplication is not associative")

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    def cayley_edges(self, gens):
        """Breadth-first walk of the subgroup generated by gens.

        Starting from the identity, yields (a, i, gens[i] * a) for every
        element a reached and every generator index i; each element is
        expanded once, after the edge that first reaches it.
        """
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for i, g in enumerate(gens):
                    b = self.mul(g, a)
                    yield a, i, b
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt

    def closure(self, gens) -> set:
        """The elements of the subgroup generated by gens."""
        return {self.identity} | {b for _, _, b in self.cayley_edges(gens)}

    @staticmethod
    def from_json(data) -> "FiniteGroup":
        order, table = _READ_GROUP(data)
        table = tuple(map(tuple, table))
        if table not in _GROUPS:  # checked once, then shared (immutable)
            try:
                _GROUPS[table] = FiniteGroup(table)
            except ValueError as exc:
                raise InputError(f"is not a group table: {exc}",
                                 "table") from None
        g = _GROUPS[table]
        if g.order != order:
            raise InputError(f"is {order}, but the table has order {g.order}",
                             "order")
        return g


class GSet(Value):
    """A finite set with a left action of a finite group.

    action[g] is the bijection of the carrier by g, and
    action[g*s] = action[g] o action[s] is checked for every g and every
    generator s, which gives it for every pair.
    """

    __slots__ = ("group", "carrier", "action")

    def __init__(self, group: FiniteGroup, carrier: FinSet, action):
        action = tuple(action)
        if len(action) != group.order:
            raise ValueError("need one bijection per group element")
        for m in action:
            if m.dom.size != carrier.size or m.cod.size != carrier.size:
                raise ValueError("action maps must be endomaps of the carrier")
            if not m.is_bijective():
                raise ValueError("action maps must be bijective")
        if action[group.identity].values != tuple(range(carrier.size)):
            raise ValueError("identity must act trivially")
        # left action: (g*s).x = g.(s.x) for the generators s gives every
        # product, by induction on the length of a word in them
        values = [m.values for m in action]
        for s in group.generators:
            for g in group.elements():
                if (tuple(map(values[g].__getitem__, values[s]))
                        != values[group.mul(g, s)]):
                    raise ValueError("action is not a homomorphism")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "action", action)

    def __repr__(self):
        return f"GSet(|G|={self.group.order}, |X|={self.carrier.size})"

    @staticmethod
    def from_json(data) -> "GSet":
        group, carrier, action = _READ_GSET(data)
        return GSet(group, carrier, [
            read_set_map(carrier, carrier, values, f"action[{i}]")
            for i, values in enumerate(action)])


def equivariant_set_maps(x: GSet, y: GSet) -> list:
    """All set maps f with f(g.a) = g.f(a) for every group element g.

    Checked on every element, not on a generating set, so that the two
    sides of the descent comparison do not rest on the same generators.
    The value tuples are filtered, and only the answers become `SetMap`s.
    """
    if x.group != y.group:
        raise ValueError("G-sets over different groups")
    # f(g.a) and g.f(a) for every a, read off the value tuples
    actions = [(gx.values, gy.values) for gx, gy in zip(x.action, y.action)]
    return [SetMap(x.carrier, y.carrier, f)
            for f in map_values(x.carrier, y.carrier)
            if all([f[a] for a in gx] == [gy[b] for b in f]
                   for gx, gy in actions)]


def fixed_coalgebra_morphisms(x: GSet, y: GSet) -> list:
    """Comonoid morphisms whose matrices are fixed by the group action.

    The group acts on a matrix C by P_Y(g) C P_X(g)^(-1), matching the
    diagonal action on the product of the carriers; the fixed morphisms
    are exactly the graphs of the equivariant maps.
    """
    if x.group != y.group:
        raise ValueError("G-sets over different groups")
    # a matrix fixed by the generators is fixed by every product of them
    actions = [(graph_matrix(y.action[g].values, y.carrier.size),
                graph_matrix(x.action[g].values, x.carrier.size).transpose())
               for g in x.group.generators]
    return [c for c in solve_coalgebra_morphisms(x.carrier, y.carrier)
            if all(matmul(matmul(py, c.matrix), px_inv) == c.matrix
                   for py, px_inv in actions)]


# the readers of input files, compiled once, and the group of each table read
_GROUPS = {}
_READ_GROUP = compile_reader({"order": int, "table": [[int]]})
_READ_GSET = compile_reader({"group": FiniteGroup.from_json,
                             "carrier": FinSet.from_json, "action": [[int]]})
