"""Finite group actions on finite sets and the descent comparison.

A finite group is a full multiplication table; a G-set is a set with a
homomorphic family of bijections.  These model the Galois-theoretic data
of the zero-dimensional situation: equivariant set maps on one side,
group-fixed comonoid morphisms on the other, with the graph construction
matching them up.  Each side is a product over the orbits of X and is
returned as its factors, never glued: one from the orbits and
stabilisers of X, the other from the orbitals of Y x X.
"""

from __future__ import annotations

import itertools

from ._value import InputError, Value, compile_reader
from .artin import CoalgMorphism, graph_matrix
from .finsets import FinSet, SetMap, read_set_map
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
        maps = [read_set_map(carrier, carrier, values, f"action[{i}]")
                for i, values in enumerate(action)]
        try:
            return GSet(group, carrier, maps)
        except ValueError as exc:  # named with the path the readers add
            raise InputError(f"is not a group action: {exc}",
                             "action") from None


def _check_same_group(x: GSet, y: GSet):
    """Refuse two G-sets over different groups, for either side."""
    if x.group != y.group:
        raise ValueError("G-sets over different groups")


def equivariant_set_maps(x: GSet, y: GSet) -> dict:
    """The set maps f with f(g.a) = g.f(a) for every group element g, as
    factors: each orbit of X, the tuple of its points, maps to the maps
    from it (its i-th point is i) in lexicographic order.  On the orbit of
    a, f is fixed by b = f(a) through f(g.a) = g.b, well defined iff
    Stab(a) fixes b: Hom_G(X, Y) is the product over the orbits of
    Y^Stab(a), read off every group element, not only the generators.
    """
    _check_same_group(x, y)
    actions = [(gx.values, gy.values) for gx, gy in zip(x.action, y.action)]
    factors = {}
    for a in range(x.carrier.size):
        if min(gx[a] for gx, _ in actions) == a:  # the least of its orbit
            stab = [gy for gx, gy in actions if gx[a] == a]
            # the orbit's points g.a, each with g's value tuple on Y
            reach = dict(sorted({gx[a]: gy for gx, gy in actions}.items()))
            factors[tuple(reach)] = [SetMap(FinSet(len(reach)), y.carrier,
                                            [gy[b] for gy in reach.values()])
                                     for b in range(y.carrier.size)
                                     if all(gy[b] == b for gy in stab)]
    return factors


def fixed_coalgebra_morphisms(x: GSet, y: GSet) -> dict:
    """Comonoid morphisms whose matrices are fixed by the group action, as
    factors keyed and ordered as those of `equivariant_set_maps`.  g moves
    entry (b, a) to (g.b, g.a), so a fixed matrix is constant on the
    orbitals, the orbits of G on Y x X, joined by union-find over the
    generators; one exact product per generator moves their indicators,
    the rows of one matrix, and the unmoved ones are kept.  Over an orbit
    of X a fixed graph is a kept orbital with one entry per point, checked
    as a morphism from the orbit: a glued matrix passes iff its parts do.
    """
    _check_same_group(x, y)
    nx, n = x.carrier.size, x.carrier.size * y.carrier.size
    # entry k = b * nx + a of a matrix moves to (g.b) * nx + g.a
    moves = [[gy[k // nx] * nx + gx[k % nx] for k in range(n)]
             for gx, gy in ((x.action[g].values, y.action[g].values)
                            for g in x.group.generators)]
    label = _orbit_labels(moves, n)
    basis = graph_matrix(label, max(label) + 1)
    # row O times the graph of a move is the indicator of move^-1(O), with
    # as many terms as O: a row that changes has a term the product lacks
    moved = {k // n for move in moves
             for k, _ in set(basis.terms).difference(
                 matmul(basis, graph_matrix(move, n)).terms)}
    factors = {}  # X-orbit -> its kept graphs; met by least point, in order
    for o, row in itertools.groupby(basis.terms, lambda t: t[0] // n):
        entries = [k % n for k, _ in row]
        part = {k % nx: k // nx for k in entries}
        orbit = tuple(sorted(part))
        graphs = factors.setdefault(orbit, [])
        if o not in moved and len(part) == len(entries):
            graphs.append([part[a] for a in orbit])
    return {orbit: [CoalgMorphism(graph_matrix(values, y.carrier.size),
                                  FinSet(len(orbit)), y.carrier)
                    for values in sorted(graphs)]
            for orbit, graphs in factors.items()}


def _orbit_labels(moves, n: int) -> list:
    """The orbit of each point of range(n) under the permutations `moves`,
    by union-find, numbered in the order of their least points."""
    root = list(range(n))
    def find(k):
        while root[k] != k:
            k = root[k]
        return k
    for move in moves:
        for k, j in enumerate(move):
            root[find(k)] = find(j)
    first = {}
    return [first.setdefault(find(k), len(first)) for k in range(n)]


# the readers of input files, compiled once, and the group of each table read
_GROUPS = {}
_READ_GROUP = compile_reader({"order": int, "table": [[int]]})
_READ_GSET = compile_reader({"group": FiniteGroup.from_json,
                             "carrier": FinSet.from_json, "action": [[int]]})
