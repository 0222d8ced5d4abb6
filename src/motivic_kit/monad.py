"""The free commutative monoid construction on diagram groupoids.

A multiset of k-diagrams assembles into a (k+1)-diagram: disjoint unions
level by level, with a final map recording which block each element came
from.  Entries shorter than k stand for fibers whose leading sets are
empty (a length-j entry is padded with k-j empty levels on the left); the
fully empty diagram marks an empty fiber.  With these fibers admitted,
assembly induces a bijection between bounded multisets and bounded
(k+1)-classes, with automorphism groups matching wreath-style counts.

`enumerate_diagrams` walks every bounded multiset of shorter classes,
recursively, a multiset as a nondecreasing tuple of indices into the pool
of shorter classes, and reads each class's canonical encoding and order
off the subtree shapes of its fibers, with no diagram built per class.
`verify_m_identity` checks that census another way: it assembles each
multiset over the census's pool and canonicalises it, and certifies the
classes complete without enumerating a labelled chain: the orbit-counting
mass formula sums the integers prod |S_i|! / |Aut d| over the classes of
each size tuple and compares the sum with the closed-form count of
labelled chains.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import le, sub

from .finsets import FinDiagram, FinSet, SetMap, _canonical_form

def assemble(k: int, entries) -> FinDiagram:
    """Assemble fiber diagrams of length at most k into one (k+1)-diagram.

    Level i of the result is the disjoint union of the entry sets at that
    level (entries shorter than k contribute nothing at their padded
    levels), and the final map sends the i-th block to element i of
    {1..n}.  At least one entry must have full length k, otherwise the
    first level would be empty.
    """
    n = len(entries)
    if any(e.k > k for e in entries):
        raise ValueError("entry longer than the ambient length")
    if k == 0:
        # a multiset of points assembles to the bare indexing set
        return FinDiagram([FinSet(n)], [])
    if all(e.k < k for e in entries):
        raise ValueError("no full-length entry: leading level would be empty")
    # values[i] is the map out of level i; blocks are laid out in entry
    # order, so a block's offset is the size of its level so far
    level_sizes = [0] * k
    values = [[] for _ in range(k)]
    for j, e in enumerate(entries):
        pad = k - e.k
        for i in range(pad, k):
            size = e.sets[i - pad].size
            if i < k - 1:
                shift = level_sizes[i + 1]
                values[i].extend([shift + v for v in e.maps[i - pad].values])
            else:  # the final map sends block j to element j
                values[i].extend([j] * size)
            level_sizes[i] += size
    sets = [FinSet(s) for s in level_sizes] + [FinSet(n)]
    return FinDiagram(sets, [SetMap(sets[i], sets[i + 1], values[i])
                             for i in range(k)])


def _admissible_multisets(k: int, bounds, sizes):
    """Every multiset of pool entries, given by their set sizes, within
    the level bounds, once each, as a nondecreasing tuple of pool indices.

    bounds has length k+1: the last entry bounds the multiset size, the
    rest the levelwise total sizes.  An entry's weight is its padded
    sizes, plus 1 for the multiset size; the pool is cut into runs of
    consecutive entries of one weight (a length's classes come sorted by
    sizes, so a weight is one run), and each step keeps the runs whose
    weight fits in the headroom the bounds leave, testing each weight
    once.  Multisets without a full-length entry are not yielded.
    """
    runs = []  # (weight, first index, end index, full length), in order
    for i, entry in enumerate(sizes):
        weight = (0,) * (k - len(entry)) + entry + (1,)
        if runs and runs[-1][0] == weight:
            runs[-1][2] = i + 1
        else:
            runs.append([weight, i, i + 1, len(entry) == k])

    def walk(candidates, first, headroom, chosen, full):
        # the candidates are the entries of these runs from index `first` on
        if full:
            yield chosen
        fits = [run for run in candidates if all(map(le, run[0], headroom))]
        for n, (weight, start, end, length_k) in enumerate(fits):
            rest = tuple(map(sub, headroom, weight))
            for i in range(max(start, first), end):
                yield from walk(fits[n:], i, rest, chosen + (i,),
                                full or length_k)
    return walk(runs, 0, tuple(bounds), (), False)


def _census(k: int, bounds: tuple) -> list:
    """(encoding, automorphism order, pool indices) of each class of
    k-diagrams within bounds, sorted by encoding, read off subtree shapes.

    A shape, a rooted tree up to isomorphism, is its key: (number of
    children, the children's keys sorted ascending), which orders the
    classes of a level as `finsets._level_classes` does.  A pool entry is
    the shape whose children are its class's roots.  Each walk ranks the
    shapes met so far, numbers a class's roots by rank and each level
    below by (rank, parent's new label), as `finsets._canonical_form`
    does, and reads sizes, fibers and values off the levels.  |Aut| is
    prod |Aut c|^m m! over the distinct children c of multiplicity m.
    The shapes and the shorter windows' censuses live for this call.
    """
    orders = {(0, ()): 1}  # every shape met -> its automorphism order
    done = {}  # (length, bounds) -> (its census, its pool's shapes)

    def classes(j, window):
        if (j, window) in done:
            return done[j, window]
        pool, sizes = [(0, ())], [()]
        for i in range(1, j):
            found, entries = classes(i, window[j - 1 - i:j - 1])
            for encoding, order, indices in found:
                children = tuple(sorted([entries[x] for x in indices]))
                pool.append((len(children), children))
                orders[pool[-1]] = order
                sizes.append(encoding[0])
        # a node below a level is packed as (its rank << shift) | parent
        shift = max(window).bit_length()
        mask = (1 << shift) - 1
        ranked = sorted(orders)
        rank = {s: r for r, s in enumerate(ranked)}
        below = [sorted(rank[c] << shift for c in s[1]) for s in ranked]
        roots = [rank[s] for s in pool]
        auts = [orders[s] for s in pool]
        found = []
        for indices in _admissible_multisets(j - 1, window, sizes):
            level = sorted([roots[i] for i in indices])
            counts, fibers, values = [len(level)], [], []
            for _ in range(j - 1):
                fibers.append(tuple([len(below[r]) for r in level]))
                packed = sorted([c | p for p, r in enumerate(level)
                                 for c in below[r]])
                level = [c >> shift for c in packed]
                values.append(tuple([c & mask for c in packed]))
                counts.append(len(level))
            order = math.prod(map(auts.__getitem__, indices))
            run = 1  # the multiplicity so far of a run of equal entries
            for a, b in zip(indices, indices[1:]):
                run = run + 1 if a == b else 1
                order *= run
            found.append(((tuple(counts[::-1]), tuple(fibers),
                           tuple(values[::-1])), order, indices))
        found.sort()
        done[j, window] = found, pool
        return found, pool
    return classes(k, bounds)[0]


def enumerate_diagrams(k: int, max_sizes) -> tuple:
    """(the canonical encoding of each iso class with |S_i| <=
    max_sizes[i], the classes' automorphism orders), sorted by encoding.

    An encoding is `FinDiagram.encoding` of the canonical representative:
    (sizes, fiber sizes right to left, map values).  A class is the
    multiset of its fibers over S_k, so k = 1 gives the bare sets and
    longer chains recurse on shorter ones.
    """
    max_sizes = tuple(max_sizes)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(max_sizes) != k:
        raise ValueError("need one bound per set")
    found = _census(k, max_sizes)
    return [e for e, _, _ in found], [order for _, order, _ in found]


def _pool(k: int, bounds) -> tuple:
    """(the fibers a bounded multiset draws from, their automorphism
    orders): the empty fiber, then the classes of each length j = 1..k
    within the bounds of the last j levels, built from the encodings and
    with the orders `enumerate_diagrams` gives, so the entries are
    canonical and sorted by (length, encoding)."""
    pool, orders = [FinDiagram([], [])], [1]
    for j in range(1, k + 1):
        encodings, class_orders = enumerate_diagrams(j, bounds[k - j:k])
        for sizes, _, values in encodings:
            sets = [FinSet(n) for n in sizes]
            pool.append(FinDiagram(sets, map(SetMap, sets, sets[1:], values)))
        orders.extend(class_orders)
    return pool, orders


@dataclass(frozen=True)
class MonadClassRow:
    """One line of the census: a (k+1)-class with its preimage multiset."""
    encoding: tuple
    aut_order: int
    wreath_count: int
    preimage_sizes: tuple


@dataclass(frozen=True)
class MonadReport:
    """The census: `enumerated_classes` counts the multisets the walk
    enumerated and `assembled_classes` the distinct (k+1)-classes they
    assemble to, so the two agree iff no class has two preimages."""
    k: int
    bounds: tuple
    assembled_classes: int
    enumerated_classes: int
    rows: tuple
    aut_orders_match: bool
    mass_formula_holds: bool

    @property
    def passed(self) -> bool:
        return (self.assembled_classes == self.enumerated_classes
                and self.aut_orders_match and self.mass_formula_holds)


def verify_m_identity(k: int, bounds) -> MonadReport:
    """Check that assembly is a bijection onto the bounded (k+1)-classes.

    One walk over the multisets of the census's pool assembles and
    canonicalises every class.  No class may have two preimage
    multisets, and the automorphism order of each class must equal the
    wreath count of its multiset, prod |Aut e|^m m! over its entries e of
    multiplicity m (read off the pool's census).  Completeness is checked
    against a closed form, by the orbit-counting mass formula: for every
    size tuple within bounds, the sum over assembled multisets of
    prod |S_i|! / |Aut d| must equal the number of labelled chains,
    prod |S_{i+1}|^|S_i|.  Aut d is a subgroup of prod Sym(S_i), so by
    Lagrange each orbit size is an integer, and an order that does not
    divide prod |S_i|! fails the formula.  A missing or repeated class,
    or a wrong automorphism order, breaks the sum.
    """
    bounds = tuple(bounds)
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(bounds) != k + 1:
        raise ValueError("need k+1 bounds")
    pool, orders = _pool(k, bounds)
    by_class = {}  # encoding -> [order, first preimage, preimage count]
    for indices in _admissible_multisets(k, bounds, [e.sizes() for e in pool]):
        d, order = _canonical_form(assemble(k, [pool[i] for i in indices]))
        by_class.setdefault(d.encoding(), [order, indices, 0])[2] += 1
    rows = []
    aut_ok = divides = True
    mass = {}
    for key in sorted(by_class):
        aut, indices, count = by_class[key]
        sizes = key[0]
        wreath = math.prod(orders[i] ** mult * math.factorial(mult)
                           for i, mult in Counter(indices).items())
        aut_ok = aut_ok and aut == wreath
        orbit, rest = divmod(math.prod(map(math.factorial, sizes)), aut)
        divides = divides and not rest
        mass[sizes] = mass.get(sizes, 0) + count * orbit
        rows.append(MonadClassRow(key, aut, wreath,
                                  tuple(pool[i].sizes() for i in indices)))
    labelled = {sizes: math.prod(t ** s for s, t in zip(sizes, sizes[1:]))
                for sizes in itertools.product(*(range(1, b + 1)
                                                 for b in bounds))}
    enumerated = sum(count for _, _, count in by_class.values())
    return MonadReport(k, bounds, len(by_class), enumerated, tuple(rows),
                       aut_ok, divides and mass == labelled)
