"""The free commutative monoid construction on diagram groupoids.

A multiset of k-diagrams assembles into a (k+1)-diagram: disjoint unions
level by level, with a final map recording which block each element came
from.  Entries shorter than k stand for fibers whose leading sets are
empty (a length-j entry is padded with k-j empty levels on the left); the
fully empty diagram marks an empty fiber.  With these fibers admitted,
assembly induces a bijection between bounded multisets and bounded
(k+1)-classes, with automorphism groups matching wreath-style counts.

This is how classes are generated: `enumerate_diagrams` assembles every
bounded multiset of shorter classes, recursively.  A multiset is a
nondecreasing tuple of indices into the pool of shorter classes, and one
pass over each assembled class's level classes gives both its canonical
form and its automorphism order; the pool's orders come from the census
that built it.  `verify_m_identity` certifies that census complete
without enumerating a labelled chain: the orbit-counting mass formula
sums the integers prod |S_i|! / |Aut d| over the classes of each size
tuple and compares the sum with the closed-form count of labelled chains.
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


def _pool(k: int, bounds) -> tuple:
    """(the fibers a bounded multiset draws from, their automorphism
    orders): the empty fiber, then the classes of each length j = 1..k
    within the bounds of the last j levels, with the orders their census
    gave.  The entries are canonical and sorted by (length, encoding)."""
    pool, orders = [FinDiagram([], [])], [1]
    for j in range(1, k + 1):
        classes, class_orders = enumerate_diagrams(j, bounds[k - j:k])
        pool.extend(classes)
        orders.extend(class_orders)
    return pool, orders


def _admissible_multisets(k: int, bounds, pool):
    """Every multiset of pool entries within the level bounds, once each,
    as a nondecreasing tuple of pool indices.

    bounds has length k+1: the last entry bounds the multiset size, the
    rest the levelwise total sizes.  An entry's weight is its padded
    sizes, plus 1 for the multiset size; the pool is cut into runs of
    consecutive entries of one weight (a length's classes come sorted by
    sizes, so a weight is one run), and each step keeps the runs whose
    weight fits in the headroom the bounds leave, testing each weight
    once.  Multisets without a full-length entry are not yielded.
    """
    runs = []  # (weight, first index, end index, full length), in order
    for i, e in enumerate(pool):
        weight = (0,) * (k - e.k) + e.sizes() + (1,)
        if runs and runs[-1][0] == weight:
            runs[-1][2] = i + 1
        else:
            runs.append([weight, i, i + 1, e.k == k])

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


def _assembled(k: int, bounds, pool):
    """(encoding, canonical form, automorphism order, pool indices) of the
    (k+1)-class each bounded multiset assembles to, in walk order; one
    `_canonical_form` call gives both the class's form and its order."""
    for indices in _admissible_multisets(k, bounds, pool):
        d, order = _canonical_form(assemble(k, [pool[i] for i in indices]))
        yield d.encoding(), d, order, indices


def enumerate_diagrams(k: int, max_sizes) -> tuple:
    """(one canonical representative per iso class with |S_i| <=
    max_sizes[i], the classes' automorphism orders).

    Each class is assembled from its multiset of fibers over S_k, so k = 1
    gives the bare sets and longer chains recurse on shorter ones.
    Deterministic output order (sorted by the canonical encoding).
    """
    max_sizes = tuple(max_sizes)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(max_sizes) != k:
        raise ValueError("need one bound per set")
    found = {key: (d, order) for key, d, order, _
             in _assembled(k - 1, max_sizes, _pool(k - 1, max_sizes)[0])}
    keys = sorted(found)
    return [found[key][0] for key in keys], [found[key][1] for key in keys]


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

    One walk over the bounded multisets assembles every class.  No class
    may have two preimage multisets, and the automorphism order of each
    class must equal the wreath count of its multiset, prod |Aut e|^m m!
    over its entries e of multiplicity m (read off the pool's census).
    Completeness is checked against a closed form, by the orbit-counting
    mass formula: for every size tuple within bounds, the sum over
    assembled multisets of prod |S_i|! / |Aut d| must equal the number of
    labelled chains, prod |S_{i+1}|^|S_i|.  Aut d is a subgroup of
    prod Sym(S_i), so by Lagrange each orbit size is an integer, and an
    order that does not divide prod |S_i|! fails the formula.  A missing
    or repeated class, or a wrong automorphism order, breaks the sum.
    """
    bounds = tuple(bounds)
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(bounds) != k + 1:
        raise ValueError("need k+1 bounds")
    pool, orders = _pool(k, bounds)
    by_class = {}  # encoding -> [order, first preimage, preimage count]
    for key, _, order, indices in _assembled(k, bounds, pool):
        by_class.setdefault(key, [order, indices, 0])[2] += 1
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
