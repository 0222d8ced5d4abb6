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
`verify_m_identity` runs that walk once and checks it class by class:
it assembles each multiset over the census's pool and canonicalises it,
and the encoding and order must be the census's.  It certifies the
classes complete without enumerating a labelled chain: the orbit-counting
mass formula sums the integers prod |S_i|! / |Aut d| over the classes of
each size tuple and compares the sum with the closed-form count of
labelled chains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
    lengths = [len(e.sets) for e in entries]
    if max(lengths, default=0) > k:
        raise ValueError("entry longer than the ambient length")
    if k == 0:
        # a multiset of points assembles to the bare indexing set
        return FinDiagram([FinSet(n)], [])
    if max(lengths, default=0) < k:
        raise ValueError("no full-length entry: leading level would be empty")
    # values[i] is the map out of level i; blocks are laid out in entry
    # order, so a block's offset is the size of its level so far
    level_sizes = [0] * k
    values = [[] for _ in range(k)]
    for j, e in enumerate(entries):
        pad = k - lengths[j]
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


def _admissible_multisets(k: int, bounds, sizes) -> list:
    """Every multiset of pool entries, given by their set sizes, within
    the level bounds, once each, as a nondecreasing tuple of pool indices.

    bounds has length k+1: the last entry bounds the multiset size, the
    rest the levelwise total sizes.  An entry's weight is its padded
    sizes, plus 1 for the multiset size; the pool is cut into runs of
    consecutive entries of one weight (a length's classes come sorted by
    sizes, so a weight is one run), and each step keeps the runs whose
    weight fits in the headroom the bounds leave, testing each weight
    once.  A weight or headroom is one integer, a field per level; the
    headroom keeps a guard bit above each field, and a weight fits iff
    subtracting it clears none.  Multisets without a full-length entry
    are left out.
    """
    width = max(bounds).bit_length() + 1

    def packed(levels):  # field j, `width` bits wide, holds levels[j]
        return sum(n << width * j for j, n in enumerate(levels))
    guard = packed([1 << width - 1] * (k + 1))
    runs = []  # (weight, first index, end index, full length), in order
    for i, entry in enumerate(sizes):
        weight = packed((0,) * (k - len(entry)) + entry + (1,))
        if runs and runs[-1][0] == weight:
            runs[-1][2] = i + 1
        else:
            runs.append([weight, i, i + 1, len(entry) == k])
    found = []

    def walk(candidates, first, headroom, chosen, full):
        # the candidates are the entries of these runs from index `first` on
        if full:
            found.append(chosen)
        fits = [run for run in candidates
                if (headroom - run[0]) & guard == guard]
        for n, (weight, start, end, length_k) in enumerate(fits):
            rest = headroom - weight
            for i in range(max(start, first), end):
                walk(fits[n:], i, rest, chosen + (i,), full or length_k)
    walk(runs, 0, packed(bounds) | guard, (), False)
    return found


def _census(k: int, bounds: tuple, walked=None) -> tuple:
    """(classes, pool) of the k-diagrams within bounds, read off subtree
    shapes: (encoding, automorphism order, pool indices) of each class,
    sorted by encoding, and (shape, encoding, order) of each fiber a class
    is a multiset of, the empty fiber first, then the classes of each
    length j = 1..k-1 within the bounds of the j levels below the top.

    A shape, a rooted tree up to isomorphism, is its key: (number of
    children, the children's keys sorted ascending), which orders the
    classes of a level as `finsets._level_classes` does.  A pool entry is
    the shape whose children are its class's roots.  Each walk ranks the
    shapes met so far, numbers a class's roots by rank and each level
    below by (rank, parent's new label), as `finsets._canonical_form`
    does, and reads sizes, fibers and values off the levels.  |Aut| is
    prod |Aut c|^m m! over the distinct children c of multiplicity m.
    `walked` holds the shapes met so far and the shorter windows'
    censuses, for one outermost call.
    """
    shapes, done = walked or ({(0, ())}, {})
    if (k, bounds) in done:
        return done[k, bounds]
    pool = [((0, ()), ((), (), ()), 1)]
    for i in range(1, k):
        found, entries = _census(i, bounds[k - 1 - i:k - 1], (shapes, done))
        for encoding, order, indices in found:
            children = tuple(sorted([entries[x][0] for x in indices]))
            shapes.add((len(children), children))
            pool.append(((len(children), children), encoding, order))
    # a node below a level is packed as (its rank << shift) | parent
    shift = max(bounds).bit_length()
    mask = (1 << shift) - 1
    ranked = sorted(shapes)
    rank = {s: r for r, s in enumerate(ranked)}
    below = [sorted(rank[c] << shift for c in s[1]) for s in ranked]
    degree = [len(b) for b in below]
    roots = [rank[s] for s, _, _ in pool]
    auts = [order for _, _, order in pool]
    found = []
    for indices in _admissible_multisets(k - 1, bounds,
                                         [e[0] for _, e, _ in pool]):
        level = sorted([roots[i] for i in indices])
        counts, fibers, values = [len(level)], [], []
        for _ in range(k - 1):
            fibers.append(tuple(map(degree.__getitem__, level)))
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
    done[k, bounds] = found, pool
    return found, pool


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
    found, _ = _census(k, max_sizes)
    return [e for e, _, _ in found], [order for _, order, _ in found]


@dataclass(frozen=True)
class MonadClassRow:
    """One line of the census: a (k+1)-class with its preimage multiset."""
    encoding: tuple
    aut_order: int
    wreath_count: int
    preimage_sizes: tuple


@dataclass(frozen=True)
class MonadReport:
    """The census check: `enumerated_classes` counts the census's
    multisets and `assembled_classes` those that assemble to a class past
    the one before, so the two agree iff no class has two preimages and
    the census lists the classes in encoding order."""
    k: int
    bounds: tuple
    assembled_classes: int
    enumerated_classes: int
    rows: tuple
    encodings_match: bool
    aut_orders_match: bool
    mass_formula_holds: bool

    @property
    def passed(self) -> bool:
        return (self.assembled_classes == self.enumerated_classes
                and self.encodings_match and self.aut_orders_match
                and self.mass_formula_holds)


def verify_m_identity(k: int, bounds) -> MonadReport:
    """Check that assembly is a bijection onto the bounded (k+1)-classes.

    The census of (k+1)-diagrams, the walk `enumerate_diagrams` runs, is
    checked class by class: each multiset is assembled over the census's
    pool and canonicalised, its encoding must be the census's, and the
    order the canonicalising pass counts must be the census's, the wreath
    count prod |Aut e|^m m! over its entries e of multiplicity m.  The
    census must list each class once, in encoding order.  Completeness is
    checked by the orbit-counting mass formula: for every size tuple
    within bounds, prod |S_i|! / |Aut d| summed over the assembled
    classes must be the number of labelled chains, prod |S_{i+1}|^|S_i|.
    Aut d is a subgroup of prod Sym(S_i), so by Lagrange each orbit size
    is an integer, and an order that does not divide prod |S_i|! fails
    the formula, as does a missing or repeated class.
    """
    bounds = tuple(bounds)
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(bounds) != k + 1:
        raise ValueError("need k+1 bounds")
    found, entries = _census(k + 1, bounds)
    pool = []
    for _, (sizes, _, values), _ in entries:
        sets = [FinSet(n) for n in sizes]
        pool.append(FinDiagram(sets, map(SetMap, sets, sets[1:], values)))
    rows = []
    encodings_ok = aut_ok = divides = True
    mass = {}
    assembled, last = 0, ()
    for encoding, wreath, indices in found:
        d, aut = _canonical_form(assemble(k, [pool[i] for i in indices]))
        key = d.encoding()
        encodings_ok = encodings_ok and key == encoding
        aut_ok = aut_ok and aut == wreath
        assembled += last < key
        last = key
        orbit, rest = divmod(math.prod(map(math.factorial, key[0])), aut)
        divides = divides and not rest
        mass[key[0]] = mass.get(key[0], 0) + orbit
        rows.append(MonadClassRow(encoding, aut, wreath, tuple(
            entries[i][1][0] for i in indices)))
    labelled = {sizes: math.prod(t ** s for s, t in zip(sizes, sizes[1:]))
                for sizes in itertools.product(*(range(1, b + 1)
                                                 for b in bounds))}
    return MonadReport(k, bounds, assembled, len(found), tuple(rows),
                       encodings_ok, aut_ok, divides and mass == labelled)
