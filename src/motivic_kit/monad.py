"""The free commutative monoid construction on diagram groupoids.

A multiset of k-diagrams assembles into a (k+1)-diagram: disjoint unions
level by level, with a final map recording which block each element came
from.  Entries shorter than k stand for fibers whose leading sets are
empty (a length-j entry is padded with k-j empty levels on the left); the
fully empty diagram marks an empty fiber.  With these fibers admitted,
assembly induces a bijection between bounded multisets and bounded
(k+1)-classes, with automorphism groups matching wreath-style counts.

This is how classes are generated: `enumerate_diagrams` assembles every
bounded multiset of shorter classes, recursively.  `verify_m_identity`
certifies that census complete without enumerating a labelled chain: the
orbit-counting mass formula sums prod |S_i|! / |Aut d| over the classes of
each size tuple and compares it with the closed-form count of labelled
chains.

The same construction on coefficients sends a finite set S to the tensor
power E^(x)S of a comonoid E, functorially in isomorphisms of S.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, le, sub

from ._value import Value
from .artin import ArtinComonoid, tensor_map_matrix
from .finsets import (DiagramIso, FinDiagram, FinSet, SetMap,
                      automorphism_order, canonical_form)
from .qlinalg import QMatrix, kron_power, matmul


class MultisetOfDiagrams(Value):
    """An unordered collection of fiber diagrams for one ambient length k.

    Entries are diagrams of length at most k; an entry of length j < k is
    read as a chain whose first k-j sets are empty.  Each entry's class
    key (length, canonical encoding) is computed once, or passed in
    `class_keys`: `class_keys` is their sorted tuple, and entries are
    stored in the same order, so equal multisets compare equal.
    """

    __slots__ = ("k", "entries", "class_keys")

    def __init__(self, k: int, entries, class_keys=None):
        entries = list(entries)
        if len(entries) == 0:
            raise ValueError("empty multiset rejected (sets must be nonempty)")
        if any(e.k > k for e in entries):
            raise ValueError("entry longer than the ambient length")
        if class_keys is None:  # one class's entries by their encoding
            entries.sort(key=FinDiagram.encoding)
            class_keys = [(e.k, canonical_form(e).encoding()) for e in entries]
        keyed = sorted(zip(class_keys, entries, strict=True), key=itemgetter(0))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", tuple(e for _, e in keyed))
        object.__setattr__(self, "class_keys", tuple(c for c, _ in keyed))

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self):
        return f"MultisetOfDiagrams(k={self.k}, n={len(self.entries)})"


def assemble(m: MultisetOfDiagrams) -> FinDiagram:
    """Assemble a multiset of fiber diagrams into one (k+1)-diagram.

    Level i of the result is the disjoint union of the entry sets at that
    level (entries shorter than k contribute nothing at their padded
    levels), and the final map sends the i-th block to element i of
    {1..n}.  At least one entry must have full length k, otherwise the
    first level would be empty.
    """
    k = m.k
    n = len(m.entries)
    if k == 0:
        # a multiset of points assembles to the bare indexing set
        return FinDiagram([FinSet(n)], [])
    pads = [k - e.k for e in m.entries]
    if min(pads) > 0:
        raise ValueError("no full-length entry: leading level would be empty")
    # block offsets per level
    level_sizes = [0] * k
    offsets = []
    for e, p in zip(m.entries, pads):
        offs = [None] * k
        for i in range(p, k):
            offs[i] = level_sizes[i]
            level_sizes[i] += e.sets[i - p].size
        offsets.append(offs)
    sets = [FinSet(s) for s in level_sizes] + [FinSet(n)]
    maps = []
    for i in range(k - 1):
        values = [0] * level_sizes[i]
        for e, p, offs in zip(m.entries, pads, offsets):
            if i < p:
                continue
            em = e.maps[i - p]
            for x in range(em.dom.size):
                values[offs[i] + x] = offs[i + 1] + em.values[x]
        maps.append(SetMap(sets[i], sets[i + 1], values))
    last = [0] * level_sizes[k - 1]
    for j, (e, p, offs) in enumerate(zip(m.entries, pads, offsets)):
        if k - 1 < p:
            continue
        for x in range(e.sets[k - 1 - p].size):
            last[offs[k - 1] + x] = j
    maps.append(SetMap(sets[k - 1], sets[k], last))
    return FinDiagram(sets, maps)


def _admissible_multisets(k: int, bounds):
    """Every multiset of pool entries within the level bounds, once each.

    bounds has length k+1: the last entry bounds the multiset size, the
    rest the levelwise total sizes.  Pool indices are chosen nondecreasing,
    and each step keeps the candidates whose weight (padded entry sizes,
    plus 1 for the multiset size) fits in the headroom the bounds leave.
    Pool entries are canonical, so their class keys are their encodings.
    Multisets without a full-length entry are not yielded.
    """
    pool = [FinDiagram([], [])]  # the empty fiber, then padded classes
    for j in range(1, k + 1):
        pool.extend(enumerate_diagrams(j, bounds[k - j:k]))
    keys = [(e.k, e.encoding()) for e in pool]
    weights = [(0,) * (k - e.k) + e.sizes() + (1,) for e in pool]

    def walk(candidates, headroom, chosen, full):
        if full:
            yield MultisetOfDiagrams(k, [pool[i] for i in chosen],
                                     [keys[i] for i in chosen])
        fits = [i for i in candidates if all(map(le, weights[i], headroom))]
        for n, i in enumerate(fits):
            yield from walk(fits[n:], tuple(map(sub, headroom, weights[i])),
                            chosen + [i], full or pool[i].k == k)
    return walk(range(len(pool)), tuple(bounds), [], False)


def enumerate_diagrams(k: int, max_sizes) -> list:
    """One canonical representative per iso class with |S_i| <= max_sizes[i].

    Each class is assembled from its multiset of fibers over S_k, so k = 1
    gives the bare sets and longer chains recurse on shorter ones.
    Deterministic output order (sorted by the canonical encoding).
    """
    max_sizes = tuple(max_sizes)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(max_sizes) != k:
        raise ValueError("need one bound per set")
    found = {}
    for m in _admissible_multisets(k - 1, max_sizes):
        c = canonical_form(assemble(m))
        found[c.encoding()] = c
    return [found[key] for key in sorted(found)]


def wreath_order(m: MultisetOfDiagrams, auts=None) -> int:
    """Product of entry automorphism orders times factorials of multiplicities;
    a dict `auts` (class key -> order) passed in is shared and filled in."""
    auts = {} if auts is None else auts
    counts = {}
    for key, e in zip(m.class_keys, m.entries):
        counts[key] = counts.get(key, 0) + 1
        if key not in auts:
            auts[key] = automorphism_order(e)
    return math.prod(auts[key] ** mult * math.factorial(mult)
                     for key, mult in counts.items())


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

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"k={self.k} bounds={list(self.bounds)}: "
                f"{self.assembled_classes} assembled classes = "
                f"{self.enumerated_classes} enumerated, {verdict}")


def verify_m_identity(k: int, bounds) -> MonadReport:
    """Check that assembly is a bijection onto the bounded (k+1)-classes.

    One walk over the bounded multisets assembles every class.  No class
    may have two preimage multisets, and the automorphism order of each
    class must equal the wreath-style count from its multiset.
    Completeness is checked against a closed form, by the orbit-counting
    mass formula: for every size tuple within bounds, the sum over
    assembled multisets of prod |S_i|! / |Aut d| must equal the number of
    labelled chains, prod |S_{i+1}|^|S_i|.  A missing or repeated class,
    or a wrong automorphism order, breaks the sum.
    """
    bounds = tuple(bounds)
    if len(bounds) != k + 1:
        raise ValueError("need k+1 bounds")
    by_class = {}
    enumerated = 0
    for m in _admissible_multisets(k, bounds):
        enumerated += 1
        d = canonical_form(assemble(m))
        by_class.setdefault(d.encoding(), (d, []))[1].append(m)
    rows = []
    aut_ok = True
    mass = {}
    entry_auts = {}
    for key in sorted(by_class):
        d, ms = by_class[key]
        aut = automorphism_order(d)
        wreath = wreath_order(ms[0], entry_auts)
        aut_ok = aut_ok and aut == wreath
        orbit = Fraction(math.prod(map(math.factorial, d.sizes())), aut)
        mass[d.sizes()] = mass.get(d.sizes(), 0) + len(ms) * orbit
        rows.append(MonadClassRow(key, aut, wreath,
                                  tuple(e.sizes() for e in ms[0].entries)))
    labelled = {sizes: math.prod(t ** s for s, t in zip(sizes, sizes[1:]))
                for sizes in itertools.product(*(range(1, b + 1)
                                                 for b in bounds))}
    return MonadReport(k, bounds, len(by_class), enumerated, tuple(rows),
                       aut_ok, mass == labelled)


def tensor_power_comonoid(e: ArtinComonoid, s: int) -> ArtinComonoid:
    """The comonoid structure on the s-fold tensor power of a comonoid.

    The counit is the Kronecker power of the counit; the comultiplication
    is the Kronecker power of the comultiplication followed by the shuffle
    taking (x1,x1',...,xs,xs') to ((x1..xs),(x1'..xs')).
    """
    n = e.size
    counit = kron_power(e.counit, s)
    separate = [*range(0, 2 * s, 2), *range(1, 2 * s, 2)]
    comult = matmul(tensor_map_matrix(n, separate, 2 * s),
                    kron_power(e.comult, s))
    return ArtinComonoid(FinSet(n ** s), counit, comult)


def omega_power(e: ArtinComonoid, d: FinDiagram) -> ArtinComonoid:
    """The comonoid E^(x)S1 attached to a diagram S1 -> ... -> Sk, k >= 1."""
    if d.k < 1:
        raise ValueError("need a diagram of length at least 1")
    return tensor_power_comonoid(e, d.sets[0].size)


def functoriality_on_iso(iso: DiagramIso, e: ArtinComonoid) -> QMatrix:
    """The permutation matrix on E^(x)S1 induced by the first component.

    Sends the basis vector indexed by (x_i) to the one indexed by
    (x'_j) with x'_{sigma(i)} = x_i; compatible with composition of
    isomorphisms and a comonoid automorphism of the tensor power.
    """
    if iso.source.k < 1:
        raise ValueError("need diagrams of length at least 1")
    sigma = iso.components[0]
    return tensor_map_matrix(e.size, sigma.inverse().values, sigma.dom.size)
