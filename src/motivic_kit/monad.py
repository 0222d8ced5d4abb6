"""The free commutative monoid construction on diagram groupoids.

A multiset of k-diagrams assembles into a (k+1)-diagram: disjoint unions
level by level, with a final map recording which block each element came
from.  Entries shorter than k stand for fibers whose leading sets are
empty (a length-j entry is padded with k-j empty levels on the left); the
fully empty diagram marks an empty fiber.  With these fibers admitted,
assembly induces a bijection between bounded multisets and bounded
(k+1)-classes, with automorphism groups matching wreath-style counts.

The same construction on coefficients sends a finite set S to the tensor
power E^(x)S of a comonoid E, functorially in isomorphisms of S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ._value import Value
from .artin import ArtinComonoid, tensor_map_matrix
from .finsets import (DiagramIso, FinDiagram, FinSet, SetMap,
                      automorphism_group, automorphisms, canonical_form,
                      enumerate_diagrams)
from .qlinalg import QMatrix, kron_power, matmul


class MultisetOfDiagrams(Value):
    """An unordered collection of fiber diagrams for one ambient length k.

    Entries are diagrams of length at most k; an entry of length j < k is
    read as a chain whose first k-j sets are empty.  Each entry's class
    key (length, canonical encoding) is computed once: `class_keys` is
    their sorted tuple, and entries are stored in the same order, so equal
    multisets compare equal.
    """

    __slots__ = ("k", "entries", "class_keys")

    def __init__(self, k: int, entries):
        entries = list(entries)
        if len(entries) == 0:
            raise ValueError("empty multiset rejected (sets must be nonempty)")
        for e in entries:
            if e.k > k:
                raise ValueError("entry longer than the ambient length")
        keyed = sorted((((e.k, canonical_form(e).encoding()), e)
                        for e in entries),
                       key=lambda pair: (pair[0], pair[1].encoding()))
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


def _entry_pool(k: int, bounds) -> list:
    """Canonical candidate entries: full and padded classes within bounds."""
    pool = [FinDiagram([], [])]  # the empty fiber
    for j in range(1, k + 1):
        pad = k - j
        sub_bounds = bounds[pad:k]
        pool.extend(enumerate_diagrams(j, sub_bounds))
    return pool


def _admissible_multisets(k: int, bounds):
    """All multisets of pool entries within the level bounds.

    bounds has length k+1; the last entry bounds the multiset size, the
    rest bound the levelwise total sizes.
    """
    pool = _entry_pool(k, bounds)
    for n in range(1, bounds[k] + 1):
        for combo in itertools.combinations_with_replacement(pool, n):
            level_sizes = [0] * k
            ok = False
            for e in combo:
                p = k - e.k
                if p == 0:
                    ok = True
                for i in range(p, k):
                    level_sizes[i] += e.sets[i - p].size
            if not ok:
                continue
            if all(level_sizes[i] <= bounds[i] for i in range(k)):
                yield MultisetOfDiagrams(k, combo)


def wreath_order(m: MultisetOfDiagrams) -> int:
    """Product of entry automorphism orders times factorials of multiplicities."""
    counts = {}
    auts = {}
    for key, e in zip(m.class_keys, m.entries):
        counts[key] = counts.get(key, 0) + 1
        if key not in auts:
            auts[key] = automorphism_group(e).order
    total = 1
    for key, mult in counts.items():
        total *= auts[key] ** mult
        for i in range(2, mult + 1):
            total *= i
    return total


@dataclass(frozen=True)
class MonadClassRow:
    """One line of the census: a (k+1)-class with its preimage multiset."""
    encoding: tuple
    aut_order: int
    wreath_count: int
    preimage_sizes: tuple


@dataclass(frozen=True)
class MonadReport:
    k: int
    bounds: tuple
    assembled_classes: int
    enumerated_classes: int
    rows: tuple
    preimages_unique: bool
    aut_orders_match: bool

    @property
    def passed(self) -> bool:
        return (self.assembled_classes == self.enumerated_classes
                and self.preimages_unique and self.aut_orders_match)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"k={self.k} bounds={list(self.bounds)}: "
                f"{self.assembled_classes} assembled classes = "
                f"{self.enumerated_classes} enumerated, {verdict}")


def verify_m_identity(k: int, bounds) -> MonadReport:
    """Check that assembly reproduces the bounded (k+1)-class census.

    Every bounded (k+1)-class must arise from exactly one multiset of
    classes, and the automorphism order of the assembled diagram (brute
    forced) must equal the wreath-style count from the multiset.
    """
    bounds = tuple(bounds)
    if len(bounds) != k + 1:
        raise ValueError("need k+1 bounds")
    by_class = {}
    for m in _admissible_multisets(k, bounds):
        d = canonical_form(assemble(m))
        by_class.setdefault(d.encoding(), []).append(m)
    target = enumerate_diagrams(k + 1, bounds)
    target_keys = {d.encoding(): d for d in target}
    preimages_unique = all(
        len({m.class_keys for m in ms}) == 1
        for ms in by_class.values())
    rows = []
    aut_ok = True
    for key in sorted(by_class):
        d = target_keys.get(key)
        ms = by_class[key]
        rep = ms[0]
        wreath = wreath_order(rep)
        if d is None:
            aut = -1
            aut_ok = False
        else:
            aut = automorphism_group(d).order
            brute = len(automorphisms(d))
            if not (aut == brute == wreath):
                aut_ok = False
        rows.append(MonadClassRow(key, aut, wreath,
                                  tuple(e.sizes() for e in rep.entries)))
    same = set(by_class) == set(target_keys)
    return MonadReport(k, bounds, len(by_class), len(target), tuple(rows),
                       preimages_unique, aut_ok and same)


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
