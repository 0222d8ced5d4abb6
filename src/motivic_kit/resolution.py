"""The truncated cosimplicial tower of morphism spaces and its equalizer.

Level 0 is the full matrix space Hom(X, Y); level k has one component per
bounded class of chains S1 -> ... -> Sk, holding matrices
Hom(X^(x)S1, Y) fixed under the automorphisms of the chain.  The empty
tensor power participates as the size-0 class, contributing the unit
condition; without it, scalar multiples of graphs would survive the
binary equation alone.

The two coface maps out of level 0 send f to "multiply after applying f
on every factor" and "apply f after multiplying the factors".  A matrix
equalizes them exactly when its entries are idempotent (size-2 class,
diagonal), orthogonal within each row (size-2 class, off-diagonal), and
its rows sum to one (size-0 class) -- that is, exactly when it is the
transposed graph of a set map in the opposite direction.  Level-1-to-2
cofaces and the codegeneracies are projections and fiberwise
multiplications; the cosimplicial identities hold on the nose and are
checked in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .artin import graph_matrix, solve_coalgebra_morphisms, tensor_map_matrix
from .finsets import (FinDiagram, FinSet, SetMap, all_maps,
                      automorphism_group)
from .qlinalg import QMatrix, kron, kron_power, matmul, tensor_index_map


def mult_along(n: int, fibers) -> QMatrix:
    """Matrix of the multiplication X^(x)(sum fibers) -> X^(x)(len fibers).

    Column indices are grouped into consecutive blocks by the fiber sizes,
    and each block is multiplied into one factor: the Kronecker product of
    the per-fiber `iterated_mult`.  An empty fiber inserts the unit.
    """
    out = QMatrix.identity(1)
    for size in fibers:
        out = kron(out, iterated_mult(n, size))
    return out


def iterated_mult(n: int, s: int) -> QMatrix:
    """The s-ary multiplication X^(x)s -> X; s = 0 gives the unit column.

    It is the transposed graph of the diagonal X -> X^(x)s, |X| = n.  A
    FinSet is never empty, so n = 0 is built apart: the 0 x 0^s matrix.
    """
    if n == 0:
        return QMatrix.zeros(0, 0 ** s)
    return tensor_map_matrix(n, (0,) * s, 1).transpose()


def coface_d0(f: QMatrix, s: int) -> QMatrix:
    """Apply f on every tensor factor, then multiply in the target."""
    return matmul(iterated_mult(f.rows, s), kron_power(f, s))


def coface_d1(f: QMatrix, s: int) -> QMatrix:
    """Multiply the tensor factors in the source, then apply f."""
    return matmul(f, iterated_mult(f.cols, s))


def level2_coface_d0(family: dict, fibers, ny: int) -> QMatrix:
    """Apply the family on each fiber, then multiply the results."""
    tensor = QMatrix.identity(1)
    for size in fibers:
        tensor = kron(tensor, family[size])
    return matmul(iterated_mult(ny, len(fibers)), tensor)


def level2_coface_d1(family: dict, fibers) -> QMatrix:
    """Projection onto the class of the total source set."""
    return family[sum(fibers)]


def level2_coface_d2(family: dict, fibers, nx: int) -> QMatrix:
    """Multiply the source along the fibers, then apply the family."""
    return matmul(family[len(fibers)], mult_along(nx, fibers))


def codegeneracy_level1(family: dict) -> QMatrix:
    """Project a level-1 family onto the singleton class."""
    return family[1]


def codegeneracy_level2_s0(family2: dict, s: int) -> QMatrix:
    """Evaluate a level-2 family at the collapse map (s-set to a point)."""
    return family2[(s,)]


def codegeneracy_level2_s1(family2: dict, s: int) -> QMatrix:
    """Evaluate a level-2 family at the identity chain on an s-set."""
    return family2[(1,) * s]


def level1_classes(bound: int) -> list:
    """Sizes of the level-1 index classes, the empty power included."""
    return list(range(0, bound + 1))


def level2_classes(bound: int) -> list:
    """Fiber-size multisets of bounded chains S1 -> S2.

    A class of maps is the multiset of its fiber sizes (zeros allowed:
    elements outside the image carry empty fibers).  Both set sizes are
    bounded; the empty chain is the empty tuple.
    """
    out = [()]
    for s2 in range(1, bound + 1):
        for fibers in itertools.combinations_with_replacement(
                range(0, bound + 1), s2):
            if sum(fibers) <= bound:
                out.append(tuple(sorted(fibers, reverse=True)))
    return out


def _column_orbits(generators, size: int) -> list:
    seen = [False] * size
    orbits = []
    for start in range(size):
        if seen[start]:
            continue
        orbit = []
        stack = [start]
        seen[start] = True
        while stack:
            c = stack.pop()
            orbit.append(c)
            for g in generators:
                d = g[c]
                if not seen[d]:
                    seen[d] = True
                    stack.append(d)
        orbits.append(sorted(orbit))
    return orbits


def _orbit_basis(ny: int, ncols: int, orbits) -> list:
    basis = []
    for y in range(ny):
        for orbit in orbits:
            entries = [0] * (ny * ncols)
            for c in orbit:
                entries[y * ncols + c] = 1
            basis.append(QMatrix(ny, ncols, entries))
    return basis


def _chain_aut_column_perms(fibers, n: int) -> list:
    """Generators of the column action of the chain automorphisms.

    The chain is S1 -> S2 with the given fibers, and its automorphisms act
    on X^(x)S1 through their first component.  Each generator of
    `automorphism_group` swaps two isomorphic siblings, so its first
    component is an involution of the factors and is its own inverse in
    `tensor_index_map`.  The empty tensor power has no generators.
    """
    s = sum(fibers)
    if s == 0:
        return []
    s1, s2 = FinSet(s), FinSet(len(fibers))
    values = [j for j, size in enumerate(fibers) for _ in range(size)]
    chain = FinDiagram([s1, s2], [SetMap(s1, s2, values)])
    return [tensor_index_map(n, g.components[0].values, s)
            for g in automorphism_group(chain).generators]


@dataclass(frozen=True)
class TowerLevel:
    """One level of the tower: a fixed-subspace basis per index class."""
    k: int
    x_size: int
    y_size: int
    bound: int
    components: dict  # class key -> tuple of basis matrices


def level(k: int, x: FinSet, y: FinSet, bound: int) -> TowerLevel:
    """Compute level 0, 1 or 2 of the tower at the given truncation bound.

    Components are bases of the subspaces of Hom(X^(x)S1, Y) fixed under
    the chain automorphisms acting through the first component; at level
    0 the single component is the whole matrix space.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if k == 0:
        shapes = {(): (1,)}  # Hom(X, Y): one 1-element set, no automorphisms
    elif k == 1:
        shapes = {s: (s,) for s in level1_classes(bound)}
    elif k == 2:
        shapes = {fibers: fibers for fibers in level2_classes(bound)}
    else:
        raise ValueError("only levels 0..2 are implemented")
    nx, ny = x.size, y.size
    components = {}
    for key, fibers in shapes.items():
        ncols = nx ** sum(fibers)
        orbits = _column_orbits(_chain_aut_column_perms(fibers, nx), ncols)
        components[key] = tuple(_orbit_basis(ny, ncols, orbits))
    return TowerLevel(k, nx, ny, bound, components)


def cofaces_agree(f: QMatrix, s: int) -> bool:
    """coface_d0(f, s) == coface_d1(f, s), decided entry by entry.

    Entry (y, (x_1, ..., x_s)) of d0 is the product of the f[y, x_i], and
    of d1 it is f[y, x_1] when all x_i are equal and 0 otherwise; at s = 0
    the two columns are all ones and the row sums of f.  Both sides vanish
    as soon as one f[y, x_i] is zero, so only tuples drawn from the
    nonzero entries of row y are compared.
    """
    if s == 0:
        return all(sum(f.row(y)) == 1 for y in range(f.rows))
    for y in range(f.rows):
        support = [(x, v) for x, v in enumerate(f.row(y)) if v]
        for combo in itertools.product(support, repeat=s):
            xs, vs = zip(*combo)
            if math.prod(vs) != (vs[0] if len(set(xs)) == 1 else 0):
                return False
    return True


def equalizer(x: FinSet, y: FinSet, bound: int = 2) -> list:
    """All f in Hom(X, Y) with equal cofaces at every bounded class.

    The size-2 class forces idempotent entries and row orthogonality, the
    size-0 class forces unit row sums, so the candidates are the matrices
    with exactly one 1 in each row; every candidate is then verified
    against the coface equations at all classes up to the bound, compared
    entry by entry (`cofaces_agree`) rather than through the dense coface
    matrices.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    nx, ny = x.size, y.size
    out = []
    for choice in itertools.product(range(nx), repeat=ny):
        entries = [0] * (ny * nx)
        for row, col in enumerate(choice):
            entries[row * nx + col] = 1
        f = QMatrix(ny, nx, entries)
        if all(cofaces_agree(f, s) for s in level1_classes(bound)):
            out.append(f)
    return out


@dataclass(frozen=True)
class MdffeReport:
    """Four-way comparison of morphism sets for a pair of finite sets."""
    x_size: int
    y_size: int
    equalizer_count: int
    recheck_count: int
    transposed_morphism_count: int
    setmap_count: int
    sets_equal: bool

    @property
    def passed(self) -> bool:
        return (self.equalizer_count == self.recheck_count
                == self.transposed_morphism_count == self.setmap_count
                and self.sets_equal)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"|X|={self.x_size} |Y|={self.y_size}: equalizer "
                f"{self.equalizer_count} = recheck {self.recheck_count} = "
                f"transposed comonoid {self.transposed_morphism_count} = "
                f"set maps {self.setmap_count}, {verdict}")


def verify_mdffe(x: FinSet, y: FinSet, bound: int = 2) -> MdffeReport:
    """Morphisms of the towers agree with set maps X -> Y.

    The tower pairs the powers of Y against X (the contravariant roles of
    the statement), so the equalizer is computed on (Y, X); its solutions
    are exactly the transposes of the comonoid morphisms C_*X -> C_*Y,
    which are the graphs of set maps X -> Y.  The equalizer is rechecked
    at truncation bound + 1 and must not change: its classes are those of
    `bound` and one more, so it is the equalizer at `bound` filtered by
    the coface equations of class bound + 1.
    """
    eq = sorted(equalizer(y, x, bound), key=lambda m: m.entries)
    eq_re = [f for f in eq if cofaces_agree(f, bound + 1)]
    transposed = sorted((c.matrix.transpose()
                         for c in solve_coalgebra_morphisms(x, y)),
                        key=lambda m: m.entries)
    graphs = sorted((graph_matrix(f).transpose() for f in all_maps(x, y)),
                    key=lambda m: m.entries)
    sets_equal = eq == eq_re == transposed == graphs
    return MdffeReport(x.size, y.size, len(eq), len(eq_re),
                       len(transposed), len(graphs), sets_equal)
