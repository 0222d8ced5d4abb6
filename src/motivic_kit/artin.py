"""Comonoid morphisms between finite sets inside the exact matrix
category, and the solver for them.

A finite set X carries a canonical comonoid: the counit is the all-ones
row (the class of X itself, pushed to the point) and the comultiplication
is the diagonal indicator matrix.  The carrier alone fixes that structure,
so the layer takes a `FinSet` as its comonoid and builds no structure
matrix.  A matrix C is a morphism of comonoids when it commutes with both
structure maps; entrywise this unwinds to the three equation families

    (eps)     every column of C sums to 1,
    (delta1)  every entry is idempotent, hence 0 or 1,
    (delta2)  distinct entries in one column multiply to 0,

which together force C to be the graph of a set map.  The solver does not
solve these equations: its candidates are the value tuples of all set maps,
and it checks the graph of each one, so that no other matrix is a morphism
rests on this derivation alone.  The tests certify it apart from this
module: `test_dense_structure_is_a_comonoid` in `tests/test_artin.py`
checks the dense counit and comultiplication against the comonoid axioms,
and `TestMorphismChecking` the entrywise check against the dense squares.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._value import Value
from .finsets import FinSet, SetMap, map_values
from .qlinalg import QMatrix


def graph_matrix(values, cod_size: int) -> QMatrix:
    """The cod_size x len(values) indicator of the graph of a set map."""
    nx = len(values)
    return QMatrix(cod_size, nx, {y * nx + x: 1 for x, y in enumerate(values)})


def coalgebra_morphism_violations(c: QMatrix, x: FinSet, y: FinSet) -> list:
    """Names of the failing equations for C as a comonoid morphism X -> Y.

    Empty means C commutes with both structure maps: "(eps)" names the
    counit square, and a mismatch in the comultiplication square is
    classified by the row block, "(delta1)" on diagonal rows (y, y) and
    "(delta2)" off the diagonal.  The names come in that order.

    X and Y carry their canonical structures, so the squares are checked
    through their entrywise form from the module docstring: every column
    of C sums to 1 (eps), C[y, x]^2 = C[y, x] (delta1), and
    C[y', x] C[y'', x] = 0 for y' != y'' (delta2).
    """
    if c.rows != y.size or c.cols != x.size:
        raise ValueError(f"morphism matrix must be {y.size} x {x.size}")
    failed = _entrywise_failures(c)
    return [name for name, bad in zip(("(eps)", "(delta1)", "(delta2)"), failed)
            if bad]


def _entrywise_failures(c: QMatrix) -> tuple:
    """(eps, delta1, delta2) failures between canonical comonoids, read
    off one pass over the nonzero entries: a column sum other than 1, an
    entry v != 1 (v^2 = v only for v in {0, 1}), and a column with two
    nonzero entries (their product is nonzero)."""
    n = c.cols
    sums, counts = [0] * n, [0] * n
    delta1 = False
    for k, v in c.terms:
        x = k % n
        sums[x] += v
        counts[x] += 1
        delta1 = delta1 or v != 1
    return sums.count(1) != n, delta1, max(counts, default=0) > 1


class CoalgMorphism(Value):
    """A matrix morphism of comonoids, validated at construction."""

    __slots__ = ("matrix", "source", "target")

    def __init__(self, matrix: QMatrix, source: FinSet, target: FinSet):
        violations = coalgebra_morphism_violations(matrix, source, target)
        if violations:
            raise ValueError(f"not a comonoid morphism: fails {violations}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __repr__(self):
        return f"CoalgMorphism({self.source.size}->{self.target.size})"


def setmap_from_morphism(c: CoalgMorphism) -> SetMap:
    """Recover the set map whose graph the morphism matrix is.

    Raises on any matrix that is not a graph (solver outputs always are).
    """
    m = c.matrix
    image = {k % m.cols: k // m.cols for k, v in m.terms if v == 1}
    if not (len(image) == len(m.terms) == m.cols):
        raise ValueError("matrix is not the graph of a set map")
    return SetMap(c.source, c.target, [image[x] for x in range(m.cols)])


def solve_coalgebra_morphisms(x: FinSet, y: FinSet) -> list:
    """The comonoid morphisms C_*X -> C_*Y, one per set map X -> Y.

    The candidates are the value tuples of the set maps, from `map_values`,
    and no other matrix is tried; the graph of each is checked against both
    diagrams, and one that fails raises AssertionError.  That the list is
    complete is the derivation in the module docstring, not a search.
    Deterministic order (lexicographic in the map).
    """
    out = []
    for values in map_values(x, y):
        m = graph_matrix(values, y.size)
        if coalgebra_morphism_violations(m, x, y):
            raise AssertionError("graph candidate unexpectedly rejected")
        out.append(CoalgMorphism(m, x, y))
    return out


@dataclass(frozen=True)
class McffeReport:
    """Counts for the morphism-space comparison on a pair of finite sets."""
    x_size: int
    y_size: int
    morphism_count: int
    setmap_count: int
    round_trip: bool

    @property
    def passed(self) -> bool:
        return self.morphism_count == self.setmap_count and self.round_trip


def verify_mcffe(x: FinSet, y: FinSet) -> McffeReport:
    """Comonoid morphisms X -> Y biject with set maps X -> Y.

    Asserts the count |Y|^|X| and that the graph correspondence is a
    bijection: every morphism matrix is read back as the graph of a map
    (`setmap_from_morphism` raises on any other matrix), and the maps
    read back are all the maps X -> Y, compared as value tuples.
    """
    morphisms = solve_coalgebra_morphisms(x, y)
    recovered = {setmap_from_morphism(c).values for c in morphisms}
    round_trip = recovered == set(map_values(x, y))
    return McffeReport(x.size, y.size, len(morphisms), y.size ** x.size,
                       round_trip)
