"""Comonoids on finite sets inside the exact matrix category, and the
solver for their morphisms.

A finite set X carries a canonical comonoid: the counit is the all-ones
row (the class of X itself, pushed to the point) and the comultiplication
is the diagonal indicator matrix.  A matrix C is a morphism of comonoids
when it commutes with both structure maps; entrywise this unwinds to the
three equation families

    (eps)     every column of C sums to 1,
    (delta1)  every entry is idempotent, hence 0 or 1,
    (delta2)  distinct entries in one column multiply to 0,

which together force C to be the graph of a set map.  The solver does not
solve these equations: its candidates are the value tuples of all set maps,
and it checks the graph of each one, so that no other matrix is a morphism
rests on this derivation alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._value import Value
from .finsets import FinSet, SetMap, map_values
from .qlinalg import QMatrix, tensor_index_map


def graph_matrix(values, cod_size: int) -> QMatrix:
    """The cod_size x len(values) indicator of the graph of a set map."""
    nx = len(values)
    return QMatrix(cod_size, nx, {y * nx + x: 1 for x, y in enumerate(values)})


class ArtinComonoid(Value):
    """A finite set with its canonical counit row and comultiplication
    matrix.

    Counitality, coassociativity and cocommutativity are checked exactly
    at construction, on the nonzero terms of the comultiplication, and
    then that the structure is the canonical one of the carrier: no other
    structure is accepted.
    """

    __slots__ = ("carrier", "counit", "comult")

    def __init__(self, carrier: FinSet, counit: QMatrix, comult: QMatrix):
        n = carrier.size
        if counit.rows != 1 or counit.cols != n:
            raise ValueError("counit must be 1 x |X|")
        if comult.rows != n * n or comult.cols != n:
            raise ValueError("comult must be |X|^2 x |X|")
        _check_axioms(counit, comult, n)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "counit", counit)
        object.__setattr__(self, "comult", comult)

    @property
    def size(self) -> int:
        return self.carrier.size

    def __repr__(self):
        return f"ArtinComonoid(|X|={self.size})"


def _check_axioms(counit: QMatrix, comult: QMatrix, n: int) -> None:
    """Check exactly that a counit and comultiplication on a set of size n
    are the canonical ones.

    The nonzero entries are read once as Delta(x) = sum v (a, b), and the
    four axioms compared as sums over those terms, in order: (eps (x) 1)
    Delta(x) = x, (1 (x) eps) Delta(x) = x, sum v Delta(a) (x) b = sum v
    a (x) Delta(b), and the coefficient of (a, b) equals that of (b, a);
    then eps = (1, ..., 1) and Delta(x) = (x, x).  The first that fails
    raises ValueError naming it.
    """
    eps = dict(counit.terms)
    first = tensor_index_map(n, (0,), 2)
    second = tensor_index_map(n, (1,), 2)
    delta = [{} for _ in range(n)]  # x -> {(a, b): v}, nonzero v only
    for k, v in comult.terms:
        r, x = divmod(k, n)
        delta[x][first[r], second[r]] = v
    left, right = {}, {}
    for x, terms in enumerate(delta):
        for (a, b), v in terms.items():
            left[b, x] = left.get((b, x), 0) + eps.get(a, 0) * v
            right[a, x] = right.get((a, x), 0) + eps.get(b, 0) * v
    identity = {(x, x): 1 for x in range(n)}
    if {k: v for k, v in left.items() if v} != identity:
        raise ValueError("counitality fails on the left")
    if {k: v for k, v in right.items() if v} != identity:
        raise ValueError("counitality fails on the right")
    for terms in delta:
        diff = {}
        for (a, b), v in terms.items():
            for (p, q), w in delta[a].items():
                diff[p, q, b] = diff.get((p, q, b), 0) + v * w
            for (p, q), w in delta[b].items():
                diff[a, p, q] = diff.get((a, p, q), 0) - v * w
        if any(diff.values()):
            raise ValueError("coassociativity fails")
    if any(terms.get((b, a), 0) != v
           for terms in delta for (a, b), v in terms.items()):
        raise ValueError("cocommutativity fails")
    if not (eps == dict.fromkeys(range(n), 1)
            and all(terms == {(x, x): 1} for x, terms in enumerate(delta))):
        raise ValueError("structure is not the canonical one of its carrier")


def counit_matrix(n: int) -> QMatrix:
    """The all-ones row vector on a set of size n."""
    return QMatrix(1, n, [1] * n)


def comult_matrix(n: int) -> QMatrix:
    """The diagonal indicator: entry ((x', x''), x) is 1 iff x'' = x' = x."""
    return graph_matrix(tensor_index_map(n, (0, 0), 1), n * n)


_CANONICAL = {}  # carrier -> its canonical comonoid, checked once


def artin_comonoid(x: FinSet) -> ArtinComonoid:
    """The canonical comonoid carried by a finite set.

    The structure depends on the carrier alone, so it is built and checked
    once per carrier and then shared (values are immutable).
    """
    c = _CANONICAL.get(x)
    if c is None:
        n = x.size
        c = _CANONICAL[x] = ArtinComonoid(x, counit_matrix(n),
                                          comult_matrix(n))
    return c


def coalgebra_morphism_violations(c: QMatrix, x: ArtinComonoid,
                                  y: ArtinComonoid) -> list:
    """Names of the failing equations for C as a comonoid morphism X -> Y.

    Empty means C commutes with both structure maps: "(eps)" names the
    counit square, and a mismatch in the comultiplication square is
    classified by the row block, "(delta1)" on diagonal rows (y, y) and
    "(delta2)" off the diagonal.  The names come in that order.

    Both structures are canonical, so the squares are checked through
    their entrywise form from the module docstring: every column of C sums
    to 1 (eps), C[y, x]^2 = C[y, x] (delta1), and C[y', x] C[y'', x] = 0
    for y' != y'' (delta2).
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

    def __init__(self, matrix: QMatrix, source: ArtinComonoid,
                 target: ArtinComonoid):
        violations = coalgebra_morphism_violations(matrix, source, target)
        if violations:
            raise ValueError(f"not a comonoid morphism: fails {violations}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __hash__(self):
        return hash((self.matrix, self.source.carrier, self.target.carrier))

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
    return SetMap(c.source.carrier, c.target.carrier,
                  [image[x] for x in range(m.cols)])


def solve_coalgebra_morphisms(x: FinSet, y: FinSet) -> list:
    """The comonoid morphisms C_*X -> C_*Y, one per set map X -> Y.

    The candidates are the value tuples of the set maps, from `map_values`,
    and no other matrix is tried; the graph of each is checked against both
    diagrams, and one that fails raises AssertionError.  That the list is
    complete is the derivation in the module docstring, not a search.
    Deterministic order (lexicographic in the map).
    """
    cx = artin_comonoid(x)
    cy = artin_comonoid(y)
    out = []
    for values in map_values(x, y):
        m = graph_matrix(values, y.size)
        if coalgebra_morphism_violations(m, cx, cy):
            raise AssertionError("graph candidate unexpectedly rejected")
        out.append(CoalgMorphism(m, cx, cy))
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

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"|X|={self.x_size} |Y|={self.y_size}: "
                f"{self.morphism_count} = {self.setmap_count}, {verdict}")


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
