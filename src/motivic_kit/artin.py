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
solve these equations: it enumerates the graphs of all set maps and checks
each one, so that no other matrix is a morphism rests on this derivation
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from ._value import Value
from .finsets import FinSet, SetMap, all_maps
from .qlinalg import QMatrix, kron, matmul, tensor_index_map


def graph_matrix(f: SetMap) -> QMatrix:
    """The |cod| x |dom| indicator of the graph of f."""
    nx, ny = f.dom.size, f.cod.size
    entries = [0] * (ny * nx)
    for x, y in enumerate(f.values):
        entries[y * nx + x] = 1
    return QMatrix(ny, nx, entries)


def tensor_map_matrix(n: int, factors, t: int) -> QMatrix:
    """Graph of `tensor_index_map`: X^(x)t -> X^(x)len(factors), |X| = n."""
    return graph_matrix(SetMap(FinSet(n ** t), FinSet(n ** len(factors)),
                               tensor_index_map(n, factors, t)))


class ArtinComonoid(Value):
    """A finite set with a counit row and a comultiplication matrix.

    Counitality, coassociativity and cocommutativity are checked exactly
    at construction, on the nonzero terms of the comultiplication;
    non-canonical structures satisfying them are allowed.  Whether the
    structure is the canonical one of the carrier is read from the same
    terms, and selects the morphism checker.
    """

    __slots__ = ("carrier", "counit", "comult", "_canonical")

    def __init__(self, carrier: FinSet, counit: QMatrix, comult: QMatrix):
        n = carrier.size
        if counit.rows != 1 or counit.cols != n:
            raise ValueError("counit must be 1 x |X|")
        if comult.rows != n * n or comult.cols != n:
            raise ValueError("comult must be |X|^2 x |X|")
        canonical = _check_axioms(counit, comult, n)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "counit", counit)
        object.__setattr__(self, "comult", comult)
        object.__setattr__(self, "_canonical", canonical)

    @property
    def size(self) -> int:
        return self.carrier.size

    def __repr__(self):
        return f"ArtinComonoid(|X|={self.size})"


def _check_axioms(counit: QMatrix, comult: QMatrix, n: int) -> bool:
    """Check a counit and comultiplication on a set of size n exactly, and
    say whether they are the canonical ones.

    The nonzero entries are read once as Delta(x) = sum v (a, b), and the
    four axioms compared as sums over those terms, in order: (eps (x) 1)
    Delta(x) = x, (1 (x) eps) Delta(x) = x, sum v Delta(a) (x) b = sum v
    a (x) Delta(b), and the coefficient of (a, b) equals that of (b, a).
    The first that fails raises ValueError naming it.
    """
    eps = counit.entries
    first = tensor_index_map(n, (0,), 2)
    second = tensor_index_map(n, (1,), 2)
    delta = [{} for _ in range(n)]  # x -> {(a, b): v}, nonzero v only
    entries = comult.entries
    for k in compress(range(len(entries)), entries):
        r, x = divmod(k, n)
        delta[x][first[r], second[r]] = entries[k]
    left, right = {}, {}
    for x, terms in enumerate(delta):
        for (a, b), v in terms.items():
            left[b, x] = left.get((b, x), 0) + eps[a] * v
            right[a, x] = right.get((a, x), 0) + eps[b] * v
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
    return (all(v == 1 for v in eps)
            and all(terms == {(x, x): 1} for x, terms in enumerate(delta)))


def counit_matrix(n: int) -> QMatrix:
    """The all-ones row vector on a set of size n."""
    return QMatrix(1, n, [1] * n)


def comult_matrix(n: int) -> QMatrix:
    """The diagonal indicator: entry ((x', x''), x) is 1 iff x'' = x' = x."""
    return tensor_map_matrix(n, (0, 0), 1)


def artin_comonoid(x: FinSet) -> ArtinComonoid:
    """The canonical comonoid carried by a finite set."""
    n = x.size
    return ArtinComonoid(x, counit_matrix(n), comult_matrix(n))


def coalgebra_morphism_violations(c: QMatrix, x: ArtinComonoid,
                                  y: ArtinComonoid) -> list:
    """Names of the failing equations for C as a comonoid morphism X -> Y.

    Empty means C commutes with both structure maps: "(eps)" names the
    counit square, and a mismatch in the comultiplication square is
    classified by the row block, "(delta1)" on diagonal rows (y, y) and
    "(delta2)" off the diagonal.  The names come in that order.

    When both structures are canonical the squares are checked through
    their entrywise form from the module docstring: every column of C sums
    to 1 (eps), C[y, x]^2 = C[y, x] (delta1), and C[y', x] C[y'', x] = 0
    for y' != y'' (delta2).  Any other structure is checked through the
    dense products kron(C, C) comult_X = comult_Y C and counit_Y C =
    counit_X, since the entrywise form holds only for the canonical ones.
    """
    if c.rows != y.size or c.cols != x.size:
        raise ValueError(f"morphism matrix must be {y.size} x {x.size}")
    if x._canonical and y._canonical:
        failed = _entrywise_failures(c)
    else:
        failed = _dense_failures(c, x, y)
    return [name for name, bad in zip(("(eps)", "(delta1)", "(delta2)"), failed)
            if bad]


def _entrywise_failures(c: QMatrix) -> tuple:
    """(eps, delta1, delta2) failures between canonical comonoids, read
    off one pass over the nonzero entries: a column sum other than 1, an
    entry v != 1 (v^2 = v only for v in {0, 1}), and a column with two
    nonzero entries (their product is nonzero)."""
    entries, n = c.entries, c.cols
    sums, counts = [0] * n, [0] * n
    delta1 = False
    for k in compress(range(len(entries)), entries):
        v, x = entries[k], k % n
        sums[x] += v
        counts[x] += 1
        delta1 = delta1 or v != 1
    return sums.count(1) != n, delta1, max(counts, default=0) > 1


def _dense_failures(c: QMatrix, x: ArtinComonoid, y: ArtinComonoid) -> tuple:
    """(eps, delta1, delta2) failures, read off the dense products."""
    eps = matmul(y.counit, c) != x.counit
    lhs = matmul(kron(c, c), x.comult)
    rhs = matmul(y.comult, c)
    diagonal = set(tensor_index_map(y.size, (0, 0), 1))
    bad = [r for r in range(lhs.rows) if lhs.row(r) != rhs.row(r)]
    return (eps, any(r in diagonal for r in bad),
            any(r not in diagonal for r in bad))


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
    values = []
    for x in range(m.cols):
        col = m.entries[x::m.cols]
        if col.count(1) != 1 or col.count(0) != m.rows - 1:
            raise ValueError("matrix is not the graph of a set map")
        values.append(col.index(1))
    return SetMap(c.source.carrier, c.target.carrier, values)


def solve_coalgebra_morphisms(x: FinSet, y: FinSet) -> list:
    """The comonoid morphisms C_*X -> C_*Y, one per set map X -> Y.

    The candidates are the graphs of the maps from `all_maps`, and no other
    matrix is tried; each graph is checked against both diagrams, and one
    that fails raises AssertionError.  That the list is complete is the
    derivation in the module docstring, not a search.  Deterministic order
    (lexicographic in the map).
    """
    cx = artin_comonoid(x)
    cy = artin_comonoid(y)
    out = []
    for f in all_maps(x, y):
        m = graph_matrix(f)
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
    all_graphs: bool

    @property
    def passed(self) -> bool:
        return self.morphism_count == self.setmap_count and self.all_graphs

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"|X|={self.x_size} |Y|={self.y_size}: "
                f"{self.morphism_count} = {self.setmap_count}, {verdict}")


def verify_mcffe(x: FinSet, y: FinSet) -> McffeReport:
    """Comonoid morphisms X -> Y biject with set maps X -> Y.

    Asserts the count |Y|^|X| and that the graph correspondence is a
    bijection in both directions (every morphism matrix is the graph of a
    map, every map arises, and reading the map back inverts it).
    """
    morphisms = solve_coalgebra_morphisms(x, y)
    expected = y.size ** x.size
    maps = list(all_maps(x, y))
    all_graphs = {c.matrix for c in morphisms} == \
        {graph_matrix(f) for f in maps}
    recovered = {setmap_from_morphism(c).values for c in morphisms}
    round_trip = recovered == {f.values for f in maps}
    return McffeReport(x.size, y.size, len(morphisms), expected,
                       all_graphs and round_trip)
