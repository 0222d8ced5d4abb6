"""Comonoids and monoids on finite sets inside the exact matrix category,
and the solver for structure-preserving morphisms.

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
alone.  Duality transposes everything onto monoids.
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
        canonical = _check_axioms(counit, comult, n, (
            "counitality fails on the left", "counitality fails on the right",
            "coassociativity fails", "cocommutativity fails"))
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "counit", counit)
        object.__setattr__(self, "comult", comult)
        object.__setattr__(self, "_canonical", canonical)

    @property
    def size(self) -> int:
        return self.carrier.size

    def __repr__(self):
        return f"ArtinComonoid(|X|={self.size})"


class ArtinMonoid(Value):
    """The dual structure: a unit column and a multiplication matrix.

    Its axioms are the transposes of the comonoid ones, checked on the
    transposed structure maps.
    """

    __slots__ = ("carrier", "unit", "mult")

    def __init__(self, carrier: FinSet, unit: QMatrix, mult: QMatrix):
        n = carrier.size
        if unit.rows != n or unit.cols != 1:
            raise ValueError("unit must be |X| x 1")
        if mult.rows != n or mult.cols != n * n:
            raise ValueError("mult must be |X| x |X|^2")
        _check_axioms(unit.transpose(), mult.transpose(), n, (
            "unitality fails on the left", "unitality fails on the right",
            "associativity fails", "commutativity fails"))
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "mult", mult)

    @property
    def size(self) -> int:
        return self.carrier.size

    def __repr__(self):
        return f"ArtinMonoid(|X|={self.size})"


def _check_axioms(counit: QMatrix, comult: QMatrix, n: int, messages) -> bool:
    """Check a counit and comultiplication on a set of size n exactly, and
    say whether they are the canonical ones.

    The nonzero entries are read once as Delta(x) = sum v (a, b), and the
    four axioms compared as sums over those terms, in order: (eps (x) 1)
    Delta(x) = x, (1 (x) eps) Delta(x) = x, sum v Delta(a) (x) b = sum v
    a (x) Delta(b), and the coefficient of (a, b) equals that of (b, a).
    The first that fails raises ValueError with its entry of `messages`.
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
        raise ValueError(messages[0])
    if {k: v for k, v in right.items() if v} != identity:
        raise ValueError(messages[1])
    for terms in delta:
        diff = {}
        for (a, b), v in terms.items():
            for (p, q), w in delta[a].items():
                diff[p, q, b] = diff.get((p, q, b), 0) + v * w
            for (p, q), w in delta[b].items():
                diff[a, p, q] = diff.get((a, p, q), 0) - v * w
        if any(diff.values()):
            raise ValueError(messages[2])
    if any(terms.get((b, a), 0) != v
           for terms in delta for (a, b), v in terms.items()):
        raise ValueError(messages[3])
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


def artin_monoid(x: FinSet) -> ArtinMonoid:
    """The canonical monoid: transpose of the canonical comonoid."""
    n = x.size
    return ArtinMonoid(x, counit_matrix(n).transpose(),
                       comult_matrix(n).transpose())


def dual_monoid(c: ArtinComonoid) -> ArtinMonoid:
    return ArtinMonoid(c.carrier, c.counit.transpose(), c.comult.transpose())


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
    """(eps, delta1, delta2) failures between canonical comonoids."""
    columns = [c.entries[x::c.cols] for x in range(c.cols)]
    eps = any(sum(col) != 1 for col in columns)
    delta1 = any(v * v != v for v in c.entries)
    # a product of two nonzero rationals is nonzero, so (delta2) holds
    # exactly when no column has two nonzero entries
    delta2 = any(sum(1 for v in col if v) > 1 for col in columns)
    return eps, delta1, delta2


def _dense_failures(c: QMatrix, x: ArtinComonoid, y: ArtinComonoid) -> tuple:
    """(eps, delta1, delta2) failures, read off the dense products."""
    eps = matmul(y.counit, c) != x.counit
    lhs = matmul(kron(c, c), x.comult)
    rhs = matmul(y.comult, c)
    diagonal = set(tensor_index_map(y.size, (0, 0), 1))
    bad = [r for r in range(lhs.rows) if lhs.row(r) != rhs.row(r)]
    return (eps, any(r in diagonal for r in bad),
            any(r not in diagonal for r in bad))


def is_coalgebra_morphism(c: QMatrix, x: ArtinComonoid, y: ArtinComonoid) -> bool:
    return not coalgebra_morphism_violations(c, x, y)


def monoid_morphism_violations(m: QMatrix, x: ArtinMonoid,
                               y: ArtinMonoid) -> list:
    """The transposed check: M as a monoid morphism X -> Y."""
    if m.rows != y.size or m.cols != x.size:
        raise ValueError(f"morphism matrix must be {y.size} x {x.size}")
    violations = []
    if matmul(m, x.unit) != y.unit:
        violations.append("(eta)")
    lt = matmul(m, x.mult).transpose()
    rt = matmul(y.mult, kron(m, m)).transpose()
    diagonal = set(tensor_index_map(x.size, (0, 0), 1))
    bad = [c for c in range(lt.rows) if lt.row(c) != rt.row(c)]
    if any(c in diagonal for c in bad):
        violations.append("(mu1)")
    if any(c not in diagonal for c in bad):
        violations.append("(mu2)")
    return violations


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


def morphism_from_setmap(f: SetMap) -> CoalgMorphism:
    """The comonoid morphism carried by the graph of a set map."""
    return CoalgMorphism(graph_matrix(f), artin_comonoid(f.dom),
                         artin_comonoid(f.cod))


def setmap_from_morphism(c: CoalgMorphism) -> SetMap:
    """Recover the set map whose graph the morphism matrix is.

    Raises on any matrix that is not a graph (solver outputs always are).
    """
    m = c.matrix
    values = []
    for x in range(m.cols):
        col = [m[y, x] for y in range(m.rows)]
        ones = [y for y, v in enumerate(col) if v == 1]
        if len(ones) != 1 or any(v not in (0, 1) for v in col):
            raise ValueError("matrix is not the graph of a set map")
        values.append(ones[0])
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
class DualityCheck:
    """Transpose of a comonoid morphism, checked against the dual monoids."""
    matrix: QMatrix
    source: ArtinMonoid
    target: ArtinMonoid
    violations: tuple


def dualize(c: CoalgMorphism) -> DualityCheck:
    """Check the transpose as a monoid morphism between the dual monoids.

    A morphism C : C_*X -> C_*Y transposes to a map from the dual monoid
    of Y to the dual monoid of X; the equations are the exact transposes
    of the comonoid ones, so the check always passes for valid input.
    """
    my = dual_monoid(c.target)
    mx = dual_monoid(c.source)
    mt = c.matrix.transpose()
    return DualityCheck(mt, my, mx,
                        tuple(monoid_morphism_violations(mt, my, mx)))


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
