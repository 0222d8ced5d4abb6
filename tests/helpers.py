"""Shared independent oracles and small generators for the test suite."""

import collections
import functools
import itertools
import json
import math
import random
from fractions import Fraction
from importlib import resources

from hypothesis import strategies as st

from motivic_kit._value import InputError, RepeatedKey, Value, _KINDS, show
from motivic_kit.artin import (CoalgMorphism, graph_matrix,
                               setmap_from_morphism,
                               solve_coalgebra_morphisms)
from motivic_kit.finsets import (FinDiagram, FinSet, SetMap, _canonical_form,
                                 _level_classes)
from motivic_kit.galois import (FiniteGroup, GSet, equivariant_set_maps,
                                fixed_coalgebra_morphisms)
from motivic_kit.hypercube import CubeDiagram, _name, _subset_key
from motivic_kit.monad import (_admissible_multisets, assemble,
                               enumerate_diagrams)
from motivic_kit.qlinalg import (ChainComplex, QMatrix, matmul,
                                 single_degree_complex)
from motivic_kit.resolution import cofaces_agree


def dim(c: ChainComplex, n: int) -> int:
    """The dimension of a complex in degree n, 0 outside its range."""
    return c.dims.get(n, 0)


class ChainMap(Value):
    """A degreewise matrix map of chain complexes, the record the oracles
    compose: its source, its target and its blocks by degree, block q of
    shape dim(target, q) x dim(source, q), and only those with a nonzero
    entry kept.  A cube takes an edge as its `blocks` alone
    (`edge_blocks`)."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: ChainComplex, target: ChainComplex, blocks):
        kept = {}
        for q, m in zip(map(int, blocks), blocks.values()):
            if m.rows != dim(target, q) or m.cols != dim(source, q):
                raise ValueError(f"block {q} has wrong shape")
            if m.terms:
                kept[q] = m
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "blocks", kept)


def edge_blocks(maps: dict) -> dict:
    """The edges of a cube, given as chain maps, as `CubeDiagram` takes
    them: the blocks of each."""
    return {key: m.blocks for key, m in maps.items()}


def edge_maps(cube: CubeDiagram) -> dict:
    """The edges of `cube` as chain maps between its vertices."""
    return {(big, small): ChainMap(cube.vertices[big], cube.vertices[small],
                                   blocks)
            for (big, small), blocks in cube.edges.items()}


def zero_matrix(rows: int, cols: int) -> QMatrix:
    return QMatrix(rows, cols, [0] * (rows * cols))


def identity_matrix(n: int) -> QMatrix:
    return QMatrix(n, n, [1 if i == j else 0
                          for i in range(n) for j in range(n)])


def dense_rows(m: QMatrix) -> list:
    """The rows of m with their zeros, cut from the dense `entries`."""
    e = m.entries
    return [e[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]


def schoolbook_matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Triple-loop product, independent of the library routine."""
    assert a.cols == b.rows
    ra, rb = dense_rows(a), dense_rows(b)
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = Fraction(0)
            for t in range(a.cols):
                acc += ra[i][t] * rb[t][j]
            out.append(acc)
    return QMatrix(a.rows, b.cols, out)


def dense_at(value, n: int) -> QMatrix:
    """The differential d_n of a complex, or block n of a chain map, as a
    matrix with its zeros: a matrix that is not stored is zero."""
    if isinstance(value, ChainComplex):
        stored, rows, cols = value.differentials, dim(value, n - 1), dim(value, n)
    else:
        stored = value.blocks
        rows, cols = dim(value.target, n), dim(value.source, n)
    return stored[n] if n in stored else zero_matrix(rows, cols)


def dense_homology(c: ChainComplex) -> dict:
    """dim H_n = nullity(d_n) - rank(d_{n+1}), on the zero-filled
    differentials, with nullity = cols - rank and each rank counted by
    `dense_rank`: the oracle of `homology_dims`, which subtracts the ranks
    of the stored differentials from the dimension instead."""
    return {n: dense_at(c, n).cols - dense_rank(dense_at(c, n))
            - dense_rank(dense_at(c, n + 1)) for n in range(c.lo, c.hi + 1)}


def schoolbook_composite(f: ChainMap, g: ChainMap) -> ChainMap:
    """The chain map "f then g", blockwise by `schoolbook_matmul`, through
    the constructor, which checks the block shapes."""
    assert f.target == g.source
    lo = min(f.source.lo, g.target.lo)
    hi = max(f.source.hi, g.target.hi)
    return ChainMap(f.source, g.target,
                    {q: schoolbook_matmul(dense_at(g, q), dense_at(f, q))
                     for q in range(lo, hi + 1)})


def schoolbook_kron(a: QMatrix, b: QMatrix) -> QMatrix:
    """Kronecker product entry by entry, the one the dense oracles use.

    Entry ((i, p), (j, q)) is a[i, j] * b[p, q], with the left factor's
    index as the more significant digit.
    """
    ra, rb = dense_rows(a), dense_rows(b)
    entries = [ra[i][j] * rb[p][q]
               for i in range(a.rows) for p in range(b.rows)
               for j in range(a.cols) for q in range(b.cols)]
    return QMatrix(a.rows * b.rows, a.cols * b.cols, entries)


def dense_row_echelon(a: QMatrix):
    """Gauss-Jordan over `Fraction` with first-nonzero pivots.

    Every entry is made a `Fraction` first and every pivot row is divided
    by its pivot, with no integer or unit-pivot shortcut; returns (rows,
    pivot columns) as the library's elimination does.
    """
    m = [[Fraction(x) for x in row] for row in dense_rows(a)]
    pivots = []
    r = 0
    for c in range(a.cols):
        pivot_row = next((i for i in range(r, a.rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return m, pivots


def dense_rank(a: QMatrix) -> int:
    """The number of pivots `dense_row_echelon` finds."""
    return len(dense_row_echelon(a)[1])


def dense_kernel_basis(a: QMatrix) -> QMatrix:
    """The standard kernel basis (free variable = 1) from `dense_row_echelon`."""
    m, pivots = dense_row_echelon(a)
    free = [c for c in range(a.cols) if c not in pivots]
    columns = []
    for f in free:
        v = [Fraction(0)] * a.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        columns.append(v)
    return QMatrix(a.cols, len(free),
                   [columns[j][i] for i in range(a.cols)
                    for j in range(len(free))])


def is_normal_form(m: QMatrix) -> bool:
    """Every entry is an `int` if integral and a `Fraction` otherwise."""
    return all(type(x) is int
               or (type(x) is Fraction and x.denominator != 1)
               for x in m.entries)


def tuple_index_matrix(n: int, factors, t: int) -> QMatrix:
    """0/1 matrix of X^(x)t -> X^(x)s, (x_0..x_{t-1}) -> (x_f for f in factors).

    Basis tuples are numbered in `itertools.product` order, independent of
    the library's digit arithmetic; dim X = n and s = len(factors).
    """
    source = list(itertools.product(range(n), repeat=t))
    target = {x: i for i, x in
              enumerate(itertools.product(range(n), repeat=len(factors)))}
    entries = [0] * (len(target) * len(source))
    for col, x in enumerate(source):
        entries[target[tuple(x[f] for f in factors)] * len(source) + col] = 1
    return QMatrix(len(target), len(source), entries)


def canonical_structure(n: int) -> tuple:
    """(counit, comult) of the canonical comonoid on n points, built apart
    from the library: the all-ones row and the diagonal X -> X (x) X."""
    return QMatrix(1, n, [1] * n), tuple_index_matrix(n, (0, 0), 1)


def dense_coalgebra_violations(c: QMatrix, x, y) -> list:
    """The comonoid morphism check through the dense structure squares,
    for C from the comonoid `x` to `y`, each a (counit, comult) pair.

    counit_Y C = counit_X gives "(eps)"; (C (x) C) comult_X = comult_Y C
    gives "(delta1)" on the diagonal rows (y, y) and "(delta2)" elsewhere.
    """
    (counit_x, comult_x), (counit_y, comult_y) = x, y
    violations = []
    if matmul(counit_y, c) != counit_x:
        violations.append("(eps)")
    lhs = matmul(schoolbook_kron(c, c), comult_x)
    rhs = matmul(comult_y, c)
    ny = counit_y.cols
    bad = [r for r, (u, v) in enumerate(zip(dense_rows(lhs), dense_rows(rhs)))
           if u != v]
    if any(r // ny == r % ny for r in bad):
        violations.append("(delta1)")
    if any(r // ny != r % ny for r in bad):
        violations.append("(delta2)")
    return violations


def swap_matrix(n: int) -> QMatrix:
    """The permutation matrix exchanging the two tensor factors of size n."""
    return tuple_index_matrix(n, (1, 0), 2)


def dense_comonoid_failures(counit: QMatrix, comult: QMatrix) -> list:
    """The comonoid axioms through dense Kronecker products: a message for
    every axiom that fails, in the order left counitality, right
    counitality, coassociativity, cocommutativity."""
    n = counit.cols
    failures = []
    ident = identity_matrix(n)
    if matmul(schoolbook_kron(counit, ident), comult) != ident:
        failures.append("counitality fails on the left")
    if matmul(schoolbook_kron(ident, counit), comult) != ident:
        failures.append("counitality fails on the right")
    if (matmul(schoolbook_kron(comult, ident), comult)
            != matmul(schoolbook_kron(ident, comult), comult)):
        failures.append("coassociativity fails")
    if matmul(swap_matrix(n), comult) != comult:
        failures.append("cocommutativity fails")
    return failures


def monoid_morphism_violations(m: QMatrix, source, target) -> list:
    """The monoid morphism check through the dense structure squares, for
    M from the monoid `source` to `target`, each a (unit, multiplication)
    pair: the transposes of a comonoid's counit and comultiplication.

    M unit_X = unit_Y gives "(eta)"; M mult_X = mult_Y (M (x) M) gives
    "(mu1)" on the diagonal columns (x, x) and "(mu2)" elsewhere.  These
    are the transposes of the comonoid squares, so the transpose of C
    passes exactly when C is a comonoid morphism.
    """
    (unit_x, mult_x), (unit_y, mult_y) = source, target
    nx = unit_x.rows
    assert (m.rows, m.cols) == (unit_y.rows, nx)
    violations = []
    if matmul(m, unit_x) != unit_y:
        violations.append("(eta)")
    lhs = matmul(m, mult_x).transpose()
    rhs = matmul(mult_y, schoolbook_kron(m, m)).transpose()
    bad = [c for c, (u, v) in enumerate(zip(dense_rows(lhs), dense_rows(rhs)))
           if u != v]
    if any(c // nx == c % nx for c in bad):
        violations.append("(mu1)")
    if any(c // nx != c % nx for c in bad):
        violations.append("(mu2)")
    return violations


def dual_structure(n: int) -> tuple:
    """The (unit, multiplication) of the monoid dual to the canonical
    comonoid on n points."""
    return tuple(m.transpose() for m in canonical_structure(n))


def graph(f: SetMap) -> QMatrix:
    """The graph matrix of a validated set map."""
    return graph_matrix(f.values, f.cod.size)


def morphism_from_setmap(f: SetMap) -> CoalgMorphism:
    """The comonoid morphism carried by the graph of a set map."""
    return CoalgMorphism(graph(f), f.dom, f.cod)


def kron_power(a: QMatrix, n: int) -> QMatrix:
    """n-fold Kronecker power; the zeroth power is the 1x1 identity."""
    result = identity_matrix(1)
    for _ in range(n):
        result = schoolbook_kron(result, a)
    return result


def iterated_mult(n: int, s: int) -> QMatrix:
    """The s-ary multiplication X^(x)s -> X; s = 0 gives the unit column.

    It is the transposed graph of the diagonal X -> X^(x)s, |X| = n.  A
    FinSet is never empty, so n = 0 is built apart: the 0 x 0^s matrix.
    """
    if n == 0:
        return zero_matrix(0, 0 ** s)
    return tuple_index_matrix(n, (0,) * s, 1).transpose()


def coface_d0(f: QMatrix, s: int) -> QMatrix:
    """Apply f on every tensor factor, then multiply in the target: one
    side of `cofaces_agree`, as a dense matrix."""
    return matmul(iterated_mult(f.rows, s), kron_power(f, s))


def coface_d1(f: QMatrix, s: int) -> QMatrix:
    """Multiply the tensor factors in the source, then apply f: the other
    side of `cofaces_agree`, as a dense matrix."""
    return matmul(f, iterated_mult(f.cols, s))


def whole_matrix_equalizer(x: FinSet, y: FinSet, bound: int = 2) -> list:
    """The equalizer over whole matrices: every |Y| x |X| matrix with
    exactly one 1 in each row, kept when `cofaces_agree` holds on it at
    every class up to the bound.  Candidates in the order of the rows'
    choices, not sorted."""
    nx, ny = x.size, y.size
    out = []
    for choice in itertools.product(range(nx), repeat=ny):
        f = QMatrix(ny, nx, {row * nx + col: 1
                             for row, col in enumerate(choice)})
        if all(cofaces_agree(f, s) for s in range(bound + 1)):
            out.append(f)
    return out


def brute_equivariant_maps(x: GSet, y: GSet) -> list:
    """The set maps f with f(g.a) = g.f(a) for every group element g, by
    composing the validated maps."""
    return [f for f in all_maps(x.carrier, y.carrier)
            if all(compose(x.action[g], f).values
                   == compose(f, y.action[g]).values
                   for g in x.group.elements())]


def stabiliser_count(x: GSet, y: GSet) -> int:
    """|Hom_G(X, Y)| in closed form: the product over the orbits G.a of X
    of the number of points of Y that the stabiliser of a fixes, with
    orbits and stabilisers found by applying every group element."""
    count, seen = 1, set()
    for a in range(x.carrier.size):
        if a not in seen:
            seen |= {m.values[a] for m in x.action}
            stab = [g for g in x.group.elements()
                    if x.action[g].values[a] == a]
            count *= sum(all(y.action[g].values[b] == b for g in stab)
                         for b in range(y.carrier.size))
    return count


def orbital_count(x: GSet, y: GSet) -> int:
    """The number of orbits of the group on Y x X, each found as the set of
    its images under every group element."""
    return len({frozenset((gy.values[b], gx.values[a])
                          for gx, gy in zip(x.action, y.action))
                for b in range(y.carrier.size)
                for a in range(x.carrier.size)})


def conjugation_fixed(x: GSet, y: GSet) -> list:
    """The solver's morphisms C with P_Y(g) C P_X(g)^(-1) = C for every
    generator g, each conjugated by two products of its own (P_X(g) is a
    permutation, so its inverse is its transpose): the per-candidate
    oracle of `fixed_coalgebra_morphisms`, in the solver's order."""
    actions = [(graph_matrix(y.action[g].values, y.carrier.size),
                graph_matrix(x.action[g].values, x.carrier.size).transpose())
               for g in x.group.generators]
    return [c for c in solve_coalgebra_morphisms(x.carrier, y.carrier)
            if all(matmul(matmul(py, c.matrix), px_inv) == c.matrix
                   for py, px_inv in actions)]


def glued(factors) -> list:
    """The sorted value tuples of the maps glued from one choice of each
    factor: `factors` maps each orbit of X, the tuple of its points, to
    the value tuples of its choices, the i-th value at the i-th point."""
    points = [a for orbit in factors for a in orbit]
    return sorted(tuple(b for _, b in sorted(zip(points,
                                                 itertools.chain(*parts))))
                  for parts in itertools.product(*factors.values()))


def factor_values(factors) -> dict:
    """The factors of either side of `galois-fixed` as value tuples: a
    set map's own, a comonoid morphism's read back as a set map."""
    return {orbit: [(setmap_from_morphism(c) if isinstance(c, CoalgMorphism)
                     else c).values for c in part]
            for orbit, part in factors.items()}


def glued_equivariant_maps(x: GSet, y: GSet) -> list:
    """The equivariant set maps X -> Y whole, in lexicographic order: the
    product of the factors of `equivariant_set_maps`."""
    return [SetMap(x.carrier, y.carrier, v)
            for v in glued(factor_values(equivariant_set_maps(x, y)))]


def glued_fixed_morphisms(x: GSet, y: GSet) -> list:
    """The group-fixed comonoid morphisms X -> Y whole, in lexicographic
    order of their set maps: the product of the factors of
    `fixed_coalgebra_morphisms`, each glued matrix checked again."""
    return [CoalgMorphism(graph_matrix(v, y.carrier.size), x.carrier,
                          y.carrier)
            for v in glued(factor_values(fixed_coalgebra_morphisms(x, y)))]


def glued_verdict(maps: dict, fixed: dict) -> tuple:
    """(equivariant count, fixed count, passed) of `galois-fixed` as the
    whole sets give them: both sides' factors glued into the products,
    and the fixed maps compared with the equivariant ones as sets."""
    whole_maps = glued(factor_values(maps))
    whole_fixed = glued(factor_values(fixed))
    return (len(whole_maps), len(whole_fixed),
            set(whole_maps) == set(whole_fixed))


def _relabelings(sizes):
    return itertools.product(*(itertools.permutations(range(n))
                               for n in sizes))


def brute_automorphisms(d: FinDiagram) -> list:
    """All self-isomorphisms of d, as tuples of value-permutations.

    Tries all prod |S_i|! relabelings and keeps those that commute with
    every map, independent of the library's wreath-product group.
    """
    return [perms for perms in _relabelings(d.sizes())
            if all(perms[i + 1][y] == m.values[perms[i][x]]
                   for i, m in enumerate(d.maps)
                   for x, y in enumerate(m.values))]


def brute_canonical_with_perms(d: FinDiagram):
    """Minimal-encoding representative and the first relabeling reaching it.

    Tries all prod |S_i|! relabelings, independent of the library's
    structural labelling.
    """
    if d.k == 0:
        return FinDiagram([], []), ()
    best_key = best_perms = None
    for perms in _relabelings(d.sizes()):
        key = d.relabel(perms).encoding()
        if best_key is None or key < best_key:
            best_key, best_perms = key, perms
    return d.relabel(best_perms), best_perms


def fiber_chain(fibers) -> FinDiagram:
    """The 2-chain S1 -> S2 whose fiber over element j has fibers[j] points."""
    s1, s2 = FinSet(sum(fibers)), FinSet(len(fibers))
    values = [j for j, size in enumerate(fibers) for _ in range(size)]
    return FinDiagram([s1, s2], [SetMap(s1, s2, values)])


def brute_isomorphic(d1: FinDiagram, d2: FinDiagram) -> bool:
    """Whether some relabeling of d1 is d2, trying all prod |S_i|! of them."""
    return d1.sizes() == d2.sizes() and any(
        d1.relabel(perms) == d2 for perms in _relabelings(d1.sizes()))


def labelled_diagrams(bounds):
    """Every chain diagram with |S_i| <= bounds[i], all labellings."""
    for sizes in itertools.product(*(range(1, b + 1) for b in bounds)):
        sets = [FinSet(n) for n in sizes]
        values = [itertools.product(range(sizes[i + 1]), repeat=sizes[i])
                  for i in range(len(sizes) - 1)]
        for combo in itertools.product(*values):
            yield FinDiagram(sets, [SetMap(sets[i], sets[i + 1], v)
                                    for i, v in enumerate(combo)])


def brute_census(bounds) -> dict:
    """The brute canonical form of every diagram from `labelled_diagrams`.

    Relabeling one diagram every possible way visits its whole isomorphism
    class, so one brute search serves every member of the class.
    """
    reps = {}
    for d in labelled_diagrams(bounds):
        if d not in reps:
            rep, _ = brute_canonical_with_perms(d)
            for perms in _relabelings(d.sizes()):
                reps[d.relabel(perms)] = rep
    return reps


def closure(generators, sizes) -> set:
    """The group the permutation tuples generate, by BFS from the identity:
    every element as a tuple of one permutation tuple per set."""
    identity = tuple(tuple(range(n)) for n in sizes)
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for g in generators:
                c = tuple(tuple(q[x] for x in p) for p, q in zip(el, g))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def brute_is_associative(table) -> bool:
    """(a*b)*c == a*(b*c) over all n^3 triples of a multiplication table."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def brute_is_homomorphism(group, action) -> bool:
    """action[g*h] == action[g] o action[h] over all n^2 pairs of elements."""
    return all(compose(action[h], action[g]).values
               == action[group.mul(g, h)].values
               for g in group.elements() for h in group.elements())


def identity_map(s: FinSet) -> SetMap:
    return SetMap(s, s, range(s.size))


def canonical_form(d: FinDiagram) -> FinDiagram:
    """The canonical representative of the class of d, from the library's
    one pass (without the automorphism order that pass also returns)."""
    return _canonical_form(d)[0]


def finset_json(s: FinSet) -> dict:
    """A set as a diagram file spells it: its size, and its labels if any."""
    data = {"size": s.size}
    if s.labels is not None:
        data["labels"] = list(s.labels)
    return data


def setmap_json(f: SetMap) -> dict:
    """A set map as a diagram file spells it: its sizes and values."""
    return {"dom": f.dom.size, "cod": f.cod.size, "values": list(f.values)}


def diagram_json(d: FinDiagram) -> dict:
    """A diagram as `aut --diagram` reads it: its sets and maps."""
    return {"sets": [finset_json(s) for s in d.sets],
            "maps": [setmap_json(m) for m in d.maps]}


def encoded_diagram(encoding) -> FinDiagram:
    """The diagram with the sizes and map values of an encoding."""
    sizes, _, values = encoding
    sets = [FinSet(n) for n in sizes]
    return FinDiagram(sets, [SetMap(sets[i], sets[i + 1], v)
                             for i, v in enumerate(values)])


def census_diagrams(k: int, bounds) -> list:
    """The census's classes as diagrams, in its order."""
    return [encoded_diagram(e) for e in enumerate_diagrams(k, bounds)[0]]


@functools.lru_cache(maxsize=None)
def assembled_census(k: int, bounds: tuple) -> tuple:
    """(encodings, automorphism orders) of the classes of k-diagrams within
    bounds, sorted by encoding, by assembly: every bounded multiset the
    census walk yields is assembled into a labelled diagram and
    canonicalised by the library's level-class pass, over a pool that is
    this function's own census of the shorter classes.  The oracle of the
    shape census: it runs none of its code.  A class with two preimage
    multisets is refused."""
    pool = [FinDiagram([], [])]
    for j in range(1, k):
        window = bounds[k - 1 - j:k - 1]
        pool += map(encoded_diagram, assembled_census(j, window)[0])
    found = {}
    for indices in _admissible_multisets(k - 1, bounds,
                                         [d.sizes() for d in pool]):
        d, order = _canonical_form(assemble(k - 1, [pool[i] for i in indices]))
        assert d.encoding() not in found, indices
        found[d.encoding()] = order
    keys = sorted(found)
    return tuple(keys), tuple(found[key] for key in keys)


def forest_order(d: FinDiagram) -> int:
    """The order of the self-isomorphism group of d, recounted from the
    library's level classes: the product over every node of the forest of
    mult! for each class of isomorphic children, the roots (the elements
    of the last set) hung from one virtual root.  Counts the (parent,
    class) pairs of every element afresh, not the pass's own counts."""
    if d.k == 0:
        return 1
    classes, _ = _level_classes(d)
    parents = [*(m.values for m in d.maps), [0] * d.sets[-1].size]
    order = 1
    for up, level in zip(parents, classes):
        mults = collections.Counter(zip(up, level))
        order *= math.prod(map(math.factorial, mults.values()))
    return order


class DiagramIso(Value):
    """An isomorphism of k-diagrams: bijections sigma_i with commuting
    squares.  The oracle of `automorphism_group`'s generators, which the
    library builds as swaps and does not check again."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: FinDiagram, target: FinDiagram, components):
        components = tuple(components)
        if source.k != target.k or len(components) != source.k:
            raise ValueError("need one component per set")
        for i, c in enumerate(components):
            if c.dom.size != source.sets[i].size or c.cod.size != target.sets[i].size:
                raise ValueError(f"component {i} has wrong boundary")
            if not c.is_bijective():
                raise ValueError(f"component {i} is not bijective")
        # naturality: sigma_{i+1} o f_i = f'_i o sigma_i, on the value lists
        for i in range(source.k - 1):
            after = components[i + 1].values
            image = target.maps[i].values
            if ([after[y] for y in source.maps[i].values]
                    != [image[y] for y in components[i].values]):
                raise ValueError(f"naturality square {i} does not commute")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", components)

    def perms(self) -> tuple:
        """The components as `automorphism_group` gives a generator: one
        permutation tuple per set."""
        return tuple(c.values for c in self.components)


def aut_generators(data: dict, d: FinDiagram) -> list:
    """The generators of an `aut --format json` report on d, rebuilt
    through the validating `SetMap` and `DiagramIso` constructors."""
    return [DiagramIso(d, d, [SetMap(FinSet(c["dom"]), FinSet(c["cod"]),
                                     c["values"])
                              for c in g["components"]])
            for g in data["generators"]]


def checked_group(d: FinDiagram, generators) -> set:
    """The group that `generators` (permutation tuples) close to, each
    first checked as an automorphism of d, set by set and square by
    square."""
    for perms in generators:
        DiagramIso(d, d, [SetMap(s, s, p) for s, p in zip(d.sets, perms)])
    return closure(generators, d.sizes())


# (|X|, |Y|) up to the default size cap with at most 729 set maps X -> Y
MAP_SPACES = [(nx, ny) for nx in range(1, 7) for ny in range(1, 7)
              if ny ** nx <= 729]


def all_maps(dom: FinSet, cod: FinSet):
    """All set maps dom -> cod, in lexicographic order of value lists: the
    i-th has the base-|cod| digits of i as its values, the first digit the
    most significant (no `itertools.product`, unlike the library)."""
    n, m = dom.size, cod.size
    for i in range(m ** n):
        yield SetMap(dom, cod, [i // m ** (n - 1 - a) % m for a in range(n)])


def compose(f: SetMap, g: SetMap) -> SetMap:
    """The composite "f then g", i.e. g o f; requires f.cod = g.dom."""
    if f.cod.size != g.dom.size:
        raise ValueError("dimension mismatch: f.cod != g.dom")
    return SetMap(f.dom, g.cod, (g.values[v] for v in f.values))


def data_path(name: str) -> str:
    """The path of a packaged fixture, data/<name>."""
    return str(resources.files("motivic_kit").joinpath(f"data/{name}"))


def load_group(name: str) -> FiniteGroup:
    """One of the packaged group tables, data/groups/<name>.json."""
    path = resources.files("motivic_kit").joinpath(f"data/groups/{name}.json")
    return FiniteGroup.from_json(json.loads(path.read_text()))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def trivial_gset(group: FiniteGroup, carrier: FinSet) -> GSet:
    return GSet(group, carrier,
                [identity_map(carrier) for _ in group.elements()])


def regular_gset(group: FiniteGroup) -> GSet:
    """The group acting on itself by left translation."""
    carrier = FinSet(group.order)
    action = [SetMap(carrier, carrier,
                     [group.mul(g, h) for h in group.elements()])
              for g in group.elements()]
    return GSet(group, carrier, action)


def gset_from_generator_images(group: FiniteGroup, carrier: FinSet,
                               gens, images) -> GSet:
    """Extend bijections assigned to generators to a full action, or raise."""
    assigned = {group.identity: identity_map(carrier)}
    for a, i, b in group.cayley_edges(gens):
        m = compose(assigned[a], images[i])  # generator i acts after a
        if b not in assigned:
            assigned[b] = m
        elif assigned[b].values != m.values:
            raise ValueError("generator images are inconsistent")
    if len(assigned) != group.order:
        raise ValueError("generators do not generate")
    return GSet(group, carrier, [assigned[g] for g in group.elements()])


def all_gset_actions(group: FiniteGroup, size: int) -> list:
    """Every action of the group on a set of the given size.

    Enumerated via images of a generating set, so the cost is
    (size!)^(number of generators) candidate tuples.
    """
    carrier = FinSet(size)
    gens = group.generators
    if not gens:
        return [trivial_gset(group, carrier)]
    perms = [SetMap(carrier, carrier, p)
             for p in itertools.permutations(range(size))]
    out = []
    for images in itertools.product(perms, repeat=len(gens)):
        try:
            out.append(gset_from_generator_images(group, carrier, gens, images))
        except ValueError:
            continue
    return out


def group_json(g: FiniteGroup) -> dict:
    """A group as the `group` member of a `galois-fixed` input file."""
    return {"order": g.order, "table": [list(r) for r in g.table]}


def gset_json(x: GSet) -> dict:
    """A G-set as a `galois-fixed` input file."""
    return {"group": group_json(x.group), "carrier": finset_json(x.carrier),
            "action": [list(m.values) for m in x.action]}


def gset_payload(name: str, images) -> dict:
    """The JSON of the packaged group `name` acting on {0, 1, 2}, with its
    elements 1 and 2 acting by the permutations `images`."""
    carrier = FinSet(3)
    return gset_json(gset_from_generator_images(
        load_group(name), carrier, [1, 2],
        [SetMap(carrier, carrier, p) for p in images]))


def sub_gset(x: GSet, elements) -> GSet:
    """Restrict the action to the subgroup generated by the given elements."""
    group = x.group
    closed = sorted(group.closure(list(elements)))
    index = {g: i for i, g in enumerate(closed)}
    table = [[index[group.mul(a, b)] for b in closed] for a in closed]
    sub = FiniteGroup(table)
    return GSet(sub, x.carrier, [x.action[g] for g in closed])


@st.composite
def group_like_tables(draw, max_order: int = 6):
    """Multiplication tables with an identity and a right inverse of every
    element, associative or not.

    Half are group tables (cyclic, Klein four or S3) under a random
    relabeling, with at most one entry then changed; the rest are random
    outside the identity's row and column.  A row left without the
    identity gets it in a random place.
    """
    if draw(st.booleans()):
        base = draw(st.sampled_from(
            [[[(i + j) % n for j in range(n)] for i in range(n)]
             for n in range(1, max_order + 1)]
            + [[[i ^ j for j in range(4)] for i in range(4)],
               [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4],
                [2, 4, 0, 5, 1, 3], [3, 5, 1, 4, 0, 2],
                [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]]))
        n = len(base)
        perm = draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[base[a][b]]
        identity = perm[0]
        if n > 1 and draw(st.booleans()):
            others = [g for g in range(n) if g != identity]
            a, b = draw(st.sampled_from(others)), draw(st.sampled_from(others))
            table[a][b] = draw(st.integers(0, n - 1))
    else:
        n = draw(st.integers(1, max_order))
        identity = draw(st.integers(0, n - 1))
        table = [[draw(st.integers(0, n - 1)) for _ in range(n)]
                 for _ in range(n)]
        for g in range(n):
            table[identity][g] = table[g][identity] = g
    for g in range(n):
        if identity not in table[g]:
            column = draw(st.sampled_from(
                [c for c in range(n) if c != identity]))
            table[g][column] = identity
    return table


@st.composite
def small_diagrams(draw, max_relabelings=20_000):
    """Random chain diagrams with prod |S_i|! <= max_relabelings.

    Each map draws its values from a short prefix of its codomain, so
    fibers are large and the diagrams have many symmetries; a random
    relabeling then scatters the labels.
    """
    length = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 6))]
    while len(sizes) < length:
        n = draw(st.integers(1, 6))
        if math.prod(math.factorial(s) for s in sizes + [n]) \
                > max_relabelings:
            break
        sizes.append(n)
    sets = [FinSet(n) for n in sizes]
    maps = []
    for i in range(len(sizes) - 1):
        image = draw(st.integers(1, sizes[i + 1]))
        values = draw(st.lists(st.integers(0, image - 1),
                               min_size=sizes[i], max_size=sizes[i]))
        maps.append(SetMap(sets[i], sets[i + 1], values))
    perms = [draw(st.permutations(range(n))) for n in sizes]
    return FinDiagram(sets, maps).relabel(perms)


@st.composite
def twinned_chains(draw, max_size=4, max_relabelings=20_000):
    """Random chains of length 0 to 4, with at most `max_size` elements
    per set and prod |S_i|! <= max_relabelings, whose forests repeat
    isomorphic subtrees.

    The forest is drawn top-down, a tree as the tuple of its children:
    each drawn subtree is followed by copies of itself, as many as the
    room left on its levels allows.  The first tree drawn under each
    parent on the way down reaches the first set, so no set is empty, and
    a random relabeling then scatters the labels.
    """
    k = draw(st.integers(0, 4))
    room, total = [], 1  # room[i]: the elements level i may still take
    for _ in range(k):
        cap = max(n for n in range(1, max_size + 1)
                  if total * math.factorial(n) <= max_relabelings)
        room.append(draw(st.integers(1, cap)))
        total *= math.factorial(room[-1])

    def sizes(tree, level, acc):
        acc[level] = acc.get(level, 0) + 1
        for child in tree:
            sizes(child, level - 1, acc)
        return acc

    def siblings(level, spine):
        trees = []
        for n in range(draw(st.integers(int(spine), 2))):
            if room[level] == 0:
                break
            room[level] -= 1
            tree = tuple(siblings(level - 1, spine and n == 0)
                         if level else ())
            counts = sizes(tree, level, {})
            copies = draw(st.integers(0, min(room[j] // c
                                             for j, c in counts.items())))
            for j, c in counts.items():
                room[j] -= c * copies
            trees += [tree] * (1 + copies)
        return trees

    levels = [0] * k
    values = [[] for _ in range(k - 1)]  # values[i]: the map out of level i

    def place(tree, level, parent):
        me = levels[level]
        levels[level] += 1
        if parent is not None:
            values[level].append(parent)
        for child in tree:
            place(child, level - 1, me)

    for tree in siblings(k - 1, True) if k else ():
        place(tree, k - 1, None)
    sets = [FinSet(n) for n in levels]
    d = FinDiagram(sets, [SetMap(sets[i], sets[i + 1], v)
                          for i, v in enumerate(values)])
    return d.relabel([draw(st.permutations(range(n))) for n in levels])


# Mostly zeros, as in the structure matrices, plus ones, negatives and
# non-integers.
sparse_rationals = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)),
    st.just(Fraction(1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


# The same mix as `sparse_rationals`, but every integral value is an `int`.
mixed_rationals = st.one_of(
    st.just(0), st.just(0), st.just(0), st.just(1), st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
        lambda x: x.denominator != 1))
# Incidence-like entries: every pivot is a unit.
unit_entries = st.sampled_from([0, 0, 0, 1, -1])
# Mostly zeros, with integer pivots other than +-1.
integer_entries = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))


def qmatrices(rows: int, cols: int, entries=sparse_rationals):
    """Strategy for rows x cols matrices with the given entry strategy."""
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: QMatrix(rows, cols, e))


def random_qmatrix(rng: random.Random, rows: int, cols: int,
                   num_bound: int = 5, den_bound: int = 4) -> QMatrix:
    entries = [Fraction(rng.randint(-num_bound, num_bound),
                        rng.randint(1, den_bound))
               for _ in range(rows * cols)]
    return QMatrix(rows, cols, entries)


def complex_json(c: ChainComplex) -> dict:
    """A chain complex as a cube vertex or ambient in a `hocolim` input;
    only its stored (nonzero) differentials are written."""
    return {"lo": c.lo, "hi": c.hi,
            "dims": {str(n): c.dims[n] for n in range(c.lo, c.hi + 1)},
            "differentials": {str(n): d.to_json()
                              for n, d in c.differentials.items()}}


def edge_json(blocks: dict) -> dict:
    """A cube edge, given by its blocks, in a `hocolim` input, by degree;
    a cube's edges hold only their nonzero blocks."""
    return {str(q): b.to_json() for q, b in sorted(blocks.items())}


def cube_json(d: CubeDiagram) -> dict:
    """The cube as a `hocolim` input: the empty vertex, if any, is the
    `ambient`, and the edges into it are the `ambient_edges`."""
    vertices = sorted(d.vertices.items(), key=lambda kv: _subset_key(kv[0]))
    edges = sorted(d.edges.items(), key=lambda kv: (_subset_key(kv[0][0]),
                                                     _subset_key(kv[0][1])))
    out = {"index_size": d.index_size,
           "vertices": {_name(s): complex_json(c) for s, c in vertices if s},
           "edges": {f"{_name(b)}->{_name(s)}": edge_json(m)
                     for (b, s), m in edges if s}}
    if frozenset() in d.vertices:
        out["ambient"] = complex_json(d.vertices[frozenset()])
        out["ambient_edges"] = {_name(b): edge_json(m)
                                for (b, s), m in edges if not s}
    return out


def cover_cube_diagram(components) -> tuple:
    """The punctured cube of a cover of a finite point set by subsets.

    Each component is an iterable of point labels; vertex S carries the
    degree-0 complex on the intersection of the chosen components, and
    edges are the inclusion indicator matrices.  Returns the diagram and
    the sorted point list of the union.
    """
    components = [sorted(set(c)) for c in components]
    n = len(components)
    union = sorted(set().union(*components)) if components else []
    inters = {}
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            s = frozenset(combo)
            pts = set(components[combo[0]])
            for i in combo[1:]:
                pts &= set(components[i])
            inters[s] = sorted(pts)
    vertices = {s: single_degree_complex(len(pts))
                for s, pts in inters.items()}
    edges = {}
    for big, big_pts in inters.items():
        for el in big:
            small = big - {el}
            if not small:
                continue
            small_pts = inters[small]
            index = {p: i for i, p in enumerate(small_pts)}
            mat = QMatrix(len(small_pts), len(big_pts),
                          [1 if index[p] == i else 0
                           for i in range(len(small_pts))
                           for p in big_pts])
            edges[(big, small)] = ChainMap(vertices[big], vertices[small],
                                           {0: mat})
    return CubeDiagram(n, vertices, edge_blocks(edges)), union


def ambient_cube_payload() -> dict:
    """`hocolim` input: the two-patch cover of {a, b, c} mapping into the
    four ambient points {a, b, c, d}."""
    comps = [["a", "b"], ["b", "c"]]
    cube, _ = cover_cube_diagram(comps)
    ambient = single_degree_complex(4)
    pts = ["a", "b", "c", "d"]
    payload = cube_json(cube)
    payload["ambient"] = complex_json(ambient)
    payload["ambient_edges"] = {}
    for i, comp in enumerate(comps):
        m = QMatrix(4, len(comp), [1 if pts[r] == p else 0
                                   for r in range(4) for p in comp])
        chain = ChainMap(cube.vertices[frozenset({i})], ambient, {0: m})
        payload["ambient_edges"][str(i)] = edge_json(chain.blocks)
    return payload


def square_cube_payload() -> dict:
    """`ambient_cube_payload` with b, the point of [0, 1], sent to d rather
    than to b from [0]: the square at [0, 1] minus {0,1} does not commute."""
    payload = ambient_cube_payload()
    payload["ambient_edges"]["0"]["0"]["entries"] = [
        "1", "0", "0", "0", "0", "0", "0", "1"]
    return payload


def empty_block_cube_payload(ambient: bool) -> dict:
    """`hocolim` input whose edges carry 0-row and 0-column blocks: [0] is
    a segment, [1] a point and [0, 1] one class in degree 1, so the edge
    [0, 1] -> [1] has a 1x0 block in degree 0 and a 0x1 block in degree 1.
    With `ambient`, the segment is the ambient, [0] maps onto it and [1]
    onto its first end."""
    def matrix(rows, cols, *entries):
        return {"rows": rows, "cols": cols, "entries": list(entries)}

    def complex_(dims, differentials):
        return {"lo": 0, "hi": 1, "dims": dict(zip("01", dims)),
                "differentials": differentials}
    segment = complex_((2, 1), {"1": matrix(2, 1, "-1", "1")})
    payload = {"index_size": 2,
               "vertices": {"0": segment, "1": complex_((1, 0), {}),
                            "0,1": complex_((0, 1), {})},
               "edges": {"0,1->0": {"0": matrix(2, 0), "1": matrix(1, 1, "0")},
                         "0,1->1": {"0": matrix(1, 0), "1": matrix(0, 1)}}}
    if ambient:
        payload["ambient"] = segment
        payload["ambient_edges"] = {
            "0": {"0": matrix(2, 2, "1", "0", "0", "1"), "1": matrix(1, 1, "1")},
            "1": {"0": matrix(2, 1, "1", "0"), "1": matrix(1, 0)}}
    return payload


def rational_cube_payload() -> dict:
    """`hocolim` input with rational entries: points [0] of dimension 2,
    [1] of dimension 1 and [0, 1] of dimension 2, whose two edges are
    multiples of one row, so the total differential has rank 1 and its
    elimination divides by the pivot -1/2."""
    def matrix(rows, cols, *entries):
        return {"rows": rows, "cols": cols, "entries": list(entries)}

    def point(dim):
        return {"lo": 0, "hi": 0, "dims": {"0": dim}, "differentials": {}}
    return {"index_size": 2,
            "vertices": {"0": point(2), "1": point(1), "0,1": point(2)},
            "edges": {"0,1->0": {"0": matrix(2, 2, "1/2", "-2/3", 1, "-4/3")},
                      "0,1->1": {"0": matrix(1, 2, "3", -4)}}}


def misshaped_empty_block_payload() -> dict:
    """`empty_block_cube_payload` with an empty degree-1 block on the edge
    [0, 1] -> [0], where the target has dimension 1 in degree 1."""
    payload = empty_block_cube_payload(ambient=False)
    payload["edges"]["0,1->0"]["1"] = {"rows": 0, "cols": 1, "entries": []}
    return payload


def full_cube(ambient: ChainComplex, cube, singles) -> CubeDiagram:
    """The punctured `cube` with `ambient` at its empty vertex and the maps
    `singles`, keyed by singleton, as the edges into it."""
    empty = frozenset()
    return CubeDiagram(cube.index_size, {**cube.vertices, empty: ambient},
                       {**cube.edges, **{(frozenset(s), empty): m.blocks
                                         for s, m in singles.items()}})


def first_failing_square(vertices, edges):
    """The fault `CubeDiagram` names for the first square whose two paths
    differ, in the insertion order of `vertices` and then by the two
    indices removed, or None if every square commutes.  Each path is
    composed degree by degree with the dense `matmul`, on the zero-filled
    blocks of the source vertex's degrees."""
    for big in vertices:
        for s, t in itertools.combinations(sorted(big), 2):
            small = big - {s, t}
            if small not in vertices:
                continue
            degrees = range(vertices[big].lo, vertices[big].hi + 1)
            one, two = ([matmul(dense_at(edges[(big - {i}, small)], q),
                                dense_at(edges[(big, big - {i})], q))
                         for q in degrees] for i in (s, t))
            if one != two:
                return (f"square at {sorted(big)} minus {{{s},{t}}} "
                        "does not commute")
    return None


def chain_map_fault(f: ChainMap):
    """The fault of `f` that the per-edge check named: the lowest source
    degree q with d f_q != f_(q-1) d, each side composed by
    `schoolbook_matmul` on the zero-filled blocks, or None if f commutes
    with d."""
    for q in range(f.source.lo, f.source.hi + 1):
        if (schoolbook_matmul(dense_at(f.target, q), dense_at(f, q))
                != schoolbook_matmul(dense_at(f, q - 1),
                                     dense_at(f.source, q))):
            return f"does not commute with d in degree {q}"
    return None


def first_cube_fault(vertices, edges):
    """The fault `CubeDiagram` names for `edges`, given by their blocks:
    the first edge, in the order of `edges`, whose blocks make no
    `ChainMap` between its vertices; else the first that `chain_map_fault`
    rejects; each keyed as a `hocolim` file keys it; else
    `first_failing_square`."""
    def name(big, small):
        def key(s):
            return ",".join(map(str, sorted(s)))
        return (f"edges[{json.dumps(key(big) + '->' + key(small))}]"
                if small else f"ambient_edges[{json.dumps(key(big))}]")
    maps = {}
    for (big, small), blocks in edges.items():
        try:
            maps[big, small] = ChainMap(vertices[big], vertices[small], blocks)
        except ValueError as exc:
            return f"{name(big, small)} is not a chain map: {exc}"
    for (big, small), f in maps.items():
        fault = chain_map_fault(f)
        if fault is not None:
            return f"{name(big, small)} is not a chain map: {fault}"
    return first_failing_square(vertices, maps)


def cube_subsets(d) -> list:
    """The vertices of a cube diagram, by size, then sorted."""
    return sorted(d.vertices, key=lambda s: (len(s), sorted(s)))


def _place(entries: list, cols: int, block: QMatrix, r0: int, c0: int,
           sign: int = 1):
    for i, row in enumerate(dense_rows(block)):
        for j, v in enumerate(row):
            entries[(r0 + i) * cols + c0 + j] += sign * v


def _dense_layout(d):
    """Degree range, dimensions and summand offsets of the punctured total
    complex: column p = |s| - 1, subsets by size, then sorted."""
    summands = [(len(s) - 1, s) for s in cube_subsets(d)]
    lo = min(d.vertices[s].lo for _, s in summands)
    hi = max(p + d.vertices[s].hi for p, s in summands)
    dims = {}
    offsets = {}
    for m in range(lo, hi + 1):
        off = {}
        total = 0
        for p, s in summands:
            off[s] = total
            total += dim(d.vertices[s], m - p)
        dims[m] = total
        offsets[m] = off
    return lo, hi, dims, offsets, summands


def dense_punctured_total(d) -> ChainComplex:
    """The punctured total complex, assembled on its own: internal sign
    (-1)^p, edge s -> s - {el} signed by the position of el."""
    if not d.vertices:
        return single_degree_complex(0)
    lo, hi, dims, offsets, summands = _dense_layout(d)
    maps = edge_maps(d)
    diffs = {}
    for m in range(lo + 1, hi + 1):
        rows, cols = dims[m - 1], dims[m]
        entries = [0] * (rows * cols)
        for p, s in summands:
            q = m - p
            c0 = offsets[m][s]
            _place(entries, cols, dense_at(d.vertices[s], q),
                   offsets[m - 1][s], c0, (-1) ** p)
            for idx, el in enumerate(sorted(s)):
                small = s - {el}
                if small:
                    _place(entries, cols, dense_at(maps[(s, small)], q),
                           offsets[m - 1][small], c0, (-1) ** idx)
        diffs[m] = QMatrix(rows, cols, entries)
    return ChainComplex(lo, hi, dims, diffs)


def dense_cone(ambient: ChainComplex, d, singleton_maps) -> ChainComplex:
    """The mapping cone of the punctured total complex into the ambient,
    [[d_A, f], [0, -d_Tot]] with A_m before Tot_{m-1}, where f is the map
    each summand of column 0 sends into the ambient.  Every path from a
    subset into the ambient is composed and compared."""
    if not d.vertices:
        return ambient
    into_ambient, maps = {}, edge_maps(d)
    for s in cube_subsets(d):
        if len(s) == 1:
            if s not in singleton_maps:
                raise ValueError(f"missing map into ambient for {sorted(s)}")
            m = singleton_maps[s]
            if m.source != d.vertices[s] or m.target != ambient:
                raise ValueError("singleton map has wrong endpoints")
            into_ambient[s] = m
        else:
            candidates = [schoolbook_composite(maps[(s, s - {el})],
                                               into_ambient[s - {el}])
                          for el in sorted(s)]
            if any(other != candidates[0] for other in candidates[1:]):
                raise ValueError(f"maps into ambient from {sorted(s)} "
                                 "are incompatible")
            into_ambient[s] = candidates[0]
    tot = dense_punctured_total(d)
    _, _, _, toffsets, summands = _dense_layout(d)
    lo = min(ambient.lo, tot.lo + 1)
    hi = max(ambient.hi, tot.hi + 1)
    dims = {m: dim(ambient, m) + dim(tot, m - 1) for m in range(lo, hi + 1)}
    diffs = {}
    for m in range(lo + 1, hi + 1):
        rows, cols = dims[m - 1], dims[m]
        entries = [0] * (rows * cols)
        _place(entries, cols, dense_at(ambient, m), 0, 0)
        _place(entries, cols, dense_at(tot, m - 1),
               dim(ambient, m - 1), dim(ambient, m), -1)
        # the induced map Tot -> ambient lives on the p = 0 column
        if dim(tot, m - 1):
            for p, s in summands:
                if p == 0:
                    _place(entries, cols, dense_at(into_ambient[s], m - 1),
                           0, dim(ambient, m) + toffsets[m - 1][s])
        diffs[m] = QMatrix(rows, cols, entries)
    return ChainComplex(lo, hi, dims, diffs)


def cone_basis_signs(ambient: ChainComplex, d, m: int) -> QMatrix:
    """The diagonal basis change E in degree m of the cone: +1 on the
    ambient and (-1)^(|s|-1) on the summand of each nonempty s."""
    signs = [1] * dim(ambient, m)
    for s in cube_subsets(d):
        signs += [(-1) ** (len(s) - 1)] * dim(d.vertices[s], m - len(s))
    n = len(signs)
    return QMatrix(n, n, [signs[i] if i == j else 0
                          for i in range(n) for j in range(n)])


def union_find_components(components) -> int:
    """Size of the colimit of a cover diagram, by explicit gluing.

    Start from one copy of each point per component that contains it, then
    identify the copies living in a common intersection; the block count
    is the number of points of the glued union.
    """
    copies = [(i, p) for i, comp in enumerate(components) for p in set(comp)]
    parent = {c: c for c in copies}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for (i, comp_i), (j, comp_j) in itertools.combinations(
            enumerate(map(set, components)), 2):
        for p in comp_i & comp_j:
            ra, rb = find((i, p)), find((j, p))
            if ra != rb:
                parent[rb] = ra
    return len({find(c) for c in copies})


def simplex_complex_homology(vertex_count: int) -> dict:
    """Simplicial homology of the full simplex on the given vertices.

    Built directly from subset boundary matrices, independent of any cube
    machinery; degree p holds the (p+1)-subsets.
    """
    assert vertex_count >= 1
    subsets = {p: list(itertools.combinations(range(vertex_count), p + 1))
               for p in range(vertex_count)}
    index = {p: {s: i for i, s in enumerate(subsets[p])}
             for p in subsets}
    homology = {}
    boundaries = {}
    for p in range(1, vertex_count):
        rows = len(subsets[p - 1])
        cols = len(subsets[p])
        entries = [0] * (rows * cols)
        for j, s in enumerate(subsets[p]):
            for omit in range(len(s)):
                face = s[:omit] + s[omit + 1:]
                i = index[p - 1][face]
                entries[i * cols + j] = (-1) ** omit
        boundaries[p] = QMatrix(rows, cols, entries)
    for p in range(vertex_count):
        null_p = len(subsets[p]) - (dense_rank(boundaries[p]) if p else 0)
        rank_next = (dense_rank(boundaries[p + 1]) if p + 1 < vertex_count
                     else 0)
        homology[p] = null_p - rank_next
    return homology


def nerve_oracle_homology(components, degree: int) -> int:
    """Homology of a cover of a point set, summed pointwise over simplices.

    Each point of the union sees the full simplex on the components that
    contain it; the cover complex is the direct sum of those simplex
    complexes.
    """
    union = sorted(set().union(*[set(c) for c in components])) if components else []
    total = 0
    for p in union:
        owners = [i for i, c in enumerate(components) if p in set(c)]
        total += simplex_complex_homology(len(owners)).get(degree, 0)
    return total


def inclusion_exclusion_euler(components) -> int:
    """Alternating sum of intersection sizes over nonempty index subsets."""
    n = len(components)
    sets = [set(c) for c in components]
    total = 0
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            inter = set(sets[combo[0]])
            for i in combo[1:]:
                inter &= sets[i]
            total += (-1) ** (r - 1) * len(inter)
    return total


def random_cover(rng: random.Random, max_components: int = 4,
                 max_points: int = 5, universe: int = 6):
    """A random cover model: a few components of a small labeled universe."""
    labels = [f"p{i}" for i in range(universe)]
    count = rng.randint(1, max_components)
    comps = []
    for _ in range(count):
        size = rng.randint(1, max_points)
        comps.append(sorted(rng.sample(labels, size)))
    return comps


def reference_reader(spec):
    """`_value.compile_reader` as it was before leaf types were checked
    in line: every JSON type through its own reader.  The oracle of the
    compiled readers' values and error texts.

    A spec is a JSON type (exact: a boolean is no integer), `[spec]` for
    a list, `{key: spec}` for an object whose member names the function
    `key` parses to distinct keys, `{"name": spec, ...}` for the fields
    of an object, read in this order into a tuple (a name ending in "?"
    may be absent and reads as None), or a function such as `from_json`.
    An `InputError` leaving a nested read gets that step put in front.
    """
    if type(spec) is type:
        def read_type(value):
            if type(value) is not spec:
                raise InputError(f"must be {_KINDS[spec]}, got {show(value)}")
            return value
        return read_type
    if type(spec) is list:
        read_list, item = reference_reader(list), reference_reader(spec[0])

        def read_items(value):
            out = []
            for v in read_list(value):
                try:
                    out.append(item(v))
                except InputError as exc:
                    raise exc.inside(f"[{len(out)}]")
            return out
        return read_items
    if type(spec) is not dict:
        return spec
    read_object = reference_reader(dict)
    if type(next(iter(spec))) is not str:
        [(key, inner)] = spec.items()
        key, inner = reference_reader(key), reference_reader(inner)

        def read_members(value):
            out = {}
            for k, v in read_object(value).items():
                try:
                    k_read = key(k)  # the key first, as the file lists it
                    out[k_read] = inner(v)
                except InputError as exc:
                    raise exc.inside(f"[{json.dumps(k)}]")
            if len(out) < len(value):
                raise RepeatedKey(value, key)
            return out
        return read_members
    fields = [(name.rstrip("?"), name.endswith("?"), reference_reader(inner),
               "is missing, must be " + _KINDS.get(
                   inner if type(inner) is type else type(inner), "an object"))
              for name, inner in spec.items()]

    def read_fields(value):
        read_object(value)
        out = []
        for name, optional, inner, missing in fields:
            if name in value:
                try:
                    out.append(inner(value[name]))
                except InputError as exc:
                    raise exc.inside(name)
            elif optional:
                out.append(None)
            else:
                raise InputError(missing, name)
        return tuple(out)
    return read_fields
