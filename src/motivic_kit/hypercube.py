"""Exact homotopy colimits of cubes of chain complexes.

Vertices of a hypercube on an index set I are the subsets of I, keyed in
input files by their comma-joined sorted indices.  A punctured cube
diagram assigns a chain complex to every nonempty subset and a chain map
to every one-step inclusion, contravariantly (deeper intersections map
to shallower ones); its homotopy colimit is realized as the total complex
with alternating signs, one column per subset size.  The
compactly-supported model puts an ambient complex at the empty vertex,
with one chain map into it from each singleton; the total complex of
that full cube is the mapping cone of the punctured colimit into the
ambient.  One value, `CubeDiagram`, holds either cube and builds its
total complex once, which both colimits return: column p holds the
subsets of size p + (smallest size), the internal differential of
column p carries the sign (-1)^p, and the edge s -> s - {i} the sign
(-1)^(position of i in sorted(s)).  An edge is no value of its own: it
is the dict of its nonzero blocks by degree, and the cube checks only
their shapes, against the dimensions of the two vertices its key names.
The block s -> s of D o D is the vertex's own d o d, s -> s - {i}
is +-(d f - f d) for the edge f, and s -> s - {i, j} is the square, its
two paths with opposite signs; so D o D = 0 exactly when every edge
commutes with d and every square commutes (Weibel, 1.2).  The complex's
own check is the cube's one commutation check, and only when it fails
is the first failing edge or square looked for, to name it.
"""

from __future__ import annotations

import itertools
from functools import cache, partial

from ._value import (InputError, RepeatedKey, Value, compile_reader,
                     degree_key, show)
from .qlinalg import (ChainComplex, QMatrix, product_terms,
                      single_degree_complex)


def _subset_key(s) -> tuple:
    return (len(s), tuple(sorted(s)))


def _name(s) -> str:
    """The key of subset s in a `hocolim` file, such as "0,2"."""
    return ",".join(str(i) for i in sorted(s))


def _edge_name(big, small) -> str:
    """The member of a `hocolim` file that holds the edge big -> small."""
    return (f"edges[{show(f'{_name(big)}->{_name(small)}')}]" if small
            else f"ambient_edges[{show(_name(big))}]")


class CubeDiagram(Value):
    """A cube diagram of chain complexes on an index set.

    One complex per nonempty subset of {0..index_size-1} and, if the cube
    has an ambient, one at the empty subset, keyed by frozenset; one chain
    map per one-step inclusion between vertices, keyed (larger, smaller)
    and directed that way, given as the dict {degree q: its block from
    vertex larger to vertex smaller}.  Each block's shape is checked
    against the two vertices, and an edge keeps only its blocks with a
    nonzero entry: an absent one is zero.  The cube builds its total
    complex, `total`, once; its d o d = 0 check verifies every edge and
    square exactly.
    """

    __slots__ = ("index_size", "vertices", "edges", "total")

    def __init__(self, index_size: int, vertices, edges):
        vertices, edges = dict(vertices), dict(edges)
        # as many distinct subsets of the index range as there are nonempty
        # ones (or subsets, with the empty one): compare the counts first,
        # 2^index_size may be out of reach
        if (index_size > len(vertices)
                or len(vertices) != 2 ** index_size - (frozenset() not in vertices)
                or not frozenset().union(*vertices) <= set(range(index_size))):
            raise ValueError("need exactly the nonempty subsets as vertices")
        for (big, small), blocks in edges.items():
            if not (small < big and len(big) == len(small) + 1
                    and big in vertices and small in vertices):
                raise ValueError("edges must be one-step inclusions between "
                                 "vertices")
            rows, cols, kept = vertices[small].dims, vertices[big].dims, {}
            for q, m in blocks.items():
                if m.rows != rows.get(q, 0) or m.cols != cols.get(q, 0):
                    raise ValueError(f"{_edge_name(big, small)} is not a "
                                     f"chain map: block {q} has wrong shape")
                if m.terms:
                    kept[q] = m
            edges[big, small] = kept
        # the given edges are distinct one-step inclusions between vertices;
        # a full cube has one per element of a vertex, but none out of a
        # singleton when there is no empty vertex: walk only on a shortfall
        inclusions = sum(map(len, vertices)) - index_size * (
            frozenset() not in vertices)
        for big in vertices if len(edges) < inclusions else ():
            for s in big:
                small = big - {s}
                if small in vertices and (big, small) not in edges:
                    raise ValueError(f"missing edge {sorted(big)}->{sorted(small)}")
        total = (_total_complex(vertices, edges) if vertices
                 else single_degree_complex(0))
        object.__setattr__(self, "index_size", index_size)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "total", total)

    @staticmethod
    def from_json(data) -> "CubeDiagram":
        """The cube of a `hocolim` input; an `ambient`, if present, is its
        empty vertex and `ambient_edges` the edges from the singletons."""
        vertices, edges, index_size, ambient = _READ_CUBE(data)
        vertex = cache(partial(_subset, vertices=vertices))  # once per key

        def ends(name):
            """The vertices an edge key such as "0,1->0" joins."""
            big, arrow, small = name.partition("->")
            if not arrow:
                raise InputError('is not keyed by two subsets joined by "->"')
            return vertex(big), vertex(small)
        edges = _edges(edges, ends, "edges")
        if ambient is not None:
            def singleton(name):
                s = vertex(name)
                if len(s) != 1:
                    raise InputError(f"names {sorted(s)}, which is not a singleton")
                return s, frozenset()
            (singles,) = _READ_AMBIENT_EDGES(data)
            vertices[frozenset()] = ambient
            edges.update(_edges(singles, singleton, "ambient_edges"))
        return CubeDiagram(index_size, vertices, edges)


def _subset(name: str, vertices=None) -> frozenset:
    """The subset a key such as "0,2" names; one of `vertices`, if given."""
    try:
        s = frozenset(map(int, name.split(",")))
    except ValueError:
        raise InputError("is not keyed by comma-separated integers") from None
    if vertices is not None and s not in vertices:
        raise InputError(f"names {sorted(s)}, which is not a vertex")
    return s


def _edges(members: dict, ends, name: str) -> dict:
    """Field `name`'s blocks by edge, keyed by `ends`; a fault in a key
    names the member."""
    out = {}
    for k, blocks in members.items():
        try:
            out[ends(k)] = blocks
        except InputError as exc:
            raise exc.inside(f"{name}[{show(k)}]")
    if len(out) < len(members):
        raise RepeatedKey(members, ends).inside(name)
    return out


def _add_block(terms: dict, cols: int, block: QMatrix, r0: int, c0: int,
               sign: int):
    """Add sign * block into a dict of row-major terms at row r0, column c0."""
    n = block.cols
    for k, v in (block.terms if sign == 1
                 else [(k, -v) for k, v in block.terms]):
        i, j = divmod(k, n)
        k = (r0 + i) * cols + c0 + j
        terms[k] = terms.get(k, 0) + v


def _total_complex(vertices, edges) -> ChainComplex:
    """The total complex of a cube diagram on the subsets in `vertices`,
    with the columns and signs above, over the degree range of the shifted
    vertices.  It may span no more degrees than the vertices list together,
    so that the output stays within the size of the input; if its d o d
    is not zero, the first edge or square that does not commute is named."""
    summands = sorted(vertices, key=_subset_key)
    column = {s: len(s) - len(summands[0]) for s in summands}
    lo = min(column[s] + vertices[s].lo for s in summands)
    hi = max(column[s] + vertices[s].hi for s in summands)
    listed = sum(len(vertices[s].dims) for s in summands)
    if hi - lo + 1 > listed:
        raise ValueError(f"the total complex spans {hi - lo + 1} degrees, "
                         f"more than the {listed} its vertices list together")
    dims = dict.fromkeys(range(lo, hi + 1), 0)
    # (subset, its degree q) -> first index in degree q + p, for q of
    # nonzero dimension: a stored matrix has a nonzero entry, so no
    # differential or block meets a zero space
    offsets = {}
    placed = {}  # degree -> [(block, first row, first column, sign)]
    for s in summands:
        p = column[s]
        for q, n in vertices[s].dims.items():
            if n:
                offsets[(s, q)] = dims[q + p]
                dims[q + p] += n
        for q, d in vertices[s].differentials.items():
            placed.setdefault(q + p, []).append(
                (d, offsets[(s, q - 1)], offsets[(s, q)], (-1) ** p))
    for (big, small), blocks in edges.items():
        if blocks:
            (i,) = big - small
            sign, p = (-1) ** sorted(big).index(i), column[big]
            for q, block in blocks.items():
                placed.setdefault(q + p, []).append(
                    (block, offsets[(small, q)], offsets[(big, q)], sign))
    diffs = {}
    for m, blocks in placed.items():
        terms = {}
        for block, r0, c0, sign in blocks:
            _add_block(terms, dims[m], block, r0, c0, sign)
        diffs[m] = QMatrix(dims[m - 1], dims[m], terms)
    try:
        return ChainComplex(lo, hi, dims, diffs)
    except ValueError:  # d o d != 0
        raise ValueError(_failing_member(vertices, edges, column, offsets,
                                         diffs)) from None


def _failing_member(vertices, edges, column, offsets, diffs) -> str:
    """The first edge s -> s - {i}, in the order of `edges`, whose block
    of d o d != 0 is nonzero, named by its file key and the lowest source
    degree it fails in, m - column[s] for total degree m; else the first
    square, in vertex order and then by the two indices removed, whose
    block s -> s - {i, j} is nonzero."""
    def owner(m, k):  # the subset whose summand holds index k of degree m
        return next(s for (s, q), first in offsets.items() if q + column[s]
                    == m and first <= k < first + vertices[s].dims[q])
    faults = {}  # (source subset, target subset) -> the lowest degree m
    for m, d in sorted(diffs.items()):
        for k in product_terms(diffs[m - 1], d) if m - 1 in diffs else ():
            faults.setdefault((owner(m, k % d.cols),
                               owner(m - 2, k // d.cols)), m)
    for big, small in edges:
        if (big, small) in faults:
            return (f"{_edge_name(big, small)} is not a chain map: does not "
                    f"commute with d in degree "
                    f"{faults[big, small] - column[big]}")
    for big in vertices:
        for s, t in itertools.combinations(sorted(big), 2):
            if (big, big - {s, t}) in faults:
                return (f"square at {sorted(big)} minus {{{s},{t}}} "
                        "does not commute")


def punctured_cube_hocolim(d: CubeDiagram) -> ChainComplex:
    """The total complex computing the homotopy colimit of the punctured
    cube: column p collects the subsets of size p+1, shifted up by p."""
    if frozenset() in d.vertices:
        raise ValueError("the cube has an ambient: its colimit is ks_hocolim")
    return d.total


def ks_hocolim(d: CubeDiagram) -> ChainComplex:
    """Mapping cone of the punctured-cube colimit mapping into an ambient.

    The ambient sits at the empty vertex of `d`, and the edges into it
    are the maps from the singletons; the total complex of the full cube
    is the cone.  The cube with no other vertex gives the ambient itself.
    """
    if frozenset() not in d.vertices:
        raise ValueError("the cube has no ambient at the empty vertex")
    return d.total


def hocolim_from_json(data) -> ChainComplex:
    """The total complex of a `hocolim` input, a mapping cone if it has an
    `ambient` (with `ambient_edges`, a chain map from each singleton)."""
    cube = CubeDiagram.from_json(data)
    if frozenset() in cube.vertices:
        return ks_hocolim(cube)
    return punctured_cube_hocolim(cube)


# the readers of input files, compiled once
_BLOCKS = {degree_key: QMatrix.from_json}
_READ_CUBE = compile_reader({"vertices": {_subset: ChainComplex.from_json},
                             "edges": {str: _BLOCKS}, "index_size": int,
                             "ambient?": ChainComplex.from_json})
_READ_AMBIENT_EDGES = compile_reader({"ambient_edges": {str: _BLOCKS}})
