"""Exact homotopy colimits of cubes of chain complexes.

Vertices of a hypercube on an index set I are the subsets of I, keyed in
input files by their comma-joined sorted indices.  A punctured cube diagram assigns a chain
complex to every nonempty subset and a chain map to every one-step
inclusion, contravariantly (deeper intersections map to shallower ones);
its homotopy colimit is realized as the total complex with alternating
signs, one column per subset size.  The compactly-supported model puts
an ambient complex at the empty vertex, with one chain map into it from
each singleton; the total complex of that full cube is the mapping cone
of the punctured colimit into the ambient.  One builder serves both:
column p holds the subsets of size p + (smallest size), the internal
differential of column p carries the sign (-1)^p, and the edge
s -> s - {i} the sign (-1)^(position of i in sorted(s)).

The compactification diagrams of `kappa` are only rendered: each vertex
is a row of its name and a symbolic expression such as "C_*(A&B)" that
nothing evaluates, and the twist and shift of the colimit are integers
on the diagram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ._value import InputError, Value, compile_reader, degree_key, show
from .qlinalg import (ChainComplex, QMatrix, product_terms,
                      single_degree_complex)


class ChainMap(Value):
    """A degreewise matrix map of chain complexes, commuting with d.  Only
    blocks with a nonzero entry are stored: an absent one is zero."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: ChainComplex, target: ChainComplex, blocks):
        blocks = {int(q): m for q, m in blocks.items()}
        for q, m in blocks.items():
            if m.rows != target.dim(q) or m.cols != source.dim(q):
                raise ValueError(f"block {q} has wrong shape")
        blocks = {q: m for q, m in blocks.items() if any(m.entries)}
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "blocks", blocks)
        lo = min(source.lo, target.lo)
        hi = max(source.hi, target.hi)
        for q in range(lo + 1, hi + 1):
            if (_terms(blocks.get(q - 1), source.differentials.get(q))
                    != _terms(target.differentials.get(q), blocks.get(q))):
                raise ValueError(f"does not commute with d in degree {q}")

    def to_json(self):
        return {str(q): m.to_json() for q, m in sorted(self.blocks.items())}


def _terms(a, b) -> dict:
    """The nonzero entries of a b, none if a factor is absent (zero)."""
    return {} if a is None or b is None else product_terms(a, b)


def _composite_terms(f: ChainMap, g: ChainMap) -> dict:
    """The nonzero terms of g_q f_q by degree q, where there are any: two
    paths of chain maps with the same ends agree iff these do."""
    return {q: terms for q in f.blocks.keys() & g.blocks.keys()
            if (terms := product_terms(g.blocks[q], f.blocks[q]))}


def _subset_key(s) -> tuple:
    return (len(s), tuple(sorted(s)))


class CubeDiagram(Value):
    """A punctured-cube diagram of chain complexes on an index set.

    One complex per nonempty subset of {0..index_size-1}; one chain map
    per one-step inclusion, directed from the larger subset to the
    smaller.  All commuting squares are verified exactly.
    """

    __slots__ = ("index_size", "vertices", "edges")

    def __init__(self, index_size: int, vertices, edges):
        vertices = {frozenset(s): c for s, c in vertices.items()}
        edges = {(frozenset(b), frozenset(s)): m for (b, s), m in edges.items()}
        # compare the counts first: 2^index_size may be out of reach
        if (index_size > len(vertices)
                or len(vertices) != 2 ** index_size - 1):
            raise ValueError("need exactly the nonempty subsets as vertices")
        expected = {frozenset(c)
                    for r in range(1, index_size + 1)
                    for c in itertools.combinations(range(index_size), r)}
        if set(vertices) != expected:
            raise ValueError("need exactly the nonempty subsets as vertices")
        for (big, small), m in edges.items():
            if not (small < big and len(big) == len(small) + 1):
                raise ValueError("edges must be one-step inclusions")
            if m.source != vertices[big] or m.target != vertices[small]:
                raise ValueError(f"edge {sorted(big)}->{sorted(small)} has "
                                 "wrong endpoints")
        for big in vertices:
            for s in big:
                small = big - {s}
                if small and (big, small) not in edges:
                    raise ValueError(f"missing edge {sorted(big)}->{sorted(small)}")
        # squares commute: removing two indices in either order agrees
        for big in vertices:
            if len(big) < 3:
                continue
            for s, t in itertools.combinations(sorted(big), 2):
                one = _composite_terms(edges[(big, big - {s})],
                                       edges[(big - {s}, big - {s, t})])
                two = _composite_terms(edges[(big, big - {t})],
                                       edges[(big - {t}, big - {s, t})])
                if one != two:
                    raise ValueError(f"square at {sorted(big)} minus "
                                     f"{{{s},{t}}} does not commute")
        object.__setattr__(self, "index_size", index_size)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def to_json(self):
        def key(s):
            return ",".join(str(i) for i in sorted(s))
        return {"index_size": self.index_size,
                "vertices": {key(s): c.to_json()
                             for s, c in sorted(self.vertices.items(),
                                                key=lambda kv: _subset_key(kv[0]))},
                "edges": {f"{key(b)}->{key(s)}": m.to_json()
                          for (b, s), m in sorted(self.edges.items(),
                                                  key=lambda kv: (_subset_key(kv[0][0]),
                                                                  _subset_key(kv[0][1])))}}

    @staticmethod
    def from_json(data) -> "CubeDiagram":
        vertices, edges, index_size = _READ_CUBE(data)

        def ends(name):
            """The vertices an edge key such as "0,1->0" joins."""
            big, arrow, small = name.partition("->")
            if not arrow:
                raise InputError('is not keyed by two subsets joined by "->"')
            return _subset(big, vertices), _subset(small, vertices)
        return CubeDiagram(index_size, vertices, {
            (big, small): ChainMap(vertices[big], vertices[small], blocks)
            for (big, small), blocks in _keyed(edges, ends, "edges").items()})


def _subset(name: str, vertices=None) -> frozenset:
    """The subset a key such as "0,2" names; one of `vertices`, if given."""
    try:
        s = frozenset(map(int, name.split(",")))
    except ValueError:
        raise InputError("is not keyed by comma-separated integers") from None
    if vertices is not None and s not in vertices:
        raise InputError(f"names {sorted(s)}, which is not a vertex")
    return s


def _keyed(members: dict, key, name: str) -> dict:
    """Field `name`'s members, read, keyed anew by the parser `key`."""
    out = {}
    for k, v in members.items():
        try:
            out[key(k)] = v
        except InputError as exc:
            raise exc.inside(f"{name}[{show(k)}]")
    return out


def _add_block(entries: list, cols: int, block: QMatrix, r0: int, c0: int,
               sign: int):
    """Add sign * block into a row-major entry list at row r0, column c0."""
    for i in range(block.rows):
        base = (r0 + i) * cols + c0
        for j, v in enumerate(block.row(i)):
            if v:
                entries[base + j] += v if sign == 1 else -v


def _total_complex(vertices, edges) -> ChainComplex:
    """The total complex of a cube diagram on the subsets in `vertices`.

    Column p collects the subsets of size p + (smallest size), shifted up
    by p, and the degree range is that of the shifted vertices; the
    differential combines internal differentials with sign (-1)^p and the
    one-step edge maps s -> s - {i} between vertices, signed by the
    position of i in sorted(s).  Only stored blocks are placed, and a
    degree's entries are allocated only if one lands there.
    """
    summands = sorted(vertices, key=_subset_key)
    column = {s: len(s) - len(summands[0]) for s in summands}
    lo = min(column[s] + vertices[s].lo for s in summands)
    hi = max(column[s] + vertices[s].hi for s in summands)
    dims = {}
    offsets = {}
    for m in range(lo, hi + 1):
        offsets[m] = {}
        total = 0
        for s in summands:
            offsets[m][s] = total
            total += vertices[s].dim(m - column[s])
        dims[m] = total
    diffs = {}
    for m in range(lo + 1, hi + 1):
        placed = []  # (block, first row, first column, sign)
        for s in summands:
            q = m - column[s]
            if not vertices[s].dim(q):
                continue
            c0 = offsets[m][s]
            internal = vertices[s].differentials
            if q in internal:
                placed.append((internal[q], offsets[m - 1][s], c0,
                               (-1) ** column[s]))
            for idx, el in enumerate(sorted(s)):
                small = s - {el}
                if small in vertices and q in edges[(s, small)].blocks:
                    placed.append((edges[(s, small)].blocks[q],
                                   offsets[m - 1][small], c0, (-1) ** idx))
        if placed:
            rows, cols = dims[m - 1], dims[m]
            entries = [0] * (rows * cols)
            for block, r0, c0, sign in placed:
                _add_block(entries, cols, block, r0, c0, sign)
            diffs[m] = QMatrix(rows, cols, entries)
    return ChainComplex(lo, hi, dims, diffs)


def punctured_cube_hocolim(d: CubeDiagram) -> ChainComplex:
    """The total complex computing the homotopy colimit of the cube:
    column p collects the subsets of size p+1, shifted up by p."""
    if not d.vertices:
        return single_degree_complex(0)
    return _total_complex(d.vertices, d.edges)


def ks_hocolim(ambient: ChainComplex, d: CubeDiagram,
               singleton_maps) -> ChainComplex:
    """Mapping cone of the punctured-cube colimit mapping into an ambient.

    The ambient sits at the empty vertex, and `singleton_maps` assigns the
    edge D({i}) -> ambient to each singleton; the total complex of the
    augmented cube is the cone.  The squares at the empty corner must
    commute, and then every longer path agrees, since the squares of `d`
    do.  The empty cube returns the ambient unchanged.
    """
    singleton_maps = {frozenset(s): m for s, m in singleton_maps.items()}
    edges = dict(d.edges)
    for i in range(d.index_size):
        s = frozenset({i})
        if s not in singleton_maps:
            raise ValueError(f"missing map into ambient for {[i]}")
        m = edges[(s, frozenset())] = singleton_maps[s]
        if m.source != d.vertices[s] or m.target != ambient:
            raise ValueError("singleton map has wrong endpoints")
    for i, j in itertools.combinations(range(d.index_size), 2):
        big, one, two = frozenset({i, j}), frozenset({i}), frozenset({j})
        via_i = _composite_terms(edges[(big, one)], edges[(one, frozenset())])
        via_j = _composite_terms(edges[(big, two)], edges[(two, frozenset())])
        if via_i != via_j:
            raise ValueError(f"maps into ambient from {[i, j]} "
                             "are incompatible")
    return _total_complex({frozenset(): ambient, **d.vertices}, edges)


def hocolim_from_json(data) -> ChainComplex:
    """The total complex of a `hocolim` input, a mapping cone if it has an
    `ambient` (with `ambient_edges`, a chain map from each singleton)."""
    cube = CubeDiagram.from_json(data)
    (ambient,) = _READ_AMBIENT(data)
    if ambient is None:
        return punctured_cube_hocolim(cube)

    def singleton(name):
        s = _subset(name, cube.vertices)
        if len(s) != 1:
            raise InputError(f"names {sorted(s)}, which is not a singleton")
        return s
    (singles,) = _READ_AMBIENT_EDGES(data)
    return ks_hocolim(ambient, cube, {
        s: ChainMap(cube.vertices[s], ambient, blocks)
        for s, blocks in _keyed(singles, singleton, "ambient_edges").items()})


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
    return CubeDiagram(n, vertices, edges), union


# --- compactification diagrams, as rendered rows -----------------------

@dataclass(frozen=True)
class KappaDiagram:
    """The labeled compactification diagram of an open piece.

    `rows` holds one (vertex, expression) pair per vertex, in order: the
    lower vertex "l" carries the ambient motive, the inner vertex "{0,2}"
    the intersection of boundary components 0 and 2, and the upper
    vertex "u" zero.  The colimit is to be twisted by (-dim) and shifted
    by [-2 dim], recorded as a global annotation.
    """
    components: tuple
    ambient: str
    dim: int
    rows: tuple  # (vertex name, expression) pairs
    twist: int
    shift: int

    def cross_with(self, label: str) -> "KappaDiagram":
        """Multiply every vertex by another factor, as in the product
        diagram; the zero vertex absorbs it."""
        rows = tuple((name, expr if expr == "0" else f"{expr}xC_*({label})")
                     for name, expr in self.rows)
        return KappaDiagram(self.components, self.ambient, self.dim,
                            rows, self.twist, self.shift)

    def annotation(self) -> str:
        return f"colimit twisted by ({self.twist}) and shifted by [{self.shift}]"

    def to_json(self):
        return {"components": list(self.components),
                "ambient": self.ambient,
                "dim": self.dim,
                "twist": self.twist,
                "shift": self.shift,
                "vertices": dict(self.rows)}


def build_kappa(components, ambient: str, dim: int) -> KappaDiagram:
    """The compactification diagram for boundary components inside an ambient.

    One inner vertex per nonempty subset of the components, carrying the
    intersection; the lower vertex carries the ambient, the upper vertex
    zero.  The global twist is -dim and the global shift -2*dim.  A label
    with "&", "(" or ")" would render like an intersection or a product.
    """
    components = tuple(components)
    for label in (*components, ambient):
        if not str(label) or set(str(label)) & set("&()"):
            raise ValueError(f"label {show(str(label))} must be nonempty "
                             'and contain none of "&", "(" and ")"')
    if len(set(components)) != len(components):
        raise ValueError("component labels must be distinct")
    rows = [("l", f"C_*({ambient})")]
    for r in range(1, len(components) + 1):
        for combo in itertools.combinations(range(len(components)), r):
            name = "{" + ",".join(str(i) for i in combo) + "}"
            labels = "&".join(str(components[i]) for i in combo)
            rows.append((name, f"C_*({labels})"))
    rows.append(("u", "0"))
    return KappaDiagram(components, ambient, dim, tuple(rows), -dim, -2 * dim)


# the readers of input files, compiled once
_BLOCKS = {degree_key: QMatrix.from_json}
_READ_CUBE = compile_reader({"vertices": {_subset: ChainComplex.from_json},
                             "edges": {str: _BLOCKS}, "index_size": int})
_READ_AMBIENT = compile_reader({"ambient?": ChainComplex.from_json})
_READ_AMBIENT_EDGES = compile_reader({"ambient_edges": {str: _BLOCKS}})
