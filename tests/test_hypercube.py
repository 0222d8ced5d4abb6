import collections
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ChainMap, cone_basis_signs, cover_cube_diagram,
                     cube_json, dense_at, dense_cone, dense_homology,
                     dense_punctured_total, dim, edge_blocks, edge_json,
                     edge_maps, first_cube_fault, first_failing_square,
                     full_cube, identity_matrix, inclusion_exclusion_euler,
                     nerve_oracle_homology, random_cover,
                     union_find_components, zero_matrix)
from motivic_kit import hypercube
from motivic_kit._value import InputError
from motivic_kit.hypercube import (CubeDiagram, _name, _subset, build_kappa,
                                   hocolim_from_json, ks_hocolim,
                                   punctured_cube_hocolim)
from motivic_kit.qlinalg import (ChainComplex, QMatrix, matmul,
                                 single_degree_complex)


def two_patch_cover():
    return cover_cube_diagram([["a", "b"], ["b", "c"]])


class TestCubeKeys:
    """A cube vertex is keyed in JSON by its elements, as in "0,2"."""

    def test_singleton_key(self):
        assert _subset("1") == frozenset({1})

    def test_keys_round_trip(self):
        cube, _ = cover_cube_diagram([["a", "b"], ["b", "c"], ["a", "c"]])
        keys = cube_json(cube)["vertices"]
        assert len(keys) == 2 ** 3 - 1
        assert {_subset(k, cube.vertices) for k in keys} == set(cube.vertices)

    def test_empty_key_rejected(self):
        # the empty vertex is read from `ambient`, never from a vertex key
        with pytest.raises(InputError):
            _subset("")

    def test_non_vertex_key_rejected(self):
        cube, _ = two_patch_cover()
        with pytest.raises(InputError, match="not a vertex"):
            _subset("0,5", cube.vertices)


class TestCubeDiagram:
    def test_missing_vertex_rejected(self):
        cube, _ = two_patch_cover()
        partial = dict(cube.vertices)
        del partial[frozenset({0, 1})]
        with pytest.raises(ValueError):
            CubeDiagram(2, partial, cube.edges)

    def test_noncommuting_square_rejected(self):
        # three scalar vertices; one path scaled by 2, the other by 3
        one = single_degree_complex(1)
        vertices = {frozenset(s): one
                    for r in range(1, 4)
                    for s in itertools.combinations(range(3), r)}
        edges = {}
        for big in vertices:
            for el in big:
                small = big - {el}
                if not small:
                    continue
                scale = 2 if (big == frozenset({0, 1, 2}) and el == 2) else 1
                edges[(big, small)] = {0: QMatrix(1, 1, [scale])}
        with pytest.raises(ValueError):
            CubeDiagram(3, vertices, edges)

    @staticmethod
    def noncommuting_cube():
        """The vertices and edges of a cube whose edge [0, 1] -> [0] is the
        identity between complexes with the differentials 1 and 2; [1] and
        its zero edge add nothing."""
        src = ChainComplex(0, 1, {0: 1, 1: 1}, {1: QMatrix(1, 1, [1])})
        tgt = ChainComplex(0, 1, {0: 1, 1: 1}, {1: QMatrix(1, 1, [2])})
        point = single_degree_complex(1)
        big, zero, one = frozenset({0, 1}), frozenset({0}), frozenset({1})
        return ({big: src, zero: tgt, one: point},
                {(big, zero): {0: QMatrix(1, 1, [1]), 1: QMatrix(1, 1, [1])},
                 (big, one): {}})

    def test_chain_map_must_commute(self):
        # the cube's d o d names the edge
        with pytest.raises(ValueError, match=r'^edges\["0,1->0"\] is not a '
                           "chain map: does not commute with d in degree 1$"):
            CubeDiagram(2, *self.noncommuting_cube())

    def test_a_block_shape_fault_is_named_before_a_commutation_fault(self):
        # [0, 1] -> [1], given after the edge that does not commute, sends
        # degree 0 into two rows, where [1] has one
        vertices, edges = self.noncommuting_cube()
        edges[frozenset({0, 1}), frozenset({1})] = {0: QMatrix(2, 1, [1, 0])}
        with pytest.raises(ValueError, match=r'^edges\["0,1->1"\] is not a '
                           "chain map: block 0 has wrong shape$"):
            CubeDiagram(2, vertices, edges)

    def test_block_shapes_are_those_of_the_vertices_the_key_names(self):
        # an edge is no more than its blocks: with none, it is the zero
        # map between any two vertices; a block outside a vertex's degree
        # range has a 0 there, and an empty block of the wrong shape fails
        vertices, edges = self.noncommuting_cube()
        big, zero, one = frozenset({0, 1}), frozenset({0}), frozenset({1})
        vertices[one] = single_degree_complex(2)
        edges[big, one] = {5: QMatrix(0, 0, [])}
        with pytest.raises(ValueError, match="does not commute"):
            CubeDiagram(2, vertices, edges)
        vertices[zero] = ChainComplex(0, 1, {0: 2, 1: 1},
                                      {1: QMatrix(2, 1, [2, 0])})
        with pytest.raises(ValueError, match=r'^edges\["0,1->0"\] is not a '
                           "chain map: block 0 has wrong shape$"):
            CubeDiagram(2, vertices, edges)
        vertices, edges = self.noncommuting_cube()
        edges[big, one] = {1: QMatrix(1, 0, [])}
        with pytest.raises(ValueError, match=r'^edges\["0,1->1"\] is not a '
                           "chain map: block 1 has wrong shape$"):
            CubeDiagram(2, vertices, edges)

    def test_chain_map_with_an_absent_factor_must_commute(self):
        # f_0 d_1 is 1, while d_1 f_1 is zero: the target has no d_1; the
        # one edge of the cube goes into its ambient
        src = ChainComplex(0, 1, {0: 1, 1: 1}, {1: QMatrix(1, 1, [1])})
        tgt = ChainComplex(0, 1, {0: 1, 1: 1}, {})
        zero, empty = frozenset({0}), frozenset()
        with pytest.raises(ValueError, match=r'^ambient_edges\["0"\] is not '
                           "a chain map: does not commute with d in degree 1$"):
            CubeDiagram(1, {zero: src, empty: tgt},
                        {(zero, empty): {0: QMatrix(1, 1, [1])}})
        # a zero block is not kept
        assert CubeDiagram(1, {zero: src, empty: tgt},
                           {(zero, empty): {0: QMatrix(1, 1, [0])}}).edges == {
            (zero, empty): {}}

    def test_vertices_are_the_nonempty_subsets_and_maybe_the_empty_one(self):
        cube, ambient, singles = cover_into_union([["a", "b"], ["b", "c"]])
        full = full_cube(ambient, cube, singles)
        assert set(full.vertices) == set(cube.vertices) | {frozenset()}
        partial = dict(full.vertices)
        del partial[frozenset({0})]
        outside = dict(cube.vertices)
        outside[frozenset({0, 2})] = outside.pop(frozenset({0, 1}))
        for index_size, vertices in ((2, partial), (2, outside),
                                     (3, cube.vertices)):
            with pytest.raises(ValueError, match="^need exactly the "
                               "nonempty subsets as vertices$"):
                CubeDiagram(index_size, vertices, {})

    @pytest.mark.parametrize("big, small", [
        # into the empty vertex of a cube with no ambient
        ({0}, set()),
        # out of a subset that is no vertex
        ({0, 2}, {0}),
        # not one step, or not an inclusion
        ({0, 1}, set()), ({0}, {0}), ({0}, {0, 1}),
    ])
    def test_an_edge_must_join_two_vertices_one_step_apart(self, big, small):
        cube, ambient, singles = cover_into_union([["a", "b"], ["b", "c"]])
        edges = {**cube.edges, (frozenset(big), frozenset(small)): {}}
        with pytest.raises(ValueError, match="^edges must be one-step "
                           "inclusions between vertices$"):
            CubeDiagram(2, cube.vertices, edges)

    def test_each_colimit_rejects_the_other_shape(self):
        cube, ambient, singles = cover_into_union([["a", "b"], ["b", "c"]])
        with pytest.raises(ValueError, match="no ambient"):
            ks_hocolim(cube)
        with pytest.raises(ValueError, match="has an ambient"):
            punctured_cube_hocolim(full_cube(ambient, cube, singles))

    def test_json_round_trip(self):
        cube, _ = two_patch_cover()
        data = json.loads(json.dumps(cube_json(cube), sort_keys=True))
        back = CubeDiagram.from_json(data)
        assert back.vertices == cube.vertices
        for key in cube.edges:
            assert back.edges[key] == cube.edges[key]


class TestPuncturedHocolim:
    def test_single_vertex_is_the_complex_itself(self):
        cube, _ = cover_cube_diagram([["a", "b", "c"]])
        tot = punctured_cube_hocolim(cube)
        assert tot.dims == {0: 3}
        assert tot.homology_dims() == {0: 3}

    def test_two_patch_totals(self):
        cube, union = two_patch_cover()
        tot = punctured_cube_hocolim(cube)
        assert tot.dims == {0: 4, 1: 1}
        # block layout: {0} then {1}; Čech signs by omitted position
        assert tot.differentials[1] == QMatrix(4, 1, [0, -1, 1, 0])
        assert tot.homology_dims() == {0: 3, 1: 0}
        assert len(union) == 3

    def test_two_patch_matches_hand_built_pushout_cone(self):
        cube, _ = two_patch_cover()
        tot = punctured_cube_hocolim(cube)
        cone = ChainComplex(0, 1, {0: 4, 1: 1},
                            {1: QMatrix(4, 1, [0, -1, 1, 0])})
        for n in (0, 1):
            assert dim(tot, n) == dim(cone, n)
        assert tot.homology_dims() == cone.homology_dims()

    def test_euler_additivity(self):
        cube, _ = cover_cube_diagram([["a", "b"], ["b", "c"], ["a", "c", "d"]])
        tot = punctured_cube_hocolim(cube)
        alternating = sum((-1) ** (len(s) - 1)
                          * cube.vertices[s].euler_characteristic()
                          for s in cube.vertices)
        assert tot.euler_characteristic() == alternating

    def test_graded_vertices_sign_interplay(self):
        # two-term acyclic complexes at every vertex, identity edges: the
        # construction only succeeds if vertical and horizontal pieces
        # anticommute, which pins the (-1)^p sign
        two_term = ChainComplex(0, 1, {0: 1, 1: 1}, {1: QMatrix(1, 1, [1])})
        subsets = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
        vertices = {s: two_term for s in subsets}
        ident = {0: identity_matrix(1), 1: identity_matrix(1)}
        edges = {(frozenset({0, 1}), frozenset({0})): ident,
                 (frozenset({0, 1}), frozenset({1})): ident}
        cube = CubeDiagram(2, vertices, edges)
        tot = punctured_cube_hocolim(cube)
        assert tot.dims == {0: 2, 1: 3, 2: 1}
        for n in range(tot.lo + 2, tot.hi + 1):
            assert not any(matmul(tot.differentials[n - 1],
                                  tot.differentials[n]).entries)
        alternating = sum((-1) ** (len(s) - 1)
                          * cube.vertices[s].euler_characteristic()
                          for s in cube.vertices)
        assert tot.euler_characteristic() == alternating
        # each vertex is acyclic, so the colimit is too
        assert all(v == 0 for v in tot.homology_dims().values())

    def test_degree_range_is_that_of_the_shifted_vertices(self):
        # [0, 1] declares degree -1, which lands in degree 0 in column 1
        one = single_degree_complex(1)
        deep = ChainComplex(-1, 0, {-1: 0, 0: 1}, {})
        ident = {0: identity_matrix(1)}
        cube = CubeDiagram(2, {frozenset({0}): one, frozenset({1}): one,
                               frozenset({0, 1}): deep},
                           {(frozenset({0, 1}), frozenset({i})): ident
                            for i in (0, 1)})
        tot = punctured_cube_hocolim(cube)
        assert (tot.lo, tot.hi, tot.dims) == (0, 1, {0: 2, 1: 1})
        ambient = single_degree_complex(2, degree=1)
        cone = ks_hocolim(full_cube(ambient, cube, {
            frozenset({i}): ChainMap(one, ambient, {}) for i in (0, 1)}))
        assert (cone.lo, cone.hi, cone.dims) == (1, 2, {1: 4, 2: 1})

    def test_randomized_cover_oracles(self):
        rng = random.Random(2026)
        for trial in range(25):
            comps = random_cover(rng)
            cube, union = cover_cube_diagram(comps)
            tot = punctured_cube_hocolim(cube)
            hom = tot.homology_dims()
            assert hom[0] == union_find_components(comps)
            assert hom.get(1, 0) == nerve_oracle_homology(comps, 1)
            assert tot.euler_characteristic() == \
                inclusion_exclusion_euler(comps)
            for n in range(tot.lo + 2, tot.hi + 1):
                assert not any(matmul(dense_at(tot, n - 1),
                                      dense_at(tot, n)).entries)


def four_point_ambient_setup():
    cube, _ = two_patch_cover()
    ambient = single_degree_complex(4)  # points a, b, c, d
    pts = ["a", "b", "c", "d"]
    comps = [["a", "b"], ["b", "c"]]
    singles = {}
    for s in cube.vertices:
        if len(s) != 1:
            continue
        comp = comps[next(iter(s))]
        m = QMatrix(4, len(comp),
                    [1 if pts[i] == p else 0 for i in range(4) for p in comp])
        singles[s] = ChainMap(cube.vertices[s], ambient, {0: m})
    return ambient, cube, singles


class TestKsHocolim:
    def test_empty_cover_returns_ambient(self):
        for ambient in (single_degree_complex(4),
                        ChainComplex(0, 1, {0: 1, 1: 1},
                                     {1: QMatrix(1, 1, [2])})):
            empty = CubeDiagram(0, {}, {})
            cone = ks_hocolim(full_cube(ambient, empty, {}))
            assert cone == ambient
            assert cone.homology_dims() == ambient.homology_dims()

    def test_four_points_minus_three(self):
        ambient, cube, singles = four_point_ambient_setup()
        cone = ks_hocolim(full_cube(ambient, cube, singles))
        hom = cone.homology_dims()
        assert hom[0] == 1 and hom[1] == 0

    def test_identity_cover_is_acyclic(self):
        cube, _ = cover_cube_diagram([["a", "b", "c"]])
        ambient = single_degree_complex(3)
        s0 = frozenset({0})
        singles = {s0: ChainMap(cube.vertices[s0], ambient,
                                {0: identity_matrix(3)})}
        cone = ks_hocolim(full_cube(ambient, cube, singles))
        assert all(v == 0 for v in cone.homology_dims().values())

    def test_incompatible_maps_rejected(self):
        cube, _ = cover_cube_diagram([["a"], ["a"]])
        ambient = single_degree_complex(2)
        singles = {
            frozenset({0}): ChainMap(cube.vertices[frozenset({0})], ambient,
                                     {0: QMatrix(2, 1, [1, 0])}),
            frozenset({1}): ChainMap(cube.vertices[frozenset({1})], ambient,
                                     {0: QMatrix(2, 1, [0, 1])}),
        }
        with pytest.raises(ValueError):
            ks_hocolim(full_cube(ambient, cube, singles))

    def test_cone_dd_zero(self):
        ambient, cube, singles = four_point_ambient_setup()
        cone = ks_hocolim(full_cube(ambient, cube, singles))
        for n in range(cone.lo + 2, cone.hi + 1):
            assert not any(matmul(cone.differentials[n - 1],
                                  cone.differentials[n]).entries)


class TestKappa:
    def test_no_components(self):
        d = build_kappa([], "Xbar", 2)
        names = [name for name, _ in d.rows]
        assert names == ["l", "u"]
        assert d.twist == -2 and d.shift == -4

    def test_two_components(self):
        d = build_kappa(["A", "B"], "Xbar", 1)
        assert d.rows == (("l", "C_*(Xbar)"), ("{0}", "C_*(A)"),
                          ("{1}", "C_*(B)"), ("{0,1}", "C_*(A&B)"),
                          ("u", "0"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            build_kappa(["A", "A"], "X", 1)

    def test_cross_with(self):
        d = build_kappa(["A"], "Xbar", 1).cross_with("Y").cross_with("Z")
        assert d.rows == (("l", "C_*(Xbar)xC_*(Y)xC_*(Z)"),
                          ("{0}", "C_*(A)xC_*(Y)xC_*(Z)"),
                          ("u", "0"))  # zero absorbs the factors

    @pytest.mark.parametrize("label", ["", "B&C", "x)"])
    def test_a_factor_obeys_the_label_rule(self, label):
        with pytest.raises(ValueError, match="must be nonempty"):
            build_kappa(["A"], "X", 1).cross_with(label)

    def test_zero_absorbs(self):
        d = build_kappa([], "Xbar", 1).cross_with("Y")
        assert d.rows == (("l", "C_*(Xbar)xC_*(Y)"), ("u", "0"))
        assert d.to_json()["vertices"]["u"] == "0"

    def test_annotation(self):
        d = build_kappa(["A"], "X", 3)
        assert "(-3)" in d.annotation() and "[-6]" in d.annotation()


# --- the squares a cube checks, against the composing oracle -------------

def inclusion_map(source_pts, target_pts, source, target) -> ChainMap:
    index = {p: i for i, p in enumerate(target_pts)}
    return ChainMap(source, target, {0: QMatrix(
        len(target_pts), len(source_pts),
        [1 if index[p] == i else 0
         for i in range(len(target_pts)) for p in source_pts])})


def cover_into_union(comps):
    """The cover cube of `comps` and the inclusions of its singletons into
    the complex on the union."""
    cube, union = cover_cube_diagram(comps)
    ambient = single_degree_complex(len(union))
    singles = {frozenset({i}): inclusion_map(sorted(set(c)), union,
                                             cube.vertices[frozenset({i})],
                                             ambient)
               for i, c in enumerate(comps)}
    return cube, ambient, singles


def changed_entry(m: ChainMap, row: int, col: int,
                  degrees=(0,)) -> ChainMap:
    """m with entry (row, col) raised by one in its blocks of `degrees`."""
    blocks = dict(m.blocks)
    for q in degrees:
        block = dense_at(m, q)
        entries = list(block.entries)
        entries[row * block.cols + col] += 1
        blocks[q] = QMatrix(block.rows, block.cols, entries)
    return ChainMap(m.source, m.target, blocks)


@st.composite
def small_complexes(draw):
    """Complexes in degrees 0..hi <= 2 with d_1 d_2 = 0: d_2 lands in the
    first r basis vectors of degree 1, and d_1 vanishes on them."""
    hi = draw(st.integers(0, 2))
    dims = {q: draw(st.integers(0, 3)) for q in range(hi + 1)}
    entries = st.integers(-2, 2)
    r = draw(st.integers(0, dims[1])) if hi == 2 else 0
    diffs = {}
    if hi >= 1:
        diffs[1] = QMatrix(dims[0], dims[1], [
            0 if j < r else draw(entries)
            for _ in range(dims[0]) for j in range(dims[1])])
    if hi == 2:
        diffs[2] = QMatrix(dims[1], dims[2], [
            draw(entries) if i < r else 0
            for i in range(dims[1]) for _ in range(dims[2])])
    return ChainComplex(0, hi, dims, diffs)


@st.composite
def chain_maps(draw, source: ChainComplex, target: ChainComplex):
    """d h + h d for a random h of degree +1, plus the identity when the
    ends agree: a chain map by construction."""
    h = {q: QMatrix(dim(target, q + 1), dim(source, q), [
        draw(st.integers(-2, 2))
        for _ in range(dim(target, q + 1) * dim(source, q))])
        for q in range(-1, max(source.hi, target.hi) + 1)}
    blocks = {}
    for q in range(0, max(source.hi, target.hi) + 1):
        terms = [matmul(dense_at(target, q + 1), h[q]),
                 matmul(h[q - 1], dense_at(source, q))]
        if source == target:
            terms.append(identity_matrix(dim(source, q)))
        blocks[q] = QMatrix(dim(target, q), dim(source, q),
                            map(sum, zip(*(t.entries for t in terms))))
    return ChainMap(source, target, blocks)


def added(f: ChainMap, g: ChainMap) -> ChainMap:
    """The chain map f + g, blockwise."""
    return ChainMap(f.source, f.target, {
        q: QMatrix(dim(f.target, q), dim(f.source, q),
                   map(sum, zip(dense_at(f, q).entries,
                                dense_at(g, q).entries)))
        for q in f.blocks.keys() | g.blocks.keys()})


def reordered(draw, vertices) -> dict:
    """`vertices` in a drawn insertion order, the order a fault is named in."""
    return {s: vertices[s] for s in draw(st.permutations(list(vertices)))}


@st.composite
def changed_covers(draw):
    """The cube of a cover by 3 or 4 parts, with or without the ambient on
    the union, with 0, 1 or 2 edge entries raised by one: in degree 0
    alone, every matrix of the right shape is a chain map."""
    parts = st.lists(st.sampled_from("abcde"), min_size=1, max_size=4,
                     unique=True)
    comps = draw(st.lists(parts, min_size=3, max_size=4))
    cube, ambient, singles = cover_into_union(comps)
    vertices, edges = dict(cube.vertices), edge_maps(cube)
    if draw(st.booleans()):
        vertices[frozenset()] = ambient
        edges.update({(s, frozenset()): m for s, m in singles.items()})
    nonempty = [key for key, m in edges.items()
                if dim(m.source, 0) and dim(m.target, 0)]
    for _ in range(draw(st.integers(0, 2)) if nonempty else 0):
        key = draw(st.sampled_from(nonempty))
        m = edges[key]
        row = draw(st.integers(0, dim(m.target, 0) - 1))
        edges[key] = changed_entry(m, row,
                                   draw(st.integers(0, dim(m.source, 0) - 1)))
    return cube.index_size, reordered(draw, vertices), edge_blocks(edges)


@st.composite
def changed_graded_cubes(draw):
    """A cube of `graded_cubes`, with or without its ambient, with a drawn
    chain map added to 0, 1 or 2 of its edges."""
    ambient, cube, singles = draw(graded_cubes())
    vertices, edges = dict(cube.vertices), edge_maps(cube)
    if draw(st.booleans()):
        vertices[frozenset()] = ambient
        edges.update({(s, frozenset()): m for s, m in singles.items()})
    for _ in range(draw(st.integers(0, 2)) if edges else 0):
        key = draw(st.sampled_from(list(edges)))
        m = edges[key]
        edges[key] = added(m, draw(chain_maps(m.source, m.target)))
    return cube.index_size, reordered(draw, vertices), edge_blocks(edges)


def cone_cube(vertices, edges, lo: int):
    """A cube of degree-0 complexes with each vertex made the cone of its
    identity, its space in degrees lo and lo + 1 with d = 1, and each edge
    its block in both degrees: again a cube of chain maps."""
    cones = {s: ChainComplex(lo, lo + 1, {lo: dim(c, 0), lo + 1: dim(c, 0)},
                             {lo + 1: identity_matrix(dim(c, 0))})
             for s, c in vertices.items()}
    return cones, {(big, small): ChainMap(cones[big], cones[small],
                                          dict.fromkeys((lo, lo + 1),
                                                        dense_at(m, 0)))
                   for (big, small), m in edges.items()}


@st.composite
def planted_covers(draw):
    """The `cone_cube` of a cover by 2 to 4 parts, with or without the
    ambient on the union; then one entry of one edge raised by one in one of the two
    degrees, which leaves no chain map, or in both, a chain map that may
    break a square."""
    parts = st.lists(st.sampled_from("abcde"), min_size=1, max_size=4,
                     unique=True)
    cube, ambient, singles = cover_into_union(
        draw(st.lists(parts, min_size=2, max_size=4)))
    vertices, edges = dict(cube.vertices), edge_maps(cube)
    if draw(st.booleans()):
        vertices[frozenset()] = ambient
        edges.update({(s, frozenset()): m for s, m in singles.items()})
    lo = draw(st.sampled_from([-1, 0, 2]))
    cones, edges = cone_cube(vertices, edges, lo)
    nonempty = [key for key, m in edges.items()
                if dim(m.source, lo) and dim(m.target, lo)]
    if nonempty:
        key = draw(st.sampled_from(nonempty))
        m = edges[key]
        edges[key] = changed_entry(
            m, draw(st.integers(0, dim(m.target, lo) - 1)),
            draw(st.integers(0, dim(m.source, lo) - 1)),
            draw(st.sampled_from([(lo,), (lo + 1,), (lo, lo + 1)])))
    return (cube.index_size, reordered(draw, cones),
            reordered(draw, edge_blocks(edges)))


@st.composite
def misshapen_covers(draw):
    """A cube of `planted_covers` with the blocks of one or two of its
    edges, the edges into the ambient among them, replaced in one degree,
    from one below the vertices' range to one above it, by a 0/1 matrix
    with one row or column more or less than the two vertices give."""
    index_size, vertices, edges = draw(planted_covers())
    edges = dict(edges)
    lo = min(c.lo for c in vertices.values())
    for big, small in draw(st.lists(st.sampled_from(list(edges)),
                                    min_size=1, max_size=2, unique=True)):
        q = draw(st.integers(lo - 1, lo + 2))
        rows, cols = dim(vertices[small], q), dim(vertices[big], q)
        r, c = draw(st.sampled_from([
            (rows + dr, cols + dc)
            for dr, dc in ((1, 0), (0, 1), (-1, 0), (0, -1))
            if rows + dr >= 0 and cols + dc >= 0]))
        edges[big, small] = {**edges[big, small], q: QMatrix(r, c, draw(
            st.lists(st.integers(0, 1), min_size=r * c, max_size=r * c)))}
    return index_size, vertices, edges


@st.composite
def planted_graded_cubes(draw):
    """A cube of `graded_cubes`, with or without its ambient, with one
    entry of one block of one edge raised by one: that edge may fail to
    commute with d in that degree, the next one, both or neither."""
    ambient, cube, singles = draw(graded_cubes())
    vertices, edges = dict(cube.vertices), edge_maps(cube)
    if draw(st.booleans()):
        vertices[frozenset()] = ambient
        edges.update({(s, frozenset()): m for s, m in singles.items()})
    blocks = [(key, q) for key, m in edges.items()
              for q in range(m.source.lo, m.source.hi + 1)
              if dim(m.source, q) and dim(m.target, q)]
    if blocks:
        (key, q) = draw(st.sampled_from(blocks))
        m = edges[key]
        edges[key] = changed_entry(
            m, draw(st.integers(0, dim(m.target, q) - 1)),
            draw(st.integers(0, dim(m.source, q) - 1)), (q,))
    return (cube.index_size, reordered(draw, vertices),
            reordered(draw, edge_blocks(edges)))


def assert_names_the_oracles_fault(index_size, vertices, edges):
    """The cube accepts exactly when every block has its shape, every edge
    commutes with d and every square commutes, and otherwise names the
    oracles' first fault: a misshapen edge's, in edge order, else a
    noncommuting edge's, else a square's."""
    fault = first_cube_fault(vertices, edges)
    if fault is None:
        CubeDiagram(index_size, vertices, edges)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
            CubeDiagram(index_size, vertices, edges)


class TestComposites:
    @settings(max_examples=200, deadline=None)
    @given(changed_covers())
    def test_covers_with_changed_entries(self, cover):
        assert_names_the_oracles_fault(*cover)

    @settings(max_examples=60, deadline=None)
    @given(changed_graded_cubes())
    def test_graded_cubes_with_added_chain_maps(self, cube):
        assert_names_the_oracles_fault(*cube)

    @settings(max_examples=200, deadline=None)
    @given(planted_covers())
    def test_covers_with_one_planted_fault(self, cover):
        assert_names_the_oracles_fault(*cover)

    @settings(max_examples=200, deadline=None)
    @given(misshapen_covers())
    def test_covers_with_misshapen_blocks(self, cover):
        # a block of the wrong shape is named before any other fault of
        # the edges or squares, in edge order
        assert "has wrong shape" in first_cube_fault(*cover[1:])
        assert_names_the_oracles_fault(*cover)

    @settings(max_examples=100, deadline=None)
    @given(planted_graded_cubes())
    def test_graded_cubes_with_one_planted_fault(self, cube):
        assert_names_the_oracles_fault(*cube)

    def test_the_first_of_two_faults_in_vertex_order(self):
        # one fault at [0, 1, 2], one at the ambient corner of [0, 1]: the
        # cube names whichever vertex it was given first
        comps = [["a", "shared"], ["b", "shared"], ["c", "shared"]]
        cube, ambient, singles = cover_into_union(comps)
        vertices = {**cube.vertices, frozenset(): ambient}
        edges = {**edge_maps(cube), **{(s, frozenset()): m
                                       for s, m in singles.items()}}
        top = (frozenset({0, 1, 2}), frozenset({0, 1}))
        edges[top] = changed_entry(edges[top], 0, 0)
        edges[(frozenset({0}), frozenset())] = changed_entry(
            singles[frozenset({0})], 0, 1)
        faults = ("square at [0, 1] minus {0,1} does not commute",
                  "square at [0, 1, 2] minus {0,2} does not commute")
        for order, fault in ((list(vertices), faults[0]),
                             (list(vertices)[::-1], faults[1])):
            given_order = {s: vertices[s] for s in order}
            assert first_failing_square(given_order, edges) == fault
            with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
                CubeDiagram(3, given_order, edge_blocks(edges))

    def test_the_first_failing_edge_in_edge_order_before_any_square(self):
        # [0, 1] -> [0] and [0] -> [] fail to commute with d, and the square
        # at [0, 1, 2] minus {0,2} fails: the cube names whichever edge it
        # was given first
        comps = [["a", "shared"], ["b", "shared"], ["c", "shared"]]
        cube, ambient, singles = cover_into_union(comps)
        vertices, edges = cone_cube(
            {**cube.vertices, frozenset(): ambient},
            {**edge_maps(cube), **{(s, frozenset()): m
                                   for s, m in singles.items()}}, 0)
        top = (frozenset({0, 1, 2}), frozenset({0, 1}))
        edges[top] = changed_entry(edges[top], 0, 0, (0, 1))
        first, last = (frozenset({0, 1}), frozenset({0})), (frozenset({0}),
                                                            frozenset())
        chain_maps = dict(edges)
        for key in (first, last):
            edges[key] = changed_entry(edges[key], 0, 0, (1,))
        faults = ('edges["0,1->0"] is not a chain map: does not commute '
                  "with d in degree 1",
                  'ambient_edges["0"] is not a chain map: does not commute '
                  "with d in degree 1")
        for order, fault in ((list(edges), faults[0]),
                             (list(edges)[::-1], faults[1])):
            given_order = edge_blocks({key: edges[key] for key in order})
            assert first_cube_fault(vertices, given_order) == fault
            with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
                CubeDiagram(3, vertices, given_order)
        edges.update({key: chain_maps[key] for key in (first, last)})
        square = "square at [0, 1, 2] minus {0,2} does not commute"
        assert first_cube_fault(vertices, edge_blocks(edges)) == square
        with pytest.raises(ValueError, match=f"^{re.escape(square)}$"):
            CubeDiagram(3, vertices, edge_blocks(edges))

    def test_square_with_one_changed_entry_rejected(self):
        rng = random.Random(7)
        for trial in range(10):
            # a shared point keeps the triple intersection nonempty
            comps = [c + ["shared"] for c in random_cover(rng, 3)]
            while len(comps) < 3:
                comps.append(["shared"])
            cube, ambient, singles = cover_into_union(comps)
            CubeDiagram(3, cube.vertices, cube.edges)
            edges = edge_maps(cube)
            key = (frozenset({0, 1, 2}), frozenset({0, 1}))
            edges[key] = changed_entry(edges[key], 0, 0)
            with pytest.raises(ValueError, match=r"^square at \[0, 1, 2\] "
                               r"minus \{0,2\} does not commute$"):
                CubeDiagram(3, cube.vertices, edge_blocks(edges))
            ks_hocolim(full_cube(ambient, cube, singles))
            zero = frozenset({0})
            shared = sorted(set(comps[0])).index("shared")
            singles[zero] = changed_entry(singles[zero], 0, shared)
            with pytest.raises(ValueError, match=r"^square at \[0, 1\] "
                               r"minus \{0,1\} does not commute$"):
                ks_hocolim(full_cube(ambient, cube, singles))


# --- one total complex against the separately assembled cone ----------------

def scaled(m: ChainMap, c: int) -> ChainMap:
    return ChainMap(m.source, m.target,
                    {q: QMatrix(block.rows, block.cols,
                                [c * v for v in block.entries])
                     for q, block in m.blocks.items()})


@st.composite
def graded_cubes(draw):
    """A cube on n <= 3 indices with an ambient C_0: vertex s carries
    C_|s|, and the edge that removes index k from s, the ones into the
    ambient included, is c_k h_|s|, for chain maps h_r : C_r -> C_(r-1)
    and scalars c_k; so every square commutes, those at the empty corner
    too."""
    n = draw(st.integers(1, 3))
    complexes = [draw(small_complexes()) for _ in range(n + 1)]
    maps = [draw(chain_maps(complexes[k], complexes[k - 1]))
            for k in range(1, n + 1)]
    scales = [draw(st.sampled_from([1, -1, 2])) for _ in range(n)]
    vertices = {frozenset(s): complexes[r]
                for r in range(1, n + 1)
                for s in itertools.combinations(range(n), r)}
    edges = {(big, big - {k}): scaled(maps[len(big) - 1], scales[k])
             for big in vertices for k in big if len(big) > 1}
    singles = {frozenset({i}): scaled(maps[0], scales[i]) for i in range(n)}
    return complexes[0], CubeDiagram(n, vertices, edge_blocks(edges)), singles


def assert_one_total_complex(ambient, cube, singles):
    """The punctured total is the separately assembled one, and the cone
    is the block cone [[d_A, f], [0, -d_Tot]] up to the basis signs E:
    D = E D_block E."""
    assert punctured_cube_hocolim(cube) == dense_punctured_total(cube)
    cone = ks_hocolim(full_cube(ambient, cube, singles))
    old = dense_cone(ambient, cube, singles)
    assert (cone.lo, cone.hi, cone.dims) == (old.lo, old.hi, old.dims)
    for m in range(cone.lo + 1, cone.hi + 1):
        assert dense_at(cone, m) == matmul(
            matmul(cone_basis_signs(ambient, cube, m - 1),
                   dense_at(old, m)),
            cone_basis_signs(ambient, cube, m))
    assert cone.homology_dims() == old.homology_dims()


class TestOneTotalComplex:
    def test_randomized_covers(self):
        rng = random.Random(2026)
        for trial in range(25):
            cube, ambient, singles = cover_into_union(random_cover(rng))
            assert_one_total_complex(ambient, cube, singles)

    @settings(max_examples=60, deadline=None)
    @given(graded_cubes())
    def test_graded_cubes(self, cube_with_ambient):
        assert_one_total_complex(*cube_with_ambient)

    def test_one_complex_and_only_the_corner_squares(self, monkeypatch):
        # the cube builds one total complex, whose d o d = 0 check is the
        # check of every square, the ones at the ambient corner too; a
        # cube whose squares commute composes no two edges
        cube, ambient, singles = cover_into_union(
            [["a", "b"], ["b", "c"], ["b", "d"]])
        built, products = [], []
        init, terms = ChainComplex.__init__, hypercube.product_terms

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        def counting_terms(a, b):
            products.append((a, b))
            return terms(a, b)
        monkeypatch.setattr(ChainComplex, "__init__", counting_init)
        monkeypatch.setattr(hypercube, "product_terms", counting_terms)
        full = full_cube(ambient, cube, singles)
        assert len(built) == 1 and built[0] is full.total
        assert products == []
        assert ks_hocolim(full) is full.total
        assert len(built) == 1 and products == []

    def test_missing_and_misshapen_singleton_maps(self):
        cube, ambient, singles = cover_into_union([["a", "b"], ["b", "c"]])
        with pytest.raises(ValueError, match=r"^missing edge \[1\]->\[\]$"):
            ks_hocolim(full_cube(ambient, cube,
                                 {frozenset({0}): singles[frozenset({0})]}))
        # a map of the ambient to itself, or of [0] to a larger ambient,
        # put where [0] maps into the ambient: its block has the wrong shape
        zero = frozenset({0})
        elsewhere = single_degree_complex(dim(ambient, 0) + 1)
        for source, target in ((ambient, ambient),
                               (cube.vertices[zero], elsewhere)):
            rows, cols = dim(target, 0), dim(source, 0)
            misplaced = dict(singles)
            misplaced[zero] = ChainMap(source, target, {
                0: QMatrix(rows, cols, [1] * (rows * cols))})
            with pytest.raises(ValueError, match=r'^ambient_edges\["0"\] is '
                               "not a chain map: block 0 has wrong shape$"):
                ks_hocolim(full_cube(ambient, cube, misplaced))


# --- an absent differential or block is zero ---------------------------------

def with_zero_differentials(c: ChainComplex) -> ChainComplex:
    """`c`, given every absent differential as an explicit zero matrix."""
    return ChainComplex(c.lo, c.hi, c.dims, {
        **{n: zero_matrix(dim(c, n - 1), dim(c, n))
           for n in range(c.lo + 1, c.hi + 1)},
        **c.differentials})


def with_zero_blocks(m: ChainMap) -> dict:
    """The blocks of `m`, with every absent one given as an explicit zero
    matrix, 0 x 0 ones one degree past either end too."""
    source, target = m.source, m.target
    return {**{q: zero_matrix(dim(target, q), dim(source, q))
               for q in range(min(source.lo, target.lo) - 1,
                              max(source.hi, target.hi) + 2)},
            **m.blocks}


class TestAbsentIsZero:
    @settings(max_examples=60, deadline=None)
    @given(graded_cubes())
    def test_explicit_zeros_change_nothing(self, cube_with_ambient):
        ambient, cube, singles = cube_with_ambient
        full = full_cube(ambient, cube, singles)
        vertices = {s: with_zero_differentials(c)
                    for s, c in full.vertices.items()}
        edges = {key: with_zero_blocks(m)
                 for key, m in edge_maps(full).items()}
        punctured = {key: blocks for key, blocks in edges.items() if key[1]}
        zero_cube = CubeDiagram(cube.index_size, {
            s: c for s, c in vertices.items() if s}, punctured)
        zero_full = CubeDiagram(cube.index_size, vertices, edges)
        assert vertices == full.vertices
        assert (zero_cube, zero_full) == (cube, full)
        totals = (punctured_cube_hocolim(zero_cube), ks_hocolim(zero_full))
        assert totals == (punctured_cube_hocolim(cube), ks_hocolim(full))
        for t in totals:
            assert t.homology_dims() == dense_homology(t)
        # a file that lists the zero blocks reads as the cube without them
        payload = cube_json(full)
        for (big, small), blocks in edges.items():
            field, key = (("edges", f"{_name(big)}->{_name(small)}") if small
                          else ("ambient_edges", _name(big)))
            payload[field][key] = edge_json(blocks)
        payload = json.loads(json.dumps(payload))
        assert CubeDiagram.from_json(payload) == full
        assert hocolim_from_json(payload) == totals[1]
        stored = [matrix for c in (*vertices.values(), *totals)
                  for matrix in c.differentials.values()]
        stored += [matrix for c in (zero_cube, zero_full)
                   for blocks in c.edges.values()
                   for matrix in blocks.values()]
        assert all(any(matrix.entries) for matrix in stored)


class TestReadWork:
    """A cube file costs its nonzero blocks: its empty blocks add at most
    one matrix per shape, and each vertex key is parsed once as an edge
    end."""

    def test_empty_blocks_and_edge_ends_are_read_once(self, monkeypatch):
        # the triple intersection and two of the pairs are empty
        cube, _ = cover_cube_diagram([["a", "b"], ["c", "d"], ["b", "c"],
                                      ["e"]])
        payload = cube_json(cube)
        for (big, small), m in edge_maps(cube).items():
            key = "->".join(",".join(map(str, sorted(s))) for s in (big, small))
            payload["edges"][key]["0"] = dense_at(m, 0).to_json()
        empty = collections.Counter(
            (b["0"]["rows"], b["0"]["cols"])
            for b in payload["edges"].values() if not b["0"]["entries"])
        assert sum(empty.values()) > len(empty) > 1  # empty shapes repeat
        built, parsed = collections.Counter(), collections.Counter()
        init, subset = QMatrix.__init__, hypercube._subset

        def counted_init(self, rows, cols, entries):
            # a dense list, or a dict of terms for a built total complex
            built[rows, cols] += not entries
            init(self, rows, cols, entries)

        def counted_subset(name, vertices=None):
            parsed[name] += 1
            return subset(name, vertices)
        monkeypatch.setattr(QMatrix, "__init__", counted_init)
        monkeypatch.setattr(hypercube, "_subset", counted_subset)
        assert CubeDiagram.from_json(payload) == cube
        assert {shape for shape, n in built.items() if n} <= set(empty)
        assert max(built.values()) <= 1
        assert parsed == dict.fromkeys(payload["vertices"], 1)
