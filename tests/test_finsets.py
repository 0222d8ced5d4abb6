import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (aut_generators, brute_automorphisms,
                     brute_canonical_with_perms, brute_census,
                     brute_isomorphic, canonical_form, census_diagrams,
                     closure_size, compose, diagram_json, fiber_chain,
                     finset_json, forest_order, identity_map, all_maps,
                     MAP_SPACES, small_diagrams, twinned_chains)
from motivic_kit.finsets import (DiagramIso, FinDiagram, FinSet, SetMap,
                                 _canonical_form, automorphism_group,
                                 map_values)
from motivic_kit.monad import enumerate_diagrams


def diagram(*sizes_and_maps):
    sizes, maps = sizes_and_maps
    sets = [FinSet(n) for n in sizes]
    return FinDiagram(sets, [SetMap(sets[i], sets[i + 1], v)
                             for i, v in enumerate(maps)])


class TestFinSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FinSet(0)

    def test_labels_checked(self):
        with pytest.raises(ValueError):
            FinSet(2, labels=["a"])
        with pytest.raises(ValueError):
            FinSet(2, labels=["a", "a"])
        assert FinSet(2, labels=["a", "b"]).labels == ("a", "b")

    def test_json_round_trip(self):
        s = FinSet(3, labels=["x", "y", "z"])
        assert FinSet.from_json(finset_json(s)) == s
        assert FinSet.from_json(finset_json(FinSet(2))) == FinSet(2)


class TestSetMap:
    def test_values_validated(self):
        with pytest.raises(ValueError):
            SetMap(FinSet(2), FinSet(2), [0])
        with pytest.raises(ValueError):
            SetMap(FinSet(2), FinSet(2), [0, 2])

    def test_compose_identity(self):
        id3 = identity_map(FinSet(3))
        assert compose(id3, id3) == id3

    def test_compose_forced(self):
        # f = (0,0): 2->1, g = (1): 1->2 composes to (1,1)
        f = SetMap(FinSet(2), FinSet(1), [0, 0])
        g = SetMap(FinSet(1), FinSet(2), [1])
        assert compose(f, g).values == (1, 1)

    def test_compose_mismatch(self):
        f = SetMap(FinSet(2), FinSet(2), [0, 1])
        g = SetMap(FinSet(3), FinSet(2), [0, 0, 1])
        with pytest.raises(ValueError):
            compose(f, g)

    def test_compose_associative_unital_exhaustive(self):
        # all composable triples between sets of size <= 3
        sizes = range(1, 4)
        for a, b, c, d in itertools.product(sizes, repeat=4):
            sa, sb, sc, sd = FinSet(a), FinSet(b), FinSet(c), FinSet(d)
            for f in all_maps(sa, sb):
                assert compose(identity_map(sa), f) == f
                assert compose(f, identity_map(sb)) == f
                for g in all_maps(sb, sc):
                    fg = compose(f, g)
                    for h in all_maps(sc, sd):
                        assert compose(fg, h) == compose(f, compose(g, h))

    def test_json_round_trip(self):
        # a set map is read back as a map of a diagram file
        f = SetMap(FinSet(3), FinSet(2), [0, 1, 0])
        d = FinDiagram([f.dom, f.cod], [f])
        assert FinDiagram.from_json(diagram_json(d)).maps == (f,)

    @pytest.mark.parametrize("nx, ny", MAP_SPACES)
    def test_map_values_are_the_values_of_all_maps_in_order(self, nx, ny):
        # the library's one enumerator against the base-|Y| count
        dom, cod = FinSet(nx), FinSet(ny)
        assert list(map_values(dom, cod)) == [f.values
                                              for f in all_maps(dom, cod)]


class TestCanonicalForm:
    def test_single_set(self):
        d = FinDiagram([FinSet(4, labels=list("wxyz"))], [])
        c = canonical_form(d)
        assert c.sets == (FinSet(4),)

    def test_constant_maps_share_representative(self):
        c1 = diagram((2, 2), [[0, 0]])
        c2 = diagram((2, 2), [[1, 1]])
        assert canonical_form(c1) == canonical_form(c2)

    def test_bijections_share_representative(self):
        b1 = diagram((2, 2), [[0, 1]])
        b2 = diagram((2, 2), [[1, 0]])
        assert canonical_form(b1) == canonical_form(b2)

    def test_idempotent_over_bounded_census(self):
        # every raw diagram within bounds, not only representatives
        for sizes in itertools.product(range(1, 3), repeat=3):
            sets = [FinSet(n) for n in sizes]
            for v1 in itertools.product(range(sizes[1]), repeat=sizes[0]):
                for v2 in itertools.product(range(sizes[2]), repeat=sizes[1]):
                    d = FinDiagram(sets, [SetMap(sets[0], sets[1], v1),
                                          SetMap(sets[1], sets[2], v2)])
                    c = canonical_form(d)
                    assert canonical_form(c) == c


class TestIsomorphismClasses:
    """Two diagrams are isomorphic iff their representatives are equal; the
    witnesses are components that DiagramIso checks square by square."""

    def test_self_iso(self):
        d = diagram((3, 2), [[0, 0, 1]])
        iso = DiagramIso(d, d, [identity_map(s) for s in d.sets])
        assert iso.source == d and iso.target == d
        for perms in itertools.product(itertools.permutations(range(3)),
                                       itertools.permutations(range(2))):
            assert canonical_form(d.relabel(perms)) == canonical_form(d)

    def test_constant_maps(self):
        c1 = diagram((2, 2), [[0, 0]])
        c2 = diagram((2, 2), [[1, 1]])
        swap = SetMap(FinSet(2), FinSet(2), [1, 0])
        DiagramIso(c1, c2, [identity_map(FinSet(2)), swap])
        assert canonical_form(c1) == canonical_form(c2)

    def test_constant_vs_bijection(self):
        c = diagram((2, 2), [[0, 0]])
        b = diagram((2, 2), [[0, 1]])
        assert canonical_form(c) != canonical_form(b)
        for p, q in itertools.product(all_maps(FinSet(2), FinSet(2)),
                                      repeat=2):
            if p.is_bijective() and q.is_bijective():
                with pytest.raises(ValueError, match="naturality"):
                    DiagramIso(c, b, [p, q])

    def test_witness_agrees_with_canonical_forms(self):
        pool = census_diagrams(2, (2, 3))
        relabeled = []
        for d in pool:
            perms = tuple(tuple(reversed(range(s.size))) for s in d.sets)
            relabeled.append(d.relabel(perms))
        for d1 in pool:
            for d2 in relabeled:
                same = canonical_form(d1) == canonical_form(d2)
                assert brute_isomorphic(d1, d2) == same

    def test_length_mismatch_rejected(self):
        d1, d2 = diagram((2,), []), diagram((2, 2), [[0, 1]])
        assert canonical_form(d1) != canonical_form(d2)
        with pytest.raises(ValueError, match="one component per set"):
            DiagramIso(d1, d2, [identity_map(FinSet(2))])


class TestAutomorphismGroup:
    def test_bare_set_full_symmetric(self):
        for n in range(1, 6):
            g = automorphism_group(FinDiagram([FinSet(n)], []))
            assert g.order == math.factorial(n)

    def test_identity_map_on_two_set(self):
        d = diagram((2, 2), [[0, 1]])
        assert automorphism_group(d).order == 2

    def test_map_with_distinct_fibers(self):
        d = diagram((3, 2), [[0, 0, 1]])
        g = automorphism_group(d)
        assert g.order == 2
        assert len(brute_automorphisms(d)) == 2

    def test_generators_regenerate_order(self):
        for d in census_diagrams(2, (3, 3)):
            g = automorphism_group(d)
            assert g.order == len(brute_automorphisms(d))
            for gen in g.generators:
                assert gen.source == d and gen.target == d

    def test_order_divides_product_of_factorials(self):
        for d in census_diagrams(2, (3, 3)):
            g = automorphism_group(d)
            total = math.prod(math.factorial(n) for n in d.sizes())
            assert total % g.order == 0

    def test_permgroup_json_round_trip(self):
        d = diagram((3, 2), [[0, 0, 1]])
        g = automorphism_group(d)
        data = json.loads(json.dumps(g.to_json()))
        assert (data["order"], data["degrees"]) == (g.order, [3, 2])
        assert aut_generators(data, d) == list(g.generators)


def brute_witness(d: FinDiagram) -> DiagramIso:
    """The isomorphism from d to its representative that the brute search's
    relabeling gives, validated square by square by DiagramIso."""
    rep, perms = brute_canonical_with_perms(d)
    return DiagramIso(d, rep, [SetMap(s, t, p)
                               for s, t, p in zip(d.sets, rep.sets, perms)])


class TestCanonicalFormOracle:
    """The structural labelling against the brute search over relabelings."""

    @pytest.mark.parametrize("bounds", [(4, 4), (3, 3, 3), (2, 2, 2, 2)])
    def test_every_labelled_diagram(self, bounds):
        reps = brute_census(bounds)
        for d, rep in reps.items():
            assert canonical_form(d) == rep
        # the representative is isomorphic to its input: one member of each
        # class, relabeled by the brute search, checked square by square
        members = {rep: d for d, rep in reps.items()}
        for rep, d in members.items():
            assert brute_witness(d).target == canonical_form(d) == rep

    @settings(max_examples=60, deadline=None)
    @given(small_diagrams())
    def test_random_diagrams(self, d):
        # the brute representative, reached from d by a checked witness
        assert canonical_form(d) == brute_witness(d).target


class TestAutomorphismGroupStructure:
    """Forest wreath-product groups against the brute automorphism list."""

    @staticmethod
    def check(d):
        g = automorphism_group(d)
        assert g.order == len(brute_automorphisms(d))
        for gen in g.generators:
            # DiagramIso checks bijectivity and every naturality square
            assert isinstance(gen, DiagramIso)
            assert gen.source == d and gen.target == d
        perms = [tuple(c.values for c in gen.components)
                 for gen in g.generators]
        assert closure_size(perms, d.sizes()) == g.order

    def test_census_333(self):
        for d in census_diagrams(3, (3, 3, 3)):
            self.check(d)

    @settings(max_examples=60, deadline=None)
    @given(small_diagrams())
    def test_random_diagrams(self, d):
        self.check(d)

    def test_empty_diagram(self):
        g = automorphism_group(FinDiagram([], []))
        assert g.order == 1 and g.generators == ()

    def test_swap_carries_children_of_every_class(self):
        # two isomorphic roots, each over a 1-element and a 2-element fiber:
        # a root swap must pair the children class by class
        d = diagram((6, 4, 2), [[0, 1, 1, 2, 3, 3], [0, 0, 1, 1]])
        self.check(d)
        assert automorphism_group(d).order == 8

    def test_identity_chain(self):
        # the brute count would try 720^4 relabelings; the closure is cheap
        d = diagram((6, 6, 6, 6), [list(range(6))] * 3)
        g = automorphism_group(d)
        perms = [tuple(c.values for c in gen.components)
                 for gen in g.generators]
        assert g.order == closure_size(perms, d.sizes()) == 720


class TestAutomorphismOrder:
    """The order read from the forest's classes, by the census and by
    `automorphism_group`, against the brute automorphism list."""

    @pytest.mark.parametrize("bounds", [(4, 4), (3, 3, 3), (2, 2, 2, 2)])
    def test_census(self, bounds):
        for d, order in zip(census_diagrams(len(bounds), bounds),
                            enumerate_diagrams(len(bounds), bounds)[1],
                            strict=True):
            assert (order == automorphism_group(d).order
                    == len(brute_automorphisms(d))), d

    @settings(max_examples=60, deadline=None)
    @given(small_diagrams())
    def test_random_diagrams(self, d):
        assert automorphism_group(d).order == len(brute_automorphisms(d))

    @settings(max_examples=80, deadline=None)
    @given(twinned_chains())
    def test_folded_order_on_repeated_subtrees(self, d):
        # the order the canonicalising pass reads off its own counts, on
        # d and on its form, against the recount of the forest's
        # multiplicities and the brute list; the empty diagram, which no
        # census canonicalises, has the order of its group alone
        order = automorphism_group(d).order
        if d.k:
            form, folded = _canonical_form(d)
            assert folded == _canonical_form(form)[1] == order, d
        assert order == forest_order(d) == len(brute_automorphisms(d)), d

    def test_empty_diagram(self):
        assert automorphism_group(FinDiagram([], [])).order == 1


FIBERS = [fibers for t in (1, 2, 3)
          for fibers in itertools.product(range(3), repeat=t)
          if sum(fibers)]


@pytest.mark.parametrize("fibers", FIBERS, ids=str)
def test_fiber_chain_against_the_wreath_formula(fibers):
    # an automorphism permutes the fibers of each size among themselves and
    # then maps each fiber onto its image: prod m_k! * prod |fiber|!
    d = fiber_chain(fibers)
    sizes = [fibers.count(k) for k in set(fibers)]
    order = math.prod(map(math.factorial, sizes + list(fibers)))
    g = automorphism_group(d)
    assert g.order == order == len(brute_automorphisms(d))
    perms = [tuple(c.values for c in gen.components) for gen in g.generators]
    assert g.order == closure_size(perms, d.sizes()) == order
    # reordering the fibers relabels the target: the class does not move
    assert canonical_form(d) == canonical_form(fiber_chain(sorted(fibers)))


class TestEnumerateDiagrams:
    def test_k1_counts(self):
        assert len(enumerate_diagrams(1, (3,))[0]) == 3
        assert [d.sizes() for d in census_diagrams(1, (3,))] == \
            [(1,), (2,), (3,)]

    def test_k2_bounds_22(self):
        assert len(enumerate_diagrams(2, (2, 2))[0]) == 5

    def test_k2_slice_33(self):
        # maps 3 -> 3 up to iso: partitions of 3 into at most 3 parts
        classes = [d for d in census_diagrams(2, (3, 3))
                   if d.sizes() == (3, 3)]
        assert len(classes) == 3

    def test_representatives_are_canonical_and_distinct(self):
        classes = census_diagrams(2, (3, 3))
        assert len({d.encoding() for d in classes}) == len(classes)
        for d in classes:
            assert canonical_form(d) == d

    def test_deterministic_order(self):
        a = enumerate_diagrams(2, (2, 2))[0]
        b = enumerate_diagrams(2, (2, 2))[0]
        assert a == b

    def test_orbit_counting_consistency(self):
        # sum over classes of |S_a x S_b| / |Aut| = number of maps a -> b
        for a in range(1, 4):
            for b in range(1, 4):
                classes = [d for d in census_diagrams(2, (a, b))
                           if d.sizes() == (a, b)]
                total = 0
                for d in classes:
                    aut = automorphism_group(d).order
                    orbit = (math.factorial(a) * math.factorial(b)) // aut
                    total += orbit
                assert total == b ** a


class TestFinDiagram:
    @pytest.mark.parametrize("sizes, maps, message", [
        ((), [(2, 2)], "empty diagram has no maps"),
        ((2, 2), [], "need exactly k-1 maps for k sets"),
        ((2,), [(2, 2)], "need exactly k-1 maps for k sets"),
        ((2, 3), [(2, 2)], "map 0 does not chain sets 0 -> 1"),
        ((2, 2, 1), [(2, 2), (3, 1)], "map 1 does not chain sets 1 -> 2")])
    def test_a_broken_chain_is_refused(self, sizes, maps, message):
        # each map is given by its (dom, cod) sizes and sends all to 0
        sets = [FinSet(n) for n in sizes]
        maps = [SetMap(FinSet(d), FinSet(c), [0] * d) for d, c in maps]
        with pytest.raises(ValueError, match=f"^{message}$"):
            FinDiagram(sets, maps)

    def test_relabel_needs_one_permutation_per_set(self):
        d = diagram((2, 1), [[0, 0]])
        with pytest.raises(ValueError,
                           match="^need one permutation per set$"):
            d.relabel([[1, 0]])


class TestDiagramIso:
    @pytest.mark.parametrize("dom, cod", [(3, 2), (2, 3)])
    def test_a_component_off_the_sets_is_refused(self, dom, cod):
        d = diagram((2,), [])
        component = SetMap(FinSet(dom), FinSet(cod), [0] * dom)
        with pytest.raises(ValueError,
                           match="^component 0 has wrong boundary$"):
            DiagramIso(d, d, [component])

    def test_a_component_that_is_no_bijection_is_refused(self):
        d = diagram((2, 1), [[0, 0]])
        components = [identity_map(FinSet(2)), SetMap(FinSet(1), FinSet(1),
                                                      [0])]
        assert DiagramIso(d, d, components).components == tuple(components)
        components[0] = SetMap(FinSet(2), FinSet(2), [0, 0])
        with pytest.raises(ValueError,
                           match="^component 0 is not bijective$"):
            DiagramIso(d, d, components)

    def test_naturality_enforced(self):
        c = diagram((2, 2), [[0, 0]])
        b = diagram((2, 2), [[0, 1]])
        comp = [identity_map(FinSet(2)), identity_map(FinSet(2))]
        with pytest.raises(ValueError):
            DiagramIso(c, b, comp)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_squares_compose_commutes(self, data):
        # the target is the source carried along the components, the same
        # with one value changed, or a random chain on the same sets
        source = data.draw(small_diagrams())
        sets = source.sets
        components = [SetMap(s, s, data.draw(st.permutations(range(s.size))))
                      for s in sets]
        target = source.relabel([c.values for c in components])
        kind = data.draw(st.sampled_from(["carried", "one value", "random"]))
        maps = [list(m.values) for m in target.maps]
        if kind == "one value" and maps:
            i = data.draw(st.integers(0, len(maps) - 1))
            x = data.draw(st.integers(0, len(maps[i]) - 1))
            maps[i][x] = data.draw(st.integers(0, sets[i + 1].size - 1))
        elif kind == "random":
            maps = [data.draw(st.lists(st.integers(0, sets[i + 1].size - 1),
                                       min_size=s.size, max_size=s.size))
                    for i, s in enumerate(sets[:-1])]
        target = FinDiagram(sets, [SetMap(sets[i], sets[i + 1], values)
                                   for i, values in enumerate(maps)])
        failing = [i for i in range(source.k - 1)
                   if compose(source.maps[i], components[i + 1]).values
                   != compose(components[i], target.maps[i]).values]
        if failing:
            with pytest.raises(ValueError) as raised:
                DiagramIso(source, target, components)
            assert str(raised.value) == \
                f"naturality square {failing[0]} does not commute"
        else:
            iso = DiagramIso(source, target, components)
            assert iso.components == tuple(components)
        if kind == "carried":
            assert failing == []

    def test_json_round_trip(self):
        d = diagram((2, 1), [[0, 0]])
        assert FinDiagram.from_json(diagram_json(d)) == d
