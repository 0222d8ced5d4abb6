import functools
import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_gset_actions, all_maps, brute_equivariant_maps,
                     brute_is_associative, brute_is_homomorphism, compose,
                     conjugation_fixed, cyclic_group, data_path, graph,
                     group_like_tables,
                     gset_from_generator_images, gset_json, load_group,
                     morphism_from_setmap, orbital_count, regular_gset,
                     stabiliser_count, sub_gset, trivial_gset)

from motivic_kit import cli, galois
from motivic_kit._value import InputError
from motivic_kit.finsets import FinSet, SetMap
from motivic_kit.galois import (FiniteGroup, GSet, equivariant_set_maps,
                                fixed_coalgebra_morphisms)

FIXTURE_NAMES = ["c2", "c3", "c4", "v4", "c5", "c6", "s3"]


class TestFiniteGroup:
    def test_fixtures_load_and_validate(self):
        orders = {"c2": 2, "c3": 3, "c4": 4, "v4": 4, "c5": 5, "c6": 6,
                  "s3": 6}
        for name in FIXTURE_NAMES:
            g = load_group(name)
            assert g.order == orders[name]

    def test_fixtures_match_constructors(self):
        for n in range(2, 7):
            assert load_group(f"c{n}") == cyclic_group(n)
        # of the groups of order 4 and 6, V4 is the one in which every
        # element squares to 1, and S3 the non-abelian one
        v4, s3 = load_group("v4"), load_group("s3")
        assert all(v4.mul(g, g) == v4.identity for g in v4.elements())
        assert any(s3.mul(g, h) != s3.mul(h, g)
                   for g in s3.elements() for h in s3.elements())

    def test_non_associative_rejected(self):
        # a Latin square that is not a group table
        table = [[0, 1, 2, 3, 4],
                 [1, 0, 3, 4, 2],
                 [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1],
                 [4, 3, 1, 2, 0]]
        with pytest.raises(ValueError):
            FiniteGroup(table)

    @staticmethod
    def accepted(table) -> bool:
        try:
            FiniteGroup(table)
        except ValueError as exc:
            assert str(exc) == "multiplication is not associative"
            return False
        return True

    @settings(max_examples=400, deadline=None)
    @given(group_like_tables())
    def test_light_test_agrees_with_brute_force(self, table):
        assert self.accepted(table) == brute_is_associative(table)

    def test_light_test_agrees_on_every_order_three_table(self):
        # identity 0; the four other entries range over all 3^4 choices
        verdicts = set()
        for a, b, c, d in itertools.product(range(3), repeat=4):
            table = [[0, 1, 2], [1, a, b], [2, c, d]]
            if 0 in table[1] and 0 in table[2]:
                verdict = brute_is_associative(table)
                assert self.accepted(table) == verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_large_cyclic_group_is_quick(self):
        start = time.perf_counter()
        assert cyclic_group(400).order == 400
        assert time.perf_counter() - start < 1.0

    def test_no_identity_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroup([[1, 1], [1, 1]])

    def test_identity_need_not_be_element_zero(self):
        g = FiniteGroup([[1, 0], [0, 1]])  # element 1 is the identity
        assert g.identity == 1

    def test_inverses(self):
        g = load_group("s3")
        for a in g.elements():
            assert g.identity in g.table[a]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_generating_set(self, name):
        # the generators generate, and each is the first element outside
        # the closure of those before it
        g = load_group(name)
        gens = g.generators
        assert type(gens) is tuple
        assert g.closure(gens) == set(g.elements())
        for i, s in enumerate(gens):
            closed = g.closure(gens[:i])
            assert s == min(set(g.elements()) - closed)
        assert len(gens) <= 2

    def test_generators_do_not_change_equality(self):
        # the generators are read off the table, so equal tables give
        # equal groups with equal hashes
        a, b = load_group("s3"), FiniteGroup(load_group("s3").table)
        assert a == b and hash(a) == hash(b) and a.generators == b.generators
        assert load_group("c2").generators == (1,)
        assert load_group("v4").generators == (1, 2)
        assert FiniteGroup([[0]]).generators == ()


class TestGroupTablesAreShared:
    """`FiniteGroup.from_json` checks a table once per process and shares
    the group with every later read of the same table."""

    C3 = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}

    def test_reads_of_one_table_share_one_group(self):
        first = FiniteGroup.from_json(self.C3)
        again = FiniteGroup.from_json(json.loads(json.dumps(self.C3)))
        assert again is first
        assert load_group("c3") is first
        # the constructor itself still builds a new value
        built = FiniteGroup(self.C3["table"])
        assert built == first and built is not first

    def test_a_shared_table_still_checks_the_order(self):
        FiniteGroup.from_json({"order": 2, "table": [[0, 1], [1, 0]]})
        with pytest.raises(InputError) as exc:
            FiniteGroup.from_json({"order": 3, "table": [[0, 1], [1, 0]]})
        assert str(exc.value) == "order is 3, but the table has order 2"

    @pytest.mark.parametrize("table, fault", [
        ([[0, 1], [1, 1]], "element 1 has no inverse"),
        ([[0, 1, 2], [1, 0, 0], [2, 0, 0]],
         "multiplication is not associative"),
        ([], "empty group table"),
    ])
    def test_a_bad_table_fails_on_every_read(self, table, fault):
        data = {"order": len(table), "table": table}
        for _ in range(2):
            with pytest.raises(InputError) as exc:
                FiniteGroup.from_json(data)
            assert str(exc.value) == f"table is not a group table: {fault}"
        assert tuple(map(tuple, table)) not in galois._GROUPS

    def test_gsets_over_different_tables_are_refused(self):
        # Z/2 with identity 0, and with identity 1: equal orders, two groups
        tables = ([[0, 1], [1, 0]], [[1, 0], [0, 1]])
        x, y = (GSet.from_json({"group": {"order": 2, "table": t},
                                "carrier": {"size": 2},
                                "action": [[0, 1], [0, 1]]})
                for t in tables)
        assert x.group is not y.group
        for side in (equivariant_set_maps, fixed_coalgebra_morphisms):
            with pytest.raises(ValueError,
                               match="^G-sets over different groups$"):
                side(x, y)


SMALL_GROUPS = [cyclic_group(1)] + [load_group(n) for n in FIXTURE_NAMES]


@functools.lru_cache(maxsize=None)
def actions_of(group_index: int, size: int) -> list:
    return all_gset_actions(SMALL_GROUPS[group_index], size)


@st.composite
def group_actions(draw, max_size: int = 4):
    """(group, carrier, action): an action of a small group, and two times
    in three a perturbed one.  One perturbation replaces a non-identity
    element's bijection or swaps two; the other composes every bijection
    on one left coset g<s> of a generator's cyclic subgroup (g outside
    it) with one permutation, which keeps action[x*s] = action[x] o
    action[s] for that generator s."""
    index = draw(st.integers(0, len(SMALL_GROUPS) - 1))
    group = SMALL_GROUPS[index]
    x = draw(st.sampled_from(actions_of(index, draw(st.integers(1, max_size)))))
    action = list(x.action)
    others = [g for g in group.elements() if g != group.identity]
    kind = draw(st.sampled_from(["none", "element", "coset"]))
    if others and kind == "element":
        g = draw(st.sampled_from(others))
        if draw(st.booleans()):
            h = draw(st.sampled_from(others))
            action[g], action[h] = action[h], action[g]
        else:
            values = draw(st.permutations(range(x.carrier.size)))
            action[g] = SetMap(x.carrier, x.carrier, values)
    elif others and kind == "coset":
        cyclic = group.closure([draw(st.sampled_from(group.generators))])
        outside = [g for g in group.elements() if g not in cyclic]
        if outside:
            g = draw(st.sampled_from(outside))
            follow = SetMap(x.carrier, x.carrier,
                            draw(st.permutations(range(x.carrier.size))))
            for h in cyclic:
                gh = group.mul(g, h)
                action[gh] = compose(action[gh], follow)
    return group, x.carrier, action


class TestGSet:
    def test_identity_must_act_trivially(self):
        c2 = load_group("c2")
        s = FinSet(2)
        swap = SetMap(s, s, [1, 0])
        with pytest.raises(ValueError):
            GSet(c2, s, [swap, swap])

    def test_homomorphism_enforced(self):
        c4 = load_group("c4")
        s = FinSet(2)
        ident = SetMap(s, s, [0, 1])
        swap = SetMap(s, s, [1, 0])
        # the generator squares to swap, not to the identity
        with pytest.raises(ValueError):
            GSet(c4, s, [ident, swap, swap, swap])

    @pytest.mark.parametrize("values, message", [
        # the one non-identity element folds two points, and its square
        # is not the identity either
        ([[0, 1], [0, 0]], "action maps must be bijective"),
        # the identity swaps, and 1 * 1 = 0 acts as the swap, not as
        # action[1] o action[1] = identity
        ([[1, 0], [0, 1]], "identity must act trivially"),
    ])
    def test_the_first_failing_check_is_named(self, values, message):
        c2 = load_group("c2")
        s = FinSet(2)
        action = [SetMap(s, s, v) for v in values]
        assert not brute_is_homomorphism(c2, action)
        with pytest.raises(ValueError) as info:
            GSet(c2, s, action)
        assert str(info.value) == message

    @pytest.mark.parametrize("dom, cod", [(2, 3), (3, 2), (3, 3)])
    def test_an_action_map_off_the_carrier_is_refused(self, dom, cod):
        """A check for library callers: `GSet.from_json` reads each action
        row as a map from the carrier to itself, so no file reaches it."""
        c2 = load_group("c2")
        s = FinSet(2)
        stray = SetMap(FinSet(dom), FinSet(cod),
                       [a % cod for a in range(dom)])
        with pytest.raises(ValueError) as info:
            GSet(c2, s, [SetMap(s, s, [0, 1]), stray])
        assert str(info.value) == "action maps must be endomaps of the carrier"

    @settings(max_examples=400, deadline=None)
    @given(group_actions())
    def test_generator_check_agrees_with_every_pair(self, group_action):
        group, carrier, action = group_action
        try:
            GSet(group, carrier, action)
        except ValueError as exc:
            assert str(exc) == "action is not a homomorphism"
            accepted = False
        else:
            accepted = True
        assert accepted == brute_is_homomorphism(group, action)

    def test_generators_are_not_found_again(self, monkeypatch):
        # the group found them when it was built; G-sets over it and the
        # fixedness check read them
        group = load_group("s3")
        calls = []
        closure = FiniteGroup.closure

        def counted(self, gens):
            calls.append(gens)
            return closure(self, gens)

        monkeypatch.setattr(FiniteGroup, "closure", counted)
        x = regular_gset(group)
        two = FinSet(2)
        # the sign: the transpositions 1, 2 and 5 swap the two points
        y = GSet(group, two, [SetMap(two, two, [0, 1][::sign]) for sign in
                              (1, -1, -1, 1, 1, -1)])
        assert len(fixed_coalgebra_morphisms(x, y)) == 2
        assert calls == []

    def test_large_cyclic_group_on_a_point_is_quick(self):
        group = cyclic_group(1000)
        start = time.perf_counter()
        x = trivial_gset(group, FinSet(1))
        assert len(fixed_coalgebra_morphisms(x, x)) == 1
        assert len(equivariant_set_maps(x, x)) == 1
        assert time.perf_counter() - start < 1.0

    def test_regular_action(self):
        g = load_group("s3")
        x = regular_gset(g)
        assert x.carrier.size == 6

    def test_json_round_trip(self):
        x = regular_gset(load_group("c3"))
        assert GSet.from_json(gset_json(x)) == x

    def test_all_actions_counts(self):
        # homomorphisms C2 -> Sym(3): identity plus the three transpositions
        assert len(all_gset_actions(load_group("c2"), 3)) == 4
        # homomorphisms C3 -> Sym(3): identity plus the two 3-cycles
        assert len(all_gset_actions(load_group("c3"), 3)) == 3

    def test_inconsistent_generator_images_rejected(self):
        # a 3-cycle cannot be the image of the generator of C2: the walk
        # reaches the identity again as g * g with the image squared
        s = FinSet(3)
        with pytest.raises(ValueError, match="inconsistent"):
            gset_from_generator_images(load_group("c2"), s, [1],
                                       [SetMap(s, s, [1, 2, 0])])


def renamed(values, p, q) -> tuple:
    """The values of a map a -> b once a is renamed p[a] and b q[b]."""
    out = [None] * len(values)
    for a, b in enumerate(values):
        out[p[a]] = q[b]
    return tuple(out)


def relabelled(x: GSet, p) -> GSet:
    """The G-set x with its point a renamed p[a]."""
    return GSet(x.group, x.carrier, [SetMap(x.carrier, x.carrier,
                                            renamed(m.values, p, p))
                                     for m in x.action])


class TestEquivariantMaps:
    def test_trivial_group_gives_all_maps(self):
        e = FiniteGroup([[0]])
        x = trivial_gset(e, FinSet(2))
        y = trivial_gset(e, FinSet(3))
        assert len(equivariant_set_maps(x, y)) == 9

    def test_regular_to_trivial(self):
        c2 = load_group("c2")
        x = regular_gset(c2)
        y = trivial_gset(c2, FinSet(2))
        maps = equivariant_set_maps(x, y)
        assert len(maps) == 2
        assert all(len(set(f.values)) == 1 for f in maps)  # constants

    def test_regular_to_regular(self):
        c2 = load_group("c2")
        x = regular_gset(c2)
        assert len(equivariant_set_maps(x, x)) == 2

    def test_group_mismatch(self):
        x = regular_gset(load_group("c2"))
        y = regular_gset(load_group("c3"))
        with pytest.raises(ValueError):
            equivariant_set_maps(x, y)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_small_pair_matches_composition(self, name):
        # every pair of actions on carriers of size <= 3, against the maps
        # found by composing validated set maps
        group = load_group(name)
        actions = [x for size in range(1, 4)
                   for x in all_gset_actions(group, size)]
        empty = 0
        for x, y in itertools.product(actions, repeat=2):
            maps = equivariant_set_maps(x, y)
            assert maps == brute_equivariant_maps(x, y)
            empty += not maps
        # a nontrivial orbit on at most 3 points is an action of its own,
        # without a fixed point, so it takes no map from a point
        moves = any(m.values != tuple(range(m.dom.size))
                    for x in actions for m in x.action)
        assert (empty > 0) == moves

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_relabelled_actions_match_composition(self, data):
        # renaming the points of X by p and of Y by q takes the equivariant
        # maps f to q o f o p^-1, in the order of their new value tuples
        index = data.draw(st.integers(0, len(SMALL_GROUPS) - 1))
        x, y = (data.draw(st.sampled_from(
            actions_of(index, data.draw(st.integers(1, 3)))))
            for _ in range(2))
        p, q = (data.draw(st.permutations(range(s.carrier.size)))
                for s in (x, y))
        xp, yq = relabelled(x, p), relabelled(y, q)
        maps = equivariant_set_maps(xp, yq)
        assert maps == brute_equivariant_maps(xp, yq)
        assert fixed_coalgebra_morphisms(xp, yq) == conjugation_fixed(xp, yq)
        assert [f.values for f in maps] == sorted(
            renamed(f.values, p, q) for f in equivariant_set_maps(x, y))


class TestDescent:
    def test_trivial_group_gives_all_graphs(self):
        e = FiniteGroup([[0]])
        x = trivial_gset(e, FinSet(2))
        y = trivial_gset(e, FinSet(2))
        assert len(fixed_coalgebra_morphisms(x, y)) == 4

    def test_c2_regular_to_trivial(self):
        c2 = load_group("c2")
        x = regular_gset(c2)
        y = trivial_gset(c2, FinSet(2))
        fixed = fixed_coalgebra_morphisms(x, y)
        assert len(fixed) == 2
        graphs = {graph(f) for f in equivariant_set_maps(x, y)}
        assert {c.matrix for c in fixed} == graphs

    def test_descent_bijection_sample(self):
        # a cross-section of fixture groups and small actions
        for name in ["c2", "c3", "v4", "s3"]:
            g = load_group(name)
            actions = (all_gset_actions(g, 1) + all_gset_actions(g, 2)
                       + all_gset_actions(g, 3))
            for x in actions[:4]:
                for y in actions[:4]:
                    fixed = {c.matrix for c in fixed_coalgebra_morphisms(x, y)}
                    graphs = {graph(f)
                              for f in equivariant_set_maps(x, y)}
                    assert fixed == graphs

    def test_descent_size_four_carrier(self):
        c2 = load_group("c2")
        s4 = FinSet(4)
        # swap two pairs
        act = SetMap(s4, s4, [1, 0, 3, 2])
        x = GSet(c2, s4, [SetMap(s4, s4, range(4)), act])
        y = regular_gset(c2)
        fixed = {c.matrix for c in fixed_coalgebra_morphisms(x, y)}
        graphs = {graph(f) for f in equivariant_set_maps(x, y)}
        assert fixed == graphs

    def test_descent_size_four_regular_actions(self):
        # order-4 groups acting on themselves, against small targets
        for g in (load_group("c4"), load_group("v4")):
            x = regular_gset(g)
            for y in (trivial_gset(g, FinSet(2)), x):
                fixed = {c.matrix for c in fixed_coalgebra_morphisms(x, y)}
                graphs = {graph(f)
                          for f in equivariant_set_maps(x, y)}
                assert fixed == graphs

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_descent_on_random_actions(self, data):
        # fixedness is checked on generators, equivariance on every element
        index = data.draw(st.integers(0, len(SMALL_GROUPS) - 1))
        x, y = (data.draw(st.sampled_from(
            actions_of(index, data.draw(st.integers(1, 3)))))
            for _ in range(2))
        fixed = {c.matrix for c in fixed_coalgebra_morphisms(x, y)}
        assert fixed == {graph(f) for f in equivariant_set_maps(x, y)}

    def test_subgroup_restriction_enlarges(self):
        s3 = load_group("s3")
        x = regular_gset(s3)
        y = trivial_gset(s3, FinSet(2))
        full_maps = equivariant_set_maps(x, y)
        full_fixed = fixed_coalgebra_morphisms(x, y)
        # restrict to the cyclic subgroup generated by any non-identity element
        for g in range(1, 6):
            xs = sub_gset(x, [g])
            ys = sub_gset(y, [g])
            sub_maps = equivariant_set_maps(xs, ys)
            sub_fixed = fixed_coalgebra_morphisms(xs, ys)
            assert {f.values for f in full_maps} <= {f.values for f in sub_maps}
            assert {c.matrix for c in full_fixed} <= \
                {c.matrix for c in sub_fixed}
            assert {c.matrix for c in sub_fixed} == \
                {graph(f) for f in sub_maps}

    def test_fixed_morphisms_are_valid_morphisms(self):
        c3 = load_group("c3")
        x = regular_gset(c3)
        y = trivial_gset(c3, FinSet(2))
        for c in fixed_coalgebra_morphisms(x, y):
            f = equivariant_set_maps(x, y)
            assert c.matrix in {morphism_from_setmap(m).matrix for m in f}


class TestFixedByProducts:
    """`fixed_coalgebra_morphisms` moves the indicators of the orbitals of
    Y x X with one product per generator and picks graphs among those
    left unchanged; `conjugation_fixed` conjugates each of the solver's
    candidates by two products of its own."""

    @pytest.mark.parametrize("name", ["c2", "c3", "c4", "v4", "s3"])
    def test_every_small_pair_matches_the_conjugation_oracle(self, name):
        group = load_group(name)
        actions = [x for size in range(1, 4)
                   for x in all_gset_actions(group, size)]
        kept = 0
        for x, y in itertools.product(actions, repeat=2):
            fixed = fixed_coalgebra_morphisms(x, y)
            assert fixed == conjugation_fixed(x, y)
            kept += len(fixed)
        assert kept > 0

    @pytest.mark.parametrize("index", range(len(SMALL_GROUPS)),
                             ids=["c1"] + FIXTURE_NAMES)
    def test_both_sides_have_the_stabiliser_count(self, index):
        # |Hom_G(X, Y)| is the product over the orbits G.a of X of the
        # points of Y fixed by Stab(a), on every pair of actions on 1-3
        # points
        actions = [x for size in range(1, 4) for x in actions_of(index, size)]
        counts = set()
        for x, y in itertools.product(actions, repeat=2):
            count = stabiliser_count(x, y)
            assert len(equivariant_set_maps(x, y)) == count
            assert len(fixed_coalgebra_morphisms(x, y)) == count
            counts.add(count)
        assert len(counts) > 1

    @staticmethod
    def products(monkeypatch, x: GSet, y: GSet) -> int:
        """The `matmul` calls one fixed-side run makes, checked to be one
        per generator, each moving one row per orbital of Y x X."""
        calls = []
        matmul = galois.matmul

        def counted(a, b):
            calls.append(a.rows)
            return matmul(a, b)

        monkeypatch.setattr(galois, "matmul", counted)
        fixed = fixed_coalgebra_morphisms(x, y)
        monkeypatch.setattr(galois, "matmul", matmul)
        assert fixed == conjugation_fixed(x, y)
        assert calls == [orbital_count(x, y)] * len(x.group.generators)
        return len(calls)

    def test_one_product_per_generator(self, monkeypatch):
        v4 = load_group("v4")
        x, y = regular_gset(v4), trivial_gset(v4, FinSet(2))
        assert self.products(monkeypatch, x, y) == 2

    def test_the_trivial_group_makes_no_product(self, monkeypatch):
        e = FiniteGroup([[0]])
        x, y = trivial_gset(e, FinSet(2)), trivial_gset(e, FinSet(3))
        assert self.products(monkeypatch, x, y) == 0
        assert len(fixed_coalgebra_morphisms(x, y)) == 9

    def test_the_benchmarks_cheap_task_makes_a_product(self, monkeypatch):
        # C2 on one point into C2 on two: no fixed morphism, one product
        c2 = load_group("c2")
        x, y = trivial_gset(c2, FinSet(1)), regular_gset(c2)
        assert self.products(monkeypatch, x, y) == 1
        assert fixed_coalgebra_morphisms(x, y) == []

    @pytest.mark.parametrize("name", ["c2", "v4", "s3"])
    def test_the_products_decide_which_orbitals_are_kept(
            self, name, monkeypatch, capsys):
        # a fault test: the union-find cut down to one orbital per entry.
        # The products must drop every entry (b, a) that a generator moves
        # and keep the others, so the graphs left are exactly those whose
        # every entry is fixed, where without the products every graph
        # would be left
        monkeypatch.setattr(galois, "_orbit_labels",
                            lambda moves, n: list(range(n)))
        group = load_group(name)
        actions = [x for size in range(1, 4)
                   for x in all_gset_actions(group, size)]
        dropped = 0
        for x, y in itertools.product(actions, repeat=2):
            moves = [(x.action[g].values, y.action[g].values)
                     for g in group.generators]
            kept = [morphism_from_setmap(f)
                    for f in all_maps(x.carrier, y.carrier)
                    if all(gx[a] == a and gy[b] == b for gx, gy in moves
                           for a, b in enumerate(f.values))]
            assert fixed_coalgebra_morphisms(x, y) == kept
            dropped += y.carrier.size ** x.carrier.size - len(kept)
        assert dropped > 0
        # and the descent comparison then fails: both maps from the
        # regular C2 to two fixed points are equivariant, but every entry
        # of their graphs is moved
        assert cli.main(["galois-fixed",
                         "--x", data_path("gset_c2_regular.json"),
                         "--y", data_path("gset_c2_trivial2.json")]) == 1
        assert capsys.readouterr().out == (
            "equivariant maps: 2\nfixed comonoid morphisms: 0\nFAIL\n")
