import collections
import itertools
import math
import operator

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (assembled_census, brute_automorphisms, brute_census,
                     canonical_form, census_diagrams)
from motivic_kit import cli, monad
from motivic_kit.finsets import FinDiagram, FinSet, SetMap, automorphism_group
from motivic_kit.monad import assemble, enumerate_diagrams, verify_m_identity


def bare_set(n: int) -> FinDiagram:
    return FinDiagram([FinSet(n)], [])


EMPTY = FinDiagram([], [])


class TestAssemble:
    def test_single_entry(self):
        d = assemble(1, [bare_set(3)])
        assert d.sizes() == (3, 1)
        assert d.maps[0].values == (0, 0, 0)

    def test_two_singletons_give_identity(self):
        d = assemble(1, [bare_set(1), bare_set(1)])
        assert d.sizes() == (2, 2)
        assert d.maps[0].is_bijective()

    def test_two_and_one(self):
        d = assemble(1, [bare_set(2), bare_set(1)])
        assert d.sizes() == (3, 2)
        assert sorted(d.maps[0].fiber_sizes()) == [1, 2]

    def test_empty_multiset_rejected(self):
        for k in (0, 1):
            with pytest.raises(ValueError):
                assemble(k, [])

    def test_entry_longer_than_k_rejected(self):
        chain = FinDiagram([FinSet(2), FinSet(1)],
                           [SetMap(FinSet(2), FinSet(1), [0, 0])])
        for k, entries in ((1, [chain, bare_set(1)]), (0, [bare_set(1)])):
            with pytest.raises(ValueError):
                assemble(k, entries)

    def test_all_padded_rejected(self):
        with pytest.raises(ValueError):
            assemble(1, [EMPTY, EMPTY])

    def test_padded_entry_gives_missed_element(self):
        d = assemble(1, [bare_set(1), EMPTY])
        assert d.sizes() == (1, 2)
        assert set(d.maps[0].values) != {0, 1}  # not surjective

    def test_order_insensitive(self):
        # the entry order labels the blocks; the class does not move
        a = assemble(1, [bare_set(2), bare_set(1)])
        b = assemble(1, [bare_set(1), bare_set(2)])
        assert a != b
        assert canonical_form(a) == canonical_form(b)
        # two labellings of one class, in either order
        s2 = FinSet(2)
        d1 = FinDiagram([s2, s2], [SetMap(s2, s2, [0, 0])])
        d2 = FinDiagram([s2, s2], [SetMap(s2, s2, [1, 1])])
        assert (canonical_form(assemble(2, [d1, d2]))
                == canonical_form(assemble(2, [d2, d1])))

    def test_respects_isomorphism(self):
        d1 = FinDiagram([FinSet(2), FinSet(2)],
                        [SetMap(FinSet(2), FinSet(2), [0, 0])])
        d2 = FinDiagram([FinSet(2), FinSet(2)],
                        [SetMap(FinSet(2), FinSet(2), [1, 1])])
        assert (canonical_form(assemble(2, [d1, bare_set(1)]))
                == canonical_form(assemble(2, [d2, bare_set(1)])))

    def test_k2_assembly_shapes(self):
        chain = FinDiagram([FinSet(2), FinSet(1)],
                           [SetMap(FinSet(2), FinSet(1), [0, 0])])
        d = assemble(2, [chain, bare_set(1)])
        # the padded 1-set entry sits only at the middle level
        assert d.sizes() == (2, 2, 2)
        assert d.k == 3


class TestCensusIdentity:
    def test_base_case_multisets_of_points(self):
        # multisets of empty diagrams assemble to bare sets
        assert assemble(0, [EMPTY] * 3) == FinDiagram([FinSet(3)], [])
        report = verify_m_identity(0, (3,))
        assert report.passed
        assert report.assembled_classes == 3

    def test_bounds_two_two(self):
        report = verify_m_identity(1, (2, 2))
        assert report.passed
        assert report.assembled_classes == 5

    def test_bounds_three_three(self):
        report = verify_m_identity(1, (3, 3))
        assert report.passed
        assert report.assembled_classes == len(
            enumerate_diagrams(2, (3, 3))[0])

    def test_k2(self):
        report = verify_m_identity(2, (2, 2, 2))
        assert report.passed
        assert report.assembled_classes == len(
            enumerate_diagrams(3, (2, 2, 2))[0])

    @staticmethod
    def row(k, bounds, d):
        """The census row of the class of d."""
        [row] = [r for r in verify_m_identity(k, bounds).rows
                 if r.encoding == canonical_form(d).encoding()]
        return row

    def test_specific_preimage(self):
        # the class 3 -> 2 with fibers (2, 1) comes from {1-set, 2-set}
        d = assemble(1, [bare_set(2), bare_set(1)])
        target = FinDiagram([FinSet(3), FinSet(2)],
                            [SetMap(FinSet(3), FinSet(2), [0, 0, 1])])
        assert canonical_form(d) == canonical_form(target)
        assert automorphism_group(d).order == 2
        row = self.row(1, (3, 2), d)
        assert row.preimage_sizes == ((1,), (2,))
        assert row.aut_order == row.wreath_count == 2

    def test_wreath_count_repeated_entries(self):
        d = assemble(1, [bare_set(2), bare_set(2)])
        # each 2-set has Aut order 2, and the two equal entries swap
        row = self.row(1, (4, 2), d)
        assert row.preimage_sizes == ((2,), (2,))
        assert row.aut_order == row.wreath_count == 2 * 2 * 2
        assert automorphism_group(d).order == 8
        assert len(brute_automorphisms(d)) == 8


class TestGenerator:
    """Classes from multiset assembly against the brute census and the
    independently counted class numbers."""

    @pytest.mark.parametrize("bounds", [(4, 4), (3, 3, 3), (2, 2, 2, 2)])
    def test_equals_brute_census(self, bounds):
        reps = sorted(set(brute_census(bounds).values()),
                      key=FinDiagram.encoding)
        encodings, orders = enumerate_diagrams(len(bounds), bounds)
        assert encodings == [d.encoding() for d in reps]
        assert orders == [len(brute_automorphisms(d)) for d in reps]

    @pytest.mark.parametrize("bounds, count", [
        ((6, 6), 126), ((3, 3, 3), 82), ((4, 4, 4), 428),
        ((3, 3, 3, 3), 525), ((5, 5, 5), 1879)])
    def test_count_ladder(self, bounds, count):
        assert len(enumerate_diagrams(len(bounds), bounds)[0]) == count
        report = verify_m_identity(len(bounds) - 1, bounds)
        assert report.passed, report
        assert report.assembled_classes == count


def independent_multisets(k: int, bounds) -> list:
    """The bounded multisets of pool entries, by trying every multiset of
    at most bounds[k] entries and keeping those within the level bounds
    that have a full-length entry, each a tuple of entries in pool order."""
    pool = [EMPTY] + [d for j in range(1, k + 1)
                      for d in census_diagrams(j, bounds[k - j:k])]
    found = []
    for n in range(1, bounds[k] + 1):
        for entries in itertools.combinations_with_replacement(pool, n):
            levels = [0] * k
            for e in entries:
                for i, size in enumerate(e.sizes()):
                    levels[k - e.k + i] += size
            if (all(t <= b for t, b in zip(levels, bounds))
                    and any(e.k == k for e in entries)):
                found.append(entries)
    return found


def walked_multisets(k: int, bounds) -> list:
    """The census walk's index tuples, mapped to the pool's entries."""
    pool, _ = monad._pool(k, bounds)
    sizes = [e.sizes() for e in pool]
    return [tuple(pool[i] for i in indices)
            for indices in monad._admissible_multisets(k, bounds, sizes)]


class TestWalk:
    """The census walk against multisets built the checking way."""

    @pytest.mark.parametrize("bounds", [(2, 2, 3), (3, 3, 3, 3)])
    def test_yields_the_checked_multiset(self, bounds):
        # the pool is the empty fiber, then canonical entries in
        # (length, encoding) order, each with its brute automorphism count;
        # the walk's indices never fall
        k = len(bounds) - 1
        pool, orders = monad._pool(k, bounds)
        assert pool[0] == EMPTY
        assert all(canonical_form(e) == e for e in pool[1:])
        keys = [(e.k, e.encoding()) for e in pool]
        assert keys == sorted(set(keys))
        assert orders == [len(brute_automorphisms(e)) for e in pool]
        walked = list(monad._admissible_multisets(
            k, bounds, [e.sizes() for e in pool]))
        assert walked
        assert all(list(indices) == sorted(indices) for indices in walked)

    @pytest.mark.parametrize("bounds", [
        (5,), (2, 2), (1, 8), (8, 1), (7, 1, 2), (2, 2, 3), (1, 3, 2),
        (3, 3, 3), (4, 4, 2), (2, 1, 2, 2)])
    def test_equals_independent_enumeration(self, bounds):
        # called directly, the walk takes bounds above the CLI cap
        k = len(bounds) - 1
        walked = walked_multisets(k, bounds)
        expected = independent_multisets(k, bounds)
        assert len(set(walked)) == len(walked)
        assert collections.Counter(walked) == collections.Counter(expected)


K, BOUNDS = 2, (2, 2, 3)


def used_pool_entries() -> list:
    """The pool indices that some multiset of the census at BOUNDS uses."""
    pool, _ = monad._pool(K, BOUNDS)
    walked = monad._admissible_multisets(K, BOUNDS,
                                         [e.sizes() for e in pool])
    return sorted({i for indices in walked for i in indices})


class TestMassFormulaHasTeeth:
    """Every single-class fault of the census, and a wrong order of one
    pool entry, fails `verify_m_identity`, and `verify-monad` exits 1 on
    it; a dropped multiset is seen by the mass formula alone."""

    @staticmethod
    def patch_walk(monkeypatch, change):
        """Apply `change` to the top-level walk, not to the entry pools."""
        original = monad._admissible_multisets

        def walk(k, bounds, pool):
            found = list(original(k, bounds, pool))
            return change(found) if k == K else found
        monkeypatch.setattr(monad, "_admissible_multisets", walk)

    @staticmethod
    def cli_status(capsys):
        status = cli.main(["verify-monad", "--k", str(K), "--bounds",
                           ",".join(map(str, BOUNDS))])
        capsys.readouterr()
        return status

    def test_dropped_multiset(self, monkeypatch, capsys):
        count = verify_m_identity(K, BOUNDS).assembled_classes
        for i in range(count):
            with monkeypatch.context() as mp:
                self.patch_walk(mp, lambda ms: ms[:i] + ms[i + 1:])
                report = verify_m_identity(K, BOUNDS)
                assert report.assembled_classes == report.enumerated_classes
                assert report.aut_orders_match
                assert not report.mass_formula_holds and not report.passed
                if i == count - 1:
                    assert self.cli_status(capsys) == 1

    def test_repeated_multiset(self, monkeypatch, capsys):
        count = verify_m_identity(K, BOUNDS).assembled_classes
        for i in range(count):
            with monkeypatch.context() as mp:
                self.patch_walk(mp, lambda ms: ms + [ms[i]])
                report = verify_m_identity(K, BOUNDS)
                assert report.enumerated_classes == count + 1
                assert not report.mass_formula_holds and not report.passed
                if i == 0:
                    assert self.cli_status(capsys) == 1

    @staticmethod
    def patch_order(monkeypatch, key, change):
        """Apply `change` to the order the canonicalising pass gives the
        class whose canonical encoding is `key`."""
        original = monad._canonical_form

        def canonical(d):
            form, order = original(d)
            return form, (change(order) if form.encoding() == key else order)
        monkeypatch.setattr(monad, "_canonical_form", canonical)

    def test_wrong_automorphism_order(self, monkeypatch, capsys):
        # a class's order comes from the pass that canonicalises it, when
        # the class is first assembled
        rows = verify_m_identity(K, BOUNDS).rows
        for row in rows:
            with monkeypatch.context() as mp:
                self.patch_order(mp, row.encoding, lambda order: order + 1)
                report = verify_m_identity(K, BOUNDS)
                assert not report.aut_orders_match
                assert not report.mass_formula_holds and not report.passed
                if row is rows[0]:
                    assert self.cli_status(capsys) == 1

    def test_order_not_dividing_the_relabelings(self, monkeypatch, capsys):
        # an order a that does not divide P = prod |S_i|! but leaves P // a
        # as it was: only the remainder, by Lagrange zero for a true
        # order, shows it to the mass formula
        k, bounds = 1, (3, 2)
        argv = ["verify-monad", "--k", str(k),
                "--bounds", ",".join(map(str, bounds))]
        faults = []
        for row in verify_m_identity(k, bounds).rows:
            relabelings = math.prod(map(math.factorial, row.encoding[0]))
            orbit = relabelings // row.aut_order
            faults += [(row.encoding, a) for a in range(
                relabelings // (orbit + 1) + 1, row.aut_order)
                if relabelings % a]
        assert faults
        for key, wrong in faults:
            with monkeypatch.context() as mp:
                self.patch_order(mp, key, lambda order: wrong)
                report = verify_m_identity(k, bounds)
                assert not report.mass_formula_holds and not report.passed
                assert cli.main(argv) == 1
                capsys.readouterr()

    def test_wrong_entry_order(self, monkeypatch, capsys):
        # a wreath count reads each entry's order from the pool, which the
        # census of the entries gave; one entry off by one fails every
        # class assembled from it, and no class's own order
        auts = [row.aut_order for row in verify_m_identity(K, BOUNDS).rows]
        used = used_pool_entries()
        assert used
        for i in used:
            def off_by_one(k, bounds, original=monad._pool, i=i):
                pool, orders = original(k, bounds)
                if k == K:
                    orders = orders[:i] + [orders[i] + 1] + orders[i + 1:]
                return pool, orders
            with monkeypatch.context() as mp:
                mp.setattr(monad, "_pool", off_by_one)
                report = verify_m_identity(K, BOUNDS)
                assert not report.aut_orders_match and not report.passed
                assert report.mass_formula_holds
                assert [row.aut_order for row in report.rows] == auts
                if i == used[0]:
                    assert self.cli_status(capsys) == 1


class TestVerifyMonadCertifiesItsPool:
    """`verify-monad` draws its pool from `enumerate_diagrams`, and a fault
    in that census fails it: a pool class dropped, which loses the
    classes assembled from it, or a pool order off by one, which breaks
    their wreath counts.  A pool class that no bounded multiset uses
    changes nothing, so each fault is tried on every used one."""

    @staticmethod
    def faulty_census(monkeypatch, entry, fault):
        """Apply `fault` to (encodings, orders) and the position of pool
        entry `entry` in the census that gives it."""
        pool, _ = monad._pool(K, BOUNDS)
        length = pool[entry].k
        first = min(i for i, e in enumerate(pool) if e.k == length)
        original = monad.enumerate_diagrams

        def census(k, bounds):
            encodings, orders = original(k, bounds)
            if k != length:
                return encodings, orders
            return fault(list(encodings), list(orders), entry - first)
        monkeypatch.setattr(monad, "enumerate_diagrams", census)

    @staticmethod
    def drop(encodings, orders, i):
        return encodings[:i] + encodings[i + 1:], orders[:i] + orders[i + 1:]

    @staticmethod
    def off_by_one(encodings, orders, i):
        return encodings, orders[:i] + [orders[i] + 1] + orders[i + 1:]

    @pytest.mark.parametrize("fault", ["drop", "off_by_one"])
    def test_a_faulty_census_fails(self, monkeypatch, capsys, fault):
        argv = ["verify-monad", "--k", str(K),
                "--bounds", ",".join(map(str, BOUNDS))]
        assert cli.main(argv) == 0
        capsys.readouterr()
        # the empty fiber, entry 0, is no class of a census
        used = [entry for entry in used_pool_entries() if entry]
        assert used
        for entry in used:
            with monkeypatch.context() as mp:
                self.faulty_census(mp, entry, getattr(self, fault))
                assert cli.main(argv) == 1
                assert capsys.readouterr().out.rstrip().endswith(", FAIL")


# every bound tuple up to (4,) * k, for k = 1..4, the census ladders of
# the benchmark among them
TUPLES_UP_TO_4 = [bounds for k in range(1, 5)
                  for bounds in itertools.product(range(1, 5), repeat=k)]


class TestShapeCensus:
    """The census read off subtree shapes against `assembled_census`,
    which assembles every walked multiset and canonicalises it by the
    level-class pass, and against the brute census: class by class, in
    order, with the same automorphism orders."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_bound_tuple_up_to_four(self, k):
        # the classes within a bound tuple are those of the census at
        # (4,) * k whose sizes it bounds, in the same order
        encodings, orders = assembled_census(k, (4,) * k)
        for bounds in itertools.product(range(1, 5), repeat=k):
            kept = [(e, o) for e, o in zip(encodings, orders)
                    if all(map(operator.le, e[0], bounds))]
            found = enumerate_diagrams(k, bounds)
            assert list(zip(*found)) == kept, bounds

    @pytest.mark.parametrize("bounds", [
        (4, 4), (2, 2, 3), (3, 3, 3), (4, 3, 4), (2, 4, 3, 4), (3, 3, 3, 3),
        (2, 4, 4, 4), (4, 4, 4, 4)])
    def test_equals_the_assembled_census(self, bounds):
        encodings, orders = enumerate_diagrams(len(bounds), bounds)
        assert (tuple(encodings), tuple(orders)) == assembled_census(
            len(bounds), bounds)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_random_bounds(self, bounds):
        bounds = tuple(bounds)
        encodings, orders = enumerate_diagrams(len(bounds), bounds)
        assert (tuple(encodings), tuple(orders)) == assembled_census(
            len(bounds), bounds)

    def test_the_oracle_runs_no_shape_code(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the shape census ran")
        for name in ("_census", "enumerate_diagrams", "_pool"):
            monkeypatch.setattr(monad, name, refused)
        assembled_census.cache_clear()
        assert len(assembled_census(3, (2, 2, 3))[0]) == 21
