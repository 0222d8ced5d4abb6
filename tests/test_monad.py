import collections
import itertools

import pytest

from helpers import brute_automorphisms, brute_census
from motivic_kit import cli, monad
from motivic_kit.finsets import (FinDiagram, FinSet, SetMap,
                                 automorphism_group, canonical_form)
from motivic_kit.monad import (MultisetOfDiagrams, assemble,
                               enumerate_diagrams, verify_m_identity,
                               wreath_order)


def bare_set(n: int) -> FinDiagram:
    return FinDiagram([FinSet(n)], [])


EMPTY = FinDiagram([], [])


class TestAssemble:
    def test_single_entry(self):
        m = MultisetOfDiagrams(1, [bare_set(3)])
        d = assemble(m)
        assert d.sizes() == (3, 1)
        assert d.maps[0].values == (0, 0, 0)

    def test_two_singletons_give_identity(self):
        m = MultisetOfDiagrams(1, [bare_set(1), bare_set(1)])
        d = assemble(m)
        assert d.sizes() == (2, 2)
        assert d.maps[0].is_bijective()

    def test_two_and_one(self):
        m = MultisetOfDiagrams(1, [bare_set(2), bare_set(1)])
        d = assemble(m)
        assert d.sizes() == (3, 2)
        assert sorted(d.maps[0].fiber_sizes()) == [1, 2]

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError):
            MultisetOfDiagrams(1, [])

    def test_all_padded_rejected(self):
        with pytest.raises(ValueError):
            assemble(MultisetOfDiagrams(1, [EMPTY, EMPTY]))

    def test_padded_entry_gives_missed_element(self):
        m = MultisetOfDiagrams(1, [bare_set(1), EMPTY])
        d = assemble(m)
        assert d.sizes() == (1, 2)
        assert set(d.maps[0].values) != {0, 1}  # not surjective

    def test_order_insensitive(self):
        a = MultisetOfDiagrams(1, [bare_set(2), bare_set(1)])
        b = MultisetOfDiagrams(1, [bare_set(1), bare_set(2)])
        assert a == b
        assert assemble(a) == assemble(b)
        # two labellings of one class, in either order
        s2 = FinSet(2)
        d1 = FinDiagram([s2, s2], [SetMap(s2, s2, [0, 0])])
        d2 = FinDiagram([s2, s2], [SetMap(s2, s2, [1, 1])])
        assert MultisetOfDiagrams(2, [d1, d2]) == MultisetOfDiagrams(2, [d2, d1])

    def test_given_class_keys_are_one_per_entry(self):
        with pytest.raises(ValueError):
            MultisetOfDiagrams(1, [bare_set(1), bare_set(2)],
                               [(1, bare_set(1).encoding())])

    def test_respects_isomorphism(self):
        d1 = FinDiagram([FinSet(2), FinSet(2)],
                        [SetMap(FinSet(2), FinSet(2), [0, 0])])
        d2 = FinDiagram([FinSet(2), FinSet(2)],
                        [SetMap(FinSet(2), FinSet(2), [1, 1])])
        m1 = MultisetOfDiagrams(2, [d1, bare_set(1)])
        m2 = MultisetOfDiagrams(2, [d2, bare_set(1)])
        assert canonical_form(assemble(m1)) == canonical_form(assemble(m2))

    def test_k2_assembly_shapes(self):
        chain = FinDiagram([FinSet(2), FinSet(1)],
                           [SetMap(FinSet(2), FinSet(1), [0, 0])])
        m = MultisetOfDiagrams(2, [chain, bare_set(1)])
        d = assemble(m)
        # the padded 1-set entry sits only at the middle level
        assert d.sizes() == (2, 2, 2)
        assert d.k == 3


class TestCensusIdentity:
    def test_base_case_multisets_of_points(self):
        # multisets of empty diagrams assemble to bare sets
        m = MultisetOfDiagrams(0, [EMPTY, EMPTY, EMPTY])
        assert assemble(m) == FinDiagram([FinSet(3)], [])
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
        assert report.assembled_classes == len(enumerate_diagrams(2, (3, 3)))

    def test_k2(self):
        report = verify_m_identity(2, (2, 2, 2))
        assert report.passed
        assert report.assembled_classes == len(enumerate_diagrams(3, (2, 2, 2)))

    def test_specific_preimage(self):
        # the class 3 -> 2 with fibers (2, 1) comes from {2-set, 1-set}
        m = MultisetOfDiagrams(1, [bare_set(2), bare_set(1)])
        d = assemble(m)
        target = FinDiagram([FinSet(3), FinSet(2)],
                            [SetMap(FinSet(3), FinSet(2), [0, 0, 1])])
        assert canonical_form(d) == canonical_form(target)
        assert automorphism_group(d).order == 2
        assert wreath_order(m) == 2

    def test_wreath_count_repeated_entries(self):
        m = MultisetOfDiagrams(1, [bare_set(2), bare_set(2)])
        # each 2-set has Aut order 2, and the two equal entries swap
        assert wreath_order(m) == 2 * 2 * 2
        assert automorphism_group(assemble(m)).order == 8
        assert len(brute_automorphisms(assemble(m))) == 8


class TestGenerator:
    """Classes from multiset assembly against the brute census and the
    independently counted class numbers."""

    @pytest.mark.parametrize("bounds", [(4, 4), (3, 3, 3), (2, 2, 2, 2)])
    def test_equals_brute_census(self, bounds):
        reps = sorted(set(brute_census(bounds).values()),
                      key=FinDiagram.encoding)
        assert enumerate_diagrams(len(bounds), bounds) == reps

    @pytest.mark.parametrize("bounds, count", [
        ((6, 6), 126), ((3, 3, 3), 82), ((4, 4, 4), 428),
        ((3, 3, 3, 3), 525), ((5, 5, 5), 1879)])
    def test_count_ladder(self, bounds, count):
        assert len(enumerate_diagrams(len(bounds), bounds)) == count
        report = verify_m_identity(len(bounds) - 1, bounds)
        assert report.passed, report.summary()
        assert report.assembled_classes == count


def independent_multisets(k: int, bounds) -> list:
    """The bounded multisets of pool entries, by trying every multiset of
    at most bounds[k] entries and keeping those within the level bounds
    that have a full-length entry, each built the checking way."""
    pool = [EMPTY] + [d for j in range(1, k + 1)
                      for d in enumerate_diagrams(j, bounds[k - j:k])]
    found = []
    for n in range(1, bounds[k] + 1):
        for entries in itertools.combinations_with_replacement(pool, n):
            levels = [0] * k
            for e in entries:
                for i, size in enumerate(e.sizes()):
                    levels[k - e.k + i] += size
            if (all(t <= b for t, b in zip(levels, bounds))
                    and any(e.k == k for e in entries)):
                found.append(MultisetOfDiagrams(k, entries))
    return found


class TestWalk:
    """The census walk against multisets built the checking way."""

    @pytest.mark.parametrize("bounds", [(2, 2, 3), (3, 3, 3, 3)])
    def test_yields_the_checked_multiset(self, bounds):
        k = len(bounds) - 1
        walked = list(monad._admissible_multisets(k, bounds))
        assert walked
        for m in walked:
            assert all(canonical_form(e) == e for e in m.entries)
            assert m == MultisetOfDiagrams(k, m.entries)

    @pytest.mark.parametrize("bounds", [
        (5,), (2, 2), (1, 8), (8, 1), (7, 1, 2), (2, 2, 3), (1, 3, 2),
        (3, 3, 3), (4, 4, 2), (2, 1, 2, 2)])
    def test_equals_independent_enumeration(self, bounds):
        # called directly, the walk takes bounds above the CLI cap
        k = len(bounds) - 1
        walked = list(monad._admissible_multisets(k, bounds))
        expected = independent_multisets(k, bounds)
        assert len(set(walked)) == len(walked)
        assert collections.Counter(walked) == collections.Counter(expected)


K, BOUNDS = 2, (2, 2, 3)


class TestMassFormulaHasTeeth:
    """Every single-class fault of the census fails `verify_m_identity`, and
    `verify-monad` exits 1 on it; a dropped multiset is seen by the mass
    formula alone."""

    @staticmethod
    def patch_walk(monkeypatch, change):
        """Apply `change` to the top-level walk, not to the entry pools."""
        original = monad._admissible_multisets

        def walk(k, bounds):
            found = list(original(k, bounds))
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

    def test_wrong_automorphism_order(self, monkeypatch, capsys):
        # a class's order is computed from the canonicalising pass's level
        # classes, on the canonical form, when the class is first assembled
        rows = verify_m_identity(K, BOUNDS).rows
        for row in rows:
            def off_by_one(d, classes, original=monad._forest_order,
                           key=row.encoding):
                order = original(d, classes)
                if d.encoding() != key:
                    return order
                return order + 1
            with monkeypatch.context() as mp:
                mp.setattr(monad, "_forest_order", off_by_one)
                report = verify_m_identity(K, BOUNDS)
                assert not report.aut_orders_match
                assert not report.mass_formula_holds and not report.passed
                if row is rows[0]:
                    assert self.cli_status(capsys) == 1
