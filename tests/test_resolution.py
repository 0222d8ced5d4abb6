import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_maps, coface_d0, coface_d1, dense_rows, graph,
                     identity_matrix, iterated_mult, qmatrices, random_qmatrix,
                     tuple_index_matrix, whole_matrix_equalizer, zero_matrix)
from motivic_kit.artin import solve_coalgebra_morphisms
from motivic_kit import resolution
from motivic_kit.finsets import FinSet
from motivic_kit.qlinalg import QMatrix, matmul
from motivic_kit.resolution import cofaces_agree, equalizer, verify_mdffe


def transposed_graph(f) -> QMatrix:
    """One-1-per-row matrix of a map, the shape the tower equalizes."""
    return graph(f).transpose()


class TestIteratedMult:
    """The multiplication the dense cofaces of `tests/helpers` build on."""

    def test_unary_is_identity(self):
        for n in range(1, 4):
            assert iterated_mult(n, 1) == identity_matrix(n)

    def test_nullary_is_unit_column(self):
        for n in range(1, 4):
            assert iterated_mult(n, 0) == QMatrix(n, 1, [1] * n)

    def test_binary_hand_value(self):
        m = iterated_mult(2, 2)
        assert m == QMatrix(2, 4, [1, 0, 0, 0,
                                   0, 0, 0, 1])


class TestCofaces:
    def test_point_class_returns_f(self):
        rng = random.Random(3)
        f = random_qmatrix(rng, 3, 2)
        assert coface_d0(f, 1) == f
        assert coface_d1(f, 1) == f

    def test_unit_class(self):
        rng = random.Random(5)
        f = random_qmatrix(rng, 3, 2)
        assert coface_d0(f, 0) == QMatrix(3, 1, [1, 1, 1])
        # d1 at the empty power is the row-sum column
        expected = QMatrix(3, 1, [sum(row, Fraction(0))
                                  for row in dense_rows(f)])
        assert coface_d1(f, 0) == expected

    def test_transposed_graphs_are_multiplicative(self):
        for f in all_maps(FinSet(3), FinSet(2)):
            m = transposed_graph(f)  # one 1 per row
            for s in (0, 1, 2, 3):
                assert coface_d0(m, s) == coface_d1(m, s)

    def test_entrywise_agreement_on_every_candidate(self):
        for ny in range(1, 4):
            for nx in range(1, 4):
                for choice in itertools.product(range(nx), repeat=ny):
                    f = QMatrix(ny, nx, [1 if col == c else 0
                                         for c in choice
                                         for col in range(nx)])
                    for s in range(4):
                        assert cofaces_agree(f, s) is (
                            coface_d0(f, s) == coface_d1(f, s))

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda s: qmatrices(*s)), st.integers(0, 3))
    def test_entrywise_agreement_on_random_matrices(self, f, s):
        assert cofaces_agree(f, s) is (coface_d0(f, s) == coface_d1(f, s))

    def test_a_row_summing_to_one_can_fail_a_higher_class(self):
        # the refusal at s >= 1, which no command reaches: class 0 keeps
        # only the one-hot rows of the equalizer, and those pass every class
        f = QMatrix(1, 2, ["1/2", "1/2"])
        assert cofaces_agree(f, 0) and cofaces_agree(f, 1)
        assert not cofaces_agree(f, 2)
        assert coface_d0(f, 2) != coface_d1(f, 2)

    def test_scaled_graph_fails_binary(self):
        f = next(iter(all_maps(FinSet(2), FinSet(2))))
        m = matmul(transposed_graph(f), QMatrix(2, 2, [2, 0, 0, 2]))
        assert coface_d0(m, 2) != coface_d1(m, 2)

    def test_outputs_are_aut_fixed(self):
        rng = random.Random(7)
        f = random_qmatrix(rng, 2, 3)
        for s in (2, 3):
            for perm in itertools.permutations(range(s)):
                p = tuple_index_matrix(3, perm, s)
                assert matmul(coface_d0(f, s), p) == coface_d0(f, s)
                assert matmul(coface_d1(f, s), p) == coface_d1(f, s)


class TestEqualizer:
    def test_two_two(self):
        out = equalizer(FinSet(2), FinSet(2))
        assert len(out) == 4
        expected = {transposed_graph(f)
                    for f in all_maps(FinSet(2), FinSet(2))}
        assert set(out) == expected

    def test_counts(self):
        # one choice per row of the |y| x |x| matrix
        assert len(equalizer(FinSet(2), FinSet(3))) == 2 ** 3
        assert len(equalizer(FinSet(3), FinSet(1))) == 3

    def test_complete_over_zero_one_matrices(self):
        for nx in range(1, 4):
            for ny in range(1, 4):
                x, y = FinSet(nx), FinSet(ny)
                brute = []
                for bits in itertools.product((0, 1), repeat=nx * ny):
                    m = QMatrix(ny, nx, bits)
                    if all(coface_d0(m, s) == coface_d1(m, s)
                           for s in (0, 1, 2)):
                        brute.append(m)
                assert sorted(brute, key=lambda m: m.entries) == \
                    sorted(equalizer(x, y), key=lambda m: m.entries)

    @pytest.mark.parametrize("bound", [2, 3])
    def test_rows_match_whole_matrices(self, bound):
        # the product of the row solutions is the whole-matrix equalizer,
        # sorted by terms
        for nx in range(1, 5):
            for ny in range(1, 5):
                x, y = FinSet(nx), FinSet(ny)
                assert equalizer(x, y, bound) == sorted(
                    whole_matrix_equalizer(x, y, bound),
                    key=lambda m: m.terms), (nx, ny)

    def test_the_row_check_rejects_rows(self, monkeypatch):
        # the candidates are all of {0, 1}^|X|: the check, not the search,
        # keeps the one-hot rows and refuses the zero row and a row with
        # two 1s
        agree, verdicts = resolution.cofaces_agree, {}

        def recording(f, s):
            ok = agree(f, s)
            row = f.entries
            verdicts[row] = verdicts.get(row, True) and ok
            return ok
        monkeypatch.setattr(resolution, "cofaces_agree", recording)
        out = equalizer(FinSet(3), FinSet(2))
        assert len(out) == 3 ** 2
        assert set(verdicts) == set(itertools.product((0, 1), repeat=3))
        assert {row for row, ok in verdicts.items() if ok} == {
            (1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert verdicts[0, 0, 0] is False
        assert verdicts[1, 1, 0] is False

    def test_bound_three_stable(self):
        for nx in range(1, 4):
            for ny in range(1, 4):
                x, y = FinSet(nx), FinSet(ny)
                assert equalizer(x, y, 2) == equalizer(x, y, 3)

    def test_unit_condition_is_needed(self):
        # without the empty-power class, the zero matrix sneaks through
        z = zero_matrix(2, 1)
        assert coface_d0(z, 2) == coface_d1(z, 2)
        assert coface_d0(z, 1) == coface_d1(z, 1)
        assert coface_d0(z, 0) != coface_d1(z, 0)

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            equalizer(FinSet(2), FinSet(2), 1)


class TestVerifyMdffe:
    @pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (3, 2), (3, 3)])
    def test_counts(self, nx, ny):
        report = verify_mdffe(FinSet(nx), FinSet(ny))
        assert report.passed
        assert report.equalizer_count == ny ** nx

    def test_recheck_applies_the_next_class(self, monkeypatch):
        # one candidate that fails only the class bound + 1 = 3 leaves the
        # recheck, and the report fails
        agree, rejected = resolution.cofaces_agree, []

        def reject_one_at_three(f, s):
            if s == 3 and not rejected:
                rejected.append(f)
                return False
            return agree(f, s)
        monkeypatch.setattr(resolution, "cofaces_agree", reject_one_at_three)
        report = verify_mdffe(FinSet(2), FinSet(3), bound=2)
        assert len(rejected) == 1
        assert not report.passed
        assert report.equalizer_count == 9
        assert report.recheck_count == report.equalizer_count - 1

    def test_equalizer_matches_transposed_solver(self):
        x, y = FinSet(2), FinSet(3)
        eq = {m for m in equalizer(y, x)}
        transposed = {c.matrix.transpose()
                      for c in solve_coalgebra_morphisms(x, y)}
        assert eq == transposed
