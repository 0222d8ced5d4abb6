import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import qmatrices, random_qmatrix, tuple_index_matrix
from motivic_kit.artin import (graph_matrix, solve_coalgebra_morphisms,
                               tensor_map_matrix)
from motivic_kit import resolution
from motivic_kit.finsets import FinSet, all_maps
from motivic_kit.qlinalg import (QMatrix, kernel_basis, matmul,
                                 tensor_index_map)
from motivic_kit.resolution import (codegeneracy_level1,
                                    codegeneracy_level2_s0,
                                    codegeneracy_level2_s1, coface_d0,
                                    coface_d1, cofaces_agree, equalizer,
                                    iterated_mult, level, level1_classes,
                                    level2_classes,
                                    level2_coface_d0, level2_coface_d1,
                                    level2_coface_d2, mult_along,
                                    verify_mdffe)


def transposed_graph(f) -> QMatrix:
    """One-1-per-row matrix of a map, the shape the tower equalizes."""
    return graph_matrix(f).transpose()


class TestMultAlong:
    def test_unary_is_identity(self):
        for n in range(1, 4):
            assert iterated_mult(n, 1) == QMatrix.identity(n)

    def test_nullary_is_unit_column(self):
        for n in range(1, 4):
            assert iterated_mult(n, 0) == QMatrix(n, 1, [1] * n)

    def test_binary_hand_value(self):
        m = iterated_mult(2, 2)
        assert m == QMatrix(2, 4, [1, 0, 0, 0,
                                   0, 0, 0, 1])

    def test_against_tuple_oracle(self):
        # mult_along transposes the diagonal X^(x)t -> X^(x)s that copies
        # factor b of the target into every position of fiber b
        for t in range(4):
            for fibers in itertools.product(range(3), repeat=t):
                factors = [b for b, size in enumerate(fibers)
                           for _ in range(size)]
                for n in range(4):
                    oracle = tuple_index_matrix(n, factors, t).transpose()
                    assert mult_along(n, fibers) == oracle, (n, fibers)

    def test_associativity(self):
        # multiplying along fibers then collapsing equals collapsing at once
        n = 2
        for fibers in [(1, 1), (2, 1), (0, 2)]:
            t = len(fibers)
            s = sum(fibers)
            left = matmul(iterated_mult(n, t), mult_along(n, fibers))
            assert left == iterated_mult(n, s)


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
        expected = QMatrix(3, 1, [sum(f.row(i), Fraction(0))
                                  for i in range(3)])
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

    def test_scaled_graph_fails_binary(self):
        f = next(iter(all_maps(FinSet(2), FinSet(2))))
        m = matmul(transposed_graph(f), QMatrix(2, 2, [2, 0, 0, 2]))
        assert coface_d0(m, 2) != coface_d1(m, 2)

    def test_outputs_are_aut_fixed(self):
        rng = random.Random(7)
        f = random_qmatrix(rng, 2, 3)
        for s in (2, 3):
            for perm in itertools.permutations(range(s)):
                p = tensor_map_matrix(3, perm, s)
                assert matmul(coface_d0(f, s), p) == coface_d0(f, s)
                assert matmul(coface_d1(f, s), p) == coface_d1(f, s)


def random_level1_family(rng, nx, ny, bound):
    return {s: random_qmatrix(rng, ny, nx ** s, num_bound=3, den_bound=2)
            for s in level1_classes(bound)}


class TestCosimplicialIdentities:
    def test_coface_identities_level0_to_2(self):
        rng = random.Random(11)
        nx, ny = 2, 2
        f = random_qmatrix(rng, ny, nx)
        d0f = {s: coface_d0(f, s) for s in level1_classes(2)}
        d1f = {s: coface_d1(f, s) for s in level1_classes(2)}
        for c in level2_classes(2):
            # d1 d0 = d0 d0
            assert level2_coface_d1(d0f, c) == level2_coface_d0(d0f, c, ny)
            # d2 d0 = d0 d1
            assert level2_coface_d2(d0f, c, nx) == level2_coface_d0(d1f, c, ny)
            # d2 d1 = d1 d1
            assert level2_coface_d2(d1f, c, nx) == level2_coface_d1(d1f, c)

    def test_codegeneracy_level1(self):
        rng = random.Random(13)
        f = random_qmatrix(rng, 3, 2)
        assert codegeneracy_level1({s: coface_d0(f, s)
                                    for s in level1_classes(2)}) == f
        assert codegeneracy_level1({s: coface_d1(f, s)
                                    for s in level1_classes(2)}) == f

    def test_codegeneracy_level2(self):
        rng = random.Random(17)
        nx, ny, bound = 2, 3, 2
        fam = random_level1_family(rng, nx, ny, bound)
        for s in level1_classes(bound):
            d0fam = {c: level2_coface_d0(fam, c, ny)
                     for c in level2_classes(bound)}
            d1fam = {c: level2_coface_d1(fam, c)
                     for c in level2_classes(bound)}
            d2fam = {c: level2_coface_d2(fam, c, nx)
                     for c in level2_classes(bound)}
            # s0 evaluates at the collapse chain: s0 d0 = s0 d1 = id
            assert codegeneracy_level2_s0(d0fam, s) == fam[s]
            assert codegeneracy_level2_s0(d1fam, s) == fam[s]
            # s0 d2 = d1 s0
            assert codegeneracy_level2_s0(d2fam, s) == \
                coface_d1(codegeneracy_level1(fam), s)
            # s1 evaluates at the identity chain: s1 d1 = s1 d2 = id
            assert codegeneracy_level2_s1(d1fam, s) == fam[s]
            assert codegeneracy_level2_s1(d2fam, s) == fam[s]
            # s1 d0 = d0 s0
            assert codegeneracy_level2_s1(d0fam, s) == \
                coface_d0(codegeneracy_level1(fam), s)


class TestTowerLevels:
    def test_level0_full_space(self):
        t = level(0, FinSet(2), FinSet(3), 2)
        assert len(t.components[()]) == 6

    def test_level0_one_by_one_is_one_free_parameter(self):
        t = level(0, FinSet(1), FinSet(1), 2)
        assert len(t.components[()]) == 1
        assert t.components[()][0] == QMatrix(1, 1, [1])

    def test_level1_swap_fixed_dimension(self):
        # at the 2-set class with |X| = 2, columns 01 and 10 merge
        t = level(1, FinSet(2), FinSet(3), 2)
        assert len(t.components[2]) == 3 * 3
        assert len(t.components[1]) == 3 * 2
        assert len(t.components[0]) == 3 * 1

    def test_level1_basis_is_fixed(self):
        t = level(1, FinSet(2), FinSet(2), 3)
        for s in (2, 3):
            for perm in itertools.permutations(range(s)):
                p = tensor_map_matrix(2, perm, s)
                for b in t.components[s]:
                    assert matmul(b, p) == b

    def test_level2_classes_and_shapes(self):
        t = level(2, FinSet(2), FinSet(2), 2)
        assert () in t.components
        assert (2,) in t.components and (1, 1) in t.components
        for fibers, basis in t.components.items():
            for b in basis:
                assert b.rows == 2 and b.cols == 2 ** sum(fibers)

    def test_fixed_dimension_against_kernel_oracle(self):
        # dimension of the swap-fixed space via an explicit linear system
        nx, ny, s = 2, 3, 2
        t = level(1, FinSet(nx), FinSet(ny), 2)
        swap_cols = tensor_index_map(nx, (1, 0), s)
        ncols = nx ** s
        rows = []
        for y in range(ny):
            for c in range(ncols):
                row = [0] * (ny * ncols)
                row[y * ncols + c] += 1
                row[y * ncols + swap_cols[c]] -= 1
                rows.append(row)
        constraint = QMatrix(len(rows), ny * ncols,
                             [v for r in rows for v in r])
        assert kernel_basis(constraint).cols == len(t.components[2])

    def test_groupoid_limit_equals_fixed_points(self):
        # two isomorphic objects with all isos between them: the family
        # space has the dimension of one fixed-point component
        nx, ny, s = 2, 2, 2
        ncols = nx ** s
        nvars = 2 * ny * ncols  # one matrix per object
        rows = []
        for perm in itertools.permutations(range(s)):
            cols = tensor_index_map(nx, perm, s)
            # compatibility f_B[y, sigma(c)] = f_A[y, c] for iso A -> B
            for y in range(ny):
                for c in range(ncols):
                    row = [0] * nvars
                    row[ny * ncols + y * ncols + cols[c]] += 1
                    row[y * ncols + c] -= 1
                    rows.append(row)
        constraint = QMatrix(len(rows), nvars, [v for r in rows for v in r])
        t = level(1, FinSet(nx), FinSet(ny), 2)
        assert kernel_basis(constraint).cols == len(t.components[s])

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            level(1, FinSet(2), FinSet(2), 1)


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

    def test_bound_three_stable(self):
        for nx in range(1, 4):
            for ny in range(1, 4):
                x, y = FinSet(nx), FinSet(ny)
                assert equalizer(x, y, 2) == equalizer(x, y, 3)

    def test_unit_condition_is_needed(self):
        # without the empty-power class, the zero matrix sneaks through
        z = QMatrix.zeros(2, 1)
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
