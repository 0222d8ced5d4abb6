import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (comonoid_structures, dense_coalgebra_violations,
                     dense_comonoid_failures, dense_monoid_failures, qmatrices,
                     random_qmatrix, swap_matrix, tuple_index_matrix)
from motivic_kit.artin import (ArtinComonoid, ArtinMonoid, CoalgMorphism,
                               artin_comonoid, artin_monoid,
                               coalgebra_morphism_violations,
                               comult_matrix, dual_monoid, dualize,
                               graph_matrix, is_coalgebra_morphism,
                               monoid_morphism_violations,
                               morphism_from_setmap, setmap_from_morphism,
                               solve_coalgebra_morphisms, tensor_map_matrix,
                               verify_mcffe)
from motivic_kit.finsets import FinSet, SetMap, all_maps, compose
from motivic_kit.qlinalg import QMatrix, kron, matmul


class TestTensorIndexMap:
    """`tensor_index_map` against tuples numbered by itertools.product."""

    def test_every_permutation(self):
        for n in range(1, 4):
            for s in range(4):
                for perm in itertools.permutations(range(s)):
                    assert tensor_map_matrix(n, perm, s) == \
                        tuple_index_matrix(n, perm, s), (n, perm)

    def test_every_factor_map(self):
        for n in range(1, 4):
            for t in range(4):
                for s in range(4):
                    for factors in itertools.product(range(t), repeat=s):
                        assert tensor_map_matrix(n, factors, t) == \
                            tuple_index_matrix(n, factors, t), (n, factors)

    def test_structure_matrices(self):
        for n in range(1, 4):
            assert swap_matrix(n) == tuple_index_matrix(n, (1, 0), 2)
            assert comult_matrix(n) == tuple_index_matrix(n, (0, 0), 1)


class TestCanonicalStructures:
    def test_size_one(self):
        c = artin_comonoid(FinSet(1))
        assert c.counit == QMatrix(1, 1, [1])
        assert c.comult == QMatrix(1, 1, [1])

    def test_size_two_comult_rows(self):
        c = artin_comonoid(FinSet(2))
        expected = QMatrix(4, 2, [1, 0,
                                  0, 0,
                                  0, 0,
                                  0, 1])
        assert c.comult == expected
        assert c.counit == QMatrix(1, 2, [1, 1])

    def test_axioms_up_to_five(self):
        # constructing checks them, but assert the identities explicitly
        for n in range(1, 6):
            c = artin_comonoid(FinSet(n))
            ident = QMatrix.identity(n)
            assert matmul(kron(c.counit, ident), c.comult) == ident
            assert matmul(kron(ident, c.counit), c.comult) == ident
            assert matmul(kron(c.comult, ident), c.comult) == \
                matmul(kron(ident, c.comult), c.comult)
            assert matmul(swap_matrix(n), c.comult) == c.comult

    def test_monoid_axioms_up_to_five(self):
        for n in range(1, 6):
            m = artin_monoid(FinSet(n))
            ident = QMatrix.identity(n)
            assert matmul(m.mult, kron(m.unit, ident)) == ident
            assert matmul(m.mult, kron(ident, m.unit)) == ident
            assert matmul(m.mult, swap_matrix(n)) == m.mult

    def test_invalid_structure_rejected(self):
        bad_counit = QMatrix(1, 2, [1, 0])
        with pytest.raises(ValueError):
            ArtinComonoid(FinSet(2), bad_counit,
                          artin_comonoid(FinSet(2)).comult)

    def test_duality_round_trip(self):
        # transposing the dual monoid's structure maps gives C_*X back
        c = artin_comonoid(FinSet(3))
        m = dual_monoid(c)
        assert ArtinComonoid(m.carrier, m.unit.transpose(),
                             m.mult.transpose()) == c

    def test_non_canonical_structure_accepted(self):
        # conjugate the canonical structure by an invertible change of
        # basis; the axioms survive, so the checker must accept it
        c = artin_comonoid(FinSet(2))
        a = QMatrix(2, 2, [1, 1, 0, 1])
        a_inv = QMatrix(2, 2, [1, -1, 0, 1])
        counit = matmul(c.counit, a_inv)
        comult = matmul(matmul(kron(a, a), c.comult), a_inv)
        twisted = ArtinComonoid(FinSet(2), counit, comult)
        assert twisted.counit != c.counit
        # the conjugating matrix carries the canonical structure over
        assert is_coalgebra_morphism(a, c, twisted)
        # and the checker takes the dense path, the only valid one here
        assert c._canonical and not twisted._canonical
        m = QMatrix(2, 2, [1, 0, 0, 1])
        assert (coalgebra_morphism_violations(m, c, twisted)
                == dense_coalgebra_violations(m, c, twisted) != [])


def comult_from_terms(n: int, delta) -> QMatrix:
    """The comultiplication with Delta(x) = sum of v (a, b) over the items
    ((a, b), v) of delta[x]; row (a, b) is numbered a * n + b."""
    entries = [0] * (n * n * n)
    for x, terms in enumerate(delta):
        for (a, b), v in terms.items():
            entries[(a * n + b) * n + x] = v
    return QMatrix(n * n, n, entries)


def construction_failure(cls, *args):
    """The message the constructor raises, or None when it accepts."""
    try:
        cls(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestAxiomChecker:
    """The term-wise axiom check against the dense Kronecker products."""

    @settings(max_examples=300, deadline=None)
    @given(comonoid_structures())
    def test_comonoid_matches_dense_oracle(self, case):
        n, counit, comult = case
        failures = dense_comonoid_failures(counit, comult)
        assert construction_failure(ArtinComonoid, FinSet(n), counit,
                                    comult) == (failures or [None])[0]
        if not failures:
            canonical = (counit == QMatrix(1, n, [1] * n)
                         and comult == tuple_index_matrix(n, (0, 0), 1))
            assert ArtinComonoid(FinSet(n), counit,
                                 comult)._canonical == canonical

    @settings(max_examples=150, deadline=None)
    @given(comonoid_structures())
    def test_monoid_matches_dense_oracle(self, case):
        n, counit, comult = case
        unit, mult = counit.transpose(), comult.transpose()
        failures = dense_monoid_failures(unit, mult)
        assert construction_failure(ArtinMonoid, FinSet(n), unit,
                                    mult) == (failures or [None])[0]

    @pytest.mark.parametrize("n,counit,delta,message", [
        # every comultiplication entry -1
        (2, (1, 0), [{(a, b): -1 for a in range(2) for b in range(2)}] * 2,
         "counitality fails on the left"),
        # entries (1, 0, 0, 1, -1, -1, -1, -1): the left law holds
        (2, (1, 0), [{(0, 0): 1, (1, 0): -1, (1, 1): -1},
                     {(0, 1): 1, (1, 0): -1, (1, 1): -1}],
         "counitality fails on the right"),
        (3, (1, 0, 0), [{(0, 0): 1}, {(0, 1): 1, (1, 0): 1},
                        {(0, 2): 1, (2, 0): 1, (1, 2): 1, (2, 1): 1}],
         "coassociativity fails"),
        # the dual of the 2 x 2 matrix algebra, e_ij numbered 2i + j:
        # Delta(e_ij) = sum_k e_ik (x) e_kj, eps(e_ij) = delta_ij
        (4, (1, 0, 0, 1), [{(2 * i + k, 2 * k + j): 1 for k in range(2)}
                           for i in range(2) for j in range(2)],
         "cocommutativity fails"),
    ], ids=["left-counit", "right-counit", "coassociativity",
            "cocommutativity"])
    def test_each_axiom_fails_first_by_hand(self, n, counit, delta, message):
        counit = QMatrix(1, n, counit)
        comult = comult_from_terms(n, delta)
        failures = dense_comonoid_failures(counit, comult)
        assert failures[0] == message
        if message == "cocommutativity fails":
            assert failures == [message]
        assert construction_failure(ArtinComonoid, FinSet(n), counit,
                                    comult) == message


class TestMorphismChecking:
    def test_graph_passes(self):
        for f in all_maps(FinSet(3), FinSet(2)):
            x = artin_comonoid(f.dom)
            y = artin_comonoid(f.cod)
            assert is_coalgebra_morphism(graph_matrix(f), x, y)

    def test_uniform_half_matrix_fails_delta1(self):
        x = artin_comonoid(FinSet(2))
        y = artin_comonoid(FinSet(2))
        m = QMatrix(2, 2, [Fraction(1, 2)] * 4)
        violations = coalgebra_morphism_violations(m, x, y)
        assert "(delta1)" in violations
        assert "(eps)" not in violations  # columns do sum to 1

    def test_zero_matrix_fails_eps(self):
        x = artin_comonoid(FinSet(2))
        y = artin_comonoid(FinSet(2))
        violations = coalgebra_morphism_violations(QMatrix.zeros(2, 2), x, y)
        assert "(eps)" in violations

    def test_shape_mismatch(self):
        x = artin_comonoid(FinSet(2))
        y = artin_comonoid(FinSet(3))
        with pytest.raises(ValueError):
            coalgebra_morphism_violations(QMatrix.zeros(2, 3), x, y)

    @settings(max_examples=400, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda s: st.tuples(st.just(s), st.one_of(
            qmatrices(s[1], s[0]),
            qmatrices(s[1], s[0], st.sampled_from([Fraction(0), Fraction(1)])),
            st.sampled_from([graph_matrix(f) for f in
                             all_maps(FinSet(s[0]), FinSet(s[1]))])))))
    def test_entrywise_matches_dense_on_canonical(self, case):
        (nx, ny), c = case
        x = artin_comonoid(FinSet(nx))
        y = artin_comonoid(FinSet(ny))
        assert x._canonical and y._canonical
        assert (coalgebra_morphism_violations(c, x, y)
                == dense_coalgebra_violations(c, x, y))


class TestSolver:
    @pytest.mark.parametrize("nx,ny,expected", [
        (1, 1, 1), (2, 3, 9), (3, 2, 8), (3, 3, 27),
    ])
    def test_counts(self, nx, ny, expected):
        assert len(solve_coalgebra_morphisms(FinSet(nx), FinSet(ny))) == expected

    def test_completeness_against_zero_one_brute_force(self):
        # the solver must agree with filtering all {0,1} matrices
        for nx in range(1, 4):
            for ny in range(1, 4):
                x = artin_comonoid(FinSet(nx))
                y = artin_comonoid(FinSet(ny))
                brute = set()
                for bits in itertools.product((0, 1), repeat=nx * ny):
                    m = QMatrix(ny, nx, bits)
                    if is_coalgebra_morphism(m, x, y):
                        brute.add(m)
                solved = {c.matrix
                          for c in solve_coalgebra_morphisms(FinSet(nx),
                                                             FinSet(ny))}
                assert solved == brute

    def test_outputs_verified(self):
        for c in solve_coalgebra_morphisms(FinSet(2), FinSet(3)):
            assert is_coalgebra_morphism(c.matrix, c.source, c.target)


class TestGraphBijection:
    def test_identity(self):
        f = SetMap(FinSet(2), FinSet(2), [0, 1])
        assert morphism_from_setmap(f).matrix == QMatrix.identity(2)

    def test_constant_to_point(self):
        f = SetMap(FinSet(3), FinSet(1), [0, 0, 0])
        assert morphism_from_setmap(f).matrix == QMatrix(1, 3, [1, 1, 1])

    def test_round_trip_exhaustive(self):
        for nx in range(1, 4):
            for ny in range(1, 4):
                for f in all_maps(FinSet(nx), FinSet(ny)):
                    assert setmap_from_morphism(morphism_from_setmap(f)) == f

    def test_non_graph_rejected(self):
        # a valid morphism whose matrix is not a graph: average of two graphs
        class NotAGraph:
            matrix = QMatrix(2, 1, [Fraction(1, 2), Fraction(1, 2)])
            source = artin_comonoid(FinSet(1))
            target = artin_comonoid(FinSet(2))
        with pytest.raises(ValueError):
            setmap_from_morphism(NotAGraph())

    def test_functoriality(self):
        x, y, z = FinSet(2), FinSet(3), FinSet(2)
        for f in all_maps(x, y):
            for g in all_maps(y, z):
                left = morphism_from_setmap(compose(f, g)).matrix
                right = matmul(morphism_from_setmap(g).matrix,
                               morphism_from_setmap(f).matrix)
                assert left == right

    def test_injective_into_solver_output(self):
        solved = {c.matrix
                  for c in solve_coalgebra_morphisms(FinSet(3), FinSet(2))}
        graphs = [morphism_from_setmap(f).matrix
                  for f in all_maps(FinSet(3), FinSet(2))]
        assert len(set(graphs)) == len(graphs)
        assert set(graphs) == solved


class TestDuality:
    def test_transpose_of_identity(self):
        x = artin_comonoid(FinSet(2))
        c = CoalgMorphism(QMatrix.identity(2), x, x)
        check = dualize(c)
        assert not check.violations
        assert check.matrix == QMatrix.identity(2)

    def test_double_transpose(self):
        f = SetMap(FinSet(3), FinSet(2), [0, 1, 1])
        c = morphism_from_setmap(f)
        assert dualize(c).matrix.transpose() == c.matrix

    def test_solver_outputs_dualize(self):
        for nx in range(1, 4):
            for ny in range(1, 4):
                for c in solve_coalgebra_morphisms(FinSet(nx), FinSet(ny)):
                    assert not dualize(c).violations

    def test_equivalence_on_random_matrices(self):
        rng = random.Random(41)
        x = artin_comonoid(FinSet(2))
        y = artin_comonoid(FinSet(3))
        mx = dual_monoid(x)
        my = dual_monoid(y)
        graphs = [graph_matrix(f) for f in all_maps(FinSet(2), FinSet(3))]
        for i in range(100):
            if i % 10 == 0:
                m = graphs[(i // 10) % len(graphs)]
            else:
                m = random_qmatrix(rng, 3, 2, num_bound=2, den_bound=2)
            co = not coalgebra_morphism_violations(m, x, y)
            mo = not monoid_morphism_violations(m.transpose(), my, mx)
            assert co == mo

    def test_non_graph_transposed_fails(self):
        my = dual_monoid(artin_comonoid(FinSet(2)))
        mx = dual_monoid(artin_comonoid(FinSet(2)))
        m = QMatrix(2, 2, [Fraction(1, 2)] * 4)
        violations = monoid_morphism_violations(m.transpose(), my, mx)
        assert "(mu1)" in violations


class TestVerifyMcffe:
    @pytest.mark.parametrize("nx,ny", [(2, 2), (1, 4), (3, 3)])
    def test_reports_pass(self, nx, ny):
        report = verify_mcffe(FinSet(nx), FinSet(ny))
        assert report.passed
        assert report.morphism_count == ny ** nx

    def test_identity_is_monoid_morphism(self):
        m = artin_monoid(FinSet(2))
        assert not monoid_morphism_violations(QMatrix.identity(2), m, m)
