import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (MAP_SPACES, all_maps, canonical_structure, compose,
                     dense_coalgebra_violations, dense_comonoid_failures,
                     dual_structure, graph, identity_matrix, kron_power,
                     monoid_morphism_violations, morphism_from_setmap,
                     qmatrices, random_qmatrix, schoolbook_kron,
                     tuple_index_matrix, zero_matrix)
from motivic_kit.artin import (CoalgMorphism, coalgebra_morphism_violations,
                               setmap_from_morphism,
                               solve_coalgebra_morphisms, verify_mcffe)
from motivic_kit.finsets import FinSet, SetMap
from motivic_kit.qlinalg import QMatrix, matmul


def factor_maps(t: int, s: int):
    """Every map from s target positions to t source factors."""
    return itertools.product(range(t), repeat=s)


class TestFactorMaps:
    """The matrices of factor maps X^(x)t -> X^(x)s: a contravariant functor
    into comonoid morphisms, the tensor powers of X being the sets X^t."""

    def test_kron_of_graphs_is_the_product_map(self):
        # the dense oracles' Kronecker product flattens pairs as
        # `tuple_index_matrix` numbers them: graph(f) (x) graph(g) is a
        # graph whose two factor projections are f and g
        for n in range(1, 4):
            x, square = FinSet(n), FinSet(n * n)
            first = tuple_index_matrix(n, (0,), 2)
            second = tuple_index_matrix(n, (1,), 2)
            graphs = [graph(f) for f in all_maps(x, x)]
            for a, b in itertools.product(graphs, repeat=2):
                k = schoolbook_kron(a, b)
                assert coalgebra_morphism_violations(k, square, square) == []
                assert matmul(first, k) == matmul(a, first)
                assert matmul(second, k) == matmul(b, second)

    def test_identity_map_gives_identity_matrix(self):
        for n in range(1, 4):
            for t in range(4):
                assert tuple_index_matrix(n, tuple(range(t)), t) == \
                    identity_matrix(n ** t)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_composition_is_contravariant(self, n):
        # (x_sigma)_tau = x_(sigma o tau), so M(sigma o tau) = M(tau) M(sigma)
        for t, s, r in itertools.product(range(3), repeat=3):
            for sigma in factor_maps(t, s):
                for tau in factor_maps(s, r):
                    composite = tuple(sigma[j] for j in tau)
                    assert tuple_index_matrix(n, composite, t) == matmul(
                        tuple_index_matrix(n, tau, s),
                        tuple_index_matrix(n, sigma, t)), (sigma, tau)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factor_maps_are_comonoid_morphisms(self, n):
        for t in range(4):
            for s in range(4):
                x, y = FinSet(n ** t), FinSet(n ** s)
                source = list(itertools.product(range(n), repeat=t))
                target = list(itertools.product(range(n), repeat=s))
                for factors in factor_maps(t, s):
                    m = CoalgMorphism(tuple_index_matrix(n, factors, t), x, y)
                    f = setmap_from_morphism(m)
                    assert [target[v] for v in f.values] == \
                        [tuple(xs[j] for j in factors) for xs in source]
                    if sorted(factors) == list(range(t)):
                        assert f.is_bijective()

    @pytest.mark.parametrize("n, s", itertools.product((1, 2, 3), range(4)))
    def test_tensor_power_of_canonical_is_canonical(self, n, s):
        # eps^(x)s is eps on X^s; Delta^(x)s, with the factors shuffled from
        # (a_1, b_1, ..., a_s, b_s) to (a_1, ..., a_s, b_1, ..., b_s), is
        # Delta on X^s
        counit, comult = canonical_structure(n)
        power_counit, power_comult = canonical_structure(n ** s)
        assert kron_power(counit, s) == power_counit
        shuffle = tuple_index_matrix(
            n, [2 * i for i in range(s)] + [2 * i + 1 for i in range(s)],
            2 * s)
        assert matmul(shuffle, kron_power(comult, s)) == power_comult


class TestCanonicalStructures:
    """The dense counit and comultiplication the oracles build, and the
    certificate that they form a comonoid: the derivation of the entrywise
    check in `artin`'s docstring starts from these axioms."""

    def test_size_one(self):
        assert canonical_structure(1) == (QMatrix(1, 1, [1]),
                                          QMatrix(1, 1, [1]))

    def test_size_two_comult_rows(self):
        counit, comult = canonical_structure(2)
        assert comult == QMatrix(4, 2, [1, 0,
                                        0, 0,
                                        0, 0,
                                        0, 1])
        assert counit == QMatrix(1, 2, [1, 1])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dense_structure_is_a_comonoid(self, n):
        assert dense_comonoid_failures(*canonical_structure(n)) == []


def comult_from_terms(n: int, delta) -> QMatrix:
    """The comultiplication with Delta(x) = sum of v (a, b) over the items
    ((a, b), v) of delta[x]; row (a, b) is numbered a * n + b."""
    entries = [0] * (n * n * n)
    for x, terms in enumerate(delta):
        for (a, b), v in terms.items():
            entries[(a * n + b) * n + x] = v
    return QMatrix(n * n, n, entries)


class TestDenseAxiomOracle:
    """The dense axiom check names each axiom that a structure made by
    hand breaks, so that its empty answer on the canonical structure
    certifies something."""

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
        failures = dense_comonoid_failures(QMatrix(1, n, counit),
                                           comult_from_terms(n, delta))
        assert failures[0] == message
        if message == "cocommutativity fails":
            assert failures == [message]


@st.composite
def boundary_matrices(draw):
    """(nx, ny, C): a graph whose columns are each kept or replaced by
    one nonzero entry 2, -1 or 1/2, a zero column, or two nonzero
    entries summing to 1, and then perhaps one entry changed."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = st.integers(0, ny - 1)
    entries = [0] * (ny * nx)
    for x in range(nx):
        kind = draw(st.sampled_from(["graph", "single", "zero", "pair"]))
        if kind == "pair" and ny > 1:
            y1, y2 = draw(st.lists(rows, min_size=2, max_size=2,
                                   unique=True))
            v1, v2 = draw(st.sampled_from(
                [(Fraction(1, 2), Fraction(1, 2)), (2, -1), (-1, 2)]))
            entries[y1 * nx + x], entries[y2 * nx + x] = v1, v2
        elif kind != "zero":
            value = 1 if kind == "graph" else draw(
                st.sampled_from([2, -1, Fraction(1, 2)]))
            entries[draw(rows) * nx + x] = value
    if draw(st.booleans()):
        k = draw(st.integers(0, ny * nx - 1))
        entries[k] = draw(st.sampled_from(
            [0, 1, 2, -1, Fraction(1, 2)]).filter(
                lambda v: v != entries[k]))
    return nx, ny, QMatrix(ny, nx, entries)


class TestMorphismChecking:
    def test_graph_passes(self):
        for f in all_maps(FinSet(3), FinSet(2)):
            assert not coalgebra_morphism_violations(graph(f), f.dom, f.cod)

    def test_uniform_half_matrix_fails_delta1(self):
        x = y = FinSet(2)
        m = QMatrix(2, 2, [Fraction(1, 2)] * 4)
        violations = coalgebra_morphism_violations(m, x, y)
        assert "(delta1)" in violations
        assert "(eps)" not in violations  # columns do sum to 1

    def test_zero_matrix_fails_eps(self):
        x = y = FinSet(2)
        violations = coalgebra_morphism_violations(zero_matrix(2, 2), x, y)
        assert "(eps)" in violations

    def test_shape_mismatch(self):
        x, y = FinSet(2), FinSet(3)
        with pytest.raises(ValueError):
            coalgebra_morphism_violations(zero_matrix(2, 3), x, y)

    @settings(max_examples=400, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda s: st.tuples(st.just(s), st.one_of(
            qmatrices(s[1], s[0]),
            qmatrices(s[1], s[0], st.sampled_from([Fraction(0), Fraction(1)])),
            st.sampled_from([graph(f) for f in
                             all_maps(FinSet(s[0]), FinSet(s[1]))])))))
    def test_entrywise_matches_dense_on_canonical(self, case):
        (nx, ny), c = case
        assert (coalgebra_morphism_violations(c, FinSet(nx), FinSet(ny))
                == dense_coalgebra_violations(c, canonical_structure(nx),
                                              canonical_structure(ny)))

    @settings(max_examples=600, deadline=None)
    @given(boundary_matrices())
    def test_entrywise_matches_dense_on_the_kernel_boundaries(self, case):
        nx, ny, c = case
        assert (coalgebra_morphism_violations(c, FinSet(nx), FinSet(ny))
                == dense_coalgebra_violations(c, canonical_structure(nx),
                                              canonical_structure(ny)))


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
                x, y = FinSet(nx), FinSet(ny)
                brute = set()
                for bits in itertools.product((0, 1), repeat=nx * ny):
                    m = QMatrix(ny, nx, bits)
                    if not coalgebra_morphism_violations(m, x, y):
                        brute.add(m)
                solved = {c.matrix for c in solve_coalgebra_morphisms(x, y)}
                assert solved == brute

    def test_outputs_verified(self):
        for c in solve_coalgebra_morphisms(FinSet(2), FinSet(3)):
            assert not coalgebra_morphism_violations(c.matrix, c.source,
                                                     c.target)

    @pytest.mark.parametrize("nx, ny", MAP_SPACES)
    def test_outputs_are_the_graphs_of_all_maps_in_order(self, nx, ny):
        # the solver's candidates are value tuples; the oracle builds a
        # validated SetMap per map and takes its graph
        x, y = FinSet(nx), FinSet(ny)
        assert [c.matrix for c in solve_coalgebra_morphisms(x, y)] == [
            graph(f) for f in all_maps(x, y)]


class TestGraphBijection:
    def test_identity(self):
        f = SetMap(FinSet(2), FinSet(2), [0, 1])
        assert morphism_from_setmap(f).matrix == identity_matrix(2)

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
            source = FinSet(1)
            target = FinSet(2)
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
    """The comonoid check against the dense monoid check on the transposes."""

    def test_solver_outputs_dualize(self):
        for nx in range(1, 4):
            for ny in range(1, 4):
                for c in solve_coalgebra_morphisms(FinSet(nx), FinSet(ny)):
                    assert not monoid_morphism_violations(
                        c.matrix.transpose(), dual_structure(ny),
                        dual_structure(nx))

    def test_equivalence_on_random_matrices(self):
        rng = random.Random(41)
        x, y = FinSet(2), FinSet(3)
        mx, my = dual_structure(2), dual_structure(3)
        graphs = [graph(f) for f in all_maps(FinSet(2), FinSet(3))]
        for i in range(100):
            if i % 10 == 0:
                m = graphs[(i // 10) % len(graphs)]
            else:
                m = random_qmatrix(rng, 3, 2, num_bound=2, den_bound=2)
            co = not coalgebra_morphism_violations(m, x, y)
            mo = not monoid_morphism_violations(m.transpose(), my, mx)
            assert co == mo

    def test_non_graph_transposed_fails(self):
        mx = my = dual_structure(2)
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
        m = dual_structure(2)
        assert not monoid_morphism_violations(identity_matrix(2), m, m)
