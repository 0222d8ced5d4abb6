"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (no tolerances anywhere; all arithmetic is over the
rationals) and carries the stated wall-clock budget.
"""

import itertools
import random
import time

from helpers import (all_gset_actions, all_maps, canonical_form,
                     canonical_structure, cover_cube_diagram, dense_at,
                     dense_comonoid_failures, dual_structure, graph,
                     inclusion_exclusion_euler, load_group,
                     monoid_morphism_violations, morphism_from_setmap,
                     nerve_oracle_homology, random_cover, schoolbook_kron,
                     union_find_components)
from motivic_kit.artin import (coalgebra_morphism_violations,
                               setmap_from_morphism,
                               solve_coalgebra_morphisms, verify_mcffe)
from motivic_kit.finsets import FinSet
from motivic_kit.galois import equivariant_set_maps, fixed_coalgebra_morphisms
from motivic_kit.hypercube import punctured_cube_hocolim
from motivic_kit.monad import verify_m_identity
from motivic_kit.qlinalg import matmul
from motivic_kit.resolution import verify_mdffe

from helpers import random_qmatrix


def _report(name: str, elapsed: float, budget: float):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def test_criterion_1_mcffe_reproduction():
    """Comonoid morphisms = set maps for all 16 pairs of sizes 1..4."""
    start = time.perf_counter()
    for nx in range(1, 5):
        for ny in range(1, 5):
            report = verify_mcffe(FinSet(nx), FinSet(ny))
            assert report.passed
            assert report.morphism_count == ny ** nx
            # bijectivity both ways, exactly
            morphisms = solve_coalgebra_morphisms(FinSet(nx), FinSet(ny))
            recovered = {setmap_from_morphism(c).values for c in morphisms}
            assert recovered == {f.values
                                 for f in all_maps(FinSet(nx), FinSet(ny))}
    _report("1 (morphisms = set maps, sizes 1..4)",
            time.perf_counter() - start, 10.0)


def test_criterion_2_mdffe_reproduction():
    """Equalizer = transposed comonoid morphisms = set maps, sizes 1..3."""
    start = time.perf_counter()
    for nx in range(1, 4):
        for ny in range(1, 4):
            report = verify_mdffe(FinSet(nx), FinSet(ny), bound=2)
            assert report.passed, report
            assert report.equalizer_count == ny ** nx
            assert report.recheck_count == report.equalizer_count
    _report("2 (equalizer four-way equality, sizes 1..3)",
            time.perf_counter() - start, 30.0)


def test_criterion_3_galois_descent():
    """Fixed morphisms = graphs of equivariant maps for all fixture groups."""
    start = time.perf_counter()
    names = ["c2", "c3", "c4", "v4", "c5", "c6", "s3"]
    for name in names:
        group = load_group(name)
        actions = []
        for size in (1, 2, 3):
            actions.extend(all_gset_actions(group, size))
        for x in actions:
            for y in actions:
                fixed = {c.matrix for c in fixed_coalgebra_morphisms(x, y)}
                graphs = {graph(f)
                          for f in equivariant_set_maps(x, y)}
                assert fixed == graphs
    _report("3 (Galois descent, 7 groups, G-sets of size <= 3)",
            time.perf_counter() - start, 60.0)


def test_criterion_4_monad_identity():
    """Assembly census = diagram census with matching automorphism orders."""
    start = time.perf_counter()
    small = verify_m_identity(1, (2, 2))
    assert small.passed and small.assembled_classes == 5
    for k, bounds in [(1, (3, 3)), (2, (2, 2, 2))]:
        report = verify_m_identity(k, bounds)
        assert report.passed, report
        for row in report.rows:
            assert row.aut_order == row.wreath_count
    _report("4 (monad census, k=1 (3,3) and k=2 (2,2,2))",
            time.perf_counter() - start, 60.0)


def test_criterion_5_hypercube_engine():
    """Randomized cover models against three independent oracles."""
    start = time.perf_counter()
    rng = random.Random(20250810)
    trials = 0
    while trials < 20:
        comps = random_cover(rng, max_components=4, max_points=5)
        cube, union = cover_cube_diagram(comps)
        tot = punctured_cube_hocolim(cube)
        hom = tot.homology_dims()
        assert hom[0] == union_find_components(comps)
        assert hom.get(1, 0) == nerve_oracle_homology(comps, 1)
        assert tot.euler_characteristic() == inclusion_exclusion_euler(comps)
        alternating = sum((-1) ** (len(s) - 1)
                          * cube.vertices[s].euler_characteristic()
                          for s in cube.vertices)
        assert tot.euler_characteristic() == alternating
        for n in range(tot.lo + 2, tot.hi + 1):
            assert not any(matmul(dense_at(tot, n - 1),
                                  dense_at(tot, n)).entries)
        trials += 1
    _report("5 (hypercube engine, 20 random covers)",
            time.perf_counter() - start, 30.0)


def test_criterion_6_invariant_suites():
    """Axioms, Kronecker interchange, duality, canonical idempotence."""
    start = time.perf_counter()
    # comonoid axioms for |X| <= 5
    for n in range(1, 6):
        assert dense_comonoid_failures(*canonical_structure(n)) == []

    # Kronecker interchange on 100 random exact matrices
    rng = random.Random(77)
    for _ in range(100):
        a = random_qmatrix(rng, 2, 2)
        b = random_qmatrix(rng, 2, 2)
        c = random_qmatrix(rng, 2, 2)
        d = random_qmatrix(rng, 2, 2)
        assert matmul(schoolbook_kron(a, b), schoolbook_kron(c, d)) == \
            schoolbook_kron(matmul(a, c), matmul(b, d))

    # duality equivalence on all solver outputs and 100 random matrices
    x, y = FinSet(2), FinSet(3)
    mx, my = dual_structure(2), dual_structure(3)
    for morphism in solve_coalgebra_morphisms(FinSet(2), FinSet(3)):
        assert not monoid_morphism_violations(morphism.matrix.transpose(),
                                              my, mx)
    for _ in range(100):
        m = random_qmatrix(rng, 3, 2, num_bound=2, den_bound=2)
        co = not coalgebra_morphism_violations(m, x, y)
        mo = not monoid_morphism_violations(m.transpose(), my, mx)
        assert co == mo

    # canonical form idempotence over the full bounded censuses
    for sizes_bound, k in [((3, 3), 2), ((2, 2, 2), 3)]:
        for sizes in itertools.product(*(range(1, b + 1)
                                         for b in sizes_bound)):
            sets = [FinSet(s) for s in sizes]
            choice_lists = [list(itertools.product(range(sizes[i + 1]),
                                                   repeat=sizes[i]))
                            for i in range(k - 1)]
            for combo in itertools.product(*choice_lists):
                from motivic_kit.finsets import FinDiagram, SetMap
                d = FinDiagram(sets, [SetMap(sets[i], sets[i + 1], v)
                                      for i, v in enumerate(combo)])
                cf = canonical_form(d)
                assert canonical_form(cf) == cf

    # the graph bijection is functorial on morphisms as well
    for f in all_maps(FinSet(2), FinSet(2)):
        assert setmap_from_morphism(morphism_from_setmap(f)) == f

    _report("6 (invariant suites)", time.perf_counter() - start, 60.0)
