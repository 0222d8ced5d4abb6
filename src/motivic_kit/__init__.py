"""Exact-arithmetic calculus of rational matrices on finite sets.

Finite-set diagram groupoids, canonical comonoids and their morphism
solver, Galois descent for finite group actions, multiset assembly for
the free commutative monoid construction, hypercube homotopy colimits of
chain complexes, and the cosimplicial equalizer -- all over exact
rationals, with a batch verification CLI.
"""

from .finsets import (FinSet, SetMap, FinDiagram, DiagramIso, PermGroup,
                      compose, canonical_form, are_isomorphic,
                      automorphism_group, automorphism_order)
from .qlinalg import (QMatrix, ChainComplex, matmul, kron, kron_power,
                      kernel_basis, rank, nullity, homology_dims)
from .artin import (ArtinComonoid, ArtinMonoid, CoalgMorphism,
                    artin_comonoid, artin_monoid, is_coalgebra_morphism,
                    coalgebra_morphism_violations, solve_coalgebra_morphisms,
                    morphism_from_setmap, setmap_from_morphism, dualize,
                    verify_mcffe)
from .galois import (FiniteGroup, GSet, equivariant_set_maps,
                     fixed_coalgebra_morphisms)
from .monad import (MultisetOfDiagrams, assemble, enumerate_diagrams,
                    verify_m_identity, omega_power, functoriality_on_iso)
from .hypercube import (CubeDiagram, ChainMap, punctured_cube_hocolim,
                        ks_hocolim, build_kappa, cover_cube_diagram)
from .resolution import (coface_d0, coface_d1, level2_coface_d0,
                         level2_coface_d1, level2_coface_d2,
                         codegeneracy_level1, codegeneracy_level2_s0,
                         codegeneracy_level2_s1, equalizer, level,
                         verify_mdffe)

__version__ = "0.1.0"

__all__ = [
    "FinSet", "SetMap", "FinDiagram", "DiagramIso", "PermGroup",
    "compose", "canonical_form", "are_isomorphic", "automorphism_group",
    "automorphism_order", "enumerate_diagrams",
    "QMatrix", "ChainComplex", "matmul", "kron", "kron_power",
    "kernel_basis", "rank", "nullity", "homology_dims",
    "ArtinComonoid", "ArtinMonoid", "CoalgMorphism", "artin_comonoid",
    "artin_monoid", "is_coalgebra_morphism", "coalgebra_morphism_violations",
    "solve_coalgebra_morphisms", "morphism_from_setmap",
    "setmap_from_morphism", "dualize", "verify_mcffe",
    "FiniteGroup", "GSet", "equivariant_set_maps",
    "fixed_coalgebra_morphisms",
    "MultisetOfDiagrams", "assemble", "verify_m_identity", "omega_power",
    "functoriality_on_iso",
    "CubeDiagram", "ChainMap", "punctured_cube_hocolim", "ks_hocolim",
    "build_kappa", "cover_cube_diagram",
    "coface_d0", "coface_d1", "level2_coface_d0", "level2_coface_d1",
    "level2_coface_d2", "codegeneracy_level1", "codegeneracy_level2_s0",
    "codegeneracy_level2_s1", "equalizer", "level", "verify_mdffe",
]
