"""Exact-arithmetic calculus of rational matrices on finite sets.

Finite-set diagram groupoids, the comonoid morphisms between finite sets
(each carrying its canonical comonoid, which the set alone fixes) and
their solver, Galois descent for finite group actions, multiset assembly for
the free commutative monoid construction, hypercube homotopy colimits of
chain complexes, and the cosimplicial equalizer -- all over exact
rationals.  The library is what the batch verification CLI
(`motivic_kit.cli`) checks: every function in it runs under one of its
commands, and the names below are those a caller needs to run the same
checks.  `build_kappa` returns the one mapping `kappa` prints: every
label in it, of a component, of the ambient or of the `cross` factor,
must be nonempty and contain none of "&", "(" and ")", which would render
like an intersection or a product.
"""

from .finsets import (FinSet, SetMap, FinDiagram, DiagramIso, PermGroup,
                      automorphism_group)
from .qlinalg import QMatrix, ChainComplex, matmul, rank
from .artin import (CoalgMorphism, coalgebra_morphism_violations,
                    solve_coalgebra_morphisms, setmap_from_morphism,
                    verify_mcffe)
from .galois import (FiniteGroup, GSet, equivariant_set_maps,
                     fixed_coalgebra_morphisms)
from .monad import assemble, enumerate_diagrams, verify_m_identity
from .hypercube import (CubeDiagram, punctured_cube_hocolim, ks_hocolim,
                        build_kappa)
from .resolution import equalizer, verify_mdffe

__version__ = "0.1.0"

__all__ = [
    "FinSet", "SetMap", "FinDiagram", "DiagramIso", "PermGroup",
    "automorphism_group", "enumerate_diagrams",
    "QMatrix", "ChainComplex", "matmul", "rank",
    "CoalgMorphism", "coalgebra_morphism_violations",
    "solve_coalgebra_morphisms", "setmap_from_morphism", "verify_mcffe",
    "FiniteGroup", "GSet", "equivariant_set_maps",
    "fixed_coalgebra_morphisms",
    "assemble", "verify_m_identity",
    "CubeDiagram", "punctured_cube_hocolim", "ks_hocolim", "build_kappa",
    "equalizer", "verify_mdffe",
]
