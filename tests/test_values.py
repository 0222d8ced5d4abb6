"""The immutable-value contract shared by every validated class, and an
independent oracle for the fixed-subspace dimensions of the tower levels.
"""

import itertools

import pytest

from helpers import (brute_automorphisms, identity_map, load_group,
                     regular_gset)
from motivic_kit._value import Value
from motivic_kit.artin import (ArtinComonoid, ArtinMonoid, CoalgMorphism,
                               artin_comonoid, artin_monoid,
                               morphism_from_setmap)
from motivic_kit.finsets import (DiagramIso, FinDiagram, FinSet, PermGroup,
                                 SetMap, automorphism_group)
from motivic_kit.galois import FiniteGroup, GSet
from motivic_kit.hypercube import ChainMap, CubeDiagram, cover_cube_diagram
from motivic_kit.monad import MultisetOfDiagrams
from motivic_kit.qlinalg import ChainComplex, QMatrix
from motivic_kit.resolution import level


def diagram():
    s1, s2 = FinSet(3), FinSet(2)
    return FinDiagram([s1, s2], [SetMap(s1, s2, [0, 0, 1])])


def chain_complex():
    return ChainComplex(0, 1, {0: 2, 1: 1}, {1: QMatrix(2, 1, [1, -1])})


# one builder per class; each call constructs a fresh instance from equal
# inputs
BUILDERS = {
    FinSet: lambda: FinSet(3, labels=["a", "b", "c"]),
    SetMap: lambda: SetMap(FinSet(3), FinSet(2), [0, 1, 1]),
    FinDiagram: diagram,
    DiagramIso: lambda: DiagramIso(diagram(), diagram(),
                                   [identity_map(s) for s in diagram().sets]),
    PermGroup: lambda: automorphism_group(diagram()),
    QMatrix: lambda: QMatrix(2, 2, [1, "1/2", 0, -3]),
    ChainComplex: chain_complex,
    ArtinComonoid: lambda: artin_comonoid(FinSet(2)),
    ArtinMonoid: lambda: artin_monoid(FinSet(2)),
    CoalgMorphism: lambda: morphism_from_setmap(
        SetMap(FinSet(2), FinSet(3), [2, 0])),
    FiniteGroup: lambda: load_group("c3"),
    GSet: lambda: regular_gset(load_group("c3")),
    ChainMap: lambda: ChainMap(chain_complex(), chain_complex(),
                               {0: QMatrix.identity(2),
                                1: QMatrix.identity(1)}),
    CubeDiagram: lambda: cover_cube_diagram([{0, 1}, {1, 2}])[0],
    MultisetOfDiagrams: lambda: MultisetOfDiagrams(
        2, [diagram(), FinDiagram([FinSet(1)], [])]),
}
CLASSES = sorted(BUILDERS, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestValueContract:
    def test_assignment_refused(self, cls):
        value = BUILDERS[cls]()
        assert type(value) is cls
        for name in cls.__slots__:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_inputs_give_equal_values(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a is not b
    assert a == b and not a != b
    try:
        hash(a)
    except TypeError:
        return
    assert hash(a) == hash(b)


def test_unequal_inputs_give_unequal_values():
    assert FinSet(3) != FinSet(3, labels=[2, 1, 0])
    assert QMatrix(1, 2, [1, 0]) != QMatrix(2, 1, [1, 0])
    assert QMatrix(1, 1, [1]) != FinSet(1)
    assert artin_comonoid(FinSet(2)) != artin_comonoid(FinSet(3))


def test_values_of_different_classes_differ():
    class Twin(Value):
        __slots__ = ("size", "labels")

        def __init__(self, size):
            object.__setattr__(self, "size", size)
            object.__setattr__(self, "labels", None)

    assert Twin(3) != FinSet(3) and FinSet(3) != Twin(3)
    assert Twin(3) == Twin(3)


def test_perm_group_and_cube_compare_by_value():
    assert automorphism_group(diagram()) != automorphism_group(
        fiber_chain((2, 2)))
    cube = cover_cube_diagram([{0, 1}, {1, 2}])[0]
    assert cube != cover_cube_diagram([{0, 1}, {1}])[0]
    with pytest.raises(TypeError):
        hash(cube)  # its vertices and edges are dicts


def fiber_chain(fibers) -> FinDiagram:
    """The 2-chain S1 -> S2 whose fiber over element j has fibers[j] points."""
    s1, s2 = FinSet(sum(fibers)), FinSet(len(fibers))
    values = [j for j, size in enumerate(fibers) for _ in range(size)]
    return FinDiagram([s1, s2], [SetMap(s1, s2, values)])


def orbit_count(nx: int, fibers) -> int:
    """Orbits of X^S1 under the first components of every chain automorphism.

    Brute force: the group is every relabeling of the fiber chain that
    commutes with its map, and a tuple's orbit is its set of images.
    """
    s = sum(fibers)
    if s == 0:
        return 1
    perms = [auto[0] for auto in brute_automorphisms(fiber_chain(fibers))]
    orbits = set()
    for xs in itertools.product(range(nx), repeat=s):
        images = set()
        for p in perms:
            moved = [0] * s
            for i, x in enumerate(xs):
                moved[p[i]] = x
            images.add(tuple(moved))
        orbits.add(frozenset(images))
    return len(orbits)


@pytest.mark.parametrize("k, nx, ny, bound", [
    (k, nx, ny, bound) for k in (1, 2) for nx in (1, 2, 3) for ny in (1, 2)
    for bound in (2, 3)])
def test_level_dimensions_against_orbit_oracle(k, nx, ny, bound):
    t = level(k, FinSet(nx), FinSet(ny), bound)
    for key in t.components:
        fibers = (key,) if k == 1 else key
        assert len(t.components[key]) == ny * orbit_count(nx, fibers), key
