"""The immutable-value contract shared by every validated class."""

import pytest

from helpers import (cover_cube_diagram, fiber_chain, identity_map,
                     identity_matrix, load_group, morphism_from_setmap,
                     regular_gset)
from motivic_kit._value import Value
from motivic_kit.artin import ArtinComonoid, CoalgMorphism, artin_comonoid
from motivic_kit.finsets import (DiagramIso, FinDiagram, FinSet, PermGroup,
                                 SetMap, automorphism_group)
from motivic_kit.galois import FiniteGroup, GSet
from motivic_kit.hypercube import ChainMap, CubeDiagram
from motivic_kit.monad import MultisetOfDiagrams
from motivic_kit.qlinalg import ChainComplex, QMatrix


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
    CoalgMorphism: lambda: morphism_from_setmap(
        SetMap(FinSet(2), FinSet(3), [2, 0])),
    FiniteGroup: lambda: load_group("c3"),
    GSet: lambda: regular_gset(load_group("c3")),
    ChainMap: lambda: ChainMap(chain_complex(), chain_complex(),
                               {0: identity_matrix(2),
                                1: identity_matrix(1)}),
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
