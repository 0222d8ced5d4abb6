"""The immutable-value contract shared by every validated class, and the
compiled reader of outside JSON that their `from_json` methods share."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ChainMap, complex_json, cover_cube_diagram,
                     empty_block_cube_payload, fiber_chain, gset_json,
                     identity_map, identity_matrix, load_group,
                     morphism_from_setmap, reference_reader, regular_gset)
from motivic_kit import finsets, qlinalg
from motivic_kit._value import Value, compile_reader, degree_key
from motivic_kit.artin import CoalgMorphism
from motivic_kit.finsets import (DiagramIso, FinDiagram, FinSet, PermGroup,
                                 SetMap, automorphism_group)
from motivic_kit.galois import FiniteGroup, GSet
from motivic_kit.hypercube import CubeDiagram, _subset
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
    CoalgMorphism: lambda: morphism_from_setmap(
        SetMap(FinSet(2), FinSet(3), [2, 0])),
    # the class itself: `FiniteGroup.from_json` shares one value per table
    FiniteGroup: lambda: FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    GSet: lambda: regular_gset(load_group("c3")),
    ChainMap: lambda: ChainMap(chain_complex(), chain_complex(),
                               {0: identity_matrix(2),
                                1: identity_matrix(1)}),
    CubeDiagram: lambda: cover_cube_diagram([{0, 1}, {1, 2}])[0],
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


def test_a_comonoid_morphism_hashes_by_value():
    # it has no hash of its own: the value hash agrees with equality
    a, b = BUILDERS[CoalgMorphism](), BUILDERS[CoalgMorphism]()
    assert "__hash__" not in vars(CoalgMorphism)
    assert hash(a) == hash(b) and len({a, b}) == 1


def test_unequal_inputs_give_unequal_values():
    assert FinSet(3) != FinSet(3, labels=[2, 1, 0])
    assert QMatrix(1, 2, [1, 0]) != QMatrix(2, 1, [1, 0])
    assert QMatrix(1, 1, [1]) != FinSet(1)
    # a morphism's carriers belong to it, labels and all
    one, two = identity_matrix(2), FinSet(2)
    assert (CoalgMorphism(one, two, two)
            != CoalgMorphism(one, FinSet(2, labels=["a", "b"]), two))


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


# The spec shapes the package compiles, each with a document it accepts:
# fields, optional fields, members keyed by `degree_key`, `_subset` and
# `str`, lists of types and of objects, and `from_json` leaves.
_MATRIX = {"rows": int, "cols": int, "entries": [qlinalg._entry]}
_BLOCKS = {degree_key: QMatrix.from_json}
READER_CASES = {
    "matrix": ({"rows": int, "cols": int, "entries": list},
               QMatrix(2, 2, [1, "1/2", 0, -3]).to_json()),
    "matrix entries": (_MATRIX, QMatrix(1, 2, ["2/3", 4]).to_json()),
    "complex": ({"lo": int, "hi": int, "dims": {degree_key: int},
                 "differentials": {degree_key: _MATRIX}},
                complex_json(chain_complex())),
    "cube": ({"vertices": {_subset: ChainComplex.from_json},
              "edges": {str: _BLOCKS}, "index_size": int,
              "ambient?": ChainComplex.from_json,
              "ambient_edges?": {str: _BLOCKS}},
             empty_block_cube_payload(ambient=True)),
    "finset": ({"size": int, "labels?": [finsets._label]},
               {"size": 2, "labels": ["a", 7]}),
    "diagram maps": ({"maps": [{"dom?": int, "cod?": int, "values": [int]}]},
                     {"maps": [{"dom": 3, "values": [0, 1, 1]},
                               {"cod": 1, "values": [0, 0]}]}),
    "group": ({"order": int, "table": [[int]]},
              {"order": 2, "table": [[0, 1], [1, 0]]}),
    "gset": ({"group": FiniteGroup.from_json, "carrier": FinSet.from_json,
              "action": [[int]]},
             gset_json(regular_gset(load_group("c3")))),
}
# a leaf swapped for another JSON value, a member deleted or renamed, an
# object replaced by the list of its values
MUTATIONS = ([("swap", x) for x in (True, None, 1.5, [], {})]
             + [("rename", k) for k in ("x", "00", "0,0", "-1")]
             + [("delete", None), ("listify", None)])


def _places(doc, path=()):
    """The path of every value in a JSON document, the root's first."""
    yield path
    if type(doc) in (dict, list):
        steps = doc.items() if type(doc) is dict else enumerate(doc)
        for step, inner in steps:
            yield from _places(inner, path + (step,))


def _mutated(doc, path, mutation):
    top = {"doc": copy.deepcopy(doc)}
    parent, step = top, "doc"
    for s in path:
        parent, step = parent[step], s
    how, x = mutation
    if how == "swap":
        parent[step] = copy.deepcopy(x)
    elif how in ("delete", "rename") and path and type(parent) is dict:
        value = parent.pop(step)
        if how == "rename":
            parent[x] = value
    elif how == "listify" and type(parent[step]) is dict:
        parent[step] = list(parent[step].values())
    return top["doc"]


def _outcome(reader, doc):
    try:
        return reader(doc)
    except Exception as exc:  # a fault is compared by its class and text
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_compiled_reader_reads_the_documents_as_before(name):
    spec, doc = READER_CASES[name]
    value = compile_reader(spec)(doc)
    assert type(value) is tuple
    assert value == reference_reader(spec)(doc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(READER_CASES)), st.data())
def test_compiled_reader_agrees_with_the_reference_on_mutated_documents(
        name, data):
    spec, doc = READER_CASES[name]
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_places(doc))))
        doc = _mutated(doc, path, data.draw(st.sampled_from(MUTATIONS)))
    assert (_outcome(compile_reader(spec), doc)
            == _outcome(reference_reader(spec), doc))
