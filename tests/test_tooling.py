"""Repository-wide checks: a stdlib-only runtime, a resolvable API, one
base class for the immutable values, integers kept as integers, one
reader for outside JSON compiled only at import, no relabeling search on
the census path, no value of the census's own and no order it computes
twice, nor by a second walk over its classes, no assembly or canonical
form outside the census check, no fraction in the census
mass formula, no construction that skips validation, no zero matrix
built for an absent block, no dense product in the comonoid layer, no
product per candidate on the fixed side of the descent comparison and
no walk over all set maps on either side, a
CLI parser and its subcommand table built only at import, read through
no private attribute of argparse, each subcommand declared once, one builder for the cube's total
complexes, no value of its own for a cube's edge, squares composed only
when a cube is built, a group's generators found once, no list of zeros
sized by two dimensions outside the dense view of a matrix, no
process-wide cache that the command trace does not clear before each
command, `galois-fixed` checked on set maps rather than
on graphs built again, no JSON indented by the pure-Python encoder, one
builder of a graph's terms and one enumerator of set-map value tuples,
no definition in the library that `cli.main` does not reach, no
function in it that the suite's command lines do not run, and no
statement they do not run but the registered library guards, each of
which a named test makes run."""

import ast
import collections
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import motivic_kit
from motivic_kit.cli import SUBPARSERS
from motivic_kit.qlinalg import QMatrix

SOURCES = sorted((Path(motivic_kit.__file__).parent).glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py",
                                         "qlinalg.py"}


def test_runtime_imports_only_the_standard_library():
    outside = {(p.name, name) for p in SOURCES
               for name in absolute_imports(p)
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()


def run_command_trace(root: Path, out: Path, *node_ids) -> dict:
    """The output of tests/command_trace.py run on the checkout at `root`,
    with any further tests named; every test it runs must pass."""
    done = subprocess.run(
        [sys.executable, str(root / "tests" / "command_trace.py"), str(out),
         *node_ids],
        cwd=root, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def command_trace(tmp_path_factory) -> dict:
    # the rows, and then the test each registered guard names
    return run_command_trace(ROOT, tmp_path_factory.mktemp("trace") / "out.json",
                             *sorted({test for *_, test in LIBRARY_GUARDS}))


def never_run(trace: dict) -> list:
    """The "file:qualname" of each function defined in the library that
    no command ran.  `__repr__` shows a value in a debugger or in a failed
    assertion, and no command prints one; `Value.__setattr__` and
    `__delattr__` refuse an assignment, which no command attempts (the
    value contract in test_values checks that they refuse)."""
    ran = set(map(tuple, trace["ran"]))
    return [f"{file}:{name}" for file, name, line in trace["defined"]
            if (file, name, line) not in ran
            and not name.endswith(".__repr__")
            and name not in ("Value.__setattr__", "Value.__delattr__")]


def readme_example_imports() -> set:
    """The names the README library example imports from the package."""
    section = (ROOT / "README.md").read_text().split("## Library example\n")[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    return {alias.name for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) and node.module == "motivic_kit"
            for alias in node.names}


def defined_at(obj) -> tuple:
    """(file name, qualified name) of a function, or of a class's
    constructor, as tests/command_trace.py names them."""
    qualname = obj.__qualname__ + ".__init__" * isinstance(obj, type)
    return Path(inspect.getfile(obj)).name, qualname


def test_every_exported_name_resolves(command_trace):
    missing = [name for name in motivic_kit.__all__
               if not hasattr(motivic_kit, name)]
    assert missing == []
    # ... and is run by a command (a class by its constructor), or is
    # used by the README library example: no name is exported for tests
    ran = {(file, name) for file, name, _ in command_trace["ran"]}
    shown = readme_example_imports()
    assert shown and shown <= set(motivic_kit.__all__)
    assert [name for name in motivic_kit.__all__ if name not in shown
            and defined_at(getattr(motivic_kit, name)) not in ran] == []


def class_definitions():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                yield path.name, node


def slot_names(node: ast.ClassDef) -> list:
    for stmt in node.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets)):
            return list(ast.literal_eval(stmt.value))
    return []


def test_only_the_value_base_defines_setattr():
    defines = {(path_name, node.name) for path_name, node in class_definitions()
               for stmt in node.body
               if isinstance(stmt, ast.FunctionDef)
               and stmt.name == "__setattr__"}
    assert defines == {("_value.py", "Value")}


def test_every_slotted_class_derives_from_the_value_base():
    # the base itself declares empty slots
    slotted = {(path_name, node.name): [ast.unparse(b) for b in node.bases]
               for path_name, node in class_definitions() if slot_names(node)}
    assert ("finsets.py", "FinSet") in slotted
    assert {name: bases for name, bases in slotted.items()
            if bases != ["Value"]} == {}


def is_int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) is int)


def test_no_fraction_of_an_integer_literal():
    # an integral value is an int in the normal form of qlinalg entries
    calls = {(path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("Fraction", "fractions.Fraction")
             and len(node.args) == 1 and is_int_literal(node.args[0])}
    assert calls == set()


def function_definitions(name: str):
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                yield path.name, node


def test_from_json_reads_its_argument_only_through_the_reader():
    # a subscript or method call on the JSON argument skips the type check
    readers = list(function_definitions("from_json"))
    assert len(readers) >= 7
    direct = {(path_name, node.lineno) for path_name, fn in readers
              for node in ast.walk(fn)
              if isinstance(node, (ast.Subscript, ast.Attribute))
              and isinstance(node.value, ast.Name)
              and node.value.id == fn.args.args[0].arg}
    assert direct == set()


def test_cli_run_catches_no_internal_error():
    # an internal KeyError or TypeError is a bug, not an input error
    [(_, run)] = [(p, fn) for p, fn in function_definitions("run")
                  if p == "cli.py"]
    caught = {node.id for handler in ast.walk(run)
              if isinstance(handler, ast.ExceptHandler)
              for node in ast.walk(handler.type)
              if isinstance(node, ast.Name)}
    assert "ValueError" in caught
    assert caught.isdisjoint({"KeyError", "TypeError", "AttributeError",
                              "IndexError"})


def test_census_path_has_no_permutation_search():
    # the factorial relabeling search is a test oracle, not a census step
    calls = {(path.name, node.lineno) for path in SOURCES
             if path.name in ("finsets.py", "monad.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "permutations"}
    assert calls == set()


def nodes_by_function(path: Path):
    """(enclosing 'Class.function' or 'function' or None, node) for every
    node of a source file."""
    return nodes_in(ast.parse(path.read_text(), str(path)))


def nodes_in(tree):
    """`nodes_by_function` of a parsed module."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, ast.ClassDef):
                inner = child.name
            elif isinstance(child, ast.FunctionDef):
                inner = f"{owner}.{child.name}" if owner else child.name
            yield inner, child
            yield from visit(child, inner)
    yield from visit(tree, None)


def calls_by_function(path: Path):
    """(enclosing 'Class.function' or 'function' or None, unparsed callee)
    for every call in a source file."""
    for owner, node in nodes_by_function(path):
        if isinstance(node, ast.Call):
            yield owner, ast.unparse(node.func)


def test_no_construction_skips_validation():
    # object.__new__ skips a constructor's validation
    sites = [(path.name, owner) for path in SOURCES
             for owner, callee in calls_by_function(path)
             if callee == "object.__new__"]
    assert sites == []


def test_the_census_builds_no_automorphism_generators():
    # the census reads orders only; generators are built where they are
    # printed, by `aut`
    callers = {(path.name, owner) for path in SOURCES
               for owner, callee in calls_by_function(path)
               if callee.split(".")[-1] == "automorphism_group"}
    assert callers == {("cli.py", "_cmd_aut")}


def test_the_census_reads_each_order_off_its_canonicalising_pass():
    # a multiset is a tuple of pool indices, not a value of the census's
    # own, and an order comes from the level classes that canonicalised
    # its class: only the canonical form and `aut`'s group compute them
    assert [node.name for path_name, node in class_definitions()
            if path_name == "monad.py"
            and "Value" in map(ast.unparse, node.bases)] == []
    callers = {(path.name, owner) for path in SOURCES
               for owner, callee in calls_by_function(path)
               if callee.split(".")[-1] == "_level_classes"}
    assert callers == {("finsets.py", "_canonical_form"),
                       ("finsets.py", "automorphism_group")}
    # the order is read off the multiplicities that pass counts, not
    # recounted by a second walk over the classes, and the mass formula
    # sums integers
    [finsets] = [path for path in SOURCES if path.name == "finsets.py"]
    [monad] = [path for path in SOURCES if path.name == "monad.py"]
    assert [name for name, _ in function_definitions("_forest_order")] == []
    factorials = {owner for owner, node in nodes_by_function(finsets)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and owner is not None
                  and ast.unparse(node).split(".")[-1] == "factorial"}
    assert factorials == {"_level_classes"}
    assert "fractions" not in set(absolute_imports(monad))


def test_only_the_census_check_assembles_and_canonicalises():
    # `enumerate-diagrams` reads its classes off subtree shapes; only
    # `verify_m_identity` assembles diagrams and canonicalises them, and
    # only the canonical form relabels one
    def callers(name):
        return {(path.name, owner) for path in SOURCES
                for owner, callee in calls_by_function(path)
                if callee.split(".")[-1] == name}
    assert callers("assemble") == callers("_canonical_form") == {
        ("monad.py", "verify_m_identity")}
    assert callers("relabel") == {("finsets.py", "_canonical_form")}


def test_the_census_walks_its_multisets_once():
    # `enumerate-diagrams` and `verify-monad` run the one census walk, and
    # `verify_m_identity` checks the classes that walk lists
    def callers(name):
        return {(path.name, owner) for path in SOURCES
                for owner, callee in calls_by_function(path)
                if callee.split(".")[-1] == name}
    assert callers("_admissible_multisets") == {("monad.py", "_census")}
    assert callers("_census") == {("monad.py", "_census"),
                                  ("monad.py", "enumerate_diagrams"),
                                  ("monad.py", "verify_m_identity")}


def test_no_zero_matrix_stands_for_an_absent_block():
    # an absent differential or chain-map block is zero: the library has
    # no zero-matrix constructor and calls none
    assert not hasattr(QMatrix, "zeros")
    sites = [(path.name, owner) for path in SOURCES
             for owner, callee in calls_by_function(path)
             if callee.split(".")[-1] == "zeros"]
    assert sites == []


def factors(node) -> list:
    """The factors of a product, parenthesised ones flattened."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return factors(node.left) + factors(node.right)
    return [node]


def test_no_list_of_zeros_is_sized_by_two_dimensions():
    # a matrix is its nonzero terms: `[0] * (rows * cols)` is built only by
    # the dense view of QMatrix, which the tests and the JSON output read
    sites = {(path.name, owner) for path in SOURCES
             for owner, node in nodes_by_function(path)
             if isinstance(node, ast.BinOp) and len(factors(node)) > 2
             and "[0]" in map(ast.unparse, factors(node))}
    assert sites == {("qlinalg.py", "QMatrix.entries")}


def test_structure_axioms_are_checked_without_dense_products():
    # a comonoid morphism is checked entry by entry: no module defines a
    # Kronecker product, and no function in artin.py calls one or a dense
    # product
    assert list(function_definitions("kron")) == []
    assert "kron" not in motivic_kit.__all__
    # the guard sees a dense product where there is one
    [galois] = [p for p in SOURCES if p.name == "galois.py"]
    assert "matmul" in {callee for owner, callee in calls_by_function(galois)
                        if owner == "fixed_coalgebra_morphisms"}
    [artin] = [p for p in SOURCES if p.name == "artin.py"]
    assert {callee.split(".")[-1] for owner, callee in calls_by_function(artin)
            if owner is not None}.isdisjoint({"kron", "matmul"})


def per_candidate_products(tree) -> list:
    """The lines of the `matmul` calls in `fixed_coalgebra_morphisms` that
    sit in a loop or comprehension over the solver's candidates: one whose
    iterable, out of an `enumerate`, is the solver's call, a name bound
    to it, or a slice of such a name."""
    [fn] = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name == "fixed_coalgebra_morphisms"]
    names = set()

    def over_candidates(node) -> bool:
        if isinstance(node, ast.Call) and ast.unparse(node.func) == \
                "enumerate":
            node = node.args[0]
        if isinstance(node, ast.Subscript):
            node = node.value
        return ((isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1]
                    == "solve_coalgebra_morphisms"))

    for node in sorted((n for n in ast.walk(fn) if isinstance(n, ast.Assign)),
                       key=lambda n: n.lineno):
        if over_candidates(node.value):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            loops = ([child.iter] if isinstance(child, ast.For) else
                     [g.iter for g in getattr(child, "generators", ())])
            within = inside or any(map(over_candidates, loops))
            if (within and isinstance(child, ast.Call)
                    and ast.unparse(child.func).split(".")[-1] == "matmul"):
                yield child.lineno
            yield from visit(child, within)
    return list(visit(fn, False))


def test_the_fixed_side_makes_no_product_per_candidate():
    # each generator moves all the orbitals of Y x X with one product
    [galois] = [p for p in SOURCES if p.name == "galois.py"]
    assert per_candidate_products(ast.parse(galois.read_text())) == []
    # the guard sees the per-candidate conjugation, in a comprehension and
    # in a loop over a batch
    planted = ast.parse(
        "def fixed_coalgebra_morphisms(x, y):\n"
        "    return [c for c in solve_coalgebra_morphisms(x.carrier,\n"
        "                                                 y.carrier)\n"
        "            if all(matmul(matmul(py, c.matrix), px_inv) == c.matrix\n"
        "                   for py, px_inv in actions)]\n")
    assert per_candidate_products(planted) == [4, 4]
    planted = ast.parse(
        "def fixed_coalgebra_morphisms(x, y):\n"
        "    candidates = solve_coalgebra_morphisms(x.carrier, y.carrier)\n"
        "    batch = candidates[:_BATCH]\n"
        "    for j, c in enumerate(batch):\n"
        "        moved = matmul(c.matrix, perm)\n")
    assert per_candidate_products(planted) == [5]


def set_map_walkers(tree) -> list:
    """The lines at which a module imports or reads `map_values` or
    `solve_coalgebra_morphisms`, each of which walks all |Y|^|X| set
    maps."""
    walkers = {"map_values", "solve_coalgebra_morphisms"}
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id in walkers)
                  or (isinstance(node, ast.Attribute)
                      and node.attr in walkers)
                  or (isinstance(node, ast.ImportFrom)
                      and walkers.intersection(a.name for a in node.names)))


def test_the_descent_comparison_walks_no_set_maps():
    # both sides of `galois-fixed` are built from the group action, from
    # orbits and stabilisers and from the orbitals of Y x X, so their cost
    # follows the answer, not |Y|^|X|
    [galois] = [p for p in SOURCES if p.name == "galois.py"]
    assert set_map_walkers(ast.parse(galois.read_text())) == []
    # the guard sees both sides of the enumeration the module left
    planted = ast.parse(
        "from .artin import graph_matrix, solve_coalgebra_morphisms\n"
        "from . import finsets\n"
        "def equivariant_set_maps(x, y):\n"
        "    return [f for f in finsets.map_values(x.carrier, y.carrier)]\n"
        "def fixed_coalgebra_morphisms(x, y):\n"
        "    return solve_coalgebra_morphisms(x.carrier, y.carrier)\n")
    assert set_map_walkers(planted) == [1, 4, 6]


def orbit_products(tree) -> list:
    """The lines at which a module calls `product`, bare or as
    `itertools.product`: the Cartesian product that glues one choice per
    orbit of X into whole maps, |Y|^|X| of them for a trivial action."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] == "product")


def test_the_descent_sides_form_no_product_over_orbits():
    # both sides of `galois-fixed` return their factors over the orbits of
    # X and the command compares them factor by factor, multiplying only
    # their lengths; the glued whole sets are the tests' oracle
    [galois] = [p for p in SOURCES if p.name == "galois.py"]
    assert orbit_products(ast.parse(galois.read_text())) == []
    [cli] = [p for p in SOURCES if p.name == "cli.py"]
    assert {callee for owner, callee in calls_by_function(cli)
            if owner == "_cmd_galois_fixed"
            and "prod" in callee} == {"math.prod"}
    # the guard sees the gluing the module did, however `product` is bound
    planted = ast.parse(
        "def _glued(choices):\n"
        "    return sorted(tuple(b for _, b in sorted(itertools.chain(*p)))\n"
        "                  for p in itertools.product(*choices))\n"
        "def glued(choices):\n"
        "    return [f for f in product(*choices)]\n")
    assert orbit_products(planted) == [3, 5]


def module_caches(trees) -> set:
    """(file, name) of each process-wide cache in the parsed modules: an
    empty `{}` bound at module level, or a module-level function decorated
    with `lru_cache` or `cache`."""
    caches = set()
    for path_name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Dict)
                    and not node.value.keys):
                caches.update((path_name, t.id) for t in node.targets
                              if isinstance(t, ast.Name))
            elif isinstance(node, ast.FunctionDef) and any(
                    ast.unparse(getattr(d, "func", d)).split(".")[-1]
                    in ("lru_cache", "cache") for d in node.decorator_list):
                caches.add((path_name, node.name))
    return caches


def traced_clears() -> set:
    """(file, name) of each cache that tests/command_trace.py clears before
    each `cli.main` call: `module.name.clear()` or `.cache_clear()`."""
    tree = ast.parse((ROOT / "tests" / "command_trace.py").read_text())
    [fn] = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name == "main_with_caches_cleared"]
    return {(f"{call.func.value.value.id}.py", call.func.value.attr)
            for call in ast.walk(fn) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("clear", "cache_clear")}


def test_the_command_trace_clears_every_process_wide_cache():
    # a value a cache keeps from one command would let the next command
    # skip building it, so the function-level guard would not see whether
    # a command builds it
    assert module_caches(source_trees()) == traced_clears() == {
        ("galois.py", "_GROUPS"), ("qlinalg.py", "_shared_matrix"),
        ("qlinalg.py", "_shared_complex")}


@pytest.mark.parametrize("path_name, source", [
    ("artin.py", "_CANONICAL = {}  # carrier -> its comonoid"),
    ("finsets.py", "@lru_cache(maxsize=None)\n"
                   "def _shared_set(size):\n"
                   "    return FinSet(size)"),
    ("galois.py", "@functools.cache\n"
                  "def _shared_group(table):\n"
                  "    return FiniteGroup(table)"),
], ids=["dict", "lru_cache", "cache"])
def test_a_cache_the_command_trace_misses_is_caught(path_name, source):
    trees = source_trees()
    planted = ast.parse(source).body
    trees[path_name].body.extend(planted)
    name = getattr(planted[0], "name", None) or planted[0].targets[0].id
    assert module_caches(trees) - traced_clears() == {(path_name, name)}


def test_galois_fixed_compares_set_maps_not_graphs():
    # the fixed morphisms are read back as set maps; graphs built again
    # from the equivariant maps would compare `graph_matrix` with itself
    [cli] = [p for p in SOURCES if p.name == "cli.py"]
    called = {callee.split(".")[-1] for owner, callee in calls_by_function(cli)
              if owner == "_cmd_galois_fixed"}
    assert "setmap_from_morphism" in called
    assert "graph_matrix" not in called


def test_a_groups_generators_are_found_once():
    # a group finds its generating set by closure when it is built; a G-set
    # checks its action law on value tuples, with no composite set map
    closers = {(path.name, owner) for path in SOURCES
               for owner, callee in calls_by_function(path)
               if callee.split(".")[-1] == "closure"}
    assert closers == {("galois.py", "FiniteGroup.__init__")}
    [galois] = [p for p in SOURCES if p.name == "galois.py"]
    assert {callee for owner, callee in calls_by_function(galois)
            if owner == "GSet.__init__"}.isdisjoint({"compose", "SetMap"})


def graph_term_builders(path_name: str, tree) -> set:
    """(file, enclosing function) of each dict comprehension that maps a
    computed matrix index to 1: the terms of the graph of a map."""
    return {(path_name, owner) for owner, node in nodes_in(tree)
            if isinstance(node, ast.DictComp)
            and isinstance(node.key, ast.BinOp)
            and isinstance(node.value, ast.Constant) and node.value.value == 1}


def value_tuple_enumerators(path_name: str, tree) -> set:
    """(file, enclosing function) of each `product(range(n), repeat=m)`:
    the value tuples of all maps from an m-set to an n-set."""
    return {(path_name, owner) for owner, node in nodes_in(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "product"
            and node.args and isinstance(node.args[0], ast.Call)
            and ast.unparse(node.args[0].func) == "range"
            and any(kw.arg == "repeat" for kw in node.keywords)}


def test_one_graph_builder_and_one_set_map_enumerator():
    # the solver and the fixed side of the descent comparison take their
    # graphs from `graph_matrix`, and the solver and `verify_mcffe` their
    # candidates from `map_values`; the SetMap enumerator `all_maps` is a
    # test oracle
    trees = source_trees()
    assert set().union(*(graph_term_builders(name, tree)
                         for name, tree in trees.items())) == {
        ("artin.py", "graph_matrix")}
    assert set().union(*(value_tuple_enumerators(name, tree)
                         for name, tree in trees.items())) == {
        ("finsets.py", "map_values")}
    assert list(function_definitions("all_maps")) == []
    # the guards see a second builder and the enumerator that left src/
    planted = ast.parse(
        "def solve(x, y):\n"
        "    for f in all_maps(x, y):\n"
        "        yield QMatrix(y.size, x.size,\n"
        "                      {b * x.size + a: 1\n"
        "                       for a, b in enumerate(f.values)})\n"
        "def all_maps(dom, cod):\n"
        "    for values in itertools.product(range(cod.size),\n"
        "                                    repeat=dom.size):\n"
        "        yield SetMap(dom, cod, values)")
    assert graph_term_builders("artin.py", planted) == {("artin.py", "solve")}
    assert value_tuple_enumerators("finsets.py", planted) == {
        ("finsets.py", "all_maps")}


def indenting_json_calls(path_name: str, tree) -> set:
    """(file, enclosing function) of each `json` call given an indent."""
    return {(path_name, owner) for owner, node in nodes_in(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] in (
                "dumps", "dump", "JSONEncoder")
            and any(kw.arg == "indent" for kw in node.keywords)}


def test_no_json_is_indented_by_the_pure_python_encoder():
    # any indent makes `json` encode in Python; `cli._dumps` writes the
    # same text with str.join
    trees = source_trees()
    assert set().union(*(indenting_json_calls(name, tree)
                         for name, tree in trees.items())) == set()
    # the guard sees the call the CLI used to make
    planted = ast.parse("def _emit(data):\n"
                        "    return json.dumps(data, sort_keys=True, "
                        "indent=2)")
    assert indenting_json_calls("cli.py", planted) == {("cli.py", "_emit")}


def test_readers_are_compiled_only_at_import():
    # a spec compiled inside a function would be compiled again per value
    calls = [(path.name, owner) for path in SOURCES
             for owner, callee in calls_by_function(path)
             if callee.split(".")[-1] == "compile_reader"]
    assert {name for name, owner in calls if owner is None} >= {
        "finsets.py", "galois.py", "hypercube.py", "qlinalg.py"}
    # the compiler's own recursion into nested specs runs at import too
    assert {(name, owner) for name, owner in calls
            if owner is not None} == {("_value.py", "compile_reader")}


def test_cli_builds_its_parser_only_at_import():
    [cli] = [p for p in SOURCES if p.name == "cli.py"]
    calls = list(calls_by_function(cli))
    constructors = {"ArgumentParser", "add_subparsers", "add_parser"}
    builders = {owner for owner, callee in calls
                if callee.split(".")[-1] in constructors}
    at_import = {callee for owner, callee in calls if owner is None}
    assert builders and None not in builders
    # each function that constructs a parser runs at import ...
    assert builders <= at_import
    # ... and neither main nor run constructs one or calls a builder
    for entry in ("main", "run"):
        called = {callee.split(".")[-1] for owner, callee in calls
                  if owner == entry}
        assert called.isdisjoint(builders | constructors)
    # the import binds the parser and its subcommand table, by name, to
    # what a builder returns, and main reads both
    bound = {name.id for node in ast.parse(cli.read_text()).body
             if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call)
             and ast.unparse(node.value.func) in builders
             for target in node.targets for name in ast.walk(target)
             if isinstance(name, ast.Name)}
    assert bound == {"PARSER", "SUBPARSERS"}
    read = {node.id for owner, node in nodes_by_function(cli)
            if owner == "main" and isinstance(node, ast.Name)}
    assert bound <= read
    # the table comes from the public `choices` of the subparsers
    # action, not from argparse's private attributes (`_subparsers`,
    # `_group_actions`, `_name_parser_map`, ...)
    private = {node.attr for _, node in nodes_by_function(cli)
               if isinstance(node, ast.Attribute)
               and node.attr.startswith("_")
               and not node.attr.startswith("__")}
    assert private == set()


def test_cli_declares_each_subcommand_once():
    # one table declares the subcommands: each name is one string literal,
    # one call adds every subcommand parser and one every --format, and
    # no second table maps the names to their runners
    [cli] = [p for p in SOURCES if p.name == "cli.py"]
    tree = ast.parse(cli.read_text())
    literals = collections.Counter(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert {name: literals[name] for name in SUBPARSERS} == dict.fromkeys(
        SUBPARSERS, 1)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)]
    assert [c.func.attr for c in calls].count("add_parser") == 1
    assert len([c for c in calls if c.func.attr == "add_argument"
                and isinstance(c.args[0], ast.Constant)
                and c.args[0].value == "--format"]) == 1
    assert "_COMMANDS" not in {node.id for node in ast.walk(tree)
                               if isinstance(node, ast.Name)}


def test_one_builder_places_blocks_of_total_complexes():
    # the cube's total complex and its cone come from one builder
    placers = {(path.name, owner) for path in SOURCES
               for owner, callee in calls_by_function(path)
               if callee == "_add_block"}
    assert placers == {("hypercube.py", "_total_complex")}


def test_a_cube_edge_is_no_value_of_its_own():
    # an edge is the dict of its nonzero blocks, whose shapes the cube
    # checks: the one class of hypercube.py is the cube, no dataclass, and
    # reading a cube file builds no value per edge, only the cube, once
    values = {node.name for _, node in class_definitions()
              if any(ast.unparse(base) == "Value" for base in node.bases)}
    assert {"CubeDiagram", "ChainComplex", "QMatrix"} <= values
    assert [node.name for path_name, node in class_definitions()
            if path_name == "hypercube.py"] == ["CubeDiagram"]
    [hypercube] = [p for p in SOURCES if p.name == "hypercube.py"]
    assert "dataclass" not in hypercube.read_text()
    built = [(owner, callee) for owner, callee in calls_by_function(hypercube)
             if owner is not None
             and (owner == "_edges" or owner.startswith("CubeDiagram.from_json"))
             and callee.split(".")[-1] in values]
    assert built == [("CubeDiagram.from_json", "CubeDiagram")]
    # ... and no loop in the reader runs that one call twice
    [reader] = [fn for p, fn in function_definitions("from_json")
                if p == "hypercube.py"]
    assert not [node for node in ast.walk(reader)
                if isinstance(node, (ast.For, ast.comprehension))]


def test_squares_are_composed_only_when_a_cube_is_built():
    # a cube checks its squares, those at the ambient corner too, as the
    # d o d = 0 of the one total complex it builds; the colimits return it
    builders = {(path.name, owner) for path in SOURCES
                for owner, callee in calls_by_function(path)
                if callee == "_total_complex"}
    assert builders == {("hypercube.py", "CubeDiagram.__init__")}
    # no function composes two edges, and no chain map is checked on its
    # own: the one product in hypercube.py is d o d of a total complex
    # that failed its check, to name the failing edge or square
    [hypercube] = [p for p in SOURCES if p.name == "hypercube.py"]
    calls = list(calls_by_function(hypercube))
    products = {owner for owner, callee in calls
                if callee in ("product_terms", "matmul")}
    assert products == {"_failing_member"}
    assert {owner for owner, callee in calls
            if callee == "_failing_member"} == {"_total_complex"}
    # ... called only in the handler of the failed check
    [(_, total)] = function_definitions("_total_complex")
    handled = {id(node) for handler in ast.walk(total)
               if isinstance(handler, ast.ExceptHandler)
               for node in ast.walk(handler)}
    assert all(id(node) in handled for node in ast.walk(total)
               if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "_failing_member")
    colimits = ("ks_hocolim", "punctured_cube_hocolim")
    for name in colimits:
        [(_, fn)] = function_definitions(name)
        callees = {ast.unparse(node.func) for node in ast.walk(fn)
                   if isinstance(node, ast.Call)}
        assert callees.isdisjoint({"_total_complex", "_add_block",
                                   "single_degree_complex", "ChainComplex",
                                   *colimits})
        # no loop: the cube's constructor checked every edge and square
        assert not [node for node in ast.walk(fn)
                    if isinstance(node, (ast.For, ast.comprehension))]
    assert not [node for node in ast.walk(total) if isinstance(node, ast.Call)
                and ast.unparse(node.func).endswith(".dim")]


def source_trees() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in SOURCES}


def reads(node) -> tuple:
    """(names read as variables, names read as attributes) under `node`.
    A variable the node binds itself, as a parameter or as the target of
    an assignment, a loop or a comprehension, is local: reading it reads
    no definition of the same name."""
    nodes = list(ast.walk(node))
    local = {n.arg for n in nodes if isinstance(n, ast.arg)}
    local |= {n.id for n in nodes
              if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    return ({n.id for n in nodes if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load) and n.id not in local},
            {n.attr for n in nodes if isinstance(n, ast.Attribute)
             and isinstance(n.ctx, ast.Load)})


def definitions(trees):
    """(file, name, what it reads) for every top-level function, class
    and name an assignment binds, and as (file, "Class.method", ...) for
    every method not named like __init__.  A class reads what its bases,
    decorators, class-level statements and __dunder__ methods read."""
    for path_name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield path_name, node.name, [node]
            elif isinstance(node, ast.ClassDef):
                named = [m for m in node.body if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("__")]
                yield path_name, node.name, [
                    *node.bases, *node.keywords, *node.decorator_list,
                    *(stmt for stmt in node.body if stmt not in named)]
                for m in named:
                    yield path_name, f"{node.name}.{m.name}", [m]
            elif isinstance(node, ast.Assign):
                # `a, b = f()` defines both names, each reading f()
                for target in node.targets:
                    for name in ast.walk(target):
                        if (isinstance(name, ast.Name)
                                and isinstance(name.ctx, ast.Store)
                                and not name.id.startswith("__")):
                            yield path_name, name.id, [node.value]


def unreached(trees=None) -> list:
    """The (file, name) of each definition that `cli.main` does not reach.

    A top-level definition is reached when reached code reads its name as
    a variable, and a method when its class is reached and reached code
    reads its name as an attribute, such as `g.mul`.  Names are matched
    across files, as `from .x import y` binds them."""
    defs = list(definitions(trees or source_trees()))
    reached, names, attrs = set(), set(), set()

    def is_read(path_name, cls, dot, name):
        if not dot:
            return name in names
        return (path_name, cls) in reached and name in attrs
    new = {("cli.py", "main")}
    while new:
        reached |= new
        for path_name, name, nodes in defs:
            if (path_name, name) in new:
                for node in nodes:
                    variables, attributes = reads(node)
                    names |= variables
                    attrs |= attributes
        new = {(path_name, name) for path_name, name, _ in defs
               if (path_name, name) not in reached
               and is_read(path_name, *name.rpartition("."))}
    return [(path_name, name) for path_name, name, _ in defs
            if (path_name, name) not in reached]


def test_every_function_runs_under_a_command(command_trace):
    # the golden argvs, the CLI error rows and the single-field mutations,
    # each run through `cli.main` with the caches cleared, run every
    # function, method and lambda of the library (tests/command_trace.py)
    assert len(command_trace["defined"]) > 100
    assert never_run(command_trace) == []


def own_lines(node) -> set:
    """The lines of a statement that none of its inner statements holds:
    a compound statement's header (with its decorators), or all the lines
    of a simple one."""
    start = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", ())])
    lines = set(range(start, node.end_lineno + 1))
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, field, ()):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def is_main_block(node) -> bool:
    return (isinstance(node, ast.If)
            and ast.unparse(node.test) == "__name__ == '__main__'")


def statement_lines(paths=SOURCES) -> dict:
    """{(file, owner, first source line): own lines} of every statement of
    the library's modules that runs code, exempt ones left out.  Exempt
    are what the function guard exempts (`__repr__` bodies, `Value`'s
    refusals of assignment), `__main__.py` and the `__main__` blocks, and
    docstrings, which compile to no code."""
    found = {}
    for path in paths:
        if path.name == "__main__.py":
            continue
        text = path.read_text()
        source, tree = text.splitlines(), ast.parse(text)
        exempt = {id(inner) for node in ast.walk(tree) if is_main_block(node)
                  for inner in ast.walk(node) if inner is not node}
        for owner, node in nodes_in(tree):
            if (not isinstance(node, ast.stmt) or id(node) in exempt
                    or (owner or "").endswith(".__repr__")
                    or owner in ("Value.__setattr__", "Value.__delattr__")
                    or (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Constant)
                        and type(node.value.value) is str)):
                continue
            key = (path.name, owner, source[node.lineno - 1].strip())
            found.setdefault(key, set()).update(own_lines(node))
    return found


def statements_no_command_runs(trace: dict, paths=SOURCES) -> set:
    """(file, owner, first line) of each statement of the library, not
    exempt, that no command ran."""
    return {key for key, lines in statement_lines(paths).items()
            if not lines & set(trace["lines"].get(key[0], ()))}


# The statements that no command runs, each a refusal that only a direct
# caller of the library can meet (a check the caller has made already,
# or one a command's input never reaches) or a self-check that no input
# can fire: (file, enclosing function, the statement's first line, the
# test that makes it run, by its node id or one that every parametrised
# case extends).  Any other statement runs under a command row, or goes.
LIBRARY_GUARDS = [
    ("artin.py", "coalgebra_morphism_violations",
     'raise ValueError(f"morphism matrix must be {y.size} x {x.size}")',
     "tests/test_artin.py::TestMorphismChecking::test_shape_mismatch"),
    ("artin.py", "CoalgMorphism.__init__",
     'raise ValueError(f"not a comonoid morphism: fails {violations}")',
     "tests/test_artin.py::TestMorphismChecking::"
     "test_a_failing_matrix_is_no_morphism"),
    ("artin.py", "setmap_from_morphism",
     'raise ValueError("matrix is not the graph of a set map")',
     "tests/test_artin.py::TestGraphBijection::test_non_graph_rejected"),
    # the solver's self-check: a command exits 1 once a fault is planted
    ("artin.py", "solve_coalgebra_morphisms",
     'raise AssertionError("graph candidate unexpectedly rejected")',
     "tests/test_cli.py::TestDescentFaultsFail::"
     "test_the_solver_refuses_a_rejected_graph"),
    # a diagram a file describes is chained by its reader first
    ("finsets.py", "FinDiagram.__init__",
     'raise ValueError("empty diagram has no maps")',
     "tests/test_finsets.py::TestFinDiagram::test_a_broken_chain_is_refused"),
    ("finsets.py", "FinDiagram.__init__",
     'raise ValueError("need exactly k-1 maps for k sets")',
     "tests/test_finsets.py::TestFinDiagram::test_a_broken_chain_is_refused"),
    ("finsets.py", "FinDiagram.__init__",
     'raise ValueError(f"map {i} does not chain sets {i} -> {i+1}")',
     "tests/test_finsets.py::TestFinDiagram::test_a_broken_chain_is_refused"),
    ("finsets.py", "FinDiagram.relabel",
     'raise ValueError("need one permutation per set")',
     "tests/test_finsets.py::TestFinDiagram::"
     "test_relabel_needs_one_permutation_per_set"),
    # a file's action is read as maps of the carrier
    ("galois.py", "GSet.__init__",
     'raise ValueError("action maps must be endomaps of the carrier")',
     "tests/test_galois.py::TestGSet::"
     "test_an_action_map_off_the_carrier_is_refused"),
    # `hocolim` picks the colimit by the cube's shape
    ("hypercube.py", "punctured_cube_hocolim",
     'raise ValueError("the cube has an ambient: its colimit is ks_hocolim")',
     "tests/test_hypercube.py::TestCubeDiagram::"
     "test_each_colimit_rejects_the_other_shape"),
    ("hypercube.py", "ks_hocolim",
     'raise ValueError("the cube has no ambient at the empty vertex")',
     "tests/test_hypercube.py::TestCubeDiagram::"
     "test_each_colimit_rejects_the_other_shape"),
    # the census assembles only multisets of its own walk
    ("monad.py", "assemble",
     'raise ValueError("entry longer than the ambient length")',
     "tests/test_monad.py::TestAssemble::test_entry_longer_than_k_rejected"),
    ("monad.py", "assemble",
     'raise ValueError("no full-length entry: leading level would be empty")',
     "tests/test_monad.py::TestAssemble::test_empty_multiset_rejected"),
    # a file's entries are read as integers or rational strings first
    ("qlinalg.py", "_frac",
     'raise TypeError(f"not an exact rational: {x!r}")',
     "tests/test_qlinalg.py::TestQMatrix::test_floats_rejected"),
    ("qlinalg.py", "QMatrix.__init__",
     'raise ValueError("term index out of range")',
     "tests/test_qlinalg.py::TestTerms::"
     "test_a_term_index_out_of_range_is_refused"),
    # a cube checks its blocks' shapes before it composes them
    ("qlinalg.py", "product_terms",
     'raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times '
     '{b.rows}x{b.cols}")',
     "tests/test_qlinalg.py::TestProductTerms::test_shape_mismatch"),
    # class 0 keeps only the one-hot rows, which pass every class
    ("resolution.py", "cofaces_agree", "return False",
     "tests/test_resolution.py::TestCofaces::"
     "test_a_row_summing_to_one_can_fail_a_higher_class"),
]


def test_every_statement_runs_under_a_command_or_is_a_registered_guard(
        command_trace):
    # the line-level guard: what no command row runs is a registered
    # library guard, and a registered guard is no line a command runs
    assert len(statement_lines()) > 1000
    assert statements_no_command_runs(command_trace) == {
        entry[:3] for entry in LIBRARY_GUARDS}


def test_each_registered_guard_runs_under_its_test(command_trace):
    lines = statement_lines()
    silent = []
    for path_name, owner, text, test in LIBRARY_GUARDS:
        ran = set().union(*(found.get(path_name, ())
                            for node_id, found in
                            command_trace["by_test"].items()
                            if node_id == test
                            or node_id.startswith((test + "::", test + "["))))
        if not lines[path_name, owner, text] & ran:
            silent.append((path_name, owner, text, test))
    assert silent == []


def test_a_function_no_command_runs_is_caught(tmp_path):
    # planted in a copy of the checkout: a function nothing calls, and a
    # writer that only a test calls, outside `cli.main`; the static guard
    # sees only the function, since reached code reads `to_json`.  The
    # line guard sees their bodies, a `raise` after a `return` of a
    # function a command runs, and a branch that no row takes
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    package = tmp_path / "src" / "motivic_kit"
    with open(package / "hypercube.py", "a") as fh:
        fh.write("\n\ndef planted_function(n):\n    return n\n")
    qlinalg = package / "qlinalg.py"
    text = qlinalg.read_text()
    anchor = '    __slots__ = ("lo", "hi", "dims", "differentials")\n'
    assert text.count(anchor) == 1
    qlinalg.write_text(text.replace(anchor, anchor + (
        "\n    def to_json(self):\n        return {\"lo\": self.lo}\n")))
    finsets = package / "finsets.py"
    text = finsets.read_text()
    anchors = ["        return (self.sizes(), fibers, values)\n",
               "        sizes = [0] * self.cod.size\n"]
    assert [text.count(anchor) for anchor in anchors] == [1, 1]
    finsets.write_text(text.replace(anchors[0], anchors[0] + (
        "        raise AssertionError(\"unreachable\")\n")).replace(
        anchors[1], anchors[1] + (
            "        if not sizes:  # a codomain is never empty\n"
            "            return ()\n")))
    (tmp_path / "tests" / "test_planted.py").write_text(
        "from motivic_kit.qlinalg import single_degree_complex\n\n\n"
        "def test_calls_the_writer():\n"
        "    assert single_degree_complex(2).to_json() == {\"lo\": 0}\n")
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in package.glob("*.py")}
    assert unreached(trees) == [("hypercube.py", "planted_function")]
    trace = run_command_trace(tmp_path, tmp_path / "out.json",
                              "tests/test_planted.py")
    assert never_run(trace) == ["hypercube.py:planted_function",
                                "qlinalg.py:ChainComplex.to_json"]
    unregistered = statements_no_command_runs(
        trace, sorted(package.glob("*.py"))) - {
            entry[:3] for entry in LIBRARY_GUARDS}
    assert unregistered == {
        ("hypercube.py", "planted_function", "return n"),
        ("qlinalg.py", "ChainComplex.to_json", 'return {"lo": self.lo}'),
        ("finsets.py", "FinDiagram.encoding",
         'raise AssertionError("unreachable")'),
        ("finsets.py", "SetMap.fiber_sizes", "return ()")}


def test_every_definition_is_reached_from_cli_main():
    # code that only the tests call belongs in tests/helpers
    assert unreached() == []


# definitions that only the tests reached, put back where they stood:
# (file, enclosing class or None, name, source)
ONLY_TESTS_REACHED = [
    ("hypercube.py", None, "ID0", 'ID0 = "id0"'),
    ("hypercube.py", None, "psi",
     "def psi(n, subset):\n"
     "    return tuple(1 if i in subset else 0 for i in range(n))"),
    ("resolution.py", None, "CofaceMap",
     "class CofaceMap:\n"
     "    def __init__(self, level, index):\n"
     "        self.level, self.index = level, index"),
    ("artin.py", None, "counit_matrix",
     "def counit_matrix(n):\n"
     "    return QMatrix(1, n, [1] * n)"),
    ("qlinalg.py", "QMatrix", "scale",
     "def scale(self, c):\n"
     "    return QMatrix(self.rows, self.cols,\n"
     "                   (c * a for a in self.entries))"),
    ("hypercube.py", "CubeDiagram", "vertex_map",
     "def vertex_map(self):\n"
     "    return dict(self.vertices)"),
    # a local `inv` in finsets.py is no read of the method
    ("galois.py", "FiniteGroup", "inv",
     "def inv(self, g):\n"
     "    return self.table[g].index(self.identity)"),
    ("qlinalg.py", None, "kernel_basis",
     "def kernel_basis(a):\n"
     "    m, pivots = _row_echelon(a)\n"
     "    free = [c for c in range(a.cols) if c not in pivots]\n"
     "    return QMatrix(a.cols, len(free), [\n"
     "        (i == f) - (m[pivots.index(i)][f] if i in pivots else 0)\n"
     "        for i in range(a.cols) for f in free])"),
    # the loop variable `level` in finsets.automorphism_group is local
    ("resolution.py", None, "level",
     "def level(k, x, y, bound):\n"
     "    return TowerLevel(k, x.size, y.size, bound, {})"),
    # ChainComplex.homology_dims is read as an attribute, not as a name
    ("qlinalg.py", None, "homology_dims",
     "def homology_dims(c):\n"
     "    return c.homology_dims()"),
    ("qlinalg.py", "QMatrix", "zeros",
     "@staticmethod\n"
     "def zeros(rows, cols):\n"
     "    return QMatrix(rows, cols, [0] * (rows * cols))"),
    # the oracle of the naturality check, kept in tests/helpers
    ("finsets.py", None, "compose",
     "def compose(f, g):\n"
     "    return SetMap(f.dom, g.cod, (g.values[v] for v in f.values))"),
    # the SetMap enumerator, kept in tests/helpers as an oracle
    ("finsets.py", None, "all_maps",
     "def all_maps(dom, cod):\n"
     "    for values in map_values(dom, cod):\n"
     "        yield SetMap(dom, cod, values)"),
    # its own read of `g.inverse` does not reach it
    ("finsets.py", "PermGroup", "inverse",
     "def inverse(self):\n"
     "    return PermGroup(self.degrees,\n"
     "                     tuple(g.inverse() for g in self.generators),\n"
     "                     self.order)"),
]


@pytest.mark.parametrize("path_name,cls,name,source", ONLY_TESTS_REACHED,
                         ids=[case[2] for case in ONLY_TESTS_REACHED])
def test_a_definition_only_the_tests_reach_is_caught(path_name, cls, name,
                                                     source):
    trees = source_trees()
    body = trees[path_name].body
    if cls is not None:
        body = next(node for node in body if isinstance(node, ast.ClassDef)
                    and node.name == cls).body
    body.extend(ast.parse(source).body)
    assert unreached(trees) == [(path_name,
                                 f"{cls}.{name}" if cls else name)]
