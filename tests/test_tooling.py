"""Repository-wide checks: a stdlib-only runtime and a resolvable API."""

import ast
import sys
from pathlib import Path

import motivic_kit

SOURCES = sorted((Path(motivic_kit.__file__).parent).glob("*.py"))


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


def test_every_exported_name_resolves():
    missing = [name for name in motivic_kit.__all__
               if not hasattr(motivic_kit, name)]
    assert missing == []
