"""Which functions and lines of the library the commands run: the suite's
CLI rows under `sys.settrace`.

    python tests/command_trace.py OUT.json [pytest node id ...]

The tracer is set before `motivic_kit` is imported, so the calls its
modules make at import (`build_parser`, `compile_reader`) count.  Then
pytest runs the rows (the golden invocations, the error rows, the
single-field mutations and the refusal of two G-sets over different
tables), each of which calls `cli.main`, and then any further tests
named.  Only what a row runs inside `cli.main`, or what runs while a
module of the package is imported, counts as run by a command: a row
that calls a library function itself runs it for no command, and a
further test, which may patch the library to plant a fault, runs
nothing for a command.  Each `cli.main` call starts with the
process-wide caches of checked values cleared, so that the first build
of every value runs under a command.  OUT.json receives

    {"defined": [...], "ran": [...], "lines": {...}, "by_test": {...}}

"defined" and "ran" are the functions, lambdas and methods defined in
the package and those of them that ran, each as [module file name,
qualified name, first line]; "lines" maps each module file name to the
lines run under a command; "by_test" maps the node id of each further
test to the lines of the package it ran, under a command or not, as
{file name: [line, ...]}.  The exit status is pytest's.
"""

import importlib.util
import inspect
import json
import os
import sys

ROWS = ["tests/test_golden.py::test_stdout_matches_golden_digest",
        "tests/test_cli.py::TestErrors",
        "tests/test_cli.py::test_single_field_mutation_names_file_and_field",
        "tests/test_cli.py::TestGroupTablesCheckedOnce::"
        "test_gsets_over_different_tables_still_differ"]

PACKAGE = os.path.dirname(importlib.util.find_spec("motivic_kit").origin)
RAN = set()  # the code objects of the package run under a command
LINES = set()  # (file, line) of the package run under a command
BY_TEST = {}  # further test's node id -> the (file, line) it ran
TEST = [None, True]  # the test now running, and whether it is a row
ENTERED = []  # the frames of cli.main and of module bodies now running
IN_PACKAGE = {}  # file name -> whether it is a module of the package


def _counts(code) -> bool:
    """Whether a call of `code` runs the package for a command or an import."""
    return (code.co_name == "<module>"
            or (code.co_name == "main"
                and os.path.basename(code.co_filename) == "cli.py"))


def trace(frame, event, arg):
    """The global tracer: a frame of the package gets the line tracer."""
    code = frame.f_code
    inside = IN_PACKAGE.get(code.co_filename)
    if inside is None:
        inside = IN_PACKAGE[code.co_filename] = (
            os.path.dirname(code.co_filename) == PACKAGE)
    if not inside:
        return None
    if _counts(code):
        ENTERED.append(frame)
    if ENTERED and TEST[1]:
        RAN.add(code)
    return lines


def lines(frame, event, arg):
    """The line tracer of a frame of the package."""
    if event == "line":
        if not TEST[1]:
            BY_TEST[TEST[0]].add((frame.f_code.co_filename, frame.f_lineno))
        elif ENTERED:
            LINES.add((frame.f_code.co_filename, frame.f_lineno))
    elif event == "return" and ENTERED and frame is ENTERED[-1]:
        ENTERED.pop()
    return lines


class CurrentTest:
    """A pytest plugin keeping the test now running, and whether it is a
    row (a node id in ROWS, or one of the tests below it)."""

    def pytest_runtest_logstart(self, nodeid, location):
        row = any(nodeid == r or nodeid.startswith((r + "::", r + "["))
                  for r in ROWS)
        TEST[:] = nodeid, row
        if not row:
            BY_TEST.setdefault(nodeid, set())

    def pytest_runtest_logfinish(self, nodeid, location):
        TEST[:] = None, True


def functions(code):
    """The functions and lambdas defined in a code object, nested ones too;
    class bodies are walked into, comprehensions are no definitions."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if (const.co_flags & inspect.CO_OPTIMIZED
                    and (const.co_name == "<lambda>"
                         or not const.co_name.startswith("<"))):
                yield const
            yield from functions(const)


def by_file(pairs) -> dict:
    """{module file name: sorted lines} of (file, line) pairs."""
    out = {}
    for path, line in pairs:
        out.setdefault(os.path.basename(path), []).append(line)
    return {name: sorted(found) for name, found in sorted(out.items())}


def main(out_path, *node_ids):
    sys.settrace(trace)
    import pytest
    from motivic_kit import cli, galois, qlinalg

    command = cli.main

    def main_with_caches_cleared(argv=None):
        galois._GROUPS.clear()
        qlinalg._shared_matrix.cache_clear()
        qlinalg._shared_complex.cache_clear()
        return command(argv)
    cli.main = main_with_caches_cleared
    status = pytest.main(["-q", "-p", "no:cacheprovider", *ROWS, *node_ids],
                         plugins=[CurrentTest()])
    sys.settrace(None)
    defined = [fn for code in RAN if code.co_name == "<module>"
               for fn in functions(code)]

    def name(fn):
        return [os.path.basename(fn.co_filename), fn.co_qualname,
                fn.co_firstlineno]
    with open(out_path, "w") as fh:
        json.dump({"defined": sorted(map(name, defined)),
                   "ran": sorted(name(fn) for fn in defined if fn in RAN),
                   "lines": by_file(LINES),
                   "by_test": {test: by_file(found)
                               for test, found in sorted(BY_TEST.items())}},
                  fh)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
