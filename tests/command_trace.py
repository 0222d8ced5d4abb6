"""Which functions of the library the commands run: the suite's CLI rows
under `sys.setprofile`.

    python tests/command_trace.py OUT.json [pytest node id ...]

The profiler is set before `motivic_kit` is imported, so the calls its
modules make at import (`build_parser`, `compile_reader`) count.  Then
pytest runs the golden invocations, the error rows and the single-field
mutations, each of which calls `cli.main`, and any further tests named.
Only the calls made inside `cli.main`, or while a module of the package
is imported, count: a test that calls a library function itself runs it
for no command.  Each `cli.main` call starts with the process-wide
caches of checked values cleared, so that the first build of every value
runs under a command.  OUT.json receives {"defined": [...], "ran": [...]}:
the functions, lambdas and methods defined in the package, and those of
them that ran, each as [module file name, qualified name, first line].
The exit status is pytest's.
"""

import importlib.util
import inspect
import json
import os
import sys

ROWS = ["tests/test_golden.py::test_stdout_matches_golden_digest",
        "tests/test_cli.py::TestErrors",
        "tests/test_cli.py::test_single_field_mutation_names_file_and_field"]

PACKAGE = os.path.dirname(importlib.util.find_spec("motivic_kit").origin)
RAN = set()  # the code objects of the package run under a command
ENTERED = []  # the frames of cli.main and of module bodies now running
IN_PACKAGE = {}  # file name -> whether it is a module of the package


def _counts(code) -> bool:
    """Whether a call of `code` runs the package for a command or an import."""
    return (code.co_name == "<module>"
            or (code.co_name == "main"
                and os.path.basename(code.co_filename) == "cli.py"))


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        inside = IN_PACKAGE.get(code.co_filename)
        if inside is None:
            inside = IN_PACKAGE[code.co_filename] = (
                os.path.dirname(code.co_filename) == PACKAGE)
        if not inside:
            return
        if _counts(code):
            ENTERED.append(frame)
        if ENTERED:
            RAN.add(code)
    elif event == "return" and ENTERED and frame is ENTERED[-1]:
        ENTERED.pop()


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


def main(out_path, *node_ids):
    sys.setprofile(profile)
    import pytest
    from motivic_kit import artin, cli, galois, qlinalg

    command = cli.main

    def main_with_caches_cleared(argv=None):
        artin._CANONICAL.clear()
        galois._GROUPS.clear()
        qlinalg._EMPTY.clear()
        return command(argv)
    cli.main = main_with_caches_cleared
    status = pytest.main(["-q", "-p", "no:cacheprovider", *ROWS, *node_ids])
    sys.setprofile(None)
    defined = [fn for code in RAN if code.co_name == "<module>"
               for fn in functions(code)]

    def name(fn):
        return [os.path.basename(fn.co_filename), fn.co_qualname,
                fn.co_firstlineno]
    with open(out_path, "w") as fh:
        json.dump({"defined": sorted(map(name, defined)),
                   "ran": sorted(name(fn) for fn in defined if fn in RAN)},
                  fh)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
