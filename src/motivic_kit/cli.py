"""Batch command-line front end: every verification as a subcommand.

All output is deterministic (sorted keys, fixed orders), so repeated runs
with the same configuration produce byte-identical bytes.  Exit status 0
means every assertion of the invoked command passed; 1 reports a failed
verification, 2 a bad configuration or input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .artin import (setmap_from_morphism, solve_coalgebra_morphisms,
                    verify_mcffe)
from .finsets import FinDiagram, FinSet, automorphism_group
from .galois import GSet, equivariant_set_maps, fixed_coalgebra_morphisms
from .hypercube import hocolim_from_json
from .monad import enumerate_diagrams, verify_m_identity
from .resolution import verify_mdffe

DEFAULT_MAX_SIZE = 6


def _max_size_from_env() -> int:
    text = os.environ.get("MOTIVIC_KIT_MAX_SIZE", str(DEFAULT_MAX_SIZE))
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise ValueError(f"MOTIVIC_KIT_MAX_SIZE must be a positive integer, "
                     f"got {text!r}")


def _check_sizes(what: str, values, limit: int):
    """Reject any value above the safety limit."""
    for v in values:
        if v > limit:
            raise ValueError(f"{what} {v} exceeds the safety limit {limit} "
                             "(override with MOTIVIC_KIT_MAX_SIZE)")


def _check_limits(args, limit: int):
    """Bound the numeric arguments of any subcommand from both sides.

    Only the arguments the subcommand has are checked; --bound counts with
    its default 2 where it exists.
    """
    bounds = getattr(args, "bounds", ())
    if any(b < 1 for b in bounds):
        raise ValueError(f"--bounds entries must be >= 1 (sets are "
                         f"nonempty), got {','.join(map(str, bounds))}")
    sizes = [getattr(args, name) for name in ("x", "y", "k", "bound")
             if hasattr(args, name)]
    _check_sizes("size bound", [*sizes, *bounds], limit)


def _dumps(value, indent="\n") -> str:
    """The text of `json.dumps(value, sort_keys=True, indent=2)` for the
    values commands emit: nonempty dicts with str keys, lists, str, int,
    bool and None.

    Given an indent, `json.dumps` runs its pure-Python encoder; this one
    joins the parts of each container with `str.join`.  `indent` is the
    newline and the spaces that start a line at the value's depth.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return ("[" + inner + ("," + inner).join(
            [_dumps(v, inner) for v in value]) + indent + "]")
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        inner = indent + "  "
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(key) + ": " + _dumps(v, inner)
             for key, v in sorted(value.items())]) + indent + "}")
    return _LITERALS[value]


_LITERALS = {None: "null", True: "true", False: "false"}


def _emit(args, table, data) -> str:
    """The report in the format asked for: `table` returns its lines and
    `data` its JSON value, and only the one asked for is called."""
    if args.format == "json":
        return _dumps(data())
    return "\n".join(table())


def _read(path: str, reader):
    """`reader` applied to the JSON object in file `path`; an error in the
    file's content, or nesting too deep to read, has the path in front."""
    with open(path) as fh:
        try:
            return reader(json.load(fh))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _class_json(encoding) -> dict:
    """A class as the diagram file `aut` reads: its sets and maps."""
    sizes, _, values = encoding
    return {"sets": [{"size": n} for n in sizes],
            "maps": [{"dom": dom, "cod": cod, "values": list(v)}
                     for dom, cod, v in zip(sizes, sizes[1:], values)]}


def _cmd_enumerate_diagrams(args):
    encodings, orders = enumerate_diagrams(args.k, args.bounds)

    def table():
        for i, ((sizes, _, values), aut) in enumerate(zip(encodings, orders)):
            maps = " ".join(str(list(v)) for v in values)
            yield (f"{i}: sizes={','.join(map(str, sizes))} "
                   f"maps={maps or '-'} |Aut|={aut}")
        yield f"classes: {len(encodings)}"
    return 0, _emit(args, table, lambda: {
        "k": args.k, "bounds": list(args.bounds), "count": len(encodings),
        "classes": [_class_json(e) for e in encodings]})


def _cmd_aut(args):
    d = _read(args.diagram_path, FinDiagram.from_json)
    _check_sizes("input set of size", d.sizes(), _max_size_from_env())
    group = automorphism_group(d)

    def table():
        yield f"degrees: {','.join(str(n) for n in group.degrees)}"
        yield f"order: {group.order}"
        yield f"generators: {len(group.generators)}"
        for g in group.generators:
            yield "  " + " ".join(str(list(c.values)) for c in g.components)
    return 0, _emit(args, table, group.to_json)


def _cmd_solve_comonoid(args):
    x, y = FinSet(args.x), FinSet(args.y)
    morphisms = solve_coalgebra_morphisms(x, y)
    expected = y.size ** x.size
    ok = len(morphisms) == expected

    def table():
        yield f"morphisms: {len(morphisms)} (expected {expected})"
        for c in morphisms if args.show_matrices else ():
            yield "  " + json.dumps(c.matrix.to_json()["entries"])
        yield "PASS" if ok else "FAIL"
    return (0 if ok else 1), _emit(args, table, lambda: {
        "x": args.x, "y": args.y, "count": len(morphisms),
        "expected": expected, "passed": ok,
        **({"matrices": [c.matrix.to_json() for c in morphisms]}
           if args.show_matrices else {})})


def _cmd_galois_fixed(args):
    x = _read(args.x_path, GSet.from_json)
    y = _read(args.y_path, GSet.from_json)
    _check_sizes("input set of size", [x.carrier.size, y.carrier.size],
                 _max_size_from_env())
    maps = equivariant_set_maps(x, y)
    fixed = fixed_coalgebra_morphisms(x, y)
    ok = ({setmap_from_morphism(c).values for c in fixed}
          == {f.values for f in maps})
    return (0 if ok else 1), _emit(args, lambda: [
        f"equivariant maps: {len(maps)}",
        f"fixed comonoid morphisms: {len(fixed)}", "PASS" if ok else "FAIL"],
        lambda: {"equivariant_maps": len(maps),
                 "fixed_morphisms": len(fixed), "passed": ok})


def _cmd_verify_monad(args):
    report = verify_m_identity(args.k, args.bounds)

    def table():
        for row in report.rows:
            sizes, fibers, values = row.encoding
            yield (f"sizes={','.join(str(s) for s in sizes)} "
                   f"maps={list(values)} |Aut|={row.aut_order} "
                   f"wreath={row.wreath_count} "
                   f"preimage={[list(s) for s in row.preimage_sizes]}")
        yield (f"k={report.k} bounds={list(report.bounds)}: "
               f"{report.assembled_classes} assembled classes = "
               f"{report.enumerated_classes} enumerated, "
               f"{'PASS' if report.passed else 'FAIL'}")
    return (0 if report.passed else 1), _emit(args, table, lambda: {
        "k": report.k, "bounds": list(report.bounds),
        "assembled_classes": report.assembled_classes,
        "enumerated_classes": report.enumerated_classes,
        "passed": report.passed,
        "rows": [{"sizes": list(r.encoding[0]),
                  "aut_order": r.aut_order,
                  "wreath": r.wreath_count,
                  "preimage_sizes": [list(s) for s in r.preimage_sizes]}
                 for r in report.rows]})


def _cmd_hocolim(args):
    total = _read(args.diagram_path, hocolim_from_json)
    hom = total.homology_dims()
    return 0, _emit(
        args, lambda: [" ".join(f"H{n}={hom[n]}" for n in sorted(hom))],
        lambda: {"homology": {str(n): hom[n] for n in sorted(hom)},
                 "euler_characteristic": total.euler_characteristic()})


def _cmd_verify_mcffe(args):
    report = verify_mcffe(FinSet(args.x), FinSet(args.y))
    return (0 if report.passed else 1), _emit(args, lambda: [
        f"{report.morphism_count} = {report.setmap_count}, "
        + ("PASS" if report.passed else "FAIL")], lambda: {
        "x": report.x_size, "y": report.y_size,
        "morphisms": report.morphism_count,
        "set_maps": report.setmap_count, "passed": report.passed})


def _cmd_verify_mdffe(args):
    report = verify_mdffe(FinSet(args.x), FinSet(args.y), bound=args.bound)
    return (0 if report.passed else 1), _emit(args, lambda: [
        f"equalizer (bound {args.bound}): {report.equalizer_count}",
        f"equalizer (bound {args.bound + 1}): {report.recheck_count}",
        f"transposed comonoid morphisms: {report.transposed_morphism_count}",
        f"set maps: {report.setmap_count}",
        "PASS" if report.passed else "FAIL"], lambda: {
        "x": report.x_size, "y": report.y_size,
        "equalizer": report.equalizer_count,
        "equalizer_recheck": report.recheck_count,
        "transposed_morphisms": report.transposed_morphism_count,
        "set_maps": report.setmap_count, "passed": report.passed})


def bounds(text: str) -> tuple:
    """--bounds "2,3" as (2, 3); argparse's error texts name it."""
    return tuple(int(v) for v in text.split(","))


# options that subcommands share, as `add_argument` keywords
_XY = {"--x": dict(type=int, required=True),
       "--y": dict(type=int, required=True)}
_CENSUS = {"--k": dict(type=int, required=True),
           "--bounds": dict(type=bounds, required=True)}
_DIAGRAM = {"--diagram": dict(dest="diagram_path", required=True)}
_GSET = dict(required=True, help="G-set JSON file")

# each subcommand: its runner, its help and its options in usage order;
# every subcommand also takes --format, added last
_SUBCOMMANDS = {
    "enumerate-diagrams": (_cmd_enumerate_diagrams,
                           "census of diagram classes within bounds", _CENSUS),
    "aut": (_cmd_aut, "automorphism group of a diagram file", _DIAGRAM),
    "solve-comonoid": (_cmd_solve_comonoid,
                       "all comonoid morphisms between two sets",
                       {**_XY, "--show-matrices": dict(action="store_true")}),
    "galois-fixed": (_cmd_galois_fixed,
                     "equivariant maps vs group-fixed morphisms",
                     {"--x": dict(_GSET, dest="x_path"),
                      "--y": dict(_GSET, dest="y_path")}),
    "verify-monad": (_cmd_verify_monad,
                     "multiset assembly census against enumeration", _CENSUS),
    "hocolim": (_cmd_hocolim,
                "homology of the total complex of a cube file", _DIAGRAM),
    "verify-mcffe": (_cmd_verify_mcffe, "comonoid morphisms = set maps", _XY),
    "verify-mdffe": (_cmd_verify_mdffe, "cosimplicial equalizer = set maps",
                     {**_XY, "--bound": dict(type=int, default=2)}),
}


def run(args):
    """Execute one parsed command line; returns (exit status, report text).

    The safety limit is read from MOTIVIC_KIT_MAX_SIZE here, so a bad value
    is reported like any other configuration error: as `error: <text>`,
    or as the object {"error": <text>} under `--format json`.
    """
    try:
        _check_limits(args, _max_size_from_env())
        return args.runner(args)
    except (ValueError, OSError) as exc:
        return 2, _emit(args, lambda: [f"error: {exc}"],
                        lambda: {"error": str(exc)})


def build_parser() -> tuple:
    """The command-line parser and its subcommand parsers by name; each
    subcommand parser binds its runner as `runner`."""
    parser = argparse.ArgumentParser(
        prog="motivic-kit",
        description="Exact verifications for the matrix calculus on finite sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, help_text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=["table", "json"], default="table")
        p.set_defaults(runner=runner)
    return parser, sub.choices


# built once, at import: a process calling main many times parses only
PARSER, SUBPARSERS = build_parser()


def main(argv=None) -> int:
    """Run argv (default `sys.argv[1:]`), print its report, return its
    status.  The subcommand's own parser parses it; the full parser runs
    only to report a missing subcommand or an unknown argument."""
    argv = sys.argv[1:] if argv is None else argv
    sub = SUBPARSERS.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        args.command = argv[0]
    if sub is None or rest:
        args = PARSER.parse_args(argv)
    status, text = run(args)
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
