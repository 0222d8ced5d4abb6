import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ambient_cube_payload, aut_generators, data_path,
                     dense_homology, empty_block_cube_payload, gset_json,
                     load_group, misshaped_empty_block_payload,
                     morphism_from_setmap, rational_cube_payload,
                     regular_gset)
from test_golden import CASES as GOLDEN_CASES
from test_golden import DATA as GOLDEN_DATA
from test_golden import write_relative_files
from motivic_kit import cli, finsets, monad
from motivic_kit.finsets import FinDiagram, FinSet, PermGroup, SetMap
from motivic_kit.hypercube import CubeDiagram
from motivic_kit.qlinalg import QMatrix


def run_cli(argv):
    """(exit status, report) of `cli.main` on argv: the report is what it
    prints, without the newline `print` adds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()[:-1]


def in_format(fmt: str, error: str) -> str:
    """An exit-2 report in format `fmt`: the `error: <text>` line itself,
    or the JSON object {"error": <text>}."""
    if fmt == "table":
        return error
    return json.dumps({"error": error.removeprefix("error: ")},
                      sort_keys=True, indent=2)


def full_parser_main(argv):
    """`cli.main` without its dispatch: the full parser parses every
    command line.  The oracle that the dispatch must match."""
    status, text = cli.run(cli.PARSER.parse_args(argv))
    print(text)
    return status


def outcome(main, argv) -> tuple:
    """All that `main(argv)` shows and hands on: its stdout, its stderr,
    how it ends (("return", status) or ("exit", the SystemExit code)) and
    the Namespaces `cli.run` is given."""
    ran, run = [], cli.run
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run", lambda args: ran.append(args) or run(args))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                end = ("return", main(argv))
            except SystemExit as exc:
                end = ("exit", exc.code)
    return out.getvalue(), err.getvalue(), end, ran


class TestCommands:
    def test_verify_mcffe(self):
        status, text = run_cli(["verify-mcffe", "--x", "2", "--y", "3"])
        assert status == 0
        assert text == "9 = 9, PASS"

    def test_enumerate_diagrams(self):
        status, text = run_cli(["enumerate-diagrams", "--k", "2",
                                "--bounds", "2,2"])
        assert status == 0
        assert text.endswith("classes: 5")
        assert len(text.splitlines()) == 6

    def test_aut(self):
        status, text = run_cli(["aut", "--diagram",
                                data_path("diagram_3to2.json")])
        assert status == 0
        assert "order: 2" in text

    def test_solve_comonoid(self):
        status, text = run_cli(["solve-comonoid", "--x", "3", "--y", "2"])
        assert status == 0
        assert "morphisms: 8 (expected 8)" in text

    def test_galois_fixed(self):
        status, text = run_cli(["galois-fixed",
                                "--x", data_path("gset_c2_regular.json"),
                                "--y", data_path("gset_c2_trivial2.json")])
        assert status == 0
        assert "equivariant maps: 2" in text
        assert text.endswith("PASS")

    def test_verify_monad(self):
        status, text = run_cli(["verify-monad", "--k", "1",
                                "--bounds", "3,3"])
        assert status == 0
        assert text.endswith("PASS")

    def test_hocolim(self):
        status, text = run_cli(["hocolim", "--diagram",
                                data_path("cover_two_patches.json")])
        assert status == 0
        assert text == "H0=3 H1=0"

    def test_hocolim_of_a_rational_cube_matches_the_dense_oracle(
            self, tmp_path):
        payload = rational_cube_payload()
        path = tmp_path / "rational.json"
        path.write_text(json.dumps(payload))
        hom = dense_homology(CubeDiagram.from_json(payload).total)
        assert hom == {0: 2, 1: 1}
        assert run_cli(["hocolim", "--diagram", str(path)]) == (
            0, " ".join(f"H{n}={hom[n]}" for n in sorted(hom)))

    def test_hocolim_builds_no_matrix_for_absent_differentials(
            self, tmp_path, monkeypatch):
        # an absent differential is zero and is never built: a dense zero
        # d_1 here would be a 3000 x 3000 matrix
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "index_size": 1, "edges": {},
            "vertices": {"0": {"lo": 0, "hi": 1,
                               "dims": {"0": 3000, "1": 3000},
                               "differentials": {}}}}))
        shapes, init = [], QMatrix.__init__

        def counting_init(self, rows, cols, entries):
            shapes.append((rows, cols))
            init(self, rows, cols, entries)
        monkeypatch.setattr(QMatrix, "__init__", counting_init)
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (0, "H0=3000 H1=3000")
        assert [(r, c) for r, c in shapes if r * c] == []

    def test_hocolim_of_a_wide_sparse_cube_finishes(self, tmp_path):
        # one nonzero entry in a 30001 x 30001 total differential; the
        # child's address space is capped at 2 GB, so a dense build would
        # fail there with MemoryError instead of exhausting the machine
        path = tmp_path / "wide_sparse.json"
        path.write_text(json.dumps({
            "index_size": 2,
            "vertices": {
                "0": {"lo": 0, "hi": 1, "dims": {"0": 30000, "1": 30000},
                      "differentials": {}},
                "1": {"lo": 0, "hi": 1, "dims": {"0": 1, "1": 1},
                      "differentials": {"1": {"rows": 1, "cols": 1,
                                              "entries": [1]}}},
                "0,1": {"lo": 0, "hi": 0, "dims": {"0": 0},
                        "differentials": {}}},
            "edges": {"0,1->0": {}, "0,1->1": {}}}))
        assert path.stat().st_size == 331

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "motivic_kit", "hocolim",
             "--diagram", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=cap_address_space)
        assert "Traceback" not in done.stderr
        assert done.returncode == 0
        assert done.stdout == "H0=30000 H1=30000\n"

    def test_verify_mdffe(self):
        status, text = run_cli(["verify-mdffe", "--x", "2", "--y", "3"])
        assert status == 0
        assert text.endswith("PASS")


class TestGaloisFixedCheck:
    """`galois-fixed` compares the set maps read back from the fixed
    morphisms with the equivariant maps, so a fault on either side fails
    the command."""

    ARGV = ["galois-fixed", "--x", data_path("gset_c2_regular.json"),
            "--y", data_path("gset_c2_trivial2.json")]

    def test_a_dropped_equivariant_map_fails(self, monkeypatch):
        maps = cli.equivariant_set_maps
        monkeypatch.setattr(cli, "equivariant_set_maps",
                            lambda x, y: maps(x, y)[:-1])
        status, text = run_cli(self.ARGV)
        assert status == 1
        assert text.splitlines() == ["equivariant maps: 1",
                                     "fixed comonoid morphisms: 2", "FAIL"]

    def test_a_morphism_of_a_non_equivariant_map_fails(self, monkeypatch):
        # the identity of two points does not commute with the swap on
        # one side and the trivial action on the other; it replaces one
        # fixed morphism, so the counts still agree
        fixed = cli.fixed_coalgebra_morphisms
        identity = morphism_from_setmap(SetMap(FinSet(2), FinSet(2), [0, 1]))
        monkeypatch.setattr(cli, "fixed_coalgebra_morphisms",
                            lambda x, y: fixed(x, y)[:-1] + [identity])
        status, text = run_cli(self.ARGV)
        assert status == 1
        assert text.splitlines() == ["equivariant maps: 2",
                                     "fixed comonoid morphisms: 2", "FAIL"]


class TestCensusBuildsNoGenerators:
    """The census reads automorphism orders without building a generator.
    `enumerate-diagrams` reads each class off the shapes of its subtrees:
    it assembles no multiset, canonicalises no diagram and builds none.
    `verify-monad` canonicalises each multiset it assembles once, and its
    pool comes from that census, so `_level_classes` runs exactly once per
    assembled multiset: the pass that canonicalises a class also gives
    its order, and the wreath counts read the entries' orders from the
    census that built the pool."""

    @pytest.mark.parametrize("argv,passes", [
        # one pass per class of the 21; the pool's are read off shapes
        (["verify-monad", "--k", "2", "--bounds", "2,2,3"], 21),
        (["enumerate-diagrams", "--k", "3", "--bounds", "2,2,3"], 0),
    ])
    def test_counts(self, monkeypatch, argv, passes):
        calls = {"iso": 0, "canonical": 0, "assemble": 0, "classes": 0,
                 "diagram": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(finsets.DiagramIso, "__init__",
                            counting("iso", finsets.DiagramIso.__init__))
        monkeypatch.setattr(finsets.FinDiagram, "__init__",
                            counting("diagram", finsets.FinDiagram.__init__))
        monkeypatch.setattr(monad, "_canonical_form", counting(
            "canonical", monad._canonical_form))
        monkeypatch.setattr(monad, "assemble",
                            counting("assemble", monad.assemble))
        monkeypatch.setattr(finsets, "_level_classes", counting(
            "classes", finsets._level_classes))
        assert run_cli(argv)[0] == 0
        assert calls["iso"] == 0
        assert (calls["canonical"] == calls["assemble"] == calls["classes"]
                == passes)
        # the census builds no diagram; the check builds the ones it
        # assembles and their canonical forms, and its pool's entries
        assert (calls["diagram"] == 0) == (passes == 0)


class TestOnlyTheFormatAskedForIsBuilt:
    """A command builds the payload of its `--format` alone: table output
    writes no JSON value, and JSON output no table line."""

    @pytest.mark.parametrize("argv, owner, name, table, data", [
        # one JSON value per class, for JSON output only
        (["enumerate-diagrams", "--k", "2", "--bounds", "2,2"],
         cli, "_class_json", 0, 5),
        # the group's JSON value, for JSON output only
        (["aut", "--diagram", data_path("diagram_3to2.json")],
         PermGroup, "to_json", 0, 1),
        # each of the 4 matrices once, as its table line or its JSON value
        (["solve-comonoid", "--x", "2", "--y", "2", "--show-matrices"],
         QMatrix, "to_json", 4, 4),
    ])
    def test_calls(self, monkeypatch, argv, owner, name, table, data):
        calls = []
        original = getattr(owner, name)

        def counting(self):
            calls.append(self)
            return original(self)
        monkeypatch.setattr(owner, name, counting)
        for fmt, expected in (("table", table), ("json", data)):
            calls.clear()
            assert run_cli([*argv, "--format", fmt])[0] == 0
            assert len(calls) == expected


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["enumerate-diagrams", "--k", "2", "--bounds", "2,2"],
        ["enumerate-diagrams", "--k", "2", "--bounds", "2,2",
         "--format", "json"],
        ["verify-monad", "--k", "1", "--bounds", "2,2", "--format", "json"],
        ["solve-comonoid", "--x", "2", "--y", "2", "--show-matrices"],
        ["verify-mcffe", "--x", "2", "--y", "2", "--format", "json"],
        ["verify-mdffe", "--x", "2", "--y", "2", "--format", "json"],
    ])
    def test_repeated_runs_identical(self, argv):
        assert run_cli(argv) == run_cli(argv)

    def test_file_commands_identical(self):
        for argv in (
            ["aut", "--diagram", data_path("diagram_3to2.json"),
             "--format", "json"],
            ["hocolim", "--diagram", data_path("cover_two_patches.json"),
             "--format", "json"],
            ["galois-fixed", "--x", data_path("gset_c2_regular.json"),
             "--y", data_path("gset_c2_trivial2.json"), "--format", "json"],
        ):
            assert run_cli(argv) == run_cli(argv)


class TestJsonReparses:
    def test_enumerate_diagrams_json(self):
        _, text = run_cli(["enumerate-diagrams", "--k", "2",
                           "--bounds", "2,2", "--format", "json"])
        data = json.loads(text)
        classes = [FinDiagram.from_json(c) for c in data["classes"]]
        assert len(classes) == data["count"] == 5

    def test_aut_json(self):
        path = data_path("diagram_3to2.json")
        _, text = run_cli(["aut", "--diagram", path, "--format", "json"])
        with open(path) as fh:
            diagram = FinDiagram.from_json(json.load(fh))
        data = json.loads(text)
        assert data["order"] == 2
        assert len(aut_generators(data, diagram)) == 1

    def test_cover_fixture_reparses(self):
        with open(data_path("cover_two_patches.json")) as fh:
            cube = CubeDiagram.from_json(json.load(fh))
        assert cube.index_size == 2

    def test_hocolim_json(self):
        _, text = run_cli(["hocolim", "--diagram",
                           data_path("cover_two_patches.json"),
                           "--format", "json"])
        data = json.loads(text)
        assert data["homology"] == {"0": 3, "1": 0}
        assert data["euler_characteristic"] == 3

    def test_solve_comonoid_json_matrices_reparse(self):
        from motivic_kit.qlinalg import QMatrix
        _, text = run_cli(["solve-comonoid", "--x", "2", "--y", "2",
                           "--show-matrices", "--format", "json"])
        data = json.loads(text)
        matrices = [QMatrix.from_json(m) for m in data["matrices"]]
        assert len(matrices) == 4

    def test_hocolim_with_ambient(self, tmp_path):
        path = tmp_path / "ks.json"
        path.write_text(json.dumps(ambient_cube_payload()))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert status == 0
        assert text == "H0=1 H1=0 H2=0"


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.text(), st.text(st.characters(max_codepoint=0x9f)),
    st.sampled_from(["", "\x00\x1f\x7f", "é∑😀", '"\\/', "\u2028"]))
JSON_KEYS = st.text() | st.sampled_from(["", "\x00", "é∑😀", '"', "\u2028"])
# the values commands emit: nonempty dicts with str keys, lists, str, int,
# bool and None
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(st.integers() | st.booleans())
                      | st.dictionaries(JSON_KEYS, children, min_size=1,
                                        max_size=4)),
    max_leaves=24)


class TestDumps:
    """`cli._dumps` writes the text of `json.dumps(v, sort_keys=True,
    indent=2)` for every value of the shapes commands emit."""

    @staticmethod
    def reference(value):
        return json.dumps(value, sort_keys=True, indent=2)

    @given(JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, value):
        assert cli._dumps(value) == self.reference(value)

    @pytest.mark.parametrize("value", [
        [], {"a": [], "b": [[], {"c": None}]}, [True, 1, False, 0],
        {"x": None}, -1, 10 ** 40, -(10 ** 40), {"b": 1, "a": 2, "": 3},
        "é\u0001\n\t\"", {"é": "\u2028"},
    ])
    def test_examples(self, value):
        assert cli._dumps(value) == self.reference(value)


class TestAutAtTheCap:
    """`aut` on size-6 diagrams whose relabeling count is out of reach."""

    @pytest.mark.parametrize("sizes, maps, order", [
        ((6, 6, 6, 6), [list(range(6))] * 3, 720),
        ((6, 6), [[0] * 6], math.factorial(6) * math.factorial(5)),
    ])
    def test_finishes_in_under_a_second(self, tmp_path, sizes, maps, order):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(
            {"sets": [{"size": n} for n in sizes],
             "maps": [{"dom": sizes[i], "cod": sizes[i + 1], "values": v}
                      for i, v in enumerate(maps)]}))
        start = time.perf_counter()
        status, text = run_cli(["aut", "--diagram", str(path),
                                "--format", "json"])
        assert time.perf_counter() - start < 1.0
        assert status == 0
        data = json.loads(text)
        assert data["order"] == order
        assert data["degrees"] == list(sizes)


# a command line of each command that reads files, "{bad}" naming the file
FILE_ARGVS = [
    ["aut", "--diagram", "{bad}"],
    ["galois-fixed", "--x", "{bad}",
     "--y", data_path("gset_c2_trivial2.json")],
    ["hocolim", "--diagram", "{bad}"],
]


class TestErrors:
    @pytest.fixture(autouse=True)
    def main_matches_the_full_parser(self, monkeypatch):
        """Every command line here runs through the dispatching `main` and
        through the full parser, which must print, end and parse alike;
        the test then sees what `main` did."""
        main = cli.main

        def checked(argv):
            out, err, (how, status), ran = outcome(main, argv)
            assert (out, err, (how, status), ran) == outcome(
                full_parser_main, argv)
            sys.stdout.write(out)
            sys.stderr.write(err)
            if how == "exit":
                raise SystemExit(status)
            return status
        monkeypatch.setattr(cli, "main", checked)

    def test_bad_bounds_entry_names_the_option_not_the_converter(
            self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["enumerate-diagrams", "--k", "2", "--bounds", "2,x"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "motivic-kit enumerate-diagrams: error: argument --bounds: "
            "invalid bounds value: '2,x'")

    def test_missing_file(self):
        status, text = run_cli(["aut", "--diagram", "/nonexistent.json"])
        assert status == 2
        assert text.startswith("error:")

    def test_invalid_diagram_names_invariant(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets": [{"size": 0}], "maps": []}))
        assert run_cli(["aut", "--diagram", str(bad)]) == (
            2, f"error: {bad}: sets[0] is not a finite set: FinSet must be "
               "nonempty (size >= 1)")

    def test_safety_limit(self):
        status, text = run_cli(["verify-mcffe", "--x", "9", "--y", "2"])
        assert status == 2
        assert "safety limit" in text

    def test_safety_limit_on_loaded_files(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"sets": [{"size": 9}], "maps": []}))
        status, text = run_cli(["aut", "--diagram", str(big)])
        assert status == 2
        assert "safety limit" in text

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MOTIVIC_KIT_MAX_SIZE", "1")
        status, text = run_cli(["verify-mcffe", "--x", "2", "--y", "2"])
        assert status == 2
        monkeypatch.setenv("MOTIVIC_KIT_MAX_SIZE", "6")
        status, _ = run_cli(["verify-mcffe", "--x", "2", "--y", "2"])
        assert status == 0

    def test_limit_checks_only_the_subcommand_arguments(self, monkeypatch):
        # verify-mcffe has no --bound, so its default does not apply
        monkeypatch.setenv("MOTIVIC_KIT_MAX_SIZE", "1")
        status, text = run_cli(["verify-mcffe", "--x", "1", "--y", "1"])
        assert (status, text) == (0, "1 = 1, PASS")
        status, text = run_cli(["verify-mdffe", "--x", "1", "--y", "1"])
        assert status == 2
        assert text.startswith("error: size bound 2 exceeds the safety "
                               "limit 1")

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5", ""])
    def test_env_override_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("MOTIVIC_KIT_MAX_SIZE", value)
        status, text = run_cli(["verify-mcffe", "--x", "2", "--y", "2"])
        assert status == 2
        assert text.startswith("error:")
        assert "MOTIVIC_KIT_MAX_SIZE" in text

    @pytest.mark.parametrize("argv", FILE_ARGVS)
    def test_top_level_json_must_be_object(self, tmp_path, argv):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        argv = [a.replace("{bad}", str(bad)) for a in argv]
        status, text = run_cli(argv)
        assert status == 2
        assert text.startswith("error:")
        assert str(bad) in text

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("argv", FILE_ARGVS)
    def test_nesting_too_deep_to_read_is_an_input_error(self, tmp_path,
                                                        argv, fmt):
        # 200 KB of [[[...]]]: json's decoder gives up with a
        # RecursionError, which exits 2 like any unreadable file
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        argv = [a.replace("{bad}", str(bad)) for a in argv]
        assert run_cli(argv + ["--format", fmt]) == (2, in_format(
            fmt, f"error: {bad}: maximum recursion depth exceeded while "
            "decoding a JSON array from a unicode string"))

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_an_exponent_beyond_the_digit_limit_is_refused_at_once(
            self, tmp_path, fmt):
        # Fraction("1e999999999") would build 10 ** 999999999
        with open(data_path("cover_two_patches.json")) as fh:
            payload = json.load(fh)
        payload["edges"]["0,1->0"]["0"]["entries"] = ["0", "1e999999999"]
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(payload))
        start = time.perf_counter()
        result = run_cli(["hocolim", "--diagram", str(path), "--format", fmt])
        assert time.perf_counter() - start < 1.0
        assert result == (2, in_format(
            fmt, f'error: {path}: edges["0,1->0"]["0"].entries[1] must be '
            'an integer or a rational string, got "1e999999999"'))

    @pytest.mark.parametrize("argv, field", [
        (["enumerate-diagrams", "--k", "2", "--bounds", "0,2"], "--bounds"),
        (["verify-monad", "--k", "1", "--bounds", "2,-1"], "--bounds"),
    ])
    def test_lower_limits_name_the_field(self, argv, field):
        status, text = run_cli(argv)
        assert status == 2
        assert text.startswith("error:") and field in text

    @pytest.mark.parametrize("argv, fixture, field, kind", [
        (argv, fixture, field, kind) for argv, fixture, fields in (
            (["aut", "--diagram", "{file}"], "diagram_3to2.json",
             (("sets", "a list"), ("maps", "a list"))),
            (["galois-fixed", "--x", "{file}",
              "--y", data_path("gset_c2_trivial2.json")],
             "gset_c2_regular.json", (("group", "an object"),
                                      ("carrier", "an object"),
                                      ("action", "a list"))),
            (["hocolim", "--diagram", "{file}"], "cover_two_patches.json",
             (("index_size", "an integer"), ("vertices", "an object"),
              ("edges", "an object"))))
        for field, kind in fields])
    def test_missing_field_is_named(self, tmp_path, argv, fixture, field,
                                    kind):
        with open(data_path(fixture)) as fh:
            payload = json.load(fh)
        del payload[field]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli([a.replace("{file}", str(path))
                                for a in argv])
        assert status == 2
        assert text == f"error: {path}: {field} is missing, must be {kind}"

    def test_more_maps_than_sets_names_invariant(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets": [{"size": 2}],
                                   "maps": [{"dom": 2}]}))
        status, text = run_cli(["aut", "--diagram", str(bad)])
        assert status == 2
        assert text == f"error: {bad}: need exactly k-1 maps for k sets"

    def test_map_without_values_is_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets": [{"size": 2}, {"size": 1}],
                                   "maps": [{"dom": 2, "cod": 1}]}))
        status, text = run_cli(["aut", "--diagram", str(bad)])
        assert status == 2
        assert text == (f"error: {bad}: maps[0].values is missing, "
                        "must be a list")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_set_without_size_is_named(self, tmp_path, fmt):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets": [{"sz": 2}], "maps": []}))
        status, text = run_cli(["aut", "--diagram", str(bad),
                                "--format", fmt])
        assert status == 2
        assert text == in_format(fmt, f"error: {bad}: sets[0].size is "
                                 "missing, must be an integer")

    @pytest.mark.parametrize("argv, env, message", [
        (["aut", "--diagram", "/nonexistent.json"], "6",
         "[Errno 2] No such file or directory: '/nonexistent.json'"),
        (["verify-mcffe", "--x", "2", "--y", "2"], "abc",
         "MOTIVIC_KIT_MAX_SIZE must be a positive integer, got 'abc'"),
        (["enumerate-diagrams", "--k", "0", "--bounds", "2"], "6",
         "k must be >= 1"),
        (["enumerate-diagrams", "--k", "2", "--bounds", "2"], "6",
         "need one bound per set"),
        (["verify-monad", "--k", "2", "--bounds", "2,2"], "6",
         "need k+1 bounds"),
        # a --bounds list is never empty, so k + 1 bounds needs k >= 0
        (["verify-monad", "--k", "-1", "--bounds", "2"], "6",
         "k must be >= 0"),
    ])
    def test_error_in_each_format(self, monkeypatch, argv, env, message):
        # exit 2 under --format json is one object holding the text that
        # follows "error: " in a table
        monkeypatch.setenv("MOTIVIC_KIT_MAX_SIZE", env)
        assert run_cli(argv) == (2, f"error: {message}")
        status, text = run_cli(argv + ["--format", "json"])
        assert (status, text) == (2, in_format("json", f"error: {message}"))

    def test_a_bound_below_two_is_refused(self):
        assert run_cli(["verify-mdffe", "--x", "2", "--y", "2",
                        "--bound", "1"]) == (2, "error: bound must be >= 2")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_an_unknown_option_is_reported_by_the_full_parser(self, capsys,
                                                              fmt):
        # the subcommand's parser leaves --bogus over, so the full parser
        # parses the line again and reports it, before any format is known
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify-mcffe", "--x", "2", "--y", "2", "--bogus",
                      "--format", fmt])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: motivic-kit [-h]")
        assert err.endswith("motivic-kit: error: unrecognized arguments: "
                            "--bogus\n")

    def test_the_deleted_kappa_is_an_invalid_choice(self, capsys):
        # no alias is left: the full parser refuses the name itself
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["kappa", "--components", "A", "--ambient", "X",
                      "--dim", "1"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "motivic-kit: error: argument command: invalid choice: " \
               "'kappa' (choose from " in err

    def test_gsets_over_different_groups_are_refused(self, tmp_path):
        c3 = tmp_path / "c3.json"
        c3.write_text(json.dumps(gset_json(regular_gset(load_group("c3")))))
        assert run_cli(["galois-fixed", "--x",
                        data_path("gset_c2_regular.json"), "--y", str(c3)]) \
            == (2, "error: G-sets over different groups")

    @pytest.mark.parametrize("size, action, fault", [
        (2, [[0, 1], [0, 0]], "action maps must be bijective"),
        (2, [[1, 0], [0, 1]], "identity must act trivially"),
        (2, [[0, 1]], "need one bijection per group element"),
        # the element of order 2 acting by a 3-cycle
        (3, [[0, 1, 2], [1, 2, 0]], "action is not a homomorphism"),
    ], ids=["bijective", "identity", "one-per-element", "homomorphism"])
    def test_a_bad_action_names_the_member(self, tmp_path, size, action,
                                           fault):
        path = tmp_path / "action.json"
        path.write_text(json.dumps(dict(fixture("gset_c2_regular.json"),
                                        carrier={"size": size},
                                        action=action)))
        assert run_cli(["galois-fixed", "--x", str(path),
                        "--y", data_path("gset_c2_trivial2.json")]) == (
            2, f"error: {path}: action is not a group action: {fault}")

    def test_float_entries_are_named(self, tmp_path):
        with open(data_path("cover_two_patches.json")) as fh:
            payload = json.load(fh)
        for blocks in payload["edges"].values():
            for m in blocks.values():
                m["entries"] = [float(v) for v in m["entries"]]
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert status == 2
        assert text == (f'error: {path}: edges["0,1->0"]["0"].entries[0] '
                        "must be an integer or a rational string, got 0.0")

    @pytest.mark.parametrize("argv, fixture, keys, value, message", [
        (["aut", "--diagram", "{file}"], "diagram_3to2.json",
         ("sets", 0), 2,
         "sets[0] must be an object, got 2"),
        (["hocolim", "--diagram", "{file}"], "cover_two_patches.json",
         ("edges", "0,1->0", "0", "entries"), 5,
         'edges["0,1->0"]["0"].entries must be a list, got 5'),
        (["hocolim", "--diagram", "{file}"], "cover_two_patches.json",
         ("edges", "0,1->0", "0", "entries"), [False, True],
         'edges["0,1->0"]["0"].entries[0] must be an integer or a rational '
         "string, got false"),
        (["hocolim", "--diagram", "{file}"], "cover_two_patches.json",
         ("vertices", "0", "dims"), None,
         'vertices["0"].dims is missing, must be an object'),
        (["galois-fixed", "--x", "{file}",
          "--y", data_path("gset_c2_trivial2.json")], "gset_c2_regular.json",
         ("group", "table"), None,
         "group.table is missing, must be a list"),
    ])
    def test_bad_nested_field_is_named(self, tmp_path, argv, fixture, keys,
                                       value, message):
        """Set the nested field at `keys` to `value` (delete it if None)."""
        with open(data_path(fixture)) as fh:
            payload = json.load(fh)
        *parents, last = keys
        target = payload
        for key in parents:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli([a.replace("{file}", str(path))
                                for a in argv])
        assert status == 2
        assert text == f"error: {path}: {message}"

    def test_ambient_without_edges_is_named(self, tmp_path):
        with open(data_path("cover_two_patches.json")) as fh:
            payload = json.load(fh)
        payload["ambient"] = {"lo": 0, "hi": 0, "dims": {"0": 3},
                              "differentials": {}}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert status == 2
        assert text == (f"error: {path}: ambient_edges is missing, "
                        "must be an object")

    def test_ambient_edge_from_a_pair_is_rejected(self, tmp_path):
        # a map into the ambient comes from a singleton; one keyed by a
        # deeper subset used to be read and then dropped
        payload = ambient_cube_payload()
        payload["ambient_edges"]["0,1"] = {
            "0": {"rows": 4, "cols": 1, "entries": ["5", "0", "0", "0"]}}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert status == 2
        assert text == (f'error: {path}: ambient_edges["0,1"] names [0, 1], '
                        "which is not a singleton")

    def test_declared_dom_cod_must_match_the_sets(self, tmp_path):
        path = tmp_path / "bad.json"
        for declared, message in (
                ({"dom": 5, "cod": 9}, "maps[0].dom is 5, but sets[0] has "
                                       "size 3"),
                ({"dom": 3, "cod": 9}, "maps[0].cod is 9, but sets[1] has "
                                       "size 2")):
            path.write_text(json.dumps(
                {"sets": [{"size": 3}, {"size": 2}],
                 "maps": [{**declared, "values": [0, 0, 1]}]}))
            status, text = run_cli(["aut", "--diagram", str(path)])
            assert (status, text) == (2, f"error: {path}: {message}")

    @pytest.mark.parametrize("values, fault", [
        ([0, 1, 5], "value 5 out of range for cod of size 2"),
        ([0, 1], "values length must equal dom.size"),
    ])
    def test_a_set_map_fault_names_the_map(self, tmp_path, values, fault):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"sets": [{"size": 3}, {"size": 2}],
                                    "maps": [{"values": values}]}))
        assert run_cli(["aut", "--diagram", str(path)]) == (
            2, f"error: {path}: maps[0] is not a set map: {fault}")

    @pytest.mark.parametrize("row, fault", [
        ([0, 2], "value 2 out of range for cod of size 2"),
        ([1], "values length must equal dom.size"),
    ])
    def test_a_set_map_fault_names_the_action_row(self, tmp_path, row,
                                                  fault):
        good = data_path("gset_c2_regular.json")
        with open(good) as fh:
            payload = json.load(fh)
        payload["action"][1] = row
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        for argv in (["--x", str(path), "--y", good],
                     ["--x", good, "--y", str(path)]):
            assert run_cli(["galois-fixed", *argv]) == (
                2, f"error: {path}: action[1] is not a set map: {fault}")

    @pytest.mark.parametrize("index_size", [40, 10 ** 9])
    def test_large_index_size_is_rejected_at_once(self, tmp_path,
                                                  index_size):
        with open(data_path("cover_two_patches.json")) as fh:
            payload = json.load(fh)
        payload["index_size"] = index_size
        path = tmp_path / "big.json"
        path.write_text(json.dumps(payload))
        start = time.perf_counter()
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert time.perf_counter() - start < 1.0
        assert (status, text) == (2, f"error: {path}: need exactly the "
                                  "nonempty subsets as vertices")

    def test_dimension_outside_the_degree_range_is_rejected(self, tmp_path):
        with open(data_path("cover_two_patches.json")) as fh:
            payload = json.load(fh)
        path = tmp_path / "stray.json"
        payload["vertices"]["0"]["dims"]["1"] = 5
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (2, f'error: {path}: vertices["0"] is not a '
                                  "chain complex: dimension in degree 1 "
                                  "outside degree range [0, 0]")

    @pytest.mark.parametrize("singleton, entries, message", [
        ("1", None, "missing edge [1]->[]"),
        # b, the point of [0, 1], sent to d rather than to b from [0]
        ("0", ["1", "0", "0", "0", "0", "0", "0", "1"],
         "square at [0, 1] minus {0,1} does not commute"),
    ])
    def test_ambient_faults_are_named_as_cube_faults(self, tmp_path,
                                                     singleton, entries,
                                                     message):
        # the ambient is the empty vertex [] of the cube
        payload = ambient_cube_payload()
        if entries is None:
            del payload["ambient_edges"][singleton]
        else:
            payload["ambient_edges"][singleton]["0"]["entries"] = entries
        path = tmp_path / "ks.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (2, f"error: {path}: {message}")

    @pytest.mark.parametrize("degree", [10 ** 5, 10 ** 7])
    def test_degree_span_beyond_the_listed_degrees_is_rejected_at_once(
            self, tmp_path, degree):
        # 285 bytes at degree 10^7 spanned ten million empty degrees
        def point(q):
            return {"lo": q, "hi": q, "dims": {str(q): 1},
                    "differentials": {}}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(
            {"index_size": 2, "vertices": {"0": point(0), "1": point(degree),
                                           "0,1": point(0)},
             "edges": {"0,1->0": {}, "0,1->1": {}}}))
        start = time.perf_counter()
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert time.perf_counter() - start < 1.0
        assert (status, text) == (2, f"error: {path}: the total complex spans "
                                  f"{degree + 1} degrees, more than the 3 its "
                                  "vertices list together")

    def test_the_span_is_refused_before_the_squares_are_checked(
            self, tmp_path):
        # the square at [0, 1] minus {0,1} does not commute: [0] sends the
        # point of [0, 1] to the ambient point, [1] sends it nowhere; the
        # cube builds its total complex to check the squares, so the span
        # of that complex is refused first
        def point(q):
            return {"lo": q, "hi": q, "dims": {str(q): 1},
                    "differentials": {}}
        one = {"0": {"rows": 1, "cols": 1, "entries": ["1"]}}
        path = tmp_path / "both.json"
        path.write_text(json.dumps(
            {"index_size": 2, "vertices": {"0": point(0), "1": point(10),
                                           "0,1": point(0)},
             "edges": {"0,1->0": one, "0,1->1": {}},
             "ambient": point(0), "ambient_edges": {"0": one, "1": {}}}))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (2, f"error: {path}: the total complex spans "
                                  "12 degrees, more than the 4 its vertices "
                                  "list together")

    def test_a_gap_within_the_listed_degrees_is_kept(self, tmp_path):
        # 5 listed (vertex, degree) pairs span the degrees 0..4, and
        # degree 3 is empty
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(
            {"index_size": 2,
             "vertices": {"0": {"lo": 0, "hi": 2,
                                "dims": {"0": 1, "1": 1, "2": 1},
                                "differentials": {}},
                          "1": {"lo": 4, "hi": 4, "dims": {"4": 1},
                                "differentials": {}},
                          "0,1": {"lo": 0, "hi": 0, "dims": {"0": 1},
                                  "differentials": {}}},
             "edges": {"0,1->0": {}, "0,1->1": {}}}))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (0, "H0=1 H1=2 H2=1 H3=0 H4=1")

    @staticmethod
    def cover_with(change):
        """The two-patch fixture, with `change` applied to its payload."""
        with open(data_path("cover_two_patches.json")) as fh:
            payload = json.load(fh)
        change(payload)
        return payload

    @pytest.mark.parametrize("change, message", [
        # "1,0" names the subset {0, 1} again; once kept silently, the
        # later vertex added a degree and printed H0=3 H1=0 H2=0
        (lambda p: p["vertices"].update({"1,0": {
            "lo": 0, "hi": 1, "dims": {"0": 1, "1": 0},
            "differentials": {}}}),
         'vertices["1,0"] names the same member as vertices["0,1"]'),
        (lambda p: p["edges"].update({"1,0->0": p["edges"]["0,1->0"]}),
         'edges["1,0->0"] names the same member as edges["0,1->0"]'),
        # "00" is degree 0 again, once read as a block of the wrong shape
        (lambda p: p["vertices"]["0"].update({"dims": {"0": 2, "00": 5}}),
         'vertices["0"].dims["00"] names the same member as '
         'vertices["0"].dims["0"]'),
    ], ids=["vertex", "edge", "degree"])
    def test_a_repeated_key_names_both_members(self, tmp_path, change,
                                               message):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(self.cover_with(change)))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (2, f"error: {path}: {message}")

    def test_a_repeated_ambient_edge_key_names_both_members(self, tmp_path):
        payload = ambient_cube_payload()
        payload["ambient_edges"]["0,0"] = payload["ambient_edges"]["0"]
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (2, f'error: {path}: ambient_edges["0,0"] '
                                  'names the same member as '
                                  'ambient_edges["0"]')

    @pytest.mark.parametrize("field, member, fault", [
        ("vertices", "0", "is not a chain complex: differential 1 has "
                          "wrong shape"),
        ("edges", "0,1->0", "is not a chain map: block 0 has wrong shape"),
        ("ambient_edges", "0", "is not a chain map: block 0 has wrong shape"),
        ("ambient", None, "is not a chain complex: differential 1 has "
                          "wrong shape"),
    ])
    def test_a_constructor_fault_names_the_member(self, tmp_path, field,
                                                  member, fault):
        payload = ambient_cube_payload()
        three_rows = {"rows": 3, "cols": 1, "entries": ["1", "0", "0"]}
        complex_with_bad_d = {"lo": 0, "hi": 1, "dims": {"0": 2, "1": 1},
                              "differentials": {"1": three_rows}}
        if field == "vertices":
            payload[field][member] = complex_with_bad_d
        elif field == "ambient":
            payload[field] = complex_with_bad_d
        else:
            payload[field][member]["0"] = three_rows
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        named = field if member is None else f"{field}[{json.dumps(member)}]"
        assert (status, text) == (2, f"error: {path}: {named} {fault}")

    def test_a_misshaped_empty_block_names_the_edge(self, tmp_path):
        path = tmp_path / "misshaped.json"
        path.write_text(json.dumps(misshaped_empty_block_payload()))
        assert run_cli(["hocolim", "--diagram", str(path)]) == (
            2, f'error: {path}: edges["0,1->0"] is not a chain map: block 1 '
               'has wrong shape')

    @pytest.mark.parametrize("field, member, entries", [
        # [0, 1] sends its class in degree 1 onto the segment's edge, whose
        # boundary nothing in degree 0 matches
        ("edges", "0,1->0", ["1"]),
        # [0] goes onto the ambient segment in degree 0, but not in degree 1
        ("ambient_edges", "0", ["0"]),
    ])
    def test_an_edge_that_does_not_commute_with_d_is_named(
            self, tmp_path, field, member, entries):
        payload = empty_block_cube_payload(ambient=True)
        payload[field][member]["1"]["entries"] = entries
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (
            2, f"error: {path}: {field}[{json.dumps(member)}] is not a chain "
               "map: does not commute with d in degree 1")

    @staticmethod
    def failing_edge(payload):
        """The cube of `empty_block_cube_payload` whose edge [0, 1] -> [0]
        sends the class of [0, 1] onto the segment's edge: not a chain map."""
        payload["edges"]["0,1->0"]["1"]["entries"] = ["1"]

    @pytest.mark.parametrize("change, message", [
        (lambda p: p["edges"].pop("0,1->1"), "missing edge [0, 1]->[1]"),
        (lambda p: p["edges"]["0,1->1"].update(
            {"0": {"rows": 2, "cols": 0, "entries": []}}),
         'edges["0,1->1"] is not a chain map: block 0 has wrong shape'),
        (lambda p: p.update({"index_size": 3}),
         "need exactly the nonempty subsets as vertices"),
        # [1] moved to degree 10, with its edge the zero map
        (lambda p: p.update(
            vertices={**p["vertices"], "1": {"lo": 10, "hi": 10,
                                             "dims": {"10": 1},
                                             "differentials": {}}},
            edges={**p["edges"], "0,1->1": {}}),
         "the total complex spans 11 degrees, more than the 5 its vertices "
         "list together"),
    ], ids=["missing-edge", "later-shape", "vertex-set", "span"])
    def test_an_edge_fault_is_named_after_the_whole_file_is_read(
            self, tmp_path, change, message):
        # the cube's d o d finds the edge, after every other check
        payload = empty_block_cube_payload(ambient=False)
        self.failing_edge(payload)
        change(payload)
        path = tmp_path / "late.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (2, f"error: {path}: {message}")

    def test_an_edge_is_named_by_its_canonical_key(self, tmp_path):
        # "1,0->0" names the edge [0, 1] -> [0], which the file writer keys
        # "0,1->0"
        payload = empty_block_cube_payload(ambient=False)
        self.failing_edge(payload)
        payload["edges"] = {k.replace("0,1", "1,0"): v
                            for k, v in payload["edges"].items()}
        path = tmp_path / "spelt.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert (status, text) == (
            2, f'error: {path}: edges["0,1->0"] is not a chain map: does not '
               "commute with d in degree 1")

    @staticmethod
    def misshapen(payload, field="edges", member="0,1->0"):
        """`payload` with a 3 x 1 block in degree 0 of one edge."""
        payload[field][member]["0"] = {"rows": 3, "cols": 1,
                                       "entries": ["1", "0", "0"]}
        return payload

    @pytest.mark.parametrize("change, message", [
        (lambda p: p.update({"index_size": 3}),
         "need exactly the nonempty subsets as vertices"),
        (lambda p: p["edges"].update({"0,1->5": {}}),
         'edges["0,1->5"] names [5], which is not a vertex'),
        (lambda p: p["edges"].update({"1,0->1": p["edges"]["0,1->1"]}),
         'edges["1,0->1"] names the same member as edges["0,1->1"]'),
        (lambda p: p["ambient_edges"].update({"0,1": {}}),
         'ambient_edges["0,1"] names [0, 1], which is not a singleton'),
        (lambda p: p.update(edges={"0->0,1": {}, **p["edges"]}),
         "edges must be one-step inclusions between vertices"),
    ], ids=["vertex-set", "later-non-vertex", "repeated-key",
            "ambient-key", "earlier-one-step"])
    def test_a_block_shape_is_checked_once_the_file_is_read(
            self, tmp_path, change, message):
        # the cube checks its block shapes once every member is read, and
        # after its vertex set and each edge's ends: each of these faults
        # is named before the misshapen block of edges["0,1->0"]
        payload = self.misshapen(ambient_cube_payload())
        change(payload)
        path = tmp_path / "both.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["hocolim", "--diagram", str(path)]) == (
            2, f"error: {path}: {message}")

    def test_one_step_edges_come_before_ambient_edges(self, tmp_path):
        # a misshapen ambient edge is named after any fault of the edges
        payload = self.misshapen(ambient_cube_payload(), "ambient_edges", "0")
        payload["edges"]["0->0,1"] = {}
        path = tmp_path / "both.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["hocolim", "--diagram", str(path)]) == (
            2, f"error: {path}: edges must be one-step inclusions between "
               "vertices")

    @pytest.mark.parametrize("field, spelt, named", [
        ("edges", "1,0->0", 'edges["0,1->0"]'),
        ("ambient_edges", "00", 'ambient_edges["0"]'),
    ])
    def test_a_misshapen_edge_is_named_by_its_canonical_key(
            self, tmp_path, field, spelt, named):
        # "1,0->0" and "00" name the edges the file writer keys "0,1->0"
        # and "0"
        payload = ambient_cube_payload()
        canonical = {"edges": "0,1->0", "ambient_edges": "0"}[field]
        payload[field] = {spelt if k == canonical else k: v
                          for k, v in payload[field].items()}
        self.misshapen(payload, field, spelt)
        path = tmp_path / "spelt.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["hocolim", "--diagram", str(path)]) == (
            2, f"error: {path}: {named} is not a chain map: block 0 has "
               "wrong shape")

    def test_main_returns_status(self, capsys):
        assert cli.main(["verify-mcffe", "--x", "1", "--y", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out


def golden_cases(tmp_path, monkeypatch) -> list:
    """The golden (argv, status, digest) rows, with the files they name
    written to `tmp_path`, which becomes the working directory."""
    ambient = tmp_path / "ks.json"
    ambient.write_text(json.dumps(ambient_cube_payload(), sort_keys=True))
    write_relative_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return [([a.replace("{data}", GOLDEN_DATA)
              .replace("{ambient}", str(ambient))
              .replace("{square}", "square.json") for a in argv],
             status, digest) for argv, status, digest in GOLDEN_CASES]


class TestSharedParser:
    """`main` parses every command line with the one parser built at
    import; no call may leave state behind for the next."""

    def test_golden_sequence_with_errors_between(self, capsys, tmp_path,
                                                 monkeypatch):
        for argv, status, digest in golden_cases(tmp_path, monkeypatch):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["verify-mcffe", "--x", "two", "--y", "2"])
            assert exit_info.value.code == 2
            assert cli.main(["verify-mcffe", "--x", "9", "--y", "2"]) == 2
            capsys.readouterr()
            assert cli.main(argv) == status
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cap_is_read_on_every_call(self, capsys, monkeypatch):
        monkeypatch.delenv("MOTIVIC_KIT_MAX_SIZE", raising=False)
        argv = ["verify-mcffe", "--x", "7", "--y", "1"]
        assert cli.main(argv) == 2
        monkeypatch.setenv("MOTIVIC_KIT_MAX_SIZE", "7")
        assert cli.main(argv) == 0
        monkeypatch.setenv("MOTIVIC_KIT_MAX_SIZE", "2")
        assert cli.main(["verify-mcffe", "--x", "3", "--y", "1"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "error: size bound 7 exceeds the safety limit 6 (override with "
            "MOTIVIC_KIT_MAX_SIZE)", "1 = 1, PASS",
            "error: size bound 3 exceeds the safety limit 2 (override with "
            "MOTIVIC_KIT_MAX_SIZE)"]

    def test_main_constructs_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        assert cli.main(["verify-mcffe", "--x", "1", "--y", "1"]) == 0
        assert cli.main(["verify-monad", "--k", "1", "--bounds", "2,2"]) == 0
        with pytest.raises(SystemExit):
            cli.main(["no-such-command"])
        assert built == []


# command lines that argparse itself rejects or answers, with the exit
# status it ends them with
ARGPARSE_LEVEL = [
    ([], 2),
    (["no-such-command"], 2),
    (["verify"], 2),
    (["-h"], 0),
    (["--format", "json"], 2),
    (["verify-mcffe", "-h"], 0),
    (["hocolim", "--help"], 0),
    (["kappa", "--components", "A", "--ambient", "X", "--dim", "1"], 2),
    (["kappa", "--help"], 2),
    (["verify-mcffe", "--x", "1"], 2),
    (["verify-mcffe", "--x", "two", "--y", "2"], 2),
    (["verify-mcffe", "--x", "1", "--y", "1", "--format", "yaml"], 2),
    (["verify-mcffe", "--x", "1", "--y", "1", "extra"], 2),
    (["verify-mcffe", "--x", "1", "--y", "1", "--bound", "3"], 2),
    (["verify-mcffe", "--x", "1", "--y", "1", "--", "extra"], 2),
    (["verify-mcffe", "extra", "--x", "1", "--y", "1"], 2),
    (["enumerate-diagrams", "--k", "2", "--bounds", "2,x"], 2),
]


class TestDispatch:
    """`main` hands a command line that names a subcommand to that
    subcommand's parser alone; on every command line it prints, ends and
    parses exactly as the full parser does."""

    @pytest.fixture
    def full_parses(self, monkeypatch) -> list:
        """The argvs the full parser parses from now on."""
        calls, parse = [], cli.PARSER.parse_args
        monkeypatch.setattr(cli.PARSER, "parse_args",
                            lambda argv: calls.append(argv) or parse(argv))
        return calls

    def test_golden_argvs(self, tmp_path, monkeypatch, full_parses):
        for argv, status, _ in golden_cases(tmp_path, monkeypatch):
            got = outcome(cli.main, argv)
            # each is parsed by its subcommand's parser alone
            assert full_parses == []
            assert got == outcome(full_parser_main, argv)
            full_parses.clear()
            assert got[2] == ("return", status)
            assert [args.command for args in got[3]] == [argv[0]]

    @pytest.mark.parametrize(
        "argv, code", ARGPARSE_LEVEL,
        ids=[" ".join(argv) or "-" for argv, _ in ARGPARSE_LEVEL])
    def test_argparse_level_command_lines(self, argv, code, full_parses):
        got = outcome(cli.main, argv)
        # the full parser runs exactly when its own usage, not a
        # subcommand's, is printed
        assert full_parses == ([argv] if (got[0] + got[1]).startswith(
            "usage: motivic-kit [-h]") else [])
        assert got == outcome(full_parser_main, argv)
        assert got[2] == ("exit", code)
        assert got[0 if code == 0 else 1] != ""

    def test_an_abbreviated_option_is_the_subcommand_parsers_to_expand(self):
        argv = ["verify-mcffe", "--x", "1", "--y", "1", "--form", "json"]
        got = outcome(cli.main, argv)
        assert got == outcome(full_parser_main, argv)
        assert got[3][0].format == "json"

    def test_argv_defaults_to_the_process_arguments(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["motivic-kit", "verify-mcffe",
                                          "--x", "2", "--y", "2"])
        assert outcome(cli.main, None)[:3] == ("4 = 4, PASS\n", "",
                                               ("return", 0))


# --- malformed input files ---------------------------------------------------

AUT = (["aut", "--diagram", "{file}"], "diagram_3to2.json")
GALOIS = (["galois-fixed", "--x", "{file}",
           "--y", data_path("gset_c2_trivial2.json")], "gset_c2_regular.json")
HOCOLIM = (["hocolim", "--diagram", "{file}"], "cover_two_patches.json")
AMBIENT = (HOCOLIM[0], ambient_cube_payload())
EDGE = ("edges", "0,1->0")
BLOCK = (*EDGE, "0")

# (command, keys of the changed node, operation, message after the file
# name); a command is its argv and the fixture it changes, by file name or
# as a payload, and an operation is ("set", value) or ("key", new key),
# the latter renaming the member of a keyed object.
SINGLE_FIELD_MUTATIONS = [
    (AUT, ("sets",), ("set", 5), "sets must be a list, got 5"),
    (AUT, ("maps",), ("set", 5), "maps must be a list, got 5"),
    (AUT, ("sets", 0), ("set", 2), "sets[0] must be an object, got 2"),
    (AUT, ("sets", 0, "size"), ("set", "2"),
     'sets[0].size must be an integer, got "2"'),
    (AUT, ("sets", 0, "size"), ("set", True),
     "sets[0].size must be an integer, got true"),
    (AUT, ("sets", 1, "size"), ("set", 2.5),
     "sets[1].size must be an integer, got 2.5"),
    (AUT, ("sets", 0, "labels"), ("set", 5),
     "sets[0].labels must be a list, got 5"),
    (AUT, ("sets", 0, "labels"), ("set", [[0], [1], [2]]),
     "sets[0].labels[0] must be a string or a number, got a list"),
    (AUT, ("sets", 1, "size"), ("set", 0),
     "sets[1] is not a finite set: FinSet must be nonempty (size >= 1)"),
    (AUT, ("sets", 1, "labels"), ("set", ["a"]),
     "sets[1] is not a finite set: labels length must equal size"),
    (AUT, ("sets", 1, "labels"), ("set", ["a", "a"]),
     "sets[1] is not a finite set: labels must be distinct"),
    (AUT, ("maps", 0), ("set", 5), "maps[0] must be an object, got 5"),
    (AUT, ("maps", 0, "values"), ("set", 5),
     "maps[0].values must be a list, got 5"),
    (AUT, ("maps", 0, "values", 2), ("set", "1"),
     'maps[0].values[2] must be an integer, got "1"'),
    (AUT, ("maps", 0, "dom"), ("set", 5),
     "maps[0].dom is 5, but sets[0] has size 3"),
    (AUT, ("maps", 0, "cod"), ("set", True),
     "maps[0].cod must be an integer, got true"),
    (GALOIS, ("group",), ("set", 5), "group must be an object, got 5"),
    (GALOIS, ("group", "table"), ("set", 5),
     "group.table must be a list, got 5"),
    (GALOIS, ("group", "table", 0), ("set", 5),
     "group.table[0] must be a list, got 5"),
    (GALOIS, ("group", "table", 1, 0), ("set", "1"),
     'group.table[1][0] must be an integer, got "1"'),
    (GALOIS, ("group", "order"), ("set", True),
     "group.order must be an integer, got true"),
    (GALOIS, ("group", "order"), ("set", 3),
     "group.order is 3, but the table has order 2"),
    (GALOIS, ("group", "table", 1, 1), ("set", 1),
     "group.table is not a group table: element 1 has no inverse"),
    (GALOIS, ("group", "table"), ("set", [[0, 1, 2], [1, 0, 0], [2, 0, 0]]),
     "group.table is not a group table: multiplication is not associative"),
    (GALOIS, ("group", "table"), ("set", []),
     "group.table is not a group table: empty group table"),
    (GALOIS, ("group", "table"), ("set", [[0, 0], [0, 0]]),
     "group.table is not a group table: no identity element"),
    (GALOIS, ("group", "table", 1, 1), ("set", 5),
     "group.table is not a group table: "
     "table is not order x order over 0..order-1"),
    (GALOIS, ("carrier", "size"), ("set", "2"),
     'carrier.size must be an integer, got "2"'),
    (GALOIS, ("carrier", "size"), ("set", 0),
     "carrier is not a finite set: FinSet must be nonempty (size >= 1)"),
    (GALOIS, ("carrier", "labels"), ("set", [0, 1, 2]),
     "carrier is not a finite set: labels length must equal size"),
    (GALOIS, ("carrier", "labels"), ("set", [1, 1]),
     "carrier is not a finite set: labels must be distinct"),
    (GALOIS, ("action",), ("set", 5), "action must be a list, got 5"),
    (GALOIS, ("action", 1), ("set", {}),
     "action[1] must be a list, got an object"),
    (GALOIS, ("action", 1, 0), ("set", None),
     "action[1][0] must be an integer, got null"),
    (HOCOLIM, ("index_size",), ("set", "2"),
     'index_size must be an integer, got "2"'),
    (HOCOLIM, ("vertices",), ("set", []),
     "vertices must be an object, got a list"),
    (HOCOLIM, ("vertices", "0"), ("key", "x"),
     'vertices["x"] is not keyed by comma-separated integers'),
    (HOCOLIM, ("vertices", "0", "differentials"), ("set", 5),
     'vertices["0"].differentials must be an object, got 5'),
    (HOCOLIM, ("vertices", "0", "dims", "0"), ("key", "zero"),
     'vertices["0"].dims["zero"] is not keyed by an integer'),
    (HOCOLIM, ("vertices", "0", "dims", "0"), ("set", "2"),
     'vertices["0"].dims["0"] must be an integer, got "2"'),
    (HOCOLIM, ("vertices", "0", "lo"), ("set", True),
     'vertices["0"].lo must be an integer, got true'),
    (HOCOLIM, EDGE, ("key", "0,1->5"),
     'edges["0,1->5"] names [5], which is not a vertex'),
    (HOCOLIM, EDGE, ("key", "0,1"),
     'edges["0,1"] is not keyed by two subsets joined by "->"'),
    (HOCOLIM, (*BLOCK, "entries", 0), ("set", "1/0"),
     'edges["0,1->0"]["0"].entries[0] must be an integer or a rational '
     'string, got "1/0"'),
    (HOCOLIM, BLOCK, ("set", 5), 'edges["0,1->0"]["0"] must be an object, got 5'),
    (HOCOLIM, BLOCK, ("key", "q"),
     'edges["0,1->0"]["q"] is not keyed by an integer'),
    (HOCOLIM, (*BLOCK, "rows"), ("set", "2"),
     'edges["0,1->0"]["0"].rows must be an integer, got "2"'),
    (HOCOLIM, (*BLOCK, "entries"), ("set", ["1"]),
     'edges["0,1->0"]["0"] is not a matrix: entry count does not match '
     'shape'),
    (HOCOLIM, (*BLOCK, "rows"), ("set", -1),
     'edges["0,1->0"]["0"] is not a matrix: negative matrix dimensions'),
    (HOCOLIM, ("vertices", "0", "differentials", "1"),
     ("set", {"rows": 2, "cols": 1, "entries": ["1"]}),
     'vertices["0"].differentials["1"] is not a matrix: entry count does '
     'not match shape'),
    (AMBIENT, ("ambient_edges", "0", "0", "entries"), ("set", ["1"]),
     'ambient_edges["0"]["0"] is not a matrix: entry count does not match '
     'shape'),
    (HOCOLIM, ("vertices", "0", "lo"), ("set", 1),
     'vertices["0"] is not a chain complex: empty degree range'),
    (HOCOLIM, ("vertices", "0", "hi"), ("set", 1),
     'vertices["0"] is not a chain complex: missing or negative dimension '
     'in degree 1'),
    (HOCOLIM, ("vertices", "0", "differentials", "0"),
     ("set", {"rows": 1, "cols": 2, "entries": ["0", "0"]}),
     'vertices["0"] is not a chain complex: differential 0 outside degree '
     'range'),
]


def fixture(name: str):
    with open(data_path(name)) as fh:
        return json.load(fh)


def mutated(payload, keys, op):
    """A copy of `payload` with the node at `keys` changed by `op`."""
    payload = json.loads(json.dumps(payload))
    *parents, last = keys
    parent = payload
    for k in parents:
        parent = parent[k]
    kind, arg = op
    if kind == "set":
        parent[last] = arg
    elif kind == "key":
        parent[arg] = parent.pop(last)
    else:  # "del"
        del parent[last]
    return payload


@pytest.mark.parametrize("command, keys, op, message",
                         SINGLE_FIELD_MUTATIONS)
def test_single_field_mutation_names_file_and_field(tmp_path, command, keys,
                                                    op, message):
    argv, payload = command
    if isinstance(payload, str):
        payload = fixture(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutated(payload, keys, op)))
    argv = [a.replace("{file}", str(path)) for a in argv]
    for fmt in ("table", "json"):
        assert run_cli(argv + ["--format", fmt]) == (
            2, in_format(fmt, f"error: {path}: {message}"))


class TestGroupTablesCheckedOnce:
    """A G-set file's group table is checked once per process and then
    shared: a bad table is never stored, and a shared one still meets its
    file's `order` field and the other file's group."""

    GOOD = data_path("gset_c2_trivial2.json")

    def write(self, tmp_path, *changes):
        """gset_c2_regular.json with each (keys, value) change made."""
        payload = fixture("gset_c2_regular.json")
        for keys, value in changes:
            payload = mutated(payload, keys, ("set", value))
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_a_bad_table_fails_on_every_read(self, tmp_path):
        path = self.write(tmp_path, (("group", "table", 1, 1), 1))
        for argv in (["--x", path, "--y", self.GOOD],
                     ["--x", self.GOOD, "--y", path],
                     ["--x", path, "--y", self.GOOD]):
            assert run_cli(["galois-fixed", *argv]) == (
                2, f"error: {path}: group.table is not a group table: "
                "element 1 has no inverse")

    def test_a_shared_table_still_checks_the_order(self, tmp_path):
        assert run_cli(TestGaloisFixedCheck.ARGV)[0] == 0
        path = self.write(tmp_path, (("group", "order"), 3))
        assert run_cli(["galois-fixed", "--x", path, "--y", self.GOOD]) == (
            2, f"error: {path}: group.order is 3, but the table has order 2")

    def test_gsets_over_different_tables_still_differ(self, tmp_path):
        # Z/2 with identity 1, acting trivially, against Z/2 with identity 0
        path = self.write(tmp_path, (("group", "table"), [[1, 0], [0, 1]]),
                          (("action",), [[0, 1], [0, 1]]))
        assert run_cli(["galois-fixed", "--x", self.GOOD, "--y", path]) == (
            2, "error: G-sets over different groups")


def nodes(value, keys=()):
    """The keys of every node below the root of a JSON value."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for k, child in children:
        yield (*keys, k)
        yield from nodes(child, (*keys, k))


def fuzz_inputs():
    """(argv, payload, keys of one node) for every node of every input."""
    inputs = [(argv, fixture(name)) for argv, name in (AUT, GALOIS, HOCOLIM)]
    inputs.append((["galois-fixed", "--x", data_path("gset_c2_regular.json"),
                    "--y", "{file}"], fixture("gset_c2_trivial2.json")))
    inputs.append(AMBIENT)
    return [(argv, payload, keys) for argv, payload in inputs
            for keys in nodes(payload)]


REPLACEMENTS = [None, True, 2.5, -1, "x", "1/0", [], {}]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(fuzz_inputs()),
       st.sampled_from([("del", None)] + [("set", v) for v in REPLACEMENTS]))
def test_any_one_node_changed_exits_through_run(case, op):
    argv, payload, keys = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(mutated(payload, keys, op), fh)
        status, text = run_cli([a.replace("{file}", path) for a in argv])
    assert status in (0, 1, 2)
    if status == 2:
        assert text.startswith("error:")
