import json
import math
import time
from importlib import resources

import pytest

from helpers import ambient_cube_payload
from motivic_kit import cli
from motivic_kit.finsets import FinDiagram, PermGroup
from motivic_kit.hypercube import CubeDiagram


def data_path(name: str) -> str:
    return str(resources.files("motivic_kit").joinpath(f"data/{name}"))


def run_cli(argv):
    return cli.run(cli.build_parser().parse_args(argv))


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

    def test_kappa(self):
        status, text = run_cli(["kappa", "--components", "A,B",
                                "--ambient", "Xbar", "--dim", "2"])
        assert status == 0
        assert "l: C_*(Xbar)" in text
        assert "{0,1}: C_*(A&B)" in text
        assert "u: 0" in text
        assert "(-2)" in text and "[-4]" in text

    def test_kappa_cross(self):
        status, text = run_cli(["kappa", "--components", "A",
                                "--ambient", "X", "--dim", "1",
                                "--cross", "Y"])
        assert status == 0
        assert "C_*(X)xC_*(Y)" in text

    def test_verify_mdffe(self):
        status, text = run_cli(["verify-mdffe", "--x", "2", "--y", "3"])
        assert status == 0
        assert text.endswith("PASS")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["enumerate-diagrams", "--k", "2", "--bounds", "2,2"],
        ["enumerate-diagrams", "--k", "2", "--bounds", "2,2",
         "--format", "json"],
        ["verify-monad", "--k", "1", "--bounds", "2,2", "--format", "json"],
        ["solve-comonoid", "--x", "2", "--y", "2", "--show-matrices"],
        ["kappa", "--components", "A,B", "--ambient", "X", "--dim", "1",
         "--format", "json"],
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
        group = PermGroup.from_json(json.loads(text), diagram)
        assert group.order == 2

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


class TestErrors:
    def test_missing_file(self):
        status, text = run_cli(["aut", "--diagram", "/nonexistent.json"])
        assert status == 2
        assert text.startswith("error:")

    def test_invalid_diagram_names_invariant(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets": [{"size": 0}], "maps": []}))
        status, text = run_cli(["aut", "--diagram", str(bad)])
        assert status == 2
        assert "nonempty" in text

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

    @pytest.mark.parametrize("argv", [
        ["aut", "--diagram", "{bad}"],
        ["galois-fixed", "--x", "{bad}",
         "--y", data_path("gset_c2_trivial2.json")],
        ["hocolim", "--diagram", "{bad}"],
    ])
    def test_top_level_json_must_be_object(self, tmp_path, argv):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        argv = [a.replace("{bad}", str(bad)) for a in argv]
        status, text = run_cli(argv)
        assert status == 2
        assert text.startswith("error:")
        assert str(bad) in text

    @pytest.mark.parametrize("argv, field", [
        (["kappa", "--components", "A", "--ambient", "X", "--dim", "-3"],
         "--dim"),
        (["enumerate-diagrams", "--k", "2", "--bounds", "0,2"], "--bounds"),
        (["verify-monad", "--k", "1", "--bounds", "2,-1"], "--bounds"),
    ])
    def test_lower_limits_name_the_field(self, argv, field):
        status, text = run_cli(argv)
        assert status == 2
        assert text.startswith("error:") and field in text

    @pytest.mark.parametrize("argv, fixture, field", [
        (argv, fixture, field) for argv, fixture, fields in (
            (["aut", "--diagram", "{file}"], "diagram_3to2.json",
             ("sets", "maps")),
            (["galois-fixed", "--x", "{file}",
              "--y", data_path("gset_c2_trivial2.json")],
             "gset_c2_regular.json", ("group", "carrier", "action")),
            (["hocolim", "--diagram", "{file}"], "cover_two_patches.json",
             ("index_size", "vertices", "edges")))
        for field in fields])
    def test_missing_field_is_named(self, tmp_path, argv, fixture, field):
        with open(data_path(fixture)) as fh:
            payload = json.load(fh)
        del payload[field]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli([a.replace("{file}", str(path))
                                for a in argv])
        assert status == 2
        assert text == f"error: {path}: missing required field {field!r}"

    def test_more_maps_than_sets_names_invariant(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets": [{"size": 2}],
                                   "maps": [{"dom": 2}]}))
        status, text = run_cli(["aut", "--diagram", str(bad)])
        assert status == 2
        assert text == "error: need exactly k-1 maps for k sets"

    def test_map_without_values_is_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets": [{"size": 2}, {"size": 1}],
                                   "maps": [{"dom": 2, "cod": 1}]}))
        status, text = run_cli(["aut", "--diagram", str(bad)])
        assert status == 2
        assert text == "error: map 0 is missing required field 'values'"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_set_without_size_is_named(self, tmp_path, fmt):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets": [{"sz": 2}], "maps": []}))
        status, text = run_cli(["aut", "--diagram", str(bad),
                                "--format", fmt])
        assert status == 2
        assert text == "error: set is missing required field 'size'"

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
        assert text == ("error: matrix entries must be integers or rational "
                        "strings, got 0.0")

    @pytest.mark.parametrize("argv, fixture, keys, value, message", [
        (["aut", "--diagram", "{file}"], "diagram_3to2.json",
         ("sets", 0), 2,
         "set must be an object with required field 'size', got 2"),
        (["hocolim", "--diagram", "{file}"], "cover_two_patches.json",
         ("edges", "0,1->0", "0", "entries"), 5,
         "matrix field 'entries' must be a list, got 5"),
        (["hocolim", "--diagram", "{file}"], "cover_two_patches.json",
         ("edges", "0,1->0", "0", "entries"), [False, True],
         "matrix entries must be integers or rational strings, got False"),
        (["hocolim", "--diagram", "{file}"], "cover_two_patches.json",
         ("vertices", "0", "dims"), None,
         "vertex 0 is missing required field 'dims'"),
        (["galois-fixed", "--x", "{file}",
          "--y", data_path("gset_c2_trivial2.json")], "gset_c2_regular.json",
         ("group", "table"), None,
         "group is missing required field 'table'"),
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
        assert text == f"error: {message}"

    def test_ambient_without_edges_is_named(self, tmp_path):
        with open(data_path("cover_two_patches.json")) as fh:
            payload = json.load(fh)
        payload["ambient"] = {"lo": 0, "hi": 0, "dims": {"0": 3},
                              "differentials": {}}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli(["hocolim", "--diagram", str(path)])
        assert status == 2
        assert text == (f"error: {path}: missing required field "
                        "'ambient_edges'")

    def test_main_returns_status(self, capsys):
        assert cli.main(["verify-mcffe", "--x", "1", "--y", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
