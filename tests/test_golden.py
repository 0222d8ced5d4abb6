"""Golden CLI outputs: the exit status and the sha256 of stdout for fixed
invocations of every subcommand, in table and json format.

The census digests were recorded from the brute-force relabeling search
that the structural canonical forms replaced, so any change to a
representative, to the output order or to an automorphism order shows
here.  The other digests pin the rest of the CLI contract, error texts
included: an exit-2 report is its `error:` line in a table and the object
{"error": <the text after "error: ">} in JSON.  If a change to the output
is deliberate, record the new digests and say why in CHANGES.md.
The `-h` output of every parser is pinned the same way, so that a change
to how the parsers are built cannot change a help or usage text unseen.
"""

import hashlib
import json
import shlex
from importlib import resources
from pathlib import Path

import pytest

from helpers import (ambient_cube_payload, aut_generators,
                     brute_automorphisms, closure, empty_block_cube_payload,
                     gset_json, gset_payload, load_group,
                     misshaped_empty_block_payload, rational_cube_payload,
                     square_cube_payload, trivial_gset)
from motivic_kit import cli
from motivic_kit.finsets import FinDiagram, FinSet


DATA = str(resources.files("motivic_kit") / "data")

# (argv, exit status, table digest, json digest); "{data}/" names a
# packaged fixture, "{ambient}" the file `ambient_cube` writes and
# "{square}" the file `square_cube` writes, named relative to the working
# directory that fixture sets, like the other files it writes.
GOLDEN = [
    (["enumerate-diagrams", "--k", "2", "--bounds", "4,4"], 0,
     "2cd9035d05c3dadf5ca2c6cf2d429b31a701ef3cfe5ba31b8c0fac899a9eb74a",
     "0a640720568cd80d9373ae2f8848d52643a4132b44f1ba8c40a04fdc6a46abb9"),
    (["enumerate-diagrams", "--k", "3", "--bounds", "3,3,3"], 0,
     "eca2d7b64c6e0f3d85d5147194f6cdf90a055e1a6fd8749139389db51566e921",
     "578846f316e64ac0441d854650ec0a73ab39b6a825113d1fdbb02f0f84ef8213"),
    (["verify-monad", "--k", "0", "--bounds", "3"], 0,
     "5f17cc20ad223baccd220192c4a041decd12a1f379d26c302bf1e47742e137f1",
     "39a90bb28fed3ae0eb417f93b3a15bb443f9efd19fdd680b8e909c04e6bd9ec6"),
    (["verify-monad", "--k", "1", "--bounds", "4,4"], 0,
     "6dac6674a40798d30562bc68bdf08d53e4b098dc7fd281d2a1e8dac083f228f1",
     "121f84ba87e42eade2fabc0176a49853843eaf61f7901f183bed21dff0d909fc"),
    (["verify-monad", "--k", "2", "--bounds", "2,2,3"], 0,
     "bc04847662d44382b4c0d76e712202143f34889366319d2f22bb26db6a62c7c7",
     "f4ddb131b3a28005c1fd0890974c402dee39d0591cb254111891f9ea03c760e2"),
    (["enumerate-diagrams", "--k", "4", "--bounds", "2,2,2,2"], 0,
     "de6efe9918dcfbf3a8ee832f14c38c470c0504987b3efa81a55eaf4e6a750627",
     "35176248a87109d1061b0388996400938969673266c1b75b0fa0bf86cbc5dcd2"),
    (["verify-monad", "--k", "3", "--bounds", "2,2,2,2"], 0,
     "47d292d993e9ca22ef039c35b65fbe7e257e63f51390d3b3db00e8c3e0d64abc",
     "369b509f0155adfeeacedead899da9745235c77c0fe855c0300aab3cf30804fb"),
    (["verify-monad", "--k", "3", "--bounds", "3,3,3,3"], 0,
     "00b243485aa5182549dcf0f7f71536ae98c9e872039181d96e34c7ac4a83c730",
     "d89eed8dee6c05289e72a6dfcd9eb2d6aaaeedca4164376ac2c4153ffdd88a64"),
    (["enumerate-diagrams", "--k", "2", "--bounds", "6,6"], 0,
     "f5cfface15d0c3b366dda39816428afcb70d82d026321cce55f3d09273608453",
     "c8be81faa2272a02aac79fc48f5ba87a75f49bf2dd90b1225b6bf075d52acc7f"),
    (["verify-monad", "--k", "1", "--bounds", "6,6"], 0,
     "fd6ee57032a7bd6c6080a71e8ce15cf260401d098c2781db2e89528aee6796ab",
     "6c27808ba39af8154dfda53074f0378bef22d0d02463939ffa9b88b3f718bec9"),
    (["aut", "--diagram", "{data}/diagram_3to2.json"], 0,
     "ccdd869e7985ec1045d22ce82f1b4004c1ee436655a26f6490e0aec311423748",
     "52d413f024b914e71ffbcb0029852702d3b1e9afc58fdef9f1c06abd250cbe6d"),
    (["aut", "--diagram", "diagram_4to2to1.json"], 0,
     "774bb74bb7373be4f2d72a8ed66e032c14b56183863d4cebce93ae909e9fa323",
     "866ea874ecfc83d268d817f00fbf66f2af32c9c1f72dde6009dae04bd377f78f"),
    (["aut", "--diagram", "no_sets.json"], 0,
     "501336356c4b78f95d5576132f4813e1634014823da963bacd81e59f3ad05820",
     "b5b3ec9e3b79410e6cb668efec3da112c4c077557967985cabc911f1c68ce48f"),
    (["solve-comonoid", "--x", "3", "--y", "2", "--show-matrices"], 0,
     "7367c3ac0d3aef5675180aa61345bf4fa770fa51a27005d4b8743e3a2f4a1902",
     "cf4a71a7e3e7f56f07de8c4bf109e6ce664ca422f3ef6869c5794a0e6f19a290"),
    (["galois-fixed", "--x", "{data}/gset_c2_regular.json",
      "--y", "{data}/gset_c2_trivial2.json"], 0,
     "2ee85d7cade8f72437c028c8292b6c993658b05e3697f57af54ac9ba2a9c6386",
     "29928f1f4da5433e2310476ac2b270c474a48ad798d50a677974bf4f22fb5398"),
    (["galois-fixed", "--x", "{data}/gset_c2_trivial2.json",
      "--y", "{data}/gset_c2_regular.json"], 0,
     "f470220575cab4f83af85898a5922a70c0301078df9fa9cfb183f92e6223d880",
     "04cc6b1ba24ee956d4f7fd8b210c6b6e2d3125130e25b22d1298ad832ce23c6f"),
    (["galois-fixed", "--x", "v4_fixes_2.json", "--y", "v4_fixes_0.json"], 0,
     "a89db39d2d3f2496adebffa74d5822211a518235a4afa73d75e1ea145e2d853d",
     "d05bdcdd98b1aafdc332722fc9b099a00e268bec2ad92da763ae32eb0c7b3698"),
    (["galois-fixed", "--x", "v4_fixes_2.json", "--y", "v4_fixes_2.json"], 0,
     "fbf154a7eedf96f7c307f9cd4f151b3db113d6e194c40ed5f5c405fa8124af00",
     "8196c63a533cc73552081455592fe2a2c769340e332a3f27857fdb156e742104"),
    (["galois-fixed", "--x", "s3_transitive.json",
      "--y", "s3_fixes_2.json"], 0,
     "a89db39d2d3f2496adebffa74d5822211a518235a4afa73d75e1ea145e2d853d",
     "d05bdcdd98b1aafdc332722fc9b099a00e268bec2ad92da763ae32eb0c7b3698"),
    (["galois-fixed", "--x", "s3_fixes_2.json",
      "--y", "s3_transitive.json"], 0,
     "f470220575cab4f83af85898a5922a70c0301078df9fa9cfb183f92e6223d880",
     "04cc6b1ba24ee956d4f7fd8b210c6b6e2d3125130e25b22d1298ad832ce23c6f"),
    (["galois-fixed", "--x", "s3_transitive.json",
      "--y", "s3_transitive.json"], 0,
     "a89db39d2d3f2496adebffa74d5822211a518235a4afa73d75e1ea145e2d853d",
     "d05bdcdd98b1aafdc332722fc9b099a00e268bec2ad92da763ae32eb0c7b3698"),
    # C6 acting trivially on 6 points, both sides: 6^6 maps, at the cap
    (["galois-fixed", "--x", "c6_trivial6.json",
      "--y", "c6_trivial6.json"], 0,
     "82ab6075e6058deeeaabf43816b07cc21672c997681a823a86b183d1445475dc",
     "b05eadc8c826ad7de764699e6cc9389ff3da189dd207eaf32925a8a75af19b8e"),
    (["hocolim", "--diagram", "{data}/cover_two_patches.json"], 0,
     "14480b4eaf79bac890df8c509ea079a67e3323778ef31cd9bd8212bf39e972b4",
     "9f42027923309d9b67d736c37f5a891865336cfc2085e772eeaf571c43356053"),
    (["hocolim", "--diagram", "{ambient}"], 0,
     "6126ac2421d79855a17c5e6c90f4d11e4df2eb8aa3d70cce1917979fe5830d16",
     "77062830447c47df720c79331ae6b5d739085f2850ae540e5b85bf55cc5e1a60"),
    (["hocolim", "--diagram", "{square}"], 2,
     "a11048888c893394d6e3ecdeaa04a61f8b14f46a4feabb785ba25cd0856152d2",
     "ad4c9093a6cc7a7fa4e279e48edffac3740405d73e3782110b3ff6406bff1aa9"),
    (["hocolim", "--diagram", "empty.json"], 0,
     "fd9d3905b11b3c7e723a08e3c879f6d1d5f49d40e63a84f003265735f6fa929c",
     "7441b3b6cfc8148c9b05eacb7902c129d3183f5bc5b3e11b3de948e8866116e1"),
    (["hocolim", "--diagram", "empty_ambient.json"], 0,
     "bcd3ee4eeba3ba0cc10f2dd90e91cc3c39d902e0de9daa82566e204cd59d6c5c",
     "a1524b62dac72876ae6bc36c7cc1afda81bd0424e80ee683f028659788442c00"),
    (["hocolim", "--diagram", "misshaped.json"], 2,
     "3b063c31026cc2f69ed600751a09f646430346091ec1314c8c81c24268a4ce7f",
     "1d092d368f93c60be8afeddc6d2fd43b9c103ba7046bb31b2171eb328f381f3c"),
    (["hocolim", "--diagram", "rational.json"], 0,
     "74fc0695a873b6cb2a92da0907fb147fd630e87ec498519b63eff8804f2ee8b5",
     "2157aefbf92cd22e2aa20604a474b95c58e0c54720ca241b172ce2459221e004"),
    (["hocolim", "--diagram", "no_vertices.json"], 0,
     "8305d24b5b9e1ebc8759a5c98be086ecfa07cde695a4f08f81baac0c3c6f53cf",
     "47d249dfbe0e4f5a22267c728208b0c871fe6d805a9a080257ba35bc07fb2ffe"),
    (["verify-mcffe", "--x", "3", "--y", "2"], 0,
     "3779445b391e8965f4bece4116e1858bdb22e38d36ad98958b334d6a17ada333",
     "8daca0efa2075932c91d48f99b4ab53745573fe24e34ef21c35d2ea83c625e3d"),
    (["verify-mdffe", "--x", "2", "--y", "2", "--bound", "3"], 0,
     "504a853ec14c17b617945797b8f0429b7328ee467638b253e20220ce7e1c0c6c",
     "5c596796166116f7950bf907626d2b6d298ac483a50e7cfab39d80867c3192da"),
    (["verify-mcffe", "--x", "9", "--y", "2"], 2,
     "0cad0c94011036ff64cfe66b226a275bdb6ec245bf2d7933db5fedd49d036373",
     "ae2ced67eeca2dd4186409ca90a7864c1b30be91b8694cca1203fc5708b5565d"),
    (["enumerate-diagrams", "--k", "2", "--bounds", "0,2"], 2,
     "7a7f3e23e950e714ae3c5a62ecd55ba37e899f4040385b89033d192e4222098c",
     "c686858f1cc291854520471a1a38080184612e334cd5f19978a16ef428f95203"),
    (["aut", "--diagram", "/nonexistent/diagram.json"], 2,
     "cceb8a119a30170de0a1845d9b4613a68a04c5f552f5610d1609ee3bfec287d6",
     "af0045b04ff65d380ce2720a643752524fa130b230a2a53db13a5f90d971307f"),
]

# the sha256 of the `-h` output, 80 columns wide, of the top parser (None)
# and of each subcommand's parser
HELP = {
    None:
        "dad72dca9287eaa18bc316b284b1f348788db6ec459b60a0364c46e0d4732140",
    "enumerate-diagrams":
        "4b9a5df6bbe1f5e16d8dc7431703bce7303232e02a407040335309ecf58d9ba0",
    "aut":
        "3d1e85de44952c58d9b9cd5f648616627d3132a6f5f6fcb3027aeb4a2063c0d0",
    "solve-comonoid":
        "370c5d7afcdf2ab88ebb03c44d064685c00d89b443a2b970805afde61d1c207f",
    "galois-fixed":
        "6c559012b21f51f800d2c299767d1f76605c2a02a24d04036e2260893108dee2",
    "verify-monad":
        "fca674ee82759a537903451a6c4391f3849988eaa70ce0e11643cd7d3cc3f4ab",
    "hocolim":
        "c7ec7bd6bd18e81d73877e7370b2f9b6d84837a755bb0ede4e38bb75c5f6606a",
    "verify-mcffe":
        "9dc47f8791296e0f3f46f85fb6b071a7180d1a03d8cc6da565ab4167161b928d",
    "verify-mdffe":
        "d19fb832ebe4031c0025ae8f1b1086fce1c04b4c5138a29236c5ba33ae53ac5e",
}

CASES = [(argv + ["--format", fmt], status, digest)
         for argv, status, table, json_ in GOLDEN
         for fmt, digest in (("table", table), ("json", json_))]


@pytest.fixture
def ambient_cube(tmp_path) -> str:
    path = tmp_path / "ks.json"
    path.write_text(json.dumps(ambient_cube_payload(), sort_keys=True))
    return str(path)


def write_relative_files(directory: Path):
    """The files the golden argvs name relative to the working directory:
    a square that does not commute, cubes with 0-row and 0-column blocks
    without and with an ambient, one with an empty block of the wrong
    shape, one with rational entries, the cube on no index, the
    two-generator groups V4 and S3 acting on 3 points, C6 acting
    trivially on 6, the sets
    4 -> 2 -> 1, whose automorphisms swap two subtrees, and the diagram
    of no sets, whose one automorphism is the identity.  V4
    acts through a transposition, fixing 2 or fixing 0; S3 acts through
    its sign, fixing 2, or transitively."""
    for name, payload in (
            ("square.json", square_cube_payload()),
            ("empty.json", empty_block_cube_payload(ambient=False)),
            ("empty_ambient.json", empty_block_cube_payload(ambient=True)),
            ("misshaped.json", misshaped_empty_block_payload()),
            ("rational.json", rational_cube_payload()),
            ("no_vertices.json",
             {"index_size": 0, "vertices": {}, "edges": {}}),
            ("v4_fixes_2.json", gset_payload("v4", [[1, 0, 2], [0, 1, 2]])),
            ("v4_fixes_0.json", gset_payload("v4", [[0, 1, 2], [0, 2, 1]])),
            ("s3_fixes_2.json", gset_payload("s3", [[1, 0, 2], [1, 0, 2]])),
            ("s3_transitive.json",
             gset_payload("s3", [[1, 0, 2], [0, 2, 1]])),
            ("c6_trivial6.json",
             gset_json(trivial_gset(load_group("c6"), FinSet(6)))),
            ("diagram_4to2to1.json",
             {"sets": [{"size": 4}, {"size": 2}, {"size": 1}],
              "maps": [{"values": [0, 0, 1, 1]}, {"values": [0, 0]}]}),
            ("no_sets.json", {"sets": [], "maps": []})):
        (directory / name).write_text(json.dumps(payload, sort_keys=True))


@pytest.fixture
def square_cube(tmp_path, monkeypatch) -> str:
    """The files of `write_relative_files`, named relative to the working
    directory so that the error texts are the same in every run."""
    write_relative_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return "square.json"


@pytest.mark.parametrize("argv, status, digest", CASES,
                         ids=[" ".join(a) for a, _, _ in CASES])
def test_stdout_matches_golden_digest(capsys, ambient_cube, square_cube,
                                      argv, status, digest):
    argv = [a.replace("{data}", DATA).replace("{ambient}", ambient_cube)
            .replace("{square}", square_cube) for a in argv]
    assert cli.main(argv) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


AUT_ROWS = [argv for argv, status, _, _ in GOLDEN
            if argv[0] == "aut" and status == 0]


@pytest.mark.parametrize("argv", AUT_ROWS, ids=[a[2] for a in AUT_ROWS])
def test_golden_aut_generators_close_to_the_automorphisms(capsys, square_cube,
                                                          argv):
    # each generator the JSON report prints is checked as an automorphism
    # of the file's diagram, and together they close to the brute list
    path = argv[2].replace("{data}", DATA)
    assert cli.main([*argv[:2], path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    with open(path) as fh:
        d = FinDiagram.from_json(json.load(fh))
    group = closure([iso.perms() for iso in aut_generators(data, d)],
                    d.sizes())
    assert group == set(brute_automorphisms(d))
    assert len(group) == data["order"]


def test_every_subcommand_has_a_help_digest():
    assert list(HELP) == [None, *cli.SUBPARSERS]


@pytest.mark.parametrize("command, digest", HELP.items(),
                         ids=[str(c) for c in HELP])
def test_help_matches_golden_digest(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "-h"] if command else ["-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys, monkeypatch, tmp_path, ambient_cube):
    # the code block under "## Library example", run beside its ks.json;
    # it imports only exported names, so this pins them too
    section = README.read_text().split("## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line[2:] for line in code.splitlines()
             if line.startswith("# 9 ")]
    assert shown == ["9 9 True"]
    assert ambient_cube == str(tmp_path / "ks.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0] == shown[0]


def readme_command_lines() -> list:
    """The argvs of the `sh` block under README's "## Command line", one
    per line, with continuation lines joined and comments dropped."""
    section = README.read_text().split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()]


def test_readme_command_lines_run_every_subcommand(capsys, monkeypatch):
    # one line per subcommand, each exiting 0 from the repository root
    argvs = readme_command_lines()
    assert [argv[0] for argv in argvs] == ["motivic-kit"] * len(argvs)
    assert sorted(argv[1] for argv in argvs) == sorted(cli._SUBCOMMANDS)
    monkeypatch.delenv("MOTIVIC_KIT_MAX_SIZE", raising=False)
    monkeypatch.chdir(README.parent)
    for argv in argvs:
        assert cli.main(argv[1:]) == 0, argv
    capsys.readouterr()
