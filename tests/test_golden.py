"""Golden CLI outputs: the exit status and the sha256 of stdout for fixed
invocations of every subcommand, in table and json format.

The census digests were recorded from the brute-force relabeling search
that the structural canonical forms replaced, so any change to a
representative, to the output order or to an automorphism order shows
here.  The other digests pin the rest of the CLI contract, error texts
included.  If a change to the output is deliberate, record the new digests
and say why in CHANGES.md.
"""

import hashlib
import json
from importlib import resources

import pytest

from helpers import ambient_cube_payload
from motivic_kit import cli


DATA = str(resources.files("motivic_kit") / "data")

# (argv, exit status, table digest, json digest); "{data}/" names a
# packaged fixture and "{ambient}" the file `ambient_cube` writes.
GOLDEN = [
    (["enumerate-diagrams", "--k", "2", "--bounds", "4,4"], 0,
     "2cd9035d05c3dadf5ca2c6cf2d429b31a701ef3cfe5ba31b8c0fac899a9eb74a",
     "0a640720568cd80d9373ae2f8848d52643a4132b44f1ba8c40a04fdc6a46abb9"),
    (["enumerate-diagrams", "--k", "3", "--bounds", "3,3,3"], 0,
     "eca2d7b64c6e0f3d85d5147194f6cdf90a055e1a6fd8749139389db51566e921",
     "578846f316e64ac0441d854650ec0a73ab39b6a825113d1fdbb02f0f84ef8213"),
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
    (["hocolim", "--diagram", "{data}/cover_two_patches.json"], 0,
     "14480b4eaf79bac890df8c509ea079a67e3323778ef31cd9bd8212bf39e972b4",
     "9f42027923309d9b67d736c37f5a891865336cfc2085e772eeaf571c43356053"),
    (["hocolim", "--diagram", "{ambient}"], 0,
     "6126ac2421d79855a17c5e6c90f4d11e4df2eb8aa3d70cce1917979fe5830d16",
     "77062830447c47df720c79331ae6b5d739085f2850ae540e5b85bf55cc5e1a60"),
    (["kappa", "--components", "A,B,C", "--ambient", "Xbar", "--dim", "2"], 0,
     "685e1f04ed5ac3748e5948d6cf1c0ca8651dfed2a15a30f4a521136cf33dca65",
     "2d9cd77b839cd791b41f8d425c61eeab2220529b3d8bd4b9bc296490f2532cd5"),
    (["kappa", "--components", "A,B", "--ambient", "X", "--dim", "1",
      "--cross", "Y"], 0,
     "fc9bcb5612fdf1b2171456c3ec36f9a40f946689254bc88a517eec73d3013e91",
     "7a769e82c6c5bed6fce7eb33a7fb041c421e6e474f7e7d79c3257679ddefc75d"),
    (["verify-mcffe", "--x", "3", "--y", "2"], 0,
     "3779445b391e8965f4bece4116e1858bdb22e38d36ad98958b334d6a17ada333",
     "8daca0efa2075932c91d48f99b4ab53745573fe24e34ef21c35d2ea83c625e3d"),
    (["verify-mdffe", "--x", "2", "--y", "2", "--bound", "3"], 0,
     "504a853ec14c17b617945797b8f0429b7328ee467638b253e20220ce7e1c0c6c",
     "5c596796166116f7950bf907626d2b6d298ac483a50e7cfab39d80867c3192da"),
    (["verify-mcffe", "--x", "9", "--y", "2"], 2,
     "0cad0c94011036ff64cfe66b226a275bdb6ec245bf2d7933db5fedd49d036373",
     "0cad0c94011036ff64cfe66b226a275bdb6ec245bf2d7933db5fedd49d036373"),
    (["enumerate-diagrams", "--k", "2", "--bounds", "0,2"], 2,
     "7a7f3e23e950e714ae3c5a62ecd55ba37e899f4040385b89033d192e4222098c",
     "7a7f3e23e950e714ae3c5a62ecd55ba37e899f4040385b89033d192e4222098c"),
    (["aut", "--diagram", "/nonexistent/diagram.json"], 2,
     "cceb8a119a30170de0a1845d9b4613a68a04c5f552f5610d1609ee3bfec287d6",
     "cceb8a119a30170de0a1845d9b4613a68a04c5f552f5610d1609ee3bfec287d6"),
]

CASES = [(argv + ["--format", fmt], status, digest)
         for argv, status, table, json_ in GOLDEN
         for fmt, digest in (("table", table), ("json", json_))]


@pytest.fixture
def ambient_cube(tmp_path) -> str:
    path = tmp_path / "ks.json"
    path.write_text(json.dumps(ambient_cube_payload(), sort_keys=True))
    return str(path)


@pytest.mark.parametrize("argv, status, digest", CASES,
                         ids=[" ".join(a) for a, _, _ in CASES])
def test_stdout_matches_golden_digest(capsys, ambient_cube, argv, status,
                                      digest):
    argv = [a.replace("{data}", DATA).replace("{ambient}", ambient_cube)
            for a in argv]
    assert cli.main(argv) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
