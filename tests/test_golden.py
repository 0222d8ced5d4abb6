"""Golden CLI outputs: the sha256 of stdout for fixed census invocations.

The digests were recorded from the brute-force relabeling search that the
structural canonical forms replaced, so any change to a representative,
to the output order or to an automorphism order shows here.  If a change
to the output is deliberate, record the new digests and say why in
CHANGES.md.
"""

import hashlib

import pytest

from motivic_kit import cli

GOLDEN = [
    (["enumerate-diagrams", "--k", "2", "--bounds", "4,4"],
     "2cd9035d05c3dadf5ca2c6cf2d429b31a701ef3cfe5ba31b8c0fac899a9eb74a",
     "0a640720568cd80d9373ae2f8848d52643a4132b44f1ba8c40a04fdc6a46abb9"),
    (["enumerate-diagrams", "--k", "3", "--bounds", "3,3,3"],
     "eca2d7b64c6e0f3d85d5147194f6cdf90a055e1a6fd8749139389db51566e921",
     "578846f316e64ac0441d854650ec0a73ab39b6a825113d1fdbb02f0f84ef8213"),
    (["verify-monad", "--k", "1", "--bounds", "4,4"],
     "6dac6674a40798d30562bc68bdf08d53e4b098dc7fd281d2a1e8dac083f228f1",
     "121f84ba87e42eade2fabc0176a49853843eaf61f7901f183bed21dff0d909fc"),
    (["verify-monad", "--k", "2", "--bounds", "2,2,3"],
     "bc04847662d44382b4c0d76e712202143f34889366319d2f22bb26db6a62c7c7",
     "f4ddb131b3a28005c1fd0890974c402dee39d0591cb254111891f9ea03c760e2"),
]

CASES = [(argv + ["--format", fmt], digest)
         for argv, table, json_ in GOLDEN
         for fmt, digest in (("table", table), ("json", json_))]


@pytest.mark.parametrize("argv, digest", CASES,
                         ids=[" ".join(a) for a, _ in CASES])
def test_stdout_matches_golden_digest(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
