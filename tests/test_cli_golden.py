"""Byte identity of the CLI: the sha256 of stdout and the exit code, per command.

Every table family and every identity, each in all three formats, and three
integer series powers are pinned at a small size, so a change that moves one
output byte fails here.  Each digest is ``sha256(stdout.encode("utf-8"))``;
regenerate one only for an intended output change.
"""

from __future__ import annotations

import hashlib

import pytest

from umbral.cli import main

GOLDEN = {
    "table --family stirling1u --n-max 5 --format plain":
        (0, "46eef1690cf05a9d938f46ccb9e609361e2e0518aecbc866588c1339ea7c9570"),
    "table --family stirling1u --n-max 5 --format csv":
        (0, "5d5d0853facac123ea6e4aea13b83922f54bf7ee4d2edd799d1eae79c8fc0111"),
    "table --family stirling1u --n-max 5 --format json":
        (0, "fe647868ff85a5da6ced0c5913cb9c8797cd3ce939ee5bd46e7a6dbca523c420"),
    "table --family stirling1s --n-max 5 --format plain":
        (0, "8daca27d59e35f3abc90ae16f01f478f1a5b032223c41f612363c917ff5bbdf5"),
    "table --family stirling1s --n-max 5 --format csv":
        (0, "56d0ee3e65ee3b4faddf393f7a9489e966dbfd86746600bab73c4996ca40fc23"),
    "table --family stirling1s --n-max 5 --format json":
        (0, "37390ea15374560781aca4d01180a7d9ba458cab6a10fd175cf6a621220d5053"),
    "table --family lah --n-max 5 --format plain":
        (0, "772669ac5b3645ace77f93ec7c9fc4662abc13f62288735ec9d4ae0c509fc1ad"),
    "table --family lah --n-max 5 --format csv":
        (0, "b85bb6b5ad6c6938ed13077223b3b23d93aa15b8a0070844de03c5bef1161aef"),
    "table --family lah --n-max 5 --format json":
        (0, "d78b54bd3c84f64bc3b0ade25159f6a4b8c3b95d2e017d103ceb5022014e78b8"),
    "table --family lah-signed --n-max 5 --format plain":
        (0, "81fb9727252930ebf5f0c88b71c768716a3960f5811b1572dc7878d2ad72f076"),
    "table --family lah-signed --n-max 5 --format csv":
        (0, "fa5b1008c9798e2a441412b816c37aea4019b043954bfaa6c07409c93295d13b"),
    "table --family lah-signed --n-max 5 --format json":
        (0, "08f19aa3fe83fa031a74506ecb1af96e6bc10f5f2b0662e0ea3b95cc14ab2829"),
    "table --family abel --n-max 5 --format plain":
        (0, "fe16ecf626ae0aade4415b31da861c690c68ebd4bcc889fc3685054cb6d07450"),
    "table --family abel --n-max 5 --format csv":
        (0, "494c51f4b76c6627314d0f9a1dac5acfc58ea9db2fe9779d7325d7d387ec77b3"),
    "table --family abel --n-max 5 --format json":
        (0, "ee58538958cb88640f1e0a02321259c01e1db7336b4ab0896ee087eed0f8beb7"),
    "table --family mittag-leffler --n-max 5 --format plain":
        (0, "57133448161790b748a2effcabd311756c1dd2ba211fb359978e297bef688969"),
    "table --family mittag-leffler --n-max 5 --format csv":
        (0, "96b11376b4c1a1665eadf11f3231b593409af9aa5a0e95dc3c483cc213fd21ba"),
    "table --family mittag-leffler --n-max 5 --format json":
        (0, "794d7a4f3c3b6d1679d76dcf2d88348a3ff4d85252b11ec98168a6b35dc1ab1e"),
    "table --family abel --n-max 5 --a=-3/2 --format plain":
        (0, "c06fbcc49423612edebe55a387cd8771b9a37400bc304cd922b60fc5506b1585"),
    "table --family abel --n-max 5 --a=-3/2 --format csv":
        (0, "d5b975094c92b3f2a069a5d45b7dfb745a33415dc162ec4cfd9260c294880cc0"),
    "table --family abel --n-max 5 --a=-3/2 --format json":
        (0, "340a0f5da8cda75efb22fa51cab0637b5df2330a84885c2b546ba8c00c5c83da"),
    "verify t1 --n-max 4 --m-max 2 --format plain":
        (0, "436341338e0335b24e89157ba09b2eccec0a63513e96e6f9650affa97b984759"),
    "verify t1 --n-max 4 --m-max 2 --format csv":
        (0, "5eebc86b0a62b60146c43c7dcf3eddd09c30b3c0c155f5cedd98b629d0a5b0da"),
    "verify t1 --n-max 4 --m-max 2 --format json":
        (0, "85bd0ae0a3eb4a804104efb5f93128b30696a55a882d4e5e1a39cf4e7f1372e0"),
    "verify t2 --n-max 4 --m-max 2 --format plain":
        (0, "5230dd1dbf2bd4b0fc3ae6aede8142e8f4e5ec1f83952576aef20cb505025285"),
    "verify t2 --n-max 4 --m-max 2 --format csv":
        (0, "18875bd866cc6305f7fa4f299a953ce6a58f5049251fae5fb6cf24202a8b297d"),
    "verify t2 --n-max 4 --m-max 2 --format json":
        (0, "dde444bcc23c076d347a089a29f50ef374bb28b7bbd86eebf7b45fffbf3b3691"),
    "verify t3 --n-max 4 --m-max 2 --a=-3/2 --format plain":
        (0, "a9cc4445116683f65f654c471ca13c1079b1a1ae7a3d6e768d1e33595a072f71"),
    "verify t3 --n-max 4 --m-max 2 --a=-3/2 --format csv":
        (0, "083917e1f338a64340775bd7eedbc052e542ec3b1ba6f518d761d3e34c7c8ce3"),
    "verify t3 --n-max 4 --m-max 2 --a=-3/2 --format json":
        (0, "db91b2352d2f21589757732ce8a5f76a75ef8afe26e6e1a2a2b4fec7b0c31faf"),
    "verify remark --n-max 4 --m-max 2 --format plain":
        (1, "915b3f4df4ce024a85db11a5895369365a04ef4cee36106ca5c8b52ebc4e41ed"),
    "verify remark --n-max 4 --m-max 2 --format csv":
        (1, "56c0e7c718060abb2981ca0323a2df9b1cd0e1c77495845274e507c3cd124c07"),
    "verify remark --n-max 4 --m-max 2 --format json":
        (1, "92d4ddc666f2c89af8b14331147cc34974523072b8fa1db815ffe54b452fbbf7"),
    "verify xcheck --n-max 5 --m-max 2 --family rising-factorial --format plain":
        (0, "72e72362ab1c078209f9206ff7d8dc5e80a783f6ab6a138fd6f8c9869f1b31e7"),
    "verify xcheck --n-max 5 --m-max 2 --family rising-factorial --format csv":
        (0, "31819ea23417373e04a493068628a2f78811bd335e70ea718b4d5df0ae362129"),
    "verify xcheck --n-max 5 --m-max 2 --family rising-factorial --format json":
        (0, "e5de6286d493cb5e799c34cd58216d7623e737642182be8bf8f8db6e4247fd5e"),
    "verify xcheck --n-max 5 --m-max 2 --family lah --format plain":
        (0, "bd02bc80b944eb329a989a566e729b364c6580c4550c8cde0a6cfd86cdebf7d1"),
    "verify xcheck --n-max 5 --m-max 2 --family lah --format csv":
        (0, "41db5cf04d09f1e335f2279ff3e4a7cc09a76704185e6fb5ff0c7a572e7ed7e9"),
    "verify xcheck --n-max 5 --m-max 2 --family lah --format json":
        (0, "14c6d764ab3fc221ff299785774b9274770c6a3cd32975ca63a8784c1f3e2224"),
    "verify xcheck --n-max 5 --m-max 2 --family lah-signed --format plain":
        (0, "bd02bc80b944eb329a989a566e729b364c6580c4550c8cde0a6cfd86cdebf7d1"),
    "verify xcheck --n-max 5 --m-max 2 --family lah-signed --format csv":
        (0, "41db5cf04d09f1e335f2279ff3e4a7cc09a76704185e6fb5ff0c7a572e7ed7e9"),
    "verify xcheck --n-max 5 --m-max 2 --family lah-signed --format json":
        (0, "14c6d764ab3fc221ff299785774b9274770c6a3cd32975ca63a8784c1f3e2224"),
    "verify xcheck --n-max 5 --m-max 2 --family abel --a=-3/2 --format plain":
        (0, "e2a61014fcee6c17cbba1c611505e1a376d5b14de672d916a50ce77974905a8e"),
    "verify xcheck --n-max 5 --m-max 2 --family abel --a=-3/2 --format csv":
        (0, "c29b76a351ab750062cb26711ab0061fd3977a6006be4b388ae547238417273a"),
    "verify xcheck --n-max 5 --m-max 2 --family abel --a=-3/2 --format json":
        (0, "5908003338bc9a00e777e5162b87f579b19a9439421fb79aca3934d0261014b6"),
    "verify xcheck --n-max 5 --m-max 2 --family mittag-leffler --format plain":
        (0, "9c41b2cdbdaf85e346be29591c935abea83b14ba9b6975ebf6fe638b8f0259f8"),
    "verify xcheck --n-max 5 --m-max 2 --family mittag-leffler --format csv":
        (0, "714ce8a3aa3fe3fb0dba75e634e04b8676fa7caed1ea991cce2b18cfb435cdfc"),
    "verify xcheck --n-max 5 --m-max 2 --family mittag-leffler --format json":
        (0, "d21a86d901b5d5fc884cb6340f21fa98f0acd7a94b323a0346e83de818f5359d"),
    # integer powers: order >= 1, a constant term other than 1, and a negative
    # power of order 1, which is a usage error
    "series pow --coeffs 0,1 --alpha 2 --trunc 4":
        (0, "e6f8472639d0cc612b266849ca2e0e792610227228b2f75f9bb3471b42fa116f"),
    "series pow --coeffs 2,1 --alpha -2 --trunc 4":
        (0, "3991c1e1b94f66a13e20de9812059e0f7850bc485536d212624e060dffa4ec1b"),
    "series pow --coeffs 0,1 --alpha -1":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_and_exit_code_are_pinned(command, capsys):
    code = main(command.split())
    assert (code, digest(capsys.readouterr().out)) == GOLDEN[command]


def test_unknown_table_family_lists_the_choices_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line to the terminal
    code = main(["table", "--family", "bell", "--n-max", "2"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (code, digest(captured.err)) == (2, "de49c8f394e800e6da5f9b730cc01a30d40a67bd73934219d0646c6d469c43eb")
