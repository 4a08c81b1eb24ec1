"""Output bytes of the CLI commands, pinned by SHA-256 digest.

The ``map`` digests, and the ``contour`` digests of CM_A and CM_C, which
have no points, were recorded at the commit before the witness
polynomials were shared by the exact kernel, the map screen and ``scan``;
the ``validate`` and ``attenuate`` digests at the commit before those
commands stopped importing numpy.  The ``classify`` digests were recorded
when ``w_m`` became exact, evaluated on the matrix's integers and rounded
once, which moved its last bits on all five states.  The ``contour``
digests of CM_B, CM_D and CM_E were recorded when each point's ``t2``
became the exact root of ``W_R`` rounded once, which moved its last bits;
they equal the CSV of ``helpers.exact_esd_contour``.  The ``scan``
digests were recorded when each row's ``w_reduced`` and
``w_ppt_attenuated`` became ``W_R`` and ``t1 t2 W_R`` interpolated from
the exact corners and rounded once, instead of float sums of the rounded
Gamma coefficients and the float PPT witness of the attenuated matrix,
which moved their last bits.  The edge-path ``map`` digests (far moments,
tolerances above their floor, pure states, overflow) were recorded at the
commit before the map kernel took its tolerance, band and integer
conversion out of the cell.  A refactor of the kernels must leave every
byte of these outputs unchanged; a change that means to move them updates
the digests and says why.

The help texts, ``--version`` and the usage errors are pinned too: their
exit status, stdout and stderr, recorded at the commit before the parser
began to add only the invoked subcommand's arguments.  argparse lays help
out differently from one Python version to the next, so these digests
hold on the version they were recorded on, Python 3.11, at 80 columns.
"""

import hashlib
import json
import sys

import pytest

import helpers
from cvrobust.cli import main, state_file_text

STATE_DIGESTS = {
    ("scan", "CM_A"): "8958db0dbe91827b2f5be53e805b6c718e1a211961be0d915600b10e9b15c4cb",
    ("scan", "CM_B"): "cdcfd0447afa3163c225c5342e28ef3c50205efa5cf4a30e659eecf023f89ab6",
    ("scan", "CM_C"): "1d4fc42945572dafc14274a8716a1e368e59b68537ead1d44173f0a1da8af9da",
    ("scan", "CM_D"): "1938c60a63dd69c9b0194f2ac9d4b307cac7d7773675a385ec9ed66b3ccf7f0b",
    ("scan", "CM_E"): "29341c595baacc52685efe50804309040f576cbcdfbb642d7bf6a616b7028128",
    ("contour", "CM_A"): "c4e4461620947eaa8a6e0b8a63c45cd9aa273ac98c704c72a5a11ca0bf316776",
    ("contour", "CM_B"): "1df650054431b4bcb8e1f111e2d5ca3a205add68a9ccf85d8010b9914762e291",
    ("contour", "CM_C"): "c4e4461620947eaa8a6e0b8a63c45cd9aa273ac98c704c72a5a11ca0bf316776",
    ("contour", "CM_D"): "f7022408ec08dff4f61ff1daedb1cc5fbae79f7259cfda518e9e08c087475ef9",
    ("contour", "CM_E"): "46dbecd8eb8eca9ddc43a356c2cfa7098ccfc1cee88dd6da2b296df020433294",
    ("validate", "CM_A"): "ff4a0a56ea30d809c8d070ad80165922dac2e8c6c76b91e1f0239b322a7abcd1",
    ("validate", "CM_B"): "29e377c56d942db7f85162e773faeadd43dce6c0aac2764fb412549e87003c97",
    ("validate", "CM_C"): "b2688a010c50fcbc449da64e3e37e0ef011c6511247f15c90b12c8b01c14aaa0",
    ("validate", "CM_D"): "5e95179c4d990fb3ed662135ee203ba327af4d7bc4ad41fd0c12e68b208e7cfb",
    ("validate", "CM_E"): "e59530b54aab0f99cb854465218440d39d27b2d01bab720acccd4673d4660a17",
    ("attenuate", "CM_A"): "8025a74dafd89192075aa37a600e60dbd11fb383e2fc2cae0b7eb362cc307e71",
    ("attenuate", "CM_B"): "759960b61bf0da3a524787949036572f219e1285dbf2cf0f7e79f480d6b7683d",
    ("attenuate", "CM_C"): "5d4f6ac10fbb2bcdf6c9be53de4123521679b13d0a1e9ffc956716a389b68c44",
    ("attenuate", "CM_D"): "35ca0a5594a9a61d10e02b58fdcb10166c3b901a8e3419c3fa282fdb2bbdd08a",
    ("attenuate", "CM_E"): "422170acbbc84df30d1786649c0372e548407bb1444a8ed74fb234e8542db64a",
    ("classify", "CM_A"): "9c02b8540075e707a79c234ce79a974db54e289694101d89da5df56ebdfc1a23",
    ("classify", "CM_B"): "4ffade2ec9decbc048a987b3fff6b2f35124504433aa625f37fce09dffc30675",
    ("classify", "CM_C"): "dda2a3a441fb7b2e079130ddcfc1d67c3b573b68fe2d9917916147c93d71d2e2",
    ("classify", "CM_D"): "6db7ed176dac1b29a1e6b0cdb2b544f4f7b2afc06c01c9a5b391574341755fe0",
    ("classify", "CM_E"): "23b63dc9b01bd76c9c93abaf74917a425ad90b98958cee98cae0c3b449e2a8dc",
}

EMPTY = hashlib.sha256(b"").hexdigest()

#: Map arguments -> exit status and the SHA-256 of stdout and of stderr.  The
#: last five pin the kernel's edge paths: moments past float range once
#: scaled by the map's denominator (every cell flagged), tolerances above
#: their 1e-9 floor on both maps, pure states, and a corner overflow.
MAP_DIGESTS = {
    "correlations": (
        ["map", "correlations", "--dq", "2.55", "--dp", "1.80", "--grid", "101"],
        0,
        "ef05ac9b4ff92ba8a52646cda7d1f00df7629861f35c79640c0d3d93a0be3508",
        EMPTY,
    ),
    "epr": (
        ["map", "epr", "--mu-minus", "0.7267", "--mu-plus", "0.4529", "--grid", "101"],
        0,
        "e48f7e81d4c4b8b528365e25fd3908c4e0652949609a210b66f2d4014c55c9a9",
        EMPTY,
    ),
    "epr-far-moments": (
        ["map", "epr", "--mu-minus", "1", "--mu-plus", "1", "--q-plus-max", "1e290",
         "--grid", "31"],
        0,
        "508fd0d2390bb80960e16c383756da25615906640e06c86156c45f3910a93606",
        EMPTY,
    ),
    "epr-above-floor": (
        ["map", "epr", "--mu-minus", "0.9", "--mu-plus", "0.2", "--q-plus-max", "3e5",
         "--p-minus-max", "2", "--grid", "41"],
        0,
        "2fdd9ca6716fe66fc43622bbdc3315359d4709e379c67764d9b2c1fc98d13737",
        EMPTY,
    ),
    "correlations-above-floor": (
        ["map", "correlations", "--dq", "1e7", "--dp", "3e5", "--grid", "41"],
        0,
        "a5b73c732b7a3ba9490251662afb4ba7e36a131b3e1453bc172461199d07c8f1",
        EMPTY,
    ),
    "epr-pure": (
        ["map", "epr", "--mu-minus", "1", "--mu-plus", "1", "--grid", "21"],
        0,
        "db4d6b76c8d6b5f7d0579e472a4a4fcf90d7fb38f85a6f77d6dd5ea582e1f0db",
        EMPTY,
    ),
    "correlations-overflow": (
        ["map", "correlations", "--dq", "1e80", "--dp", "1e80", "--grid", "3"],
        1,
        "0329551677a54b074bc9d6972ae3c10afd19e3212934f16b5f5e8d94b785e0e9",
        "360df012d31ae43a451aa23afdda4e6be94e2d02ab00a0eb7520bb123611a0f6",
    ),
}

COMMAND_ARGS = {
    "scan": ["--grid", "101"],
    "contour": [],
    "validate": [],
    "attenuate": ["--t1", "0.7", "--t2", "0.4"],
    "classify": [],
}

#: Arguments, space-separated -> SHA-256 of the JSON text of
#: ``[exit status, stdout, stderr]``.
PARSER_DIGESTS = {
    "--help": "992be88f3ee111b413a7d8e2b40c7267fdb0c562a5710dbaf61096a65627cf8c",
    "--version": "1ae7f61a1232759306cad16e3ae0afddd6bc71266bf7c54dcdeaaa7b2969576c",
    "validate --help": "0225898973228cd08a35c9063f004904157bcd395fcf6442642d96f244b02c9e",
    "classify --help": "b1f9bcb95f8e42674273d31243e80799c372860defd857f2ef939bea81521f50",
    "scan --help": "f5440c7707cc4dc1ae287ebcb15a4f403cd363a076822663a3c34ddd4ec477ad",
    "contour --help": "f90bf0578e1691db937510f74dc34ae6f24c2b11589daa631880e13e65a1c67c",
    "attenuate --help": "2de891af07594f5fb7c9a338bd17b8b9ce914c6157ae5eedc6ecc68bae69d107",
    "family --help": "fe81ce4d7e693110583a4d8f4d29076afe722e9619a4bd1685632c049f96623b",
    "map --help": "b21c7bbc3da4b8a2908c8419f80b856d3abf95cc9eb9effc4660e653837dd4a7",
    "random --help": "376ebdd6337fb881ed1279cee9eb21adccbc171e43031e6acf74b74270386b73",
    "robustify --help": "c71de2c427393559c2d45e5bad7a99c368f445662127b75e5ff20f7810666792",
    "family fully-symmetric --help":
        "dc48cb5c4d86191e9f935de38e2b9314399da242f4bb8eea8ba045ebf3a5ba70",
    "family from-squeezing --help":
        "61f6aab1eb9b3fcab008688f9387177a1181c8e44422eaac1faa90d0b703ac76",
    "family symmetric-modes --help":
        "4a859fb5a48552a785bab5aa610cc6eaa67ddc501597a5eb756f0539914827e6",
    "family standard-form-i --help":
        "f433b2ae48802c45fbc3117431631263081e203208b8de840793eb8783bce81e",
    "family pure-squeezed --help":
        "1848d306a0d998d18ca2f869e343acae8ac008040b80de594d79720113396f1d",
    "map correlations --help": "0b5034412beb6b59d42897876f61585751e901cbb0be93410e04da19d8f32f3c",
    "map epr --help": "92d48e1721b278800ee965e57e92a0f4edab790e41018f2da1598ac3d51c9e01",
    "": "6419d45d97a8ae2e1e3cf4278489b98a481eed3acbbb04529dcc0e9518de80a3",
    "bogus": "1578a59f3690b36d9911770f6f6f8ae2e00401c92ef4c5fad0a9b9959e667c07",
    "classify": "4b384103ec69432f30aa4630ca314cc5caf043296849655572b3380436dd61de",
    "family": "5a30b6faab0353bfef34ccc7c5ff0666192dd629c143b6d6c47fbe136491727b",
    "map epr": "67d7ecfb6a734e592d202634441973487b8c1c4a68be30fb24f35da76afeea16",
    "scan x --grid abc": "779c806a189854af9a0fb66557412b5baad334d9c9481ddde087ef942e8b8102",
    "-o x classify s.json": "87ab1fadcab5bd7f402fd1305752d4a3ec99b254ce2222ea5a0fb1e792e57df8",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(argv, path):
    assert main([*argv, "-o", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command, name", sorted(STATE_DIGESTS))
def test_state_command_bytes_unchanged(command, name, tmp_path):
    state = tmp_path / f"{name}.json"
    state.write_text(state_file_text(getattr(helpers, name), name))
    argv = [command, str(state), *COMMAND_ARGS[command]]
    assert digest(argv, tmp_path / "out") == STATE_DIGESTS[command, name]


@pytest.mark.parametrize("which", sorted(MAP_DIGESTS))
def test_map_bytes_unchanged(which, tmp_path, capsys):
    argv, status, out, err = MAP_DIGESTS[which]
    capsys.readouterr()
    code = main(argv)
    written = capsys.readouterr()
    assert (code, sha256(written.out), sha256(written.err)) == (status, out, err)
    if status == 0:
        assert digest(argv, tmp_path / "out.csv") == out


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="recorded on Python 3.11's argparse")
@pytest.mark.parametrize("argv", sorted(PARSER_DIGESTS), ids=lambda argv: argv or "no-arguments")
def test_help_and_usage_bytes_unchanged(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert sha256(json.dumps([code, out, err])) == PARSER_DIGESTS[argv]
