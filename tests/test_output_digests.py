"""Output bytes of the CLI commands, pinned by SHA-256 digest.

The ``scan``, ``contour`` and ``map`` digests were recorded at the commit
before the witness polynomials were shared by the exact kernel, the map
screen and ``scan``; the ``validate`` and ``attenuate`` digests at the
commit before those commands stopped importing numpy.  The ``classify``
digests were recorded when ``w_m`` became exact, evaluated on the matrix's
integers and rounded once, which moved its last bits on all five states.
The ``contour`` digests of CM_B, CM_D and CM_E were recorded when each
point's ``t2`` became the exact root of ``W_R`` rounded once, which moved
its last bits; they equal the CSV of ``helpers.exact_esd_contour``.  CM_A
and CM_C have no points.  A refactor of the kernels must leave every byte
of these outputs unchanged; a change that means to move them updates the
digests and says why.
"""

import hashlib

import pytest

import helpers
from cvrobust.cli import main, state_file_text

STATE_DIGESTS = {
    ("scan", "CM_A"): "fc07e913de59b67825ff8d94aaaf921e1ea1c82152be17de3aac4d9165a69409",
    ("scan", "CM_B"): "dd88918a3e309d20d5a09aa2a98ed6a29c50839bf7661bec104d0b64ada68b44",
    ("scan", "CM_C"): "2a64c9861b7bc86df601faf807e4eb80ee279cca3c13bb550ac6efacc66e5aad",
    ("scan", "CM_D"): "19d0cf4b9bf42f2e0d0f78166959d9b9e9074ad8cd95ccd39b5056ab5f2b18ea",
    ("scan", "CM_E"): "e350133ba692193513df400356b22d5f16d471793ec2fc1664ca85aa4bbc5a50",
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

MAP_DIGESTS = {
    "correlations": (
        ["map", "correlations", "--dq", "2.55", "--dp", "1.80", "--grid", "101"],
        "ef05ac9b4ff92ba8a52646cda7d1f00df7629861f35c79640c0d3d93a0be3508",
    ),
    "epr": (
        ["map", "epr", "--mu-minus", "0.7267", "--mu-plus", "0.4529", "--grid", "101"],
        "e48f7e81d4c4b8b528365e25fd3908c4e0652949609a210b66f2d4014c55c9a9",
    ),
}

COMMAND_ARGS = {
    "scan": ["--grid", "101"],
    "contour": [],
    "validate": [],
    "attenuate": ["--t1", "0.7", "--t2", "0.4"],
    "classify": [],
}


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
def test_map_bytes_unchanged(which, tmp_path):
    argv, expected = MAP_DIGESTS[which]
    assert digest(argv, tmp_path / "out.csv") == expected
