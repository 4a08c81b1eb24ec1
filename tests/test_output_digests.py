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
which moved their last bits.  A refactor of the kernels must leave every
byte of these outputs unchanged; a change that means to move them updates
the digests and says why.
"""

import hashlib

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
