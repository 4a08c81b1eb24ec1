"""Output bytes of the grid commands, pinned by SHA-256 digest.

The digests were recorded at the commit before the witness polynomials were
shared by the exact kernel, the map screen and ``scan``.  A refactor of the
kernels must leave every byte of these outputs unchanged; a change that
means to move them updates the digests and says why.
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
    ("contour", "CM_B"): "0899be509204e5b26c95479986d83c18ad5b911f60760a8f038037a88c9f8754",
    ("contour", "CM_C"): "c4e4461620947eaa8a6e0b8a63c45cd9aa273ac98c704c72a5a11ca0bf316776",
    ("contour", "CM_D"): "c38474d07018f281fa0007a1c4da3917ce9d1ca6455e38cdc3b5c920bcd8971e",
    ("contour", "CM_E"): "41ed656f32939103c1092d272553191c5b2659c992d731a58d9ac1e4b14f3c4b",
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

COMMAND_ARGS = {"scan": ["--grid", "101"], "contour": []}


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
