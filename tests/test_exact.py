"""The exact physicality test against an independent rational reference.

``covariance._physicality`` decides ``lambda_min(V + i*Omega) >= -tol`` and
the boundary flag in integers (``cvrobust._exact``); the reference in
``helpers`` expands every principal minor over Gaussian rationals.  The
commands that read a state or build a map must not need LAPACK's
eigensolver.
"""

import numpy as np
import pytest

from cvrobust import RandomStateParams, random_physical_state
from cvrobust.cli import main, state_file_text
from cvrobust.covariance import _physicality
from helpers import CM_B, CM_D, exact_reference_physicality

#: Scalings that keep a pure state within the tolerance (1 +- 3e-10), move
#: it to about the tolerance edge (1 - 1e-9) and far beyond it (0.9).
SCALINGS = (1.0, 1.0 + 3e-10, 1.0 - 3e-10, 1.0 - 1e-9, 0.9)
SEEDS_PER_RANGE = 6

#: A boundary state with a condition number of 2e14, a matrix that is not
#: positive, and the vacuum.
EDGE_MATRICES = [np.diag([1e7, 5e-8, 1.0, 1.0]), np.diag([-1.0, 1.0, 1.0, 1.0]), np.eye(4)]


def ensemble():
    """Pure and mixed random states at ``squeeze_max`` 1 to 13, scaled, and the edge matrices."""
    out = []
    for squeeze_max in range(1, 14):
        for nu_max in (1.0, 2.5):
            params = RandomStateParams(1.0, nu_max, float(squeeze_max))
            for seed in range(SEEDS_PER_RANGE):
                m = random_physical_state(seed, params).matrix
                out += [m * f for f in SCALINGS]
    return out + EDGE_MATRICES


def test_physicality_equals_exact_reference():
    matrices = ensemble()
    physical, boundary = _physicality(np.array(matrices))
    verdicts = list(zip(physical.tolist(), boundary.tolist()))
    assert verdicts == [exact_reference_physicality(m) for m in matrices]
    # Every outcome occurs, so the agreement is not vacuous.
    assert set(verdicts) == {(True, True), (True, False), (False, False)}


def test_pure_state_just_inside_the_tolerance_is_physical():
    # A float eigensolver put lambda_min(V + i*Omega) at -1.0075e-9, below
    # -tol = -1e-9; exactly, it lies within the tolerance.
    m = random_physical_state(87, RandomStateParams(1.0, 1.0, 13.0)).matrix * (1.0 - 1e-9)
    assert exact_reference_physicality(m) == (True, True)
    assert tuple(map(bool, _physicality(m))) == (True, True)


COMMANDS = {
    "validate": ["validate", "STATE"],
    "classify": ["classify", "STATE"],
    "attenuate": ["attenuate", "STATE", "--t1", "0.5", "--t2", "0.8"],
    "contour": ["contour", "STATE"],
    "robustify": ["robustify", "FRAGILE"],
    "scan": ["scan", "STATE", "--grid", "101"],
    "map-correlations": ["map", "correlations", "--dq", "2.55", "--dp", "1.80", "--grid", "101"],
    "map-epr": ["map", "epr", "--mu-minus", "0.7267", "--mu-plus", "0.4529", "--grid", "101"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_commands_run_without_eigvalsh(name, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    files = {"STATE": (CM_D, "cm_d.json"), "FRAGILE": (CM_B, "cm_b.json")}
    argv = []
    for arg in COMMANDS[name]:
        if arg in files:
            v, file_name = files[arg]
            arg = str(tmp_path / file_name)
            (tmp_path / file_name).write_text(state_file_text(v, file_name))
        argv.append(arg)
    assert main([*argv, "-o", str(tmp_path / "out")]) == 0
