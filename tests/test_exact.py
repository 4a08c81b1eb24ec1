"""The exact kernel against independent rational references.

``cvrobust._exact`` decides physicality (``lambda_min(V + i*Omega) >= -tol``
and the boundary flag) and evaluates every witness invariant in integers
over the entries' common power-of-two denominator.  The references in
``helpers`` expand every principal minor over Gaussian rationals and follow
the Gamma definitions in ``fractions``.  The commands that read a state or
build a map must need neither LAPACK's eigensolver nor its determinant.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cvrobust import (
    CovMatrix,
    RandomStateParams,
    ValidationError,
    boundary_band,
    classify,
    duan_parameters,
    gamma_coefficients,
    minimized_duan,
    random_physical_state,
    region_map_correlations,
    region_map_epr,
    validate_physicality,
)
from cvrobust import _exact
from cvrobust.cli import main, state_file_text
from cvrobust.robustness import _CLASSES
from helpers import (
    CM_A,
    CM_B,
    CM_D,
    CM_E,
    HIGHLY_SQUEEZED,
    exact_reference_class,
    exact_reference_physicality,
    exact_reference_witnesses,
    kernel_physicality,
)

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
    physical, boundary = kernel_physicality(np.array(matrices))
    verdicts = list(zip(physical.tolist(), boundary.tolist()))
    assert verdicts == [exact_reference_physicality(m) for m in matrices]
    # Every outcome occurs, so the agreement is not vacuous.
    assert set(verdicts) == {(True, True), (True, False), (False, False)}


def test_pure_state_just_inside_the_tolerance_is_physical():
    # A float eigensolver put lambda_min(V + i*Omega) at -1.0075e-9, below
    # -tol = -1e-9; exactly, it lies within the tolerance.
    m = random_physical_state(87, RandomStateParams(1.0, 1.0, 13.0)).matrix * (1.0 - 1e-9)
    assert exact_reference_physicality(m) == (True, True)
    d = validate_physicality(m)
    assert (d.physical, d.boundary) == (True, True)


GAMMA_FIELDS = (
    "gamma11", "gamma12", "gamma21", "gamma22", "lambda1", "lambda2", "lambda_c",
    "lambda4", "eta", "sigma1", "sigma2", "impurity1", "impurity2",
)
CORNERS = ("w_ppt", "w_full", "w_ch1", "w_ch2")


def witness_states():
    """Pure and mixed random states at ``squeeze_max`` 1 to 13, and the fixtures."""
    out = [CM_A, CM_B, CM_D, CM_E, HIGHLY_SQUEEZED]
    for squeeze_max in range(1, 14):
        for nu_max in (1.0, 2.5):
            params = RandomStateParams(1.0, nu_max, float(squeeze_max))
            out += [random_physical_state(seed, params) for seed in range(4)]
    return out


def test_witness_invariants_equal_exact_reference():
    for k, v in enumerate(witness_states()):
        ref = exact_reference_witnesses(v.matrix)
        x = v._exact()
        one2 = x.one * x.one
        exact = dict(zip(GAMMA_FIELDS, x.gamma_set()))
        exact.update(zip(CORNERS, x.corners()))
        exact["det_v"] = (x.det_v, one2 * one2)
        exact["delta"] = (x.det_a1 + x.det_a2 + 2 * x.det_c, one2)
        exact["det_condition"] = (x.uncertainty()[3], one2 * one2)
        for name, (num, den) in exact.items():
            assert num / den == float(ref[name]), (k, name)
        rounded = {**vars(gamma_coefficients(v)), **classify(v)._asdict()}
        for name in GAMMA_FIELDS + CORNERS:
            assert rounded[name] == float(ref[name]), (k, name)
        assert validate_physicality(v).det_condition == float(ref["det_condition"]), k


def test_duan_variances_equal_exact_reference():
    for k, v in enumerate(witness_states()):
        m = [[Fraction(x) for x in row] for row in v.tolist()]
        weights = [1.0, -1.0, 0.37, -3.1, 1e-3]
        a_opt = minimized_duan(v).a_opt
        weights += [] if a_opt is None else [a_opt, -a_opt]
        for a in weights:
            a2, sign = Fraction(a) ** 2, 1 if a > 0 else -1
            u = (a2 * m[1][1] - 2 * sign * m[1][3] + m[3][3] / a2) / 2
            w = (a2 * m[0][0] + 2 * sign * m[0][2] + m[2][2] / a2) / 2
            d = duan_parameters(v, a)
            assert (d.u_variance, d.v_variance) == (float(u), float(w)), (k, a)


def test_validate_evaluates_the_invariants_once(monkeypatch):
    # Each call records whether it evaluates e1 .. e4 or reads them back.
    calls = []
    original = _exact.Matrix.uncertainty
    monkeypatch.setattr(
        _exact.Matrix, "uncertainty", lambda x: calls.append(x._invariants is None) or original(x)
    )
    for v in (CM_A, CM_D, HIGHLY_SQUEEZED):
        calls.clear()
        validate_physicality(CovMatrix(v.tolist()))  # a fresh exact view
        assert calls[0] and calls.count(True) == 1


def _count_matrices(monkeypatch) -> list:
    """The list that gets one entry per ``_exact.Matrix`` built from here on."""
    builds = []
    original = _exact.Matrix.__init__
    monkeypatch.setattr(
        _exact.Matrix, "__init__", lambda x, upper: builds.append(1) or original(x, upper)
    )
    return builds


def test_map_verdicts_skip_the_boundary_shift(monkeypatch):
    # Map cells are decided in closed form on their EPR variances: no cell
    # builds the general matrix or shifts its uncertainty invariants.
    matrices, shifts = _count_matrices(monkeypatch), []
    original_shifted = _exact._shifted
    monkeypatch.setattr(_exact, "_shifted", lambda e, s: shifts.append(s) or original_shifted(e, s))
    region_map_correlations(2.55, 1.80, 9)
    region_map_epr(1.0, 1.0, 9)
    assert matrices == [] and shifts == []
    assert validate_physicality(CovMatrix(HIGHLY_SQUEEZED.tolist())).physical
    assert len(matrices) == 1 and len(shifts) == 2


@pytest.mark.parametrize(
    "command",
    [["validate"], ["classify"], ["attenuate", "--t1", "0.5"], ["scan", "--grid", "5"],
     ["contour", "--samples", "8"]],
    ids=["validate", "classify", "attenuate", "scan", "contour"],
)
def test_state_commands_build_one_matrix(command, tmp_path, monkeypatch):
    # Every per-state analysis reads the state's one exact view.
    state = tmp_path / "d.json"
    state.write_text(state_file_text(CM_D, "d"))
    builds = _count_matrices(monkeypatch)
    assert main([command[0], str(state), *command[1:], "-o", str(tmp_path / "out")]) == 0
    assert len(builds) == 1


@pytest.mark.parametrize(
    "state, checked",
    [
        (CM_A, 0),  # fully robust already: no search
        (CM_B, 1),
        # The first simplex hit fails the gate at the output's scale.
        (random_physical_state(25, RandomStateParams(1.0, 1.0, 9.0)), 2),
    ],
    ids=["fully-robust", "fragile", "squeezed-pure"],
)
def test_robustify_builds_one_matrix_per_state_it_evaluates(state, checked, tmp_path, monkeypatch):
    # The input's view, one per simplex evaluation and one per output state
    # checked; classifying the result reuses the last one.
    path, out = tmp_path / "s.json", tmp_path / "rob.json"
    path.write_text(state_file_text(state, "s"))
    builds = _count_matrices(monkeypatch)
    assert main(["robustify", str(path), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["found"] is True
    assert len(builds) == 1 + data["evaluations"] + checked


@pytest.mark.parametrize("squeeze_max", [3, 5, 7, 9, 11])
def test_classify_equals_exact_reference(squeeze_max):
    for nu_max, seeds in ((1.0, 60), (2.5, 20)):
        for seed in range(seeds):
            v = random_physical_state(seed, RandomStateParams(1.0, nu_max, squeeze_max))
            report = classify(v)
            band = boundary_band(v)
            label, mode, flags = exact_reference_class(v.matrix, band)
            assert (report.cls.label, report.cls.robust_mode) == (label, mode), (nu_max, seed)
            assert report.boundary_flags == flags, (nu_max, seed)
            ref = exact_reference_witnesses(v.matrix)
            for name, t_crit in (("w_ch1", report.t1_critical), ("w_ch2", report.t2_critical)):
                w = ref[name]
                if ref["w_ppt"] < -Fraction(band) and w > Fraction(band):
                    assert t_crit == float(w / (w - ref["w_ppt"])), (nu_max, seed, name)
                else:
                    assert t_crit is None, (nu_max, seed, name)


@pytest.mark.parametrize(
    "nu_max, seed, label",
    [
        # A float kernel gave PartiallyRobustAsymmetric(robust_mode=2), unflagged:
        # the float w_ch1 of seed 160 was +8.6e9 against an exact -6.0e9.
        (1.0, 160, "FullyRobust"),
        (1.0, 287, "PartiallyRobustSymmetric"),
        # A float w_ppt >= 0 made this mixed state Separable, unflagged.
        (2.5, 102, "PartiallyRobustSymmetric"),
    ],
)
def test_strongly_squeezed_states_get_exact_class(nu_max, seed, label):
    v = random_physical_state(seed, RandomStateParams(1.0, nu_max, 11.0))
    report = classify(v)
    assert exact_reference_class(v.matrix, boundary_band(v)) == (label, None, set())
    assert (report.cls.label, report.boundary_flags) == (label, frozenset())


@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0, 1.4e5, 2.0**60, 1e150])
def test_band_bounds_are_the_floor_of_band_times_den(scale):
    # Both class deciders, classify and the region maps, compare integer
    # corners against these bounds: w <= b exactly when w / den <= band.
    band = Fraction(_exact._band_at(scale))
    dens = [2**k for k in range(0, 401, 8)]
    for den, b in zip(dens, _exact._band_bounds(scale, dens)):
        assert Fraction(b, den) <= band < Fraction(b + 1, den), (scale, den)


def test_infinite_band_bounds_are_the_overflow_limit():
    # scale * scale overflows: the band is infinite and flags every finite corner.
    assert _exact._band_at(1e160) == float("inf")
    dens = [2**k for k in range(0, 401, 8)]
    assert _exact._band_bounds(1e160, dens) == [_exact._OVERFLOW * den for den in dens]


#: The knee of the physicality tolerance, where 32 eps * scale reaches 1e-9
#: (exactly, since 32 eps is a power of two).
KNEE = _exact.PHYSICALITY_TOL / _exact._PHYSICALITY_ROUNDOFF


@pytest.mark.parametrize(
    "scale",
    [0.5, 1.0, 2.0**17, 1.4e5, math.nextafter(KNEE, 0.0), KNEE, math.nextafter(KNEE, math.inf),
     2.0**60, 1e300],
)
def test_tolerance_bound_is_the_exact_tolerance_over_the_unit(scale):
    # Every physicality verdict shifts by this integer: it must be the
    # tolerance itself, not its floor, for every unit the kernels use.
    tol = Fraction(_exact._physicality_tol(scale))
    for bits in range(82, 401):
        one = 1 << bits
        assert _exact._tol_bound(scale, one) == tol * one, (scale, bits)


def test_tolerance_edges_at_the_uncertainty_tie():
    # diag(x, x) on mode 1 has lambda_min(V + i*Omega) = x - 1 exactly, and
    # the scale 2^20 puts the tolerance above its floor, at 2^-27.
    t = _exact._physicality_tol(2.0**20)
    assert t == 2.0**-27
    cases = [
        (1.0 - t, True, True),  # lambda_min = -tol
        (math.nextafter(1.0 - t, 0.0), False, False),
        (1.0 + t, True, True),  # lambda_min = +tol
        (math.nextafter(1.0 + t, 2.0), True, False),
    ]
    for x, physical, boundary in cases:
        m = np.diag([x, x, 2.0**20, 2.0**20])
        d = validate_physicality(m)
        assert (d.physical, d.boundary) == (physical, boundary), x
        if physical:
            classify(m)  # passes the admissibility gate
        else:
            with pytest.raises(ValidationError, match="unphysical"):
                classify(m)


#: Distinct bounds for w_ppt, w_full, w_ch1, w_ch2, so that a mixed-up index shows.
BOUNDS = (7, 11, 13, 17)


def verdict(nums):
    code, flags = _exact._verdict(nums, BOUNDS)
    return str(_CLASSES[code]), {name for name, flag in zip(CORNERS, flags) if flag}


def test_verdict_counts_a_corner_at_its_bound_as_nonpositive_and_flags_it():
    robust = [-100, -100, -100, -100]
    assert verdict(robust) == ("FullyRobust", set())
    # A corner at +-bound is in the band: nonpositive and flagged.  One past
    # it, it is out: positive (robust on no channel) and unflagged.
    beyond = {
        "w_full": "PartiallyRobustSymmetric",
        "w_ch1": "PartiallyRobustAsymmetric(robust_mode=2)",
        "w_ch2": "PartiallyRobustAsymmetric(robust_mode=1)",
    }
    for k in (1, 2, 3):
        name = CORNERS[k]
        for num, expected in (
            (BOUNDS[k], ("FullyRobust", {name})),
            (-BOUNDS[k], ("FullyRobust", {name})),
            (BOUNDS[k] + 1, (beyond[name], set())),
            (-BOUNDS[k] - 1, ("FullyRobust", set())),
        ):
            nums = list(robust)
            nums[k] = num
            assert verdict(nums) == expected, (name, num)


def test_verdict_decides_entanglement_on_the_sign_of_w_ppt():
    # w_ppt >= 0 is separable, even inside the band; w_ppt < 0 is entangled.
    robust = [-100, -100, -100]
    assert verdict([0, *robust]) == ("Separable", {"w_ppt"})
    assert verdict([BOUNDS[0], *robust]) == ("Separable", {"w_ppt"})
    assert verdict([BOUNDS[0] + 1, *robust]) == ("Separable", set())
    assert verdict([-1, *robust]) == ("FullyRobust", {"w_ppt"})
    assert verdict([-BOUNDS[0], *robust]) == ("FullyRobust", {"w_ppt"})
    assert verdict([-BOUNDS[0] - 1, *robust]) == ("FullyRobust", set())


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
def test_commands_run_without_lapack(name, tmp_path, monkeypatch):
    for function in ("eigvalsh", "det"):

        def refuse(*args, function=function, **kwargs):
            raise AssertionError(f"numpy.linalg.{function} called")

        monkeypatch.setattr(np.linalg, function, refuse)
    files = {"STATE": (CM_D, "cm_d.json"), "FRAGILE": (CM_B, "cm_b.json")}
    argv = []
    for arg in COMMANDS[name]:
        if arg in files:
            v, file_name = files[arg]
            arg = str(tmp_path / file_name)
            (tmp_path / file_name).write_text(state_file_text(v, file_name))
        argv.append(arg)
    assert main([*argv, "-o", str(tmp_path / "out")]) == 0
