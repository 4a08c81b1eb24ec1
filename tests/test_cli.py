"""Command-line interface: file formats, subcommands, exit codes, determinism."""

import errno
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from cvrobust import (
    CovMatrix,
    FullySymmetric,
    FullySymmetricFromSqueezing,
    PureTwoModeSqueezed,
    StandardFormI,
    SymmetricModes,
    ValidationError,
    attenuate,
    build,
    classify,
    ppt_witness,
    region_map_correlations,
    region_map_epr,
    robustify,
)
from cvrobust import _maps
from cvrobust.cli import main, read_state_file, state_file_text
from helpers import (
    CM_B,
    CM_C,
    CM_D,
    OVERFLOW_LADDER,
    SQUEEZED_MODE,
    eq19_matrix,
    exact_reference_witnesses,
    pure_two_mode_squeezed,
    strict_json,
)


def run(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def write_state(path, v, label="fixture"):
    path.write_text(state_file_text(v, label))
    return str(path)


@pytest.fixture
def cm_d_file(tmp_path):
    return write_state(tmp_path / "cm_d.json", CM_D)


#: Mode 1 below the vacuum noise in both quadratures: nu_minus = 0.5.
SUB_VACUUM = CovMatrix(np.diag([0.5, 0.5, 1.0, 1.0]))


class TestStateFiles:
    def test_round_trip_preserves_bits(self, tmp_path):
        path = write_state(tmp_path / "s.json", CM_D, label="x")
        cov, label = read_state_file(path)
        assert label == "x"
        assert np.array_equal(cov.matrix, CM_D.matrix)

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "label": "x",,\n}\n')
        assert run(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = strict_json(state_file_text(CM_D, "x"))
        data["comment"] = "nope"
        bad.write_text(json.dumps(data))
        assert run(["validate", str(bad)]) == 1
        assert "unknown fields" in capsys.readouterr().err

    def test_wrong_ordering_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = strict_json(state_file_text(CM_D, "x"))
        data["ordering"] = "q1,q2,p1,p2"
        bad.write_text(json.dumps(data))
        assert run(["validate", str(bad)]) == 1
        assert "ordering" in capsys.readouterr().err

    def test_asymmetric_matrix_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = strict_json(state_file_text(CM_D, "x"))
        data["matrix"][0][2] = 99.0
        bad.write_text(json.dumps(data))
        assert run(["validate", str(bad)]) == 1
        assert "asymmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["2.55", True, None], ids=["string", "bool", "null"])
    def test_non_numeric_entry_rejected(self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.json"
        data = strict_json(state_file_text(CM_D, "x"))
        data["matrix"][0][0] = entry
        bad.write_text(json.dumps(data))
        assert run(["validate", str(bad)]) == 1
        assert "matrix must be 4 rows of 4 numbers" in capsys.readouterr().err

    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = strict_json(state_file_text(CM_D, "x"))
        data["matrix"][0][0] = 10**400
        bad.write_text(json.dumps(data))
        assert run(["validate", str(bad)]) == 1
        assert "too large" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["validate", "/nonexistent/state.json"]) == 1

    def test_file_that_is_not_utf8_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte order mark
        assert run(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_deeply_nested_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        depth = 200_000
        bad.write_text('{"matrix": ' + "[" * depth + "]" * depth + "}")
        assert run(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: JSON nested too deeply to parse\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "line 1: expected a JSON object"),
            ('{"label": "x", "ordering": "q1,p1,q2,p2"}',
             "missing required fields 'ordering'/'matrix'"),
            (json.dumps({"label": 7, "ordering": "q1,p1,q2,p2", "matrix": CM_D.tolist()}),
             "label must be text"),
        ],
        ids=["array", "no-matrix", "label-not-text"],
    )
    def test_malformed_record_rejected(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


class TestUsage:
    def test_no_command(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, cm_d_file):
        assert run(["family", "fully-symmetric", "--s", "2.0"]) == 2


class TestBadArguments:
    @pytest.mark.parametrize(
        "args",
        [
            ["contour", "STATE", "--samples", "0"],
            ["scan", "STATE", "--grid", "1"],
            ["map", "correlations", "--dq", "2.55", "--dp", "1.8", "--grid", "0"],
            ["map", "epr", "--mu-minus", "0.7267", "--mu-plus", "0.4529", "--grid", "-1"],
            ["random", "--seed", "1", "--squeeze-max", "inf"],
            ["random", "--seed", "1", "--nu-max", "inf"],
            ["random", "--seed", "1", "--squeeze-max", "1e200"],
            ["random", "--seed", "1", "--nu-max", "1e308"],
            ["robustify", "STATE", "--budget", "-5"],
            ["robustify", "STATE", "--budget", "0"],
            ["random", "--seed", "-1"],
            ["robustify", "STATE", "--seed", "-1"],
            ["family", "pure-squeezed", "--r", "1000"],
            ["family", "from-squeezing", "--r", "1000"],
            ["attenuate", "STATE", "--length2-km", "10", "--alpha-db-per-km", "nan"],
            ["attenuate", "STATE", "--length2-km", "nan"],
            ["attenuate", "STATE", "--length1-km", "inf", "--alpha-db-per-km", "0"],
            ["attenuate", "STATE", "--length2-km", "-1"],
            ["map", "epr", "--mu-minus", "1e-200", "--mu-plus", "0.5", "--grid", "2"],
            ["map", "epr", "--mu-minus", "0.5", "--mu-plus", "0.5", "--grid", "2",
             "--q-plus-max", "1e-320"],
        ],
        ids=["contour-samples", "scan-grid", "map-correlations-grid", "map-epr-grid",
             "random-squeeze-max", "random-nu-max", "random-squeeze-max-overflow",
             "random-nu-max-overflow", "robustify-budget-negative",
             "robustify-budget-zero", "random-seed", "robustify-seed",
             "pure-squeezed-overflow", "from-squeezing-overflow",
             "attenuate-alpha-nan", "attenuate-length-nan", "attenuate-length-inf",
             "attenuate-length-negative", "map-epr-purity-underflow",
             "map-epr-variance-overflow"],
    )
    def test_error_message_without_traceback(self, args, cm_d_file, capsys):
        assert run([cm_d_file if a == "STATE" else a for a in args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
    def test_out_of_memory_is_an_error_message(self, message, monkeypatch, capsys):
        def allocate(*args, **kwargs):
            raise MemoryError(message)

        # Only the failure is simulated: a real allocation of that size could
        # succeed lazily and then run for a very long time.
        monkeypatch.setattr(_maps, "_correlation_cells", allocate)
        args = ["map", "correlations", "--dq", "2.55", "--dp", "1.8", "--grid", "1000000"]
        assert run(args) == 1
        assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--length2-km", "10", "--alpha-db-per-km", "nan"], "--alpha-db-per-km"),
            (["--length2-km", "nan"], "--length2-km"),
            (["--length1-km", "inf", "--alpha-db-per-km", "0"], "--length1-km"),
        ],
        ids=["alpha-nan", "length-nan", "length-inf"],
    )
    def test_bad_link_flag_is_named(self, args, named, cm_d_file, capsys):
        assert run(["attenuate", cm_d_file, *args]) == 1
        value = args[args.index(named) + 1]
        err = capsys.readouterr().err
        assert err == f"error: {named} must be finite and nonnegative, got {value}\n"

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--t1", "0.5", "--alpha-db-per-km", "nan"], "--alpha-db-per-km"),
            (["--scenario", "single-channel"], "--scenario"),
        ],
        ids=["alpha-without-length", "scenario-without-length"],
    )
    def test_link_flag_without_length_is_named(self, args, named, cm_d_file, capsys):
        assert run(["attenuate", cm_d_file, *args]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {named} needs --length1-km or --length2-km\n"

    def test_bad_alpha_variable_is_named(self, cm_d_file, capsys, monkeypatch):
        monkeypatch.setenv("CVROBUST_ALPHA_DB_PER_KM", "nan")
        assert run(["attenuate", cm_d_file, "--length2-km", "10"]) == 1
        err = capsys.readouterr().err
        assert err == "error: CVROBUST_ALPHA_DB_PER_KM must be finite and nonnegative, got nan\n"

    @pytest.mark.parametrize(
        "args",
        [["scan"], ["contour"], ["attenuate", "--t1", "0.5"], ["classify"], ["robustify"]],
        ids=["scan", "contour", "attenuate", "classify", "robustify"],
    )
    def test_unphysical_state_rejected(self, args, tmp_path, capsys):
        path = write_state(tmp_path / "bad.json", SUB_VACUUM)
        out = tmp_path / "out"
        assert run([args[0], path, *args[1:], "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unphysical state") and "uncertainty bound" in err
        assert not out.exists()


class TestValidate:
    def test_physical_state(self, tmp_path, cm_d_file):
        out = tmp_path / "report.json"
        assert run(["validate", cm_d_file, "-o", str(out)]) == 0
        data = strict_json(out.read_text())
        assert data["physical"] is True
        assert data["nu_minus"] >= 1.0 - 1e-9

    def test_unphysical_state(self, tmp_path):
        path = write_state(tmp_path / "bad.json", eq19_matrix(2.54))
        out = tmp_path / "report.json"
        assert run(["validate", path, "-o", str(out)]) == 0
        assert strict_json(out.read_text())["physical"] is False

    def test_sub_vacuum_state_is_reported(self, tmp_path):
        # validate reports the state that the analysis commands reject.
        path = write_state(tmp_path / "bad.json", SUB_VACUUM)
        out = tmp_path / "report.json"
        assert run(["validate", path, "-o", str(out)]) == 0
        assert strict_json(out.read_text())["physical"] is False

    def test_squeezed_state_is_strict_json(self, tmp_path):
        # Roundoff leaves the quartic for nu of these pure states with a
        # negative discriminant, which the spectrum clamps.
        state = tmp_path / "sq.json"
        out = tmp_path / "report.json"
        for seed in (3, 4, 5, 6):
            args = ["random", "--seed", str(seed), "--nu-min", "1", "--nu-max", "1",
                    "--squeeze-max", "9", "-o", str(state)]
            assert run(args) == 0
            assert run(["validate", str(state), "-o", str(out)]) == 0
            data = strict_json(out.read_text())
            assert data["physical"] is True, f"seed {seed}"
            for key in ("nu_minus", "nu_plus", "det_condition"):
                assert np.isfinite(data[key]), f"seed {seed}"

    def test_overflowing_determinants_are_null(self, tmp_path):
        path = write_state(tmp_path / "big.json", CovMatrix(np.diag([1e100] * 4)))
        out = tmp_path / "report.json"
        assert run(["validate", path, "-o", str(out)]) == 0
        data = strict_json(out.read_text())
        assert data["physical"] is True
        assert data["nu_minus"] is None and data["nu_plus"] is None
        assert data["det_condition"] is None


class TestClassify:
    def test_fixture_report(self, tmp_path, cm_d_file):
        out = tmp_path / "report.json"
        assert run(["classify", cm_d_file, "-o", str(out)]) == 0
        data = strict_json(out.read_text())
        assert data["class"] == "PartiallyRobustSymmetric"
        assert data["robust_mode"] is None
        assert data["witnesses"]["w_ppt"] == pytest.approx(-1.8016868636)
        assert data["gamma"]["gamma11"] == pytest.approx(0.264651)
        assert data["critical_transmittance"]["t1"] is None
        assert any("w_ch1 = gamma11 + gamma12" in note for note in data["notes"])

    def test_attenuated_fixture_class(self, tmp_path, cm_d_file):
        att = tmp_path / "att.json"
        assert run(["attenuate", cm_d_file, "--t2", "0.40", "-o", str(att)]) == 0
        out = tmp_path / "report.json"
        assert run(["classify", str(att), "-o", str(out)]) == 0
        data = strict_json(out.read_text())
        assert data["class"] == "PartiallyRobustAsymmetric"
        assert data["robust_mode"] == 2

    def test_unphysical_input_fails(self, tmp_path, capsys):
        path = write_state(tmp_path / "bad.json", eq19_matrix(2.54))
        assert run(["classify", path]) == 1

    def test_overflowing_witness_fails(self, tmp_path, capsys):
        path = write_state(tmp_path / "big.json", CovMatrix(np.diag([1e100] * 4)))
        assert run(["classify", path]) == 1
        assert "not finite" in capsys.readouterr().err

    def test_overflowing_spectrum_is_null(self, tmp_path):
        # The witnesses of these entries still round to floats; the
        # spectrum's delta * delta does not.
        path = write_state(tmp_path / "big.json", CovMatrix(np.diag([1e77] * 4)))
        out = tmp_path / "report.json"
        assert run(["classify", path, "-o", str(out)]) == 0
        assert set(strict_json(out.read_text())["symplectic"].values()) == {None}

    def test_strongly_squeezed_pure_states_classify(self, tmp_path):
        state = tmp_path / "sq.json"
        for seed in range(200):
            args = ["random", "--seed", str(seed), "--nu-min", "1", "--nu-max", "1",
                    "--squeeze-max", "9", "-o", str(state)]
            assert run(args) == 0
            out = tmp_path / "report.json"
            assert run(["classify", str(state), "-o", str(out)]) == 0, f"seed {seed}"
            strict_json(out.read_text())

    def classify_pure_state(self, seed, tmp_path):
        """The ``purities.mu`` of ``classify`` and the exact det V of a pure state at s = 11."""
        state = tmp_path / "sq.json"
        args = ["random", "--seed", str(seed), "--nu-min", "1", "--nu-max", "1",
                "--squeeze-max", "11", "-o", str(state)]
        assert run(args) == 0
        out = tmp_path / "report.json"
        assert run(["classify", str(state), "-o", str(out)]) == 0
        det_v = exact_reference_witnesses(read_state_file(str(state))[0].matrix)["det_v"]
        return strict_json(out.read_text())["purities"]["mu"], det_v

    @pytest.mark.parametrize("seed", [9])
    def test_roundoff_purity_is_null(self, seed, tmp_path):
        # A pure state whose rounded entries leave det V <= 0; physical all the same.
        mu, det_v = self.classify_pure_state(seed, tmp_path)
        assert det_v <= 0
        assert mu is None

    def test_exact_purity_is_a_number(self, tmp_path):
        # The float det V (LU) of seed 49 rounds to <= 0; exactly, it is positive.
        mu, det_v = self.classify_pure_state(49, tmp_path)
        assert mu == float(det_v) ** -0.5

    def test_unbounded_weight_ratio_classifies(self, tmp_path, capsys):
        # sigma2/sigma1 overflows, sigma2**0.25 / sigma1**0.25 does not.
        path = write_state(tmp_path / "sq.json", SQUEEZED_MODE)
        assert run(["classify", path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert strict_json(out)["witnesses"]["a_opt"] > 0


@pytest.mark.parametrize("x", OVERFLOW_LADDER)
class TestOverflowRule:
    """A command fails only when a value it decides on or writes is not finite."""

    def test_corner_commands_agree_with_the_library(self, x, tmp_path):
        v = pure_two_mode_squeezed(x)
        try:
            report, expected = classify(v), 0
        except ValidationError:
            expected = 1
        path = write_state(tmp_path / "s.json", v)
        for command in ("classify", "contour"):
            assert run([command, path, "-o", str(tmp_path / command)]) == expected
        if expected == 0:
            data = strict_json((tmp_path / "classify").read_text())
            assert data["witnesses"]["w_full"] == report.w_full
            gamma = data["gamma"]
            assert (gamma["lambda4"] is None) == (x >= 1e77)
            assert (gamma["lambda1"] is None) == (gamma["lambda2"] is None) == (x >= 1e150)

    def test_scan_writes_only_finite_values(self, x, tmp_path, capsys):
        # Every cell is a convex combination of the corners, so scan fails
        # exactly where classify and contour do, before its first byte.
        v = pure_two_mode_squeezed(x)
        path = write_state(tmp_path / "s.json", v)
        try:
            classify(v)
            expected = 0
        except ValidationError:
            expected = 1
        assert run(["contour", path, "-o", str(tmp_path / "contour")]) == expected
        status = run(["scan", path, "--grid", "3"])
        out, err = capsys.readouterr()
        assert status == expected
        if status == 0:
            lines = out.splitlines()
            assert lines[0] == "t1,t2,w_ppt_attenuated,w_reduced"
            assert len(lines) == 1 + 9
            assert all(math.isfinite(float(f)) for line in lines[1:] for f in line.split(","))
        else:
            assert out == ""
            assert "not finite" in err
        target = tmp_path / "scan.csv"
        target.write_bytes(b"earlier scan\n")
        assert run(["scan", path, "--grid", "3", "-o", str(target)]) == status
        assert target.read_bytes() == (out.encode() if status == 0 else b"earlier scan\n")


class TestScan:
    def test_vacuum_grid(self, tmp_path):
        path = write_state(tmp_path / "vac.json", CovMatrix.vacuum())
        out = tmp_path / "scan.csv"
        assert run(["scan", path, "--grid", "3", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t1,t2,w_ppt_attenuated,w_reduced"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            _, _, w_att, _ = line.split(",")
            assert float(w_att) == pytest.approx(0.0, abs=1e-12)

    def test_rows_satisfy_factorization(self, tmp_path, cm_d_file):
        out = tmp_path / "scan.csv"
        assert run(["scan", cm_d_file, "--grid", "7", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == 49
        for line in lines:
            t1, t2, w_att, w_red = map(float, line.split(","))
            assert abs(w_att - t1 * t2 * w_red) <= 1e-9 * (1.0 + abs(w_red))

    def test_overflowing_witness_fails(self, tmp_path, capsys):
        path = write_state(tmp_path / "big.json", CovMatrix(np.diag([1e90] * 4)))
        out = tmp_path / "scan.csv"
        assert run(["scan", path, "--grid", "2", "-o", str(out)]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "v, flags, message",
        [
            (CM_D, ["--grid", "1"], "scan grid must be at least 2"),
            (SUB_VACUUM, [], "unphysical state"),
            (CovMatrix(np.diag([1e90] * 4)), [], "witness values are not finite"),
        ],
        ids=["grid-one", "unphysical", "overflow"],
    )
    def test_errors_come_before_the_first_byte(self, v, flags, message, tmp_path, capsys):
        # The rows are made as they are written, but every check runs first.
        path = write_state(tmp_path / "s.json", v)
        out = tmp_path / "scan.csv"
        out.write_bytes(b"earlier scan\n")
        assert run(["scan", path, *flags, "-o", str(out)]) == 1
        assert out.read_bytes() == b"earlier scan\n"
        capsys.readouterr()
        assert run(["scan", path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_row_major_t1_outer(self, tmp_path, cm_d_file):
        out = tmp_path / "scan.csv"
        assert run(["scan", cm_d_file, "--grid", "3", "-o", str(out)]) == 0
        rows = [line.split(",")[:2] for line in out.read_text().strip().splitlines()[1:]]
        t1s = [float(r[0]) for r in rows]
        assert t1s == sorted(t1s)
        assert [float(r[1]) for r in rows[:3]] == [0.0, 0.5, 1.0]


class TestContour:
    def test_overflowing_witness_fails(self, tmp_path, capsys):
        path = write_state(tmp_path / "big.json", CovMatrix(np.diag([1e90] * 4)))
        out = tmp_path / "contour.csv"
        assert run(["contour", path, "-o", str(out)]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "v, flags, message",
        [
            (CM_D, ["--samples", "0"], "samples must be positive"),
            (SUB_VACUUM, [], "unphysical state"),
            (CovMatrix(np.diag([1e90] * 4)), [], "witness values are not finite"),
        ],
        ids=["samples-zero", "unphysical", "overflow"],
    )
    def test_errors_come_before_the_first_byte(self, v, flags, message, tmp_path, capsys):
        # The points are made as they are written, but every check runs first.
        path = write_state(tmp_path / "s.json", v)
        out = tmp_path / "contour.csv"
        out.write_bytes(b"earlier contour\n")
        assert run(["contour", path, *flags, "-o", str(out)]) == 1
        assert out.read_bytes() == b"earlier contour\n"
        capsys.readouterr()
        assert run(["contour", path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_vanishing_witness_has_empty_boundary(self, tmp_path):
        path = write_state(tmp_path / "vac.json", CovMatrix.vacuum())
        out = tmp_path / "contour.csv"
        assert run(["contour", path, "--samples", "8", "-o", str(out)]) == 0
        assert out.read_text() == "t1,t2\n"

    def test_fragile_fixture(self, tmp_path):
        path = write_state(tmp_path / "b.json", CM_B)
        out = tmp_path / "contour.csv"
        assert run(["contour", path, "--samples", "64", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t1,t2"
        pts = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(pts) > 5
        assert all(0.0 < t1 <= 1.0 and 0.0 < t2 <= 1.0 for t1, t2 in pts)


class TestAttenuate:
    def test_file_round_trip_matches_memory(self, tmp_path, cm_d_file):
        att = tmp_path / "att.json"
        assert run(["attenuate", cm_d_file, "--t1", "0.73", "--t2", "0.41", "-o", str(att)]) == 0
        cov, _ = read_state_file(str(att))
        expected = attenuate(CM_D, (0.73, 0.41))
        assert np.array_equal(cov.matrix, expected.matrix)
        assert ppt_witness(cov) == ppt_witness(expected)
        assert classify(cov).cls == classify(expected).cls

    def test_out_of_range_rejected(self, tmp_path, cm_d_file, capsys):
        assert run(["attenuate", cm_d_file, "--t1", "1.5"]) == 1

    def test_link_length_form(self, tmp_path, cm_d_file):
        att = tmp_path / "att.json"
        assert (
            run(
                [
                    "attenuate",
                    cm_d_file,
                    "--length2-km",
                    "50",
                    "--scenario",
                    "single-channel",
                    "-o",
                    str(att),
                ]
            )
            == 0
        )
        cov, _ = read_state_file(str(att))
        expected = attenuate(CM_D, (1.0, 0.1))
        assert np.allclose(cov.matrix, expected.matrix, atol=1e-14)

    def test_mixing_forms_rejected(self, cm_d_file):
        assert run(["attenuate", cm_d_file, "--t1", "0.5", "--length2-km", "10"]) == 1


class TestEntriesNearTheFloatLimit:
    """States with entries above about 9e307, where the sum of two entries overflows."""

    @pytest.fixture
    def s308(self, tmp_path):
        path = tmp_path / "s308.json"
        assert run(["family", "fully-symmetric", "--s", "1e308", "--c", "0", "-o", str(path)]) == 0
        return str(path)

    def test_validate_reports_null_invariants(self, s308, tmp_path):
        out = tmp_path / "report.json"
        assert run(["validate", s308, "-o", str(out)]) == 0
        data = strict_json(out.read_text())
        assert data["physical"] is True and data["boundary"] is False
        assert data["nu_minus"] is None and data["nu_plus"] is None
        assert data["det_condition"] is None

    @pytest.mark.parametrize(
        "command", [["classify"], ["scan", "--grid", "3"], ["contour"], ["robustify"]],
        ids=["classify", "scan", "contour", "robustify"],
    )
    def test_witness_commands_fail_with_a_message(self, command, s308, capsys):
        assert run([command[0], s308, *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: witness values are not finite")
        assert "Traceback" not in err

    def test_attenuate_writes_finite_entries(self, s308, tmp_path):
        out = tmp_path / "att.json"
        assert run(["attenuate", s308, "--t1", "0.5", "-o", str(out)]) == 0
        cov, _ = read_state_file(str(out))
        assert np.isfinite(cov.matrix).all()

    @pytest.mark.parametrize(
        "kind, flags, status",
        [
            ("symmetric-modes", ["--dq", "1e308", "--dp", "1", "--cq", "0", "--cp", "0"], 0),
            ("standard-form-i", ["--s", "2", "--t", "3", "--cq", "1e308", "--cp", "0"], 1),
        ],
        ids=["symmetric-modes", "standard-form-i"],
    )
    def test_family(self, kind, flags, status, capsys):
        assert run(["family", kind, *flags]) == status
        captured = capsys.readouterr()
        if status == 0:
            strict_json(captured.out)
        else:
            assert captured.err.startswith("error: unphysical state")


class TestFamily:
    def test_fully_symmetric_vacuum(self, tmp_path):
        out = tmp_path / "vac.json"
        assert run(["family", "fully-symmetric", "--s", "1", "--c", "0", "-o", str(out)]) == 0
        cov, label = read_state_file(str(out))
        assert np.array_equal(cov.matrix, np.eye(4))
        assert label == "fully-symmetric"

    def test_symmetric_modes_fixture(self, tmp_path):
        out = tmp_path / "d.json"
        args = ["family", "symmetric-modes", "--dq", "2.55", "--dp", "1.80",
                "--cq", "1.033", "--cp", "-1.26", "-o", str(out)]
        assert run(args) == 0
        cov, _ = read_state_file(str(out))
        assert np.array_equal(cov.matrix, CM_D.matrix)

    @pytest.mark.parametrize(
        "kind, flags, spec",
        [
            ("fully-symmetric", ["--s", "2", "--c", "1.5"], FullySymmetric(2.0, 1.5)),
            ("from-squeezing", ["--r", "0.7"], FullySymmetricFromSqueezing(0.7)),
            ("from-squeezing", ["--r", "0.7", "--nu", "1.3"],
             FullySymmetricFromSqueezing(0.7, 1.3)),
            ("symmetric-modes", ["--dq", "2.55", "--dp", "1.80", "--cq", "1.033", "--cp", "-1.26"],
             SymmetricModes(2.55, 1.80, 1.033, -1.26)),
            ("standard-form-i", ["--s", "2", "--t", "3", "--cq", "1", "--cp", "-1"],
             StandardFormI(2.0, 3.0, 1.0, -1.0)),
            ("pure-squeezed", ["--r", "1"], PureTwoModeSqueezed(1.0)),
        ],
        ids=["fully-symmetric", "from-squeezing-default-nu", "from-squeezing",
             "symmetric-modes", "standard-form-i", "pure-squeezed"],
    )
    def test_each_kind_writes_its_spec(self, kind, flags, spec, tmp_path):
        out = tmp_path / "f.json"
        assert run(["family", kind, *flags, "-o", str(out)]) == 0
        assert out.read_text() == state_file_text(build(spec), kind)

    def test_unphysical_family_fails(self, capsys):
        assert run(["family", "fully-symmetric", "--s", "1", "--c", "0.5"]) == 1
        assert "bound" in capsys.readouterr().err


class TestMap:
    def test_correlations_csv(self, tmp_path):
        out = tmp_path / "map.csv"
        args = ["map", "correlations", "--dq", "2.55", "--dp", "1.80",
                "--grid", "8", "-o", str(out)]
        assert run(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cbar_p,cbar_q,label,boundary"
        assert len(lines) == 1 + 64
        labels = {line.split(",")[2] for line in lines[1:]}
        assert labels <= {"I", "II", "III", "IV", "unphysical"}

    def test_epr_csv(self, tmp_path):
        out = tmp_path / "map.csv"
        args = ["map", "epr", "--mu-minus", "0.7267", "--mu-plus", "0.4529",
                "--grid", "6", "-o", str(out)]
        assert run(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "q_plus_var,p_minus_var,label,boundary"
        assert len(lines) == 1 + 36

    def test_non_finite_correlation_parameter_rejected(self, capsys):
        args = ["map", "correlations", "--dq", "nan", "--dp", "1.8", "--grid", "3"]
        assert run(args) == 1
        assert "finite" in capsys.readouterr().err

    def test_non_finite_epr_window_rejected(self, capsys):
        args = ["map", "epr", "--mu-minus", "0.7267", "--mu-plus", "0.4529",
                "--q-plus-max", "nan", "--grid", "3"]
        assert run(args) == 1
        assert "finite" in capsys.readouterr().err

    def test_overflowing_witness_rejected(self, capsys):
        args = ["map", "correlations", "--dq", "1e300", "--dp", "1.8", "--grid", "3"]
        assert run(args) == 1
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, region_map",
        [
            (["correlations", "--dq", "2.55", "--dp", "1.80"],
             lambda: region_map_correlations(2.55, 1.80, 5)),
            (["epr", "--mu-minus", "0.7267", "--mu-plus", "0.4529"],
             lambda: region_map_epr(0.7267, 0.4529, 5)),
        ],
        ids=["correlations", "epr"],
    )
    def test_csv_matches_region_map(self, args, region_map, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["map", *args, "--grid", "5", "-o", str(out)]) == 0
        region = region_map()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        expected = [
            [repr(float(x)), repr(float(y)), region.labels[i, j], str(int(region.boundary[i, j]))]
            for i, x in enumerate(region.x)
            for j, y in enumerate(region.y)
        ]
        assert rows == expected

    @pytest.mark.parametrize(
        "args, message, rows",
        [
            (["epr", "--mu-minus", "1e-200", "--mu-plus", "0.5", "--grid", "2"],
             "covariance matrix contains non-finite entries", []),
            (["epr", "--mu-minus", "0.5", "--mu-plus", "0.5", "--grid", "2",
              "--q-plus-max", "1e-320"],
             "covariance matrix contains non-finite entries", []),
            (["correlations", "--dq", "1e300", "--dp", "1.8", "--grid", "3"],
             "witness values are not finite: the covariance entries are too large"
             " to evaluate the quartic witness", []),
            # w_ppt grows with 1 - cbar_p^2: the row cbar_p = -0.75 rounds, the next does not.
            (["correlations", "--dq", "1.73e153", "--dp", "10", "--grid", "4"],
             "witness values are not finite: the covariance entries are too large"
             " to evaluate the quartic witness",
             [f"-0.75,{y},IV,0" for y in ("-0.75", "-0.25", "0.25", "0.75")]),
        ],
        ids=["epr-purity-underflow", "epr-variance-overflow", "correlations-overflow",
             "correlations-overflow-second-row"],
    )
    def test_failing_grid_keeps_output_file_and_writes_whole_rows(
        self, args, message, rows, tmp_path, capsys
    ):
        out = tmp_path / "map.csv"
        out.write_bytes(b"earlier map\n")
        assert run(["map", *args, "-o", str(out)]) == 1
        assert out.read_bytes() == b"earlier map\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["map.csv"]
        capsys.readouterr()
        assert run(["map", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        header = "cbar_p,cbar_q" if args[0] == "correlations" else "q_plus_var,p_minus_var"
        assert captured.out == "".join(f"{line}\n" for line in [f"{header},label,boundary", *rows])


class TestRandomAndRobustify:
    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["random", "--seed", "5", "-o", str(a)]) == 0
        assert run(["random", "--seed", "5", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_robustify_fragile_fixture(self, tmp_path):
        path = write_state(tmp_path / "b.json", CM_B)
        out = tmp_path / "rob.json"
        assert run(["robustify", path, "-o", str(out)]) == 0
        data = strict_json(out.read_text())
        assert data["found"] is True
        assert data["class_out"] == "FullyRobust"
        assert data["objective"] < 0

    def test_robustify_budget_exhausted_is_not_found(self, tmp_path):
        assert robustify(CM_B, budget=1) is None
        path = write_state(tmp_path / "b.json", CM_B, label="b")
        out = tmp_path / "rob.json"
        assert run(["robustify", path, "--budget", "1", "-o", str(out)]) == 0
        assert strict_json(out.read_text()) == {"label": "b", "found": False}

    def test_robustify_separable_fails(self, tmp_path, capsys):
        path = write_state(tmp_path / "c.json", CM_C)
        assert run(["robustify", path]) == 1

    def test_robustify_output_passes_the_gate_on_squeezed_pure_state(self, tmp_path):
        # The first simplex hit's S V S^T has lambda_min(V + i*Omega) = -1.02e-9
        # against a tolerance of 1e-9: the input's own -5.8e-11, at a scale
        # about 135 times larger, carried over exactly.  The first restart gives a
        # gate-passing one after 314 evaluations.
        state, out = tmp_path / "s.json", tmp_path / "rob.json"
        args = ["--seed", "25", "--nu-min", "1", "--nu-max", "1", "--squeeze-max", "9"]
        assert run(["random", *args, "-o", str(state)]) == 0
        assert run(["robustify", str(state), "-o", str(out)]) == 0
        data = strict_json(out.read_text())
        assert data["found"] is True
        assert data["class_out"] == "FullyRobust"


class TestDeterminism:
    def test_classify_byte_identical(self, tmp_path, cm_d_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["classify", cm_d_file, "-o", str(a)]) == 0
        assert run(["classify", cm_d_file, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scan_byte_identical(self, tmp_path, cm_d_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["scan", cm_d_file, "--grid", "5", "-o", str(a)]) == 0
        assert run(["scan", cm_d_file, "--grid", "5", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ["scan", "STATE", "--grid", "101"],
            ["map", "correlations", "--dq", "2.55", "--dp", "1.80", "--grid", "101"],
        ],
        ids=["scan", "map"],
    )
    def test_stdout_equals_file(self, args, tmp_path, cm_d_file, capsys):
        # Both go through one writer, row by row; the CSV spans many writes.
        args = [cm_d_file if a == "STATE" else a for a in args]
        out = tmp_path / "out.csv"
        assert run([*args, "-o", str(out)]) == 0
        capsys.readouterr()
        assert run(args) == 0
        text = capsys.readouterr().out
        assert len(text) > 4 * 65536
        assert out.read_text() == text

    def test_overwrite_existing_output(self, tmp_path, cm_d_file):
        out = tmp_path / "report.json"
        out.write_text("stale")
        assert run(["validate", cm_d_file, "-o", str(out)]) == 0
        assert strict_json(out.read_text())["physical"] is True


class TestOutputFile:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_output_file_mode_follows_umask(self, umask, tmp_path):
        out = tmp_path / "m.csv"
        previous = os.umask(umask)
        try:
            assert run(["map", "correlations", "--dq", "2.55", "--dp", "1.8", "--grid", "3",
                        "-o", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize(
        "args",
        [
            ["family", "pure-squeezed", "--r", "1"],
            ["map", "correlations", "--dq", "2.55", "--dp", "1.8", "--grid", "3"],
        ],
        ids=["json", "grid"],
    )
    def test_output_path_errors_name_the_path(self, args, tmp_path, capsys):
        missing = tmp_path / "missing" / "out"
        (tmp_path / "taken").mkdir()
        for target, code in ((missing, errno.ENOENT), (tmp_path / "taken", errno.EISDIR)):
            assert run([*args, "-o", str(target)]) == 1
            assert capsys.readouterr().err == f"error: {target}: {os.strerror(code)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert not any((tmp_path / "taken").iterdir())

    def test_stdout_gets_few_large_writes(self, cm_d_file, tmp_path, monkeypatch):
        # A write-through stdout makes a system call per write: the 2 MB of
        # points go out in blocks, not one write per point.
        class Stdout:
            def __init__(self):
                self.writes = []

            def write(self, s):
                self.writes.append(s)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        stdout = Stdout()
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(["contour", cm_d_file, "--samples", "100000"]) == 0
        monkeypatch.undo()
        out = tmp_path / "out.csv"
        assert main(["contour", cm_d_file, "--samples", "100000", "-o", str(out)]) == 0
        assert "".join(stdout.writes) == out.read_text()
        assert out.stat().st_size > 1_500_000 and len(stdout.writes) < 100

    @pytest.mark.parametrize(
        "args",
        [
            ["scan", "STATE", "--grid", "201"],
            ["map", "correlations", "--dq", "2.55", "--dp", "1.80", "--grid", "201"],
            ["contour", "STATE", "--samples", "100000"],
        ],
        ids=["scan", "map", "contour"],
    )
    def test_grid_memory_does_not_hold_the_csv(self, args, tmp_path, cm_d_file):
        # Each CSV is about 2 MB; its rows are written as they are made, so
        # the peak stays far below it.
        out = tmp_path / "out.csv"
        args = [cm_d_file if a == "STATE" else a for a in args]
        tracemalloc.start()
        try:
            assert main([*args, "-o", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 1_500_000
        assert peak < 1e6
