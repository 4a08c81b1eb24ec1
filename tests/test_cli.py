"""Command-line interface: file formats, subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from cvrobust import CovMatrix, attenuate, classify, ppt_witness, region_map_correlations
from cvrobust.cli import main, read_state_file, state_file_text
from helpers import CM_B, CM_C, CM_D, eq19_matrix


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
        data = json.loads(state_file_text(CM_D, "x"))
        data["comment"] = "nope"
        bad.write_text(json.dumps(data))
        assert run(["validate", str(bad)]) == 1
        assert "unknown fields" in capsys.readouterr().err

    def test_wrong_ordering_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = json.loads(state_file_text(CM_D, "x"))
        data["ordering"] = "q1,q2,p1,p2"
        bad.write_text(json.dumps(data))
        assert run(["validate", str(bad)]) == 1
        assert "ordering" in capsys.readouterr().err

    def test_asymmetric_matrix_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = json.loads(state_file_text(CM_D, "x"))
        data["matrix"][0][2] = 99.0
        bad.write_text(json.dumps(data))
        assert run(["validate", str(bad)]) == 1
        assert "asymmetric" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["validate", "/nonexistent/state.json"]) == 1


class TestUsage:
    def test_no_command(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, cm_d_file):
        assert run(["family", "fully-symmetric", "--s", "2.0"]) == 2


class TestValidate:
    def test_physical_state(self, tmp_path, cm_d_file):
        out = tmp_path / "report.json"
        assert run(["validate", cm_d_file, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["physical"] is True
        assert data["nu_minus"] >= 1.0 - 1e-9

    def test_unphysical_state(self, tmp_path):
        path = write_state(tmp_path / "bad.json", eq19_matrix(2.54))
        out = tmp_path / "report.json"
        assert run(["validate", path, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["physical"] is False


class TestClassify:
    def test_fixture_report(self, tmp_path, cm_d_file):
        out = tmp_path / "report.json"
        assert run(["classify", cm_d_file, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
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
        data = json.loads(out.read_text())
        assert data["class"] == "PartiallyRobustAsymmetric"
        assert data["robust_mode"] == 2

    def test_unphysical_input_fails(self, tmp_path, capsys):
        path = write_state(tmp_path / "bad.json", eq19_matrix(2.54))
        assert run(["classify", path]) == 1

    def test_overflowing_witness_fails(self, tmp_path, capsys):
        path = write_state(tmp_path / "big.json", CovMatrix(np.diag([1e100] * 4)))
        assert run(["classify", path]) == 1
        assert "not finite" in capsys.readouterr().err


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

    def test_row_major_t1_outer(self, tmp_path, cm_d_file):
        out = tmp_path / "scan.csv"
        assert run(["scan", cm_d_file, "--grid", "3", "-o", str(out)]) == 0
        rows = [line.split(",")[:2] for line in out.read_text().strip().splitlines()[1:]]
        t1s = [float(r[0]) for r in rows]
        assert t1s == sorted(t1s)
        assert [float(r[1]) for r in rows[:3]] == [0.0, 0.5, 1.0]


class TestContour:
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

    def test_csv_matches_region_map(self, tmp_path):
        out = tmp_path / "map.csv"
        args = ["map", "correlations", "--dq", "2.55", "--dp", "1.80",
                "--grid", "5", "-o", str(out)]
        assert run(args) == 0
        region = region_map_correlations(2.55, 1.80, 5)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        expected = [
            [repr(float(x)), repr(float(y)), region.labels[i, j], str(int(region.boundary[i, j]))]
            for i, x in enumerate(region.x)
            for j, y in enumerate(region.y)
        ]
        assert rows == expected


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
        data = json.loads(out.read_text())
        assert data["found"] is True
        assert data["class_out"] == "FullyRobust"
        assert data["objective"] < 0

    def test_robustify_separable_fails(self, tmp_path, capsys):
        path = write_state(tmp_path / "c.json", CM_C)
        assert run(["robustify", path]) == 1


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

    def test_overwrite_existing_output(self, tmp_path, cm_d_file):
        out = tmp_path / "report.json"
        out.write_text("stale")
        assert run(["validate", cm_d_file, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["physical"] is True
