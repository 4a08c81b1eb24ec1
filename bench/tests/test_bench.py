"""Tests of the benchmark itself: result schema, output checks, determinism.

Run from the repository root:  python3 -m pytest bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"grid": 5, "samples": 8}


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    """A checkout stand-in whose src/ is the repository's, so results stay out of the tree."""
    root = tmp_path_factory.mktemp("checkout")
    (root / "src").symlink_to(ROOT / "src")
    return root


def tiny_run(root, name, traced, seed=3):
    return run.run_workload(name, seed, 0.1, traced, root, **TINY)


@pytest.fixture(scope="module")
def traced_pipeline(bench_root):
    return tiny_run(bench_root, "state_pipeline", True)


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_smoke_end_to_end_schema(bench_root, name):
    record = tiny_run(bench_root, name, False)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in record["metrics"].values())
    summary = record["summary"]
    assert summary["attempted"] >= run.MIN_SAMPLES and summary["correct"]
    plan = workloads.build(name, 3, workloads.timed_rounds(name, 0.1), **TINY)
    assert summary["attempted"] == sum(len(r) for r in plan.rounds)  # fixed by seed and seconds
    assert all(op["sha256"] or op["exit"] != 0 for op in record["operations"])
    assert record["environment"]["thread_vars_child"]["OMP_NUM_THREADS"] == "1"
    assert (bench_root / record["path"]).is_file()


@pytest.mark.parametrize("name", ["grid_maps", "transmittance_scan"])
def test_smoke_per_layer_schema(bench_root, name):
    record = tiny_run(bench_root, name, True)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    assert record["summary"]["failed"] == 0
    assert record["extra"]["outputs_identical_traced_untraced"]


def test_pipeline_failures_only_in_squeezed_slice(traced_pipeline):
    summary = traced_pipeline["summary"]
    assert summary["correct"]
    assert set(summary["failed_by_group"]) <= run.KNOWN_DEFECT_GROUPS


def test_same_seed_same_inputs_and_call_counts(bench_root, traced_pipeline):
    first, second = (workloads.build("state_pipeline", 11, **TINY) for _ in range(2))
    assert first.inputs == second.inputs
    assert [op.argv for r in first.rounds for op in r] == [op.argv for r in second.rounds for op in r]
    scans = [workloads.build("transmittance_scan", 11, **TINY).inputs for _ in range(2)]
    assert scans[0] == scans[1]

    again = tiny_run(bench_root, "state_pipeline", True)
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if not k.endswith("_ms") and "overhead" not in k}
        for r in (traced_pipeline, again)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(traced_pipeline["operations"])


def run_in_process(tmp_path, monkeypatch, op, inputs):
    import cvrobust.cli

    monkeypatch.chdir(tmp_path)
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    assert cvrobust.cli.main(op.argv) == 0
    return tmp_path / op.output


def test_flipped_map_label_fails(tmp_path, monkeypatch):
    wl = workloads.build("grid_maps", 0, **TINY)
    op = wl.rounds[0][1]  # the EPR map: every region but "unphysical" occurs
    out = run_in_process(tmp_path, monkeypatch, op, wl.inputs)
    assert Checker(tmp_path, wl.inputs, 0).check(op, 0) == []

    lines = out.read_text().split("\n")
    x, y, label, flag = lines[1].split(",")
    assert flag == "0"
    lines[1] = ",".join([x, y, "I" if label != "I" else "IV", flag])
    out.write_text("\n".join(lines))
    failures = Checker(tmp_path, wl.inputs, 0).check(op, 0)
    assert failures and "oracle" in failures[0]


def test_nan_in_json_fails(tmp_path, monkeypatch):
    wl = workloads.build("state_pipeline", 0, **TINY)
    op = next(op for op in wl.rounds[0] if op.kind == "classify")
    out = run_in_process(tmp_path, monkeypatch, op, wl.inputs)
    assert Checker(tmp_path, wl.inputs, 0).check(op, 0) == []

    data = json.loads(out.read_text())
    data["witnesses"]["w_m"] = float("nan")
    out.write_text(json.dumps(data))
    failures = Checker(tmp_path, wl.inputs, 0).check(op, 0)
    assert failures and "NaN" in failures[0]


def test_wrong_fixture_class_fails(tmp_path, monkeypatch):
    wl = workloads.build("state_pipeline", 0, **TINY)
    op = next(op for op in wl.rounds[0] if op.kind == "classify")
    out = run_in_process(tmp_path, monkeypatch, op, wl.inputs)
    data = json.loads(out.read_text())
    data["class"] = "Fragile"
    out.write_text(json.dumps(data))
    assert Checker(tmp_path, wl.inputs, 0).check(op, 0)


def test_tail_is_highest_percentile_with_ten_beyond():
    value, percentile, n = run.tail([float(i) for i in range(100)])
    assert (value, percentile, n) == (89.0, 90.0, 100)
