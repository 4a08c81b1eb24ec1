"""End-to-end and per-layer benchmark of the cvrobust command line.

Run from the repository root:

    python3 bench/run.py --workload grid_maps --seed 1 --seconds 30 --trace 0

The load is a single-client closed loop: one ``python -m cvrobust.cli``
process runs at a time against ``src/``, and the next starts only after
the previous one has exited.  Inputs are generated from ``--seed`` before
timing starts.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs a fixed part of the plan in-process through
``tracer.py`` and reports the per-layer metrics.  Every output is checked
(``checks.py``), and the full record, with a SHA-256 of every output and
the environment, is written to ``.bench_out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from checks import Checker
from tracer import LAYER_FUNCTIONS

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"

#: BLAS and OpenMP pools are pinned to one thread, so each command uses one core.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_REPEATS = 7
#: Samples the tail percentile needs: at least 10 beyond it.
MIN_SAMPLES = 11
COMMAND_TIMEOUT_S = 120.0
#: Untraced/traced pairs in a traced run.  Each pair runs back to back, in
#: alternating order, so the machine's drift cancels in its wall-time ratio.
TRACE_PAIRS = 3
#: Groups whose failures are known defects (absolute tolerances that break on
#: strongly squeezed states): counted as failed, but not a regression.
KNOWN_DEFECT_GROUPS = {"squeezed"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(
        {
            "import.numpy_ms": "ms",
            "import.cvrobust_ms": "ms",
            "cli.bytes_out": "bytes",
            "families.cells": "count",
            "families.unphysical_cells": "count",
            "families.boundary_cells": "count",
            "covariance.validate_physicality.per_cell": "calls/cell",
            "simplex.evaluations": "count",
            "robustness.robustify.found_ratio": "ratio",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH" and not k.startswith("CVROBUST_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(args: list[str], cwd: Path, env: dict, stderr_path: Path | None = None):
    """Run one command to completion; returns (exit code, seconds, max RSS in KiB)."""
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            args, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            err.close()
    return proc.returncode, elapsed, usage.ru_maxrss


def cli_args(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "cvrobust.cli", *argv]


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the directory."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, env: dict) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True,
    )
    return {
        "git_commit": git_commit(root),
        "python": sys.version.split()[0],
        "numpy": probe.stdout.strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "thread_vars_parent": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_child": {v: env[v] for v in THREAD_VARS},
    }


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < MIN_SAMPLES:
        return ordered[-1], 100.0, n
    k = n - MIN_SAMPLES
    return ordered[k], 100.0 * (k + 1) / n, n


def write_inputs(workdir: Path, inputs: dict[str, str]) -> None:
    workdir.mkdir(parents=True)
    for name, text in inputs.items():
        (workdir / name).write_text(text)


def check_all(wl, ops, codes, workdir: Path, seed: int) -> list[dict]:
    checker = Checker(workdir, wl.inputs, seed)
    records = []
    for op, code in zip(ops, codes):
        records.append(
            {
                "argv": op.argv,
                "group": op.group,
                "exit": code,
                "sha256": sha256(workdir / op.output),
                "failures": checker.check(op, code),
            }
        )
    return records


def summarize(records: list[dict]) -> dict:
    failed = [r for r in records if r["failures"]]
    by_group = {}
    for r in failed:
        by_group[r["group"]] = by_group.get(r["group"], 0) + 1
    unexpected = [r for r in failed if r["group"] not in KNOWN_DEFECT_GROUPS]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failed_by_group": by_group,
        "correct": not unexpected,
        "unexpected_failures": unexpected[:20],
    }


def measure(wl, workdir: Path, env: dict, seed: int) -> dict:
    """Untraced run: set-up time, then every round of the plan as CLI processes."""
    write_inputs(workdir, wl.inputs)
    version = cli_args(["--version"])
    spawn(version, workdir, env)  # fills the bytecode cache
    setup = []
    for _ in range(SETUP_REPEATS):
        code, elapsed, _ = spawn(version, workdir, env)
        if code != 0:
            raise RuntimeError(f"`cvrobust --version` exited with {code}")
        setup.append(elapsed)

    ops = [op for rnd in wl.rounds for op in rnd]
    codes, latencies, rss = [], [], []
    start = time.perf_counter()
    for op in ops:
        code, elapsed, maxrss = spawn(cli_args(op.argv), workdir, env, workdir / f"{op.output}.stderr")
        codes.append(code)
        latencies.append(elapsed)
        rss.append(maxrss)
    wall = time.perf_counter() - start

    records = check_all(wl, ops, codes, workdir, seed)
    for record, elapsed, maxrss in zip(records, latencies, rss):
        record.update(latency_ms=elapsed * 1e3, max_rss_mb=maxrss / 1024)
    summary = summarize(records)
    tail_ms, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(op.items for op in ops) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": max(rss) / 1024,
    }
    extra = {
        "failed_frac": summary["failed"] / summary["attempted"],
        "latency_tail_percentile": tail_pct,
        "latency_samples": n,
        "wall_s": wall,
        "rounds": len(wl.rounds),
        "setup_samples_s": setup,
    }
    return {"metrics": metrics, "extra": extra, "summary": summary, "operations": records}


def run_tracer(plan_path: Path, workdir: Path, env: dict, traced: bool) -> dict:
    result_path = workdir / "trace_result.json"
    code, _, _ = spawn(
        [sys.executable, str(BENCH_DIR / "tracer.py"), str(plan_path), result_path.name, "1" if traced else "0"],
        workdir, env, workdir / "tracer.stderr",
    )
    if code != 0:
        raise RuntimeError(f"tracer exited with {code}: {(workdir / 'tracer.stderr').read_text()[-2000:]}")
    return json.loads(result_path.read_text())


def trace(wl, workdir: Path, env: dict, seed: int) -> dict:
    """Traced run of the plan, in-process, against an untraced run of the same plan."""
    ops = [op for rnd in wl.rounds for op in rnd]
    workdir.mkdir(parents=True)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps([op.argv for op in ops]))
    walls = {False: [], True: []}
    hashes = set()
    for i in range(TRACE_PAIRS):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            sub = workdir / f"{'traced' if traced else 'untraced'}{i}"
            write_inputs(sub, wl.inputs)
            run = run_tracer(plan_path, sub, env, traced)
            walls[traced].append(run["wall_s"])
            hashes.add(tuple(sha256(sub / op.output) for op in ops))
    t = run  # the last traced run
    records = check_all(wl, ops, t["exit_codes"], sub, seed)
    summary = summarize(records)
    identical = len(hashes) == 1
    summary["correct"] = summary["correct"] and identical

    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = t["calls"][name]
        metrics[f"{name}.self_ms"] = t["self_s"][name] * 1e3
    c = t["counters"]
    completed = c["robustness.robustify.completed"]
    metrics.update(
        {
            "import.numpy_ms": t["import_numpy_s"] * 1e3,
            "import.cvrobust_ms": t["import_cvrobust_s"] * 1e3,
            "cli.bytes_out": c["cli.bytes_out"],
            "families.cells": c["families.cells"],
            "families.unphysical_cells": c["families.unphysical_cells"],
            "families.boundary_cells": c["families.boundary_cells"],
            "covariance.validate_physicality.per_cell": (
                c["families.region_validate_calls"] / c["families.cells"] if c["families.cells"] else 0.0
            ),
            "simplex.evaluations": c["simplex.evaluations"],
            "robustness.robustify.found_ratio": (
                c["robustness.robustify.found"] / completed if completed else 0.0
            ),
            "trace.overhead_frac": statistics.median(t / u for t, u in zip(walls[True], walls[False])) - 1.0,
        }
    )
    extra = {
        "failed_frac": summary["failed"] / summary["attempted"],
        "traced_wall_s": walls[True],
        "untraced_wall_s": walls[False],
        "outputs_identical_traced_untraced": identical,
        "counters": c,
    }
    return {"metrics": metrics, "extra": extra, "summary": summary, "operations": records}


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: Path,
                 grid: int = 101, samples: int = 256) -> dict:
    """Build the workload from the seed, run it, check it and record the result."""
    n_rounds = workloads.TRACE_ROUNDS[name] if traced else workloads.timed_rounds(name, seconds)
    wl = workloads.build(name, seed, n_rounds, grid, samples)
    env = child_env(root)
    out = root / OUT_DIR
    workdir = out / f"work-{name}-{seed}-{int(traced)}-{os.getpid()}"
    try:
        env_info = environment(root, env)
        if traced:
            result = trace(wl, workdir, env, seed)
        else:
            result = measure(wl, workdir, env, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = per_layer_units() if traced else END_TO_END_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": env_info,
        **result,
    }
    out.mkdir(exist_ok=True)
    path = out / f"BENCH_{name}_seed{seed}_trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = str(path.relative_to(root))
    return record


def print_table(record: dict) -> None:
    name, s = record["workload"], record["summary"]
    for metric, m in record["metrics"].items():
        print(f"{name:<20} {metric:<44} {m['value']:>16.6g} {m['unit']}")
    x = record["extra"]
    print(f"{name:<20} {'failed_frac':<44} {x['failed_frac']:>16.6g} ratio"
          f"  ({s['failed']}/{s['attempted']} failed, by group {s['failed_by_group']})")
    if "latency_tail_percentile" in x:
        print(f"{name:<20} latency_tail_ms is p{x['latency_tail_percentile']:.1f} of {x['latency_samples']} commands")
    for r in s["unexpected_failures"]:
        print(f"{name:<20} UNEXPECTED FAILURE {' '.join(r['argv'])}: {r['failures']}")
    print(f"{name:<20} record written to {record['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cvrobust" / "cli.py").is_file():
        print(f"error: {root} holds no src/cvrobust; run from the repository root", file=sys.stderr)
        return 2
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), root) for n in names]
    for record in records:
        print_table(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["summary"]["correct"] for r in records),
                "attempted": sum(r["summary"]["attempted"] for r in records),
                "failed": sum(r["summary"]["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
