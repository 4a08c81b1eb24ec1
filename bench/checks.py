"""Output checks: each returns the reasons an operation failed (empty when it passed).

An operation fails when its exit status is not the one the CLI contract
defines, when its JSON does not parse strictly, when a CSV has the wrong
header or row count, or when its numbers disagree with the exact oracle in
``oracle.py``.  Checks of state-based commands share a context per state
file, holding the matrix and the class ``classify`` reported.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from oracle import ExactState, region, witness_tolerance
from workloads import ATTENUATE_T2, Op

#: Map cells compared with the oracle per map command.
MAP_SAMPLE = 200
#: Scan rows compared with the oracle per scan command (the identity is checked on every row).
SCAN_SAMPLE = 32

STATE_FIELDS = {"label", "ordering", "matrix"}
REGIONS = {"I", "II", "III", "IV", "unphysical"}


class CheckFailed(Exception):
    pass


def _reject_constant(name):
    raise CheckFailed(f"JSON holds non-finite number {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_csv(text: str, header: list[str], rows: int | None = None) -> list[list[str]]:
    lines = text.split("\n")
    _require(lines[-1] == "", "CSV does not end with a newline")
    _require(lines[0].split(",") == header, f"CSV header {lines[0]!r}, expected {header}")
    body = [line.split(",") for line in lines[1:-1]]
    if rows is not None:
        _require(len(body) == rows, f"CSV has {len(body)} rows, expected {rows}")
    _require(all(len(row) == len(header) for row in body), "CSV row with wrong field count")
    return body


def _matrix(data) -> list[list[float]]:
    m = data.get("matrix")
    _require(
        isinstance(m, list) and len(m) == 4 and all(isinstance(r, list) and len(r) == 4 for r in m),
        "matrix is not 4x4",
    )
    _require(all(isinstance(x, (int, float)) for r in m for x in r), "matrix entry is not a number")
    return m


def _state_file(text: str) -> tuple[str, list[list[float]]]:
    data = strict_json(text)
    _require(isinstance(data, dict) and set(data) == STATE_FIELDS, "state file fields are wrong")
    _require(data["ordering"] == "q1,p1,q2,p2", "state file ordering is wrong")
    return data["label"], _matrix(data)


def _cell_centers(lo: float, hi: float, n: int) -> list[float]:
    width = (hi - lo) / n
    return [lo + width * (k + 0.5) for k in range(n)]


def _map_cell(spec: dict, x: float, y: float) -> list[list[float]]:
    """The covariance matrix of a map cell, built as the map commands define it."""
    if spec["which"] == "correlations":
        dq, dp = spec["dq"], spec["dp"]
        c_q, c_p = y * dq, x * dp
    else:
        q_minus = 1.0 / (spec["mu_minus"] ** 2 * y)
        p_plus = 1.0 / (spec["mu_plus"] ** 2 * x)
        dq, dp = 0.5 * (x + q_minus), 0.5 * (p_plus + y)
        c_q, c_p = 0.5 * (x - q_minus), 0.5 * (p_plus - y)
    return [[dq, 0.0, c_q, 0.0], [0.0, dp, 0.0, c_p], [c_q, 0.0, dq, 0.0], [0.0, c_p, 0.0, dp]]


def check_map(op: Op, text: str, rng: random.Random) -> None:
    spec, n = op.spec, op.spec["grid"]
    if spec["which"] == "correlations":
        header = ["cbar_p", "cbar_q", "label", "boundary"]
        xs = ys = _cell_centers(-1.0, 1.0, n)
    else:
        header = ["q_plus_var", "p_minus_var", "label", "boundary"]
        xs, ys = _cell_centers(0.0, 5.0, n), _cell_centers(0.0, 5.0, n)
    rows = read_csv(text, header, n * n)
    for k, (x, y, label, flag) in enumerate(rows):
        _require(x == repr(xs[k // n]) and y == repr(ys[k % n]), f"row {k}: wrong cell coordinates")
        _require(label in REGIONS and flag in ("0", "1"), f"row {k}: bad label or flag")
    for k in rng.sample(range(n * n), min(MAP_SAMPLE, n * n)):
        x, y, label, flag = rows[k]
        if flag == "1":
            continue  # inside the zero band: either side is accepted
        expected = region(_map_cell(spec, xs[k // n], ys[k % n]))
        _require(label == expected, f"cell ({x}, {y}): label {label}, oracle {expected}")


def check_scan(op: Op, text: str, state: ExactState, rng: random.Random) -> None:
    n = op.spec["grid"]
    rows = read_csv(text, ["t1", "t2", "w_ppt_attenuated", "w_reduced"], n * n)
    tol = witness_tolerance(state.magnitude)
    step = 1.0 / (n - 1)
    for k, row in enumerate(rows):
        t1, t2, w_att, w_red = map(float, row)
        _require(
            abs(t1 - (k // n) * step) <= 1e-12 and abs(t2 - (k % n) * step) <= 1e-12,
            f"row {k}: wrong transmittances",
        )
        _require(
            abs(w_att - t1 * t2 * w_red) <= tol,
            f"row {k}: w_ppt_attenuated {w_att!r} != t1*t2*w_reduced {t1 * t2 * w_red!r}",
        )
    for k in rng.sample(range(n * n), min(SCAN_SAMPLE, n * n)):
        t1, t2, _, w_red = map(float, rows[k])
        exact = float(state.reduced_witness(t1, t2))
        _require(abs(w_red - exact) <= tol, f"row {k}: w_reduced {w_red!r}, oracle {exact!r}")


def check_contour(op: Op, text: str, state: ExactState) -> None:
    rows = read_csv(text, ["t1", "t2"])
    _require(len(rows) <= op.spec["samples"], f"contour has {len(rows)} rows, more than the samples")
    tol = witness_tolerance(state.magnitude)
    previous = 0.0
    for t1, t2 in ((float(a), float(b)) for a, b in rows):
        _require(previous < t1 <= 1.0 and 0.0 < t2 <= 1.0, f"point ({t1}, {t2}) out of order or range")
        previous = t1
        w = float(state.reduced_witness(t1, t2))
        _require(abs(w) <= tol, f"point ({t1}, {t2}) is off the boundary: W_R = {w!r}")


def check_classify(op: Op, data, state: ExactState | None) -> str:
    label, mode = data.get("class"), data.get("robust_mode")
    flags = data.get("boundary_flags")
    _require(isinstance(flags, list), "classify report lacks boundary_flags")
    expect = op.spec.get("expect")
    if expect is not None:
        _require((label, mode) == tuple(expect), f"fixture class {label}/{mode}, expected {expect}")
    elif state is not None and not flags:
        oracle = state.robustness_label()
        _require((label, mode) == oracle, f"class {label}/{mode}, oracle {oracle}")
    return label


def check_attenuate(text: str, label: str, matrix) -> None:
    out_label, out = _state_file(text)
    _require(out_label == label, "attenuate changed the label")
    scale = [1.0, 1.0, math.sqrt(ATTENUATE_T2), math.sqrt(ATTENUATE_T2)]
    tol = 1e-12 * max(1.0, max(abs(x) for r in matrix for x in r))
    for i in range(4):
        for j in range(4):
            eye = 1.0 if i == j else 0.0
            expected = scale[i] * scale[j] * (matrix[i][j] - eye) + eye
            _require(abs(out[i][j] - expected) <= tol, f"attenuated entry ({i},{j}) is wrong")


def check_robustify(data, label: str) -> None:
    _require(data.get("label") == label, "robustify changed the label")
    if not data.get("found"):
        return
    _require(data.get("class_out") == "FullyRobust", f"robustified class {data.get('class_out')}")
    out = ExactState(_matrix(data))
    tol = witness_tolerance(out.magnitude)
    corners = out.corners()
    _require(corners["w_ppt"] < tol, "robustified state is not entangled")
    for name in ("w_full", "w_ch1", "w_ch2"):
        _require(corners[name] <= tol, f"robustified state has {name} = {float(corners[name])!r} > 0")


class Checker:
    """Checks operations in plan order; state contexts carry across commands."""

    def __init__(self, workdir: Path, inputs: dict[str, str], seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.states = {}
        for name, text in inputs.items():
            label, matrix = _state_file(text)
            self.states[name] = {"label": label, "matrix": matrix, "exact": ExactState(matrix)}

    def expected_exit(self, op: Op) -> int:
        """1 only for robustify on a state classify reported as Separable."""
        if op.kind != "robustify":
            return 0
        ctx = self.states.get(op.state, {})
        cls = ctx.get("class")
        if cls is None and ctx.get("exact") is not None:
            cls = ctx["exact"].robustness_label()[0]
        return 1 if cls == "Separable" else 0

    def check(self, op: Op, exit_code: int) -> list[str]:
        try:
            self._check(op, exit_code)
        except CheckFailed as exc:
            return [str(exc)]
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed output: {exc!r}"]
        return []

    def _check(self, op: Op, exit_code: int) -> None:
        expected = self.expected_exit(op)
        _require(exit_code == expected, f"exit status {exit_code}, expected {expected}")
        if exit_code != 0:
            return
        path = self.workdir / op.output
        _require(path.is_file(), "no output file")
        text = path.read_text()
        ctx = self.states.setdefault(op.state, {})
        exact = ctx.get("exact")
        _require(op.kind in ("map", "random") or exact is not None, "input state was not produced")
        if op.kind == "map":
            check_map(op, text, self.rng)
        elif op.kind == "random":
            label, matrix = _state_file(text)
            ctx.update(label=label, matrix=matrix, exact=ExactState(matrix))
        elif op.kind == "scan":
            check_scan(op, text, exact, self.rng)
        elif op.kind == "contour":
            check_contour(op, text, exact)
        elif op.kind == "validate":
            data = strict_json(text)
            _require(data["physical"] is True, "validate rejects a state that is physical by construction")
        elif op.kind == "classify":
            ctx["class"] = check_classify(op, strict_json(text), exact)
        elif op.kind == "attenuate":
            check_attenuate(text, ctx["label"], ctx["matrix"])
        elif op.kind == "robustify":
            check_robustify(strict_json(text), ctx["label"])
        else:
            raise CheckFailed(f"no check for {op.kind}")
