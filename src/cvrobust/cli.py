"""Command-line front end.

Subcommands: validate, classify, scan, contour, attenuate, family, map,
random, robustify.  State files are JSON records

    {"label": "...", "ordering": "q1,p1,q2,p2", "matrix": [[...], ...]}

with exactly a 4x4 numeric matrix; unknown fields are rejected.  Grids are
CSV with a header row.  All numbers are printed shortest-round-trip (at
least 12 significant digits) and all file writes are atomic.

Exit status: 0 on success, 1 on validation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .channel import (
    LinkBudget,
    Transmittance,
    _attenuate_stack,
    attenuate,
    transmittance_from_link,
)
from .covariance import (
    CovMatrix,
    purities,
    symplectic_spectrum,
    validate_physicality,
)
from .errors import ValidationError
from .families import (
    FullySymmetric,
    FullySymmetricFromSqueezing,
    PureTwoModeSqueezed,
    RandomStateParams,
    StandardFormI,
    SymmetricModes,
    _grid_chunks,
    build,
    random_physical_state,
    region_map_correlations,
    region_map_epr,
)
from .robustness import (
    CHANNEL_WITNESS_NOTE,
    classify,
    esd_contour,
    robustify,
)
from .witnesses import (
    _ppt,
    _reduced,
    duan_witness,
    gamma_coefficients,
    minimized_duan,
)

STATE_FIELDS = {"label", "ordering", "matrix"}


def _fmt(x: float) -> str:
    return repr(float(x))


def write_atomic(path: str, text: str) -> None:
    """Write text to ``path`` via a temporary file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cvrobust-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        write_atomic(path, text)


def read_state_file(path: str) -> tuple[CovMatrix, str]:
    """Parse a state file; returns the matrix and its label."""
    try:
        with open(path) as handle:
            raw = handle.read()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: line 1: expected a JSON object")
    unknown = set(data) - STATE_FIELDS
    if unknown:
        raise ValidationError(f"{path}: unknown fields {sorted(unknown)}")
    if "ordering" not in data or "matrix" not in data:
        raise ValidationError(f"{path}: missing required fields 'ordering'/'matrix'")
    if data["ordering"] != CovMatrix.ORDERING:
        raise ValidationError(
            f"{path}: ordering must be {CovMatrix.ORDERING!r}, got {data['ordering']!r}"
        )
    matrix = data["matrix"]
    if (
        not isinstance(matrix, list)
        or len(matrix) != 4
        or any(not isinstance(row, list) or len(row) != 4 for row in matrix)
    ):
        raise ValidationError(f"{path}: matrix must be 4 rows of 4 numbers")
    try:
        cov = CovMatrix(np.array(matrix, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValidationError(f"{path}: label must be text")
    return cov, label


def state_file_text(v: CovMatrix, label: str) -> str:
    data = {
        "label": label,
        "ordering": CovMatrix.ORDERING,
        "matrix": [[float(x) for x in row] for row in v.matrix],
    }
    return json.dumps(data, indent=2) + "\n"


def _json_text(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _cmd_validate(args) -> int:
    cov, label = read_state_file(args.input)
    diag = validate_physicality(cov)
    data = {
        "label": label,
        "physical": diag.physical,
        "nu_minus": diag.nu.nu_minus,
        "nu_plus": diag.nu.nu_plus,
        "det_condition": diag.det_condition,
        "boundary": diag.boundary,
    }
    _emit(_json_text(data), args.output)
    return 0


def _cmd_classify(args) -> int:
    cov, label = read_state_file(args.input)
    report = classify(cov)
    g = gamma_coefficients(cov)
    nu = symplectic_spectrum(cov)
    nu_pt = symplectic_spectrum(cov, partial_transpose_mode=2)
    pur = purities(cov)
    duan = minimized_duan(cov)
    w_d = None if duan.degenerate else duan_witness(cov, duan.a_opt)
    data = {
        "label": label,
        "class": report.cls.label,
        "robust_mode": report.cls.robust_mode,
        "witnesses": {
            "w_ppt": report.w_ppt,
            "w_full": report.w_full,
            "w_ch1": report.w_ch1,
            "w_ch2": report.w_ch2,
            "w_m": duan.w_m,
            "w_d": w_d,
            "a_opt": duan.a_opt,
            "degenerate_duan": duan.degenerate,
        },
        "gamma": {
            "gamma11": g.gamma11,
            "gamma12": g.gamma12,
            "gamma21": g.gamma21,
            "gamma22": g.gamma22,
            "lambda1": g.lambda1,
            "lambda2": g.lambda2,
            "lambda_c": g.lambda_c,
            "lambda4": g.lambda4,
            "eta": g.eta,
            "sigma1": g.sigma1,
            "sigma2": g.sigma2,
            "impurity1": g.impurity1,
            "impurity2": g.impurity2,
        },
        "symplectic": {
            "nu_minus": nu.nu_minus,
            "nu_plus": nu.nu_plus,
            "pt_nu_minus": nu_pt.nu_minus,
            "pt_nu_plus": nu_pt.nu_plus,
        },
        "purities": {"mu": pur.mu, "mu1": pur.mu1, "mu2": pur.mu2},
        "critical_transmittance": {
            "t1": report.t1_critical,
            "t2": report.t2_critical,
        },
        "boundary_flags": sorted(report.boundary_flags),
        "notes": [CHANNEL_WITNESS_NOTE],
    }
    _emit(_json_text(data), args.output)
    return 0


def _cmd_scan(args) -> int:
    cov, _ = read_state_file(args.input)
    if args.grid < 2:
        raise ValidationError("scan grid must be at least 2")
    g = gamma_coefficients(cov)
    ts = np.linspace(0.0, 1.0, args.grid)
    t_text = [_fmt(t) for t in ts]
    lines = ["t1,t2,w_ppt_attenuated,w_reduced"]
    for _, i, j in _grid_chunks(ts.size, ts.size):
        t1, t2 = ts[i], ts[j]
        w_att = _ppt(_attenuate_stack(cov.matrix, t1, t2))
        w_red = _reduced(g, t1, t2)
        lines += [
            f"{t_text[a]},{t_text[b]},{_fmt(x)},{_fmt(y)}"
            for a, b, x, y in zip(i.tolist(), j.tolist(), w_att.tolist(), w_red.tolist())
        ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_contour(args) -> int:
    cov, _ = read_state_file(args.input)
    points = esd_contour(cov, samples=args.samples)
    _emit(_csv_text(["t1", "t2"], [tuple(p) for p in points]), args.output)
    return 0


def _link_budget_from_args(args) -> LinkBudget | None:
    if args.length1_km is None and args.length2_km is None:
        return None
    return LinkBudget(
        scenario=args.scenario,
        length1_km=args.length1_km or 0.0,
        length2_km=args.length2_km or 0.0,
        alpha_db_per_km=args.alpha_db_per_km,
    )


def _cmd_attenuate(args) -> int:
    cov, label = read_state_file(args.input)
    budget = _link_budget_from_args(args)
    if budget is not None:
        if args.t1 is not None or args.t2 is not None:
            raise ValidationError("give either transmittances or link lengths, not both")
        t = transmittance_from_link(budget)
    else:
        t = Transmittance(
            args.t1 if args.t1 is not None else 1.0,
            args.t2 if args.t2 is not None else 1.0,
        )
    out = attenuate(cov, t)
    _emit(state_file_text(out, label), args.output)
    return 0


def _family_spec_from_args(args):
    kind = args.kind
    if kind == "fully-symmetric":
        return FullySymmetric(s=args.s, c=args.c)
    if kind == "from-squeezing":
        return FullySymmetricFromSqueezing(r=args.r, nu=args.nu)
    if kind == "symmetric-modes":
        return SymmetricModes(dq=args.dq, dp=args.dp, c_q=args.cq, c_p=args.cp)
    if kind == "standard-form-i":
        return StandardFormI(s=args.s, t=args.t, c_q=args.cq, c_p=args.cp)
    if kind == "pure-squeezed":
        return PureTwoModeSqueezed(r=args.r)
    raise ValidationError(f"unknown family kind {kind!r}")


def _cmd_family(args) -> int:
    spec = _family_spec_from_args(args)
    cov = build(spec)
    label = args.label if args.label is not None else args.kind
    _emit(state_file_text(cov, label), args.output)
    return 0


def _cmd_map(args) -> int:
    if args.which == "correlations":
        region = region_map_correlations(dq=args.dq, dp=args.dp, grid=args.grid)
    else:
        region = region_map_epr(
            mu_minus=args.mu_minus,
            mu_plus=args.mu_plus,
            grid=args.grid,
            q_plus_max=args.q_plus_max,
            p_minus_max=args.p_minus_max,
        )
    y_text = [_fmt(y) for y in region.y]
    lines = [f"{region.x_name},{region.y_name},label,boundary"]
    for x, labels, flags in zip(region.x, region.labels.tolist(), region.boundary.tolist()):
        x_text = _fmt(x)
        lines += [
            f"{x_text},{y},{label},{'1' if flag else '0'}"
            for y, label, flag in zip(y_text, labels, flags)
        ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_random(args) -> int:
    params = RandomStateParams(
        nu_min=args.nu_min, nu_max=args.nu_max, squeeze_max=args.squeeze_max
    )
    cov = random_physical_state(args.seed, params)
    _emit(state_file_text(cov, f"random(seed={args.seed})"), args.output)
    return 0


def _cmd_robustify(args) -> int:
    cov, label = read_state_file(args.input)
    result = robustify(cov, budget=args.budget, seed=args.seed)
    if result is None:
        data = {"label": label, "found": False}
    else:
        after = classify(result.v_out)
        data = {
            "label": label,
            "found": True,
            "objective": result.objective,
            "evaluations": result.evaluations,
            "symplectic": {
                "theta1": result.s.theta1,
                "r1": result.s.r1,
                "phi1": result.s.phi1,
                "theta2": result.s.theta2,
                "r2": result.s.r2,
                "phi2": result.s.phi2,
            },
            "class_out": after.cls.label,
            "matrix": [[float(x) for x in row] for row in result.v_out.matrix],
        }
    _emit(_json_text(data), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvrobust",
        description="Analyze entanglement robustness of two-mode Gaussian states under loss.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("validate", help="check physicality of a state file")
    p.add_argument("input")
    add_output(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="full witness report and robustness class")
    p.add_argument("input")
    add_output(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", help="attenuated witness over a transmittance grid (CSV)")
    p.add_argument("input")
    p.add_argument("--grid", type=int, default=101, help="points per axis (default 101)")
    add_output(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("contour", help="disentanglement boundary in the transmittance square")
    p.add_argument("input")
    p.add_argument("--samples", type=int, default=256, help="sample count (default 256)")
    add_output(p)
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("attenuate", help="apply the loss channel to a state file")
    p.add_argument("input")
    p.add_argument("--t1", type=float, default=None, help="channel-1 transmittance")
    p.add_argument("--t2", type=float, default=None, help="channel-2 transmittance")
    p.add_argument("--length1-km", type=float, default=None, dest="length1_km")
    p.add_argument("--length2-km", type=float, default=None, dest="length2_km")
    p.add_argument(
        "--scenario",
        choices=["dual-channel", "single-channel"],
        default="dual-channel",
    )
    p.add_argument("--alpha-db-per-km", type=float, default=None, dest="alpha_db_per_km")
    add_output(p)
    p.set_defaults(func=_cmd_attenuate)

    p = sub.add_parser("family", help="build a parametric family state")
    fam = p.add_subparsers(dest="kind", required=True)
    q = fam.add_parser("fully-symmetric")
    q.add_argument("--s", type=float, required=True)
    q.add_argument("--c", type=float, required=True)
    q = fam.add_parser("from-squeezing")
    q.add_argument("--r", type=float, required=True)
    q.add_argument("--nu", type=float, default=1.0)
    q = fam.add_parser("symmetric-modes")
    q.add_argument("--dq", type=float, required=True)
    q.add_argument("--dp", type=float, required=True)
    q.add_argument("--cq", type=float, required=True)
    q.add_argument("--cp", type=float, required=True)
    q = fam.add_parser("standard-form-i")
    q.add_argument("--s", type=float, required=True)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--cq", type=float, required=True)
    q.add_argument("--cp", type=float, required=True)
    q = fam.add_parser("pure-squeezed")
    q.add_argument("--r", type=float, required=True)
    for q in fam.choices.values():
        q.add_argument("--label", default=None)
        add_output(q)
        q.set_defaults(func=_cmd_family)

    p = sub.add_parser("map", help="robustness region maps (CSV)")
    which = p.add_subparsers(dest="which", required=True)
    q = which.add_parser("correlations")
    q.add_argument("--dq", type=float, required=True)
    q.add_argument("--dp", type=float, required=True)
    q.add_argument("--grid", type=int, default=101)
    add_output(q)
    q.set_defaults(func=_cmd_map)
    q = which.add_parser("epr")
    q.add_argument("--mu-minus", type=float, required=True, dest="mu_minus")
    q.add_argument("--mu-plus", type=float, required=True, dest="mu_plus")
    q.add_argument("--grid", type=int, default=101)
    q.add_argument("--q-plus-max", type=float, default=5.0, dest="q_plus_max")
    q.add_argument("--p-minus-max", type=float, default=5.0, dest="p_minus_max")
    add_output(q)
    q.set_defaults(func=_cmd_map)

    p = sub.add_parser("random", help="emit a seeded random physical state")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nu-min", type=float, default=1.0, dest="nu_min")
    p.add_argument("--nu-max", type=float, default=2.5, dest="nu_max")
    p.add_argument("--squeeze-max", type=float, default=1.0, dest="squeeze_max")
    add_output(p)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("robustify", help="search local symplectics for full robustness")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=_cmd_robustify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
