"""Command-line front end.

Subcommands: validate, classify, scan, contour, attenuate, family, map,
random, robustify.  State files are JSON records

    {"label": "...", "ordering": "q1,p1,q2,p2", "matrix": [[...], ...]}

with exactly a 4x4 numeric matrix; unknown fields are rejected.  Grids are
CSV with a header row.  Numbers are printed by ``repr``: the shortest text
that reads back to the same float.  Output goes out as it is made, a grid
row by row and a contour point by point, so memory grows with neither
``--grid`` nor ``--samples``.  With ``-o`` the file is replaced
atomically, and only on success.  ``scan`` and ``contour`` check their
state before their first byte; only ``map`` can fail partway, and on
stdout it then leaves its header and the complete rows before the failing
one.

The layers are bound as module objects of the lazy package namespace, and
each command body calls into them at run time, so a command executes only
the modules it uses; the parser gets the arguments of the invoked
subcommand only.

Exit status: 0 on success, 1 on validation errors and when stdout's reader
leaves before the output ends (the rest is dropped, without a message), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import sys
import tempfile
from itertools import chain

from . import __version__, _exact, _maps, channel, covariance, families, robustness, witnesses
from .errors import ValidationError

STATE_FIELDS = {"label", "ordering", "matrix"}

#: The spec class in :mod:`cvrobust.families` of each ``family`` kind; each
#: spec field is a float flag ``--<field without "_">``, required unless the
#: field has a default.
_FAMILIES = {
    "fully-symmetric": "FullySymmetric",
    "from-squeezing": "FullySymmetricFromSqueezing",
    "symmetric-modes": "SymmetricModes",
    "standard-form-i": "StandardFormI",
    "pure-squeezed": "PureTwoModeSqueezed",
}


#: The characters ``_write`` gathers before one write: a write-through
#: stdout makes a system call for every string it is handed.
_BLOCK = 1 << 16


def _blocks(chunks):
    """The strings of ``chunks`` joined into blocks of at least ``_BLOCK`` characters.

    The last block may be shorter.  When ``chunks`` raises, the strings
    before the error come out as one block first.
    """
    block, size = [], 0
    try:
        for chunk in chunks:
            block.append(chunk)
            size += len(chunk)
            if size >= _BLOCK:
                yield "".join(block)
                block, size = [], 0
    except Exception:
        yield "".join(block)
        raise
    yield "".join(block)


def _write(chunks, path: str | None) -> None:
    """Write the strings of ``chunks`` in order, to stdout or to ``path``.

    They go out in :func:`_blocks`, so on stdout a failing ``chunks`` leaves
    every string before its error.  ``path`` is written through a temporary
    file, renamed onto it with the mode ``open`` gives a new file (``0o666``
    less the umask) once every chunk is written, and removed on any
    failure.  An ``OSError`` of these file operations becomes an error
    naming ``path``.
    """
    if path is None:
        sys.stdout.writelines(_blocks(chunks))
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cvrobust-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(_blocks(chunks))
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc


def write_atomic(path: str, text: str) -> None:
    """Write one text to ``path`` as :func:`_write` does."""
    _write((text,), path)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        _write((text,), None)
    else:
        write_atomic(path, text)


def read_state_file(path: str) -> tuple[covariance.CovMatrix, str]:
    """Parse a state file; returns the matrix and its label."""
    import json

    try:
        with open(path, encoding="utf-8") as handle:  # RFC 8259: JSON text is UTF-8
            raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {getattr(exc, 'strerror', None) or exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply to parse")
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: line 1: expected a JSON object")
    unknown = set(data) - STATE_FIELDS
    if unknown:
        raise ValidationError(f"{path}: unknown fields {sorted(unknown)}")
    if "ordering" not in data or "matrix" not in data:
        raise ValidationError(f"{path}: missing required fields 'ordering'/'matrix'")
    CovMatrix = covariance.CovMatrix
    if data["ordering"] != CovMatrix.ORDERING:
        raise ValidationError(
            f"{path}: ordering must be {CovMatrix.ORDERING!r}, got {data['ordering']!r}"
        )
    matrix = data["matrix"]
    if (
        not isinstance(matrix, list)
        or len(matrix) != 4
        or any(not isinstance(row, list) or len(row) != 4 for row in matrix)
        or any(type(x) not in (int, float) for row in matrix for x in row)
    ):
        raise ValidationError(f"{path}: matrix must be 4 rows of 4 numbers")
    try:
        cov = CovMatrix(matrix)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValidationError(f"{path}: label must be text")
    return cov, label


def _json_text(data) -> str:
    import json

    return json.dumps(data, indent=2) + "\n"


def state_file_text(v: covariance.CovMatrix, label: str) -> str:
    ordering = covariance.CovMatrix.ORDERING
    return _json_text({"label": label, "ordering": ordering, "matrix": v.tolist()})


def _finite_or_none(x: float) -> float | None:
    """``x``, or ``None`` (JSON null) when it is NaN or infinite."""
    return x if math.isfinite(x) else None


def _cmd_validate(args) -> int:
    cov, label = read_state_file(args.input)
    diag = covariance.validate_physicality(cov)
    data = {
        "label": label,
        "physical": diag.physical,
        "nu_minus": _finite_or_none(diag.nu.nu_minus),
        "nu_plus": _finite_or_none(diag.nu.nu_plus),
        "det_condition": _finite_or_none(diag.det_condition),
        "boundary": diag.boundary,
    }
    _emit(_json_text(data), args.output)
    return 0


def _cmd_classify(args) -> int:
    cov, label = read_state_file(args.input)
    report = robustness.classify(cov)
    gamma = cov._exact().gamma_set()
    nu = covariance.symplectic_spectrum(cov)
    nu_pt = covariance.symplectic_spectrum(cov, partial_transpose_mode=2)
    pur = covariance.purities(cov)
    duan = witnesses.minimized_duan(cov)
    w_d = None if duan.degenerate else witnesses.duan_witness(cov, duan.a_opt)
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
            k: _finite_or_none(_exact.ratio(*w)) for k, w in zip(witnesses.GammaSet._fields, gamma)
        },
        "symplectic": {
            "nu_minus": _finite_or_none(nu.nu_minus),
            "nu_plus": _finite_or_none(nu.nu_plus),
            "pt_nu_minus": _finite_or_none(nu_pt.nu_minus),
            "pt_nu_plus": _finite_or_none(nu_pt.nu_plus),
        },
        "purities": {k: _finite_or_none(getattr(pur, k)) for k in ("mu", "mu1", "mu2")},
        "critical_transmittance": {
            "t1": report.t1_critical,
            "t2": report.t2_critical,
        },
        "boundary_flags": sorted(report.boundary_flags),
        "notes": [robustness.CHANNEL_WITNESS_NOTE],
    }
    _emit(_json_text(data), args.output)
    return 0


def _cmd_scan(args) -> int:
    cov, _ = read_state_file(args.input)
    ts, rows = robustness._scan(cov, args.grid)
    columns = [repr(t2) for t2 in ts]

    def lines():
        yield "t1,t2,w_ppt_attenuated,w_reduced\n"
        for t1, row in rows:
            t1_text = repr(t1)
            cells = zip(columns, row)
            yield "".join([f"{t1_text},{t2},{att!r},{w!r}\n" for t2, (att, w) in cells])

    _write(lines(), args.output)
    return 0


def _cmd_contour(args) -> int:
    cov, _ = read_state_file(args.input)
    points = robustness._contour(cov, args.samples)
    _write(chain(["t1,t2\n"], (f"{t1!r},{t2!r}\n" for t1, t2 in points)), args.output)
    return 0


def _link_budget_from_args(args) -> channel.LinkBudget | None:
    if args.length1_km is None and args.length2_km is None:
        for flag, value in (
            ("--alpha-db-per-km", args.alpha_db_per_km),
            ("--scenario", args.scenario),
        ):
            if value is not None:
                raise ValidationError(f"{flag} needs --length1-km or --length2-km")
        return None
    for flag, value in (
        ("--length1-km", args.length1_km),
        ("--length2-km", args.length2_km),
        ("--alpha-db-per-km", args.alpha_db_per_km),
    ):
        if value is not None:
            channel._require_finite_nonnegative(flag, value)
    return channel.LinkBudget(
        scenario=args.scenario or "dual-channel",
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
        t = channel.transmittance_from_link(budget)
    else:
        t = channel.Transmittance(
            args.t1 if args.t1 is not None else 1.0,
            args.t2 if args.t2 is not None else 1.0,
        )
    out = channel.attenuate(covariance._require_physical(cov), t)
    _emit(state_file_text(out, label), args.output)
    return 0


def _cmd_family(args) -> int:
    spec = getattr(families, _FAMILIES[args.kind])
    cov = families.build(spec(*(getattr(args, name.replace("_", "")) for name in spec._fields)))
    label = args.label if args.label is not None else args.kind
    _emit(state_file_text(cov, label), args.output)
    return 0


def _cmd_map(args) -> int:
    if args.which == "correlations":
        x_name, y_name, xs, ys, rows = _maps._correlation_cells(args.dq, args.dp, args.grid)
    else:
        x_name, y_name, xs, ys, rows = _maps._epr_cells(
            args.mu_minus, args.mu_plus, args.grid, args.q_plus_max, args.p_minus_max
        )
    y_text = [repr(y) for y in ys]
    regions = _maps._REGIONS

    def lines():
        yield f"{x_name},{y_name},label,boundary\n"
        for x, row in zip(xs, rows):
            x_text = repr(x)
            yield "".join(
                f"{x_text},{y},{regions[code]},{'1' if flag else '0'}\n"
                for y, (code, flag) in zip(y_text, row)
            )

    _write(lines(), args.output)
    return 0


def _cmd_random(args) -> int:
    params = families.RandomStateParams(
        nu_min=args.nu_min, nu_max=args.nu_max, squeeze_max=args.squeeze_max
    )
    cov = families.random_physical_state(args.seed, params)
    _emit(state_file_text(cov, f"random(seed={args.seed})"), args.output)
    return 0


def _cmd_robustify(args) -> int:
    cov, label = read_state_file(args.input)
    result = robustness.robustify(cov, budget=args.budget, seed=args.seed)
    if result is None:
        data = {"label": label, "found": False}
    else:
        after = robustness.classify(result.v_out)
        data = {
            "label": label,
            "found": True,
            "objective": result.objective,
            "evaluations": result.evaluations,
            "symplectic": result.s._asdict(),
            "class_out": after.cls.label,
            "matrix": result.v_out.tolist(),
        }
    _emit(_json_text(data), args.output)
    return 0


#: Each subcommand: its help line in ``cvrobust --help``, and its body.
_COMMANDS = {
    "validate": ("check physicality of a state file", _cmd_validate),
    "classify": ("full witness report and robustness class", _cmd_classify),
    "scan": ("attenuated witness over a transmittance grid (CSV)", _cmd_scan),
    "contour": ("disentanglement boundary in the transmittance square", _cmd_contour),
    "attenuate": ("apply the loss channel to a state file", _cmd_attenuate),
    "family": ("build a parametric family state", _cmd_family),
    "map": ("robustness region maps (CSV)", _cmd_map),
    "random": ("emit a seeded random physical state", _cmd_random),
    "robustify": ("search local symplectics for full robustness", _cmd_robustify),
}


def _add_output(p) -> None:
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def _add_arguments(p, command: str) -> None:
    """Add the arguments of the subcommand ``command`` to its parser ``p``."""
    if command == "family":
        fam = p.add_subparsers(dest="kind", required=True)
        for kind, spec_name in _FAMILIES.items():
            spec = getattr(families, spec_name)
            q = fam.add_parser(kind)
            defaults = spec._field_defaults
            for name in spec._fields:
                q.add_argument(
                    "--" + name.replace("_", ""), type=float,
                    required=name not in defaults, default=defaults.get(name),
                )
            q.add_argument("--label", default=None)
            _add_output(q)
        return
    if command == "map":
        which = p.add_subparsers(dest="which", required=True)
        q = which.add_parser("correlations")
        q.add_argument("--dq", type=float, required=True)
        q.add_argument("--dp", type=float, required=True)
        q.add_argument("--grid", type=int, default=101)
        _add_output(q)
        q = which.add_parser("epr")
        q.add_argument("--mu-minus", type=float, required=True, dest="mu_minus")
        q.add_argument("--mu-plus", type=float, required=True, dest="mu_plus")
        q.add_argument("--grid", type=int, default=101)
        q.add_argument("--q-plus-max", type=float, default=5.0, dest="q_plus_max")
        q.add_argument("--p-minus-max", type=float, default=5.0, dest="p_minus_max")
        _add_output(q)
        return
    if command == "random":
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--nu-min", type=float, default=1.0, dest="nu_min")
        p.add_argument("--nu-max", type=float, default=2.5, dest="nu_max")
        p.add_argument("--squeeze-max", type=float, default=1.0, dest="squeeze_max")
    else:
        p.add_argument("input")
    if command == "scan":
        p.add_argument("--grid", type=int, default=101, help="points per axis (default 101)")
    elif command == "contour":
        p.add_argument("--samples", type=int, default=256, help="sample count (default 256)")
    elif command == "attenuate":
        p.add_argument("--t1", type=float, default=None, help="channel-1 transmittance")
        p.add_argument("--t2", type=float, default=None, help="channel-2 transmittance")
        p.add_argument("--length1-km", type=float, default=None, dest="length1_km")
        p.add_argument("--length2-km", type=float, default=None, dest="length2_km")
        p.add_argument(
            "--scenario",
            choices=["dual-channel", "single-channel"],
            default=None,
            help="loss scenario of the link lengths (default dual-channel)",
        )
        p.add_argument("--alpha-db-per-km", type=float, default=None, dest="alpha_db_per_km")
    elif command == "robustify":
        p.add_argument("--budget", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
    _add_output(p)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The ``cvrobust`` parser, with the arguments of the subcommand ``command`` only.

    Every subcommand is registered with its help line, so the top-level help
    and usage are whole.  Parsing an argv whose subcommand is ``command``
    reads no other subcommand's arguments, so they are left out.
    """
    parser = argparse.ArgumentParser(
        prog="cvrobust",
        description="Analyze entanglement robustness of two-mode Gaussian states under loss.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            _add_arguments(p, name)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``); returns the exit status.

    A ``BrokenPipeError`` (stdout's reader has gone) propagates: :func:`run`
    ends the process on it without a message.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse's subcommand token: no top-level option takes a value.
    command = next((token for token in argv if not token.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (ValidationError, OSError, MemoryError) as exc:
        # a MemoryError may name the allocation; a bare one has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def run() -> int:
    """Process entry of ``python -m cvrobust.cli`` and the ``cvrobust`` script.

    Runs :func:`main`, then moves every object still alive (the modules,
    classes and constants of cvrobust and of the standard library) into the
    collector's permanent generation, so that the final collection at
    interpreter exit does not walk them.  In-process callers use
    :func:`main`, which leaves the collector alone.

    When stdout's reader goes away first (``cvrobust scan s.json | head``),
    the rest of the output is dropped and the exit status is 1, with no
    message: stdout is pointed at ``os.devnull``, so the flush at exit has
    nothing to fail on (the "Note on SIGPIPE" of the :mod:`signal` docs).
    """
    try:
        try:
            return main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
