"""Process start-up and entry: what importing the CLI loads, and ``cli.run``."""

import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvrobust
from cvrobust.cli import main, state_file_text
from helpers import CM_E

ROOT = Path(__file__).resolve().parents[1]


def child_env(**env) -> dict[str, str]:
    """This environment with this checkout's package importable, plus ``env``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **env)


def python(*args, **env):
    """Run the interpreter on ``args`` with this checkout's package importable.

    ``env`` adds variables to the child's environment only.
    """
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(**env), timeout=120
    )


#: A pure, strongly squeezed state on which ``robustify`` needs its restarts.
SQUEEZED_PIN = ["random", "--seed", "25", "--nu-min", "1", "--nu-max", "1", "--squeeze-max", "9"]


#: Every command runs without numpy.  ``STATE`` and ``OUT`` stand for a
#: state file and an output path.
STDLIB_COMMANDS = {
    "version": ["--version"],
    "validate": ["validate", "STATE", "-o", "OUT"],
    "classify": ["classify", "STATE", "-o", "OUT"],
    "attenuate": ["attenuate", "STATE", "--t2", "0.4", "-o", "OUT"],
    "contour": ["contour", "STATE", "-o", "OUT"],
    "scan": ["scan", "STATE", "--grid", "5", "-o", "OUT"],
    "random": ["random", "--seed", "7", "-o", "OUT"],
    "robustify": ["robustify", "STATE", "-o", "OUT"],
    "family": ["family", "pure-squeezed", "--r", "1", "-o", "OUT"],
    "map": ["map", "correlations", "--dq", "2.55", "--dp", "1.8", "--grid", "5", "-o", "OUT"],
    "map-epr": ["map", "epr", "--mu-minus", "0.7", "--mu-plus", "0.4", "--grid", "5", "-o", "OUT"],
}


def command_argv(argv, tmp_path) -> list[str]:
    """``argv`` with ``STATE`` (CM_E) and ``OUT`` replaced by paths under ``tmp_path``."""
    state = tmp_path / "cm_e.json"
    state.write_text(state_file_text(CM_E, "CM_E"))
    paths = {"STATE": str(state), "OUT": str(tmp_path / "out")}
    return [paths.get(a, a) for a in argv]


#: The submodules that ``import cvrobust`` registers without executing them.
SUBMODULES = {
    f"cvrobust.{name}"
    for name in (
        "_exact", "_maps", "_pcg64", "_record", "channel", "covariance",
        "errors", "families", "robustness", "simplex", "witnesses",
    )
}

#: The cvrobust modules each command executes, besides ``cli`` and ``errors``.
STATE = {"cvrobust._exact", "cvrobust.covariance"}
LOSS = STATE | {"cvrobust._record", "cvrobust.channel"}
CORNERS = STATE | {"cvrobust._record", "cvrobust.robustness"}
FAMILY = STATE | {"cvrobust._record", "cvrobust.families"}
EXECUTED = {
    "version": set(),
    "validate": STATE,
    "attenuate": LOSS,
    "classify": CORNERS | {"cvrobust.witnesses"},
    "scan": CORNERS,
    "contour": CORNERS,
    "robustify": CORNERS | {"cvrobust.simplex"},
    "random": FAMILY | {"cvrobust._pcg64"},
    "family": FAMILY,
    "map": {"cvrobust._exact", "cvrobust._maps"},
    "map-epr": {"cvrobust._exact", "cvrobust._maps"},
}

#: Prints the cvrobust modules in ``sys.modules`` as JSON: ``[registered,
#: executed]``.  LazyLoader's module subclass turns into a plain module when
#: the module runs, and ``type`` reads the class without running it.
REPORT_MODULES = (
    "import json, sys, types\n"
    "ours = {n: m for n, m in list(sys.modules.items()) if n.startswith('cvrobust.')}\n"
    "print(json.dumps([sorted(ours), sorted(n for n, m in ours.items()\n"
    "                                       if type(m) is types.ModuleType)]))"
)


def layer_modules() -> set[str]:
    """The cvrobust modules whose functions ``bench/tracer.py`` wraps."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"cvrobust.{module}" for module, _ in tracer.LAYER_FUNCTIONS.values()}


class TestStartup:
    def test_cli_import_loads_layers_but_not_numpy_or_dataclasses(self):
        code = "import json, sys, cvrobust.cli; print(json.dumps(sorted(sys.modules)))"
        done = python("-c", code)
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout))
        assert "dataclasses" not in loaded
        assert not any(name.split(".")[0] == "numpy" for name in loaded)
        assert layer_modules() <= loaded

    def test_bad_shape_is_rejected_without_numpy(self):
        code = (
            "import sys; from cvrobust import CovMatrix, ValidationError\n"
            "try: CovMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1], [0, 0, 0, 1]])\n"
            "except ValidationError as exc: print(exc)\n"
            "print('numpy' in sys.modules)"
        )
        done = python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
        assert "must be 4x4" in done.stdout

    def test_package_import_executes_no_submodule(self):
        done = python("-c", "import cvrobust\n" + REPORT_MODULES)
        assert done.returncode == 0, done.stderr
        registered, executed = json.loads(done.stdout)
        assert set(registered) == SUBMODULES
        assert executed == []

    def test_layers_stay_apart(self):
        # The map kernel is its own module.  The corner commands decide on
        # the exact corners alone, zero band included, so they skip the
        # witness layer that only classify's report reads, and only
        # attenuate runs the loss channel.
        assert all("cvrobust._maps" not in EXECUTED[name] for name in ("random", "family"))
        corner_commands = ("scan", "contour", "robustify")
        assert all("cvrobust.witnesses" not in EXECUTED[name] for name in corner_commands)
        assert "cvrobust.witnesses" in EXECUTED["classify"]
        assert [name for name in EXECUTED if "cvrobust.channel" in EXECUTED[name]] == ["attenuate"]

    @pytest.mark.parametrize("name", sorted(EXECUTED))
    def test_command_executes_only_its_modules(self, name, tmp_path):
        argv = command_argv(STDLIB_COMMANDS[name], tmp_path)
        code = (
            "from cvrobust.cli import main\n"
            f"try: assert main({argv!r}) == 0\n"
            "except SystemExit as exc: assert exc.code == 0\n" + REPORT_MODULES
        )
        done = python("-c", code)
        assert done.returncode == 0, done.stderr
        registered, executed = json.loads(done.stdout.splitlines()[-1])
        assert set(registered) == SUBMODULES | {"cvrobust.cli"}
        assert set(executed) == EXECUTED[name] | {"cvrobust.cli", "cvrobust.errors"}

    @pytest.mark.parametrize("name", sorted(STDLIB_COMMANDS))
    def test_single_state_commands_leave_numpy_unloaded(self, name, tmp_path):
        argv = command_argv(STDLIB_COMMANDS[name], tmp_path)
        code = (
            "import sys; from cvrobust.cli import main\n"
            f"try: code = main({argv!r})\n"
            "except SystemExit as exc: code = exc.code\n"
            "print(code, 'numpy' in sys.modules)"
        )
        done = python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-2:] == ["0", "False"]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_package_import_restores_collector(self, enabled):
        setup = "gc.enable()" if enabled else "gc.disable()"
        done = python("-c", f"import gc; {setup}; import cvrobust; print(gc.isenabled())")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(enabled)

    @pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
    def test_package_import_keeps_freeze_count(self, frozen):
        code = (
            "import gc; gc.enable()\n"
            f"if {frozen}: gc.freeze()\n"
            "before = gc.get_freeze_count()\n"
            "import cvrobust\n"
            "print(gc.isenabled(), gc.get_freeze_count() == before, before > 0)"
        )
        done = python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "True", str(frozen)]

    @pytest.mark.parametrize(
        "commands, evaluations",
        [
            ([["robustify", "CM_E", "-o", "OUT"]], 9),
            ([["random", "--seed", "7", "-o", "OUT"]], None),
            ([SQUEEZED_PIN + ["-o", "STATE"], ["robustify", "STATE", "-o", "OUT"]], 314),
        ],
        ids=["robustify-no-restart", "random", "random-then-restarting-robustify"],
    )
    def test_seeded_commands_skip_numpy_random(self, commands, evaluations, tmp_path):
        paths = {name: tmp_path / f"{name}.json" for name in ("CM_E", "STATE", "OUT")}
        paths["CM_E"].write_text(state_file_text(CM_E, "CM_E"))
        argvs = [[str(paths.get(a, a)) for a in argv] for argv in commands]
        code = (
            "import sys; from cvrobust.cli import main;\n"
            f"codes = [main(argv) for argv in {argvs!r}];\n"
            "print(*codes, 'numpy' in sys.modules)"
        )
        done = python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"] * len(commands) + ["False"]
        if evaluations is not None:
            assert json.loads(paths["OUT"].read_text())["evaluations"] == evaluations

    def test_seeded_outputs_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # OPENBLAS_CORETYPE=Prescott makes OpenBLAS, in the child process only,
        # use a kernel without FMA; a matrix product through numpy would change
        # the last bits of these states.  The commands make none: numpy stays
        # unloaded.
        commands = [
            ["random", "--seed", "7", "-o", "DEFAULT"],
            SQUEEZED_PIN + ["-o", "PURE"],
            ["robustify", "PURE", "-o", "ROBUST"],
        ]
        outputs = []
        for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            run_dir = tmp_path / (kernel.get("OPENBLAS_CORETYPE") or "default")
            run_dir.mkdir()
            argvs = [[str(run_dir / a) if a.isupper() else a for a in argv] for argv in commands]
            code = (
                "import sys; from cvrobust.cli import main;\n"
                f"codes = [main(argv) for argv in {argvs!r}];\n"
                "print(*codes, 'numpy' in sys.modules)"
            )
            done = python("-c", code, **kernel)
            assert done.returncode == 0, done.stderr
            assert done.stdout.split() == ["0", "0", "0", "False"]
            names = ("DEFAULT", "PURE", "ROBUST")
            outputs.append([(run_dir / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]

    def test_main_leaves_collector_alone(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["random", "--seed", "1", "-o", str(tmp_path / "state.json")]) == 0
        assert gc.get_freeze_count() == before

    def test_run_freezes_then_runs_main(self, tmp_path):
        # run() freezes after main: no module namespace of cvrobust is left
        # for the final collection at exit, and no command loads numpy.
        for argv in (["--version"], STDLIB_COMMANDS["map"]):
            argv = command_argv(argv, tmp_path)
            code = (
                f"import gc, sys; from cvrobust import cli; sys.argv[1:] = {argv!r}\n"
                "try: code = cli.run()\n"
                "except SystemExit as exc: code = exc.code\n"
                "tracked = {id(o) for o in gc.get_objects()}\n"
                "spaces = [vars(m) for n, m in list(sys.modules.items())\n"
                "          if n.split('.')[0] in ('cvrobust', 'numpy')]\n"
                "print(code, gc.get_freeze_count() > 0, 'numpy' in sys.modules,\n"
                "      any(id(d) in tracked for d in spaces))"
            )
            done = python("-c", code)
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == "0 True False False"


class TestNamespace:
    def test_star_import_binds_every_public_name_of_its_module(self):
        names = {}
        exec("from cvrobust import *", names)
        assert len(cvrobust.__all__) == len(set(cvrobust.__all__)) == 67
        assert names["__version__"] == cvrobust.__version__ == "0.1.0"
        for name in cvrobust.__all__[1:]:
            home = sys.modules[f"cvrobust.{cvrobust._HOME[name]}"]
            assert names[name] is getattr(cvrobust, name) is vars(home)[name]
            defined_in = getattr(names[name], "__module__", None) or ""  # classes, functions
            assert defined_in == home.__name__ or not defined_in.startswith("cvrobust")

    def test_dir_lists_the_public_names(self):
        assert {"__all__", *cvrobust.__all__} <= set(dir(cvrobust))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'cvrobust' has no attribute 'nothing'"):
            cvrobust.nothing


def in_process(argv, capsys):
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # --version and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestProcessEntry:
    @pytest.mark.parametrize(
        "argv, expected_code",
        [(["--version"], 0), (["classify", "STATE"], 0), (["random", "--seed", "-1"], 1)],
        ids=["version", "classify", "failing"],
    )
    def test_module_entry_matches_main(self, argv, expected_code, tmp_path, capsys):
        state = tmp_path / "cm_e.json"
        state.write_text(state_file_text(CM_E, "CM_E"))
        argv = [str(state) if a == "STATE" else a for a in argv]
        done = python("-m", "cvrobust.cli", *argv)
        assert (done.returncode, done.stdout, done.stderr) == in_process(argv, capsys)
        assert done.returncode == expected_code

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, header",
        [
            (["scan", "STATE", "--grid", "300"], "t1,t2,w_ppt_attenuated,w_reduced\n"),
            (["map", "epr", "--mu-minus", "1", "--mu-plus", "1", "--grid", "300"],
             "q_plus_var,p_minus_var,label,boundary\n"),
        ],
        ids=["scan", "map"],
    )
    def test_closed_stdout_ends_quietly(self, argv, header, unbuffered, tmp_path):
        # `cvrobust scan s.json | head -1`: the reader leaves after one line.
        # The rest of the output is dropped, with exit status 1 and no message.
        argv = command_argv(argv, tmp_path)
        child = subprocess.Popen(
            [sys.executable, "-m", "cvrobust.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(PYTHONUNBUFFERED=unbuffered),
        )
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 1
        assert (first, err) == (header.encode(), b"")
