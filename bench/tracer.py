"""Run a plan of CLI commands in one process, optionally traced per layer.

Usage: ``python tracer.py PLAN.json RESULT.json TRACED`` from the work
directory, with cvrobust importable.  PLAN.json is a list of argument
lists for ``cvrobust.cli.main``.  With TRACED=1 every public function in
``LAYER_FUNCTIONS`` is wrapped in each cvrobust module that binds it
(``CovMatrix`` through its ``__init__``).  Each call is a span; when a span
closes its self time (duration minus the time of the spans it caused) is
added to per-function totals kept in memory, and the totals are written
to RESULT.json at the end.  With TRACED=0 the same plan runs unwrapped,
which gives the wall time that the tracing overhead is measured against.
"""

from __future__ import annotations

import json
import sys
import time

#: Layer name -> (defining module, public names folded into that layer).
LAYER_FUNCTIONS = {
    "covariance.CovMatrix": ("covariance", ["CovMatrix"]),
    "covariance.validate_physicality": ("covariance", ["validate_physicality"]),
    "covariance.symplectic_spectrum": ("covariance", ["symplectic_spectrum"]),
    "witnesses.gamma_coefficients": ("witnesses", ["gamma_coefficients"]),
    "witnesses.ppt_witness": ("witnesses", ["ppt_witness"]),
    "witnesses.reduced_witness": ("witnesses", ["reduced_witness"]),
    "witnesses.boundary_band": ("witnesses", ["boundary_band"]),
    "channel.attenuate": ("channel", ["attenuate"]),
    "robustness.classify": ("robustness", ["classify"]),
    "robustness.esd_contour": ("robustness", ["esd_contour"]),
    "robustness.robustify": ("robustness", ["robustify"]),
    "simplex.nelder_mead": ("simplex", ["nelder_mead"]),
    "families.build": ("families", ["build"]),
    "families.random_physical_state": ("families", ["random_physical_state"]),
    "families.region_map": ("families", ["region_map_correlations", "region_map_epr"]),
    "cli.read_state_file": ("cli", ["read_state_file"]),
    "cli.write_atomic": ("cli", ["write_atomic"]),
    "cli.main": ("cli", ["main"]),
}

#: Counters recorded at layer boundaries.
COUNTERS = (
    "cli.bytes_out",
    "families.cells",
    "families.unphysical_cells",
    "families.boundary_cells",
    "families.region_validate_calls",
    "simplex.evaluations",
    "robustness.robustify.completed",
    "robustness.robustify.found",
)


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in LAYER_FUNCTIONS}
        self.self_s = {name: 0.0 for name in LAYER_FUNCTIONS}
        self.counters = {name: 0 for name in COUNTERS}
        self._open = []  # child time of each open span, innermost last

    def wrap(self, name, fn, observe=None):
        calls, self_s, open_spans = self.calls, self.self_s, self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = open_spans.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self):
        c = self.counters

        def region_map(args, region):
            c["families.cells"] += int(region.labels.size)
            c["families.unphysical_cells"] += int((region.labels == "unphysical").sum())
            c["families.boundary_cells"] += int(region.boundary.sum())

        def write_atomic(args, _):
            c["cli.bytes_out"] += len(args[1].encode())

        def nelder_mead(args, result):
            c["simplex.evaluations"] += result.evaluations

        def robustify(args, result):
            c["robustness.robustify.completed"] += 1
            c["robustness.robustify.found"] += result is not None

        return {
            "families.region_map": region_map,
            "cli.write_atomic": write_atomic,
            "simplex.nelder_mead": nelder_mead,
            "robustness.robustify": robustify,
        }

    def install(self, package) -> None:
        """Replace every binding of the listed functions in the package's modules."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        observers = self._observers()
        for name, (module, attrs) in LAYER_FUNCTIONS.items():
            home = sys.modules[f"{prefix}.{module}"]
            for attr in attrs:
                original = getattr(home, attr)
                if isinstance(original, type):
                    original.__init__ = self.wrap(name, original.__init__)
                    continue
                wrapper = self.wrap(name, original, observers.get(name))
                if name == "families.region_map":
                    wrapper = self._count_region_validations(wrapper)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _count_region_validations(self, region_fn):
        """Count the physicality checks a map makes, to report them per cell."""
        calls, counters = self.calls, self.counters

        def counted(*args, **kwargs):
            before = calls["covariance.validate_physicality"]
            try:
                return region_fn(*args, **kwargs)
            finally:
                counters["families.region_validate_calls"] += calls["covariance.validate_physicality"] - before

        return counted


def run_plan(cli, plan) -> tuple[list[int], float]:
    codes = []
    start = time.perf_counter()
    for argv in plan:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        codes.append(code)
    return codes, time.perf_counter() - start


def main(plan_path: str, result_path: str, traced: str) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own: the import layer)

    t1 = time.perf_counter()
    import cvrobust
    import cvrobust.cli

    t2 = time.perf_counter()
    with open(plan_path) as handle:
        plan = json.load(handle)
    tracer = Tracer()
    if traced == "1":
        tracer.install(cvrobust)
    codes, wall = run_plan(cvrobust.cli, plan)
    result = {
        "exit_codes": codes,
        "wall_s": wall,
        "import_numpy_s": t1 - t0,
        "import_cvrobust_s": t2 - t1,
        "calls": tracer.calls,
        "self_s": tracer.self_s,
        "counters": tracer.counters,
    }
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
