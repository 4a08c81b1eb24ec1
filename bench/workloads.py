"""Workload plans: the CLI commands each workload runs, and their inputs.

Every plan is built up front from the benchmark seed and a number of
rounds, so the same seed and round count give the same commands and the
same input files.  A plan is a list of rounds, each holding every command
type of the workload in a fixed share.  The first rounds of a plan do not
depend on how many rounds it has.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from oracle import ExactState

#: Relative jitter of the map parameters around the paper's values.
MAP_JITTER = 0.02

ATTENUATE_ARGS = ["--length2-km", "50", "--scenario", "single-channel"]
#: Channel-2 transmittance of ``ATTENUATE_ARGS`` at the default 0.2 dB/km.
ATTENUATE_T2 = 10.0 ** (-0.2 * 50.0 / 10.0)

SQUEEZED_ARGS = ["--nu-min", "1", "--nu-max", "1", "--squeeze-max", "9"]


def _eq19(c_q: float) -> list[list[float]]:
    return [
        [2.55, 0.0, c_q, 0.0],
        [0.0, 1.80, 0.0, -1.26],
        [c_q, 0.0, 2.55, 0.0],
        [0.0, -1.26, 0.0, 1.80],
    ]


#: The test-suite fixtures and the class each must get (label, robust mode).
FIXTURES = {
    "CM_A": (_eq19(1.275), ("FullyRobust", None)),
    "CM_B": (_eq19(0.893), ("Fragile", None)),
    "CM_C": (_eq19(0.3825), ("Separable", None)),
    "CM_D": (_eq19(1.033), ("PartiallyRobustSymmetric", None)),
    "CM_E": (
        [
            [2.55, 0.0, 0.653, 0.0],
            [0.0, 1.80, 0.0, -0.797],
            [0.653, 0.0, 1.62, 0.0],
            [0.0, -0.797, 0.0, 1.32],
        ],
        ("PartiallyRobustAsymmetric", 2),
    ),
}


@dataclass
class Op:
    """One CLI command: ``python -m cvrobust.cli <argv>`` in the work directory."""

    argv: list[str]
    kind: str  # subcommand, or "map"
    output: str  # file the command writes
    items: int  # grid cells on grid commands, else 1
    group: str  # maps | scan | fixture | default | squeezed
    state: str = ""  # state file read (or, for `random`, written)
    spec: dict = field(default_factory=dict)  # parameters the checks need


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]
    inputs: dict[str, str]  # file name -> contents, written before timing


def state_text(matrix, label: str) -> str:
    data = {"label": label, "ordering": "q1,p1,q2,p2", "matrix": matrix}
    return json.dumps(data, indent=2) + "\n"


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _local(theta, r, phi):
    """Rotation-squeeze-rotation ``R(theta) Z(r) R(phi)`` of one mode."""

    def rot(x):
        return [[math.cos(x), -math.sin(x)], [math.sin(x), math.cos(x)]]

    return _matmul(_matmul(rot(theta), [[math.exp(r), 0.0], [0.0, math.exp(-r)]]), rot(phi))


def random_entangled_state(rng: random.Random) -> list[list[float]]:
    """A seeded state ``S^T diag(nu1, nu1, nu2, nu2) S`` that is clearly entangled.

    ``S`` is a beam splitter followed by local rotation-squeeze-rotations,
    so the state is physical by construction; states whose exact PPT witness
    is above -0.05 are redrawn, keeping inputs away from the separability edge.
    """
    while True:
        nu1, nu2 = rng.uniform(1.0, 2.5), rng.uniform(1.0, 2.5)
        t1, p1, t2, p2, mix = (rng.uniform(-math.pi, math.pi) for _ in range(5))
        r1, r2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        s1, s2 = _local(t1, r1, p1), _local(t2, r2, p2)
        local = [[0.0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                local[i][j] = s1[i][j]
                local[i + 2][j + 2] = s2[i][j]
        c, s = math.cos(mix), math.sin(mix)
        bs = [[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]]
        sym = _matmul(local, bs)
        diag = [nu1, nu1, nu2, nu2]
        v = [[sum(sym[k][i] * diag[k] * sym[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        v = [[0.5 * (v[i][j] + v[j][i]) for j in range(4)] for i in range(4)]
        if ExactState(v).corners()["w_ppt"] < -0.05:
            return v


def _jitter(rng: random.Random, value: float) -> str:
    return f"{value * (1.0 + MAP_JITTER * rng.uniform(-1.0, 1.0)):.4f}"


def grid_maps(seed: int, n_rounds: int, grid: int, samples: int) -> Workload:
    rng = random.Random(seed)
    rounds = []
    for r in range(n_rounds):
        dq, dp = _jitter(rng, 2.55), _jitter(rng, 1.80)
        mu_minus, mu_plus = _jitter(rng, 0.7267), _jitter(rng, 0.4529)
        corr = f"r{r}.correlations.csv"
        epr = f"r{r}.epr.csv"
        rounds.append(
            [
                Op(
                    ["map", "correlations", "--dq", dq, "--dp", dp, "--grid", str(grid), "-o", corr],
                    "map", corr, grid * grid, "maps",
                    spec={"which": "correlations", "dq": float(dq), "dp": float(dp), "grid": grid},
                ),
                Op(
                    ["map", "epr", "--mu-minus", mu_minus, "--mu-plus", mu_plus, "--grid", str(grid), "-o", epr],
                    "map", epr, grid * grid, "maps",
                    spec={
                        "which": "epr",
                        "mu_minus": float(mu_minus),
                        "mu_plus": float(mu_plus),
                        "grid": grid,
                    },
                ),
            ]
        )
    return Workload("grid_maps", rounds, {})


RANDOM_STATES_PER_ROUND = 3


def _fixture_inputs() -> dict[str, str]:
    return {f"{name}.json": state_text(m, name) for name, (m, _) in FIXTURES.items()}


def transmittance_scan(seed: int, n_rounds: int, grid: int, samples: int) -> Workload:
    rng = random.Random(seed)
    inputs = _fixture_inputs()
    rounds = []
    for r in range(n_rounds):
        states = list(FIXTURES)
        for j in range(RANDOM_STATES_PER_ROUND):
            name = f"r{r}.random{j}"
            inputs[f"{name}.json"] = state_text(random_entangled_state(rng), name)
            states.append(name)
        ops = []
        for name in states:
            path = f"{name}.json"
            scan, contour = f"r{r}.{name}.scan.csv", f"r{r}.{name}.contour.csv"
            ops.append(
                Op(["scan", path, "--grid", str(grid), "-o", scan], "scan", scan,
                   grid * grid, "scan", path, {"grid": grid})
            )
            ops.append(
                Op(["contour", path, "--samples", str(samples), "-o", contour], "contour",
                   contour, samples, "scan", path, {"samples": samples})
            )
        rounds.append(ops)
    return Workload("transmittance_scan", rounds, inputs)


def _state_ops(r: int, stem: str, path: str, group: str, samples: int, expect=None) -> list[Op]:
    """validate, classify, attenuate, contour and robustify on one state file."""

    def op(kind, extra=(), ext="json"):
        out = f"r{r}.{stem}.{kind}.{ext}"
        return Op([kind, path, *extra, "-o", out], kind, out, 1, group, path,
                  {"expect": expect, "samples": samples})

    return [
        op("validate"),
        op("classify"),
        op("attenuate", ATTENUATE_ARGS),
        op("contour", ["--samples", str(samples)], "csv"),
        op("robustify"),
    ]


#: The strongly squeezed slice: one state in each of the first rounds.  A
#: fixed count, so the number of known-defect failures depends on the seed
#: alone and not on how many rounds a run executes.
SQUEEZED_ROUNDS = 6


def state_pipeline(seed: int, n_rounds: int, grid: int, samples: int) -> Workload:
    rng = random.Random(seed)
    names = list(FIXTURES)
    rounds = []
    for r in range(n_rounds):
        fixture = names[r % len(names)]
        ops = _state_ops(r, fixture, f"{fixture}.json", "fixture", samples, FIXTURES[fixture][1])
        groups = ["default"] * RANDOM_STATES_PER_ROUND
        if r < SQUEEZED_ROUNDS:
            groups[-1] = "squeezed"
        for j, group in enumerate(groups):
            stem = f"r{r}.state{j}"
            path = f"{stem}.json"
            extra = SQUEEZED_ARGS if group == "squeezed" else []
            ops.append(
                Op(["random", "--seed", str(rng.randrange(1 << 31)), *extra, "-o", path],
                   "random", path, 1, group, path)
            )
            ops.extend(_state_ops(r, f"state{j}", path, group, samples))
        rounds.append(ops)
    return Workload("state_pipeline", rounds, _fixture_inputs())


BUILDERS = {
    "grid_maps": grid_maps,
    "transmittance_scan": transmittance_scan,
    "state_pipeline": state_pipeline,
}

#: Seconds one round takes at the default sizes on a 2-core x86-64 host.  A
#: timed run executes a fixed number of rounds worth about ``--seconds`` of
#: work, so the same seed and seconds always run the same commands, however
#: fast the program is.
ROUND_SECONDS = {"grid_maps": 3.8, "transmittance_scan": 7.7, "state_pipeline": 5.2}
#: Rounds every timed run executes: at least 11 commands (10 samples beyond
#: the tail percentile) and, on ``state_pipeline``, the whole squeezed slice.
MIN_ROUNDS = {"grid_maps": 6, "transmittance_scan": 1, "state_pipeline": SQUEEZED_ROUNDS}
#: Rounds the traced run executes.
TRACE_ROUNDS = {"grid_maps": 1, "transmittance_scan": 1, "state_pipeline": 8}


def timed_rounds(name: str, seconds: float) -> int:
    return max(MIN_ROUNDS[name], round(seconds / ROUND_SECONDS[name]))


def build(name: str, seed: int, n_rounds: int | None = None, grid: int = 101, samples: int = 256) -> Workload:
    """The plan of ``n_rounds`` rounds (default: the workload's minimum)."""
    return BUILDERS[name](seed, n_rounds or MIN_ROUNDS[name], grid, samples)
