"""Derivative-free Nelder-Mead simplex minimizer.

Small, dependency-free and deterministic; used by the robustification
search.  Supports early termination as soon as the objective drops below a
target value.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["SimplexResult", "nelder_mead"]


class SimplexResult(NamedTuple):
    x: np.ndarray
    fun: float
    evaluations: int
    converged: bool
    hit_target: bool


def nelder_mead(
    f,
    x0,
    step: float = 0.1,
    max_evals: int = 1000,
    target: float | None = None,
    ftol: float = 1e-12,
) -> SimplexResult:
    """Minimize ``f`` starting from ``x0`` with an axis-aligned initial simplex.

    Stops when the simplex function values have collapsed to within ``ftol``,
    when ``max_evals`` is exhausted, or as soon as a vertex with
    ``f < target`` is found (when a target is given).
    """
    import numpy as np

    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return float(f(x))

    # Initial simplex: x0 plus one step along each coordinate.
    points = [x0.copy()]
    for i in range(n):
        p = x0.copy()
        p[i] += step
        points.append(p)
    values = []
    for p in points:
        values.append(call(p))
        if target is not None and values[-1] < target:
            return SimplexResult(p, values[-1], evals, False, True)
        if evals >= max_evals:
            k = int(np.argmin(values))
            return SimplexResult(points[k], values[k], evals, False, False)

    points = np.array(points)
    values = np.array(values)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

    def accept(x, fx):
        # Replace the worst vertex.
        order = np.argsort(values)
        points[order[-1]] = x
        values[order[-1]] = fx

    while evals < max_evals:
        order = np.argsort(values)
        points[:] = points[order]
        values[:] = values[order]
        if target is not None and values[0] < target:
            return SimplexResult(points[0].copy(), values[0], evals, False, True)
        if values[-1] - values[0] <= ftol * (1.0 + abs(values[0])):
            return SimplexResult(points[0].copy(), values[0], evals, True, False)

        centroid = points[:-1].mean(axis=0)
        worst = points[-1]

        reflected = centroid + alpha * (centroid - worst)
        f_ref = call(reflected)
        if target is not None and f_ref < target:
            return SimplexResult(reflected, f_ref, evals, False, True)

        if values[0] <= f_ref < values[-2]:
            accept(reflected, f_ref)
            continue
        if f_ref < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_exp = call(expanded)
            if target is not None and f_exp < target:
                return SimplexResult(expanded, f_exp, evals, False, True)
            if f_exp < f_ref:
                accept(expanded, f_exp)
            else:
                accept(reflected, f_ref)
            continue

        contracted = centroid + rho * (worst - centroid)
        f_con = call(contracted)
        if target is not None and f_con < target:
            return SimplexResult(contracted, f_con, evals, False, True)
        if f_con < values[-1]:
            accept(contracted, f_con)
            continue

        # Shrink toward the best vertex.
        best = points[0].copy()
        for i in range(1, len(points)):
            points[i] = best + sigma * (points[i] - best)
            values[i] = call(points[i])
            if target is not None and values[i] < target:
                return SimplexResult(points[i].copy(), values[i], evals, False, True)
            if evals >= max_evals:
                break

    k = int(np.argmin(values))
    return SimplexResult(points[k].copy(), values[k], evals, False, False)
