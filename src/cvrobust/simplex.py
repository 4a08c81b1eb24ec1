"""Derivative-free Nelder-Mead simplex minimizer.

Small, dependency-free and deterministic; used by the robustification
search.  Points are lists of floats, and every vertex operation is the same
sequence of float operations on each coordinate.  Supports early
termination as soon as the objective drops below a target value.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["SimplexResult", "nelder_mead"]


class SimplexResult(NamedTuple):
    x: list[float]
    fun: float
    evaluations: int
    converged: bool
    hit_target: bool


def _toward(a, b, t):
    """The point ``a + t * (b - a)``, coordinate by coordinate."""
    return [x + t * (y - x) for x, y in zip(a, b)]


def nelder_mead(
    f,
    x0,
    step: float = 0.1,
    max_evals: int = 1000,
    target: float | None = None,
    ftol: float = 1e-12,
) -> SimplexResult:
    """Minimize ``f`` starting from ``x0`` with an axis-aligned initial simplex.

    ``f`` is called on lists of floats, at most ``max_evals`` times.  Stops
    when the simplex function values have collapsed to within ``ftol``, when
    ``max_evals`` is exhausted, or as soon as a vertex with ``f < target`` is
    found (when a target is given).  Ties between vertices keep their order.
    """
    x0 = [float(x) for x in x0]
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return float(f(x))

    def hit(fx):
        return target is not None and fx < target

    def best():
        k = min(range(len(values)), key=values.__getitem__)
        return SimplexResult(points[k], values[k], evals, False, False)

    # Initial simplex: x0 plus one step along each coordinate.
    points = [x0] + [[x + step if k == i else x for k, x in enumerate(x0)] for i in range(len(x0))]
    values = []
    for p in points:
        values.append(call(p))
        if hit(values[-1]):
            return SimplexResult(p, values[-1], evals, False, True)
        if evals >= max_evals:
            points = points[: len(values)]
            return best()

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    n = len(points) - 1

    while evals < max_evals:
        order = sorted(range(len(values)), key=values.__getitem__)
        points = [points[k] for k in order]
        values = [values[k] for k in order]
        if hit(values[0]):
            return SimplexResult(points[0], values[0], evals, False, True)
        if values[-1] - values[0] <= ftol * (1.0 + abs(values[0])):
            return SimplexResult(points[0], values[0], evals, True, False)

        # The mean of every vertex but the worst, summed in vertex order.
        centroid = list(points[0])
        for p in points[1:-1]:
            centroid = [c + x for c, x in zip(centroid, p)]
        centroid = [c / n for c in centroid]
        worst = points[-1]

        reflected = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        f_ref = call(reflected)
        if hit(f_ref):
            return SimplexResult(reflected, f_ref, evals, False, True)

        # Each accepted point replaces the worst vertex.
        if values[0] <= f_ref < values[-2]:
            points[-1], values[-1] = reflected, f_ref
            continue
        if f_ref < values[0]:
            if evals >= max_evals:  # no evaluation left to try the expansion
                points[-1], values[-1] = reflected, f_ref
                break
            expanded = _toward(centroid, reflected, gamma)
            f_exp = call(expanded)
            if hit(f_exp):
                return SimplexResult(expanded, f_exp, evals, False, True)
            if f_exp < f_ref:
                points[-1], values[-1] = expanded, f_exp
            else:
                points[-1], values[-1] = reflected, f_ref
            continue

        if evals >= max_evals:
            break
        contracted = _toward(centroid, worst, rho)
        f_con = call(contracted)
        if hit(f_con):
            return SimplexResult(contracted, f_con, evals, False, True)
        if f_con < values[-1]:
            points[-1], values[-1] = contracted, f_con
            continue

        # Shrink toward the best vertex.
        for i in range(1, len(points)):
            points[i] = _toward(points[0], points[i], sigma)
            values[i] = call(points[i])
            if hit(values[i]):
                return SimplexResult(points[i], values[i], evals, False, True)
            if evals >= max_evals:
                break

    return best()
