"""The Nelder-Mead minimizer behind ``robustify``, on lists of floats."""

import pytest

from cvrobust.simplex import nelder_mead


def quadratic(x):
    return sum((i + 1) * (xi - 0.25 * i) ** 2 for i, xi in enumerate(x))


def test_converges_on_a_quadratic():
    calls = []

    def f(x):
        calls.append(x)
        return quadratic(x)

    result = nelder_mead(f, [1.0, -1.0, 2.0], max_evals=5000, ftol=1e-15)
    assert result.converged and not result.hit_target
    assert all(type(p) is list and all(type(c) is float for c in p) for p in calls)
    assert type(result.x) is list
    assert result.x == pytest.approx([0.0, 0.25, 0.5], abs=1e-5)
    assert result.fun == quadratic(result.x)
    assert result.evaluations == len(calls)


def test_stops_at_the_first_point_below_target():
    result = nelder_mead(quadratic, [1.0, -1.0, 2.0], target=0.5)
    assert result.hit_target and not result.converged
    assert result.fun < 0.5 and result.fun == quadratic(result.x)


@pytest.mark.parametrize("max_evals", [1, 3, 4, 57])
def test_keeps_to_the_evaluation_budget(max_evals):
    result = nelder_mead(quadratic, [1.0, -1.0, 2.0], max_evals=max_evals, ftol=0.0)
    assert result.evaluations == max_evals
    assert not (result.converged or result.hit_target)
    assert result.fun == quadratic(result.x)

