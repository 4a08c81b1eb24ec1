"""The region maps' certified screen against the kernels it stands in for.

Wherever ``robustness._screen`` decides a cell, its verdict (physicality,
class and boundary flag) must be that of the exact per-cell kernel
(``robustness._exact_verdict``); a region map must equal its all-kernel
reference.  The screen and the exact kernel evaluate the same polynomials
of ``cvrobust._exact``, in floats and in integers; the gap between the two
must stay within the screen's roundoff bounds.
"""

import math

import numpy as np
import pytest

from cvrobust import (
    ValidationError,
    epr_state,
    region_map_correlations,
    region_map_epr,
    validate_physicality,
)
from cvrobust._exact import Matrix, _corners, _laplace, _shifted, _uncertainty
from cvrobust.covariance import _physicality_tol, _scale_of, _upper
from cvrobust.families import _cell_centers, _symmetric_modes_upper
from cvrobust.robustness import _CLASSES, _EPS, _INVARIANT_ROUNDOFF, _exact_verdict, _screen
from helpers import HIGHLY_SQUEEZED, reference_region_map, symmetric_modes_matrix

UNPHYSICAL = len(_CLASSES)
GRIDS = [1, 7, 33, 101]
MAPS_PER_GRID = 75


def correlation_cells(dq, dp):
    return lambda cp, cq: _symmetric_modes_upper(dq, dp, cq * dq, cp * dp)


def epr_cells(mu_minus, mu_plus):
    return lambda x, y: _symmetric_modes_upper(*epr_state(mu_minus, mu_plus, x, y))


def correlations(dq, dp, grid):
    return region_map_correlations(dq, dp, grid), correlation_cells(dq, dp)


def epr(mu_minus, mu_plus, grid, q_plus_max=5.0, p_minus_max=5.0):
    region = region_map_epr(mu_minus, mu_plus, grid, q_plus_max, p_minus_max)
    return region, epr_cells(mu_minus, mu_plus)


def assert_map_matches_kernels(region, cell):
    labels, boundary = reference_region_map(region.x, region.y, cell)
    assert np.array_equal(region.labels, labels)
    assert np.array_equal(region.boundary, boundary)


def random_map_specs(grid):
    rng = np.random.default_rng(grid)
    specs = []
    for _ in range(MAPS_PER_GRID):
        if rng.random() < 0.5:
            specs.append((correlations, *np.exp(rng.uniform(0.0, 4.0, 2)).tolist(), grid))
        else:
            mu_minus, mu_plus = rng.uniform(0.01, 1.0, 2).tolist()
            specs.append((epr, mu_minus, mu_plus, grid, *rng.uniform(0.5, 20.0, 2).tolist()))
    return specs


@pytest.mark.parametrize("grid", GRIDS)
def test_screened_maps_equal_all_kernel_path(grid):
    for kind, *args in random_map_specs(grid):
        assert_map_matches_kernels(*kind(*args))


EDGE_MAPS = {
    "vacuum-variances": (correlations, 1.0, 1.0),
    "dq-1e6": (correlations, 1e6, 1.0),
    "dp-1e6": (correlations, 1.0, 1e6),
    "both-1e6": (correlations, 1e6, 1e6),
    "pure": (epr, 1.0, 1.0),
    "mu-plus-1": (epr, 0.3, 1.0),
    "mu-minus-1": (epr, 1.0, 0.3),
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", sorted(EDGE_MAPS))
def test_edge_maps_equal_all_kernel_path(name, grid):
    kind, a, b = EDGE_MAPS[name]
    assert_map_matches_kernels(*kind(a, b, grid))


def random_stack(rng, n, nu_min, nu_max, squeeze_max):
    """``n`` states ``S^T diag(nu1, nu1, nu2, nu2) S`` as ``random_physical_state`` builds them."""

    def rotation(a):
        c, s = np.cos(a), np.sin(a)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)

    def squeeze(r):
        out = np.zeros((n, 2, 2))
        out[:, 0, 0], out[:, 1, 1] = np.exp(r), np.exp(-r)
        return out

    nu = rng.uniform(nu_min, nu_max, (2, n))
    theta1, phi1, theta2, phi2, mix = rng.uniform(-math.pi, math.pi, (5, n))
    r1, r2 = rng.uniform(-squeeze_max, squeeze_max, (2, n))
    local = np.zeros((n, 4, 4))
    local[:, :2, :2] = rotation(theta1) @ squeeze(r1) @ rotation(phi1)
    local[:, 2:, 2:] = rotation(theta2) @ squeeze(r2) @ rotation(phi2)
    mixer = np.zeros((n, 4, 4))
    c, s = np.cos(mix), np.sin(mix)
    for k in range(4):
        mixer[:, k, k] = c
    for k in range(2):
        mixer[:, k, k + 2], mixer[:, k + 2, k] = s, -s
    sym = local @ mixer
    diag = np.zeros((n, 4, 4))
    for k in range(4):
        diag[:, k, k] = nu[k // 2]
    v = np.swapaxes(sym, -1, -2) @ diag @ sym
    return 0.5 * (v + np.swapaxes(v, -1, -2))  # symmetrized as CovMatrix does


def state_groups():
    """108 000 states: the default range, then pure and mixed at squeeze 1 to 13, plain and scaled."""
    rng = np.random.default_rng(2004)
    yield "default", random_stack(rng, 4000, 1.0, 2.5, 1.0)
    for squeeze_max in range(1, 14):
        for kind, nu_max in (("pure", 1.0), ("mixed", 2.5)):
            m = random_stack(rng, 2000, 1.0, nu_max, float(squeeze_max))
            yield f"{kind}-{squeeze_max}", m
            yield f"{kind}-{squeeze_max}-scaled", m * rng.uniform(0.5, 1.2, (len(m), 1, 1))


def uppers(m):
    """The ten upper-triangle floats of each matrix of a stack ``(N, 4, 4)``."""
    return [_upper(rows) for rows in m.tolist()]


def screen(upper):
    return _screen(upper, _scale_of(upper))


def test_screen_decisions_equal_kernels_on_random_states():
    total = 0
    for name, m in state_groups():
        decided = 0
        for upper in uppers(m):
            verdict = screen(upper)
            if verdict is not None:
                assert verdict == _exact_verdict(upper, _scale_of(upper)), name
                decided += 1
        if name.startswith("pure") and not name.endswith("scaled"):
            assert decided == 0, name
        if name in ("default", "mixed-1", "mixed-2", "mixed-3"):
            assert decided > 0.99 * len(m), name
        total += len(m)
    assert total >= 100_000


def screen_one(m):
    return screen(_upper(np.asarray(m, dtype=float).tolist())) is not None


@pytest.mark.parametrize(
    "m, physical, boundary",
    [
        (np.diag([1e7, 5e-8, 1.0, 1.0]), True, True),
        (np.eye(4), True, True),
        (HIGHLY_SQUEEZED.matrix, True, True),
        (symmetric_modes_matrix(math.cosh(6.0), math.cosh(6.0), math.sinh(6.0),
                                -math.sinh(6.0)), True, True),
    ],
    ids=["boundary-diag", "vacuum", "pure-squeezed", "pure-two-mode-r3"],
)
def test_pinned_states_fall_back_to_kernels(m, physical, boundary):
    assert not screen_one(m)
    d = validate_physicality(m)
    assert (d.physical, d.boundary) == (physical, boundary)


def test_screen_decides_a_matrix_that_is_not_positive_as_unphysical():
    m = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert screen(_upper(m.tolist())) == (UNPHYSICAL, False)
    assert not validate_physicality(m).physical


def outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


def test_screen_leaves_scales_near_overflow_to_the_kernels():
    assert not screen_one(np.diag([1e76] * 4))


@pytest.mark.parametrize("variance", [1e70, 1e75, 1e76, 10**76.5, 1e77, 1e78, 1e80])
def test_overflow_still_raises_from_the_kernel(variance):
    centers = _cell_centers(-1.0, 1.0, 5)
    region = outcome(lambda: region_map_correlations(variance, variance, 5))
    reference = outcome(
        lambda: reference_region_map(centers, centers, correlation_cells(variance, variance))
    )
    if isinstance(reference, str):
        assert region == reference
        assert "not finite" in reference
    else:
        assert np.array_equal(region.labels, reference[0])
        assert np.array_equal(region.boundary, reference[1])


#: The benchmark's two maps at grid 101: cell entries and axis range.
BENCHMARK_MAPS = {
    "correlations": (correlation_cells(2.55, 1.80), -1.0, 1.0),
    "epr": (epr_cells(0.7267, 0.4529), 0.0, 5.0),
}


def benchmark_map_cells(name):
    """The ten upper-triangle floats of every cell of one of the benchmark's maps."""
    cell, lo, hi = BENCHMARK_MAPS[name]
    centers = _cell_centers(lo, hi, 101)
    return [cell(x, y) for x in centers for y in centers]


@pytest.mark.parametrize("name", sorted(BENCHMARK_MAPS))
def test_benchmark_maps_fall_back_on_few_cells(name):
    assert all(screen(upper) is not None for upper in benchmark_map_cells(name))


#: Degrees of ``det a1``, ``t02``, ``t12``, ``det c``, ``det a2`` and ``det V``.
LAPLACE_DEGREES = (2, 2, 2, 2, 2, 4)


def roundoff(value, exact, unit):
    """``|value - exact| / unit`` for a float ``value`` and an exact ``(num, den)``."""
    n, d = value.as_integer_ratio()
    num, den = exact
    return abs(n * den - num * d) / (d * den) / unit


def exact_invariants(x, tol):
    """``e1 .. e4`` of ``V + tol*I + i*Omega`` as ``(numerator, denominator)`` pairs."""
    e = _uncertainty(x.one, x.entries, x.det_a1, x.det_a2, x.det_c, x.det_v)
    num, den = tol.as_integer_ratio()
    # Over the common denominator D*den of the entries and the tolerance.
    lifted = [ek * den**k for k, ek in enumerate(e, 1)]
    return [(n, (x.one * den) ** k) for k, n in enumerate(_shifted(lifted, num * x.one), 1)]


def worst_roundoff(cells):
    """Largest float-minus-exact error of the determinants, of ``e1 .. e4`` and of the corners.

    The polynomials of ``cvrobust._exact`` are evaluated on each cell's ten
    floats as the screen evaluates them, and on its integers as the exact
    kernel does; ``e1 .. e4`` are those of ``V + i*Omega`` shifted by the
    physicality tolerance ``+tol``.  The errors are in units of ``scale**k``
    for a polynomial of degree ``k`` and of ``scale**4`` for the corners.
    """
    degrees = (LAPLACE_DEGREES, (1, 2, 3, 4), (4, 4, 4, 4))
    worst = [0.0, 0.0, 0.0]
    for upper in cells:
        scale = _scale_of(upper)
        tol = _physicality_tol(scale)
        dets = _laplace(*upper)
        det_a1, _, _, det_c, det_a2, det_v = dets
        args = (det_a1, det_a2, det_c, det_v)
        floats = (dets, _shifted(_uncertainty(1, upper, *args), tol), _corners(1, upper, *args))
        x = Matrix(upper)
        exact = (
            [(n, x.one**d) for n, d in zip(_laplace(*x.entries), LAPLACE_DEGREES)],
            exact_invariants(x, tol),
            x.corners(),
        )
        for i in range(3):
            for value, pair, degree in zip(floats[i], exact[i], degrees[i]):
                worst[i] = max(worst[i], roundoff(value, pair, scale**degree))
    return worst


def test_float_polynomials_within_screen_roundoff_bounds():
    cells = [uppers(m[:300]) for _, m in state_groups()]
    cells += [benchmark_map_cells(name) for name in BENCHMARK_MAPS]
    for group in cells:
        assert max(worst_roundoff(group)) <= _INVARIANT_ROUNDOFF


class AbsChain:
    """A float chain of sums and products, evaluated on absolute values with every sign ``+``.

    ``roundings`` bounds the roundings that any one term of the expanded
    result passes through: a sum adds one to the larger count of its
    operands, a product one to their total.  Products with 1 and 2 are
    exact.
    """

    def __init__(self, value, roundings=0):
        self.value, self.roundings = value, roundings

    def __add__(self, other):
        other = other if isinstance(other, AbsChain) else AbsChain(abs(other))
        return AbsChain(self.value + other.value, max(self.roundings, other.roundings) + 1)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        if isinstance(other, int) and other in (1, 2):
            return AbsChain(self.value * other, self.roundings)
        other = other if isinstance(other, AbsChain) else AbsChain(abs(other))
        return AbsChain(self.value * other.value, self.roundings + other.roundings + 1)

    __rmul__ = __mul__


def test_a_priori_roundoff_within_screen_bound():
    """Each float chain of the screen errs by at most ``gamma_d`` times its absolute chain.

    A term of degree ``j`` grows like ``_scale**j <= _scale**k`` for a
    chain of degree ``k`` (the corners count as 4), and the tolerance is at
    most ``1e-9*_scale``, so the bound at entries of magnitude 1 holds per
    unit of ``_scale**k`` (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1).
    """
    upper = [AbsChain(1.0) for _ in range(10)]
    det_a1, _, _, det_c, det_a2, det_v = _laplace(*upper)
    args = (det_a1, det_a2, det_c, det_v)
    invariants = _shifted(_uncertainty(1, upper, *args), AbsChain(1e-9))
    for chain in (det_v, *invariants, *_corners(1, upper, *args)):
        u = chain.roundings * _EPS / 2
        assert u / (1 - u) * chain.value <= _INVARIANT_ROUNDOFF
