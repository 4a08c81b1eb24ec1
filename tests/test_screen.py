"""The region maps' closed form against the general exact kernel.

Every map cell is a ``SymmetricModes`` matrix, and the row kernel
``_maps._map_row`` decides it exactly from its four EPR variances,
integers over one denominator per map.  Its verdict (physicality, class and
boundary flag) must be that of the general 4x4 kernel, ``_exact.Matrix``
(``helpers.exact_verdict``), on every cell, and a region map must equal its
all-kernel reference.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cvrobust import (
    ValidationError,
    epr_state,
    region_map_correlations,
    region_map_epr,
    validate_physicality,
)
from cvrobust import _maps
from cvrobust._exact import (
    _OVERFLOW,
    PHYSICALITY_TOL,
    Matrix,
    _band_bounds,
    _finite,
    _integers,
    _physicality_tol,
    _scale_of,
    ratio,
)
from cvrobust._maps import _cell_centers, _map_row
from cvrobust.families import _epr_moments
from cvrobust.robustness import _CLASSES
from helpers import (
    HIGHLY_SQUEEZED,
    exact_verdict,
    reference_region_map,
    symmetric_modes_matrix,
    symmetric_modes_upper,
)

UNPHYSICAL = len(_CLASSES)
GRIDS = [1, 7, 33, 101]
MAPS_PER_GRID = 75


def correlation_cells(dq, dp):
    return lambda cp, cq: symmetric_modes_upper(dq, dp, cq * dq, cp * dp)


def epr_cells(mu_minus, mu_plus):
    return lambda x, y: symmetric_modes_upper(*epr_state(mu_minus, mu_plus, x, y))


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
    # Variances up to 1e7, where the tolerance leaves its 1e-9 floor (up to
    # 3.5e-8), and axes in different binades: one denominator per map.
    "pure-1e7": (epr, 1.0, 1.0, 1e7, 1e7),
    "mixed-1e7": (epr, 0.7267, 0.4529, 1e7, 1e7),
    "pure-binades": (epr, 1.0, 1.0, 1e-3, 1e3),
    "mixed-binades": (epr, 0.5, 0.8, 1e3, 1e-3),
    # Moments up to 1e200: past about 1.34e159 the zero band is infinite, so
    # every physical cell is flagged.
    "huge-scale": (epr, 0.5, 0.5, 1e200, 5.0),
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", sorted(EDGE_MAPS))
def test_edge_maps_equal_all_kernel_path(name, grid):
    kind, a, b, *extent = EDGE_MAPS[name]
    assert_map_matches_kernels(*kind(a, b, grid, *extent))


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
    d = validate_physicality(m)
    assert (d.physical, d.boundary) == (physical, boundary)


def kernel_verdict(dq, dp, c_q, c_p):
    """``_maps._map_row`` on the one ``SymmetricModes`` cell ``(dq, dp, c_q, c_p)``.

    ``PHYSICALITY_TOL`` joins the entries' common denominator, so it is at
    least ``2^82``, as the kernel needs.
    """
    scale = _scale_of((dq, dp, c_q, c_p))
    (dq, dp, c_q, c_p, _), one = _integers((dq, dp, c_q, c_p, PHYSICALITY_TOL))
    return _map_row(one, [dq + c_q], [dq - c_q], [dp + c_p], [dp - c_p], [scale])[0]


@pytest.mark.parametrize("d", [8, 2**20], ids=["floor", "above-floor"])
@pytest.mark.parametrize("pair", ["plus", "minus"])
def test_row_kernel_is_physical_at_the_product_tie(pair, d):
    # A cell with dq = dp = d, so scale d, whose (q_+, p_+) or (q_-, p_-)
    # pair has (q + tol)(p + tol) = one^2 exactly: on the uncertainty bound
    # after the shift, so physical.  One unit less on q, it is not.
    one = 1 << 82
    scale = float(d)
    tol = Fraction(_physicality_tol(scale)) * one
    assert tol.denominator == 1
    q, p = (1 << 80) - int(tol), (1 << 84) - int(tol)
    for less, physical in ((0, True), (1, False)):
        tie = [q - less], [p]
        other = [2 * d * one - q + less], [2 * d * one - p]  # far from the bound
        if pair == "plus":
            q_plus, p_plus, q_minus, p_minus = *tie, *other
        else:
            q_minus, p_minus, q_plus, p_plus = *tie, *other
        code, _ = _map_row(one, q_plus, q_minus, p_plus, p_minus, [scale])[0]
        assert (code != UNPHYSICAL) == physical, (pair, d, less)


def test_row_kernel_takes_a_corner_at_its_top_bound_into_the_band():
    # The fast path decides on signs the cells whose three |corner| exceed
    # the row's top bounds; a corner equal to its bound must reach the band
    # test and be flagged.  Planted cells of unit 1: each has one corner at
    # its bound and the other two far outside theirs, and one unit more of
    # p_minus moves that corner just past the bound.
    one = 1 << 82
    one2 = one * one
    dens = (one2 * one2, one2, 2 * one * one2, 2 * one * one2)
    b_ppt, b_full, b_ch, _ = _band_bounds(1.0, dens)
    # w_ch = p_minus * k1 + k0 over 2 one^3 at fixed q_plus, p_plus, q_minus.
    q_plus, p_plus, q_minus = 7 * one // 2, one // 2, 51 * one // 32
    k1 = (p_plus * q_minus - one2) + q_plus * (p_plus + q_minus - 2 * one)
    k0 = (q_plus - 2 * one) * (p_plus * q_minus - one2) - one2 * (p_plus + q_minus - 2 * one)
    p_minus, rest = divmod(b_ch - k0, k1)
    assert rest == 0
    cells = {
        # (q_plus, p_plus, q_minus, p_minus): verdicts at the bound and past it.
        # w_ppt = (p_minus q_plus - one^2)(p_plus q_minus - one^2) = b_ppt * 1.
        "w_ppt": ((1, one2 + 1, 1, one2 + b_ppt), (0, True), (0, False)),
        # w_full = (p_minus + q_plus - 2 one)(p_plus + q_minus - 2 one) = b_full * 1.
        "w_full": ((2 * one, one // 2, 3 * one // 2 + 1, b_full), (5, True), (4, False)),
        "w_ch": ((q_plus, p_plus, q_minus, p_minus), (4, True), (1, False)),
    }
    for name, ((qp, pp, qm, pm), at_bound, past) in cells.items():
        for extra, expected in ((0, at_bound), (1, past)):
            row = _map_row(one, [qp], [qm], [pp], [pm + extra], [1.0])
            assert row == [expected], (name, extra)


def test_screen_decides_a_matrix_that_is_not_positive_as_unphysical():
    assert not validate_physicality(np.diag([-1.0, 1.0, 1.0, 1.0])).physical
    assert kernel_verdict(-1.0, 1.0, 0.0, 0.0) == (UNPHYSICAL, False)


def outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


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


def epr_cell(q_plus, p_plus, q_minus, p_minus):
    """The rounded ``(dq, dp, c_q, c_p)`` of the cell with these EPR variances."""
    return _epr_moments(q_plus, p_plus, p_minus, q_minus)


def random_cells(rng, n, nu_max, r_max):
    """Cells whose two one-mode blocks have symplectic eigenvalue ``nu`` and squeezing ``r``.

    The blocks ``diag(nu e^(2r), nu e^(-2r))`` are pure at ``nu = 1``
    (``q*p = 1`` before rounding).
    """
    nu = rng.uniform(1.0, nu_max, (n, 2))
    r = rng.uniform(-r_max, r_max, (n, 2))
    return [
        epr_cell(a * math.exp(2 * s), a * math.exp(-2 * s), b * math.exp(2 * t), b * math.exp(-2 * t))
        for (a, b), (s, t) in zip(nu.tolist(), r.tolist())
    ]


def verdict_cells():
    """Pure, mixed, strongly squeezed, scaled, boundary and overflowing cells."""
    rng = np.random.default_rng(2004)
    cells = []
    for r_max in (0.5, 1.0, 2.0, 4.0, 8.0, 13.0):
        for nu_max in (1.0, 1.5, 3.0):
            group = random_cells(rng, 400, nu_max, r_max)
            cells += group
            # Scaled about the physicality boundary.
            cells += [
                tuple(f * x for x in cell)
                for cell, f in zip(group, rng.uniform(0.5, 1.2, len(group)).tolist())
            ]
        # Pure cells moved by up to two tolerances: V + d*I moves lambda_min by d.
        for (dq, dp, c_q, c_p), t in zip(
            random_cells(rng, 400, 1.0, r_max), rng.uniform(-2.0, 2.0, 400).tolist()
        ):
            d = t * _physicality_tol(_scale_of((dq, dp, c_q, c_p)))
            cells.append((dq + d, dp + d, c_q, c_p))
    # Near float overflow of the quartic corners.
    for cell, e in zip(random_cells(rng, 400, 3.0, 1.0), rng.uniform(75.0, 78.0, 400).tolist()):
        cells.append(tuple(10.0**e * x for x in cell))
    return cells


def test_closed_form_verdict_equals_matrix_oracle_on_random_cells():
    seen = set()
    for cell in verdict_cells():
        verdict = outcome(lambda: kernel_verdict(*cell))
        assert verdict == outcome(lambda: exact_verdict(symmetric_modes_upper(*cell))), cell
        seen.add(verdict)
    codes = {v[0] for v in seen if isinstance(v, tuple)}
    # Symmetric modes have w_ch1 = w_ch2, so no asymmetric class occurs.
    assert codes == {0, 1, 4, 5, UNPHYSICAL}
    assert any(isinstance(v, tuple) and v[1] for v in seen)
    assert any(isinstance(v, str) and "not finite" in v for v in seen)


def test_corners_equal_epr_closed_forms_exactly():
    rng = np.random.default_rng(21)
    cells = random_cells(rng, 500, 1.0, 6.0) + random_cells(rng, 500, 3.0, 2.0)
    for dq, dp, c_q, c_p in cells:
        q_plus, q_minus = Fraction(dq) + Fraction(c_q), Fraction(dq) - Fraction(c_q)
        p_plus, p_minus = Fraction(dp) + Fraction(c_p), Fraction(dp) - Fraction(c_p)
        w_prod, w_prod_bar = p_minus * q_plus - 1, p_plus * q_minus - 1
        w_sum, w_sum_bar = p_minus + q_plus - 2, p_plus + q_minus - 2
        w_ch = (w_sum * w_prod_bar + w_prod * w_sum_bar) / 2
        corners = Matrix(symmetric_modes_upper(dq, dp, c_q, c_p)).corners()
        assert [Fraction(n, d) for n, d in corners] == [
            w_prod * w_prod_bar, w_sum * w_sum_bar, w_ch, w_ch
        ]


@pytest.mark.parametrize("bits", [82, 83, 120, 1100])
def test_overflow_limits_equal_ratio(bits):
    # The kernel raises where |w| >= _OVERFLOW * den for a corner w over den:
    # exactly where ratio(w, den) overflows and _finite raises.
    one = 1 << bits
    one2 = one * one
    expected = outcome(lambda: _finite([math.inf]))
    assert "not finite" in expected
    for den in (one2 * one2, one2, 2 * one * one2):
        limit = _OVERFLOW * den
        for sign in (1, -1):
            assert math.isfinite(ratio(sign * (limit - 1), den))
            for num in (limit, limit + 1):
                assert ratio(sign * num, den) == sign * math.inf
                assert outcome(lambda: _finite([ratio(sign * num, den)])) == expected


def test_epr_map_integers_are_the_rounded_moments(monkeypatch):
    # Each cell's kernel integers over the map's one denominator equal the
    # EPR variances of epr_state's rounded moments, and its scale (so its
    # tolerance) is that of the moments.
    rows = []
    kernel = _maps._map_row

    def record(one, *cells):
        cells = [list(values) for values in cells]
        rows.append((one, cells))
        return kernel(one, *cells)

    monkeypatch.setattr(_maps, "_map_row", record)
    rng = np.random.default_rng(22)
    off_floor = 0
    for _ in range(12):
        mu_minus, mu_plus = rng.uniform(0.01, 1.0, 2).tolist()
        q_plus_max, p_minus_max = (10.0 ** rng.uniform(-3.0, 7.0, 2)).tolist()
        rows.clear()
        region = region_map_epr(mu_minus, mu_plus, 9, q_plus_max, p_minus_max)
        assert len(rows) == 9
        for x, (one, (q_plus, q_minus, p_plus, p_minus, scales)) in zip(region.x.tolist(), rows):
            for j, y in enumerate(region.y.tolist()):
                dq, dp, c_q, c_p = map(Fraction, epr_state(mu_minus, mu_plus, x, y))
                assert Fraction(q_plus[j], one) == dq + c_q
                assert Fraction(q_minus[j], one) == dq - c_q
                assert Fraction(p_plus[j], one) == dp + c_p
                assert Fraction(p_minus[j], one) == dp - c_p
                scale = _scale_of(epr_state(mu_minus, mu_plus, x, y))
                assert scales[j] == scale
                assert (Fraction(_physicality_tol(scale)) * one).denominator == 1
                off_floor += _physicality_tol(scale) > PHYSICALITY_TOL
    assert off_floor > 0
