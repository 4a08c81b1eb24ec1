"""Batched witness kernel: the grid paths against the per-cell definitions."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cvrobust import (
    FRAGILE,
    FULLY_ROBUST,
    PARTIALLY_ROBUST_SYMMETRIC,
    SEPARABLE,
    CovMatrix,
    RandomStateParams,
    ValidationError,
    classify,
    partially_robust_asymmetric,
    random_physical_state,
    region_map_correlations,
    region_map_epr,
)
from cvrobust.cli import main, state_file_text
from cvrobust._exact import _code
from cvrobust.robustness import _CLASSES
from helpers import (
    CM_A,
    CM_B,
    CM_C,
    CM_D,
    CM_E,
    correlations_cell,
    epr_cell,
    kernel_physicality,
    random_states,
    reference_physicality,
    reference_region_labels,
)

DQ, DP = 2.55, 1.80
MU_MINUS, MU_PLUS = 0.7267, 0.4529

GRIDS = [1, 7, 33]


@pytest.mark.parametrize("grid", GRIDS)
def test_correlation_map_matches_per_cell_loop(grid):
    region = region_map_correlations(DQ, DP, grid)
    labels, boundary = reference_region_labels(region.x, region.y, correlations_cell(DQ, DP))
    assert region.labels.dtype == object
    assert np.array_equal(region.labels, labels)
    assert np.array_equal(region.boundary, boundary)


@pytest.mark.parametrize("grid", GRIDS)
def test_epr_map_matches_per_cell_loop(grid):
    region = region_map_epr(MU_MINUS, MU_PLUS, grid)
    labels, boundary = reference_region_labels(region.x, region.y, epr_cell(MU_MINUS, MU_PLUS))
    assert np.array_equal(region.labels, labels)
    assert np.array_equal(region.boundary, boundary)


@pytest.mark.parametrize("grid", GRIDS)
def test_physicality_kernel_matches_two_eigenvalue_verdict_on_maps(grid):
    for region, cell in (
        (region_map_correlations(DQ, DP, grid), correlations_cell(DQ, DP)),
        (region_map_epr(MU_MINUS, MU_PLUS, grid), epr_cell(MU_MINUS, MU_PLUS)),
    ):
        m = np.array([[cell(x, y) for y in region.y] for x in region.x])
        physical, boundary = kernel_physicality(m)
        ref_physical, ref_boundary = reference_physicality(m)
        assert np.array_equal(physical, ref_physical)
        assert np.array_equal(boundary, ref_boundary)


def test_physicality_kernel_matches_two_eigenvalue_verdict_on_states():
    fixtures = [CM_A, CM_B, CM_C, CM_D, CM_E]
    m = np.array([v.matrix for v in fixtures + random_states(300)])
    physical, boundary = kernel_physicality(m)
    ref_physical, ref_boundary = reference_physicality(m)
    assert np.array_equal(physical, ref_physical)
    assert np.array_equal(boundary, ref_boundary)


def test_pure_state_map_flags_only_corner_witnesses():
    # Every cell is pure, so it sits on the physicality boundary; a physical
    # cell is still flagged only for corner witnesses in the zero band.
    region = region_map_epr(1.0, 1.0, 9, q_plus_max=3.0, p_minus_max=3.0)
    labels, boundary = reference_region_labels(region.x, region.y, epr_cell(1.0, 1.0))
    assert np.array_equal(region.labels, labels)
    assert np.array_equal(region.boundary, boundary)
    assert boundary.any() and not boundary.all()


def reference_class(w_ppt, w_full, w_ch1, w_ch2, band):
    """The scalar decision chain of ``classify``."""
    if not w_ppt < 0.0:
        return SEPARABLE
    r1, r2, rf = w_ch1 <= band, w_ch2 <= band, w_full <= band
    if rf and r1 and r2:
        return FULLY_ROBUST
    if r1 and r2:
        return PARTIALLY_ROBUST_SYMMETRIC
    if r1 or r2:
        return partially_robust_asymmetric(1 if r1 else 2)
    return FRAGILE


def test_corner_class_matches_decision_chain_on_every_sign_pattern():
    # +-0.25 lie inside the band 0.5, +-1 outside.
    values = [-1.0, -0.25, 0.25, 1.0]
    for corners in itertools.product(values, repeat=4):
        w_ppt, w_full, w_ch1, w_ch2 = corners
        code = _code(w_ppt < 0.0, w_ch1 <= 0.5, w_ch2 <= 0.5, w_full <= 0.5)
        assert _CLASSES[code] == reference_class(*corners, 0.5), corners


def test_map_memory_does_not_scale_with_chunked_cells():
    # 90 601 cells, decided one row at a time from integers over one
    # denominator per map: measured peak ~0.91 MB, of which ~0.8 MB is the
    # returned labels and flags.
    tracemalloc.start()
    try:
        region_map_correlations(DQ, DP, 301)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_non_finite_witness_rejected_by_classify():
    big = CovMatrix(np.diag([1e100, 1e100, 1e100, 1e100]))
    with pytest.raises(ValidationError, match="not finite"):
        classify(big)


SCAN_STATES = {
    "CM_A": CM_A,
    "CM_B": CM_B,
    "CM_C": CM_C,
    "CM_D": CM_D,
    "CM_E": CM_E,
    **{f"random{s}": random_physical_state(s) for s in (0, 3, 11)},
    **{f"squeeze3-{s}": random_physical_state(s, RandomStateParams(1.0, 2.5, 3.0)) for s in range(4)},
    "squeezed": random_physical_state(2, RandomStateParams(1.0, 1.0, 4.0)),
    **{f"pure9-{s}": random_physical_state(s, RandomStateParams(1.0, 1.0, 9.0)) for s in range(3)},
}


def scan_rows(tmp_path, v, grid):
    """The rows of ``scan --grid grid`` on ``v``, as lists of their four fields."""
    path = tmp_path / "state.json"
    path.write_text(state_file_text(v, "state"))
    out = tmp_path / "scan.csv"
    assert main(["scan", str(path), "--grid", str(grid), "-o", str(out)]) == 0
    return [line.split(",") for line in out.read_text().splitlines()[1:]]


@pytest.mark.parametrize("name", sorted(SCAN_STATES))
def test_scan_rows_bit_identical_to_scalar_witnesses(tmp_path, name):
    # Each row is the text of the np.linspace samples and of the exact
    # t1 t2 W_R and W_R there, each rounded once; W_R is the bilinear
    # interpolation of the exact corners, evaluated in Fractions.
    v = SCAN_STATES[name]
    ppt, full, ch1, ch2 = (Fraction(n, d) for n, d in v._exact().corners())
    for grid in (2, 7, 33):
        ts = np.linspace(0.0, 1.0, grid).tolist()
        expected = []
        for t1 in ts:
            for t2 in ts:
                x, y = Fraction(t1), Fraction(t2)
                w = (1 - x) * ((1 - y) * full + y * ch1) + x * ((1 - y) * ch2 + y * ppt)
                expected.append([repr(t1), repr(t2), repr(float(x * y * w)), repr(float(w))])
        assert scan_rows(tmp_path, v, grid) == expected


@pytest.mark.parametrize("name", sorted(SCAN_STATES))
def test_scan_corner_rows_carry_classify_corners(tmp_path, name):
    # One kernel: scan's corners are classify's corner witnesses, bit for bit.
    report = classify(SCAN_STATES[name])
    w_reduced = {(t1, t2): w for t1, t2, _, w in scan_rows(tmp_path, SCAN_STATES[name], 5)}
    assert w_reduced["0.0", "0.0"] == repr(report.w_full)
    assert w_reduced["0.0", "1.0"] == repr(report.w_ch1)
    assert w_reduced["1.0", "0.0"] == repr(report.w_ch2)
    assert w_reduced["1.0", "1.0"] == repr(report.w_ppt)


@pytest.mark.parametrize("name", sorted(SCAN_STATES))
def test_contour_points_lie_between_scan_sign_changes(tmp_path, name):
    # contour --samples n samples the t1 rows of scan --grid n + 1 but the
    # first; each root lies between two columns of its row where W_R
    # changes sign or vanishes.
    v, n = SCAN_STATES[name], 16
    rows = {}
    for t1, t2, _, w in scan_rows(tmp_path, v, n + 1):
        rows.setdefault(float(t1), []).append((float(t2), float(w)))
    path = tmp_path / "state.json"  # written by scan_rows
    out = tmp_path / "contour.csv"
    assert main(["contour", str(path), "--samples", str(n), "-o", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        t1, t2 = map(float, line.split(","))
        row = rows[t1]
        assert any(
            lo <= t2 <= hi and min(w_lo, w_hi) <= 0.0 <= max(w_lo, w_hi)
            for (lo, w_lo), (hi, w_hi) in zip(row, row[1:])
        ), (t1, t2)
