"""Batched witness kernel: the grid paths against the per-cell definitions."""

import itertools
import tracemalloc

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
    attenuate,
    classify,
    gamma_coefficients,
    partially_robust_asymmetric,
    ppt_witness,
    random_physical_state,
    reduced_witness,
    region_map_correlations,
    region_map_epr,
)
from cvrobust.cli import main, state_file_text
from cvrobust.robustness import _CLASSES, _code
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


@pytest.mark.parametrize("name", sorted(SCAN_STATES))
def test_scan_rows_bit_identical_to_scalar_witnesses(tmp_path, name):
    # Each row is the text of the np.linspace samples and of the public
    # scalar witnesses there: what `scan` hoists out of its loops changes
    # no bit.
    v = SCAN_STATES[name]
    path = tmp_path / "state.json"
    path.write_text(state_file_text(v, name))
    g = gamma_coefficients(v)
    for grid in (2, 7, 33):
        out = tmp_path / "scan.csv"
        assert main(["scan", str(path), "--grid", str(grid), "-o", str(out)]) == 0
        ts = np.linspace(0.0, 1.0, grid).tolist()
        expected = [
            ",".join(
                map(repr, (t1, t2, ppt_witness(attenuate(v, (t1, t2))), reduced_witness(g, (t1, t2))))
            )
            for t1 in ts
            for t2 in ts
        ]
        assert out.read_text().splitlines()[1:] == expected
