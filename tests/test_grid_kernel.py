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
    GammaSet,
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
from cvrobust.families import GRID_CHUNK
from cvrobust.robustness import _CLASSES, _corner_class
from cvrobust.witnesses import _gamma_set
from helpers import (
    CM_A,
    CM_B,
    CM_C,
    CM_D,
    CM_E,
    correlations_cell,
    epr_cell,
    random_states,
    reference_region_labels,
)

DQ, DP = 2.55, 1.80
MU_MINUS, MU_PLUS = 0.7267, 0.4529

# 33 x 33 = 1089 cells straddles one chunk boundary.
GRIDS = [1, 7, 33]


def test_chunk_straddled_by_largest_grid():
    assert GRIDS[-1] ** 2 > GRID_CHUNK


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
    # +-0.25 lie inside the band 0.5, +-1 outside; the sums stay exact.
    values = [-1.0, -0.25, 0.25, 1.0]
    corners = np.array(list(itertools.product(values, repeat=4)))
    w_ppt, w_full, w_ch1, w_ch2 = corners.T
    unused = ["lambda1", "lambda2", "lambda_c", "lambda4", "eta"]
    unused += ["sigma1", "sigma2", "impurity1", "impurity2"]
    g = GammaSet(
        gamma11=w_full,
        gamma12=w_ch1 - w_full,
        gamma21=w_ch2 - w_full,
        gamma22=w_ppt - w_ch1 - w_ch2 + w_full,
        **dict.fromkeys(unused, np.zeros(len(corners))),
    )
    band = np.full(len(corners), 0.5)
    codes, flags = _corner_class(g, band)
    for k, row in enumerate(corners):
        assert _CLASSES[codes[k]] == reference_class(*row, 0.5), row
        assert [f[k] for f in flags] == [abs(w) <= 0.5 for w in row]


def test_map_memory_does_not_scale_with_chunked_cells():
    # 90 601 cells: one complex (N, 4, 4) temporary alone would take ~23 MB and
    # the real stack ~11.6 MB; measured peak ~1.7 MB, of which ~0.8 MB is the
    # returned labels and flags.
    tracemalloc.start()
    try:
        region_map_correlations(DQ, DP, 301)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_batched_gamma_set_is_bit_identical_to_scalar():
    states = (
        [CovMatrix.vacuum(), CovMatrix(np.diag([2.0, 3.0, 1.5, 1.0])), CM_A, CM_E]
        + random_states(200)
        + random_states(50, params=RandomStateParams(1.0, 1.0, 6.0))
    )
    stack = np.array([v.matrix for v in states])
    batched = vars(_gamma_set(stack))
    for k, v in enumerate(states):
        for name, value in vars(gamma_coefficients(v)).items():
            # repr also tells the zero signs apart, as the CLI output does
            assert repr(float(batched[name][k])) == repr(value), (k, name)


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
    "squeezed": random_physical_state(2, RandomStateParams(1.0, 1.0, 4.0)),
}


@pytest.mark.parametrize("name", sorted(SCAN_STATES))
def test_scan_rows_bit_identical_to_scalar_witnesses(tmp_path, name):
    v = SCAN_STATES[name]
    path = tmp_path / "state.json"
    path.write_text(state_file_text(v, name))
    out = tmp_path / "scan.csv"
    assert main(["scan", str(path), "--grid", "33", "-o", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 33 * 33
    g = gamma_coefficients(v)
    for row in rows:
        t1, t2, w_att, w_red = map(float, row.split(","))
        assert w_att == ppt_witness(attenuate(v, (t1, t2)))
        assert w_red == reduced_witness(g, (t1, t2))
