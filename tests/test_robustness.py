"""Robustness witnesses, classification, ESD boundary and robustification."""

import numpy as np
import pytest

from cvrobust import (
    FULLY_ROBUST,
    SEPARABLE,
    CovMatrix,
    RandomStateParams,
    SeparableInputError,
    ValidationError,
    attenuate,
    boundary_band,
    channel_robustness_witness,
    classify,
    critical_transmittance,
    esd_contour,
    full_robustness_witness,
    gamma_coefficients,
    ppt_witness,
    reduced_witness,
    robustify,
    symplectic_spectrum,
)
from helpers import (
    CM_A,
    CM_B,
    CM_C,
    CM_D,
    CM_E,
    HIGHLY_SQUEEZED,
    OVERFLOW_LADDER,
    SQUEEZED_MODE,
    eq19_matrix,
    exact_esd_contour,
    exact_reference_witnesses,
    oracle_attenuated_ppt_grid,
    pure_two_mode_squeezed,
    random_entangled_states,
    random_states,
    reference_esd_contour,
)


def eq19_edge(name: str, lo: float, hi: float) -> tuple[CovMatrix, CovMatrix]:
    """The two ``eq19_matrix`` states at adjacent floats ``c_q`` across a sign change of ``name``.

    ``name`` is an exact corner of :func:`exact_reference_witnesses`, of
    opposite signs at ``lo`` and ``hi``.
    """

    def positive(c_q):
        return exact_reference_witnesses(eq19_matrix(c_q).matrix)[name] > 0

    side = positive(lo)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if positive(mid) == side else (lo, mid)
    return eq19_matrix(lo), eq19_matrix(hi)


class TestCornerWitnesses:
    def test_full_robustness_fixtures(self):
        assert full_robustness_witness(CM_A) == pytest.approx(-0.903725, abs=1e-9)
        assert full_robustness_witness(CM_B) == pytest.approx(0.887091, abs=1e-9)
        assert full_robustness_witness(HIGHLY_SQUEEZED) == pytest.approx(
            295.582, abs=1e-6
        )

    def test_channel_witness_fixtures(self):
        assert channel_robustness_witness(CM_D, 1) == pytest.approx(
            -0.1358002, abs=1e-7
        )
        assert channel_robustness_witness(CM_D, 2) == pytest.approx(
            -0.1358002, abs=1e-7
        )
        # asymmetric fixture: fragile against channel-1 loss only
        assert channel_robustness_witness(CM_E, 1) == pytest.approx(0.0425, abs=1e-4)
        assert channel_robustness_witness(CM_E, 2) == pytest.approx(-0.0536, abs=1e-4)
        assert channel_robustness_witness(HIGHLY_SQUEEZED, 1) == pytest.approx(
            -18.05, abs=1e-6
        )

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            channel_robustness_witness(CM_D, 3)

    def test_edge_linearity(self):
        # W_R(t, 1) = (w_ppt - w_ch1) t + w_ch1 exactly
        for v in random_states(100):
            g = gamma_coefficients(v)
            scale = 1.0 + sum(
                abs(x) for x in (g.gamma11, g.gamma12, g.gamma21, g.gamma22)
            )
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                direct = reduced_witness(g, (t, 1.0))
                linear = (g.w_ppt - g.w_ch1) * t + g.w_ch1
                assert abs(direct - linear) <= 1e-12 * scale


class TestCriticalTransmittance:
    def test_fragile_fixture(self):
        t1 = critical_transmittance(CM_B, 1)
        assert t1 == pytest.approx(0.4117709793, abs=1e-9)
        assert critical_transmittance(CM_B, 2) == pytest.approx(t1, rel=1e-12)

    def test_robust_channel_has_none(self):
        assert critical_transmittance(CM_D, 1) is None
        assert critical_transmittance(CM_D, 2) is None

    def test_asymmetric_fixture(self):
        assert critical_transmittance(CM_E, 1) == pytest.approx(0.117, abs=1e-3)
        assert critical_transmittance(CM_E, 2) is None

    def test_separable_input_rejected(self):
        with pytest.raises(SeparableInputError):
            critical_transmittance(CM_C, 1)

    def test_unphysical_input_rejected(self):
        with pytest.raises(ValidationError, match="unphysical"):
            critical_transmittance(eq19_matrix(2.54), 1)

    def test_matches_classify(self):
        for v in random_states(200):
            report = classify(v)
            if report.cls == SEPARABLE:
                continue
            assert critical_transmittance(v, 1) == report.t1_critical
            assert critical_transmittance(v, 2) == report.t2_critical

    def test_witness_vanishes_at_critical_point(self):
        for v in random_entangled_states(50):
            t1 = critical_transmittance(v, 1)
            if t1 is None:
                continue
            assert 0.0 < t1 < 1.0
            residual = ppt_witness(attenuate(v, (t1, 1.0)))
            scale = max(1.0, float(np.abs(v.matrix).max()) ** 2)
            assert abs(residual) <= 1e-9 * scale


class TestClassify:
    def test_figure_fixtures(self):
        assert classify(CM_A).cls.label == "FullyRobust"
        assert classify(CM_B).cls.label == "Fragile"
        assert classify(CM_C).cls.label == "Separable"
        assert classify(CM_D).cls.label == "PartiallyRobustSymmetric"

    def test_asymmetric_fixture(self):
        report = classify(CM_E)
        assert report.cls.label == "PartiallyRobustAsymmetric"
        assert report.cls.robust_mode == 2
        assert report.t1_critical == pytest.approx(0.117, abs=1e-3)
        assert report.t2_critical is None

    def test_pure_highly_squeezed(self):
        assert classify(HIGHLY_SQUEEZED).cls.label == "PartiallyRobustSymmetric"

    def test_vacuum_boundary_separable(self):
        report = classify(CovMatrix.vacuum())
        assert report.cls == SEPARABLE
        assert "w_ppt" in report.boundary_flags

    def test_unphysical_rejected(self):
        with pytest.raises(ValidationError):
            classify(eq19_matrix(2.54))

    @pytest.mark.parametrize(
        "analysis",
        [classify, esd_contour, robustify, lambda v: critical_transmittance(v, 1)],
        ids=["classify", "esd_contour", "robustify", "critical_transmittance"],
    )
    def test_one_unphysical_message(self, analysis):
        with pytest.raises(ValidationError, match=r"^unphysical state .*uncertainty bound"):
            analysis(eq19_matrix(2.54))

    def test_critical_presence_matches_witness_signs(self):
        # Each t_crit is set exactly when w_ppt < -band < band < w on the
        # exact corners: on random states, on states with a corner in the
        # band, and on one whose band is infinite.
        edges = [*eq19_edge("w_ppt", 0.3825, 0.893), *eq19_edge("w_ch1", 0.893, 1.033)]
        squeezed = random_states(40, params=RandomStateParams(1.0, 2.5, 13.0))
        flagged = 0
        for v in [*random_entangled_states(100), *squeezed, *edges, SQUEEZED_MODE]:
            report = classify(v)
            band = boundary_band(v)
            exact = exact_reference_witnesses(v.matrix)
            flagged += bool(report.boundary_flags)
            for name, t_crit in (("w_ch1", report.t1_critical), ("w_ch2", report.t2_critical)):
                if exact["w_ppt"] < -band < band < exact[name]:
                    assert 0.0 < t_crit < 1.0
                else:
                    assert t_crit is None
        assert boundary_band(SQUEEZED_MODE) == float("inf")
        assert flagged >= 6

    def test_rank_order(self):
        labels = [
            classify(CM_C).cls,
            classify(CM_B).cls,
            classify(CM_E).cls,
            classify(CM_D).cls,
            classify(CM_A).cls,
        ]
        ranks = [c.rank for c in labels]
        assert ranks == sorted(ranks)
        assert ranks == [0, 1, 2, 3, 4]

    def test_monotone_fragility(self):
        rng = np.random.default_rng(17)
        for v in random_states(200):
            t = tuple(rng.uniform(0, 1, 2))
            before = classify(v).cls
            after = classify(attenuate(v, t)).cls
            assert after.rank <= before.rank


class TestCornerOracle:
    @staticmethod
    def scan_class(m, n=41):
        ts = np.linspace(0.0, 1.0, n)
        grid = oracle_attenuated_ppt_grid(m, ts)
        band = 1e-9 * max(1.0, float(np.abs(m).max()) ** 2)
        if grid[-1, -1] >= -band:
            return "Separable", None
        neg = grid < -band
        inner = slice(1, None)
        edge1 = bool(neg[inner, -1].all())
        edge2 = bool(neg[-1, inner].all())
        interior = bool(neg[inner, inner].all())
        if edge1 and edge2 and interior:
            return "FullyRobust", None
        if edge1 and edge2:
            return "PartiallyRobustSymmetric", None
        if edge1 or edge2:
            return "PartiallyRobustAsymmetric", 1 if edge1 else 2
        return "Fragile", None

    def test_corner_signs_match_brute_force_scan(self):
        checked = 0
        for v in random_entangled_states(100):
            report = classify(v)
            if report.boundary_flags:
                continue
            band = boundary_band(v)
            h = 1.0 / 40
            # skip states whose class boundary falls below the scan resolution
            skip = any(
                w > band and w / (w - report.w_ppt) < h
                for w in (report.w_ch1, report.w_ch2)
            )
            g = gamma_coefficients(v)
            if report.w_full > band and reduced_witness(g, (h, h)) <= band:
                skip = True
            if skip:
                continue
            label, mode = self.scan_class(v.matrix)
            assert (label, mode) == (report.cls.label, report.cls.robust_mode)
            checked += 1
        assert checked >= 80


class TestEsdContour:
    def test_fully_robust_empty(self):
        assert esd_contour(CM_A, 128).shape == (0, 2)

    def test_fragile_crosses_both_edges(self):
        pts = esd_contour(CM_B, 256)
        assert len(pts) > 10
        t1c = critical_transmittance(CM_B, 1)
        # curve reaches the single-loss edges: t2 -> 1 at t1 -> t1c, and
        # t2 -> t2c at t1 = 1
        assert pts[:, 0].min() == pytest.approx(t1c, abs=1.0 / 256 + 1e-9)
        assert pts[:, 1].max() > 0.99
        assert pts[:, 1].min() == pytest.approx(t1c, abs=1e-6)

    def test_partially_robust_interior_only(self):
        pts = esd_contour(CM_D, 256)
        assert len(pts) > 10
        assert pts[:, 0].max() < 0.97
        assert pts[:, 1].max() < 0.97

    def test_points_lie_on_zero_set(self):
        for v in (CM_B, CM_D, CM_E, HIGHLY_SQUEEZED):
            g = gamma_coefficients(v)
            scale = max(1.0, float(np.abs(v.matrix).max()) ** 2)
            pts = esd_contour(v, 128)
            for t1, t2 in pts:
                assert 0.0 < t1 <= 1.0 and 0.0 < t2 <= 1.0
                assert abs(reduced_witness(g, (t1, t2))) <= 1e-9 * scale

    def test_sample_count_bound(self):
        assert len(esd_contour(CM_B, 64)) <= 64

    @staticmethod
    def assert_exact(v, samples, t1_column):
        # The float references keep the points; each t2 is the exact root
        # rounded once, so the t1 = 1 point is classify's t2_critical.
        pts = esd_contour(v, samples)
        assert pts[:, 0].tobytes() == np.asarray(t1_column, dtype=float).tobytes()
        assert pts.tolist() == [list(p) for p in exact_esd_contour(v, samples)]
        t2_critical = classify(v).t2_critical
        if t2_critical is not None and len(pts) and pts[-1, 0] == 1.0:
            assert pts[-1, 1] == t2_critical

    @pytest.mark.parametrize(
        "params",
        [None, RandomStateParams(1.0, 1.0, 3.0), RandomStateParams(1.0, 1.0, 9.0)],
        ids=["default", "pure-squeeze3", "pure-squeeze9"],
    )
    def test_matches_reference_loop(self, params):
        # Pure states put the hyperbola's vertical asymptote at t1 = 1, where
        # the reference falls back to bisection.
        states = [CM_A, CM_B, CM_C, CM_D, CM_E, HIGHLY_SQUEEZED]
        states += random_states(150, params=params)
        for v in states:
            self.assert_exact(v, 256, reference_esd_contour(v, 256)[:, 0])

    @pytest.mark.parametrize("samples", [256, 7, 1])
    def test_equals_numpy_closed_form_bitwise(self, samples):
        # The former array form: np.linspace samples, and a zero denominator
        # gives inf or NaN, which the range test drops.
        states = [CM_A, CM_B, CM_C, CM_D, CM_E, HIGHLY_SQUEEZED]
        states += random_states(100, params=RandomStateParams(1.0, 1.0, 3.0))
        states += random_states(100)
        for v in states:
            g = gamma_coefficients(v)
            t1 = np.linspace(0.0, 1.0, samples + 1)[1:]
            with np.errstate(all="ignore"):
                t2 = -(g.gamma21 * t1 + g.gamma11) / (g.gamma22 * t1 + g.gamma12)
                residual = np.abs(g.gamma11 + t1 * g.gamma21 + t2 * g.gamma12 + t1 * t2 * g.gamma22)
            keep = (0.0 < t2) & (t2 <= 1.0) & (residual <= boundary_band(v))
            self.assert_exact(v, samples, t1[keep])

    @pytest.mark.parametrize("diag", [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0]])
    def test_vanishing_witness_is_empty(self, diag):
        v = CovMatrix(np.diag(diag))
        g = gamma_coefficients(v)
        assert (g.gamma11, g.gamma12, g.gamma21, g.gamma22) == (0.0, 0.0, 0.0, 0.0)
        assert esd_contour(v, 64).shape == (0, 2)

    def test_overflowing_witness_rejected(self):
        with pytest.raises(ValidationError, match="not finite"):
            esd_contour(CovMatrix(np.diag([1e90] * 4)), 16)


@pytest.mark.parametrize("x", OVERFLOW_LADDER)
def test_finite_corners_are_enough(x):
    # Only the corners enter these functions; other Gamma fields overflow here.
    v = pure_two_mode_squeezed(x)
    report = classify(v)
    assert report.cls == FULLY_ROBUST
    assert full_robustness_witness(v) == report.w_full
    assert channel_robustness_witness(v, 1) == report.w_ch1
    assert channel_robustness_witness(v, 2) == report.w_ch2
    assert critical_transmittance(v, 1) is critical_transmittance(v, 2) is None
    assert esd_contour(v, 16).shape == (0, 2)


class TestRobustify:
    def test_already_robust_returns_identity(self):
        res = robustify(CM_A)
        assert res is not None
        assert res.evaluations == 0
        assert np.array_equal(res.v_out.matrix, CM_A.matrix)
        assert res.s == res.s.identity()

    @pytest.mark.parametrize("fixture", [CM_B, CM_D], ids=["fragile", "partial"])
    def test_fixtures_become_fully_robust(self, fixture):
        res = robustify(fixture)
        assert res is not None
        assert res.objective < 0
        assert classify(res.v_out).cls == FULLY_ROBUST
        before = symplectic_spectrum(fixture)
        after = symplectic_spectrum(res.v_out)
        assert after.nu_minus == pytest.approx(before.nu_minus, rel=1e-9)
        assert after.nu_plus == pytest.approx(before.nu_plus, rel=1e-9)

    def test_separable_rejected(self):
        with pytest.raises(SeparableInputError):
            robustify(CM_C)

    @pytest.mark.parametrize("kwargs", [{"budget": 0}, {"budget": -5}, {"seed": -1}])
    def test_bad_budget_or_seed_rejected(self, kwargs):
        # Checked before the search, also for an already robust state.
        for v in (CM_A, CM_D):
            with pytest.raises(ValidationError, match="robustify needs"):
                robustify(v, **kwargs)

    def test_deterministic_given_seed(self):
        r1 = robustify(CM_B, seed=7)
        r2 = robustify(CM_B, seed=7)
        assert np.array_equal(r1.v_out.matrix, r2.v_out.matrix)
        assert r1.evaluations == r2.evaluations

    def test_random_entangled_states(self):
        for v in random_entangled_states(15):
            res = robustify(v)
            assert res is not None
            assert classify(res.v_out).cls == FULLY_ROBUST
