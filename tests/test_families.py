"""State families, EPR parametrization, region maps, random state generator."""

import math
import zlib
from fractions import Fraction

import numpy as np
import pytest

from cvrobust import (
    FULLY_ROBUST,
    CovMatrix,
    FullySymmetric,
    FullySymmetricFromSqueezing,
    PureTwoModeSqueezed,
    RandomStateParams,
    StandardFormI,
    SymmetricModes,
    ValidationError,
    build,
    channel_robustness_witness,
    classify,
    epr_partial_witness,
    epr_state,
    epr_summary,
    family_witnesses,
    full_robustness_witness,
    ppt_witness,
    random_physical_state,
    region_map_correlations,
    region_map_epr,
    validate_physicality,
)
from helpers import (
    CM_B,
    CM_D,
    exact_reference_witnesses,
    random_states,
    reference_random_physical_state,
)


class TestBuild:
    def test_fully_symmetric_vacuum(self):
        assert np.array_equal(build(FullySymmetric(s=1.0, c=0.0)).matrix, np.eye(4))

    def test_symmetric_modes_reproduces_fixture(self):
        v = build(SymmetricModes(dq=2.55, dp=1.80, c_q=1.033, c_p=-1.26))
        assert np.array_equal(v.matrix, CM_D.matrix)

    def test_pure_two_mode_squeezed_witness(self):
        for r in (0.1, 0.8, 1.5):
            w = family_witnesses(PureTwoModeSqueezed(r))
            assert w.w_ppt == pytest.approx(-4 * np.sinh(2 * r) ** 2, rel=1e-12)
            v = build(PureTwoModeSqueezed(r))
            assert abs(np.linalg.det(v.matrix) - 1.0) < 1e-9

    def test_strongly_squeezed_pure_state_accepted(self):
        # An absolute physicality tolerance rejected some r in this range.
        for r in np.linspace(7.5, 9.5, 21):
            build(PureTwoModeSqueezed(float(r)))  # raises ValidationError if rejected

    def test_from_squeezing_equals_pure_at_unit_nu(self):
        a = build(FullySymmetricFromSqueezing(r=0.7, nu=1.0))
        b = build(PureTwoModeSqueezed(r=0.7))
        assert np.array_equal(a.matrix, b.matrix)

    def test_unphysical_parameters_rejected(self):
        with pytest.raises(ValidationError, match="bound"):
            build(FullySymmetric(s=1.0, c=0.5))  # s^2 - c^2 < 1
        with pytest.raises(ValidationError):
            build(SymmetricModes(dq=2.55, dp=1.80, c_q=2.54, c_p=-1.26))

    @pytest.mark.parametrize("spec", [PureTwoModeSqueezed(1000.0),
                                      FullySymmetricFromSqueezing(r=-1000.0)])
    def test_overflowing_squeezing_rejected(self, spec):
        with pytest.raises(ValidationError, match="overflows"):
            build(spec)


class TestFamilyWitnesses:
    def test_fully_symmetric_closed_form(self):
        w = family_witnesses(FullySymmetric(s=2.0, c=1.5))
        assert w.w_full == pytest.approx(4 * ((2.0 - 1) ** 2 - 1.5**2), rel=1e-12)

    def test_symmetric_modes_fixture(self):
        w = family_witnesses(SymmetricModes(dq=2.55, dp=1.80, c_q=0.893, c_p=-1.26))
        assert w.w_ppt == pytest.approx(-1.003, abs=1e-3)
        assert w.w_full == pytest.approx(0.887, abs=1e-3)

    @staticmethod
    def _draws(kind, rng, n):
        out = []
        while len(out) < n:
            if kind == "fully-symmetric":
                nu = rng.uniform(1.0, 2.0)
                r = rng.uniform(-1.5, 1.5)
                out.append(FullySymmetric(s=nu * np.cosh(2 * r), c=nu * np.sinh(2 * r)))
            elif kind == "from-squeezing":
                out.append(
                    FullySymmetricFromSqueezing(
                        r=rng.uniform(-1.5, 1.5), nu=rng.uniform(1.0, 2.0)
                    )
                )
            elif kind == "symmetric-modes":
                dq, dp = rng.uniform(1.0, 4.0, 2)
                spec = SymmetricModes(
                    dq=dq,
                    dp=dp,
                    c_q=rng.uniform(-1, 1) * dq,
                    c_p=rng.uniform(-1, 1) * dp,
                )
                out.append(spec)
            else:
                s, t = rng.uniform(1.0, 4.0, 2)
                bound = np.sqrt(s * t)
                spec = StandardFormI(
                    s=s,
                    t=t,
                    c_q=rng.uniform(-1, 1) * bound,
                    c_p=rng.uniform(-1, 1) * bound,
                )
                out.append(spec)
        return out

    @pytest.mark.parametrize(
        "kind", ["fully-symmetric", "from-squeezing", "symmetric-modes", "standard-form-i"]
    )
    def test_closed_forms_match_generic_operations(self, kind):
        from cvrobust.families import _family_matrix

        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for spec in self._draws(kind, rng, 10_000):
            w = family_witnesses(spec)
            v = CovMatrix(_family_matrix(spec))  # physicality not needed here
            w_ppt = ppt_witness(v)
            w_full = full_robustness_witness(v)
            assert abs(w.w_ppt - w_ppt) <= 1e-12 * max(1.0, abs(w_ppt))
            assert abs(w.w_full - w_full) <= 1e-12 * max(1.0, abs(w_full))

    @pytest.mark.parametrize(
        "kind", ["fully-symmetric", "from-squeezing", "symmetric-modes", "standard-form-i"]
    )
    def test_equal_exact_reference_rounded_once(self, kind):
        from cvrobust.families import _family_matrix

        rng = np.random.default_rng(zlib.crc32(kind.encode()) + 1)
        for spec in self._draws(kind, rng, 300):
            ref = exact_reference_witnesses(_family_matrix(spec))
            expected = (float(ref["w_ppt"]), float(ref["w_full"]))
            assert family_witnesses(spec) == expected, spec
            v = CovMatrix(_family_matrix(spec))  # physicality not needed here
            assert (ppt_witness(v), full_robustness_witness(v)) == expected, spec

    @pytest.mark.parametrize(
        "spec, w_ppt, w_full",
        [
            (PureTwoModeSqueezed(20.0), -5.540622384393511e34, -9.4154106734808e17),
            (PureTwoModeSqueezed(15.0), -1.1420073898156844e26, -42745898326093.85),
            (StandardFormI(1e9, 1e9, 1e9 - 1, -(1e9 - 1)), 0.0, 0.0),
            (SymmetricModes(1e8, 1e8, 1e8 - 1, -(1e8 - 1)), 0.0, 0.0),
        ],
        ids=["pure-r20", "pure-r15", "standard-form-1e9", "symmetric-modes-1e8"],
    )
    def test_strong_squeezing_equals_exact_reference(self, spec, w_ppt, w_full):
        # The float closed forms gave w_full = 0.0 at r = 20, a relative error
        # of 5.6e-5 at r = 15, and w_ppt = +4e9 and +4e8 for the exact zeros.
        from cvrobust.families import _family_matrix

        ref = exact_reference_witnesses(_family_matrix(spec))
        assert (float(ref["w_ppt"]), float(ref["w_full"])) == (w_ppt, w_full)
        assert family_witnesses(spec) == (w_ppt, w_full)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (FullySymmetric(1e200, 0.0), "witness values are not finite"),
            (PureTwoModeSqueezed(200.0), "witness values are not finite"),
            (FullySymmetric(float("nan"), 0.0), "non-finite"),
        ],
        ids=["fully-symmetric-1e200", "pure-r200", "nan"],
    )
    def test_non_finite_values_raise_validation_error(self, spec, message):
        # The float closed forms raised OverflowError from ** on the first two.
        with pytest.raises(ValidationError, match=message):
            family_witnesses(spec)

    def test_fully_symmetric_sign_equivalence(self):
        # sign(w_ppt) = sign(w_full) = sign(s - 1 - |c|); entangled => fully robust
        rng = np.random.default_rng(8)
        n_entangled = 0
        for _ in range(10_000):
            nu = rng.uniform(1.0, 2.0)
            r = rng.uniform(-1.5, 1.5)
            spec = FullySymmetric(s=nu * np.cosh(2 * r), c=nu * np.sinh(2 * r))
            key = spec.s - 1.0 - abs(spec.c)
            if abs(key) < 1e-9:
                continue
            w = family_witnesses(spec)
            assert np.sign(w.w_ppt) == np.sign(key)
            assert np.sign(w.w_full) == np.sign(key)
            if key < 0:
                n_entangled += 1
                assert classify(build(spec)).cls == FULLY_ROBUST
        assert n_entangled > 1000

    def test_standard_form_i_symmetric_correlations_never_fragile(self):
        # c_q = -c_p: no disentanglement at partial loss, any purities
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 10_000:
            s, t = rng.uniform(1.0, 4.0, 2)
            c = rng.uniform(0, 1) * np.sqrt((s - 1) * (t - 1) + 1)
            spec = StandardFormI(s=s, t=t, c_q=c, c_p=-c)
            v = CovMatrix(
                [[s, 0, c, 0], [0, s, 0, -c], [c, 0, t, 0], [0, -c, 0, t]]
            )
            if not validate_physicality(v).physical:
                continue
            checked += 1
            report = classify(v)
            assert report.cls.label in ("FullyRobust", "Separable")


class TestEprSummary:
    def test_vacuum(self):
        e = epr_summary(CovMatrix.vacuum())
        for var in (e.var_p_minus, e.var_p_plus, e.var_q_minus, e.var_q_plus):
            assert var == pytest.approx(1.0, abs=1e-12)
        for w in (e.w_sum, e.w_sum_bar, e.w_prod, e.w_prod_bar):
            assert w == pytest.approx(0.0, abs=1e-12)
        assert e.mu_minus == pytest.approx(1.0, abs=1e-12)
        assert e.mu_plus == pytest.approx(1.0, abs=1e-12)

    def test_fixture_cm_d(self):
        e = epr_summary(CM_D)
        assert e.var_p_minus == pytest.approx(3.06, abs=1e-12)
        assert e.var_q_plus == pytest.approx(3.583, abs=1e-12)
        assert e.var_p_plus == pytest.approx(0.54, abs=1e-12)
        assert e.var_q_minus == pytest.approx(1.517, abs=1e-12)

    def test_product_identities_on_symmetric_modes(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            v = build_symmetric(rng)
            e = epr_summary(v)
            assert e.w_prod * e.w_prod_bar == pytest.approx(
                ppt_witness(v), rel=1e-12, abs=1e-12
            )
            assert e.w_sum * e.w_sum_bar == pytest.approx(
                full_robustness_witness(v), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize(
        "params",
        [None, RandomStateParams(squeeze_max=9.0), RandomStateParams(1.0, 1.0, 11.0)],
        ids=["default", "squeeze_max=9", "pure-squeeze_max=11"],
    )
    def test_variances_are_exact_quadratic_forms(self, params):
        # var(f) = f^T V f with f = (e_i +- e_j)/sqrt(2): (v_ii +- 2 v_ij + v_jj)/2
        # in rationals, rounded once.
        for seed, v in enumerate(random_states(100, params=params)):
            m = [[Fraction(x) for x in row] for row in v.tolist()]

            def var(i, j, sign):
                return float((m[i][i] + sign * 2 * m[i][j] + m[j][j]) / 2)

            e = epr_summary(v)
            want = (var(1, 3, -1), var(1, 3, 1), var(0, 2, -1), var(0, 2, 1))
            assert (e.var_p_minus, e.var_p_plus, e.var_q_minus, e.var_q_plus) == want, seed

    @pytest.mark.parametrize(
        "m", [np.zeros((4, 4)), np.diag([0.5, 0.5, 1.0, 1.0])], ids=["zeros", "sub-vacuum"]
    )
    def test_unphysical_input_rejected(self, m):
        # zeros divided by a zero variance product; diag(.5, .5, 1, 1) gave purities.
        with pytest.raises(ValidationError, match="unphysical"):
            epr_summary(m)

    def test_heisenberg_exclusion(self):
        # the paired product (and sum) witnesses are never both negative
        for v in random_states(10_000):
            e = epr_summary(v)
            assert not (e.w_prod < 0 and e.w_prod_bar < 0)
            assert not (e.w_sum < 0 and e.w_sum_bar < 0)

    def test_full_robustness_implies_entanglement_symmetric_modes(self):
        rng = np.random.default_rng(15)
        count = 0
        while count < 10_000:
            v = build_symmetric(rng)
            count += 1
            if full_robustness_witness(v) < 0:
                assert ppt_witness(v) < 0


def build_symmetric(rng):
    """Random physical symmetric-mode state."""
    while True:
        dq, dp = rng.uniform(1.0, 4.0, 2)
        c_q = rng.uniform(-1, 1) * dq
        c_p = rng.uniform(-1, 1) * dp
        v = CovMatrix(
            [
                [dq, 0, c_q, 0],
                [0, dp, 0, c_p],
                [c_q, 0, dq, 0],
                [0, c_p, 0, dp],
            ]
        )
        if validate_physicality(v).physical:
            return v


class TestEprPartialWitness:
    def test_sign_matches_channel_witness_fixtures(self):
        assert epr_partial_witness(CM_D) < 0
        assert channel_robustness_witness(CM_D, 1) < 0
        assert epr_partial_witness(CM_B) > 0
        assert channel_robustness_witness(CM_B, 1) > 0

    def test_sign_matches_channel_witness_random(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            v = build_symmetric(rng)
            w_epr = epr_partial_witness(v)
            w_ch = channel_robustness_witness(v, 1)
            if abs(w_ch) < 1e-9:
                continue
            assert np.sign(w_epr) == np.sign(w_ch)

    def test_is_twice_channel_witness_random(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            v = build_symmetric(rng)
            w_ch = channel_robustness_witness(v, 1)
            assert epr_partial_witness(v) == pytest.approx(2.0 * w_ch, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("r", [9.5, 10.0, 20.0])
    def test_strongly_squeezed_pure_state_is_twice_channel_witness(self, r):
        # The float EPR products raised ValueError at r = 9.5 and
        # ZeroDivisionError from r = 10, where the rounded s - c is <= 0.
        v = build(PureTwoModeSqueezed(r))
        assert epr_partial_witness(v) == 2.0 * channel_robustness_witness(v, 1) < 0
        e = epr_summary(v)
        assert math.isnan(e.mu_plus) and math.isnan(e.mu_minus)

    def test_separable_symmetric_state_nonnegative(self):
        v = build(SymmetricModes(dq=1.2, dp=1.1, c_q=0.05, c_p=-0.05))
        assert ppt_witness(v) >= 0
        assert epr_partial_witness(v) >= 0

    @pytest.mark.parametrize("m", [np.zeros((4, 4)), 0.5 * np.eye(4)], ids=["zeros", "sub-vacuum"])
    def test_unphysical_symmetric_mode_input_rejected(self, m):
        with pytest.raises(ValidationError, match="unphysical"):
            epr_partial_witness(m)

    def test_non_symmetric_input_rejected(self):
        from helpers import CM_E

        with pytest.raises(ValidationError, match="symmetric"):
            epr_partial_witness(CM_E)


class TestRegionMapCorrelations:
    def test_fixture_points_land_in_paper_regions(self):
        # grid 50 puts the fully robust fixture exactly on a cell center
        region = region_map_correlations(dq=2.55, dp=1.80, grid=50)
        lookup = {}
        for i, cp in enumerate(region.x):
            for j, cq in enumerate(region.y):
                lookup[(round(float(cp), 6), round(float(cq), 6))] = region.labels[i, j]
        assert lookup[(-0.70, 0.50)] == "I"  # c_q = 1.275

        def nearest(cp, cq):
            i = int(np.argmin(np.abs(region.x - cp)))
            j = int(np.argmin(np.abs(region.y - cq)))
            return region.labels[i, j]

        assert nearest(-0.70, 0.893 / 2.55) == "III"
        assert nearest(-0.70, 0.3825 / 2.55) == "IV"
        assert nearest(-0.70, 1.033 / 2.55) == "II"

    def test_origin_is_separable(self):
        region = region_map_correlations(dq=2.55, dp=1.80, grid=10)
        i = int(np.argmin(np.abs(region.x)))
        j = int(np.argmin(np.abs(region.y)))
        assert region.labels[i, j] == "IV"

    def test_extreme_corners_unphysical(self):
        region = region_map_correlations(dq=2.55, dp=1.80, grid=20)
        assert (region.labels == "unphysical").any()
        # strongly opposed correlations near (+1, -1) violate uncertainty
        assert region.labels[-1, 0] == "unphysical"
        # the physicality boundary flag holds only on physical matrices
        assert not region.boundary[region.labels == "unphysical"].any()

    def test_variances_below_vacuum_rejected(self):
        with pytest.raises(ValidationError):
            region_map_correlations(dq=0.8, dp=1.2, grid=4)


class TestRegionMapEpr:
    MU_MINUS = 0.7267
    MU_PLUS = 0.4529

    def test_vacuum_point_at_unit_purities(self):
        spec = epr_state(1.0, 1.0, q_plus_var=1.0, p_minus_var=1.0)
        v = build(spec)
        assert np.allclose(v.matrix, np.eye(4), atol=1e-12)
        e = epr_summary(v)
        assert e.w_sum == pytest.approx(0.0, abs=1e-12)
        assert e.w_prod == pytest.approx(0.0, abs=1e-12)

    def test_experimental_regime_is_partially_robust(self):
        # w_sum > 0 and EPR partial witness < 0: partially robust
        spec = epr_state(self.MU_MINUS, self.MU_PLUS, q_plus_var=1.55, p_minus_var=0.5)
        v = build(spec)
        e = epr_summary(v)
        assert e.w_sum > 0
        assert epr_partial_witness(v) < 0
        assert classify(v).cls.label == "PartiallyRobustSymmetric"

    def test_partial_witness_zero_lies_between_boundaries(self):
        # along p_minus = 0.5, the roots in q_plus order as
        # w_full root < w1 root < w_ppt root
        y = 0.5

        def w1(x):
            return epr_partial_witness(
                build(epr_state(self.MU_MINUS, self.MU_PLUS, x, y))
            )

        lo, hi = 1.5 + 1e-9, 2.0 - 1e-9  # w_full and w_ppt roots on this slice
        assert w1(lo) < 0 < w1(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if w1(mid) < 0:
                lo = mid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
        v_star = build(epr_state(self.MU_MINUS, self.MU_PLUS, x_star, y))
        assert ppt_witness(v_star) < 0  # still entangled at the w1 boundary
        assert full_robustness_witness(v_star) > 0  # not yet fully robust

    def test_all_cells_physical_and_labeled(self):
        region = region_map_epr(self.MU_MINUS, self.MU_PLUS, grid=12)
        assert not (region.labels == "unphysical").any()
        assert set(np.unique(region.labels)) <= {"I", "II", "III", "IV"}
        # all four regions visible on the default window
        assert {"I", "II", "III", "IV"} <= set(np.unique(region.labels))

    def test_bad_purities_rejected(self):
        with pytest.raises(ValidationError):
            region_map_epr(1.2, 0.5, grid=4)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.0, 1.0, math.nan, 1.0), "finite: q_plus_var"),
            ((1.0, 1.0, math.inf, 1.0), "finite: q_plus_var"),
            ((1.0, math.nan, 1.0, 1.0), "finite: mu_plus"),
            ((1e-200, 1.0, 1.0, 1.0), "non-finite entries"),
        ],
        ids=["nan-variance", "infinite-variance", "nan-purity", "tiny-purity"],
    )
    def test_epr_state_rejects_non_finite_moments(self, args, message):
        # epr_state returned all-NaN or infinite moments here; region_map_epr
        # rejects the same values.
        with pytest.raises(ValidationError, match=message) as info:
            epr_state(*args)
        assert "map" not in str(info.value)


class TestRandomPhysicalState:
    def test_deterministic(self):
        a = random_physical_state(123)
        b = random_physical_state(123)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize(
        "params",
        [None, RandomStateParams(squeeze_max=9.0), RandomStateParams(squeeze_max=11.0)],
        ids=["default", "squeeze_max=9", "squeeze_max=11"],
    )
    def test_bit_identical_to_numpy_draws(self, params):
        # numpy's own draws, then S^T D S in exact rationals rounded once.
        for seed in range(200):
            got = random_physical_state(seed, params).tolist()
            assert got == reference_random_physical_state(seed, params).tolist(), seed

    def test_always_physical(self):
        for seed in range(300):
            assert validate_physicality(random_physical_state(seed)).physical

    def test_unit_nu_no_squeeze_is_vacuum(self):
        params = RandomStateParams(nu_min=1.0, nu_max=1.0, squeeze_max=0.0)
        for seed in (0, 5, 9):
            v = random_physical_state(seed, params)
            assert np.allclose(v.matrix, np.eye(4), atol=1e-12)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            random_physical_state(-1)

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError):
            RandomStateParams(nu_min=0.5)
        with pytest.raises(ValidationError):
            RandomStateParams(squeeze_max=-1.0)
        for bad in ({"squeeze_max": np.inf}, {"nu_max": np.inf}, {"squeeze_max": np.nan}):
            with pytest.raises(ValidationError, match="finite"):
                RandomStateParams(**bad)
