"""Attenuation channel and link-budget bookkeeping."""

import numpy as np
import pytest

from cvrobust import (
    LinkBudget,
    LocalSymplectic,
    RandomStateParams,
    Transmittance,
    ValidationError,
    apply_local_symplectic,
    attenuate,
    blocks,
    boundary_band,
    classify,
    default_alpha_db_per_km,
    transmittance_from_link,
    validate_physicality,
)
from helpers import CM_D, CM_E, oracle_attenuated_ppt_grid, random_states

#: Transmittance pairs of the bit-identity checks, the total-loss edge included.
T_PAIRS = [(0.7, 0.4), (0.1, 1.0), (0.0, 0.35)]


def numpy_attenuate(m: np.ndarray, t1: float, t2: float) -> np.ndarray:
    """The former array form ``(l_i l_j) * (V - I) + I``, symmetrized like ``CovMatrix``."""
    diag = np.sqrt(np.array([t1, t1, t2, t2]))
    out = (diag[:, None] * diag[None, :]) * (m - np.eye(4)) + np.eye(4)
    return 0.5 * (out + out.T)


class TestTransmittance:
    def test_range_checked(self):
        with pytest.raises(ValidationError):
            Transmittance(-0.1, 0.5)
        with pytest.raises(ValidationError):
            Transmittance(0.5, 1.1)

    def test_of_tuple(self):
        t = Transmittance.of((0.3, 0.7))
        assert t == Transmittance(0.3, 0.7)


class TestAttenuate:
    @pytest.mark.parametrize("squeeze_max", [1.0, 3.0, 9.0])
    def test_floats_equal_numpy_form_bitwise(self, squeeze_max):
        params = RandomStateParams(1.0, 2.5 if squeeze_max < 9.0 else 1.0, squeeze_max)
        for v in [CM_D, CM_E] + random_states(100, params=params):
            for t1, t2 in T_PAIRS:
                expected = numpy_attenuate(v.matrix, t1, t2)
                assert attenuate(v, (t1, t2)).matrix.tobytes() == expected.tobytes()

    def test_identity(self):
        out = attenuate(CM_D, (1.0, 1.0))
        assert np.array_equal(out.matrix, CM_D.matrix)

    def test_total_loss_gives_vacuum(self):
        out = attenuate(CM_D, (0.0, 0.0))
        assert np.array_equal(out.matrix, np.eye(4))

    def test_fixture_matches_published_rounding(self):
        # CM_D attenuated at T2 = 0.40, compared entrywise to the rounded
        # 3-digit matrix CM_E
        out = attenuate(CM_D, (1.0, 0.40))
        assert np.abs(out.matrix - CM_E.matrix).max() <= 5e-3

    def test_block_transformation_rule(self):
        rng = np.random.default_rng(2)
        for v in random_states(50):
            t1, t2 = rng.uniform(0, 1, 2)
            b = blocks(v)
            out = blocks(attenuate(v, (t1, t2)))
            assert np.allclose(out.c, np.sqrt(t1 * t2) * b.c, atol=1e-14)
            assert np.allclose(
                out.a1, t1 * (b.a1 - np.eye(2)) + np.eye(2), atol=1e-14
            )
            assert np.allclose(
                out.a2, t2 * (b.a2 - np.eye(2)) + np.eye(2), atol=1e-14
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            attenuate(CM_D, (1.2, 0.5))

    def test_semigroup(self):
        rng = np.random.default_rng(3)
        for v in random_states(50):
            a1, a2, b1, b2 = rng.uniform(0, 1, 4)
            two_step = attenuate(attenuate(v, (a1, a2)), (b1, b2)).matrix
            one_step = attenuate(v, (a1 * b1, a2 * b2)).matrix
            scale = max(1.0, np.abs(v.matrix).max())
            assert np.abs(two_step - one_step).max() <= 1e-12 * scale

    def test_physicality_preserved_on_grid(self):
        ts = np.linspace(0.0, 1.0, 21)
        for v in random_states(20):
            for t1 in ts:
                for t2 in ts:
                    assert validate_physicality(attenuate(v, (t1, t2))).physical

    def test_rotation_commutes_with_loss(self):
        rng = np.random.default_rng(4)
        for v in random_states(200):
            rot = LocalSymplectic.rotation(*rng.uniform(-np.pi, np.pi, 2))
            t = Transmittance(*rng.uniform(0, 1, 2))
            lhs = attenuate(apply_local_symplectic(v, rot), t).matrix
            rhs = apply_local_symplectic(attenuate(v, t), rot).matrix
            scale = max(1.0, np.abs(v.matrix).max())
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_squeeze_does_not_commute_with_loss(self):
        sq = LocalSymplectic.squeeze(0.5, 0.0)
        t = Transmittance(0.5, 0.9)
        worst = 0.0
        for v in random_states(20):
            lhs = attenuate(apply_local_symplectic(v, sq), t).matrix
            rhs = apply_local_symplectic(attenuate(v, t), sq).matrix
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst > 1e-6

    def test_separability_downward_closed(self):
        # a separable point forces separability at all lower transmittances
        ts = np.linspace(0.0, 1.0, 21)
        for v in random_states(40):
            band = boundary_band(v)
            grid = oracle_attenuated_ppt_grid(v.matrix, ts)
            sep = grid > band
            ent = grid < -band
            # suffix-OR along both axes: is any point at >= transmittance separable?
            sep_up_right = np.flip(np.logical_or.accumulate(np.flip(sep, 0), 0), 0)
            sep_up_right = np.flip(np.logical_or.accumulate(np.flip(sep_up_right, 1), 1), 1)
            assert not np.any(ent & sep_up_right)


class TestLinkBudget:
    def test_zero_length_is_lossless(self):
        t = transmittance_from_link(LinkBudget())
        assert t == Transmittance(1.0, 1.0)

    def test_fifty_km_at_default_alpha(self):
        t = transmittance_from_link(
            LinkBudget(scenario="single-channel", length2_km=50.0)
        )
        assert t.t1 == 1.0
        assert t.t2 == pytest.approx(0.1, rel=1e-12)

    def test_alpha_env_override(self, monkeypatch):
        monkeypatch.setenv("CVROBUST_ALPHA_DB_PER_KM", "0.4")
        assert default_alpha_db_per_km() == 0.4
        t = transmittance_from_link(
            LinkBudget(scenario="single-channel", length2_km=50.0)
        )
        assert t.t2 == pytest.approx(0.01, rel=1e-12)

    def test_explicit_alpha_beats_default(self):
        t = transmittance_from_link(
            LinkBudget(length1_km=10.0, length2_km=10.0, alpha_db_per_km=1.0)
        )
        assert t.t1 == pytest.approx(0.1, rel=1e-12)

    def test_negative_length_rejected(self):
        with pytest.raises(ValidationError):
            LinkBudget(length1_km=-1.0)

    def test_single_vs_dual_same_budget_different_outcome(self):
        # same product T1*T2 = 0.1, different entanglement fate for CM_D
        single = transmittance_from_link(
            LinkBudget(scenario="single-channel", length2_km=50.0)
        )
        dual = transmittance_from_link(
            LinkBudget(scenario="dual-channel", length1_km=25.0, length2_km=25.0)
        )
        assert single.t1 * single.t2 == pytest.approx(dual.t1 * dual.t2, rel=1e-12)
        cls_single = classify(attenuate(CM_D, single)).cls
        cls_dual = classify(attenuate(CM_D, dual)).cls
        assert str(cls_single) == "PartiallyRobustAsymmetric(robust_mode=2)"
        assert str(cls_dual) == "Fragile"
