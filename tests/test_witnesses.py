"""Duan and PPT witnesses and the Gamma decomposition of the attenuated witness."""

import math

import numpy as np
import pytest

from cvrobust import (
    CovMatrix,
    LocalSymplectic,
    apply_local_symplectic,
    attenuate,
    blocks,
    boundary_band,
    duan_witness,
    gamma_coefficients,
    minimized_duan,
    ppt_witness,
    reduced_witness,
)
from helpers import (
    CM_A,
    CM_B,
    CM_C,
    CM_D,
    HIGHLY_SQUEEZED,
    oracle_attenuate,
    oracle_ppt,
    random_states,
)


class TestBoundaryBand:
    def test_overflow_gives_infinite_band(self):
        assert boundary_band(CovMatrix(np.diag([1e200] * 4))) == math.inf


def duan_closed_form(v, a):
    """Independent evaluation: (a^2 s1 + s2/a^2)/2 - sign(a)(c_p - c_q)."""
    b = blocks(v)
    s1 = np.trace(b.a1) - 2.0
    s2 = np.trace(b.a2) - 2.0
    sgn = 1.0 if a > 0 else -1.0
    return (a * a * s1 + s2 / (a * a)) / 2.0 - sgn * (b.c_p - b.c_q)


class TestDuanWitness:
    def test_vacuum_zero(self):
        assert duan_witness(CovMatrix.vacuum(), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_fixture_value(self):
        assert duan_witness(CM_A, 1.0) == pytest.approx(-0.185, abs=1e-12)

    def test_fully_symmetric_hyperbolic_identity(self):
        # s = cosh 2r, c = sinh 2r: W_D(a=1) = 2(s - c - 1) = 2(e^-2r - 1)
        for r in (0.2, 0.7, 1.3):
            s, c = np.cosh(2 * r), np.sinh(2 * r)
            v = CovMatrix(
                [[s, 0, c, 0], [0, s, 0, -c], [c, 0, s, 0], [0, -c, 0, s]]
            )
            assert duan_witness(v, 1.0) == pytest.approx(
                2 * (np.exp(-2 * r) - 1), rel=1e-12
            )
            assert duan_witness(v, 1.0) < 0

    def test_zero_weight_rejected(self):
        for a in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                duan_witness(CM_A, a)

    def test_parameters_expose_variances(self):
        from cvrobust import duan_parameters

        params = duan_parameters(CM_A, -1.0)
        assert params.u_variance == pytest.approx(0.54, abs=1e-12)
        assert params.v_variance == pytest.approx(1.275, abs=1e-12)
        assert params.witness == pytest.approx(-0.185, abs=1e-12)
        with pytest.raises(ValueError):
            duan_parameters(CM_A, 0.0)

    def test_matches_closed_form_minimum_over_signs(self):
        rng = np.random.default_rng(21)
        for v in random_states(50):
            a = rng.uniform(0.3, 3.0)
            expected = min(duan_closed_form(v, a), duan_closed_form(v, -a))
            assert duan_witness(v, a) == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestMinimizedDuan:
    def test_fixture_values(self):
        res = minimized_duan(CM_A)
        assert res.w_m == pytest.approx(-0.903725, abs=1e-9)
        assert res.a_opt == pytest.approx(-1.0, abs=1e-12)
        assert not res.degenerate
        assert minimized_duan(CM_B).w_m == pytest.approx(0.887091, abs=1e-9)

    def test_optimality_over_random_weights(self):
        rng = np.random.default_rng(22)
        for v in random_states(20):
            res = minimized_duan(v)
            best = duan_witness(v, res.a_opt)
            for _ in range(100):
                a = rng.uniform(0.05, 5.0)
                assert best <= duan_witness(v, a) + 1e-10

    def test_product_identity_links_w_m_to_minimal_witness(self):
        # w_m equals the minimized summed witness scaled by the positive
        # factor sqrt(s1 s2) + |c_p - c_q|, hence the shared sign
        for v in random_states(50):
            b = blocks(v)
            s1 = np.trace(b.a1) - 2.0
            s2 = np.trace(b.a2) - 2.0
            res = minimized_duan(v)
            factor = np.sqrt(s1 * s2) + abs(b.c_p - b.c_q)
            assert res.w_m == pytest.approx(
                duan_witness(v, res.a_opt) * factor, rel=1e-9, abs=1e-12
            )

    def test_degenerate_vacuum_mode(self):
        res = minimized_duan(CovMatrix.vacuum())
        assert res.degenerate
        assert res.a_opt is None
        assert res.w_m == 0.0

    def test_scaling_under_attenuation(self):
        rng = np.random.default_rng(23)
        for v in random_states(50):
            t1, t2 = rng.uniform(0, 1, 2)
            scaled = minimized_duan(attenuate(v, (t1, t2))).w_m
            expected = t1 * t2 * minimized_duan(v).w_m
            assert scaled == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_sufficiency_for_ppt(self):
        for v in random_states(200):
            if minimized_duan(v).w_m < 0:
                assert ppt_witness(v) < 0


class TestPptWitness:
    def test_vacuum_zero(self):
        assert ppt_witness(CovMatrix.vacuum()) == pytest.approx(0.0, abs=1e-12)

    def test_fixture_values(self):
        assert ppt_witness(CM_C) == pytest.approx(1.3590745525, abs=1e-9)
        assert ppt_witness(CM_A) == pytest.approx(-3.33445175, abs=1e-9)
        assert ppt_witness(CM_B) == pytest.approx(-1.0033337276, abs=1e-9)
        assert ppt_witness(HIGHLY_SQUEEZED) == pytest.approx(-18.05, abs=1e-9)

    def test_matches_oracle(self):
        for v in random_states(100):
            assert ppt_witness(v) == pytest.approx(
                oracle_ppt(v.matrix), rel=1e-12, abs=1e-12
            )


class TestGammaCoefficients:
    def test_vacuum_all_zero(self):
        g = gamma_coefficients(CovMatrix.vacuum())
        assert (g.gamma11, g.gamma12, g.gamma21, g.gamma22) == (0.0, 0.0, 0.0, 0.0)

    def test_fixture_cm_d(self):
        g = gamma_coefficients(CM_D)
        assert g.gamma11 == pytest.approx(0.264651, abs=1e-9)
        assert g.gamma12 == pytest.approx(-0.4004512, abs=1e-9)
        assert g.gamma21 == pytest.approx(-0.4004512, abs=1e-9)
        assert g.gamma22 == pytest.approx(-1.2654354636, abs=1e-9)

    def test_fixture_highly_squeezed(self):
        g = gamma_coefficients(HIGHLY_SQUEEZED)
        assert g.gamma11 == pytest.approx(295.582, abs=1e-6)
        assert g.gamma12 == pytest.approx(-313.632, abs=1e-6)
        assert g.gamma21 == pytest.approx(-313.632, abs=1e-6)

    def test_sum_is_ppt_witness(self):
        for v in random_states(200):
            g = gamma_coefficients(v)
            total = g.gamma11 + g.gamma12 + g.gamma21 + g.gamma22
            w = ppt_witness(v)
            assert total == pytest.approx(w, rel=1e-9, abs=1e-9)

    def test_gamma22_is_det_v_minus_identity(self):
        for v in random_states(200):
            g = gamma_coefficients(v)
            det = np.linalg.det(v.matrix - np.eye(4))
            assert g.gamma22 == pytest.approx(det, rel=1e-12, abs=1e-12)

    def test_eta_determinant_identity(self):
        # det V = det(V - I) + eta
        for v in random_states(100):
            g = gamma_coefficients(v)
            det_v = np.linalg.det(v.matrix)
            assert det_v == pytest.approx(g.gamma22 + g.eta, rel=1e-10, abs=1e-10)

    def test_lambda4_determinant_identity(self):
        # det V = det a1 det a2 + (det c)^2 - lambda4
        for v in random_states(100):
            g = gamma_coefficients(v)
            b = blocks(v)
            det_v = np.linalg.det(v.matrix)
            expected = (
                np.linalg.det(b.a1) * np.linalg.det(b.a2)
                + np.linalg.det(b.c) ** 2
                - g.lambda4
            )
            assert det_v == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        for v in random_states(100):
            rot = LocalSymplectic.rotation(*rng.uniform(-np.pi, np.pi, 2))
            g0 = gamma_coefficients(v)
            g1 = gamma_coefficients(apply_local_symplectic(v, rot))
            for q0, q1 in (
                (g0.w_ppt, g1.w_ppt),
                (g0.gamma11, g1.gamma11),
                (g0.w_ch1, g1.w_ch1),
                (g0.w_ch2, g1.w_ch2),
            ):
                assert q1 == pytest.approx(q0, rel=1e-9, abs=1e-9)


class TestReducedWitness:
    def test_corner_identities(self):
        g = gamma_coefficients(CM_D)
        assert reduced_witness(g, (1.0, 1.0)) == pytest.approx(
            ppt_witness(CM_D), rel=1e-12
        )
        assert reduced_witness(g, (0.0, 0.0)) == g.gamma11

    def test_fixture_value_and_factorized_form(self):
        g = gamma_coefficients(CM_D)
        w_r = reduced_witness(g, (1.0, 0.4))
        assert w_r == pytest.approx(-0.8021548654, abs=1e-9)
        attenuated = oracle_attenuate(CM_D.matrix, 1.0, 0.4)
        assert 0.4 * w_r == pytest.approx(oracle_ppt(attenuated), rel=1e-9)

    def test_factorization_identity(self):
        ts = np.linspace(0.0, 1.0, 11)
        for v in random_states(200):
            g = gamma_coefficients(v)
            for t1 in ts:
                for t2 in ts:
                    lhs = ppt_witness(attenuate(v, (t1, t2)))
                    rhs = t1 * t2 * reduced_witness(g, (t1, t2))
                    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_separable_fixture_stays_nonnegative(self):
        g = gamma_coefficients(CM_C)
        ts = np.linspace(0.0, 1.0, 21)
        assert all(
            reduced_witness(g, (t1, t2)) >= 0.0 for t1 in ts for t2 in ts
        )
