"""Covariance data model, physicality, spectra, purities, local symplectics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cvrobust import (
    CovMatrix,
    LocalSymplectic,
    RandomStateParams,
    ValidationError,
    apply_local_symplectic,
    blocks,
    build,
    FullySymmetric,
    ppt_witness,
    purities,
    random_physical_state,
    reassemble,
    symplectic_spectrum,
    validate_physicality,
)
from helpers import (
    CM_D,
    _mul,
    HIGHLY_SQUEEZED,
    OMEGA,
    eq19_matrix,
    exact_reference_witnesses,
    oracle_min_uncertainty_eigenvalue,
    oracle_partial_transpose,
    oracle_symplectic_eigenvalues,
    random_states,
)


class TestCovMatrix:
    def test_symmetrizes_roundtrip_noise(self):
        m = np.eye(4)
        m[0, 2] = 0.5
        m[2, 0] = 0.5 * (1 + 1e-12)  # last-digit file noise
        v = CovMatrix(m)
        assert v.matrix[0, 2] == v.matrix[2, 0]

    def test_rejects_asymmetry_beyond_tolerance(self):
        m = np.eye(4)
        m[0, 2] = 0.5
        m[2, 0] = 0.5001
        with pytest.raises(ValidationError, match="asymmetric"):
            CovMatrix(m)

    def test_symmetry_tolerance_has_absolute_floor(self):
        # The tolerance is SYMMETRY_RTOL * max(1, max|V|), so small entries
        # get the absolute 1e-9, not 1e-9 * max|V|.
        m = 0.5 * np.eye(4)
        m[0, 2] = 0.25
        m[2, 0] = 0.25 + 8e-10  # over 1e-9 * max|V| = 5e-10
        assert CovMatrix(m).matrix[0, 2] == CovMatrix(m).matrix[2, 0]
        m[2, 0] = 0.25 + 2e-9
        with pytest.raises(ValidationError, match="asymmetric"):
            CovMatrix(m)

    def test_symmetrizing_entries_near_the_float_limit_stays_finite(self):
        # x + y overflows above about 9e307; the mean of the pair does not.
        m = np.diag([1e308, 1.7e308, 1.0, 1.0])
        m[0, 2], m[2, 0] = 1e308, np.nextafter(1e308, 0.0)
        m[3, 1], m[1, 3] = -1.7e308, -1.7e308
        rows = CovMatrix(m).tolist()
        assert rows[0][0] == 1e308 and rows[1][1] == 1.7e308 and rows[1][3] == -1.7e308
        assert rows[0][2] == rows[2][0] == 0.5 * 1e308 + 0.5 * np.nextafter(1e308, 0.0)

    def test_symmetrizing_keeps_the_sign_of_the_mean_of_zeros(self):
        m = np.eye(4)
        m[0, 1], m[1, 0] = -0.0, 0.0
        m[0, 3], m[3, 0] = -0.0, -0.0
        rows = CovMatrix(m).tolist()
        assert math.copysign(1.0, rows[0][1]) == math.copysign(1.0, rows[1][0]) == 1.0
        assert math.copysign(1.0, rows[0][3]) == math.copysign(1.0, rows[3][0]) == -1.0

    def test_rejects_bad_shape(self):
        # The 4x4x1 array must fail on every numpy, including those where
        # float() still unwraps a one-element array.
        bad = [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1], [0, 0, 0, 1]],
            [[1, 0, 0, 0]] * 5,
            [[1, 0], [0, 1]],
            [[1, 0, 0, 0]] * 3,
            1.0,
            np.eye(3),
            np.eye(4).reshape(4, 4, 1),
            [[str(float(i == j)) for j in range(4)] for i in range(4)],
            # Bytes iterate as byte values, a dict as its keys, a set unordered.
            [b"\x01\x00\x00\x00", b"\x00\x01\x00\x00", b"\x00\x00\x01\x00", b"\x00\x00\x00\x01"],
            {tuple(float(i == j) for j in range(4)): None for i in range(4)},
            {tuple(float(i == j) for j in range(4)) for i in range(4)},
        ]
        for entries in bad:
            with pytest.raises(ValidationError, match="must be 4x4: four rows of four numbers"):
                CovMatrix(entries)

    def test_immutable(self):
        v = CovMatrix.vacuum()
        with pytest.raises(ValueError):
            v.matrix[0, 0] = 2.0


class TestBlocks:
    def test_vacuum(self):
        b = blocks(CovMatrix.vacuum())
        assert np.array_equal(b.a1, np.eye(2))
        assert np.array_equal(b.a2, np.eye(2))
        assert np.array_equal(b.c, np.zeros((2, 2)))

    def test_fixture_cm_d(self):
        b = blocks(CM_D)
        assert np.array_equal(b.a1, np.diag([2.55, 1.80]))
        assert np.array_equal(b.a2, np.diag([2.55, 1.80]))
        assert np.array_equal(b.c, np.diag([1.033, -1.26]))
        assert b.c_q == 1.033 and b.c_p == -1.26

    def test_highly_squeezed_correlations(self):
        b = blocks(HIGHLY_SQUEEZED)
        assert np.array_equal(b.c, np.diag([-47.5, 0.095]))

    def test_reassemble_bit_exact(self):
        for v in random_states(50):
            assert np.array_equal(reassemble(blocks(v)).matrix, v.matrix)


class TestValidatePhysicality:
    def test_vacuum(self):
        d = validate_physicality(CovMatrix.vacuum())
        assert d.physical
        assert d.nu.nu_minus == pytest.approx(1.0, abs=1e-12)
        assert d.nu.nu_plus == pytest.approx(1.0, abs=1e-12)

    def test_highly_squeezed_is_physical_pure(self):
        d = validate_physicality(HIGHLY_SQUEEZED)
        assert d.physical
        # pure state: double symplectic root at 1 (quartic noise ~1e-8 here)
        assert d.nu.nu_minus == pytest.approx(1.0, abs=1e-7)
        assert d.nu.nu_plus == pytest.approx(1.0, abs=1e-7)
        assert d.boundary

    def test_excessive_correlation_unphysical(self):
        bad = eq19_matrix(2.54)
        d = validate_physicality(bad)
        assert not d.physical
        assert oracle_min_uncertainty_eigenvalue(bad.matrix) < -1e-6

    def test_det_condition_value(self):
        # determinant-form uncertainty quantity for CM_D
        b = blocks(CM_D)
        expected = (
            1.0
            + np.linalg.det(CM_D.matrix)
            - 2.0 * np.linalg.det(b.c)
            - np.linalg.det(b.a1)
            - np.linalg.det(b.a2)
        )
        assert validate_physicality(CM_D).det_condition == pytest.approx(expected, rel=1e-12)

    def test_strongly_squeezed_pure_states_physical(self):
        # Seeds 3-6 left the symplectic quartic with a negative discriminant.
        for seed, v in enumerate(random_states(200, params=RandomStateParams(1, 1, 9))):
            d = validate_physicality(v)
            assert d.physical, f"seed {seed}"
            assert np.isfinite([d.nu.nu_minus, d.nu.nu_plus]).all(), f"seed {seed}"

    def test_indefinite_matrix_spectrum_is_clamped(self):
        # det a1 = -1: the quartic's roots in nu^2 are -1 and 1.
        d = validate_physicality(CovMatrix(np.diag([-1.0, 1.0, 1.0, 1.0])))
        assert not d.physical
        assert (d.nu.nu_minus, d.nu.nu_plus) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "diagonal, min_eig",
        [
            # V is singular, but V + i*Omega is far from positive semidefinite.
            ([1e-12, 1.0, 1.0, 1.0], -0.618),
            # det a1 < 1 with max|V| = 1e6: the violation is far past the
            # eigenvalue roundoff there (about 2e-10).
            ([1e6, 5e-7, 1.0, 1.0], -5e-7),
            ([1e6, 1e-12, 1.0, 1.0], -1e-6),
        ],
    )
    def test_unphysical_matrix_is_not_boundary(self, diagonal, min_eig):
        v = CovMatrix(np.diag(diagonal))
        d = validate_physicality(v)
        assert not d.physical and not d.boundary
        assert oracle_min_uncertainty_eigenvalue(v.matrix) == pytest.approx(min_eig, rel=1e-3)

    def test_entries_near_the_float_limit_are_diagnosed(self):
        # The determinants overflow: a spectrum and det_condition of no finite value.
        d = validate_physicality(np.diag([1e308] * 4))
        assert d.physical and not d.boundary
        assert math.isnan(d.nu.nu_minus) and math.isnan(d.nu.nu_plus)
        assert not math.isfinite(d.det_condition)

    def test_verdict_matches_uncertainty_eigenvalue(self):
        for seed, v in enumerate(random_states(100)):
            d = validate_physicality(v)
            assert d.physical, f"seed {seed}"
            assert oracle_min_uncertainty_eigenvalue(v.matrix) >= -1e-9


class TestSymplecticSpectrum:
    def test_vacuum(self):
        nu = symplectic_spectrum(CovMatrix.vacuum())
        assert nu.nu_minus == pytest.approx(1.0, abs=1e-12)
        assert nu.nu_plus == pytest.approx(1.0, abs=1e-12)

    def test_highly_squeezed_pt_value(self):
        # PT spectrum solves nu^4 - 20.05 nu^2 + 1 = 0; nu_minus = sqrt(0.05)
        nu = symplectic_spectrum(HIGHLY_SQUEEZED, partial_transpose_mode=2)
        assert nu.nu_minus == pytest.approx(np.sqrt(0.05), abs=1e-9)
        assert nu.nu_minus == pytest.approx(0.2236, abs=5e-4)

    def test_separable_fixture_pt_above_one(self):
        nu = symplectic_spectrum(eq19_matrix(0.3825), partial_transpose_mode=2)
        assert nu.nu_minus >= 1.0
        assert nu.nu_minus == pytest.approx(1.0818733752, abs=1e-9)

    def test_pt_mode_choice_irrelevant(self):
        for v in random_states(20):
            n1 = symplectic_spectrum(v, partial_transpose_mode=1)
            n2 = symplectic_spectrum(v, partial_transpose_mode=2)
            assert n1.nu_minus == pytest.approx(n2.nu_minus, rel=1e-12)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            symplectic_spectrum(CM_D, partial_transpose_mode=3)

    def test_against_eigen_oracle(self):
        for v in random_states(100):
            nu = symplectic_spectrum(v)
            expect = oracle_symplectic_eigenvalues(v.matrix)
            assert nu.nu_minus == pytest.approx(expect[0], rel=1e-8)
            assert nu.nu_plus == pytest.approx(expect[1], rel=1e-8)

    def test_pt_against_eigen_oracle(self):
        for v in random_states(50):
            nu = symplectic_spectrum(v, partial_transpose_mode=2)
            expect = oracle_symplectic_eigenvalues(oracle_partial_transpose(v.matrix))
            assert nu.nu_minus == pytest.approx(expect[0], rel=1e-8)

    def test_pt_preserves_determinant(self):
        # sign flip touches only off-diagonal correlation signs
        for v in random_states(1000):
            det_v = np.linalg.det(v.matrix)
            det_pt = np.linalg.det(oracle_partial_transpose(v.matrix))
            assert abs(det_pt - det_v) <= 1e-12 * abs(det_v)


class TestPurities:
    def test_vacuum(self):
        p = purities(CovMatrix.vacuum())
        assert p.mu == p.mu1 == p.mu2 == 1.0
        assert p.sigma1 == p.sigma2 == 0.0
        assert p.impurity1 == p.impurity2 == 0.0

    def test_highly_squeezed(self):
        p = purities(HIGHLY_SQUEEZED)
        assert p.mu == pytest.approx(1.0, abs=1e-9)
        assert p.sigma1 == pytest.approx(50.605, abs=1e-9)
        assert p.sigma2 == pytest.approx(50.605, abs=1e-9)
        assert p.impurity1 == pytest.approx(4.5125, abs=1e-9)

    def test_eq19_family_invariant_in_cq(self):
        for c_q in (0.3825, 0.893, 1.033, 1.275):
            p = purities(eq19_matrix(c_q))
            assert p.sigma1 == pytest.approx(2.35, abs=1e-12)
            assert p.impurity1 == pytest.approx(3.59, abs=1e-12)

    def test_nonpositive_determinant_rejected(self):
        m = np.eye(4)
        m[0, 1] = m[1, 0] = 2.0  # det a1 = -3
        with pytest.raises(ValidationError, match="unphysical"):
            purities(CovMatrix(m))

    def test_unphysical_state_rejected(self):
        with pytest.raises(ValidationError, match=r"^unphysical state .*uncertainty bound"):
            purities(eq19_matrix(2.54))

    def test_roundoff_determinant_gives_nan_purity(self):
        # A pure state whose rounded entries leave det V <= 0: physical, mu undefined.
        v = random_physical_state(9, RandomStateParams(1.0, 1.0, 11.0))
        assert validate_physicality(v).physical
        assert exact_reference_witnesses(v.matrix)["det_v"] <= 0
        assert np.isnan(purities(v).mu)

    def test_exact_determinant_gives_finite_purity(self):
        # A pure state whose float det V (LU) rounds to <= 0; the exact det V
        # of the stored entries is positive (193.2), so mu is a number.
        v = random_physical_state(49, RandomStateParams(1.0, 1.0, 11.0))
        assert validate_physicality(v).physical
        assert np.linalg.det(v.matrix) <= 0.0
        det_v = exact_reference_witnesses(v.matrix)["det_v"]
        assert purities(v).mu == float(det_v) ** -0.5


class TestLocalSymplectic:
    def test_matrices_are_symplectic(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = LocalSymplectic(*rng.uniform(-2, 2, 6))
            mat = s.matrix()
            assert np.abs(mat @ OMEGA @ mat.T - OMEGA).max() < 1e-12

    def test_congruence_is_exact_then_rounded_once(self):
        # S_j = R(theta_j) Z(r_j) R(phi_j) of the float cosines, sines and
        # exponentials, and S V S^T, in rationals: each entry rounded once.
        def rotation(t):
            c, s = Fraction(math.cos(t)), Fraction(math.sin(t))
            return [[c, -s], [s, c]]

        def squeeze(r):
            return [[Fraction(math.exp(r)), Fraction(0)], [Fraction(0), Fraction(math.exp(-r))]]

        rng = np.random.default_rng(13)
        for v in random_states(50, params=RandomStateParams(squeeze_max=9.0)):
            s = LocalSymplectic(*rng.uniform(-3, 3, 6).tolist())
            modes = [_mul(rotation(t), squeeze(r), rotation(p)) for t, r, p in (s[:3], s[3:])]
            zero = [Fraction(0)] * 2
            full = [row + zero for row in modes[0]] + [zero + row for row in modes[1]]
            m = [[Fraction(x) for x in row] for row in v.tolist()]
            want = [
                [float(sum(full[i][k] * m[k][l] * full[j][l] for k in range(4) for l in range(4)))
                 for j in range(4)]
                for i in range(4)
            ]
            assert apply_local_symplectic(v, s).tolist() == want
            assert s.matrix().tolist() == [[float(x) for x in row] for row in full]

    def test_identity_fixed_point(self):
        out = apply_local_symplectic(CM_D, LocalSymplectic.identity())
        assert np.allclose(out.matrix, CM_D.matrix, atol=1e-15)

    def test_quarter_rotation_swaps_quadratures(self):
        out = apply_local_symplectic(CM_D, LocalSymplectic.rotation(np.pi / 2))
        assert out.matrix[0, 0] == pytest.approx(1.80, abs=1e-12)
        assert out.matrix[1, 1] == pytest.approx(2.55, abs=1e-12)
        # mode 2 untouched
        assert out.matrix[2, 2] == pytest.approx(2.55, abs=1e-12)
        assert ppt_witness(out) == pytest.approx(ppt_witness(CM_D), rel=1e-9)

    def test_local_squeeze_changes_robustness_not_entanglement(self):
        from cvrobust import full_robustness_witness

        v = build(FullySymmetric(s=np.cosh(1.0), c=np.sinh(1.0)))
        s = LocalSymplectic.squeeze(0.6, 0.6)
        out = apply_local_symplectic(v, s)
        assert ppt_witness(out) == pytest.approx(ppt_witness(v), rel=1e-9)
        assert full_robustness_witness(out) != pytest.approx(
            full_robustness_witness(v), rel=1e-3
        )

    def test_spectrum_invariance(self):
        rng = np.random.default_rng(11)
        for v in random_states(200):
            s = LocalSymplectic(*rng.uniform(-1.5, 1.5, 6))
            before = symplectic_spectrum(v)
            after = symplectic_spectrum(apply_local_symplectic(v, s))
            assert after.nu_minus == pytest.approx(before.nu_minus, rel=1e-9)
            assert after.nu_plus == pytest.approx(before.nu_plus, rel=1e-9)

    def test_physicality_preserved(self):
        rng = np.random.default_rng(12)
        for v in random_states(100):
            s = LocalSymplectic(*rng.uniform(-1.5, 1.5, 6))
            assert validate_physicality(apply_local_symplectic(v, s)).physical

    @pytest.mark.parametrize(
        "params",
        [dict(r1=1000.0), dict(r2=-1000.0), dict(r1=math.nan), dict(theta2=math.inf)],
        ids=["overflowing-r1", "overflowing-r2", "nan-r1", "infinite-theta2"],
    )
    def test_bad_parameters_raise_validation_error(self, params):
        # e^1000 raised OverflowError and NaN raised ValueError from as_integer_ratio.
        with pytest.raises(ValidationError, match="overflows|finite"):
            apply_local_symplectic(CM_D, LocalSymplectic(**params))
