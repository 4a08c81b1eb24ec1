"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's analytic shortcuts:
spectra come from dense eigendecompositions and attenuated witnesses from
direct matrix congruence, so they can vouch for the closed-form paths.
"""

import numpy as np

from cvrobust import (
    CovMatrix,
    RandomStateParams,
    boundary_band,
    classify,
    ppt_witness,
    random_physical_state,
    validate_physicality,
)

I4 = np.eye(4)
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[J2, np.zeros((2, 2))], [np.zeros((2, 2)), J2]])


def eq19_matrix(c_q: float) -> CovMatrix:
    """Symmetric-mode fixture family: variances (2.55, 1.80), c_p = -1.26."""
    return CovMatrix(
        [
            [2.55, 0.0, c_q, 0.0],
            [0.0, 1.80, 0.0, -1.26],
            [c_q, 0.0, 2.55, 0.0],
            [0.0, -1.26, 0.0, 1.80],
        ]
    )


# The four single-parameter fixtures (fully robust / fragile / separable /
# partially robust) and the asymmetric state obtained from CM_D at T2 = 0.40.
CM_A = eq19_matrix(1.275)
CM_B = eq19_matrix(0.893)
CM_C = eq19_matrix(0.3825)
CM_D = eq19_matrix(1.033)
CM_E = CovMatrix(
    [
        [2.55, 0.0, 0.653, 0.0],
        [0.0, 1.80, 0.0, -0.797],
        [0.653, 0.0, 1.62, 0.0],
        [0.0, -0.797, 0.0, 1.32],
    ]
)

# Pure, strongly squeezed, and only partially robust.
HIGHLY_SQUEEZED = CovMatrix(
    [
        [52.5, 0.0, -47.5, 0.0],
        [0.0, 0.105, 0.0, 0.095],
        [-47.5, 0.0, 52.5, 0.0],
        [0.0, 0.095, 0.0, 0.105],
    ]
)


def oracle_symplectic_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues via eig(Omega @ V): moduli of the +-i*nu pairs."""
    eigs = np.linalg.eigvals(OMEGA @ m)
    nus = np.sort(np.abs(eigs.imag))
    return nus[[0, 2]]  # each nu appears twice; keep one of each


def oracle_partial_transpose(m: np.ndarray, mode: int = 2) -> np.ndarray:
    """Flip the sign of one mode's phase quadrature row and column."""
    f = np.diag([1.0, -1.0, 1.0, 1.0] if mode == 1 else [1.0, 1.0, 1.0, -1.0])
    return f @ m @ f


def oracle_min_uncertainty_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian uncertainty matrix V + i*Omega."""
    return float(np.linalg.eigvalsh(m + 1j * OMEGA)[0])


def oracle_attenuate(m: np.ndarray, t1: float, t2: float) -> np.ndarray:
    l = np.diag(np.repeat([np.sqrt(t1), np.sqrt(t2)], 2))
    return l @ (m - I4) @ l + I4


def oracle_ppt(m: np.ndarray) -> float:
    det_a1 = np.linalg.det(m[:2, :2])
    det_a2 = np.linalg.det(m[2:, 2:])
    det_c = np.linalg.det(m[:2, 2:])
    return float(1.0 + np.linalg.det(m) + 2.0 * det_c - det_a1 - det_a2)


def oracle_attenuated_ppt_grid(m: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Vectorized ppt(attenuate(m, (t1, t2))) over the grid ts x ts.

    Output is indexed ``[i, j] -> (t1=ts[i], t2=ts[j])``.
    """
    root = np.sqrt(ts)
    lvec = np.zeros((len(ts), len(ts), 4))
    lvec[..., 0] = lvec[..., 1] = root[:, None]
    lvec[..., 2] = lvec[..., 3] = root[None, :]
    w = lvec[..., :, None] * lvec[..., None, :] * (m - I4) + I4
    det_v = np.linalg.det(w)
    det_a1 = w[..., 0, 0] * w[..., 1, 1] - w[..., 0, 1] * w[..., 1, 0]
    det_a2 = w[..., 2, 2] * w[..., 3, 3] - w[..., 2, 3] * w[..., 3, 2]
    det_c = w[..., 0, 2] * w[..., 1, 3] - w[..., 0, 3] * w[..., 1, 2]
    return 1.0 + det_v + 2.0 * det_c - det_a1 - det_a2


def random_states(n: int, start_seed: int = 0, params: RandomStateParams | None = None):
    """The first n seeded random physical states."""
    return [random_physical_state(s, params) for s in range(start_seed, start_seed + n)]


def random_entangled_states(n: int, start_seed: int = 0, params=None):
    """The first n seeded random states that are strictly entangled."""
    out = []
    seed = start_seed
    while len(out) < n:
        v = random_physical_state(seed, params)
        if ppt_witness(v) < -boundary_band(v):
            out.append(v)
        seed += 1
    return out


REGION_OF_LABEL = {
    "FullyRobust": "I",
    "PartiallyRobustSymmetric": "II",
    "PartiallyRobustAsymmetric": "II",
    "Fragile": "III",
    "Separable": "IV",
}


def symmetric_modes_matrix(dq, dp, c_q, c_p) -> np.ndarray:
    return np.array(
        [[dq, 0.0, c_q, 0.0], [0.0, dp, 0.0, c_p], [c_q, 0.0, dq, 0.0], [0.0, c_p, 0.0, dp]]
    )


def correlations_cell(dq: float, dp: float):
    """Cell matrix of the correlation map: ``(cbar_p, cbar_q) -> V``."""
    return lambda cp, cq: symmetric_modes_matrix(dq, dp, cq * dq, cp * dp)


def epr_cell(mu_minus: float, mu_plus: float):
    """Cell matrix of the EPR map: ``(q_plus_var, p_minus_var) -> V``."""

    def matrix(q_plus, p_minus):
        q_minus = 1.0 / (mu_minus**2 * p_minus)
        p_plus = 1.0 / (mu_plus**2 * q_plus)
        return symmetric_modes_matrix(
            0.5 * (q_plus + q_minus),
            0.5 * (p_plus + p_minus),
            0.5 * (q_plus - q_minus),
            0.5 * (p_plus - p_minus),
        )

    return matrix


def reference_region_labels(x, y, cell):
    """Per-cell region map: ``CovMatrix``, ``validate_physicality`` and ``classify``.

    The definition the batched region maps must reproduce: an unphysical
    cell is labeled ``"unphysical"`` and flagged when it sits within
    tolerance of the physicality boundary; a physical one gets the region
    of its class and is flagged when a corner witness is in the zero band.
    """
    labels = np.empty((len(x), len(y)), dtype=object)
    boundary = np.zeros((len(x), len(y)), dtype=bool)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            cov = CovMatrix(cell(xi, yj))
            diag = validate_physicality(cov)
            if not diag.physical:
                labels[i, j], boundary[i, j] = "unphysical", diag.boundary
                continue
            report = classify(cov)
            labels[i, j] = REGION_OF_LABEL[report.cls.label]
            boundary[i, j] = bool(report.boundary_flags)
    return labels, boundary
