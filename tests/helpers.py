"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's analytic shortcuts:
spectra come from dense eigendecompositions and attenuated witnesses from
direct matrix congruence, so they can vouch for the closed-form paths.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from cvrobust import (
    CovMatrix,
    GammaSet,
    RandomStateParams,
    boundary_band,
    classify,
    gamma_coefficients,
    ppt_witness,
    random_physical_state,
    reduced_witness,
    validate_physicality,
)
from cvrobust._exact import _UNPHYSICAL, Matrix, _band_bounds, _verdict
from cvrobust._maps import _REGIONS
from cvrobust.covariance import _upper
from cvrobust.robustness import _rounded_corners

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

# Physical and separable; its corners are finite, but sigma2/sigma1 is not.
SQUEEZED_MODE = CovMatrix(np.diag([1.000000001, 1.000000001, 1e300, 1e-300]))


def pure_two_mode_squeezed(x: float) -> CovMatrix:
    """The pure two-mode squeezed state with ``cosh 2r = x``."""
    y = math.sqrt(x * x - 1)
    return CovMatrix([[x, 0, y, 0], [0, x, 0, -y], [y, 0, x, 0], [0, -y, 0, x]])


#: ``cosh 2r`` of pure two-mode squeezed states across the overflow of their
#: Gamma set: ``lambda4`` (about ``2 x^4``) leaves float range from 1e77 on,
#: ``lambda1`` and ``lambda2`` by 1e150, and the float ``det V`` of ``scan``'s
#: cell ``(1, 1)`` from 1.2e77 on; the corners (about ``-4 x^2``) stay finite.
OVERFLOW_LADDER = (1e76, 1e77, 1.2e77, 1e78, 1e80, 1e150)


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


def reference_physicality(m: np.ndarray):
    """Two-eigenvalue physicality verdict with an absolute tolerance of 1e-9.

    ``(physical, boundary)`` over a stack ``(..., 4, 4)``: the smallest
    eigenvalues of both ``V`` and ``V + i*Omega`` must be ``>= -1e-9``, and
    either one within 1e-9 of 0 flags the boundary.  On well-scaled inputs
    the package's single scaled test must reproduce it.
    """
    tol = 1e-9
    min_eig_v = np.linalg.eigvalsh(m)[..., 0]
    min_eig_unc = np.linalg.eigvalsh(m + 1j * OMEGA)[..., 0]
    physical = (min_eig_v >= -tol) & (min_eig_unc >= -tol)
    boundary = (np.abs(min_eig_v) <= tol) | (np.abs(min_eig_unc) <= tol)
    return physical, boundary


def kernel_physicality(m: np.ndarray):
    """``(physical, boundary)`` of ``validate_physicality``'s exact test over a stack ``(..., 4, 4)``."""
    cells = (Matrix(_upper(rows)) for rows in m.reshape(-1, 4, 4).tolist())
    verdicts = [x.physicality() for x in cells]
    out = np.array(verdicts, dtype=bool).reshape(m.shape[:-2] + (2,))
    return out[..., 0], out[..., 1]


def _principal_minor_sums(h):
    """``e1 .. e4`` of a 4x4 matrix of Gaussian rationals ``(re, im)``.

    Each ``e_k`` sums the ``k x k`` principal minors, each expanded over
    the permutations of its rows; the sums of a Hermitian matrix are real.
    """
    sums = []
    for k in range(1, 5):
        total = [Fraction(0), Fraction(0)]
        for rows in itertools.combinations(range(4), k):
            for cols in itertools.permutations(rows):
                inversions = sum(a > b for a, b in itertools.combinations(cols, 2))
                re, im = Fraction(1), Fraction(0)
                for r, c in zip(rows, cols):
                    a, b = h[r][c]
                    re, im = re * a - im * b, re * b + im * a
                total[0] += -re if inversions % 2 else re
                total[1] += -im if inversions % 2 else im
        assert total[1] == 0
        sums.append(total[0])
    return sums


def exact_reference_physicality(m: np.ndarray) -> tuple[bool, bool]:
    """``(physical, boundary)`` of one symmetric matrix in exact rationals.

    Every eigenvalue of the Hermitian ``V + i*Omega + s*I`` is ``>= 0``
    exactly when all four sums of its principal minors are, and ``> 0``
    when all are positive.  With ``tol = max(1e-9, 32*eps*max(1, max|V|))``,
    ``physical`` is the first at ``s = tol`` and ``boundary`` is
    ``physical`` without the second at ``s = -tol``.
    """
    eps = np.finfo(float).eps
    tol = Fraction(max(1e-9, 32 * eps * max(1.0, float(np.abs(m).max()))))

    def sums(shift):
        h = [
            [(Fraction(float(x)), Fraction(int(w))) for x, w in zip(row, omega_row)]
            for row, omega_row in zip(m, OMEGA)
        ]
        for i in range(4):
            h[i][i] = (h[i][i][0] + shift, h[i][i][1])
        return _principal_minor_sums(h)

    physical = min(sums(tol)) >= 0
    return physical, physical and min(sums(-tol)) <= 0


def _det(rows):
    """Determinant of a square matrix of rationals by permutation expansion."""
    n = len(rows)
    total = Fraction(0)
    for cols in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(cols, 2))
        term = Fraction(1)
        for r, c in enumerate(cols):
            term *= rows[r][c]
        total += -term if inversions % 2 else term
    return total


def _mul(*factors):
    """Product of 2x2 matrices of rationals, left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = [[sum(out[i][k] * f[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return out


def _trace(x):
    return x[0][0] + x[1][1]


def _transpose(x):
    return [[x[0][0], x[1][0]], [x[0][1], x[1][1]]]


def _minus_identity(x):
    return [[x[0][0] - 1, x[0][1]], [x[1][0], x[1][1] - 1]]


def exact_reference_witnesses(m: np.ndarray) -> dict:
    """The Gamma set, ``det V``, ``delta``, ``det_condition`` and the corners of one matrix, exactly.

    Follows the definitions, not the package's integer scaling: each entry
    becomes a ``Fraction``, the ``lambda`` traces are products of 2x2 blocks
    with ``J``, ``gamma22 = det(V - I)`` and ``det V`` are permutation
    expansions, and the corners are ``w_ppt = 1 + det V + 2 det c - det a1 -
    det a2``, ``w_full = gamma11``, ``w_ch1 = gamma11 + gamma12`` and
    ``w_ch2 = gamma11 + gamma21``.
    """
    v = [[Fraction(float(x)) for x in row] for row in m]
    a1 = [row[:2] for row in v[:2]]
    a2 = [row[2:] for row in v[2:]]
    c = [row[2:] for row in v[:2]]
    c_t = _transpose(c)
    j = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    det_a1, det_a2, det_c = _det(a1), _det(a2), _det(c)
    sigma1, sigma2 = _trace(a1) - 2, _trace(a2) - 2
    impurity1, impurity2 = det_a1 - 1, det_a2 - 1
    lambda1 = _trace(_mul(c_t, j, _minus_identity(a1), j, c))
    lambda2 = _trace(_mul(c, j, _minus_identity(a2), j, c_t))
    lambda_c = _trace(_mul(c_t, c))
    lambda4 = _trace(_mul(a1, j, c, j, a2, j, c_t, j))
    det_v = _det(v)
    out = {
        "gamma11": sigma1 * sigma2 - lambda_c + 2 * det_c,
        "gamma12": sigma1 * (impurity2 - sigma2) + lambda2,
        "gamma21": sigma2 * (impurity1 - sigma1) + lambda1,
        "gamma22": _det([[x - (i == k) for k, x in enumerate(row)] for i, row in enumerate(v)]),
        "lambda1": lambda1,
        "lambda2": lambda2,
        "lambda_c": lambda_c,
        "lambda4": lambda4,
        "eta": sigma1 * (impurity2 - sigma2)
        + sigma2 * (impurity1 - sigma1)
        + sigma1 * sigma2
        + det_a1
        + det_a2
        + lambda1
        + lambda2
        - lambda_c
        - 1,
        "sigma1": sigma1,
        "sigma2": sigma2,
        "impurity1": impurity1,
        "impurity2": impurity2,
        "det_v": det_v,
        "delta": det_a1 + det_a2 + 2 * det_c,
        "det_condition": 1 + det_v - 2 * det_c - det_a1 - det_a2,
        "w_ppt": 1 + det_v + 2 * det_c - det_a1 - det_a2,
    }
    out["w_full"] = out["gamma11"]
    out["w_ch1"] = out["gamma11"] + out["gamma12"]
    out["w_ch2"] = out["gamma11"] + out["gamma21"]
    return out


def exact_reference_class(m: np.ndarray, band: float):
    """``(label, robust_mode, boundary_flags)`` from the exact corners and the float ``band``.

    The decision chain of the paper: ``w_ppt >= 0`` is separable; a corner
    at most ``band`` counts as robust; ``|w| <= band`` flags the corner.
    """
    w = exact_reference_witnesses(m)
    band = Fraction(band)
    flags = {name for name in ("w_ppt", "w_full", "w_ch1", "w_ch2") if abs(w[name]) <= band}
    if not w["w_ppt"] < 0:
        return "Separable", None, flags
    r1, r2, rf = w["w_ch1"] <= band, w["w_ch2"] <= band, w["w_full"] <= band
    if r1 and r2:
        return ("FullyRobust" if rf else "PartiallyRobustSymmetric"), None, flags
    if r1 or r2:
        return "PartiallyRobustAsymmetric", 1 if r1 else 2, flags
    return "Fragile", None, flags


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


def reference_random_physical_state(seed: int, params: RandomStateParams | None = None):
    """``random_physical_state`` from numpy's own draws, in exact rationals.

    The draws come from ``np.random.default_rng``; the cosines, sines and
    exponentials of them are floats, as in the package.  ``S^T D S`` is then
    formed in ``Fraction`` arithmetic, by the definition, and each entry is
    rounded once.
    """
    p = params or RandomStateParams()
    rng = np.random.default_rng(seed)
    nu1, nu2 = rng.uniform(p.nu_min, p.nu_max, 2).tolist()
    theta1, phi1, theta2, phi2, mix = rng.uniform(-math.pi, math.pi, 5).tolist()
    r1, r2 = rng.uniform(-p.squeeze_max, p.squeeze_max, 2).tolist()
    zero = Fraction(0)

    def rotation(t):
        c, s = Fraction(math.cos(t)), Fraction(math.sin(t))
        return [[c, -s], [s, c]]

    def squeeze(r):
        return [[Fraction(math.exp(r)), zero], [zero, Fraction(math.exp(-r))]]

    s1 = _mul(rotation(theta1), squeeze(r1), rotation(phi1))
    s2 = _mul(rotation(theta2), squeeze(r2), rotation(phi2))
    local = [s1[0] + [zero, zero], s1[1] + [zero, zero], [zero, zero] + s2[0], [zero, zero] + s2[1]]
    c, s = Fraction(math.cos(mix)), Fraction(math.sin(mix))
    mixer = [[c, zero, s, zero], [zero, c, zero, s], [-s, zero, c, zero], [zero, -s, zero, c]]
    sm = [[sum(local[i][k] * mixer[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    nu = [Fraction(nu1)] * 2 + [Fraction(nu2)] * 2
    return CovMatrix(
        [
            [float(sum(sm[k][i] * nu[k] * sm[k][j] for k in range(4))) for j in range(4)]
            for i in range(4)
        ]
    )


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


def symmetric_modes_upper(dq, dp, c_q, c_p) -> tuple:
    """The ten upper-triangle entries of a ``SymmetricModes`` matrix, row by row."""
    return (dq, 0.0, c_q, 0.0, dp, 0.0, c_p, dq, 0.0, dp)


def exact_verdict(upper):
    """Map verdict ``(code, boundary)`` of one symmetric matrix through ``_exact.Matrix``.

    ``upper`` holds the ten finite upper-triangle floats.  The verdicts of
    ``validate_physicality`` and ``classify`` on the general 4x4 kernel:
    the code ``_UNPHYSICAL`` and no flag when the matrix is unphysical,
    else its class code and whether a corner lies in the zero band.  The
    physicality boundary flag is not a map flag.  Raises
    ``ValidationError`` when a rounded corner is not finite.
    """
    x = Matrix(upper)
    if not x.physicality()[0]:
        return _UNPHYSICAL, False
    corners, _ = _rounded_corners(x)
    nums, dens = zip(*corners)
    code, flags = _verdict(nums, _band_bounds(x.scale, dens))
    return code, any(flags)


def reference_region_map(x, y, cell):
    """Labels and boundary flags of a region map, every cell through ``_exact.Matrix``.

    The oracle of the region maps' closed form: every cell goes through
    :func:`exact_verdict`, the general exact kernel that ``classify`` uses.
    ``cell(x, y)`` gives the ten upper-triangle entries of the cell's
    matrix, as the region maps build them.
    """
    ys = list(map(float, y))
    verdicts = [
        [exact_verdict(upper) for upper in (cell(xi, yj) for yj in ys)]
        for xi in map(float, x)
    ]
    labels = np.array([[_REGIONS[code] for code, _ in row] for row in verdicts], dtype=object)
    return labels, np.array([[flag for _, flag in row] for row in verdicts], dtype=bool)


def strict_json(text: str):
    """``json.loads`` that rejects the non-standard NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _bisect_vertical(g: GammaSet, t1: float, lo: float, hi: float) -> float | None:
    f_lo = reduced_witness(g, (t1, lo))
    f_hi = reduced_witness(g, (t1, hi))
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = reduced_witness(g, (t1, mid))
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_esd_contour(v: CovMatrix, samples: int = 256) -> np.ndarray:
    """Per-``t1`` ESD contour with a bisection fallback at the vertical asymptote.

    The scalar loop the closed-form ``esd_contour`` must reproduce: where the
    denominator ``gamma22*t1 + gamma12`` nearly vanishes it bisects along
    the vertical line, and it keeps points whose witness lies within
    ``1e-9 * max(1, max|V|**2)`` of zero.
    """
    g = gamma_coefficients(v)
    band = 1e-9 * max(1.0, float(np.abs(v.matrix).max()) ** 2)
    eps = 1e-12 * max(1.0, abs(g.gamma22), abs(g.gamma12))
    tiny = 1e-12
    points = []
    for t1 in np.linspace(0.0, 1.0, samples + 1)[1:]:
        den = g.gamma22 * t1 + g.gamma12
        if abs(den) < eps:
            t2 = _bisect_vertical(g, t1, tiny, 1.0)
        else:
            t2 = -(g.gamma21 * t1 + g.gamma11) / den
        if t2 is None or not (0.0 < t2 <= 1.0):
            continue
        if abs(reduced_witness(g, (t1, t2))) <= band:
            points.append((float(t1), float(t2)))
    if not points:
        return np.empty((0, 2))
    return np.array(points)


def exact_esd_contour(v: CovMatrix, samples: int = 256) -> list:
    """The ESD contour from the exact Gamma set, each ``t2`` rounded once.

    At each sample ``t1`` of ``np.linspace(0, 1, samples + 1)[1:]``, taken
    as the exact value of its float, the root of ``W_R(t1, t2) = 0`` is a
    ``Fraction`` from :func:`exact_reference_witnesses`; the point is kept
    when the root exists and lies in ``(0, 1]``.  Returns ``(t1, t2)``
    float pairs.
    """
    w = exact_reference_witnesses(v.matrix)
    points = []
    for t1 in map(float, np.linspace(0.0, 1.0, samples + 1)[1:]):
        exact_t1 = Fraction(t1)
        den = w["gamma12"] + exact_t1 * w["gamma22"]
        if den != 0:
            root = -(w["gamma11"] + exact_t1 * w["gamma21"]) / den
            if 0 < root <= 1:
                points.append((t1, float(root)))
    return points
