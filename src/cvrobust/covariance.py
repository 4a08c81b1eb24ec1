"""Two-mode Gaussian covariance matrices: data model and symplectic analysis.

Conventions used throughout the package:

* quadrature ordering is ``(q1, p1, q2, p2)``;
* the commutator is ``[p, q] = 2i``, so the vacuum covariance matrix is the
  identity and the standard quantum level (shot noise) equals 1;
* a covariance matrix ``V`` describes a physical state when ``V + i*Omega``
  is positive semidefinite, equivalently when ``V`` is positive semidefinite
  and its smallest symplectic eigenvalue is >= 1.

All values are dimensionless noise powers relative to shot noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "J2",
    "OMEGA",
    "CovMatrix",
    "Blocks",
    "SymplecticSpectrum",
    "PhysicalityDiagnosis",
    "Purities",
    "LocalSymplectic",
    "blocks",
    "reassemble",
    "validate_physicality",
    "symplectic_spectrum",
    "purities",
    "apply_local_symplectic",
    "rotation2",
    "squeeze2",
    "beam_splitter",
]

#: Relative tolerance for the symmetry check on input matrices.
SYMMETRY_RTOL = 1e-9

#: Absolute tolerance on ``nu_minus >= 1`` and on the smallest eigenvalue of V.
PHYSICALITY_TOL = 1e-9

# Discriminants of the symplectic quartic more negative than this (times the
# problem scale) indicate a genuinely unphysical input rather than roundoff.
_DISC_TOL = 1e-12

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)

OMEGA = np.block([[J2, np.zeros((2, 2))], [np.zeros((2, 2)), J2]])
OMEGA.setflags(write=False)

_I4 = np.eye(4)
_I4.setflags(write=False)


class CovMatrix:
    """A 4x4 real symmetric covariance matrix in ``(q1, p1, q2, p2)`` ordering.

    The constructor rejects matrices whose asymmetry exceeds
    ``SYMMETRY_RTOL * max|V|`` and then symmetrizes the input as
    ``(V + V^T) / 2`` so that file round trips with last-digit noise are
    accepted.  Instances are immutable.
    """

    __slots__ = ("_m",)

    ORDERING = "q1,p1,q2,p2"

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.shape != (4, 4):
            raise ValidationError(f"covariance matrix must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("covariance matrix contains non-finite entries")
        scale = float(np.abs(m).max())
        if float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * scale:
            raise ValidationError("covariance matrix is asymmetric beyond tolerance")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        self._m = m

    @classmethod
    def vacuum(cls) -> "CovMatrix":
        """Two-mode vacuum (identity covariance)."""
        return cls(np.eye(4))

    @property
    def matrix(self) -> np.ndarray:
        """The underlying 4x4 array (read-only view)."""
        return self._m

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._m.astype(dtype)
        return self._m

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(repr(float(x)) for x in row) for row in self._m
        )
        return f"CovMatrix([{rows}])"


def _as_cov(v) -> CovMatrix:
    return v if isinstance(v, CovMatrix) else CovMatrix(v)


def _det2(m: np.ndarray):
    """Determinants of 2x2 blocks over any leading batch axes."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


@dataclass(frozen=True)
class Blocks:
    """The 2x2 decomposition ``V = [[a1, c], [c^T, a2]]``.

    ``a1`` and ``a2`` are the reduced covariance matrices of each mode and
    ``c`` carries the intermode correlations; its diagonal holds
    ``c_q = <dq1 dq2>`` and ``c_p = <dp1 dp2>``.
    """

    a1: np.ndarray
    a2: np.ndarray
    c: np.ndarray

    @property
    def c_q(self) -> float:
        return float(self.c[0, 0])

    @property
    def c_p(self) -> float:
        return float(self.c[1, 1])


def blocks(v) -> Blocks:
    """Split a covariance matrix into its (a1, a2, c) submatrices."""
    m = _as_cov(v).matrix
    return Blocks(a1=m[:2, :2].copy(), a2=m[2:, 2:].copy(), c=m[:2, 2:].copy())


def reassemble(b: Blocks) -> CovMatrix:
    """Rebuild the covariance matrix from its blocks (exact round trip)."""
    return CovMatrix(np.block([[b.a1, b.c], [b.c.T, b.a2]]))


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues, sorted so that ``nu_minus <= nu_plus``."""

    nu_minus: float
    nu_plus: float


def _spectrum_from_invariants(delta: float, det_v: float) -> SymplecticSpectrum:
    # nu^2 are the roots of x^2 - delta*x + det_v = 0.
    disc = delta * delta - 4.0 * det_v
    tol = _DISC_TOL * max(1.0, delta * delta, abs(4.0 * det_v))
    if disc < -tol:
        raise ValidationError(
            "unphysical covariance matrix: complex symplectic spectrum"
        )
    root = math.sqrt(max(disc, 0.0))
    lo = 0.5 * (delta - root)
    hi = 0.5 * (delta + root)
    if lo < -tol:
        raise ValidationError(
            "unphysical covariance matrix: negative squared symplectic eigenvalue"
        )
    return SymplecticSpectrum(
        nu_minus=math.sqrt(max(lo, 0.0)), nu_plus=math.sqrt(max(hi, 0.0))
    )


def symplectic_spectrum(v, partial_transpose_mode: int | None = None) -> SymplecticSpectrum:
    """Symplectic eigenvalues of ``v``, optionally after partial transposition.

    Partial transposition of mode ``k`` flips the sign of that mode's phase
    quadrature, which at the covariance level flips the sign of ``det c``
    while leaving ``det a1``, ``det a2`` and ``det V`` unchanged.  The
    eigenvalues are the roots of ``nu^4 - delta*nu^2 + det V`` with
    ``delta = det a1 + det a2 + 2 det c``.

    A partially transposed ``nu_minus < 1`` certifies entanglement.
    """
    if partial_transpose_mode not in (None, 1, 2):
        raise ValueError("partial_transpose_mode must be 1 or 2")
    cov = _as_cov(v)
    b = blocks(cov)
    det_c = float(_det2(b.c))
    if partial_transpose_mode is not None:
        det_c = -det_c
    delta = float(_det2(b.a1)) + float(_det2(b.a2)) + 2.0 * det_c
    det_v = float(np.linalg.det(cov.matrix))
    return _spectrum_from_invariants(delta, det_v)


@dataclass(frozen=True)
class PhysicalityDiagnosis:
    """Result of a physicality check.

    ``det_condition`` is the determinant-based uncertainty quantity
    ``1 + det V - 2 det c - det a1 - det a2`` (nonnegative is necessary for a
    physical state).  ``boundary`` is set when the verdict sits within
    tolerance of the physicality boundary.
    """

    physical: bool
    nu: SymplecticSpectrum
    det_condition: float
    boundary: bool


def _physicality(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(physical, boundary)`` verdicts over a stack of matrices ``(..., 4, 4)``.

    The kernel of :func:`validate_physicality`, shared with the region maps.
    """
    min_eig_v = np.linalg.eigvalsh(m)[..., 0]
    min_eig_unc = np.linalg.eigvalsh(m + 1j * OMEGA)[..., 0]
    physical = (min_eig_v >= -PHYSICALITY_TOL) & (min_eig_unc >= -PHYSICALITY_TOL)
    boundary = (np.abs(min_eig_v) <= PHYSICALITY_TOL) | (
        np.abs(min_eig_unc) <= PHYSICALITY_TOL
    )
    return physical, boundary


def validate_physicality(v) -> PhysicalityDiagnosis:
    """Diagnose whether ``v`` describes a physical Gaussian state.

    The verdict tests the uncertainty relation directly: the smallest
    eigenvalue of the Hermitian matrix ``V + i*Omega`` must be
    ``>= -PHYSICALITY_TOL``.  This is equivalent to ``V >= 0`` together with
    ``nu_minus >= 1`` but, unlike the quartic for ``nu_minus``, stays
    accurate for pure states, whose double root at ``nu = 1`` turns
    determinant roundoff into ~1e-8 eigenvalue noise.  The reported ``nu``
    still comes from the quartic (NaN when it has no real roots).

    Never raises for symmetric input.
    """
    cov = _as_cov(v)
    m = cov.matrix
    physical, boundary = _physicality(m)
    det_v = float(np.linalg.det(m))
    det_condition = float(
        det_v + 1.0 - 2.0 * _det2(m[:2, 2:]) - _det2(m[:2, :2]) - _det2(m[2:, 2:])
    )
    try:
        nu = symplectic_spectrum(cov)
    except ValidationError:
        nu = SymplecticSpectrum(math.nan, math.nan)
    return PhysicalityDiagnosis(
        physical=bool(physical),
        nu=nu,
        det_condition=det_condition,
        boundary=bool(boundary),
    )


@dataclass(frozen=True)
class Purities:
    """Global and per-mode purities plus the derived noise invariants.

    ``sigma_j = tr a_j - 2`` is the excess noise of mode ``j`` and
    ``impurity_j = det a_j - 1`` its deviation from a pure reduced state.
    """

    mu: float
    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    impurity1: float
    impurity2: float


def purities(v) -> Purities:
    """Purities ``mu = (det V)^-1/2``, ``mu_j = (det a_j)^-1/2`` and noise terms."""
    cov = _as_cov(v)
    b = blocks(cov)
    det_v = float(np.linalg.det(cov.matrix))
    det_a1 = float(_det2(b.a1))
    det_a2 = float(_det2(b.a2))
    if det_v <= 0.0 or det_a1 <= 0.0 or det_a2 <= 0.0:
        raise ValidationError(
            "nonpositive covariance determinant: input is not a physical state"
        )
    return Purities(
        mu=det_v**-0.5,
        mu1=det_a1**-0.5,
        mu2=det_a2**-0.5,
        sigma1=float(np.trace(b.a1)) - 2.0,
        sigma2=float(np.trace(b.a2)) - 2.0,
        impurity1=det_a1 - 1.0,
        impurity2=det_a2 - 1.0,
    )


def rotation2(theta: float) -> np.ndarray:
    """Single-mode phase-space rotation by ``theta`` radians."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def squeeze2(r: float) -> np.ndarray:
    """Single-mode squeezer ``diag(e^r, e^-r)`` (q stretched for r > 0)."""
    return np.array([[math.exp(r), 0.0], [0.0, math.exp(-r)]])


def beam_splitter(angle: float) -> np.ndarray:
    """Two-mode beam-splitter symplectic mixing the modes by ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    i2 = np.eye(2)
    return np.block([[c * i2, s * i2], [-s * i2, c * i2]])


@dataclass(frozen=True)
class LocalSymplectic:
    """A mode-local symplectic operation, rotation-squeeze-rotation per mode.

    The induced 4x4 matrix is block diagonal over the two modes with
    ``S_j = R(theta_j) Z(r_j) R(phi_j)`` and satisfies
    ``S Omega S^T = Omega``.
    """

    theta1: float = 0.0
    r1: float = 0.0
    phi1: float = 0.0
    theta2: float = 0.0
    r2: float = 0.0
    phi2: float = 0.0

    @classmethod
    def identity(cls) -> "LocalSymplectic":
        return cls()

    @classmethod
    def rotation(cls, theta1: float, theta2: float = 0.0) -> "LocalSymplectic":
        return cls(theta1=theta1, theta2=theta2)

    @classmethod
    def squeeze(cls, r1: float, r2: float = 0.0) -> "LocalSymplectic":
        return cls(r1=r1, r2=r2)

    def mode_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        s1 = rotation2(self.theta1) @ squeeze2(self.r1) @ rotation2(self.phi1)
        s2 = rotation2(self.theta2) @ squeeze2(self.r2) @ rotation2(self.phi2)
        return s1, s2

    def matrix(self) -> np.ndarray:
        """The 4x4 block-diagonal symplectic matrix."""
        s1, s2 = self.mode_matrices()
        out = np.zeros((4, 4))
        out[:2, :2] = s1
        out[2:, 2:] = s2
        return out


def apply_local_symplectic(v, s: LocalSymplectic) -> CovMatrix:
    """Congruence transform ``S V S^T`` by a mode-local symplectic.

    Preserves the symplectic spectrum, hence the entanglement, of ``v``.
    """
    cov = _as_cov(v)
    mat = s.matrix()
    return CovMatrix(mat @ cov.matrix @ mat.T)
