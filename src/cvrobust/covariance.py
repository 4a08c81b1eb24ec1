"""Two-mode Gaussian covariance matrices: data model and symplectic analysis.

Conventions used throughout the package:

* quadrature ordering is ``(q1, p1, q2, p2)``;
* the commutator is ``[p, q] = 2i``, so the vacuum covariance matrix is the
  identity and the standard quantum level (shot noise) equals 1;
* a covariance matrix ``V`` describes a physical state when ``V + i*Omega``
  is positive semidefinite, equivalently when ``V`` is positive semidefinite
  and its smallest symplectic eigenvalue is >= 1;
* tolerances are measured in the magnitude ``max(1, max|V|)`` of the input
  (see ``_exact._scale_of``).

All values are dimensionless noise powers relative to shot noise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._exact import Matrix, _integers, _scale_of, congruence, exact, ratio
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

#: Row and column of the ten upper-triangle entries, row by row.
_UPPER = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def __getattr__(name):
    """``J2`` and ``OMEGA``, read-only arrays built on first access (PEP 562)."""
    if name not in ("J2", "OMEGA"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.block([[j2, np.zeros((2, 2))], [np.zeros((2, 2)), j2]])
    j2.setflags(write=False)
    omega.setflags(write=False)
    globals().update(J2=j2, OMEGA=omega)
    return globals()[name]


def _float_rows(entries) -> list:
    """``entries`` as four lists of four floats; any other shape or nesting is rejected."""
    try:  # an entry with a length (a string, a one-element array) drops out
        rows = [[float(x) for x in row if not hasattr(x, "__len__")] for row in entries]
    except TypeError:
        rows = []
    if len(rows) == 4 and all(len(row) == 4 for row in rows):
        return rows
    raise ValidationError("covariance matrix must be 4x4: four rows of four numbers")


class CovMatrix:
    """A 4x4 real symmetric covariance matrix in ``(q1, p1, q2, p2)`` ordering.

    The constructor converts the entries to floats, rejects matrices whose
    asymmetry exceeds ``SYMMETRY_RTOL * max(1, max|V|)`` and then
    symmetrizes the input as ``(V + V^T) / 2`` so that file round trips with
    last-digit noise are accepted.  The 16 entries are kept as Python
    floats, which the package's single-state analyses read without numpy.
    Two views are built on first use: the read-only array of :attr:`matrix`
    (and ``np.asarray``), and the exact integers of :meth:`_exact`, which
    every per-state analysis reads.  Instances are immutable.
    """

    __slots__ = ("_rows", "_m", "_x")

    ORDERING = "q1,p1,q2,p2"

    def __init__(self, entries):
        rows = _float_rows(entries)
        flat = [x for row in rows for x in row]
        flat_t = [x for column in zip(*rows) for x in column]
        if not all(map(math.isfinite, flat)):
            raise ValidationError("covariance matrix contains non-finite entries")
        if max(abs(x - y) for x, y in zip(flat, flat_t)) > SYMMETRY_RTOL * _scale_of(flat):
            raise ValidationError("covariance matrix is asymmetric beyond tolerance")
        # Halve first only where x + y overflows: elsewhere 0.5 * (x + y) keeps
        # its bits, the sign of 0.5 * (-0.0 + 0.0) = 0.0 included.
        pairs = zip(flat, flat_t)
        sym = [h if math.isfinite(h := 0.5 * (x + y)) else 0.5 * x + 0.5 * y for x, y in pairs]
        self._rows = (tuple(sym[0:4]), tuple(sym[4:8]), tuple(sym[8:12]), tuple(sym[12:16]))
        self._m = self._x = None

    @classmethod
    def vacuum(cls) -> "CovMatrix":
        """Two-mode vacuum (identity covariance)."""
        return cls([[float(i == j) for j in range(4)] for i in range(4)])

    @property
    def matrix(self) -> np.ndarray:
        """The 4x4 array of the entries (read-only), built on first use."""
        if self._m is None:
            import numpy as np

            m = np.array(self._rows)
            m.setflags(write=False)
            self._m = m
        return self._m

    def _exact(self) -> Matrix:
        """The entries in exact integers (:class:`cvrobust._exact.Matrix`), built on first use."""
        if self._x is None:
            self._x = Matrix(_upper(self._rows))
        return self._x

    def tolist(self) -> list[list[float]]:
        """The entries as four lists of four Python floats, row by row."""
        return [list(row) for row in self._rows]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.matrix.astype(dtype)
        return self.matrix

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(map(repr, row)) for row in self._rows)
        return f"CovMatrix([{rows}])"


def _as_cov(v) -> CovMatrix:
    return v if isinstance(v, CovMatrix) else CovMatrix(v)


class Blocks(NamedTuple):
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
    import numpy as np

    return CovMatrix(np.block([[b.a1, b.c], [b.c.T, b.a2]]))


class SymplecticSpectrum(NamedTuple):
    """Symplectic eigenvalues, sorted so that ``nu_minus <= nu_plus``."""

    nu_minus: float
    nu_plus: float


def _spectrum(x: Matrix, det_c_sign: int = 1) -> SymplecticSpectrum:
    # nu^2 are the roots of x^2 - delta*x + det_v = 0, real and nonnegative
    # for V > 0 by Williamson's theorem; roundoff below zero is clamped.
    one2 = x.one * x.one
    delta = ratio(x.delta(det_c_sign), one2)
    det_v = ratio(x.det_v, one2 * one2)
    root = math.sqrt(max(delta * delta - 4.0 * det_v, 0.0))
    return SymplecticSpectrum(
        nu_minus=math.sqrt(max(0.5 * (delta - root), 0.0)),
        nu_plus=math.sqrt(max(0.5 * (delta + root), 0.0)),
    )


def symplectic_spectrum(v, partial_transpose_mode: int | None = None) -> SymplecticSpectrum:
    """Symplectic eigenvalues of ``v``, optionally after partial transposition.

    Partial transposition of mode ``k`` flips the sign of that mode's phase
    quadrature, which at the covariance level flips the sign of ``det c``
    while leaving ``det a1``, ``det a2`` and ``det V`` unchanged.  The
    eigenvalues are the roots of ``nu^4 - delta*nu^2 + det V`` with
    ``delta = det a1 + det a2 + 2 det c``.

    A partially transposed ``nu_minus < 1`` certifies entanglement.

    ``delta`` and ``det V`` are evaluated exactly (:mod:`cvrobust._exact`)
    and rounded once; ``nu`` takes float square roots of those two
    correctly rounded values.  The spectrum reports and does not judge
    physicality: roots that roundoff or an unphysical ``V`` push below 0
    are clamped at 0, and determinants that overflow give NaN.
    """
    if partial_transpose_mode not in (None, 1, 2):
        raise ValueError("partial_transpose_mode must be 1 or 2")
    return _spectrum(_as_cov(v)._exact(), 1 if partial_transpose_mode is None else -1)


class PhysicalityDiagnosis(NamedTuple):
    """Result of a physicality check.

    ``physical`` is the verdict of the uncertainty-eigenvalue test and
    ``boundary`` is set when that eigenvalue lies within the tolerance of 0.
    ``nu`` is the symplectic spectrum, reported but not judged; it and
    ``det_condition``, the determinant-based uncertainty quantity
    ``1 + det V - 2 det c - det a1 - det a2`` (nonnegative is necessary for a
    physical state), are not finite only when the determinants overflow.
    """

    physical: bool
    nu: SymplecticSpectrum
    det_condition: float
    boundary: bool


def _upper(v) -> list:
    """The ten upper-triangle entries ``v[i][j]`` of four rows, row by row."""
    return [v[i][j] for i, j in _UPPER]


def _exact_physical(cov: CovMatrix) -> Matrix:
    """The admissibility gate on ``cov``, returning its matrix in exact integers."""
    x = cov._exact()
    if not x.physical():
        raise ValidationError("unphysical state (uncertainty bound V + i*Omega >= 0 violated)")
    return x


def _require_physical(v) -> CovMatrix:
    """The admissibility gate: ``v`` as a :class:`CovMatrix` if physical, else raise."""
    cov = _as_cov(v)
    _exact_physical(cov)
    return cov


def validate_physicality(v) -> PhysicalityDiagnosis:
    """Diagnose whether ``v`` describes a physical Gaussian state.

    The package's one physicality verdict: the smallest eigenvalue of the
    Hermitian matrix ``V + i*Omega`` must be ``>= -tol`` with
    ``tol = max(1e-9, 32 * eps * max(1, max|V|))``: an absolute floor,
    widened only where the rounding of the entries, which moves the
    eigenvalue by up to ``2 * eps * max|V|``, approaches it.  The test is
    evaluated exactly, in integers over the entries' common power-of-two
    denominator (:mod:`cvrobust._exact`), so no verdict or ``boundary``
    flag (``|lambda_min| <= tol``) depends on roundoff.  Unlike the
    quartic for ``nu_minus``, it stays exact for pure states, whose double
    root at ``nu = 1`` turns determinant roundoff into eigenvalue noise.
    ``det_condition`` is the exact value rounded once; ``nu`` takes float
    square roots of the correctly rounded ``delta`` and ``det V`` (see
    :func:`symplectic_spectrum`).  Both are not finite only when the
    determinants overflow.  ``V >= 0`` needs no test of its own: for real
    unit ``x``, ``x^T V x = x^H (V + i*Omega) x``, so the smallest
    eigenvalue of ``V`` is at least that of ``V + i*Omega``.

    Never raises for symmetric input.
    """
    x = _as_cov(v)._exact()
    physical, boundary = x.physicality()
    return PhysicalityDiagnosis(
        physical=physical,
        nu=_spectrum(x),
        det_condition=ratio(x.det_condition(), x.one**4),
        boundary=boundary,
    )


class Purities(NamedTuple):
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
    """Purities ``mu = (det V)^-1/2``, ``mu_j = (det a_j)^-1/2`` and noise terms.

    Each determinant and noise term is evaluated exactly and rounded once.
    Raises for unphysical ``v``; a purity is NaN where its determinant is
    ``<= 0``, which the tolerance admits only for large ``max|V|``.
    """
    x = _exact_physical(_as_cov(v))
    one2 = x.one * x.one
    dets = (ratio(x.det_v, one2 * one2), ratio(x.det_a1, one2), ratio(x.det_a2, one2))
    # The last four Gamma-set fields: sigma1, sigma2, impurity1, impurity2.
    noise = [ratio(n, d) for n, d in x.gamma_set()[9:]]
    return Purities(*(d**-0.5 if d > 0.0 else math.nan for d in dets), *noise)


def _beam_splitter(angle: float) -> list:
    """The rows of :func:`beam_splitter`."""
    c, s = math.cos(angle), math.sin(angle)
    return [[c, 0.0, s, 0.0], [0.0, c, 0.0, s], [-s, 0.0, c, 0.0], [0.0, -s, 0.0, c]]


def rotation2(theta: float) -> np.ndarray:
    """Single-mode phase-space rotation by ``theta`` radians."""
    import numpy as np

    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def squeeze2(r: float) -> np.ndarray:
    """Single-mode squeezer ``diag(e^r, e^-r)`` (q stretched for r > 0)."""
    import numpy as np

    return np.array([[math.exp(r), 0.0], [0.0, math.exp(-r)]])


def beam_splitter(angle: float) -> np.ndarray:
    """Two-mode beam-splitter symplectic mixing the modes by ``angle``."""
    import numpy as np

    return np.array(_beam_splitter(angle))


def _mode(c1, s1, e, f, c2, s2):
    """The rows of ``R(theta) Z(r) R(phi)``.

    The arguments are ``cos theta, sin theta, e^r, e^-r, cos phi, sin phi``.
    """
    ce, sf, se, cf = c1 * e, s1 * f, s1 * e, c1 * f
    return [ce * c2 - sf * s2, -ce * s2 - sf * c2], [se * c2 + cf * s2, cf * c2 - se * s2]


class LocalSymplectic(NamedTuple):
    """A mode-local symplectic operation, rotation-squeeze-rotation per mode.

    The induced 4x4 matrix is block diagonal over the two modes with
    ``S_j = R(theta_j) Z(r_j) R(phi_j)`` and satisfies
    ``S Omega S^T = Omega``.  ``S`` is the exact product of the float
    factors (:mod:`cvrobust._exact`); :meth:`matrix` and
    :meth:`mode_matrices` round each of its entries once.
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

    def _exact(self):
        """The 4x4 ``S`` as ``(integer rows, D^3)``, exact over its float factors.

        The factors' twelve floats (cosines, sines and exponentials) are
        integers over their common denominator ``D``, so each product
        ``R Z R`` is an integer over ``D^3``.  Raises :class:`ValidationError`
        when a parameter is not finite or an ``e^+-r`` overflows.
        """
        if not all(map(math.isfinite, self)):
            raise ValidationError("local symplectic parameters must be finite")
        factors = []
        for theta, r, phi in (self[:3], self[3:]):
            try:
                e, f = math.exp(r), math.exp(-r)
            except OverflowError:
                raise ValidationError(f"squeezing r={r!r} overflows the symplectic entries")
            factors += (math.cos(theta), math.sin(theta), e, f, math.cos(phi), math.sin(phi))
        ints, one = _integers(factors)
        (a, b), (c, d) = _mode(*ints[:6])
        (e, f), (g, h) = _mode(*ints[6:])
        return [[a, b, 0, 0], [c, d, 0, 0], [0, 0, e, f], [0, 0, g, h]], one * one * one

    def mode_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The 2x2 blocks ``S_1`` and ``S_2`` of :meth:`matrix`."""
        m = self.matrix()
        return m[:2, :2].copy(), m[2:, 2:].copy()

    def matrix(self) -> np.ndarray:
        """The 4x4 block-diagonal symplectic matrix."""
        import numpy as np

        rows, one = self._exact()
        return np.array([[ratio(x, one) for x in row] for row in rows])


def apply_local_symplectic(v, s: LocalSymplectic) -> CovMatrix:
    """Congruence transform ``S V S^T`` by a mode-local symplectic.

    Preserves the symplectic spectrum, hence the entanglement, of ``v``.
    Each entry is the exact ``S V S^T`` of the float entries rounded once.
    """
    return CovMatrix(congruence(s._exact(), exact(_as_cov(v).tolist())))
