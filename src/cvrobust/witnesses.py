"""Entanglement witnesses for two-mode Gaussian states.

Witness sign convention: a negative value certifies the property
(entanglement, robustness); nonnegative values are inconclusive unless the
witness is necessary and sufficient, as the PPT witness is for Gaussian
states.

The attenuated PPT witness factorizes as ``W'(T1, T2) = T1 T2 W_R(T1, T2)``
with a reduced witness bilinear in the transmittances,

    W_R(T1, T2) = Gamma11 + T1*Gamma21 + T2*Gamma12 + T1*T2*Gamma22,

whose coefficients are local-rotation invariants of the input state.  This
module computes the witnesses and the Gamma decomposition.  The private
kernels (``_ppt``, ``_gamma_set``, ``_band``) evaluate them over a stack of
matrices ``(..., 4, 4)`` for the grid commands; the public functions are
their one-matrix calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Transmittance
from .covariance import J2, _as_cov, _det2, blocks

__all__ = [
    "boundary_band",
    "DuanParameters",
    "duan_parameters",
    "duan_witness",
    "MinimizedDuan",
    "minimized_duan",
    "ppt_witness",
    "GammaSet",
    "gamma_coefficients",
    "reduced_witness",
    "DEGENERATE_SIGMA_TOL",
]

#: Below this excess noise a mode is treated as a pure vacuum/coherent mode
#: and the optimal EPR weight is undefined.
DEGENERATE_SIGMA_TOL = 1e-9

_BAND_COEFF = 1e-10


def _band(m: np.ndarray):
    """:func:`boundary_band` over a stack of matrices ``(..., 4, 4)``."""
    scale = np.abs(m).max(axis=(-2, -1))
    return _BAND_COEFF * np.maximum(1.0, scale * scale)


def boundary_band(v) -> float:
    """Half-width of the witness zero band for boundary flagging.

    Witness values are polynomial (up to quartic) in the covariance entries,
    so the band scales with the squared magnitude of the matrix.
    """
    return float(_band(_as_cov(v).matrix))


@dataclass(frozen=True)
class DuanParameters:
    """Signed EPR weight and the variances of the collective operators.

    The operators are ``u = (|a| p1 - p2/a)/sqrt(2)`` and
    ``v = (|a| q1 + q2/a)/sqrt(2)``.
    """

    a: float
    u_variance: float
    v_variance: float

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("the EPR weight a must be nonzero")

    @property
    def witness(self) -> float:
        """``var(u) + var(v) - (a^2 + 1/a^2)``; negative certifies entanglement."""
        return self.u_variance + self.v_variance - (self.a**2 + self.a**-2)


def duan_parameters(v, a: float) -> DuanParameters:
    """Collective-operator variances at the literal signed weight ``a``."""
    if a == 0:
        raise ValueError("the EPR weight a must be nonzero")
    m = _as_cov(v).matrix
    mag = abs(a)
    inv = 1.0 / a
    root2 = math.sqrt(2.0)
    fu = np.array([0.0, mag, 0.0, -inv]) / root2
    fw = np.array([mag, 0.0, inv, 0.0]) / root2
    return DuanParameters(
        a=a, u_variance=float(fu @ m @ fu), v_variance=float(fw @ m @ fw)
    )


def _duan_raw(v, a: float) -> float:
    return duan_parameters(v, a).witness


def duan_witness(v, a: float) -> float:
    """Summed EPR-variance witness at weight ``a`` (negative => entangled).

    Only ``|a|`` is prescribed by the caller; the sign of the weight is
    resolved by evaluating both choices and keeping the smaller witness,
    which matches the sign of the quadrature correlations.  Sufficient but
    not necessary: a nonnegative value proves nothing.
    """
    if a == 0:
        raise ValueError("the EPR weight a must be nonzero")
    mag = abs(a)
    return min(_duan_raw(v, mag), _duan_raw(v, -mag))


@dataclass(frozen=True)
class MinimizedDuan:
    """Product form of the variance witness minimized over the EPR weight.

    ``w_m = sigma1*sigma2 - (c_p - c_q)^2`` shares its sign with the
    minimized summed witness.  ``a_opt`` is the minimizing weight
    (``a_opt**2 = sqrt(sigma2/sigma1)``, sign resolved by evaluation) and is
    ``None`` for degenerate states whose excess noise vanishes on a mode;
    such states carry an uncorrelated pure mode and are separable.
    """

    w_m: float
    a_opt: float | None
    degenerate: bool = False


def minimized_duan(v) -> MinimizedDuan:
    """Minimized variance witness ``w_m`` and the optimal EPR weight."""
    cov = _as_cov(v)
    b = blocks(cov)
    sigma1 = float(np.trace(b.a1)) - 2.0
    sigma2 = float(np.trace(b.a2)) - 2.0
    w_m = sigma1 * sigma2 - (b.c_p - b.c_q) ** 2
    if min(sigma1, sigma2) <= DEGENERATE_SIGMA_TOL:
        return MinimizedDuan(w_m=w_m, a_opt=None, degenerate=True)
    mag = (sigma2 / sigma1) ** 0.25
    a_opt = mag if _duan_raw(cov, mag) <= _duan_raw(cov, -mag) else -mag
    return MinimizedDuan(w_m=w_m, a_opt=a_opt)


def _ppt(m: np.ndarray):
    """:func:`ppt_witness` over a stack of matrices ``(..., 4, 4)``."""
    return (
        1.0
        + np.linalg.det(m)
        + 2.0 * _det2(m[..., :2, 2:])
        - _det2(m[..., :2, :2])
        - _det2(m[..., 2:, 2:])
    )


def ppt_witness(v) -> float:
    """PPT witness ``1 + det V + 2 det c - det a1 - det a2``.

    Negative iff the Gaussian state is entangled; nonnegative iff separable.
    """
    return float(_ppt(_as_cov(v).matrix))


@dataclass(frozen=True)
class GammaSet:
    """Coefficients of the reduced witness and their building blocks.

    The four ``gamma_ij`` multiply ``T1^(i-1) T2^(j-1)`` in the reduced
    witness; their sum equals the PPT witness of the source state and
    ``gamma22 = det(V - I)``.  The remaining fields are the auxiliary
    invariants entering the decomposition.
    """

    gamma11: float
    gamma12: float
    gamma21: float
    gamma22: float
    lambda1: float
    lambda2: float
    lambda_c: float
    lambda4: float
    eta: float
    sigma1: float
    sigma2: float
    impurity1: float
    impurity2: float

    @property
    def w_ppt(self) -> float:
        """Value of the reduced witness at (1, 1): the PPT witness."""
        return self.gamma11 + self.gamma12 + self.gamma21 + self.gamma22

    @property
    def w_full(self) -> float:
        """Reduced witness in the double full-loss limit (0, 0)."""
        return self.gamma11

    @property
    def w_ch1(self) -> float:
        """Reduced witness in the limit T1 -> 0 with T2 = 1."""
        return self.gamma11 + self.gamma12

    @property
    def w_ch2(self) -> float:
        """Reduced witness in the limit T2 -> 0 with T1 = 1."""
        return self.gamma11 + self.gamma21


def _trace2(m: np.ndarray):
    """Traces of 2x2 blocks over any leading batch axes."""
    return np.trace(m, axis1=-2, axis2=-1)


def _gamma_set(m: np.ndarray) -> GammaSet:
    """:func:`gamma_coefficients` over a stack ``(..., 4, 4)``; fields are arrays.

    The 2x2 products run as stacked ``matmul`` in the scalar evaluation
    order, so each cell gets the same bits as a one-matrix call.
    """
    a1 = m[..., :2, :2]
    a2 = m[..., 2:, 2:]
    c = m[..., :2, 2:]
    c_t = np.swapaxes(c, -1, -2)
    i2 = np.eye(2)

    sigma1 = _trace2(a1) - 2.0
    sigma2 = _trace2(a2) - 2.0
    det_a1 = _det2(a1)
    det_a2 = _det2(a2)
    impurity1 = det_a1 - 1.0
    impurity2 = det_a2 - 1.0
    det_c = _det2(c)

    lambda1 = _trace2(c_t @ J2 @ (a1 - i2) @ J2 @ c)
    lambda2 = _trace2(c @ J2 @ (a2 - i2) @ J2 @ c_t)
    lambda_c = _trace2(c_t @ c)
    lambda4 = _trace2(a1 @ J2 @ c @ J2 @ a2 @ J2 @ c_t @ J2)
    eta = (
        sigma1 * (impurity2 - sigma2)
        + sigma2 * (impurity1 - sigma1)
        + sigma1 * sigma2
        + det_a1
        + det_a2
        + lambda1
        + lambda2
        - lambda_c
        - 1.0
    )

    gamma22 = np.linalg.det(m - np.eye(4))
    gamma12 = sigma1 * (impurity2 - sigma2) + lambda2
    gamma21 = sigma2 * (impurity1 - sigma1) + lambda1
    gamma11 = sigma1 * sigma2 - lambda_c + 2.0 * det_c

    return GammaSet(
        gamma11=gamma11,
        gamma12=gamma12,
        gamma21=gamma21,
        gamma22=gamma22,
        lambda1=lambda1,
        lambda2=lambda2,
        lambda_c=lambda_c,
        lambda4=lambda4,
        eta=eta,
        sigma1=sigma1,
        sigma2=sigma2,
        impurity1=impurity1,
        impurity2=impurity2,
    )


def gamma_coefficients(v) -> GammaSet:
    """Decompose the attenuated PPT witness into its Gamma coefficients."""
    g = _gamma_set(_as_cov(v).matrix)
    return GammaSet(**{name: float(x) for name, x in vars(g).items()})


def _reduced(g: GammaSet, t1, t2):
    """Reduced witness at transmittances ``t1``, ``t2`` (floats or arrays)."""
    return g.gamma11 + t1 * g.gamma21 + t2 * g.gamma12 + t1 * t2 * g.gamma22


def reduced_witness(g: GammaSet, t) -> float:
    """Evaluate the reduced witness at transmittances ``t``.

    Satisfies ``ppt_witness(attenuate(v, t)) = t1 * t2 * reduced_witness(g, t)``
    when ``g = gamma_coefficients(v)``.
    """
    t = Transmittance.of(t)
    return _reduced(g, t.t1, t.t2)
