"""Entanglement witnesses for two-mode Gaussian states.

Witness sign convention: a negative value certifies the property
(entanglement, robustness); nonnegative values are inconclusive unless the
witness is necessary and sufficient, as the PPT witness is for Gaussian
states.

The attenuated PPT witness factorizes as ``W'(T1, T2) = T1 T2 W_R(T1, T2)``
with a reduced witness bilinear in the transmittances,

    W_R(T1, T2) = Gamma11 + T1*Gamma21 + T2*Gamma12 + T1*T2*Gamma22,

whose coefficients are local-rotation invariants of the input state.  This
module computes the witnesses and the Gamma decomposition, both from the
polynomials of :mod:`cvrobust._exact`.  The PPT witness, the Gamma
coefficients, the Duan variances and ``w_m`` evaluate them on the matrix's
exact integers and round each value once; ``w_d`` adds the rounded
variances in floats, and ``a_opt`` is a float fourth root.
:func:`boundary_band` reports the zero band ``_exact._band_at`` of a
state.  ``classify`` and the region maps' cells (``_maps``) decide against
the same band through ``_exact._verdict``, once their physicality test,
shifted by ``_exact._tol_bound``, has passed; neither runs this module.  A
function raises "witness values are not finite" only when a value it
returns is not a finite float.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import channel
from ._exact import _band_at, _finite, ratio
from ._record import Record
from .covariance import _as_cov

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

def boundary_band(v) -> float:
    """Half-width of the witness zero band for boundary flagging.

    Witness values are polynomial (up to quartic) in the covariance entries;
    the band is ``1e-10 * max(1, max|V|)**2``, infinite where that overflows.
    """
    return _band_at(_as_cov(v)._exact().scale)


class DuanParameters(Record):
    """Signed EPR weight and the variances of the collective operators.

    The operators are ``u = (|a| p1 - p2/a)/sqrt(2)`` and
    ``v = (|a| q1 + q2/a)/sqrt(2)``.
    """

    __slots__ = _fields = ("a", "u_variance", "v_variance")

    def __init__(self, a: float, u_variance: float, v_variance: float):
        if a == 0:
            raise ValueError("the EPR weight a must be nonzero")
        self._init(a, u_variance, v_variance)

    @property
    def witness(self) -> float:
        """``var(u) + var(v) - (a^2 + 1/a^2)``; negative certifies entanglement."""
        return self.u_variance + self.v_variance - (self.a**2 + self.a**-2)


def duan_parameters(v, a: float) -> DuanParameters:
    """Collective-operator variances at the literal signed weight ``a``.

    Each variance is evaluated exactly and rounded once
    (:meth:`cvrobust._exact.Matrix.duan_variances`).
    """
    if a == 0:
        raise ValueError("the EPR weight a must be nonzero")
    if not math.isfinite(a):
        raise ValueError("the EPR weight a must be finite")
    (u_num, den), (v_num, _) = _as_cov(v)._exact().duan_variances(float(a))
    return DuanParameters(a=a, u_variance=ratio(u_num, den), v_variance=ratio(v_num, den))


def _signed(rows, mag: float) -> float:
    """The weight ``±mag`` of smaller summed witness: the two differ by ``±2 (v02 - v13)``."""
    return mag if rows[0][2] <= rows[1][3] else -mag


def duan_witness(v, a: float) -> float:
    """Summed EPR-variance witness at weight ``a`` (negative => entangled).

    Only ``|a|`` is prescribed by the caller; the sign of the weight is the
    one whose witness is the smaller, the sign of the quadrature
    correlations.  Sufficient but not necessary: a nonnegative value proves
    nothing.
    """
    if a == 0:
        raise ValueError("the EPR weight a must be nonzero")
    cov = _as_cov(v)
    return duan_parameters(cov, _signed(cov._rows, abs(a))).witness


class MinimizedDuan(NamedTuple):
    """Product form of the variance witness minimized over the EPR weight.

    ``w_m = sigma1*sigma2 - (c_p - c_q)^2`` shares its sign with the
    minimized summed witness; it is evaluated exactly and rounded once.
    ``a_opt`` is the minimizing weight, ``sigma2**0.25 / sigma1**0.25`` of
    the rounded ``sigma_j`` with the sign of :func:`duan_witness`, and is
    ``None`` for degenerate states whose excess noise vanishes on a mode;
    such states carry an uncorrelated pure mode and are separable.
    """

    w_m: float
    a_opt: float | None
    degenerate: bool = False


def minimized_duan(v) -> MinimizedDuan:
    """Minimized variance witness ``w_m`` and the optimal EPR weight."""
    cov = _as_cov(v)
    x = cov._exact()
    v00, _, v02, _, v11, _, v13, v22, _, v33 = x.entries
    s1, s2 = v00 + v11 - 2 * x.one, v22 + v33 - 2 * x.one  # sigma_j over D
    w_m = ratio(s1 * s2 - (v13 - v02) ** 2, x.one**2)
    sigma1, sigma2 = ratio(s1, x.one), ratio(s2, x.one)
    if min(sigma1, sigma2) <= DEGENERATE_SIGMA_TOL:
        return MinimizedDuan(w_m=w_m, a_opt=None, degenerate=True)
    return MinimizedDuan(w_m=w_m, a_opt=_signed(cov._rows, sigma2**0.25 / sigma1**0.25))


def ppt_witness(v) -> float:
    """PPT witness ``1 + det V + 2 det c - det a1 - det a2``.

    Negative iff the Gaussian state is entangled; nonnegative iff separable.
    Evaluated exactly on the matrix's integers and rounded once, the
    ``w_ppt`` corner of :func:`~cvrobust.robustness.classify`; raises
    :class:`ValidationError` when it does not round to a finite float.
    """
    return _finite([ratio(*_as_cov(v)._exact().corners()[0])])[0]


class GammaSet(Record):
    """Coefficients of the reduced witness and their building blocks.

    The four ``gamma_ij`` multiply ``T1^(i-1) T2^(j-1)`` in the reduced
    witness; their sum equals the PPT witness of the source state and
    ``gamma22 = det(V - I)``.  The remaining fields are the auxiliary
    invariants entering the decomposition.  The fields are floats only, each
    an exact value rounded once by :func:`gamma_coefficients`; the corner
    properties below add rounded fields.  ``vars(g)`` maps each field name
    to its value, in field order.
    """

    _fields = (
        "gamma11", "gamma12", "gamma21", "gamma22", "lambda1", "lambda2", "lambda_c",
        "lambda4", "eta", "sigma1", "sigma2", "impurity1", "impurity2",
    )

    def __init__(
        self, gamma11, gamma12, gamma21, gamma22, lambda1, lambda2, lambda_c,
        lambda4, eta, sigma1, sigma2, impurity1, impurity2,
    ):
        self._init(
            gamma11, gamma12, gamma21, gamma22, lambda1, lambda2, lambda_c,
            lambda4, eta, sigma1, sigma2, impurity1, impurity2,
        )

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


def gamma_coefficients(v) -> GammaSet:
    """Decompose the attenuated PPT witness into its Gamma coefficients.

    Each coefficient is evaluated exactly and rounded once; a value whose
    rounding overflows raises :class:`ValidationError`.
    """
    return GammaSet(*_finite(ratio(n, d) for n, d in _as_cov(v)._exact().gamma_set()))


def reduced_witness(g: GammaSet, t) -> float:
    """Evaluate the reduced witness at transmittances ``t``.

    Satisfies ``ppt_witness(attenuate(v, t)) = t1 * t2 * reduced_witness(g, t)``
    when ``g = gamma_coefficients(v)``.
    """
    t = channel.Transmittance.of(t)
    t1, t2 = t.t1, t.t2
    return g.gamma11 + t1 * g.gamma21 + t2 * g.gamma12 + t1 * t2 * g.gamma22
