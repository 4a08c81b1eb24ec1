"""Parametric families of two-mode Gaussian states and region maps.

The families cover the standard experimental situations:

* ``FullySymmetric(s, c)`` -- both modes and both quadratures symmetric;
  produced e.g. by interfering two equally squeezed beams on a balanced
  beam splitter, where ``s = nu*cosh(2r)`` and ``c = nu*sinh(2r)``.
* ``SymmetricModes(dq, dp, c_q, c_p)`` -- equal modes, asymmetric
  quadrature statistics (twin beams from an OPO).
* ``StandardFormI(s, t, c_q, c_p)`` -- different modes with symmetric
  quadratures and diagonal correlations.
* ``PureTwoModeSqueezed(r)`` -- the pure two-mode squeezed vacuum.

The EPR parametrization uses the collective quadratures
``p_pm = (p1 +- p2)/sqrt(2)`` and ``q_pm = (q1 +- q2)/sqrt(2)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from . import _maps
from ._exact import _finite, congruence, exact, product, ratio
from ._record import Record
from .covariance import (
    SYMMETRY_RTOL,
    CovMatrix,
    LocalSymplectic,
    _as_cov,
    _beam_splitter,
    _exact_physical,
    _require_physical,
)
from .errors import ValidationError

__all__ = [
    "FullySymmetric",
    "FullySymmetricFromSqueezing",
    "SymmetricModes",
    "StandardFormI",
    "PureTwoModeSqueezed",
    "FamilySpec",
    "FamilyWitnesses",
    "build",
    "family_witnesses",
    "EprSummary",
    "epr_summary",
    "epr_partial_witness",
    "epr_state",
    "RegionMap",
    "region_map_correlations",
    "region_map_epr",
    "RandomStateParams",
    "random_physical_state",
]


class FullySymmetric(NamedTuple):
    """Equal variances ``s`` on all quadratures, correlations ``(c, -c)``."""

    s: float
    c: float


class FullySymmetricFromSqueezing(NamedTuple):
    """Fully symmetric state from squeezing ``r`` and thermal factor ``nu >= 1``."""

    r: float
    nu: float = 1.0


class SymmetricModes(NamedTuple):
    """Identical modes with quadrature variances ``(dq, dp)`` and diagonal correlations."""

    dq: float
    dp: float
    c_q: float
    c_p: float


class StandardFormI(NamedTuple):
    """Mode variances ``s`` and ``t`` (equal per mode), diagonal correlations."""

    s: float
    t: float
    c_q: float
    c_p: float


class PureTwoModeSqueezed(NamedTuple):
    """Pure two-mode squeezed vacuum with squeezing parameter ``r``."""

    r: float


FamilySpec = Union[
    FullySymmetric,
    FullySymmetricFromSqueezing,
    SymmetricModes,
    StandardFormI,
    PureTwoModeSqueezed,
]


def _family_matrix(spec: FamilySpec) -> list:
    """The entries of a family member, as four rows of four floats."""
    if isinstance(spec, PureTwoModeSqueezed):
        spec = FullySymmetricFromSqueezing(r=spec.r)
    if isinstance(spec, FullySymmetricFromSqueezing):
        try:
            ch, sh = math.cosh(2.0 * spec.r), math.sinh(2.0 * spec.r)
        except OverflowError:
            raise ValidationError(f"squeezing r={spec.r!r} overflows the covariance entries")
        spec = FullySymmetric(s=spec.nu * ch, c=spec.nu * sh)
    if isinstance(spec, FullySymmetric):
        s, c = spec.s, spec.c
        return [[s, 0.0, c, 0.0], [0.0, s, 0.0, -c], [c, 0.0, s, 0.0], [0.0, -c, 0.0, s]]
    if isinstance(spec, SymmetricModes):
        dq, dp, c_q, c_p = spec
        return [[dq, 0.0, c_q, 0.0], [0.0, dp, 0.0, c_p], [c_q, 0.0, dq, 0.0], [0.0, c_p, 0.0, dp]]
    if isinstance(spec, StandardFormI):
        s, t, c_q, c_p = spec
        return [[s, 0.0, c_q, 0.0], [0.0, s, 0.0, c_p], [c_q, 0.0, t, 0.0], [0.0, c_p, 0.0, t]]
    raise TypeError(f"unknown family spec {spec!r}")


def build(spec: FamilySpec) -> CovMatrix:
    """Construct the covariance matrix of a family member.

    Raises :class:`ValidationError` when the parameters overflow or do not
    describe a physical state.
    """
    return _require_physical(_family_matrix(spec))


class FamilyWitnesses(NamedTuple):
    w_ppt: float
    w_full: float


def family_witnesses(spec: FamilySpec) -> FamilyWitnesses:
    """The PPT and full-robustness witnesses ``w_ppt`` and ``w_full`` of a family member.

    The exact corners of its matrix (:mod:`cvrobust._exact`), each rounded
    once; physicality is not checked.  Raises :class:`ValidationError` for
    non-finite entries and for a witness that does not round to a float.
    """
    corners = CovMatrix(_family_matrix(spec))._exact().corners()
    return FamilyWitnesses(*_finite(ratio(n, d) for n, d in corners[:2]))


class EprSummary(NamedTuple):
    """Variances and witnesses in the collective EPR quadratures.

    ``w_sum``/``w_prod`` pair the squeezed combination ``(p_-, q_+)``;
    the barred partners pair ``(p_+, q_-)``.  On symmetric-mode states
    ``w_ppt = w_prod * w_prod_bar``, ``w_full = w_sum * w_sum_bar`` and
    ``w_ch1 = w_ch2 = (w_sum * w_prod_bar + w_prod * w_sum_bar) / 2``.
    """

    var_p_minus: float
    var_p_plus: float
    var_q_minus: float
    var_q_plus: float
    mu_plus: float
    mu_minus: float
    w_sum: float
    w_sum_bar: float
    w_prod: float
    w_prod_bar: float


def epr_summary(v) -> EprSummary:
    """EPR-quadrature variances, partial purities and the four witnesses.

    The variances are the Duan variances of
    :func:`~cvrobust.witnesses.duan_parameters` at ``a = +-1``, each exact
    and rounded once: ``var(p_-)`` and ``var(q_+)`` at ``a = 1``,
    ``var(p_+)`` and ``var(q_-)`` at ``a = -1``.  The purities and witnesses
    are float arithmetic on them; as in :func:`~cvrobust.covariance.purities`,
    ``mu_+-`` is NaN where its variance product is ``<= 0``, which the
    tolerance admits under strong squeezing.  Raises
    :class:`ValidationError` for unphysical ``v``.
    """
    x = _exact_physical(_as_cov(v))
    var_p_minus, var_q_plus = (ratio(n, d) for n, d in x.duan_variances(1.0))
    var_p_plus, var_q_minus = (ratio(n, d) for n, d in x.duan_variances(-1.0))
    products = (var_p_plus * var_q_plus, var_p_minus * var_q_minus)
    mu_plus, mu_minus = (p**-0.5 if p > 0.0 else math.nan for p in products)
    return EprSummary(
        var_p_minus=var_p_minus,
        var_p_plus=var_p_plus,
        var_q_minus=var_q_minus,
        var_q_plus=var_q_plus,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        w_sum=var_p_minus + var_q_plus - 2.0,
        w_sum_bar=var_p_plus + var_q_minus - 2.0,
        w_prod=var_p_minus * var_q_plus - 1.0,
        w_prod_bar=var_p_plus * var_q_minus - 1.0,
    )


def _is_symmetric_mode_form(cov: CovMatrix) -> bool:
    (a, p, q, r), (_, b, s, t), (_, _, c, u), (_, _, _, d) = cov._rows
    tol = SYMMETRY_RTOL * cov._exact().scale
    # Diagonal a1, a2 and c, and a1 = a2.
    diagonal = max(map(abs, (p, u, r, s))) <= tol
    return diagonal and max(abs(a - c), abs(b - d), abs(p - u)) <= tol


def epr_partial_witness(v) -> float:
    """Single-channel robustness witness in EPR form (symmetric modes only).

    ``w_ch1 + w_ch2`` of the exact corners, rounded once: twice the channel
    robustness witness ``w_ch1 = w_ch2`` of symmetric modes.  Raises
    :class:`ValidationError` for other forms, unphysical ``v`` and a sum
    that does not round to a float.
    """
    cov = _as_cov(v)
    if not _is_symmetric_mode_form(cov):
        raise ValidationError(
            "EPR partial witness requires a symmetric-mode covariance "
            "(equal diagonal mode blocks, diagonal correlations)"
        )
    _, _, (w_ch1, den), (w_ch2, _) = _exact_physical(cov).corners()
    return _finite([ratio(w_ch1 + w_ch2, den)])[0]


def epr_state(
    mu_minus: float, mu_plus: float, q_plus_var: float, p_minus_var: float
) -> SymmetricModes:
    """Symmetric-mode family member with prescribed EPR variances and purities.

    The remaining variances follow from the fixed partial purities:
    ``q_minus = 1/(mu_minus^2 p_minus)`` and ``p_plus = 1/(mu_plus^2 q_plus)``.
    Raises :class:`ValidationError`, as :func:`region_map_epr` does, for
    non-finite arguments or moments, purities outside ``(0, 1]`` and
    variances ``<= 0``.
    """
    _maps._require_finite(
        mu_minus=mu_minus, mu_plus=mu_plus, q_plus_var=q_plus_var, p_minus_var=p_minus_var
    )
    if not (0.0 < mu_minus <= 1.0 and 0.0 < mu_plus <= 1.0):
        raise ValidationError("partial purities must lie in (0, 1]")
    if q_plus_var <= 0.0 or p_minus_var <= 0.0:
        raise ValidationError("EPR variances must be positive")
    p_plus_var = _maps._conjugate_variance(mu_plus, q_plus_var)
    q_minus_var = _maps._conjugate_variance(mu_minus, p_minus_var)
    moments = _epr_moments(q_plus_var, p_plus_var, p_minus_var, q_minus_var)
    if not all(map(math.isfinite, moments)):
        raise ValidationError("covariance matrix contains non-finite entries")
    return SymmetricModes(*moments)


def _epr_moments(q_plus_var, p_plus_var, p_minus_var, q_minus_var):
    """``(dq, dp, c_q, c_p)`` of the symmetric-mode state with these EPR variances."""
    return (
        0.5 * (q_plus_var + q_minus_var),
        0.5 * (p_plus_var + p_minus_var),
        0.5 * (q_plus_var - q_minus_var),
        0.5 * (p_plus_var - p_minus_var),
    )


class RegionMap(NamedTuple):
    """Labeled grid of robustness regions.

    ``labels[i, j]`` and ``boundary[i, j]`` correspond to the cell centered
    at ``(x[i], y[j])``.  Region codes: I fully robust, II partially robust,
    III fragile, IV separable, plus ``"unphysical"``.
    """

    x_name: str
    y_name: str
    x: np.ndarray
    y: np.ndarray
    labels: np.ndarray
    boundary: np.ndarray


def _region_map(x_name, y_name, x, y, rows) -> RegionMap:
    """The :class:`RegionMap` of a map's lists, converted to numpy arrays row by row."""
    import numpy as np

    labels = np.empty((len(x), len(y)), dtype=object)
    boundary = np.empty((len(x), len(y)), dtype=bool)
    for i, row in enumerate(rows):
        labels[i] = [_maps._REGIONS[code] for code, _ in row]
        boundary[i] = [flag for _, flag in row]
    return RegionMap(x_name, y_name, np.array(x), np.array(y), labels, boundary)


def region_map_correlations(dq: float, dp: float, grid: int) -> RegionMap:
    """Robustness regions over normalized correlations for symmetric modes.

    The axes are ``cbar_p = c_p/dp`` and ``cbar_q = c_q/dq``, sampled at the
    centers of a ``grid x grid`` partition of ``[-1, 1]^2``.  Each label
    equals that of ``classify`` on the cell's ``SymmetricModes`` matrix, or
    ``"unphysical"`` where ``validate_physicality`` rejects it.  A physical
    cell is flagged ``boundary`` when a corner witness lies in the zero
    band; no unphysical cell is flagged, and the physicality boundary flag
    of ``validate_physicality`` is not carried over.  The cells are decided
    one row at a time, so memory beyond the returned arrays does not grow
    with ``grid``, each exactly and in closed form from its EPR variances
    ``dq +- c_q`` and ``dp +- c_p``, integers over one denominator per map
    (``_maps._map_row``), so every verdict is that of ``classify``.
    """
    return _region_map(*_maps._correlation_cells(dq, dp, grid))


def region_map_epr(
    mu_minus: float,
    mu_plus: float,
    grid: int,
    q_plus_max: float = 5.0,
    p_minus_max: float = 5.0,
) -> RegionMap:
    """Robustness regions over the EPR variances at fixed partial purities.

    The axes are the collective variances ``q_plus`` and ``p_minus`` sampled
    at cell centers of ``(0, q_plus_max] x (0, p_minus_max]``; the conjugate
    variances are fixed by the purities.  Cells are classified as in
    :func:`region_map_correlations`; each label equals that of ``classify``
    on the cell's :func:`epr_state` matrix.
    """
    return _region_map(*_maps._epr_cells(mu_minus, mu_plus, grid, q_plus_max, p_minus_max))


#: Largest ``nu_max * e^(2 squeeze_max)`` a random state may reach.  The
#: state's ``S`` has ``||S||_2 <= e^squeeze_max`` (up to the rounding of its
#: float factors), so every exact entry of ``S^T D S`` is at most about
#: ``nu_max * e^(2 squeeze_max)`` and rounds to a finite float, and the
#: symmetrization ``V + V^T`` stays below ``2**1022``.
_MAX_RANDOM_ENTRY = 2.0**1020


class RandomStateParams(Record):
    """Sampling ranges for random physical states."""

    __slots__ = _fields = ("nu_min", "nu_max", "squeeze_max")

    def __init__(self, nu_min: float = 1.0, nu_max: float = 2.5, squeeze_max: float = 1.0):
        if not all(map(math.isfinite, (nu_min, nu_max, squeeze_max))):
            raise ValidationError("random state ranges must be finite")
        if not 1.0 <= nu_min <= nu_max:
            raise ValidationError("require 1 <= nu_min <= nu_max")
        if squeeze_max < 0.0:
            raise ValidationError("squeeze_max must be nonnegative")
        if math.log(nu_max) + 2.0 * squeeze_max > math.log(_MAX_RANDOM_ENTRY):
            raise ValidationError(
                "random state entries would leave float range: "
                "require nu_max*exp(2*squeeze_max) <= 2**1020"
            )
        self._init(nu_min, nu_max, squeeze_max)


def random_physical_state(seed: int, params: RandomStateParams | None = None) -> CovMatrix:
    """Deterministic random physical state ``S^T diag(nu1,nu1,nu2,nu2) S`` for ``seed >= 0``.

    ``S`` composes a per-mode rotation-squeeze-rotation
    (:class:`~cvrobust.covariance.LocalSymplectic`) with a beam-splitter
    mixing angle; the symplectic eigenvalues ``nu_j >= 1`` are drawn from
    the configured range, so the output is physical by construction.  The
    draws are those of numpy's ``default_rng(seed)``, bit for bit
    (:mod:`cvrobust._pcg64`); each entry is the exact ``S^T D S`` of the
    float factors (``math.cos``, ``math.sin``, ``math.exp`` and the draws)
    rounded once, so no numpy is loaded and no bit depends on a BLAS kernel.
    """
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    from ._pcg64 import default_rng  # only seeded commands compile the stream

    p = params or RandomStateParams()
    rng = default_rng(seed)
    nu1, nu2 = rng.uniform(p.nu_min, p.nu_max, 2)
    theta1, phi1, theta2, phi2, mix = rng.uniform(-math.pi, math.pi, 5)
    r1, r2 = rng.uniform(-p.squeeze_max, p.squeeze_max, 2)
    local = LocalSymplectic(theta1, r1, phi1, theta2, r2, phi2)._exact()
    rows, one = product(local, exact(_beam_splitter(mix)))
    s_t = [list(column) for column in zip(*rows)], one
    nu = exact(
        [[nu1, 0.0, 0.0, 0.0], [0.0, nu1, 0.0, 0.0], [0.0, 0.0, nu2, 0.0], [0.0, 0.0, 0.0, nu2]]
    )
    return CovMatrix(congruence(s_t, nu))
