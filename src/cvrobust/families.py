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
from dataclasses import dataclass
from typing import Union

import numpy as np

from .covariance import (
    CovMatrix,
    _as_cov,
    _physicality,
    beam_splitter,
    blocks,
    rotation2,
    squeeze2,
    validate_physicality,
)
from .errors import ValidationError
from .robustness import _CLASSES, _corner_class
from .witnesses import _band, _gamma_set

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


@dataclass(frozen=True)
class FullySymmetric:
    """Equal variances ``s`` on all quadratures, correlations ``(c, -c)``."""

    s: float
    c: float


@dataclass(frozen=True)
class FullySymmetricFromSqueezing:
    """Fully symmetric state from squeezing ``r`` and thermal factor ``nu >= 1``."""

    r: float
    nu: float = 1.0


@dataclass(frozen=True)
class SymmetricModes:
    """Identical modes with quadrature variances ``(dq, dp)`` and diagonal correlations."""

    dq: float
    dp: float
    c_q: float
    c_p: float


@dataclass(frozen=True)
class StandardFormI:
    """Mode variances ``s`` and ``t`` (equal per mode), diagonal correlations."""

    s: float
    t: float
    c_q: float
    c_p: float


@dataclass(frozen=True)
class PureTwoModeSqueezed:
    """Pure two-mode squeezed vacuum with squeezing parameter ``r``."""

    r: float


FamilySpec = Union[
    FullySymmetric,
    FullySymmetricFromSqueezing,
    SymmetricModes,
    StandardFormI,
    PureTwoModeSqueezed,
]


def _reduce_to_sc(spec) -> FullySymmetric:
    if isinstance(spec, PureTwoModeSqueezed):
        spec = FullySymmetricFromSqueezing(r=spec.r, nu=1.0)
    return FullySymmetric(
        s=spec.nu * math.cosh(2.0 * spec.r), c=spec.nu * math.sinh(2.0 * spec.r)
    )


def _family_matrix(spec: FamilySpec) -> np.ndarray:
    if isinstance(spec, (FullySymmetricFromSqueezing, PureTwoModeSqueezed)):
        spec = _reduce_to_sc(spec)
    if isinstance(spec, FullySymmetric):
        s, c = spec.s, spec.c
        return np.array(
            [
                [s, 0.0, c, 0.0],
                [0.0, s, 0.0, -c],
                [c, 0.0, s, 0.0],
                [0.0, -c, 0.0, s],
            ]
        )
    if isinstance(spec, SymmetricModes):
        return _symmetric_modes_stack(spec.dq, spec.dp, spec.c_q, spec.c_p)
    if isinstance(spec, StandardFormI):
        return np.array(
            [
                [spec.s, 0.0, spec.c_q, 0.0],
                [0.0, spec.s, 0.0, spec.c_p],
                [spec.c_q, 0.0, spec.t, 0.0],
                [0.0, spec.c_p, 0.0, spec.t],
            ]
        )
    raise TypeError(f"unknown family spec {spec!r}")


def _symmetric_modes_stack(dq, dp, c_q, c_p) -> np.ndarray:
    """Symmetric-mode matrices for broadcast parameter arrays, shape ``(..., 4, 4)``."""
    m = np.zeros(np.broadcast_shapes(*map(np.shape, (dq, dp, c_q, c_p))) + (4, 4))
    m[..., 0, 0] = m[..., 2, 2] = dq
    m[..., 1, 1] = m[..., 3, 3] = dp
    m[..., 0, 2] = m[..., 2, 0] = c_q
    m[..., 1, 3] = m[..., 3, 1] = c_p
    return m


def build(spec: FamilySpec) -> CovMatrix:
    """Construct the covariance matrix of a family member.

    Raises :class:`ValidationError` naming the violated bound when the
    parameters do not describe a physical state.
    """
    cov = CovMatrix(_family_matrix(spec))
    diag = validate_physicality(cov)
    if not diag.physical:
        raise ValidationError(
            f"{type(spec).__name__} parameters violate the uncertainty bound "
            f"nu_minus >= 1 (nu_minus={diag.nu.nu_minus!r}, "
            f"min eigenvalue condition V >= 0 also required)"
        )
    return cov


@dataclass(frozen=True)
class FamilyWitnesses:
    w_ppt: float
    w_full: float


def family_witnesses(spec: FamilySpec) -> FamilyWitnesses:
    """Closed-form PPT and full-robustness witnesses for a family member."""
    if isinstance(spec, (FullySymmetricFromSqueezing, PureTwoModeSqueezed)):
        spec = _reduce_to_sc(spec)
    if isinstance(spec, FullySymmetric):
        s, c = spec.s, spec.c
        w_ppt = (s * s - c * c + 1.0) ** 2 - 4.0 * s * s
        w_full = 4.0 * ((s - 1.0) ** 2 - c * c)
        return FamilyWitnesses(w_ppt=w_ppt, w_full=w_full)
    if isinstance(spec, SymmetricModes):
        dq, dp, c_q, c_p = spec.dq, spec.dp, spec.c_q, spec.c_p
        w_ppt = (
            (dp * dp - c_p * c_p) * (dq * dq - c_q * c_q)
            - 2.0 * dp * dq
            + 2.0 * c_p * c_q
            + 1.0
        )
        w_full = (dp + dq - 2.0) ** 2 - (c_q - c_p) ** 2
        return FamilyWitnesses(w_ppt=w_ppt, w_full=w_full)
    if isinstance(spec, StandardFormI):
        s, t, c_q, c_p = spec.s, spec.t, spec.c_q, spec.c_p
        w_ppt = (
            (s * t - c_q * c_q) * (s * t - c_p * c_p)
            - s * s
            - t * t
            + 2.0 * c_q * c_p
            + 1.0
        )
        w_full = 4.0 * (s - 1.0) * (t - 1.0) - (c_q - c_p) ** 2
        return FamilyWitnesses(w_ppt=w_ppt, w_full=w_full)
    raise TypeError(f"unknown family spec {spec!r}")


@dataclass(frozen=True)
class EprSummary:
    """Variances and witnesses in the collective EPR quadratures.

    ``w_sum``/``w_prod`` pair the squeezed combination ``(p_-, q_+)``;
    the barred partners pair ``(p_+, q_-)``.  On symmetric-mode states
    ``w_ppt = w_prod * w_prod_bar`` and ``w_full = w_sum * w_sum_bar``.
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


_ROOT2 = math.sqrt(2.0)
_F_P_MINUS = np.array([0.0, 1.0, 0.0, -1.0]) / _ROOT2
_F_P_PLUS = np.array([0.0, 1.0, 0.0, 1.0]) / _ROOT2
_F_Q_MINUS = np.array([1.0, 0.0, -1.0, 0.0]) / _ROOT2
_F_Q_PLUS = np.array([1.0, 0.0, 1.0, 0.0]) / _ROOT2


def epr_summary(v) -> EprSummary:
    """EPR-quadrature variances, partial purities and the four witnesses."""
    m = _as_cov(v).matrix
    var_p_minus = float(_F_P_MINUS @ m @ _F_P_MINUS)
    var_p_plus = float(_F_P_PLUS @ m @ _F_P_PLUS)
    var_q_minus = float(_F_Q_MINUS @ m @ _F_Q_MINUS)
    var_q_plus = float(_F_Q_PLUS @ m @ _F_Q_PLUS)
    return EprSummary(
        var_p_minus=var_p_minus,
        var_p_plus=var_p_plus,
        var_q_minus=var_q_minus,
        var_q_plus=var_q_plus,
        mu_plus=1.0 / math.sqrt(var_p_plus * var_q_plus),
        mu_minus=1.0 / math.sqrt(var_p_minus * var_q_minus),
        w_sum=var_p_minus + var_q_plus - 2.0,
        w_sum_bar=var_p_plus + var_q_minus - 2.0,
        w_prod=var_p_minus * var_q_plus - 1.0,
        w_prod_bar=var_p_plus * var_q_minus - 1.0,
    )


def _is_symmetric_mode_form(v, rtol: float = 1e-9) -> bool:
    b = blocks(v)
    scale = max(1.0, float(np.abs(_as_cov(v).matrix).max()))
    tol = rtol * scale
    diagonal = (
        abs(b.a1[0, 1]) <= tol
        and abs(b.a2[0, 1]) <= tol
        and abs(b.c[0, 1]) <= tol
        and abs(b.c[1, 0]) <= tol
    )
    return diagonal and bool(np.abs(b.a1 - b.a2).max() <= tol)


def epr_partial_witness(v) -> float:
    """Single-channel robustness witness in EPR form (symmetric modes only).

    ``w_sum * w_prod_bar + w_prod * w_sum_bar``; shares its sign with the
    channel robustness witnesses, which coincide for symmetric modes.
    """
    cov = _as_cov(v)
    if not _is_symmetric_mode_form(cov):
        raise ValidationError(
            "EPR partial witness requires a symmetric-mode covariance "
            "(equal diagonal mode blocks, diagonal correlations)"
        )
    e = epr_summary(cov)
    return e.w_sum * e.w_prod_bar + e.w_prod * e.w_sum_bar


def epr_state(
    mu_minus: float, mu_plus: float, q_plus_var: float, p_minus_var: float
) -> SymmetricModes:
    """Symmetric-mode family member with prescribed EPR variances and purities.

    The remaining variances follow from the fixed partial purities:
    ``q_minus = 1/(mu_minus^2 p_minus)`` and ``p_plus = 1/(mu_plus^2 q_plus)``.
    """
    if not (0.0 < mu_minus <= 1.0 and 0.0 < mu_plus <= 1.0):
        raise ValidationError("partial purities must lie in (0, 1]")
    if q_plus_var <= 0.0 or p_minus_var <= 0.0:
        raise ValidationError("EPR variances must be positive")
    return SymmetricModes(*_epr_moments(mu_minus, mu_plus, q_plus_var, p_minus_var))


def _epr_moments(mu_minus, mu_plus, q_plus_var, p_minus_var):
    """``(dq, dp, c_q, c_p)`` of :func:`epr_state`; the variances may be arrays."""
    q_minus_var = 1.0 / (mu_minus**2 * p_minus_var)
    p_plus_var = 1.0 / (mu_plus**2 * q_plus_var)
    return (
        0.5 * (q_plus_var + q_minus_var),
        0.5 * (p_plus_var + p_minus_var),
        0.5 * (q_plus_var - q_minus_var),
        0.5 * (p_plus_var - p_minus_var),
    )


#: Region codes used by the maps.
_REGION_OF_LABEL = {
    "FullyRobust": "I",
    "PartiallyRobustSymmetric": "II",
    "PartiallyRobustAsymmetric": "II",
    "Fragile": "III",
    "Separable": "IV",
}

UNPHYSICAL = "unphysical"

#: Region code of each robustness class code, then of an unphysical cell.
_REGIONS = np.array(
    [_REGION_OF_LABEL[cls.label] for cls in _CLASSES] + [UNPHYSICAL], dtype=object
)
_UNPHYSICAL_CODE = len(_CLASSES)

#: Cells evaluated per batch by the grid commands (region maps and scans).
#: It bounds the kernels' temporaries (the complex uncertainty matrices take
#: 256 bytes a cell) whatever the grid size.
GRID_CHUNK = 1024


@dataclass(frozen=True)
class RegionMap:
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


def _grid_chunks(nx: int, ny: int):
    """The ``nx x ny`` cells in row-major batches of ``GRID_CHUNK``.

    Yields ``(cells, i, j)``: the slice of flat cell indices and the row and
    column index of each cell in it.
    """
    for start in range(0, nx * ny, GRID_CHUNK):
        cells = slice(start, min(start + GRID_CHUNK, nx * ny))
        i, j = np.divmod(np.arange(cells.start, cells.stop), ny)
        yield cells, i, j


def _region_map(x_name, y_name, x, y, matrices) -> RegionMap:
    """Classify every cell ``(x[i], y[j])``; ``matrices(xs, ys)`` builds their stack.

    Each cell gets the verdicts of ``validate_physicality`` and ``classify``
    on its matrix, evaluated a chunk at a time by the shared kernels.  An
    unphysical cell is flagged ``boundary`` when it lies within tolerance of
    the physicality boundary, a physical one when a corner witness lies in
    the zero band.
    """
    codes = np.empty(x.size * y.size, dtype=np.intp)
    boundary = np.empty(x.size * y.size, dtype=bool)
    for cells, i, j in _grid_chunks(x.size, y.size):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            m = matrices(x[i], y[j])
        if not np.isfinite(m).all():
            raise ValidationError("covariance matrix contains non-finite entries")
        physical, flagged = _physicality(m)
        code = np.full(physical.shape, _UNPHYSICAL_CODE)
        if physical.any():
            m = m[physical]
            with np.errstate(over="ignore", invalid="ignore"):
                g, band = _gamma_set(m), _band(m)
            cls, corner_flags = _corner_class(g, band)
            code[physical] = cls
            flagged[physical] = np.any(corner_flags, axis=0)
        codes[cells] = code
        boundary[cells] = flagged
    shape = (x.size, y.size)
    return RegionMap(
        x_name=x_name,
        y_name=y_name,
        x=x,
        y=y,
        labels=_REGIONS[codes].reshape(shape),
        boundary=boundary.reshape(shape),
    )


def _require_finite(**params) -> None:
    bad = [name for name, value in params.items() if not math.isfinite(value)]
    if bad:
        raise ValidationError(f"map parameters must be finite: {', '.join(bad)}")


def _cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    width = (hi - lo) / n
    return lo + width * (np.arange(n) + 0.5)


def region_map_correlations(dq: float, dp: float, grid: int) -> RegionMap:
    """Robustness regions over normalized correlations for symmetric modes.

    The axes are ``cbar_p = c_p/dp`` and ``cbar_q = c_q/dq``, sampled at the
    centers of a ``grid x grid`` partition of ``[-1, 1]^2``.  The cells are
    classified in batches of ``GRID_CHUNK``, so memory beyond the returned
    arrays does not grow with ``grid``; each label equals that of
    ``classify`` on the cell's ``SymmetricModes`` matrix, or
    ``"unphysical"`` where ``validate_physicality`` rejects it.
    """
    _require_finite(dq=dq, dp=dp)
    if dq < 1.0 or dp < 1.0:
        raise ValidationError("variances must be at least the vacuum level 1")
    if grid < 1:
        raise ValueError("grid must be positive")
    cbar_p = _cell_centers(-1.0, 1.0, grid)
    cbar_q = _cell_centers(-1.0, 1.0, grid)
    return _region_map(
        "cbar_p",
        "cbar_q",
        cbar_p,
        cbar_q,
        lambda cp, cq: _symmetric_modes_stack(dq, dp, cq * dq, cp * dp),
    )


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
    variances are fixed by the purities.  Cells are classified in batches
    as in :func:`region_map_correlations`; each label equals that of
    ``classify`` on the cell's :func:`epr_state` matrix.
    """
    _require_finite(
        mu_minus=mu_minus, mu_plus=mu_plus, q_plus_max=q_plus_max, p_minus_max=p_minus_max
    )
    if not (0.0 < mu_minus <= 1.0 and 0.0 < mu_plus <= 1.0):
        raise ValidationError("partial purities must lie in (0, 1]")
    if grid < 1:
        raise ValueError("grid must be positive")
    q_plus = _cell_centers(0.0, q_plus_max, grid)
    p_minus = _cell_centers(0.0, p_minus_max, grid)
    if (q_plus <= 0.0).any() or (p_minus <= 0.0).any():
        raise ValidationError("EPR variances must be positive")
    return _region_map(
        "q_plus_var",
        "p_minus_var",
        q_plus,
        p_minus,
        lambda x, y: _symmetric_modes_stack(*_epr_moments(mu_minus, mu_plus, x, y)),
    )


@dataclass(frozen=True)
class RandomStateParams:
    """Sampling ranges for random physical states."""

    nu_min: float = 1.0
    nu_max: float = 2.5
    squeeze_max: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.nu_min <= self.nu_max:
            raise ValidationError("require 1 <= nu_min <= nu_max")
        if self.squeeze_max < 0.0:
            raise ValidationError("squeeze_max must be nonnegative")


def random_physical_state(seed: int, params: RandomStateParams | None = None) -> CovMatrix:
    """Deterministic random physical state ``S^T diag(nu1,nu1,nu2,nu2) S``.

    ``S`` composes a per-mode rotation-squeeze-rotation with a beam-splitter
    mixing angle; the symplectic eigenvalues ``nu_j >= 1`` are drawn from
    the configured range, so the output is physical by construction.
    """
    p = params or RandomStateParams()
    rng = np.random.default_rng(seed)
    nu1, nu2 = rng.uniform(p.nu_min, p.nu_max, 2)
    theta1, phi1, theta2, phi2, mix = rng.uniform(-math.pi, math.pi, 5)
    r1, r2 = rng.uniform(-p.squeeze_max, p.squeeze_max, 2)
    local = np.zeros((4, 4))
    local[:2, :2] = rotation2(theta1) @ squeeze2(r1) @ rotation2(phi1)
    local[2:, 2:] = rotation2(theta2) @ squeeze2(r2) @ rotation2(phi2)
    s = local @ beam_splitter(mix)
    diag = np.diag([nu1, nu1, nu2, nu2])
    return CovMatrix(s.T @ diag @ s)
