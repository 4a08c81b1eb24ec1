"""Region maps: the robustness region of every cell of a grid, exactly.

:func:`_map_row` decides a row of symmetric-mode cells from their EPR
variances; :func:`_correlation_cells` and :func:`_epr_cells` make the axes
and rows of the ``map`` command and of ``families.region_map_*``.  Only
:mod:`cvrobust._exact` and :mod:`cvrobust.errors` are imported, so ``map``
executes nothing else.  The tolerance policy is ``_exact``'s: the
physicality tolerance comes from ``_tol_bound``, and an in-band cell's
class code and flags from ``_verdict``, as for ``classify``.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, sub

from ._exact import PHYSICALITY_TOL, _OVERFLOW, _UNPHYSICAL, _band_bounds, _code, _finite
from ._exact import _integers, _physicality_tol, _tol_bound, _verdict, ratio
from .errors import ValidationError

UNPHYSICAL = "unphysical"

#: Region of each class code (``robustness._CLASSES``: separable, fragile, partially
#: robust on channel 1, on 2, on both, fully robust), then of an unphysical cell.
_REGIONS = ("IV", "III", "II", "II", "II", "I", UNPHYSICAL)


def _require_finite(**params) -> None:
    bad = [name for name, value in params.items() if not math.isfinite(value)]
    if bad:
        raise ValidationError(f"parameters must be finite: {', '.join(bad)}")


def _cell_centers(lo: float, hi: float, n: int) -> list:
    """The centers of ``n`` equal cells partitioning ``[lo, hi]``, for a positive integer ``n``."""
    if not hasattr(n, "__index__") or n < 1:
        raise ValidationError("grid must be positive")
    width = (hi - lo) / n
    return [lo + width * (k + 0.5) for k in range(n)]


def _conjugate_variance(mu: float, variance: float) -> float:
    """``1/(mu^2 variance)``, the EPR variance that partial purity ``mu`` pairs with ``variance``.

    Infinite where it leaves float range, also where ``mu^2 variance``
    underflows to 0.
    """
    den = mu**2 * variance
    return 1.0 / den if den else math.inf


def _map_row(one, q_plus, q_minus, p_plus, p_minus, scales) -> list:
    """The verdicts ``(code, boundary)`` of one row of region map cells, exactly.

    Cell ``j`` (``a1 = a2 = diag(dq, dp)``, ``c = diag(c_q, c_p)``) enters by
    its EPR variances ``q_plus[j] = dq + c_q``, ``q_minus[j] = dq - c_q``,
    ``p_plus[j] = dp + c_p`` and ``p_minus[j] = dp - c_p``, integers over a
    power of two ``one >= 2^82`` (so that every tolerance is one too), and by
    its tolerance unit ``scales[j]``, a sequence.  The verdicts are those of
    ``validate_physicality`` and ``classify`` on its matrix: ``_UNPHYSICAL``
    and no flag, else the class code and whether a corner is in the zero
    band.  Raises :class:`ValidationError` when a rounded corner is not finite.

    A balanced beam splitter, orthogonal and symplectic, takes ``V + i*Omega``
    to the one-mode blocks ``diag(q, p) + i*J`` of ``(q_+, p_+)`` and
    ``(q_-, p_-)``, so the cell is physical when, for both, ``q + p + 2 tol
    >= 0`` and ``(q + tol)(p + tol) >= 1``; given the product, the sum test
    is ``q + tol >= 0``.  Its corners are those of
    :class:`~cvrobust.families.EprSummary`: ``w_ppt = w_prod * w_prod_bar``,
    ``w_full = w_sum * w_sum_bar`` and ``w_ch1 = w_ch2 = (w_sum * w_prod_bar
    + w_prod * w_sum_bar) / 2``, over ``one^4``, ``one^2`` and ``2 one^3``.  A
    corner ``w`` over ``den`` with ``|w| >= _OVERFLOW den`` rounds to no float,
    and ``_finite`` raises; below that limit ``_verdict`` decides the code
    and flags against the bounds from ``_band_bounds``, as for ``classify``.
    An infinite band's bound is the limit, so it flags every corner.

    Tolerance and band are nondecreasing in the scale.  So the tolerance,
    ``_tol_bound`` over ``one``, is one integer per row where it is the same
    at the row's smallest and largest scale (always below the knee of
    ``_physicality_tol``), and the bounds at the row's largest scale are
    formed once: a cell whose three ``|corner|`` exceed them is in no band,
    and the bound test reduces to its signs.  Only the other cells form the
    bounds at their own scale.
    """
    one2 = one * one
    dens = (one2 * one2, one2, 2 * one * one2, 2 * one * one2)
    limit_ppt, limit_full, limit_ch, _ = (_OVERFLOW * den for den in dens)
    two = one + one
    low, top = min(scales, default=1.0), max(scales, default=1.0)
    if _physicality_tol(low) == _physicality_tol(top):
        tols = repeat(_tol_bound(top, one))
    else:
        tols = map(_tol_bound, scales, repeat(one))
    top_ppt, top_full, top_ch, _ = _band_bounds(top, dens)
    row, seen = [], None
    for qp, qm, pp, pm, scale, tol in zip(q_plus, q_minus, p_plus, p_minus, scales, tols):
        q, p, r, s = qp + tol, pp + tol, qm + tol, pm + tol
        if q < 0 or r < 0 or q * p < one2 or r * s < one2:
            row.append((_UNPHYSICAL, False))
            continue
        prod, prod_bar = pm * qp - one2, pp * qm - one2
        w_sum, w_sum_bar = pm + qp - two, pp + qm - two
        ppt, full = prod * prod_bar, w_sum * w_sum_bar
        ch = w_sum * prod_bar + prod * w_sum_bar
        a, b, c = abs(ppt), abs(full), abs(ch)
        if a >= limit_ppt or b >= limit_full or c >= limit_ch:
            _finite([ratio(w, den) for w, den in zip((ppt, full, ch), dens)])
        if a > top_ppt and b > top_full and c > top_ch:
            # Out of every band: the bound tests below give the signs.
            robust = ch < 0
            row.append((_code(ppt < 0, robust, robust, full < 0), False))
            continue
        if scale != seen:
            seen = scale
            bounds = _band_bounds(scale, dens)
        code, flags = _verdict((ppt, full, ch, ch), bounds)
        row.append((code, any(flags)))
    return row


def _correlation_cells(dq: float, dp: float, grid: int):
    """The axes and verdict rows of ``families.region_map_correlations``, as lists.

    Returns ``(x_name, y_name, x, y, rows)``: the axis names, the cell
    centers of each axis and an iterator over the rows, each the list of
    :func:`_map_row` verdicts ``(code, boundary)`` of the cells
    ``(x[i], y[j])`` (the codes index ``_REGIONS``).  A row is decided as it
    is read, so memory does not grow with ``grid``; the arguments are
    checked at the call.  The entries become integers over one denominator
    per map, the EPR variances are summed once per row and once per column,
    and every cell has the tolerance unit ``max(1, dq, dp)``, since
    ``|c_q| <= dq`` and ``|c_p| <= dp``.
    """
    _require_finite(dq=dq, dp=dp)
    if dq < 1.0 or dp < 1.0:
        raise ValidationError("variances must be at least the vacuum level 1")
    dq, dp = float(dq), float(dp)
    cbar = _cell_centers(-1.0, 1.0, grid)
    scales = [max(dq, dp)] * grid
    correlations = [cbar_q * dq for cbar_q in cbar] + [cbar_p * dp for cbar_p in cbar]
    # PHYSICALITY_TOL puts its denominator 2^82 in one, as _map_row needs.
    (dq, dp, _, *c), one = _integers([dq, dp, PHYSICALITY_TOL, *correlations])
    q_plus, q_minus = [dq + c_q for c_q in c[:grid]], [dq - c_q for c_q in c[:grid]]

    def rows():
        for c_p in c[grid:]:
            yield _map_row(one, q_plus, q_minus, repeat(dp + c_p), repeat(dp - c_p), scales)

    return "cbar_p", "cbar_q", cbar, cbar, rows()


def _epr_cells(mu_minus, mu_plus, grid, q_plus_max, p_minus_max):
    """The axes and verdict rows of ``families.region_map_epr``, as in :func:`_correlation_cells`.

    ``p_plus = 1/(mu_plus^2 q_plus)`` is evaluated once per row and
    ``q_minus = 1/(mu_minus^2 p_minus)`` once per column, as ``epr_state``
    does, and each cell's moments are rounded as ``families._epr_moments``
    rounds them.  A rounded ``(a +- b)/2`` is a multiple of half the common
    denominator of ``a`` and ``b``, so every moment is an integer over
    ``one``, twice the axes' common denominator, one per map: the exact float
    ``moment * one`` while ``max(axes) * one`` is finite, else (axes spanning
    over about 970 binades) from ``as_integer_ratio``.  A row ends at its
    first non-finite cell, which raises once the cells before it are decided.
    """
    _require_finite(
        mu_minus=mu_minus, mu_plus=mu_plus, q_plus_max=q_plus_max, p_minus_max=p_minus_max
    )
    if not (0.0 < mu_minus <= 1.0 and 0.0 < mu_plus <= 1.0):
        raise ValidationError("partial purities must lie in (0, 1]")
    q_plus = _cell_centers(0.0, q_plus_max, grid)
    p_minus = _cell_centers(0.0, p_minus_max, grid)
    if min(q_plus) <= 0.0 or min(p_minus) <= 0.0:
        raise ValidationError("EPR variances must be positive")
    p_plus = [_conjugate_variance(mu_plus, x) for x in q_plus]
    q_minus = [_conjugate_variance(mu_minus, y) for y in p_minus]
    axes = [v for v in (*q_plus, *p_plus, *p_minus, *q_minus) if v < math.inf]
    # Twice the axes' common denominator, and at least PHYSICALITY_TOL's 2^82.
    one = _integers([*axes, PHYSICALITY_TOL])[1] << 1
    bits = one.bit_length()
    unit = float(one) if bits <= 1024 else math.inf
    scaled = max(axes) * unit < math.inf  # so every moment times one is an exact float

    def integers(values):
        if scaled:
            return [int(v * unit) for v in values]
        return [n << (bits - d.bit_length()) for n, d in map(float.as_integer_ratio, values)]

    def rows():
        for x, pp in zip(q_plus, p_plus):
            dq = [0.5 * (x + qm) for qm in q_minus]
            dp = [0.5 * (pp + y) for y in p_minus]
            # max(1, dq, dp), since |c_q| <= dq and |c_p| <= dp.
            scales = [a if a > b and a > 1.0 else b if b > 1.0 else 1.0 for a, b in zip(dq, dp)]
            end = scales.index(math.inf) if math.inf in scales else grid
            dq, dp = integers(dq[:end]), integers(dp[:end])
            c_q = integers([0.5 * (x - qm) for qm in q_minus[:end]])
            c_p = integers([0.5 * (pp - y) for y in p_minus[:end]])
            q_pm = map(add, dq, c_q), map(sub, dq, c_q)
            row = _map_row(one, *q_pm, map(add, dp, c_p), map(sub, dp, c_p), scales[:end])
            if end < grid:
                raise ValidationError("covariance matrix contains non-finite entries")
            yield row

    return "q_plus_var", "p_minus_var", q_plus, p_minus, rows()
