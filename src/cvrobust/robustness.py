"""Robustness of entanglement against channel losses.

The reduced witness ``W_R`` is affine in each transmittance, so its sign
pattern over the unit square is fixed by its four corner values:

* ``w_ppt = W_R(1, 1)`` -- entanglement of the state itself,
* ``w_ch1 = W_R(0, 1)`` -- limit of full loss on channel 1 only,
* ``w_ch2 = W_R(1, 0)`` -- limit of full loss on channel 2 only,
* ``w_full = W_R(0, 0)`` -- limit of heavy loss on both channels.

An entangled state is fully robust when all corners are nonpositive,
partially robust when it survives single-channel loss on both or one
channel, and fragile otherwise.  Note the index pairing: the witness for
losses on channel 1 is the ``T1 -> 0`` intercept ``gamma11 + gamma12`` of
``W_R(T1, 1)``; conventions that attach ``gamma21`` to channel 1 label the
same quantity by the transposed index.  Every function here rounds the
corners once (:func:`_rounded_corners`) and raises "witness values are not
finite" only when a corner is not finite, whatever the other Gamma fields.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple

from . import simplex
from ._exact import Matrix, _band_bounds, _finite, _integers, _verdict, congruence, exact, ratio
from ._record import Record
from .covariance import CovMatrix, LocalSymplectic, _as_cov, _require_physical, _upper
from .errors import SeparableInputError, ValidationError

__all__ = [
    "RobustnessClass",
    "RobustnessReport",
    "SEPARABLE",
    "FULLY_ROBUST",
    "PARTIALLY_ROBUST_SYMMETRIC",
    "FRAGILE",
    "partially_robust_asymmetric",
    "full_robustness_witness",
    "channel_robustness_witness",
    "critical_transmittance",
    "classify",
    "esd_contour",
    "RobustifyResult",
    "robustify",
    "CHANNEL_WITNESS_NOTE",
]

#: Emitted with classification reports to pin down the channel-index
#: convention of the single-loss witnesses.
CHANNEL_WITNESS_NOTE = (
    "channel witness convention: w_ch1 = gamma11 + gamma12 is the limit of the "
    "reduced witness for full loss on channel 1 with channel 2 lossless, and "
    "w_ch2 = gamma11 + gamma21 the converse; some conventions label these "
    "witnesses with the opposite gamma index."
)

_LABEL_RANK = {
    "Separable": 0,
    "Fragile": 1,
    "PartiallyRobustAsymmetric": 2,
    "PartiallyRobustSymmetric": 3,
    "FullyRobust": 4,
}


class RobustnessClass(Record):
    """Robustness class label, with the robust channel for asymmetric states."""

    __slots__ = _fields = ("label", "robust_mode")

    def __init__(self, label: str, robust_mode: int | None = None):
        if label not in _LABEL_RANK:
            raise ValueError(f"unknown robustness label {label!r}")
        if (label == "PartiallyRobustAsymmetric") != (robust_mode is not None):
            raise ValueError("robust_mode is set exactly for asymmetric labels")
        if robust_mode not in (None, 1, 2):
            raise ValueError("robust_mode must be 1 or 2")
        self._init(label, robust_mode)

    @property
    def rank(self) -> int:
        """Position in the robustness order (higher = more robust).

        FullyRobust > PartiallyRobustSymmetric > PartiallyRobustAsymmetric
        > Fragile > Separable.
        """
        return _LABEL_RANK[self.label]

    def __str__(self) -> str:
        if self.robust_mode is not None:
            return f"{self.label}(robust_mode={self.robust_mode})"
        return self.label


SEPARABLE = RobustnessClass("Separable")
FULLY_ROBUST = RobustnessClass("FullyRobust")
PARTIALLY_ROBUST_SYMMETRIC = RobustnessClass("PartiallyRobustSymmetric")
FRAGILE = RobustnessClass("Fragile")


def partially_robust_asymmetric(mode: int) -> RobustnessClass:
    return RobustnessClass("PartiallyRobustAsymmetric", robust_mode=mode)


class RobustnessReport(NamedTuple):
    """Corner witnesses, critical transmittances and the assigned class.

    ``t1_critical`` (``t2_critical``) is the single-channel transmittance at
    which entanglement dies when only that channel is lossy; absent when the
    state is robust on that channel or within the zero band. Witness values
    inside the zero band are resolved to the robust side and recorded in
    ``boundary_flags``.
    """

    w_ppt: float
    w_full: float
    w_ch1: float
    w_ch2: float
    t1_critical: float | None
    t2_critical: float | None
    cls: RobustnessClass
    boundary_flags: frozenset[str]


def full_robustness_witness(v) -> float:
    """``gamma11 = sigma1*sigma2 - tr(c^T c) + 2 det c``.

    Together with a negative PPT witness, a nonpositive value certifies that
    entanglement survives every partial attenuation.  Coincides with the
    minimized variance witness when the correlation block is diagonal.
    """
    return _rounded_corners(_as_cov(v)._exact())[1][1]


def channel_robustness_witness(v, mode: int) -> float:
    """Single-loss edge intercept of the reduced witness for ``mode``.

    ``mode=1`` returns ``gamma11 + gamma12`` (channel 1 lossy, channel 2
    lossless); ``mode=2`` returns ``gamma11 + gamma21``.  Nonpositive values
    (for an entangled state) mean losses on that channel alone never
    disentangle.  The sum is evaluated exactly and rounded once.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    return _rounded_corners(_as_cov(v)._exact())[1][1 + mode]


def critical_transmittance(v, mode: int) -> float | None:
    """Transmittance below which single-channel loss disentangles the state.

    ``T_c = w_ch / (w_ch - w_ppt)`` in (0, 1), the ``t1_critical`` or
    ``t2_critical`` of :func:`classify`: ``None`` when the state is robust on
    that channel or a witness lies in the zero band.  Raises for separable or
    unphysical input.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    report = classify(v)
    if report.cls == SEPARABLE:
        raise SeparableInputError(
            "critical transmittance requires an entangled state (w_ppt < 0)"
        )
    return report.t1_critical if mode == 1 else report.t2_critical


#: Robustness classes indexed by the codes of ``_exact._code``.
_CLASSES = (
    SEPARABLE,
    FRAGILE,
    partially_robust_asymmetric(1),
    partially_robust_asymmetric(2),
    PARTIALLY_ROBUST_SYMMETRIC,
    FULLY_ROBUST,
)

_CORNERS = ("w_ppt", "w_full", "w_ch1", "w_ch2")


def _rounded_corners(x: Matrix):
    """The exact corners of ``x`` and their values rounded once: all finite, else raise."""
    corners = x.corners()
    return corners, _finite([ratio(n, d) for n, d in corners])


def classify(v) -> RobustnessReport:
    """Assign a robustness class from the corner values of the reduced witness.

    Witness values within the zero band (see
    :func:`~cvrobust.witnesses.boundary_band`) count as nonpositive -- the
    robust side -- and are flagged.  Separability uses the nonstrict rule:
    ``w_ppt >= 0`` is separable.  Unphysical input and an overflowing corner
    raise :class:`ValidationError`.
    """
    x = _require_physical(v)._exact()
    corners, values = _rounded_corners(x)
    nums, dens = zip(*corners)
    code, flags = _verdict(nums, _band_bounds(x.scale, dens))
    ppt, ppt_den = corners[0]

    def t_crit(k):
        # Set when w_ppt < -band and w > band, that is, when neither is
        # flagged and the signs are right: T_c = w/(w - w_ppt), rounded once.
        w, den = corners[k]
        if ppt >= 0 or w <= 0 or flags[0] or flags[k]:
            return None
        return ratio(w * ppt_den, w * ppt_den - ppt * den)

    return RobustnessReport(
        *values,
        t1_critical=t_crit(2),
        t2_critical=t_crit(3),
        cls=_CLASSES[code],
        boundary_flags=frozenset(name for name, flag in zip(_CORNERS, flags) if flag),
    )


def esd_contour(v, samples: int = 256) -> np.ndarray:
    """Sample the disentanglement boundary ``W_R = 0`` inside ``(0, 1]^2``.

    At each of ``samples`` evenly spaced values of ``t1`` the affine equation
    ``W_R(t1, t2) = 0`` has one root ``t2``, exact and rounded once, kept
    when it lies in ``(0, 1]``; no zero band enters.  The point at ``t1 = 1``
    is :func:`classify`'s ``t2_critical`` wherever that is set.  Returns an
    ``(n, 2)`` array of ``(t1, t2)`` points, empty for fully robust states
    and when ``W_R`` vanishes identically.  Raises :class:`ValidationError`
    for unphysical input, when a corner overflows and when ``samples`` is
    not a positive integer.
    """
    import numpy as np

    points = _contour(_as_cov(v), samples)
    return np.fromiter(chain.from_iterable(points), dtype=float).reshape(-1, 2)


def _row_ends(cov: CovMatrix, ts: Iterable[float]) -> Iterator[tuple[float, int, int, int]]:
    """The ends of ``W_R``'s rows, exactly: ``(t1, a, b, den)`` for each ``t1`` of ``ts``.

    Physicality and overflow are checked at the call, before any row is
    made.  ``W_R`` is bilinear: with ``F, C1, C2, P`` the exact ``w_full``,
    ``w_ch1``, ``w_ch2`` and ``w_ppt`` over ``D^4``, at ``t1 = m/d`` it runs
    linearly in ``t2`` from ``a / den = W_R(t1, 0) = ((d - m) F + m C2) / d``
    to ``b / den = W_R(t1, 1) = ((d - m) C1 + m P) / d``, with ``den = d D^4``.
    Every value of ``W_R`` on the unit square is a convex combination of
    the four corners, so once they round to finite floats, so does it.
    """
    x = _require_physical(cov)._exact()
    (ppt, _), (full, _), (ch1, _), (ch2, _) = _rounded_corners(x)[0]
    one2 = x.one * x.one
    one4 = one2 * one2
    full, ch1, ch2 = full * one2, ch1 * x.one, ch2 * x.one  # over D^4

    def rows():
        for t1 in ts:
            m, d = t1.as_integer_ratio()
            yield t1, (d - m) * full + m * ch2, (d - m) * ch1 + m * ppt, d * one4

    return rows()


def _scan(cov: CovMatrix, grid: int) -> tuple[list[float], Iterator[tuple[float, list]]]:
    """``scan``'s ``t2`` samples and rows ``(t1, [(t1 t2 W_R, W_R), ...])``, each rounded once.

    Checks ``grid``, physicality and overflow at the call.  On the row ``(t1 = m1/d1, a, b, den)``
    of :func:`_row_ends`, at ``t2 = m2/one``, ``W_R = w/(one den)`` for ``w = one a + m2 (b - a)``.
    """
    if grid < 2:
        raise ValidationError("scan grid must be at least 2")
    ts = list(_unit_samples(grid))
    ms, one = _integers(ts)
    rows = _row_ends(cov, ts)

    def cells():
        for t1, a, b, den in rows:
            m1, d1 = t1.as_integer_ratio()
            start, slope, den = one * a, b - a, one * den
            att = d1 * one * den
            yield t1, [(m1 * m2 * (w := start + m2 * slope) / att, w / den) for m2 in ms]

    return ts, cells()


def _unit_samples(n: int) -> Iterator[float]:
    """Yield ``n >= 2`` evenly spaced transmittances ``k * (1/(n - 1))``, the last one 1.

    The values of ``np.linspace(0, 1, n)``, for the grid of ``scan`` and the
    contour samples, made as they are read.
    """
    step = 1.0 / (n - 1)
    for k in range(n - 1):
        yield k * step
    yield 1.0


def _contour(cov: CovMatrix, samples: int) -> Iterator[tuple[float, float]]:
    """The points of :func:`esd_contour`: ``(t1, t2)`` float pairs made as they are read.

    ``samples``, physicality and overflow are checked at the call, before
    any point is made.  The samples ``t1 = i * (1/samples)``, the last one
    1, are those of ``np.linspace(0, 1, samples + 1)[1:]``.  Along the row
    at ``t1`` (:func:`_row_ends`), ``W_R`` has the root ``a / (a - b)``,
    kept when it lies in ``(0, 1]``, decided on the row's integers, and
    rounded once; ``a = b`` has none.  At ``t1 = 1`` it is
    ``w_ch2 / (w_ch2 - w_ppt)``, ``t2_critical``.
    """
    if not hasattr(samples, "__index__") or samples < 1:
        raise ValidationError("samples must be positive")
    rows = _row_ends(cov, islice(_unit_samples(samples + 1), 1, None))

    def points():
        for t1, a, b, _ in rows:
            den = a - b
            if 0 < a <= den or den <= a < 0:
                yield t1, a / den  # correctly rounded

    return points()


class RobustifyResult(NamedTuple):
    """A local symplectic making the state fully robust, and the transformed state."""

    s: LocalSymplectic
    v_out: CovMatrix
    objective: float
    evaluations: int


def _corner_objective(rows) -> float:
    # max of the three robustness corners of the symmetric rows; < 0 means
    # fully robust.
    corners = Matrix(_upper(rows)).corners()[1:]
    return max(ratio(n, d) for n, d in corners)


def robustify(v, budget: int = 10_000, seed: int = 0) -> RobustifyResult | None:
    """Search for a local symplectic that makes an entangled state fully robust.

    Minimizes ``max(w_full, w_ch1, w_ch2)`` of ``S V S^T`` over the six
    rotation-squeeze-rotation parameters with a Nelder-Mead simplex (initial
    scale 0.1), restarting from up to 8 seeded random points, and returns the
    first transform achieving a negative objective whose ``S V S^T`` passes
    the admissibility gate.  ``S V S^T``, in the objective and in the
    result, is :func:`~cvrobust.covariance.apply_local_symplectic`'s exact
    congruence rounded once, so the search runs on the standard library
    alone and its result does not depend on a BLAS kernel.  Entanglement is
    untouched: ``S V S^T`` has the symplectic spectrum of ``V``.  Returns
    ``None`` when the evaluation budget is exhausted; a ``budget`` that is
    not a positive integer, a ``seed`` that is not a nonnegative integer and
    unphysical input raise :class:`ValidationError`.
    """
    integers = hasattr(budget, "__index__") and hasattr(seed, "__index__")
    if not integers or budget < 1 or seed < 0:
        raise ValidationError("robustify needs budget >= 1 and seed >= 0")
    cov = _as_cov(v)
    report = classify(cov)
    if report.cls == SEPARABLE:
        raise SeparableInputError("robustify requires an entangled state")
    if report.cls == FULLY_ROBUST:
        return RobustifyResult(
            s=LocalSymplectic.identity(),
            v_out=cov,
            objective=max(report.w_full, report.w_ch1, report.w_ch2),
            evaluations=0,
        )

    base = exact(cov.tolist())

    def objective(x) -> float:
        return _corner_objective(congruence(LocalSymplectic(*x)._exact(), base))

    rng = None
    spent = 0
    restarts = 8
    for attempt in range(1 + restarts):
        if spent >= budget:
            break
        if attempt == 0:
            x0 = [0.0] * 6
        else:
            if rng is None:
                from ._pcg64 import default_rng

                rng = default_rng(seed)
            bounds = (math.pi, 1.0, math.pi, math.pi, 1.0, math.pi)
            x0 = [rng.uniform(-b, b, 1)[0] for b in bounds]
        result = simplex.nelder_mead(
            objective, x0, step=0.1, max_evals=budget - spent, target=0.0
        )
        spent += result.evaluations
        if result.hit_target:
            s = LocalSymplectic(*result.x)
            v_out = CovMatrix(congruence(s._exact(), base))
            if not v_out._exact().physicality()[0]:
                # The input's own lambda_min, inside the tolerance at its
                # scale, can exceed it at the output's: try the next restart.
                continue
            return RobustifyResult(
                s=s, v_out=v_out, objective=result.fun, evaluations=spent
            )
    return None
