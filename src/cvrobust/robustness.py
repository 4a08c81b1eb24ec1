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
same quantity by the transposed index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovMatrix, LocalSymplectic, _as_cov, validate_physicality
from .errors import SeparableInputError, ValidationError
from .simplex import nelder_mead
from .witnesses import GammaSet, boundary_band, gamma_coefficients, reduced_witness

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


@dataclass(frozen=True)
class RobustnessClass:
    """Robustness class label, with the robust channel for asymmetric states."""

    label: str
    robust_mode: int | None = None

    def __post_init__(self):
        if self.label not in _LABEL_RANK:
            raise ValueError(f"unknown robustness label {self.label!r}")
        if (self.label == "PartiallyRobustAsymmetric") != (self.robust_mode is not None):
            raise ValueError("robust_mode is set exactly for asymmetric labels")
        if self.robust_mode not in (None, 1, 2):
            raise ValueError("robust_mode must be 1 or 2")

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


@dataclass(frozen=True)
class RobustnessReport:
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
    return gamma_coefficients(v).gamma11


def channel_robustness_witness(v, mode: int) -> float:
    """Single-loss edge intercept of the reduced witness for ``mode``.

    ``mode=1`` returns ``gamma11 + gamma12`` (channel 1 lossy, channel 2
    lossless); ``mode=2`` returns ``gamma11 + gamma21``.  Nonpositive values
    (for an entangled state) mean losses on that channel alone never
    disentangle.
    """
    g = gamma_coefficients(v)
    if mode == 1:
        return g.w_ch1
    if mode == 2:
        return g.w_ch2
    raise ValueError(f"mode must be 1 or 2, got {mode!r}")


def critical_transmittance(v, mode: int) -> float | None:
    """Transmittance below which single-channel loss disentangles the state.

    ``T_c = w_ch / (w_ch - w_ppt)``, guaranteed in (0, 1) when it exists;
    ``None`` when the state is robust on that channel.  Raises for separable
    input.
    """
    cov = _as_cov(v)
    g = gamma_coefficients(cov)
    if g.w_ppt >= 0.0:
        raise SeparableInputError(
            "critical transmittance requires an entangled state (w_ppt < 0)"
        )
    w = channel_robustness_witness(cov, mode)
    if w <= 0.0:
        return None
    return w / (w - g.w_ppt)


#: Robustness classes indexed by the codes of :func:`_corner_class`.
_CLASSES = (
    SEPARABLE,
    FRAGILE,
    partially_robust_asymmetric(1),
    partially_robust_asymmetric(2),
    PARTIALLY_ROBUST_SYMMETRIC,
    FULLY_ROBUST,
)

_CORNERS = ("w_ppt", "w_full", "w_ch1", "w_ch2")


def _corner_class(g: GammaSet, band):
    """Corner-sign class decision, for one Gamma set or a stack of them.

    ``g`` holds floats or arrays of one batch shape and ``band`` the matching
    zero-band half-widths.  Returns the class codes (indices into
    ``_CLASSES``) and, per corner in ``_CORNERS`` order, whether its value
    lies inside the band.  Corners within the band count as nonpositive.
    Raises :class:`ValidationError` when a corner is not finite, as when the
    witness polynomial overflows.
    """
    corners = (g.w_ppt, g.w_full, g.w_ch1, g.w_ch2)
    if not np.isfinite(corners).all():
        raise ValidationError(
            "witness values are not finite: the covariance entries are too "
            "large to evaluate the quartic witness"
        )
    w_ppt, w_full, w_ch1, w_ch2 = corners
    r1 = w_ch1 <= band
    r2 = w_ch2 <= band
    rf = w_full <= band
    # Separable 0; entangled: 1 + (robust on 1) + 2*(robust on 2), and 5 when
    # also robust at full loss, following the order of _CLASSES.
    code = (w_ppt < 0.0) * (1 + r1 + 2 * r2 + (rf & r1 & r2))
    return code, tuple(abs(w) <= band for w in corners)


def classify(v) -> RobustnessReport:
    """Assign a robustness class from the corner values of the reduced witness.

    Witness values within the zero band (see :func:`boundary_band`) count as
    nonpositive -- the robust side -- and are flagged.  Separability uses the
    nonstrict rule: ``w_ppt >= 0`` is separable.
    """
    cov = _as_cov(v)
    # Entries too large for the quartic invariants overflow here; the
    # corner check in _corner_class turns that into a ValidationError.
    with np.errstate(over="ignore", invalid="ignore"):
        diag = validate_physicality(cov)
        if not diag.physical:
            raise ValidationError(
                f"cannot classify an unphysical state (nu_minus={diag.nu.nu_minus!r})"
            )
        g = gamma_coefficients(cov)
        band = boundary_band(cov)
    code, flagged = _corner_class(g, band)

    def t_crit(w):
        if g.w_ppt < -band and w > band:
            return w / (w - g.w_ppt)
        return None

    return RobustnessReport(
        w_ppt=g.w_ppt,
        w_full=g.w_full,
        w_ch1=g.w_ch1,
        w_ch2=g.w_ch2,
        t1_critical=t_crit(g.w_ch1),
        t2_critical=t_crit(g.w_ch2),
        cls=_CLASSES[code],
        boundary_flags=frozenset(
            name for name, flag in zip(_CORNERS, flagged) if flag
        ),
    )


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


def esd_contour(v, samples: int = 256) -> np.ndarray:
    """Sample the disentanglement boundary ``W_R = 0`` inside ``(0, 1]^2``.

    Scans ``samples`` evenly spaced values of ``t1`` and solves the affine
    equation for ``t2``; where the denominator nearly vanishes (the
    hyperbola's vertical asymptote) a sign-change bisection along the
    vertical line is used instead.  Returns an ``(n, 2)`` array of
    ``(t1, t2)`` points, empty for fully robust states.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    cov = _as_cov(v)
    g = gamma_coefficients(cov)
    band = 1e-9 * max(1.0, float(np.abs(cov.matrix).max()) ** 2)
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


@dataclass(frozen=True)
class RobustifyResult:
    """A local symplectic making the state fully robust, and the transformed state."""

    s: LocalSymplectic
    v_out: CovMatrix
    objective: float
    evaluations: int


def _corner_objective(m: np.ndarray) -> float:
    # max of the three robustness corners; < 0 means fully robust.
    g = gamma_coefficients(CovMatrix(m))
    return max(g.w_full, g.w_ch1, g.w_ch2)


def robustify(v, budget: int = 10_000, seed: int = 0) -> RobustifyResult | None:
    """Search for a local symplectic that makes an entangled state fully robust.

    Minimizes ``max(w_full, w_ch1, w_ch2)`` of ``S V S^T`` over the six
    rotation-squeeze-rotation parameters with a Nelder-Mead simplex (initial
    scale 0.1), restarting from up to 8 seeded random points, and returns the
    first transform achieving a negative objective.  Entanglement is
    untouched: ``S V S^T`` has the symplectic spectrum of ``V``.  Returns
    ``None`` when the evaluation budget is exhausted.
    """
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

    base = cov.matrix

    def objective(x) -> float:
        s = LocalSymplectic(*(float(p) for p in x))
        mat = s.matrix()
        return _corner_objective(mat @ base @ mat.T)

    rng = np.random.default_rng(seed)
    spent = 0
    restarts = 8
    for attempt in range(1 + restarts):
        if spent >= budget:
            break
        if attempt == 0:
            x0 = np.zeros(6)
        else:
            x0 = np.concatenate(
                [
                    rng.uniform(-math.pi, math.pi, 1),
                    rng.uniform(-1.0, 1.0, 1),
                    rng.uniform(-math.pi, math.pi, 1),
                    rng.uniform(-math.pi, math.pi, 1),
                    rng.uniform(-1.0, 1.0, 1),
                    rng.uniform(-math.pi, math.pi, 1),
                ]
            )
        result = nelder_mead(
            objective, x0, step=0.1, max_evals=budget - spent, target=0.0
        )
        spent += result.evaluations
        if result.hit_target:
            s = LocalSymplectic(*(float(p) for p in result.x))
            mat = s.matrix()
            v_out = CovMatrix(mat @ base @ mat.T)
            return RobustifyResult(
                s=s, v_out=v_out, objective=result.fun, evaluations=spent
            )
    return None
