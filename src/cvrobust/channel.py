"""Lossy bosonic channel acting on covariance matrices.

Attenuation by intensity transmittances ``(T1, T2)`` mixes each mode with
vacuum on a beam splitter and acts on the covariance matrix as

    V' = L (V - I) L + I,   L = diag(sqrt(T1), sqrt(T1), sqrt(T2), sqrt(T2)).

This is the zero-temperature channel: no thermal noise is added.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .covariance import CovMatrix, _as_cov
from .errors import ValidationError

__all__ = [
    "Transmittance",
    "LinkBudget",
    "attenuate",
    "loss_matrix",
    "transmittance_from_link",
    "default_alpha_db_per_km",
    "ALPHA_ENV_VAR",
    "DEFAULT_ALPHA_DB_PER_KM",
]

#: Standard telecom fiber attenuation, dB per km.
DEFAULT_ALPHA_DB_PER_KM = 0.2

#: Environment variable overriding the default attenuation coefficient.
ALPHA_ENV_VAR = "CVROBUST_ALPHA_DB_PER_KM"


def default_alpha_db_per_km() -> float:
    """The default fiber attenuation, overridable via the environment."""
    raw = os.environ.get(ALPHA_ENV_VAR)
    if raw is None:
        return DEFAULT_ALPHA_DB_PER_KM
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{ALPHA_ENV_VAR} must be a number, got {raw!r}")
    if value < 0.0:
        raise ValidationError(f"{ALPHA_ENV_VAR} must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class Transmittance:
    """Intensity transmittances of the two channels, each in [0, 1]."""

    t1: float
    t2: float

    def __post_init__(self):
        for name, t in (("t1", self.t1), ("t2", self.t2)):
            if not (isinstance(t, (int, float)) and math.isfinite(t)):
                raise ValidationError(f"transmittance {name} must be a finite number")
            if not 0.0 <= t <= 1.0:
                raise ValidationError(f"transmittance {name}={t} outside [0, 1]")

    @classmethod
    def of(cls, value) -> "Transmittance":
        """Coerce a ``Transmittance`` or an ``(t1, t2)`` pair."""
        if isinstance(value, cls):
            return value
        t1, t2 = value
        return cls(float(t1), float(t2))


@dataclass(frozen=True)
class LinkBudget:
    """Fiber-link description from which transmittances are derived.

    ``scenario`` selects between ``"dual-channel"`` (both modes propagate,
    each over its own fiber length) and ``"single-channel"`` (the sender
    keeps mode 1, so channel 1 is lossless and only ``length2_km`` matters).
    ``alpha_db_per_km=None`` uses the package default, which can be
    overridden through the ``CVROBUST_ALPHA_DB_PER_KM`` environment variable.
    """

    scenario: str = "dual-channel"
    length1_km: float = 0.0
    length2_km: float = 0.0
    alpha_db_per_km: float | None = None

    def __post_init__(self):
        if self.scenario not in ("dual-channel", "single-channel"):
            raise ValidationError(
                f"scenario must be 'dual-channel' or 'single-channel', got {self.scenario!r}"
            )
        for name, value in (("length1_km", self.length1_km), ("length2_km", self.length2_km)):
            if value < 0.0:
                raise ValidationError(f"{name} must be nonnegative, got {value}")
        if self.alpha_db_per_km is not None and self.alpha_db_per_km < 0.0:
            raise ValidationError(
                f"alpha_db_per_km must be nonnegative, got {self.alpha_db_per_km}"
            )


def transmittance_from_link(budget: LinkBudget) -> Transmittance:
    """Transmittances ``T = 10^(-alpha * length / 10)`` for the link budget."""
    alpha = (
        budget.alpha_db_per_km
        if budget.alpha_db_per_km is not None
        else default_alpha_db_per_km()
    )
    t2 = 10.0 ** (-alpha * budget.length2_km / 10.0)
    if budget.scenario == "single-channel":
        return Transmittance(1.0, t2)
    t1 = 10.0 ** (-alpha * budget.length1_km / 10.0)
    return Transmittance(t1, t2)


def loss_matrix(t) -> np.ndarray:
    """The diagonal loss matrix ``diag(sqrt(T1), sqrt(T1), sqrt(T2), sqrt(T2))``."""
    t = Transmittance.of(t)
    l1 = math.sqrt(t.t1)
    l2 = math.sqrt(t.t2)
    return np.diag([l1, l1, l2, l2])


def attenuate(v, t) -> CovMatrix:
    """Apply the attenuation channel ``V -> L (V - I) L + I``.

    Block-wise this sends ``c -> sqrt(T1 T2) c`` and
    ``a_j -> T_j (a_j - I) + I``, so ``t = (1, 1)`` is the identity and
    ``t = (0, 0)`` outputs the two-mode vacuum.  Physical inputs stay
    physical for every transmittance pair.
    """
    t = Transmittance.of(t)
    return CovMatrix(_attenuate_stack(_as_cov(v).matrix, t.t1, t.t2))


def _attenuate_stack(m: np.ndarray, t1, t2) -> np.ndarray:
    """:func:`attenuate` of ``m`` for each pair of the broadcast ``t1``, ``t2``.

    Returns the attenuated matrices with shape ``shape(t1 * t2) + (4, 4)``;
    the transmittances are not range checked here.
    """
    l1, l2 = np.broadcast_arrays(np.sqrt(t1), np.sqrt(t2))
    diag = np.stack([l1, l1, l2, l2], axis=-1)
    scale = diag[..., :, None] * diag[..., None, :]
    return scale * (m - np.eye(4)) + np.eye(4)
