"""Lossy bosonic channel acting on covariance matrices.

Attenuation by intensity transmittances ``(T1, T2)`` mixes each mode with
vacuum on a beam splitter and acts on the covariance matrix as

    V' = L (V - I) L + I,   L = diag(sqrt(T1), sqrt(T1), sqrt(T2), sqrt(T2)).

This is the zero-temperature channel: no thermal noise is added.
"""

from __future__ import annotations

import math
import os

from ._record import Record
from .covariance import _UPPER, CovMatrix, _as_cov, _upper
from .errors import ValidationError

__all__ = [
    "Transmittance",
    "LinkBudget",
    "attenuate",
    "transmittance_from_link",
    "default_alpha_db_per_km",
    "ALPHA_ENV_VAR",
    "DEFAULT_ALPHA_DB_PER_KM",
]

#: Standard telecom fiber attenuation, dB per km.
DEFAULT_ALPHA_DB_PER_KM = 0.2

#: Environment variable overriding the default attenuation coefficient.
ALPHA_ENV_VAR = "CVROBUST_ALPHA_DB_PER_KM"


def _require_finite_nonnegative(name: str, value: float) -> float:
    """``value`` if it is a finite number ``>= 0``; else raise, naming ``name``."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValidationError(f"{name} must be finite and nonnegative, got {value}")
    return value


def default_alpha_db_per_km() -> float:
    """The default fiber attenuation, overridable via the environment."""
    raw = os.environ.get(ALPHA_ENV_VAR)
    if raw is None:
        return DEFAULT_ALPHA_DB_PER_KM
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{ALPHA_ENV_VAR} must be a number, got {raw!r}")
    return _require_finite_nonnegative(ALPHA_ENV_VAR, value)


class Transmittance(Record):
    """Intensity transmittances of the two channels, each in [0, 1]."""

    __slots__ = _fields = ("t1", "t2")

    def __init__(self, t1: float, t2: float):
        for name, t in (("t1", t1), ("t2", t2)):
            if not (isinstance(t, (int, float)) and math.isfinite(t)):
                raise ValidationError(f"transmittance {name} must be a finite number")
            if not 0.0 <= t <= 1.0:
                raise ValidationError(f"transmittance {name}={t} outside [0, 1]")
        self._init(t1, t2)

    @classmethod
    def of(cls, value) -> "Transmittance":
        """Coerce a ``Transmittance`` or an ``(t1, t2)`` pair of numbers, numpy scalars included.

        A value without ``__float__``, text too, raises as the constructor does.
        """
        if isinstance(value, cls):
            return value
        t1, t2 = (float(t) if hasattr(t, "__float__") else t for t in value)
        return cls(t1, t2)


class LinkBudget(Record):
    """Fiber-link description from which transmittances are derived.

    ``scenario`` selects between ``"dual-channel"`` (both modes propagate,
    each over its own fiber length) and ``"single-channel"`` (the sender
    keeps mode 1, so channel 1 is lossless and only ``length2_km`` matters).
    The lengths and ``alpha_db_per_km`` must be finite and nonnegative;
    ``alpha_db_per_km=None`` uses the package default, which can be
    overridden through the ``CVROBUST_ALPHA_DB_PER_KM`` environment variable.
    """

    __slots__ = _fields = ("scenario", "length1_km", "length2_km", "alpha_db_per_km")

    def __init__(
        self,
        scenario: str = "dual-channel",
        length1_km: float = 0.0,
        length2_km: float = 0.0,
        alpha_db_per_km: float | None = None,
    ):
        if scenario not in ("dual-channel", "single-channel"):
            raise ValidationError(
                f"scenario must be 'dual-channel' or 'single-channel', got {scenario!r}"
            )
        _require_finite_nonnegative("length1_km", length1_km)
        _require_finite_nonnegative("length2_km", length2_km)
        if alpha_db_per_km is not None:
            _require_finite_nonnegative("alpha_db_per_km", alpha_db_per_km)
        self._init(scenario, length1_km, length2_km, alpha_db_per_km)


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


def attenuate(v, t) -> CovMatrix:
    """Apply the attenuation channel ``V -> L (V - I) L + I``.

    Block-wise this sends ``c -> sqrt(T1 T2) c`` and
    ``a_j -> T_j (a_j - I) + I``, so ``t = (1, 1)`` is the identity and
    ``t = (0, 0)`` outputs the two-mode vacuum.  Physical inputs stay
    physical for every transmittance pair.  Each upper-triangle entry is
    ``(l_i l_j) (v_ij - delta_ij) + delta_ij`` in floats, with ``l_i`` the
    square root of its mode's transmittance.
    """
    t = Transmittance.of(t)
    ls = [math.sqrt(t.t1)] * 2 + [math.sqrt(t.t2)] * 2
    a, p, q, r, b, s, u, c, w, d = [
        (ls[i] * ls[j]) * (x - float(i == j)) + float(i == j)
        for (i, j), x in zip(_UPPER, _upper(_as_cov(v)._rows))
    ]
    return CovMatrix([[a, p, q, r], [p, b, s, u], [q, s, c, w], [r, u, w, d]])
