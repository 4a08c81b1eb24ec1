"""Exact oracle for two-mode Gaussian states, independent of cvrobust.

Every float is a dyadic rational, so a state read from a file can be
evaluated exactly.  Witness signs here come from integer determinants of
the matrix and of attenuated copies of it; nothing calls the package's
``classify``, ``validate_physicality`` or Gamma formulas.

The attenuated PPT witness is ``W'(T1, T2) = T1*T2*W_R(T1, T2)`` with
``W_R`` bilinear.  At transmittances in ``{1/4, 1}`` the correlation block
scales by ``sqrt(T1*T2)`` in ``{1/4, 1/2, 1}``, which keeps the attenuated
matrix rational, so ``W_R`` is known exactly at four points and hence
everywhere by bilinear interpolation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

QUARTER = Fraction(1, 4)
_NODES = (QUARTER, Fraction(1))


def _det2(a, b, c, d):
    return a * d - b * c


def det4(m) -> int:
    """Determinant of a 4x4 matrix by 2x2 minors of the top and bottom rows."""
    s0 = _det2(m[0][0], m[0][1], m[1][0], m[1][1])
    s1 = _det2(m[0][0], m[0][2], m[1][0], m[1][2])
    s2 = _det2(m[0][0], m[0][3], m[1][0], m[1][3])
    s3 = _det2(m[0][1], m[0][2], m[1][1], m[1][2])
    s4 = _det2(m[0][1], m[0][3], m[1][1], m[1][3])
    s5 = _det2(m[0][2], m[0][3], m[1][2], m[1][3])
    c5 = _det2(m[2][2], m[2][3], m[3][2], m[3][3])
    c4 = _det2(m[2][1], m[2][3], m[3][1], m[3][3])
    c3 = _det2(m[2][1], m[2][2], m[3][1], m[3][2])
    c2 = _det2(m[2][0], m[2][3], m[3][0], m[3][3])
    c1 = _det2(m[2][0], m[2][2], m[3][0], m[3][2])
    c0 = _det2(m[2][0], m[2][1], m[3][0], m[3][1])
    return s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0


def _det3(m, rows, cols):
    (a, b, c), (d, e, f), (g, h, i) = ([m[r][k] for k in cols] for r in rows)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class ExactState:
    """A 4x4 covariance matrix held as integers over a common denominator."""

    def __init__(self, matrix):
        fr = [[Fraction(float(x)) for x in row] for row in matrix]
        self.scale = max(x.denominator for row in fr for x in row)
        self.n = [[int(x * self.scale) for x in row] for row in fr]
        self.magnitude = max(abs(float(x)) for row in matrix for x in row)

    def _ppt_scaled(self, t1: Fraction, t2: Fraction) -> Fraction:
        """PPT witness ``1 + det V + 2 det c - det a1 - det a2`` of the attenuated state."""
        d = 4 * self.scale  # common denominator once T in {1/4, 1} is applied
        root = {(QUARTER, QUARTER): QUARTER, (Fraction(1), Fraction(1)): Fraction(1)}.get(
            (t1, t2), Fraction(1, 2)
        )
        t = (t1, t1, t2, t2)
        m = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                same_mode = (i < 2) == (j < 2)
                factor = t[i] if same_mode else root
                eye = self.scale if i == j else 0
                value = factor * (self.n[i][j] - eye) + eye
                m[i][j] = int(value * 4)
        det_v = det4(m)
        det_a1 = _det2(m[0][0], m[0][1], m[1][0], m[1][1])
        det_a2 = _det2(m[2][2], m[2][3], m[3][2], m[3][3])
        det_c = _det2(m[0][2], m[0][3], m[1][2], m[1][3])
        d2 = d * d
        return Fraction(d2 * d2 + det_v + d2 * (2 * det_c - det_a1 - det_a2), d2 * d2)

    @cached_property
    def nodes(self) -> dict:
        """``W_R`` at the four nodes ``{1/4, 1}^2``."""
        return {(a, b): self._ppt_scaled(a, b) / (a * b) for a in _NODES for b in _NODES}

    def reduced_witness(self, t1, t2) -> Fraction:
        """Exact ``W_R(t1, t2)`` by bilinear interpolation of the nodes."""
        t1, t2 = Fraction(t1), Fraction(t2)

        def basis(node, t):
            return (1 - t) * Fraction(4, 3) if node == QUARTER else (t - QUARTER) * Fraction(4, 3)

        return sum(v * basis(a, t1) * basis(b, t2) for (a, b), v in self.nodes.items())

    def corners(self) -> dict:
        """``w_ppt = W_R(1,1)``, ``w_full = W_R(0,0)``, ``w_ch1 = W_R(0,1)``, ``w_ch2 = W_R(1,0)``."""
        return {
            "w_ppt": self.reduced_witness(1, 1),
            "w_full": self.reduced_witness(0, 0),
            "w_ch1": self.reduced_witness(0, 1),
            "w_ch2": self.reduced_witness(1, 0),
        }

    def physical(self) -> bool:
        """``V + i*Omega >= 0``: ``V > 0``, and both ``nu^2`` roots of
        ``x^2 - Delta*x + det V`` are at least 1, i.e. ``1 - Delta + det V >= 0``
        and ``Delta >= 2``, with ``Delta = det a1 + det a2 + 2 det c``."""
        m, s = self.n, self.scale
        leading = (
            m[0][0],
            _det2(m[0][0], m[0][1], m[1][0], m[1][1]),
            _det3(m, (0, 1, 2), (0, 1, 2)),
            det4(m),
        )
        if any(x <= 0 for x in leading):
            return False
        s2 = s * s
        delta = (
            _det2(m[0][0], m[0][1], m[1][0], m[1][1])
            + _det2(m[2][2], m[2][3], m[3][2], m[3][3])
            + 2 * _det2(m[0][2], m[0][3], m[1][2], m[1][3])
        )  # scaled by s^2
        det_v = leading[3]  # scaled by s^4
        return s2 * s2 - delta * s2 + det_v >= 0 and delta >= 2 * s2

    def robustness_label(self) -> tuple[str, int | None]:
        """Class label and robust mode from the exact corner signs."""
        c = self.corners()
        if c["w_ppt"] >= 0:
            return "Separable", None
        r1, r2, rf = c["w_ch1"] <= 0, c["w_ch2"] <= 0, c["w_full"] <= 0
        if r1 and r2 and rf:
            return "FullyRobust", None
        if r1 and r2:
            return "PartiallyRobustSymmetric", None
        if r1 or r2:
            return "PartiallyRobustAsymmetric", 1 if r1 else 2
        return "Fragile", None


REGION_OF_LABEL = {
    "FullyRobust": "I",
    "PartiallyRobustSymmetric": "II",
    "PartiallyRobustAsymmetric": "II",
    "Fragile": "III",
    "Separable": "IV",
}


def region(matrix) -> str:
    """Region code of a map cell: I-IV, or ``unphysical``."""
    state = ExactState(matrix)
    if not state.physical():
        return "unphysical"
    return REGION_OF_LABEL[state.robustness_label()[0]]


def witness_tolerance(magnitude: float) -> float:
    """Allowed float error of a quartic witness of entries up to ``magnitude``."""
    return 1e-10 * max(1.0, magnitude) ** 4
