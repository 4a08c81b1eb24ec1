"""Witness invariants of a symmetric 4x4 matrix, exact in stdlib integers.

Every float is ``p/2^k``, so scaling the ten upper-triangle entries by their
common denominator ``D = 2^K`` turns them into integers, and an invariant of
degree ``k`` into an integer over ``D^k``: its sign is decided, and its
value rounded once (CPython's ``int / int`` is correctly rounded), without
intermediate roundoff.  A value is reported as ``(numerator, denominator)``;
:func:`ratio` rounds it.

Physicality is ``lambda_min(V + i*Omega) >= -tol``.  The characteristic
polynomial ``x^4 - e1 x^3 + e2 x^2 - e3 x + e4`` of a Hermitian ``H`` has
real roots, and ``e_k``, the sum of its ``k x k`` principal minors, is their
``k``-th elementary symmetric function, so every eigenvalue is ``>= 0``
(``> 0``) exactly when every ``e_k`` is.  Of ``H = W + i*Omega`` with real
symmetric ``W`` they are ``e1 = tr W``, ``e2 = e2(W) - 2``,
``e3 = e3(W) - tr W`` and ``e4 = det W + 1 - det a1 - det a2 - 2 det c``
over ``W``'s 2x2 blocks.  The shift ``W = V + s*I`` moves them by
``e_k(H + s) = sum_j C(4 - j, k - j) s^(k - j) e_j(H)``, so the invariants
of ``V`` serve both shifts, ``+tol`` for the verdict and ``-tol`` for the
boundary flag.

The witness invariants are the polynomials of the Gamma decomposition with
``V = [[a1, c], [c^T, a2]]``, ``sigma_j = tr a_j - 2`` and
``impurity_j = det a_j - 1``:

* ``lambda1 = tr(c^T J (a1 - I) J c)``, ``lambda2 = tr(c J (a2 - I) J c^T)``,
  ``lambda_c = tr(c^T c)`` and ``lambda4 = tr(a1 J c J a2 J c^T J)``, where
  ``J M J = -adj(M)^T`` for a 2x2 ``M``;
* ``gamma11 = sigma1 sigma2 - lambda_c + 2 det c``,
  ``gamma12 = sigma1 (impurity2 - sigma2) + lambda2``,
  ``gamma21 = sigma2 (impurity1 - sigma1) + lambda1`` and
  ``gamma22 = det(V - I)``, which is the PPT witness
  ``1 + det V + 2 det c - det a1 - det a2`` less the other three;
* ``eta = gamma12 + gamma21 + sigma1 sigma2 + det a1 + det a2 - lambda_c - 1``.

The Duan variances at a float weight ``a = n/d`` are integers over
``2 D n^2 d^2`` (:meth:`Matrix.duan_variances`), so they are rounded once
too, with no dependence on how a BLAS kernel orders its sums.

The one tolerance policy is here too, shared by every module: the
tolerance unit ``max(1, max|V|)`` (:func:`_scale_of`), which each
:class:`Matrix` forms once as its ``scale``, the physicality tolerance, the
zero band, the overflow rule and the class codes.

The witness polynomials are written once, as :class:`Matrix` methods on
its integers and its unit ``one = D``: the determinants in its
constructor, :meth:`Matrix.uncertainty` (``e1 .. e4`` above),
:meth:`Matrix.corners` and :meth:`Matrix.gamma_set`, over the private
``_w_ppt`` and ``_parts``.  They serve physicality, the PPT witness, the
corners and the Gamma set; ``scan`` and ``contour`` interpolate the corners
bilinearly, in ``robustness`` alone (``_row_ends``).  The region maps need
no :class:`Matrix`: ``_maps._map_row`` decides their symmetric-mode
cells exactly from the EPR variances, integers over one power-of-two
denominator per map (:func:`_integers`).

Congruences are exact the same way.  :func:`exact` holds a matrix of floats
as ``(integer rows, D)``, :func:`product` multiplies two such matrices
without roundoff (the denominators multiply), and :func:`congruence` forms
``S V S^T`` from them and rounds each entry once.  The random states'
``S^T diag(nu) S`` and every local symplectic transform (``robustify``,
``apply_local_symplectic``) go through it, so no output bit depends on how
a BLAS kernel orders its sums.
"""

from __future__ import annotations

import math
import sys
from operator import mul

from .errors import ValidationError

_INF = float("inf")

#: Absolute floor of the tolerance on the smallest eigenvalue of ``V + i*Omega``.
PHYSICALITY_TOL = 1e-9

#: Roundoff part of that tolerance, per unit of :func:`_scale_of`.  The
#: test is evaluated exactly, so the tolerance guards against the rounding of
#: the data, not of the test: rounding the entries moves ``lambda_min`` by at
#: most ``||dV||_2 <= 2 eps*max|V|``.  On stored pure states, whose eigenvalue
#: is 0 before rounding, the exact ``-lambda_min`` was at most 1.34
#: eps*max|V| over 11000 random pure states (``squeeze_max`` 3 to 13) and
#: 1.46 over pure two-mode squeezed states (``r`` up to 12); 32 keeps the
#: margin of the former float test.  A violation smaller than this cannot be
#: told from roundoff.
_PHYSICALITY_ROUNDOFF = 32 * sys.float_info.epsilon

_BAND_COEFF = 1e-10

#: ``ratio(num, den)`` overflows exactly when ``|num| >= _OVERFLOW * den``: the
#: midpoint of the largest float and ``2^1024`` rounds to even, to ``2^1024``.
_OVERFLOW = ((1 << 54) - 1) << 970

#: The code of an unphysical matrix in the region maps, after those of :func:`_code`.
_UNPHYSICAL = 6

_NOT_FINITE = (
    "witness values are not finite: the covariance entries are too "
    "large to evaluate the quartic witness"
)


def _scale_of(entries) -> float:
    """The tolerance unit ``max(1, max|V|)`` of one matrix from its entries (floats).

    Roundoff in a quantity of degree ``k`` in the entries grows like
    ``eps * max|V|**k``, so its tolerance is a constant times the unit's
    ``k``-th power.
    """
    return max(1.0, max(map(abs, entries)))


def _physicality_tol(scale: float) -> float:
    """The tolerance of ``validate_physicality`` on ``lambda_min`` at unit ``scale``.

    ``PHYSICALITY_TOL`` up to a knee near ``scale = 1.4e5``, growing above it.
    """
    return max(PHYSICALITY_TOL, _PHYSICALITY_ROUNDOFF * scale)


def _band_at(scale: float) -> float:
    """The zero band at tolerance unit ``scale`` (:func:`_scale_of` of the matrix).

    Nondecreasing in ``scale``.  ``scale * scale`` overflows to infinity,
    where a power would raise.
    """
    return _BAND_COEFF * (scale * scale)


def _finite(values) -> tuple:
    """``values`` as a tuple, checked to be finite.

    Raises :class:`ValidationError` when one is not, as when rounding an
    exact quartic witness overflows.
    """
    values = tuple(values)
    if not all(map(math.isfinite, values)):
        raise ValidationError(_NOT_FINITE)
    return values


def _code(entangled, r1, r2, rf):
    """Class code from the corner decisions: ``w_ppt < 0`` and robust on 1, 2, full loss."""
    # Separable 0; entangled: 1 + (robust on 1) + 2*(robust on 2), and 5 when
    # also robust at full loss, following the order of robustness._CLASSES.
    return entangled * (1 + r1 + 2 * r2 + (rf & r1 & r2))


def ratio(num: int, den: int) -> float:
    """``num / den`` correctly rounded, or an infinity of its sign where it overflows."""
    try:
        return num / den
    except OverflowError:
        return _INF if num > 0 else -_INF


def at_most(bound: float):
    """The exact test ``(num, den) -> num / den <= bound`` for ``den > 0``."""
    if bound == _INF:
        return lambda num, den: True
    n, d = bound.as_integer_ratio()
    return lambda num, den: num * d <= n * den


def _integers(values):
    """``(integers, D)``: the floats ``values`` as integers over their common denominator ``D``."""
    nums, dens = zip(*map(float.as_integer_ratio, values))
    one = max(dens)  # D: each denominator is a power of two
    bits = one.bit_length()
    return [n << (bits - k.bit_length()) for n, k in zip(nums, dens)], one  # n * (D // k)


def exact(rows):
    """A matrix of finite floats, exactly, as ``(integer rows, D)``."""
    width = len(rows[0])
    flat, one = _integers([x for row in rows for x in row])
    return [flat[i : i + width] for i in range(0, len(flat), width)], one


def product(a, b):
    """The product ``A B`` of exact matrices ``(integer rows, D)``, exactly."""
    (a, a_one), (b, b_one) = a, b
    columns = tuple(zip(*b))
    return [[sum(map(mul, row, column)) for column in columns] for row in a], a_one * b_one


def _block(m, i: int, j: int):
    """The entries ``a, b, c, d`` of the 2x2 block ``[[a, b], [c, d]]`` of ``m`` at ``(i, j)``."""
    (a, b), (c, d) = m[i][j : j + 2], m[i + 1][j : j + 2]
    return a, b, c, d


def congruence(s, v):
    """``S V S^T`` of exact 4x4 matrices with ``V`` symmetric, each entry rounded once.

    Works on the 2x2 blocks of the two modes, ``(S V S^T)_IJ = sum_KL S_IK
    V_KL S_JL^T``, over the nonzero blocks of ``S`` only: a mode-local ``S``
    has one per block row, so its congruence is ``S_1 a1 S_1^T``,
    ``S_1 c S_2^T`` and ``S_2 a2 S_2^T``.  Returns four rows of floats,
    symmetric by construction: the upper triangle is evaluated and mirrored.
    An entry beyond float range rounds to an infinity of its sign.
    """
    (s, s_one), (v, v_one) = s, v
    nonzero = [[(k, m) for k in (0, 2) if any(m := _block(s, i, k))] for i in (0, 2)]
    den = s_one * s_one * v_one
    out = [[0.0] * 4 for _ in range(4)]
    for i, j in ((0, 0), (0, 2), (2, 2)):
        t = [0, 0, 0, 0]
        for k, (a, b, c, d) in nonzero[i // 2]:
            for l, (e, f, g, h) in nonzero[j // 2]:
                w, x, y, z = _block(v, k, l)
                # S_IK V_KL, then times S_JL^T.
                p, q, r, u = a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z
                t[0] += p * e + q * f
                t[1] += p * g + q * h
                t[2] += r * e + u * f
                t[3] += r * g + u * h
        for (row, col), n in zip(((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)), t):
            if row <= col:
                out[row][col] = out[col][row] = ratio(n, den)
    return out


class Matrix:
    """A symmetric 4x4 matrix as integers over its entries' common denominator.

    ``upper`` holds the ten finite upper-triangle entries row by row,
    ``v00, v01, v02, v03, v11, v12, v13, v22, v23, v33``.  The determinants
    that physicality and the witnesses share, ``det a1``, ``det c``,
    ``det a2`` and ``det V`` over ``D^2`` and ``D^4``, and the tolerance unit
    ``scale``, are formed once.
    """

    __slots__ = ("one", "scale", "entries", "det_a1", "det_a2", "det_c", "det_v", "_invariants")

    def __init__(self, upper):
        self.scale = _scale_of(upper)
        self.entries, self.one = _integers(upper)
        v00, v01, v02, v03, v11, v12, v13, v22, v23, v33 = self.entries
        # det V by Laplace expansion over the 2x2 minors of rows (0, 1) and
        # of rows (2, 3), by column pair.
        t01 = v00 * v11 - v01 * v01
        t02 = v00 * v12 - v02 * v01
        t03 = v00 * v13 - v03 * v01
        t12 = v01 * v12 - v02 * v11
        t13 = v01 * v13 - v03 * v11
        det_c = v02 * v13 - v03 * v12
        b02 = v02 * v23 - v22 * v03
        b03 = v02 * v33 - v23 * v03
        b12 = v12 * v23 - v22 * v13
        b13 = v12 * v33 - v23 * v13
        det_a2 = v22 * v33 - v23 * v23
        self.det_a1, self.det_c, self.det_a2 = t01, det_c, det_a2
        self.det_v = (
            t01 * det_a2 - t02 * b13 + t03 * b12 + t12 * b03 - t13 * b02 + det_c * det_c
        )
        self._invariants = None

    def uncertainty(self):
        """``e1 .. e4`` of ``V + i*Omega``, over ``D .. D^4``, evaluated once per matrix.

        ``e_k`` is the sum of the ``k x k`` principal minors; ``e4`` is the
        determinant condition ``1 + det V - 2 det c - det a1 - det a2``.
        """
        if self._invariants is None:
            a, p, q, r, b, s, t, c, u, d = self.entries
            det_a1, det_a2 = self.det_a1, self.det_a2
            one2 = self.one * self.one
            q2, r2, s2, t2 = q * q, r * r, s * s, t * t
            trace = a + b + c + d
            e2 = det_a1 + det_a2 + (a + b) * (c + d) - q2 - r2 - s2 - t2 - 2 * one2
            e3 = (
                (c + d) * det_a1
                + (a + b) * det_a2
                + 2 * (p * (q * s + r * t) + u * (q * r + s * t))
                - a * (s2 + t2)
                - b * (q2 + r2)
                - c * (r2 + t2)
                - d * (q2 + s2)
                - one2 * trace
            )
            e4 = self.det_v + one2 * (one2 - 2 * self.det_c - det_a1 - det_a2)
            self._invariants = trace, e2, e3, e4
        return self._invariants

    def _with_shift(self):
        """``e1 .. e4`` and the physicality tolerance as integers over one denominator."""
        invariants = self.uncertainty()
        # Lift the invariants of degree k by f^k when the tolerance's own
        # denominator is the larger.
        shift, den = _physicality_tol(self.scale).as_integer_ratio()
        if den > self.one:
            f = den // self.one
            f2 = f * f
            e1, e2, e3, e4 = invariants
            return (e1 * f, e2 * f2, e3 * f2 * f, e4 * f2 * f2), shift
        return invariants, shift * (self.one // den)

    def physical(self) -> bool:
        """``lambda_min(V + i*Omega) >= -tol``, with ``tol = _physicality_tol(scale)``."""
        return min(_shifted(*self._with_shift())) >= 0

    def physicality(self) -> tuple[bool, bool]:
        """``(physical, boundary)``: :meth:`physical` and ``|lambda_min| <= tol``.

        ``boundary`` can hold only on a physical ``V``; only this method
        evaluates its ``-tol`` shift.
        """
        invariants, shift = self._with_shift()
        physical = min(_shifted(invariants, shift)) >= 0
        return physical, physical and min(_shifted(invariants, -shift)) <= 0

    def _w_ppt(self) -> int:
        """PPT witness ``1 + det V + 2 det c - det a1 - det a2``, over ``D^4``."""
        one2 = self.one * self.one
        return one2 * (one2 + 2 * self.det_c - self.det_a1 - self.det_a2) + self.det_v

    def _parts(self):
        """``sigma1, sigma2, lambda1, lambda2, lambda_c, gamma11, gamma12, gamma21``.

        Over ``D`` for the ``sigma_j``, ``D^2`` for ``lambda_c`` and
        ``gamma11``, and ``D^3`` for the rest.
        """
        # Diagonal a, b, c, d; v01 = p, v02 = q, v03 = r, v12 = s, v13 = t, v23 = u.
        a, p, q, r, b, s, t, c, u, d = self.entries
        one = self.one
        one2 = one * one
        sigma1 = a + b - 2 * one
        sigma2 = c + d - 2 * one
        # Squared norms of the rows and columns of c.
        row0, row1 = q * q + r * r, s * s + t * t
        col0, col1 = q * q + s * s, r * r + t * t
        lambda1 = 2 * p * (q * s + r * t) - (b - one) * row0 - (a - one) * row1
        lambda2 = 2 * u * (q * r + s * t) - (d - one) * col0 - (c - one) * col1
        lambda_c = col0 + col1
        gamma11 = sigma1 * sigma2 - lambda_c + 2 * self.det_c
        gamma12 = sigma1 * (self.det_a2 - one2 - one * sigma2) + lambda2
        gamma21 = sigma2 * (self.det_a1 - one2 - one * sigma1) + lambda1
        return sigma1, sigma2, lambda1, lambda2, lambda_c, gamma11, gamma12, gamma21

    def corners(self):
        """``w_ppt, w_full, w_ch1, w_ch2`` as ``(numerator, denominator)`` pairs."""
        gamma11, gamma12, gamma21 = self._parts()[5:]
        one = self.one
        one2 = one * one
        one3 = one2 * one
        return (
            (self._w_ppt(), one2 * one2),
            (gamma11, one2),
            (one * gamma11 + gamma12, one3),
            (one * gamma11 + gamma21, one3),
        )

    def gamma_set(self):
        """The 13 fields of ``GammaSet``, in field order, as ``(numerator, denominator)`` pairs."""
        a, p, q, r, b, s, t, c, u, d = self.entries
        one = self.one
        one2 = one * one
        one3 = one2 * one
        det_a1, det_a2 = self.det_a1, self.det_a2
        sigma1, sigma2, lambda1, lambda2, lambda_c, gamma11, gamma12, gamma21 = self._parts()
        gamma22 = self._w_ppt() - one * (gamma12 + gamma21) - one2 * gamma11
        # tr(a1 adj(c)^T a2 adj(c)) with adj(c) = [[t, -r], [-s, q]].
        x00, x01, x10, x11 = a * t - p * r, p * q - a * s, p * t - b * r, b * q - p * s
        y00, y01, y10, y11 = c * t - u * s, u * q - c * r, u * t - d * s, d * q - u * r
        lambda4 = x00 * y00 + x01 * y10 + x10 * y01 + x11 * y11
        eta = gamma12 + gamma21 + one * (sigma1 * sigma2 + det_a1 + det_a2 - lambda_c) - one3
        return (
            (gamma11, one2),
            (gamma12, one3),
            (gamma21, one3),
            (gamma22, one2 * one2),
            (lambda1, one3),
            (lambda2, one3),
            (lambda_c, one2),
            (lambda4, one2 * one2),
            (eta, one3),
            (sigma1, one),
            (sigma2, one),
            (det_a1 - one2, one2),
            (det_a2 - one2, one2),
        )

    def delta(self, det_c_sign: int = 1) -> int:
        """``det a1 + det a2 + 2 det c``, over ``D^2``; ``det_c_sign=-1`` partially transposes."""
        return self.det_a1 + self.det_a2 + 2 * det_c_sign * self.det_c

    def det_condition(self) -> int:
        """``1 + det V - 2 det c - det a1 - det a2``, over ``D^4``: ``e4`` of ``V + i*Omega``."""
        return self.uncertainty()[3]

    def duan_variances(self, a: float):
        """``var(u)`` and ``var(v)`` of the EPR operators at the signed weight ``a``.

        ``var(u) = (a^2 v11 - 2 sgn(a) v13 + v33/a^2)/2`` and
        ``var(v) = (a^2 v00 + 2 sgn(a) v02 + v22/a^2)/2``, with ``a^2`` the
        exact square of the float ``a``, as ``(numerator, denominator)`` pairs.
        """
        n, d = a.as_integer_ratio()  # a = n/d: a^2 = n2/d2
        n2, d2 = n * n, d * d
        cross = 2 * n2 * d2 if n > 0 else -2 * n2 * d2
        v00, _, v02, _, v11, _, v13, v22, _, v33 = self.entries
        den = 2 * self.one * n2 * d2
        return (
            (n2 * n2 * v11 - cross * v13 + d2 * d2 * v33, den),
            (n2 * n2 * v00 + cross * v02 + d2 * d2 * v22, den),
        )


def _shifted(invariants, s):
    """``e1 .. e4`` of ``H + s*I`` from those of ``H``."""
    e1, e2, e3, e4 = invariants
    s2 = s * s
    return (
        e1 + 4 * s,
        e2 + 3 * s * e1 + 6 * s2,
        e3 + 2 * s * e2 + 3 * s2 * e1 + 4 * s2 * s,
        (((s + e1) * s + e2) * s + e3) * s + e4,
    )
