"""Exact evaluation of the physicality test, in stdlib integers.

Every float is ``p/2^k``, so scaling the entries of a matrix and its
tolerance by their common denominator ``D = 2^K`` turns them into integers,
and an invariant of degree ``k`` into an integer over ``D^k``.  Its sign is
then decided without rounding.

The test is ``lambda_min(V + i*Omega) >= -tol``.  For a Hermitian ``H`` the
characteristic polynomial ``x^4 - e1 x^3 + e2 x^2 - e3 x + e4`` has real
roots, and ``e_k``, the sum of the ``k x k`` principal minors of ``H``, is
the ``k``-th elementary symmetric function of them.  So every eigenvalue is
``>= 0`` exactly when every ``e_k >= 0``, and ``> 0`` exactly when every
``e_k > 0``.  Of ``H = W + i*Omega`` with real symmetric ``W`` the four are
those of ``W`` less the entries ``Omega`` adds:

* ``e1 = tr W``;
* ``e2 = e2(W) - 2``;
* ``e3 = e3(W) - tr W``;
* ``e4 = det W + 1 - det a1 - det a2 - 2 det c`` over ``W``'s 2x2 blocks.

The shift ``W = V + s*I`` moves them by ``e_k(H + s) =
sum_j C(4 - j, k - j) s^(k - j) e_j(H)``, so the invariants of ``V`` serve
both shifts, ``+tol`` for the verdict and ``-tol`` for the boundary flag.
"""

from __future__ import annotations


def physicality(upper, tol: float) -> tuple[bool, bool]:
    """``(physical, boundary)`` of a symmetric 4x4 ``V``, evaluated exactly.

    ``upper`` holds the ten finite upper-triangle entries row by row,
    ``v00, v01, v02, v03, v11, v12, v13, v22, v23, v33``.  ``physical`` is
    ``lambda_min(V + i*Omega) >= -tol`` and ``boundary`` is
    ``|lambda_min| <= tol``, which can hold only on physical ``V``.
    """
    ratios = [x.as_integer_ratio() for x in upper]
    ratios.append(tol.as_integer_ratio())
    one = max(q for _, q in ratios)  # D: each denominator is a power of two
    a, p, q, r, b, s, t, c, u, d, shift = [n * (one // k) for n, k in ratios]
    # Diagonal a, b, c, d; v01 = p, v02 = q, v03 = r, v12 = s, v13 = t, v23 = u.
    p2, q2, r2, s2, t2, u2 = p * p, q * q, r * r, s * s, t * t, u * u
    det_a1 = a * b - p2
    det_a2 = c * d - u2
    det_c = q * t - r * s
    trace = a + b + c + d
    one2 = one * one
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
    # det V by Laplace expansion over the 2x2 minors of rows (0, 1) and (2, 3).
    det_v = (
        det_a1 * det_a2
        - (a * s - q * p) * (s * d - u * t)
        + (a * t - r * p) * (s * u - c * t)
        + (p * s - q * b) * (q * d - u * r)
        - (p * t - r * b) * (q * u - c * r)
        + det_c * det_c
    )
    e4 = det_v + one2 * (one2 - det_a1 - det_a2 - 2 * det_c)
    invariants = (trace, e2, e3, e4)
    physical = min(_shifted(invariants, shift)) >= 0
    return physical, physical and min(_shifted(invariants, -shift)) <= 0


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
