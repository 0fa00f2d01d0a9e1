"""The linear fractional families psi_{z1,z2}, Psi, Phi_z and kappa, the
closed-form unique maximizer of |kappa| over the bidisc, and the cost
K* = sup |kappa| that drives every hexablock and pentablock membership
test, written once, in closed form, by `_k_star_M` on the terms that
`_tetra_terms` shares with the tetrablock verdict.  One terms tuple answers
every K* question: the interior margin that `k_star` and `maximizer`
refuse on (`_terms_margin`), K* itself, and the maximizer's witness
(`_witness`); |kappa| is evaluated at the witness only for
`MaximizerResult.k_star`.

The array entry points of the library are `k_star`, `k_star_closed`,
`domains.bE_margin`, `domains.tetra_classify_batch` and
`hexa.h_closure_batch`: given numpy arrays of coordinates they work
elementwise, with the same arithmetic as on scalars.  Every other function
takes scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import REFUSE_MARGIN, TOL, _DEN_TINY, DomainError, cx, cx_coords

#: D = beta^2 - 4|v|^2 at or below this times the A + 2B of its form is
#: rounding noise (16 ulps of 1, 2^-48): K* takes D = 0
D_FLOOR = 3.552713678800501e-15
#: a negative maximizer discriminant tolerated, times 1/(1 - |x3|^2)
DISC_SLACK = 1e-12


def is_triangular(x, tol: float = TOL) -> bool:
    """x1*x2 = x3 within a tolerance scaled by 1 + |x3|."""
    x1, x2, x3 = map(cx, x)
    return abs(x1 * x2 - x3) <= tol * (1.0 + abs(x3))


def kappa_eval(z1: complex, z2: complex, x) -> complex:
    """sqrt((1-|z1|^2)(1-|z2|^2)) / (1 - x1 z1 - x2 z2 + x3 z1 z2), and 0
    where |z1| or |z2| reaches 1."""
    return _kappa(*map(cx, (z1, z2, *x)))


def _kappa(z1, z2, x1, x2, x3):
    top1 = 1.0 - abs(z1) ** 2
    top2 = 1.0 - abs(z2) ** 2
    if top1 <= 0.0 or top2 <= 0.0:
        return 0.0
    den = 1.0 - x1 * z1 - x2 * z2 + x3 * z1 * z2
    if abs(den) < _DEN_TINY:
        raise DomainError("kappa denominator vanished: point is outside closed E")
    return math.sqrt(top1 * top2) / den


def psi_eval(z1: complex, z2: complex, p) -> complex:
    """a * kappa(z1, z2, x) for p = (a, x1, x2, x3); zero when |z_i| = 1."""
    return cx(p[0]) * kappa_eval(z1, z2, p[1:])


def Psi_eval(z: complex, x) -> complex:
    """Psi(z, x) = (x3 z - x1)/(x2 z - 1); the constant x1 on triangular x."""
    z = cx(z)
    x1, x2, x3 = map(cx, x)
    den = x2 * z - 1.0
    if abs(den) < _DEN_TINY:
        if is_triangular(x):
            return x1
        raise DomainError("Psi pole: x2*z = 1 on non-triangular input")
    return (x3 * z - x1) / den


def Phi_eval(z: complex, s: complex, p: complex) -> complex:
    """Phi_z(s, p) = (2 z p - s)/(2 - z s)."""
    z, s, p = cx(z), cx(s), cx(p)
    den = 2.0 - z * s
    if abs(den) < _DEN_TINY:
        raise DomainError("Phi pole: z*s = 2")
    return (2.0 * z * p - s) / den


def betas(x) -> tuple[complex, complex]:
    """beta_1 = (x1 - conj(x2) x3)/(1-|x3|^2) and the symmetric beta_2."""
    x1, x2, x3 = map(cx, x)
    den = 1.0 - abs(x3) ** 2
    if den <= 0.0:
        raise DomainError("betas need |x3| < 1")
    return _betas_from(x1 - x2.conjugate() * x3, x2 - x1.conjugate() * x3, den)


def _betas_from(c12, c21, den):
    """The betas from their numerators and their denominator, den > 0."""
    return c12 / den, c21 / den


@dataclass(frozen=True)
class MaximizerResult:
    """Closed-form argmax of |kappa(., x)| over the bidisc, its betas and
    `k_star`, the value |kappa| takes there: the closed form `k_star` up
    to rounding, evaluated at the witness; no library K* reads it."""

    z1: complex
    z2: complex
    beta1: complex
    beta2: complex
    k_star: float


def _half_maximizer(b_this: complex, b_other: complex, den: float) -> complex:
    t = 1.0 + abs(b_this) ** 2 - abs(b_other) ** 2
    d = t * t - 4.0 * abs(b_this) ** 2
    if d < 0.0:
        # the betas divide by den = 1 - |x3|^2: their rounding error, and
        # that of d, grows like its reciprocal
        if d < -DISC_SLACK / den:
            raise DomainError(f"negative maximizer discriminant {d:.3e}")
        d = 0.0
    return 2.0 * b_this.conjugate() / (t + math.sqrt(d))


def tetra_interior_margin(x) -> float:
    """Signed interior margin 1 - (|x1|^2 + |x2 - conj(x1) x3| + |x1 x2 - x3|).

    Positive exactly on the open tetrablock; used as the canonical margin.
    It is `_terms_margin` of `_tetra_terms`, read off the coordinates.
    """
    x1, x2, x3 = map(cx, x)
    return 1.0 - (abs(x1) ** 2 + abs(x2 - x1.conjugate() * x3) + abs(x1 * x2 - x3))


def _terms_margin(terms):
    """The tetrablock interior margin 1 - (|x1|^2 + |c21| + |v|) from
    `_tetra_terms`, scalars or arrays: part 3 of the tetrablock verdict."""
    _, _, _, s1, _, _, _, _, _, d21, _, w = terms
    return 1.0 - (s1 + d21 + w)


def _refuse_boundary(terms) -> None:
    """Refuse the point of `_tetra_terms`, or coordinate arrays with any
    point, whose interior margin does not exceed `REFUSE_MARGIN`."""
    m = _terms_margin(terms)
    near = m <= REFUSE_MARGIN
    if near.any() if isinstance(near, np.ndarray) else near:
        raise DomainError(f"K* and its maximizer need interior margin > "
                          f"{REFUSE_MARGIN} (got {np.min(m):.3e})")


def maximizer(x) -> MaximizerResult:
    """Unique interior maximizer of |kappa(., x)| for x in the open tetrablock.

    Refuses points whose interior margin does not exceed `REFUSE_MARGIN`.
    """
    x1, x2, x3 = map(cx, x)
    terms = _tetra_terms(x1, x2, x3)
    _refuse_boundary(terms)
    z1, z2, b1, b2 = _witness(terms)
    return MaximizerResult(z1, z2, b1, b2, abs(_kappa(z1, z2, x1, x2, x3)))


def _witness(terms):
    """(z1, z2, beta1, beta2): the maximizer and its betas from the
    `_tetra_terms` of a point whose interior margin the caller has checked,
    so that den = 1 - |x3|^2 > 0."""
    _, _, _, _, _, s3, c12, c21, _, _, _, _ = terms
    den = 1.0 - s3
    b1, b2 = _betas_from(c12, c21, den)
    return _half_maximizer(b1, b2, den), _half_maximizer(b2, b1, den), b1, b2


def _tetra_terms(x1, x2, x3):
    """The terms that the tetrablock verdict and K* share, for coerced
    coordinates, scalars or arrays: the moduli a_i = |x_i| and their
    squares s_i, c12 = x1 - conj(x2) x3 and c21 = x2 - conj(x1) x3 with
    their moduli d12 and d21, v = x1 x2 - x3 and w = |v|, as the flat tuple
    (a1, a2, a3, s1, s2, s3, c12, c21, d12, d21, v, w)."""
    a1, a2, a3 = abs(x1), abs(x2), abs(x3)
    c12 = x1 - x2.conjugate() * x3
    c21 = x2 - x1.conjugate() * x3
    v = x1 * x2 - x3
    return (a1, a2, a3, a1 ** 2, a2 ** 2, a3 ** 2, c12, c21, abs(c12),
            abs(c21), v, abs(v))


def _k_star_M(terms):
    """(beta, D, M) from `_tetra_terms`, scalars or arrays: beta = 1 - |x1|^2
    - |x2|^2 + |x3|^2, D = beta^2 - 4|v|^2 (= -rho, `realslice.rho_value`)
    and the one K* expression, M = K*^-2 = (beta + sqrt(D))/2.

    D is (A - 2B)(A + 2B) for (A, B) = (beta, |v|), (sigma, |x2 - conj(x1)
    x3|) and (sigma', |x1 - conj(x2) x3|), sigma = 1 - |x1|^2 + |x2|^2 -
    |x3|^2 and sigma' its x1 <-> x2 flip.  Near dE every A - 2B cancels to
    a few ulps of absolute error, least in relative terms where A + 2B is
    smallest: that form is evaluated.  On dE, D = 0 and M = beta/2.  A
    computed D at or below `D_FLOOR` times that A + 2B is rounding noise,
    which the square root would turn into a relative error of about 1e-8
    in K*: M is then beta/2.  D is returned signed."""
    _, _, _, s1, s2, s3, _, _, d12, d21, _, w = terms
    beta = 1.0 - s1 - s2 + s3
    # (A + 2B, D) of each form; D is taken from the first smallest A + 2B
    forms = []
    for a, b in ((beta, w), (1.0 - s1 + s2 - s3, d21), (1.0 + s1 - s2 - s3, d12)):
        b = 2.0 * b
        p = a + b
        forms.append((p, (a - b) * p))
    (p, d), *rest = forms
    if isinstance(beta, np.ndarray):
        for p2, d2 in rest:
            d, p = np.where(p2 < p, d2, d), np.minimum(p, p2)
        return beta, d, 0.5 * (beta + np.sqrt(np.where(d > D_FLOOR * p, d, 0.0)))
    for p2, d2 in rest:
        if p2 < p:
            p, d = p2, d2
    return beta, d, 0.5 * (beta + (math.sqrt(d) if d > D_FLOOR * p else 0.0))


def _k_star(x1, x2, x3):
    """K* of coerced coordinates, scalars or arrays, by `_k_star_M` and
    `_k_star_of_M`."""
    return _k_star_of_M(_k_star_M(_tetra_terms(x1, x2, x3))[2])


def _k_star_of_M(M):
    """K* = M^-1/2; infinite where rounding leaves M <= 0 (in closed E,
    beta vanishes only where |x1| or |x2| = 1)."""
    if isinstance(M, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.sqrt(1.0 / np.maximum(M, 0.0))
    return math.sqrt(1.0 / M) if M > 0.0 else math.inf


def k_star(x):
    """K*(x) = sup over the bidisc of |kappa(., x)|, always >= 1, for x in
    the open tetrablock; refuses, as `maximizer` does, points whose
    interior margin does not exceed `REFUSE_MARGIN`."""
    terms = _tetra_terms(*cx_coords(x))
    _refuse_boundary(terms)
    return _k_star_of_M(_k_star_M(terms)[2])


def k_star_closed(x):
    """K*(x) for x in closed E with |x1|, |x2| < 1, with no refusal; on dE
    off bE, K*^2 = 2/beta is a limit at a torus zero of the denominator,
    not attained in the bidisc."""
    return _k_star(*cx_coords(x))


def sup_on_bE(x) -> float:
    """sup |kappa(., x)| over D^2 for x in bE with |x1| < 1: `_k_star`, there
    1/sqrt(1-|x1|^2) (M = beta/2 = 1 - |x1|^2), attained at (conj(x1), 0)."""
    x1, x2, x3 = map(cx, x)
    if abs(abs(x3) - 1.0) > TOL or abs(x1 - x2.conjugate() * x3) > TOL * 10 \
            or abs(x2) > 1.0 + TOL:
        raise DomainError("point is not on the distinguished boundary of E")
    if abs(x1) >= 1.0 - TOL:
        raise DomainError("sup_on_bE needs |x1| < 1")
    return _k_star(x1, x2, x3)


def stationarity_residual(x, z1: complex, z2: complex) -> float:
    """Residual of the critical-point equations at (z1, z2):
    conj(z1) = (x1 - x3 z2)/(1 - x2 z2), conj(z2) = (x2 - x3 z1)/(1 - x1 z1).
    """
    x1, x2, x3 = map(cx, x)
    z1, z2 = cx(z1), cx(z2)
    r1 = z1.conjugate() - (x1 - x3 * z2) / (1.0 - x2 * z2)
    r2 = z2.conjugate() - (x2 - x3 * z1) / (1.0 - x1 * z1)
    return max(abs(r1), abs(r2))
