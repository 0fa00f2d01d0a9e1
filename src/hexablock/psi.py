"""The linear fractional families psi_{z1,z2}, Psi, Phi_z and kappa, the
closed-form unique maximizer of |kappa| over the bidisc, and the cost
K* = sup |kappa| that drives every hexablock membership test.

`tetra_interior_margin`, `is_triangular`, `betas`, `kappa_eval`,
`maximizer`, `k_star` and `k_star_closed` also take numpy arrays of
coordinates and then work elementwise, with the same arithmetic as on
scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, cx, cx_coords

_DEN_TINY = 1e-14

#: The interior margin a point must exceed for `maximizer`: closer to the
#: boundary of E the cost blows up off distinguished-boundary directions,
#: and the suprema there are in closed form (`k_star_closed`, `sup_on_bE`).
REFUSE_MARGIN = 1e-9


def _any(flags) -> bool:
    """Whether a flag, or any entry of a flag array, is set."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else flags


def _sqrt(v):
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _clip0(v):
    return np.maximum(v, 0.0) if isinstance(v, np.ndarray) else max(v, 0.0)


def is_triangular(x, tol: float = 1e-9) -> bool:
    """x1*x2 = x3 within a tolerance scaled by 1 + |x3|."""
    return _is_triangular(*cx_coords(x), tol)


def _is_triangular(x1, x2, x3, tol: float):
    return abs(x1 * x2 - x3) <= tol * (1.0 + abs(x3))


def kappa_eval(z1: complex, z2: complex, x) -> complex:
    """sqrt((1-|z1|^2)(1-|z2|^2)) / (1 - x1 z1 - x2 z2 + x3 z1 z2), and 0
    where |z1| or |z2| reaches 1."""
    return _kappa(*cx_coords((z1, z2, *x)))


def _kappa(z1, z2, x1, x2, x3):
    top1 = 1.0 - abs(z1) ** 2
    top2 = 1.0 - abs(z2) ** 2
    den = 1.0 - x1 * z1 - x2 * z2 + x3 * z1 * z2
    if isinstance(den, np.ndarray):
        live = (top1 > 0.0) & (top2 > 0.0)
        top1, top2 = np.where(live, top1, 0.0), np.where(live, top2, 0.0)
        den = np.where(live, den, 1.0)
    elif top1 <= 0.0 or top2 <= 0.0:
        return 0.0
    if _any(abs(den) < _DEN_TINY):
        raise DomainError("kappa denominator vanished: point is outside closed E")
    return _sqrt(top1 * top2) / den


def psi_eval(z1: complex, z2: complex, p) -> complex:
    """a * kappa(z1, z2, x) for p = (a, x1, x2, x3); zero when |z_i| = 1."""
    a = cx(p[0])
    z1, z2 = cx(z1), cx(z2)
    if 1.0 - abs(z1) ** 2 <= 0.0 or 1.0 - abs(z2) ** 2 <= 0.0:
        return 0.0
    return a * kappa_eval(z1, z2, p[1:])


def Psi_eval(z: complex, x, tol: float = 1e-9) -> complex:
    """Psi(z, x) = (x3 z - x1)/(x2 z - 1); the constant x1 on triangular x."""
    z = cx(z)
    x1, x2, x3 = cx_coords(x)
    den = x2 * z - 1.0
    if abs(den) < _DEN_TINY:
        if is_triangular(x, tol):
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
    return _betas(*cx_coords(x))


def _betas(x1, x2, x3):
    return _betas_from(x1 - x2.conjugate() * x3, x2 - x1.conjugate() * x3,
                       1.0 - abs(x3) ** 2)


def _betas_from(c12, c21, den):
    """The betas from their numerators c12 = x1 - conj(x2) x3 and
    c21 = x2 - conj(x1) x3 and their denominator den = 1 - |x3|^2."""
    if _any(den <= 0.0):
        raise DomainError("betas need |x3| < 1")
    return c12 / den, c21 / den


@dataclass(frozen=True)
class MaximizerResult:
    """Closed-form argmax of |kappa(., x)| over the bidisc and its value."""

    z1: complex
    z2: complex
    beta1: complex
    beta2: complex
    k_star: float
    d1: float
    d2: float


def _half_maximizer(b_this: complex, b_other: complex,
                    x3: complex) -> tuple[complex, float]:
    t = 1.0 + abs(b_this) ** 2 - abs(b_other) ** 2
    d = t * t - 4.0 * abs(b_this) ** 2
    if _any(d < 0.0):
        # the betas divide by 1 - |x3|^2: their rounding error, and that
        # of d, grows like its reciprocal
        if _any(d < -1e-12 / (1.0 - abs(x3) ** 2)):
            raise DomainError(f"negative maximizer discriminant {np.min(d):.3e}")
        d = _clip0(d)
    z = 2.0 * b_this.conjugate() / (t + _sqrt(d))
    return z, d


def tetra_interior_margin(x) -> float:
    """Signed interior margin 1 - (|x1|^2 + |x2 - conj(x1) x3| + |x1 x2 - x3|).

    Positive exactly on the open tetrablock; used as the canonical margin.
    """
    return _interior_margin(*cx_coords(x))


def _interior_margin(x1, x2, x3):
    return 1.0 - (abs(x1) ** 2 + abs(x2 - x1.conjugate() * x3) + abs(x1 * x2 - x3))


def maximizer(x) -> MaximizerResult:
    """Unique interior maximizer of |kappa(., x)| for x in the open tetrablock.

    Refuses points whose interior margin does not exceed `REFUSE_MARGIN`.
    """
    x1, x2, x3 = cx_coords(x)
    m = _interior_margin(x1, x2, x3)
    if _any(m <= REFUSE_MARGIN):
        raise DomainError(f"maximizer needs interior margin > {REFUSE_MARGIN} "
                          f"(got {np.min(m):.3e})")
    return _maximizer(x1, x2, x3)


def _maximizer(x1, x2, x3) -> MaximizerResult:
    """`maximizer` for coerced coordinates whose interior margin the
    caller has already checked."""
    b1, b2 = _betas(x1, x2, x3)
    z1, d1 = _half_maximizer(b1, b2, x3)
    z2, d2 = _half_maximizer(b2, b1, x3)
    k = abs(_kappa(z1, z2, x1, x2, x3))
    return MaximizerResult(z1, z2, b1, b2, k, d1, d2)


def k_star(x) -> float:
    """K*(x) = sup over the bidisc of |kappa(., x)|, always >= 1."""
    return maximizer(x).k_star


def k_star_closed(x, on_dE: bool = False) -> float:
    """K*(x) in closed form, without the maximizer, for x in closed E with
    |x1|, |x2| < 1: K*^-2 = (beta + sqrt(max(sigma^2 - 4|c|^2, 0)))/2 with
    beta = 1 - |x1|^2 - |x2|^2 + |x3|^2, sigma = 1 - |x1|^2 + |x2|^2 - |x3|^2
    and c = x2 - conj(x1) x3.

    For fixed z1 the supremum over z2 is sqrt(1 - |z1|^2) over
    sqrt(|1 - x1 z1|^2 - |x2 - x3 z1|^2), which leaves one real variable.
    On dE the discriminant vanishes (there sigma = 2|c|), so K*^2 = 2/beta:
    a limit at a torus zero of the denominator, not attained in the
    bidisc; on bE this is 1/sqrt(1 - |x1|^2).  `on_dE` takes the zero for
    a point placed on dE within a tolerance: its computed discriminant is
    rounding noise, which the square root would turn into a relative error
    of about 1e-8 in K*.  In closed E, beta vanishes only where |x1| or
    |x2| = 1; K* is infinite where rounding there leaves 2 K*^-2 <= 0.
    """
    return _k_star_closed(*cx_coords(x), on_dE)


def _k_star_closed(x1, x2, x3, on_dE: bool = False):
    s1, s2, s3 = abs(x1) ** 2, abs(x2) ** 2, abs(x3) ** 2
    twice_inv = 1.0 - s1 - s2 + s3
    if not on_dE:
        sigma = 1.0 - s1 + s2 - s3
        disc = sigma * sigma - 4.0 * abs(x2 - x1.conjugate() * x3) ** 2
        twice_inv = twice_inv + _sqrt(_clip0(disc))
    if isinstance(twice_inv, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.sqrt(2.0 / _clip0(twice_inv))
    return math.sqrt(2.0 / twice_inv) if twice_inv > 0.0 else math.inf


def sup_on_bE(x, tol: float = 1e-9) -> float:
    """sup |kappa(., x)| over D^2 for x on the distinguished boundary of E
    with |x1| < 1; equals 1/sqrt(1-|x1|^2), attained at (conj(x1), 0)."""
    x1, x2, x3 = cx_coords(x)
    if abs(abs(x3) - 1.0) > tol or abs(x1 - x2.conjugate() * x3) > tol * 10 \
            or abs(x2) > 1.0 + tol:
        raise DomainError("point is not on the distinguished boundary of E")
    if abs(x1) >= 1.0 - tol:
        raise DomainError("sup_on_bE needs |x1| < 1")
    return 1.0 / math.sqrt(1.0 - abs(x1) ** 2)


def stationarity_residual(x, z1: complex, z2: complex) -> float:
    """Residual of the critical-point equations at (z1, z2):
    conj(z1) = (x1 - x3 z2)/(1 - x2 z2), conj(z2) = (x2 - x3 z1)/(1 - x1 z1).
    """
    x1, x2, x3 = cx_coords(x)
    z1, z2 = cx(z1), cx(z2)
    r1 = z1.conjugate() - (x1 - x3 * z2) / (1.0 - x2 * z2)
    r2 = z2.conjugate() - (x2 - x3 * z1) / (1.0 - x1 * z1)
    return max(abs(r1), abs(r2))
