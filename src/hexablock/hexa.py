"""Membership, closure, interior, boundary-part and distinguished-boundary
classification for the mu-hexablock, the normed hexablock and the hexablock,
plus structured-singular-value computation for the four 2x2 structures and
the Hartogs potential of the hexablock over the tetrablock.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (TOL, ConsistencyError, DomainError, Mat2, cx,
                       cx_arrays, op_norm, spectral_radius)
from .psi import (_k_star_closed, is_triangular, k_star, k_star_closed,
                  maximizer, tetra_interior_margin)
from .domains import (Region, _tetra_verdict, bE_margin, penta_classify,
                      tetra_classify)

_INF = math.inf


def _point4(p):
    a, x1, x2, x3 = (cx(t) for t in p)
    return a, (x1, x2, x3)


def psi_sup(p, tol: float = TOL):
    """sup over the open bidisc of |psi_{z1,z2}(p)|.

    Returns (sup, witness, method).  The supremum is in closed form on the
    whole closed tetrablock.  On the open tetrablock the unique maximizer
    gives it with its argmax as witness ("maximizer"), and on the
    distinguished boundary with |x1| < 1 the bE formula with the witness
    (conj(x1), 0) ("b_tetra").  On dE off bE, and at interior points below
    the maximizer's refusal margin, `k_star_closed` gives it with no
    witness ("boundary_limit"): off the interior the value is a limit at a
    torus zero of the denominator, never attained.  The supremum is
    infinite when a != 0 and |x1| or |x2| reaches the circle; it is None
    outside the closed tetrablock where the map itself is undefined.
    """
    a, x = _point4(p)
    if abs(a) == 0.0:
        return 0.0, None, "zero"
    m = tetra_interior_margin(x)
    if m > max(tol, 1e-9):
        r = maximizer(x)
        return abs(a) * r.k_star, (r.z1, r.z2), "maximizer"
    v = tetra_classify(x, tol)
    if v.region is Region.EXTERIOR:
        return None, None, "exterior"
    x1, x2, x3 = x
    if v.region is Region.DISTINGUISHED_BOUNDARY:
        if abs(x1) < 1.0 - tol:
            return abs(a) / math.sqrt(1.0 - abs(x1) ** 2), \
                (x1.conjugate(), 0.0), "b_tetra"
        return _INF, None, "circle_coordinate"
    if abs(x1) >= 1.0 - tol or abs(x2) >= 1.0 - tol:
        return _INF, None, "circle_coordinate"
    on_dE = v.region is Region.BOUNDARY
    return abs(a) * k_star_closed(x, on_dE), None, "boundary_limit"


def hmu_member(p, tol: float = TOL):
    """Membership of the mu-hexablock: the open hexablock test plus the
    triangularity obstruction x1 x2 = x3 when a = 0.

    Returns (flag, margin)."""
    a, x = _point4(p)
    if abs(a) <= tol and tetra_interior_margin(x) > tol \
            and not is_triangular(x, tol):
        x1, x2, x3 = x
        return False, -abs(x1 * x2 - x3)
    return h_member(p, tol=tol)


def _closure_test(p, tol: float):
    """((flag, margin), tetra verdict of x, psi_sup(p)) of the closed
    mu-hexablock test.  Outside the closed tetrablock psi_sup is not
    evaluated; its answer there for a != 0, (None, None, "exterior"),
    stands in."""
    _, x = _point4(p)
    v = tetra_classify(x, tol)
    if v.region is Region.EXTERIOR:
        margin = min(v.margins["closure_beta"], v.margins["closure_part4"])
        return (False, margin), v, (None, None, "exterior")
    sup_res = psi_sup(p, tol)
    sup = sup_res[0]
    if sup is None or math.isinf(sup):
        return (False, -1.0), v, sup_res
    margin = 1.0 - sup
    return (margin >= -tol, margin), v, sup_res


def hmu_closure_member(p, tol: float = TOL):
    """Membership of the closed mu-hexablock (equivalently the closed
    hexablock): (x1,x2,x3) in closed E and sup |psi| <= 1.

    Returns (flag, margin)."""
    return _closure_test(p, tol)[0]


def hn_params(x):
    """beta = 1 - |x1|^2 - |x2|^2 + |x3|^2, w^2 = x1 x2 - x3 and the interval
    (m, M) = (beta -/+ sqrt(beta^2 - 4|w|^4)) / 2 of admissible |a|^2."""
    x1, x2, x3 = (cx(t) for t in x)
    beta = 1.0 - abs(x1) ** 2 - abs(x2) ** 2 + abs(x3) ** 2
    wsq = x1 * x2 - x3
    disc = beta * beta - 4.0 * abs(wsq) ** 2
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    return beta, wsq, 0.5 * (beta - root), 0.5 * (beta + root)


def hn_member(p, closed: bool = False, tol: float = TOL):
    """Membership of the (open or closed) normed hexablock.

    Open: (x1,x2,x3) in E and either (a = 0 and x1 x2 = x3) or
    m < |a|^2 < M.  Closed: closed E and the non-strict inequalities.
    Returns (flag, margin)."""
    a, x = _point4(p)
    if closed:
        v = tetra_classify(x, tol)
        if v.region is Region.EXTERIOR:
            return False, min(v.margins["closure_beta"],
                              v.margins["closure_part4"])
    else:
        m_int = tetra_interior_margin(x)
        if not m_int > tol:
            return False, min(m_int, 0.0)
    if abs(a) <= tol:
        # membership at a = 0 pivots on triangularity alone and is a
        # knife-edge in the x3 direction; the margin reflects that
        x1, x2, x3 = x
        marg = -abs(x1 * x2 - x3)
        return marg >= -tol * (1.0 + abs(x3)), marg
    # -(|a|^4 - beta |a|^2 + |w|^4): positive exactly on m < |a|^2 < M
    beta, wsq, _, _ = hn_params(x)
    t = abs(a) ** 2
    q = -(t * t - beta * t + abs(wsq) ** 2)
    if closed:
        return q >= -tol, q
    return q > tol, q


def h_member(p, closed: bool = False, tol: float = TOL):
    """Membership of the hexablock H (open) or its closure.

    Open: (x1,x2,x3) in E and |a| K* < 1.  Closed: delegates to the closed
    mu-hexablock, the two closures coincide.  Returns (flag, margin)."""
    if closed:
        return hmu_closure_member(p, tol)
    a, x = _point4(p)
    m_int = tetra_interior_margin(x)
    if not m_int > tol:
        return False, min(m_int, 0.0)
    margin = 1.0 - abs(a) * k_star(x)
    return margin > tol, margin


def h_closure_batch(p, tol: float = TOL):
    """`h_member(p, closed=True)` at every point of arrays p = (a, x1, x2, x3)
    that broadcast together: (flags, margins) arrays.

    The tetrablock verdict is taken on the whole arrays.  In the closed
    tetrablock the margin is 1 where a = 0 and 1 - |a| K*(x) where the
    tetrablock interior margin exceeds max(tol, 1e-9), with K* evaluated
    on those points at once by `k_star_closed`; every other point (outside
    the closed tetrablock, near its boundary) goes through the scalar
    `h_member`."""
    return _h_closure_arrays(p, tol)[:2]


def _h_closure_arrays(p, tol: float):
    """`h_closure_batch` with the tetrablock margins of x it computed:
    (flags, margins, tetrablock margins).  The coordinates are coerced
    once."""
    a, x1, x2, x3 = cx_arrays(p)
    x = (x1, x2, x3)
    region, tm, _ = _tetra_verdict(x1, x2, x3, tol)
    closed = region != Region.EXTERIOR
    zero = closed & (a == 0)
    # part 3 is the tetrablock interior margin that `psi_sup` thresholds
    route = closed & ~zero & (tm["part3"] > max(tol, 1e-9))
    margins = np.ones(a.shape)
    if route.any():
        margins[route] = 1.0 - abs(a[route]) * _k_star_closed(*(t[route] for t in x))
    flags = margins >= -tol
    for i in zip(*np.nonzero(~(zero | route))):
        flags[i], margins[i] = h_member(tuple(t[i] for t in (a, *x)),
                                        closed=True, tol=tol)
    return flags, margins, tm


def classify_boundary(p, tol: float = TOL):
    """Boundary-part flags for a point of the topological boundary of H.

    Returns (parts, witness) where parts is a subset of {"d0", "d1", "d2"}:
    d0 needs a = 0 and x on dE; d1 needs a != 0 with sup |psi| = 1 attained
    at an interior point (returned as witness); d2 needs a != 0, x on dE and
    sup <= 1.  The parts can overlap only through the sup = 1 on dE case.
    """
    in_h, _ = h_member(p, tol=tol)
    (in_hbar, mbar), v, sup_res = _closure_test(p, tol)
    if in_h or (not in_hbar and mbar < -10 * tol):
        raise DomainError("point is not on the boundary of H")
    return _boundary_parts(p, v, sup_res, tol)


def _boundary_parts(p, v, sup_res, tol: float):
    """`classify_boundary` for a point known to be on the boundary of H,
    given the tetra verdict of x and psi_sup(p)."""
    a, _ = _point4(p)
    parts: set[str] = set()
    witness = None
    on_dE = v.region in (Region.BOUNDARY, Region.DISTINGUISHED_BOUNDARY)
    if abs(a) <= tol and on_dE:
        parts.add("d0")
    if abs(a) > tol:
        if on_dE:
            parts.add("d2")
        sup, arg, _ = sup_res
        if arg is not None and abs(sup - 1.0) <= 10 * tol:
            parts.add("d1")
            witness = arg
    if not parts:
        raise DomainError("boundary point received no part label")
    return parts, witness


def bh_member(p, tol: float = TOL):
    """Distinguished boundary of H: |a|^2 + |x1|^2 = 1 and x in bE.

    Returns (flag, margin)."""
    a, x = _point4(p)
    mb = bE_margin(x)
    ms = -abs(abs(a) ** 2 + abs(x[0]) ** 2 - 1.0)
    margin = min(mb, ms)
    return margin >= -tol, margin


def hp_param(theta: float, z: complex, w: complex):
    """The unitary-orbit parametrization (-e^{i t} z, w, e^{i t} conj(w),
    e^{i t}) of H_p; requires |z|^2 + |w|^2 = 1."""
    z, w = cx(z), cx(w)
    if abs(abs(z) ** 2 + abs(w) ** 2 - 1.0) > 1e-9:
        raise DomainError("hp_param needs |z|^2 + |w|^2 = 1")
    e = complex(math.cos(theta), math.sin(theta))
    return (-e * z, w, e * w.conjugate(), e)


@dataclass
class HexaVerdict:
    """Joint verdict over the hexablock family with its margin ledger."""

    in_h: bool
    in_h_closure: bool
    in_hmu: bool
    in_hmu_closure: bool
    in_int_hmu: bool
    in_hn: bool
    in_hn_closure: bool
    in_int_hn: bool
    in_bh: bool
    boundary_parts: frozenset
    margins: dict = field(default_factory=dict)


def classify_hexa(p, tol: float = TOL) -> HexaVerdict:
    """Full verdict (H, H_mu, H_N, closures, interiors, bH, boundary parts)
    with the lattice H_N <= H_mu <= H <= H-closure asserted."""
    a, x = _point4(p)
    f_h, m_h = h_member(p, tol=tol)
    (f_hc, m_hc), v, sup_res = _closure_test(p, tol)
    f_mu, m_mu = hmu_member(p, tol)
    f_hn, m_hn = hn_member(p, closed=False, tol=tol)
    f_hnc, m_hnc = hn_member(p, closed=True, tol=tol)
    nonzero_a = abs(a) > tol
    f_imu = f_mu and nonzero_a
    f_ihn = f_hn and nonzero_a
    f_bh, m_bh = bh_member(p, tol)
    f_bh = f_bh and f_hc
    parts: frozenset = frozenset()
    if f_hc and not f_h:
        try:
            got, _ = _boundary_parts(p, v, sup_res, tol)
            parts = frozenset(got)
        except DomainError:
            parts = frozenset()

    checks = [(f_hn, f_mu, "H_N <= H_mu"), (f_mu, f_h, "H_mu <= H"),
              (f_h, f_hc, "H <= closure"), (f_ihn, f_imu, "int lattice"),
              (f_hn, f_hnc, "H_N <= closed H_N"),
              (f_hnc, f_hc, "closed H_N <= closed H")]
    for low, high, name in checks:
        if low and not high:
            raise ConsistencyError(f"verdict lattice violated: {name} at {p}")
    margins = {"h": m_h, "h_closure": m_hc, "hmu": m_mu, "hn": m_hn,
               "hn_closure": m_hnc, "bh": m_bh}
    return HexaVerdict(f_h, f_hc, f_mu, f_hc, f_imu, f_hn, f_hnc, f_ihn,
                       f_bh, parts, margins)


# ---------------------------------------------------------------------------
# Structured singular values
# ---------------------------------------------------------------------------

def _mu_tetra(A: Mat2) -> float:
    """The norm of B = D A D^-1 at the balancing diagonal D, whose
    off-diagonal entries both have modulus sqrt(|p|), p = a12 a21.

    With f = ||B||_F^2 and d = |det A|, mu^2 = (f + sqrt(f^2 - 4 d^2))/2,
    that is mu = (sqrt(f + 2d) + sqrt(f - 2d))/2.  f -/+ 2d are evaluated
    as sums of squares, so mu keeps full precision when the two singular
    values of B nearly coincide: with w^2 det A = d for a unit w and
    q = w^2 p, f -/+ 2d = |w a11 -/+ conj(w a22)|^2 + |q +/- |p||^2 / |p|.
    """
    det = A.det
    s = cmath.sqrt(det)
    w = s.conjugate() / abs(s) if s != 0 else 1.0
    u, v = w * A.a11, (w * A.a22).conjugate()
    p = A.a12 * A.a21
    g = abs(p)
    q = w * w * p
    off_minus = abs(q + g) ** 2 / g if g > 0.0 else 0.0
    off_plus = abs(q - g) ** 2 / g if g > 0.0 else 0.0
    return 0.5 * (math.sqrt(abs(u + v) ** 2 + off_plus)
                  + math.sqrt(abs(u - v) ** 2 + off_minus))


def _penta_member(A: Mat2, t: float, tol: float) -> bool:
    """Strict pentablock membership of pi_P(A/t), with the arithmetic of
    `pi_penta(A.scaled(1/t))` but no intermediate `Mat2`."""
    r = 1.0 / t
    a11, a21, a22 = r * A.a11, r * A.a21, r * A.a22
    return penta_classify(a21, a11 + a22, a11 * a22 - r * A.a12 * a21,
                          tol).in_interior


def mu_value(A: Mat2, structure: str = "hexa", tol: float = 1e-9) -> float:
    """Structured singular value of a 2x2 matrix.

    structure is one of 'tetra' (diagonal perturbations), 'penta'
    (span{I, e12}), 'hexa' (upper triangular), 'spectral' or 'norm'.

    tetra is the diagonal D-scaling bound inf ||D A D^-1||, exact for two
    1x1 blocks (Packard & Doyle 1993).  hexa and penta are max(|a11|, |a22|)
    when a21 = 0: for upper-triangular A and Delta, det(I - A Delta) =
    (1 - a11 d11)(1 - a22 d22) does not involve the corner of Delta.
    Otherwise hexa is ||A|| when |a12| <= |a21| and mu_tetra when
    |a12| > |a21|.  Each structure contains the scalars and sits inside M2,
    so r <= mu <= norm; hexa also contains the diagonal matrices and
    [[0, 1/a21], [0, 0]], which makes I - A Delta singular, so
    mu_hexa >= max(mu_tetra, |a21|).  Conversely D = diag(delta, 1) with
    delta <= 1 maps the upper-triangular unit ball into itself (it shrinks
    the corner), so mu_hexa <= ||D A D^-1|| for every such delta; the
    balancing delta^2 = |a21|/|a12| gives mu_tetra when it is <= 1, and
    otherwise delta = 1 gives ||A|| (Packard & Doyle 1993).  penta bisects
    its strict membership criterion to the width tol * ||A||, relative so
    that mu(cA) = |c| mu(A) at every scale, and is capped by mu_hexa, since
    span{I, e12} lies in the upper-triangular matrices.  The three mu
    values are not totally ordered: diagonal and span{I, e12}
    perturbations are not nested.  0 is returned for a vanishing matrix and when the penta
    criterion holds at a vanishing scale.
    """
    if structure == "norm":
        return op_norm(A)
    if structure == "spectral":
        return spectral_radius(A)
    if structure == "tetra":
        return _mu_tetra(A)
    if structure not in ("hexa", "penta"):
        raise DomainError(f"unknown structure {structure!r}")
    if A.a21 == 0:
        return max(abs(A.a11), abs(A.a22))
    mu_hexa = op_norm(A) if abs(A.a12) <= abs(A.a21) else _mu_tetra(A)
    if structure == "hexa":
        return mu_hexa
    hi = op_norm(A)
    if hi <= 1e-300:
        return 0.0
    lo = spectral_radius(A)
    lo_b = max(lo, hi * 1e-13)
    if _penta_member(A, lo_b, tol):
        if lo <= hi * 1e-12:
            return 0.0
        # mu equals the spectral radius up to roundoff
        return lo
    hi_b = hi * (1.0 + 1e-12) + 1e-300
    if not _penta_member(A, hi_b * (1.0 + 1e-6), tol):
        # numerical guard; mu_penta <= mu_hexa always holds mathematically
        return mu_hexa
    target = tol * hi
    while hi_b - lo_b > target:
        mid = 0.5 * (lo_b + hi_b)
        if _penta_member(A, mid, tol):
            hi_b = mid
        else:
            lo_b = mid
    # membership near the corner of the pentablock is decided at rounding
    # level; span{I, e12} lies in the upper-triangular matrices
    return min(0.5 * (lo_b + hi_b), mu_hexa)


def hartogs_u(x) -> float:
    """Hartogs potential u(x) = 2 log K*(x); H = {|a|^2 < exp(-u(x))}."""
    return 2.0 * math.log(k_star(x))
