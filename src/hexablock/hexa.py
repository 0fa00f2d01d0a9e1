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

from .numerics import (REFUSE_MARGIN, TOL, UNIT_SLACK, ConsistencyError,
                       DomainError, Mat2, SCALE_HI, SCALE_LO, _rescaled,
                       _unit_scaled, cx, cx_arrays, op_norm,
                       spectral_radius)
from .psi import (_k_star, _k_star_M, _k_star_of_M, _tetra_terms,
                  is_triangular, k_star, maximizer, tetra_interior_margin)
from .domains import (_BOUNDARY, _DISTINGUISHED, _EXTERIOR, _EXTERIOR_CODE,
                      _closure_margin, _tetra_verdict, bE_margin,
                      penta_classify, tetra_classify)

_INF = math.inf

#: `mu_value`: a spectral radius negligible against the norm (mu = 0)
MU_NEGLIGIBLE = 1e-12
#: `mu_value`: the lowest lower end of the penta bisection, relative
MU_LO_FLOOR = 1e-13
#: `mu_value`: the upper end of the penta bisection widened, relative
MU_BRACKET_SLACK = 1e-12
#: `mu_value`: the guard that the widened upper end is in the pentablock
MU_GUARD = 1e-6
#: `mu_value`: the penta bisection width, relative to ||A||
MU_WIDTH = 1e-9


def _point4(p):
    a, x1, x2, x3 = (cx(t) for t in p)
    return a, (x1, x2, x3)


def psi_sup(p, tol: float = TOL):
    """sup over the open bidisc of |psi_{z1,z2}(p)|.

    Returns (sup, witness, method).  The supremum is |a| K*(x), the one
    closed form of `psi._k_star`, on the whole closed tetrablock; the
    method names the witness.  On the open tetrablock it is the unique
    maximizer ("maximizer"), on the distinguished boundary with |x1| < 1
    the point (conj(x1), 0) ("b_tetra").  On dE off bE, and at interior
    points below the maximizer's refusal margin, there is none
    ("boundary_limit"): off the interior the value is a limit at a torus
    zero of the denominator, never attained, as on the circle
    ("circle_coordinate").  The supremum is infinite when a != 0 and K*
    is, as |x1| or |x2| reaches the circle; it is None outside the closed
    tetrablock where the map itself is undefined.
    """
    a, x = _point4(p)
    if abs(a) == 0.0:
        return 0.0, None, "zero"
    if tetra_interior_margin(x) > max(tol, REFUSE_MARGIN):
        r = maximizer(x)
        return abs(a) * _k_star(*x), (r.z1, r.z2), "maximizer"
    region = tetra_classify(x, tol).region
    if region is _EXTERIOR:
        return None, None, "exterior"
    sup = abs(a) * _k_star(*x)
    if abs(x[0]) >= 1.0 or abs(x[1]) >= 1.0:
        return sup, None, "circle_coordinate"
    if region is _DISTINGUISHED:
        return sup, (x[0].conjugate(), 0.0), "b_tetra"
    return sup, None, "boundary_limit"


def hmu_member(p, tol: float = TOL):
    """Membership of the mu-hexablock: the open hexablock test plus the
    triangularity obstruction x1 x2 = x3 when a = 0.

    The point is coerced once; the open H test runs only off the fibre
    that H_mu cuts out (`_zero_fibre_cut`).  Returns (flag, margin)."""
    a, x = _point4(p)
    return _zero_fibre_cut(a, x, tol) or _open_member(a, x, tol)


def _zero_fibre_cut(a, x, tol: float):
    """H_mu is H without the fibre a = 0 over non-triangular x.  For
    coerced a and x = (x1, x2, x3): (False, -|x1 x2 - x3|) where |a| <= tol,
    x is in the open tetrablock and |x1 x2 - x3| > tol (1 + |x3|), and None
    elsewhere, where H_mu's (flag, margin) is open H's."""
    if abs(a) <= tol and tetra_interior_margin(x) > tol \
            and not is_triangular(x, tol):
        x1, x2, x3 = x
        return False, -abs(x1 * x2 - x3)
    return None


def _closure_test(p, tol: float):
    """((flag, margin), tetra verdict of x, psi_sup(p)) of the closed
    mu-hexablock test.  Outside the closed tetrablock psi_sup is not
    evaluated; its answer there for a != 0, (None, None, "exterior"),
    stands in."""
    _, x = _point4(p)
    v = tetra_classify(x, tol)
    if v.region is _EXTERIOR:
        return (False, _closure_margin(v.margins)), v, (None, None, "exterior")
    sup_res = psi_sup(p, tol)
    sup = sup_res[0]
    if sup is None or math.isinf(sup):
        return (False, -1.0), v, sup_res
    margin = 1.0 - sup
    return (margin >= -tol, margin), v, sup_res


def _closed_member(a, x, tol: float):
    """(flag, margin) of closed-H membership for coerced a and x = (x1, x2,
    x3), from one tetrablock verdict: outside closed E its closure margin;
    at a = 0 the margin 1; else 1 - |a| K*, with K* from the verdict's own
    terms, and -1 where |a| K* is infinite.  These are the floats of
    `_closure_test`, which reads |a| K* through `psi_sup`."""
    region, margins, _, terms = _tetra_verdict(*x, tol)
    if region is _EXTERIOR:
        return False, _closure_margin(margins)
    if abs(a) == 0.0:
        return True, 1.0
    sup = abs(a) * _k_star_of_M(_k_star_M(terms)[2])
    if sup == _INF:
        return False, -1.0
    margin = 1.0 - sup
    return margin >= -tol, margin


def hmu_closure_member(p, tol: float = TOL):
    """Membership of the closed mu-hexablock (equivalently the closed
    hexablock): (x1,x2,x3) in closed E and sup |psi| <= 1.

    One pass: a single tetrablock verdict decides closed E and gives the
    terms of K*, so no maximizer witness is evaluated (`_closed_member`).
    Returns (flag, margin)."""
    return _closed_member(*_point4(p), tol)


def hn_params(x):
    """beta = 1 - |x1|^2 - |x2|^2 + |x3|^2, w^2 = x1 x2 - x3 and the interval
    (m, M) = (beta -/+ sqrt(beta^2 - 4|w|^4)) / 2 of admissible |a|^2:
    M = K*(x)^-2 (`psi._k_star_M`) and m = |w|^4 / M, precise at m << M and
    at most M (rounding can swap them at the double root m = M on bE)."""
    terms = _tetra_terms(*(cx(t) for t in x))
    beta, _, M = _k_star_M(terms)
    wsq = terms[10]  # v = x1 x2 - x3
    m = min(abs(wsq) ** 2 / M, M) if M > 0.0 else beta - M
    return beta, wsq, m, M


def hn_member(p, closed: bool = False, tol: float = TOL):
    """Membership of the (open or closed) normed hexablock.

    Open: (x1,x2,x3) in E and either (a = 0 and x1 x2 = x3) or
    m < |a|^2 < M.  Closed: closed E and the non-strict inequalities.
    Returns (flag, margin).  For |a| > tol the margin is min(1 - |a| K*,
    1 - sqrt(m)/|a|), K* = M^-1/2 (-1 where K* is infinite): its first term
    is the float that H and its closure read, so H_N <= H by construction.
    For |a| <= tol the point is decided as a = 0, on -|x1 x2 - x3|
    against tol (1 + |x3|); off a = 0 the margin is min(-|x1 x2 - x3|,
    1 - |a| K*) and the flag also needs H's own test of 1 - |a| K*."""
    a, x = _point4(p)
    if closed:
        v = tetra_classify(x, tol)
        if v.region is _EXTERIOR:
            return False, _closure_margin(v.margins)
    else:
        m_int = tetra_interior_margin(x)
        if not m_int > tol:
            return False, min(m_int, 0.0)
    a_a = abs(a)
    if a_a <= tol:
        # membership at a = 0 pivots on triangularity alone and is a
        # knife-edge in the x3 direction; the margin reflects that
        x1, x2, x3 = x
        marg = -abs(x1 * x2 - x3)
        flag = marg >= -tol * (1.0 + abs(x3))
        if a_a == 0.0:
            return flag, marg
        # off a = 0 the band also reads H's margin, so H_N <= H holds
        k = _k_star(*x)
        h = 1.0 - a_a * k if k < _INF else -1.0
        return flag and (h >= -tol if closed else h > tol), min(marg, h)
    _, _, m, M = hn_params(x)
    k = _k_star_of_M(M)
    q = min(1.0 - a_a * k, 1.0 - math.sqrt(m) / a_a) if k < _INF else -1.0
    if closed:
        return q >= -tol, q
    return q > tol, q


def h_member(p, closed: bool = False, tol: float = TOL):
    """Membership of the hexablock H (open) or its closure.

    Open: (x1,x2,x3) in E and |a| K* < 1.  Closed: the closed
    mu-hexablock, the two closures coincide; the point is coerced once and
    decided by one tetrablock verdict, with K* read from its terms
    (`_closed_member`).  Returns (flag, margin)."""
    a, x = _point4(p)
    if closed:
        return _closed_member(a, x, tol)
    return _open_member(a, x, tol)


def _open_member(a, x, tol: float):
    """(flag, margin) of open-H membership for coerced a and x = (x1, x2,
    x3): the tetrablock interior margin where it does not clear tol, else
    1 - |a| K*, read as `_closed_member` does where rounding leaves K*
    infinite (the interior margin can round above a small tol on dE): 1 at
    a = 0 and -1 elsewhere."""
    m_int = tetra_interior_margin(x)
    if not m_int > tol:
        return False, min(m_int, 0.0)
    a_a = abs(a)
    k = _k_star(*x) if a_a else 0.0
    margin = 1.0 - a_a * k if k < _INF else -1.0
    return margin > tol, margin


def h_closure_batch(p, tol: float = TOL):
    """`h_member(p, closed=True)` at every point of arrays p = (a, x1, x2, x3)
    that broadcast together: (flags, margins) arrays.

    The tetrablock verdict is taken on the whole arrays.  In the closed
    tetrablock the margin is 1 where a = 0 and 1 - |a| K*(x) where the
    tetrablock interior margin exceeds max(tol, REFUSE_MARGIN), with K*
    evaluated on those points at once in closed form; every other point
    (outside the closed tetrablock, near its boundary) goes through the
    scalar closed-H core of `h_member`, `_closed_member`."""
    return _h_closure_arrays(*cx_arrays(p), tol)[:2]


def _h_closure_arrays(a, x1, x2, x3, tol: float):
    """`h_closure_batch` for coerced coordinate arrays of one shape, with
    the tetrablock margins of x it computed: (flags, margins, tetrablock
    margins).  K* comes from the terms of the tetrablock verdict, on all
    points at once; the margin reads it where the point is routed."""
    x = (x1, x2, x3)
    region, tm, _, terms = _tetra_verdict(x1, x2, x3, tol)
    closed = region != _EXTERIOR_CODE
    zero = closed & (a == 0)
    # part 3 is the tetrablock interior margin that `psi_sup` thresholds
    route = closed & ~zero & (tm["part3"] > max(tol, REFUSE_MARGIN))
    # off the route K* may be infinite, |a| K* nan (a = 0): not read there
    with np.errstate(divide="ignore", invalid="ignore"):
        k = _k_star_of_M(_k_star_M(terms)[2])
        margins = np.where(route, 1.0 - abs(a) * k, 1.0)
    flags = margins >= -tol
    # as Python complex, whose modulus rounds apart from numpy's
    for i in zip(*np.nonzero(~(zero | route))):
        flags[i], margins[i] = _closed_member(
            complex(a[i]), tuple(complex(t[i]) for t in x), tol)
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
    parts, witness = _boundary_parts(p, v, sup_res, tol)
    if not parts:
        raise DomainError("boundary point received no part label")
    return parts, witness


def _boundary_parts(p, v, sup_res, tol: float):
    """(parts, witness) of `classify_boundary`, given the tetra verdict of
    x and psi_sup(p); the part set may be empty."""
    a, _ = _point4(p)
    parts: set[str] = set()
    witness = None
    x_in_dE = v.region in (_BOUNDARY, _DISTINGUISHED)
    if abs(a) <= tol and x_in_dE:
        parts.add("d0")
    if abs(a) > tol:
        if x_in_dE:
            parts.add("d2")
        sup, arg, _ = sup_res
        if arg is not None and abs(sup - 1.0) <= 10 * tol:
            parts.add("d1")
            witness = arg
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
    if abs(abs(z) ** 2 + abs(w) ** 2 - 1.0) > UNIT_SLACK:
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
    with the lattice H_N <= H_mu <= H <= H-closure asserted.  H_mu is read
    from the open H verdict on the point coerced once (`_zero_fibre_cut`)."""
    a, x = _point4(p)
    f_h, m_h = _open_member(a, x, tol)
    (f_hc, m_hc), v, sup_res = _closure_test(p, tol)
    f_mu, m_mu = _zero_fibre_cut(a, x, tol) or (f_h, m_h)
    f_hn, m_hn = hn_member(p, closed=False, tol=tol)
    f_hnc, m_hnc = hn_member(p, closed=True, tol=tol)
    nonzero_a = abs(a) > tol
    f_imu = f_mu and nonzero_a
    f_ihn = f_hn and nonzero_a
    f_bh, m_bh = bh_member(p, tol)
    f_bh = f_bh and f_hc
    parts: frozenset = frozenset()
    if f_hc and not f_h:
        parts = frozenset(_boundary_parts(p, v, sup_res, tol)[0])

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
    At every scale (`numerics._rescaled`).
    """
    try:
        det = A.det
        s = cmath.sqrt(det)
        w = s.conjugate() / abs(s) if s != 0 else 1.0
        u, v = w * A.a11, (w * A.a22).conjugate()
        p = A.a12 * A.a21
        g = abs(p)
        q = w * w * p
        off_minus = abs(q + g) ** 2 / g if g > 0.0 else 0.0
        off_plus = abs(q - g) ** 2 / g if g > 0.0 else 0.0
        mu = 0.5 * (math.sqrt(abs(u + v) ** 2 + off_plus)
                    + math.sqrt(abs(u - v) ** 2 + off_minus))
    except OverflowError:
        mu = math.nan
    return mu if SCALE_LO <= mu <= SCALE_HI else _rescaled(_mu_tetra, A, mu)


def _penta_member(A: Mat2, t: float) -> bool:
    """Strict pentablock membership of pi_P(A/t), with the arithmetic of
    `pi_penta(A.scaled(1/t))` but no intermediate `Mat2`."""
    r = 1.0 / t
    a11, a21, a22 = r * A.a11, r * A.a21, r * A.a22
    return penta_classify(a21, a11 + a22, a11 * a22 - r * A.a12 * a21,
                          TOL).in_interior


def mu_value(A: Mat2, structure: str = "hexa") -> float:
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
    its strict membership criterion to the width MU_WIDTH ||A||, relative so
    that mu(cA) = |c| mu(A) at every scale, and is capped by mu_hexa, since
    span{I, e12} lies in the upper-triangular matrices.  The criterion
    asks every margin of the pentablock verdict to exceed TOL, so it turns
    above mu_penta and the result overestimates it: by a few MU_WIDTH ||A||
    where c_plus decides, and where the G2 part decides (mu_penta = r(A),
    |tr^2 - 4 det| >= 4|a21|^2) by TOL over the growth rate of the G2
    closure margin, which vanishes as the eigenvalues of A meet: 5.9e-6
    ||A|| at eigenvalues 1e-5 |a11| apart, below sqrt(TOL) ||A||.  The
    three mu values are not totally ordered: diagonal and span{I, e12}
    perturbations are not nested.

    Every structure holds at every scale.  The closed forms are recomputed
    on A scaled by a power of two where their value is out of range
    (`numerics._rescaled`).  Penta bisects on A scaled by the power of
    two that puts its largest entry part in [1/2, 1), so mu_penta(2^k A) =
    2^k mu_penta(A) bit for bit wherever the entries and the value stay
    normal and the mu_hexa cap does not decide; it is 0 where the
    criterion holds at the spectral radius and that is negligible against
    ||A||.
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
    B, e = _unit_scaled(A)
    return math.ldexp(_mu_penta(B, math.ldexp(mu_hexa, -e)), e)


def _mu_penta(A: Mat2, mu_hexa: float) -> float:
    """The penta bisection of `mu_value` for a21 != 0 and the largest
    entry part in [1/2, 1), so ||A|| >= 1/2, capped by mu_hexa: that of
    the caller's matrix, scaled as A is."""
    hi = op_norm(A)
    lo = spectral_radius(A)
    lo_b = max(lo, hi * MU_LO_FLOOR)
    if _penta_member(A, lo_b):
        if lo <= hi * MU_NEGLIGIBLE:
            return 0.0
        # mu equals the spectral radius up to roundoff
        return lo
    hi_b = hi * (1.0 + MU_BRACKET_SLACK)
    if not _penta_member(A, hi_b * (1.0 + MU_GUARD)):
        # numerical guard; mu_penta <= mu_hexa always holds mathematically
        return mu_hexa
    target = MU_WIDTH * hi
    while hi_b - lo_b > target:
        mid = 0.5 * (lo_b + hi_b)
        if _penta_member(A, mid):
            hi_b = mid
        else:
            lo_b = mid
    # membership near the corner of the pentablock is decided at rounding
    # level; span{I, e12} lies in the upper-triangular matrices
    return min(0.5 * (lo_b + hi_b), mu_hexa)


def hartogs_u(x) -> float:
    """Hartogs potential u(x) = 2 log K*(x); H = {|a|^2 < exp(-u(x))}."""
    return 2.0 * math.log(k_star(x))
