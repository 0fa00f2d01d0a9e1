"""Real-coordinate geometry of the hexablock: membership in H with real
coordinates, the concave-candidate potential K and its exact Hessian, the
six boundary faces C1..C6 over the tetrahedron faces D1..D4, the defining
function rho of the non-Levi-flat boundary part of the tetrablock with its
Levi form, and the real pentablock sets T1, T2, E, S1, S2.

K = 1/K* = sqrt(M) and rho = -D come from the one K* core in `psi`
(`_tetra_terms`, `_k_star_M`); nothing here differentiates numerically.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import CIRCLE_EDGE, REAL_TOL, TOL, DomainError, cx
from .psi import (_k_star_M, _refuse_boundary, _tetra_terms, is_triangular,
                  k_star)
from .domains import Region, g2_classify, tetra_classify

#: the triangular and circle tests that split d3E from d2E
D3E_EDGE = 1e-7
#: imaginary part of a real-slice coordinate
REAL_IMAG_SLACK = 1e-12
#: eigenvalue of the Hessian of K that still counts as <= 0
HESS_SLACK = 1e-4


def _real3(x):
    out = []
    for t in x:
        t = cx(t)
        if abs(t.imag) > REAL_IMAG_SLACK:
            raise DomainError("real-slice routines need real coordinates")
        out.append(t.real)
    return tuple(out)


# Affine face forms of the real tetrahedron E intersect R^3; positive inside.
_FACE_FORMS = (
    lambda x1, x2, x3: -x1 + x2 - x3 + 1.0,
    lambda x1, x2, x3: -x1 - x2 + x3 + 1.0,
    lambda x1, x2, x3: x1 + x2 + x3 + 1.0,
    lambda x1, x2, x3: x1 - x2 - x3 + 1.0,
)


def real_tetra_margin(x) -> float:
    """min of the four tetrahedron face forms; positive on E intersect R^3."""
    x1, x2, x3 = _real3(x)
    return min(f(x1, x2, x3) for f in _FACE_FORMS)


def K_real(x) -> float:
    """K(x) = 1/K*(x) on the real tetrahedron; refuses, as `k_star` does,
    points within `psi.REFUSE_MARGIN` of its boundary."""
    return 1.0 / k_star(_real3(x))


def real_h_member(p):
    """Membership of H intersect R^4: x in the open tetrahedron and
    |a| < K(x), both decided at `TOL`.  Returns (flag, margin)."""
    a, *x = _real3(p)
    mt = real_tetra_margin(x)
    if mt <= TOL:
        return False, min(mt, 0.0)
    margin = K_real(x) - abs(a)
    return margin > TOL, margin


# Hessians of beta = 1 - x1^2 - x2^2 + x3^2 and v = x1 x2 - x3 on R^3
_HESS_BETA = np.diag([-2.0, -2.0, 2.0])
_HESS_V = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _sqrt_chain(f, grad, hess):
    """Gradient and Hessian of f = sqrt(g) from those of g."""
    df = grad / (2.0 * f)
    return df, (hess - 2.0 * np.outer(df, df)) / (2.0 * f)


def hessian_probe_K(x):
    """Hessian of K = sqrt(M), M = (beta + sqrt(D))/2, at x in the open
    real tetrahedron, with a negative-semidefinite flag (eigenvalues at
    most `HESS_SLACK`).  Refuses what `K_real` refuses.

    Returns (H, eigenvalues, flag).  H is the exact Hessian up to rounding,
    by the chain rule through beta, v = x1 x2 - x3 and D = beta^2 - 4 v^2
    of `psi._k_star_M`.  It is evaluated at one point: a true flag supports
    the concavity conjecture for the real hexablock there, never proves it;
    callers should report its outcome as conjecture-consistent at best.
    """
    x1, x2, x3 = _real3(x)
    terms = _tetra_terms(x1, x2, x3)
    _refuse_boundary(terms)
    beta, D, M = _k_star_M(terms)
    v = terms[10]
    db = np.array([-2.0 * x1, -2.0 * x2, 2.0 * x3])
    dv = np.array([x2, x1, -1.0])
    dS, HS = _sqrt_chain(math.sqrt(D), 2.0 * beta * db - 8.0 * v * dv,
                         2.0 * (np.outer(db, db) + beta * _HESS_BETA)
                         - 8.0 * (np.outer(dv, dv) + v * _HESS_V))
    _, H = _sqrt_chain(math.sqrt(M), 0.5 * (db + dS), 0.5 * (_HESS_BETA + HS))
    eig = np.linalg.eigvalsh(H)
    return H, eig, bool(np.all(eig <= HESS_SLACK))


def face_classify(p, tol: float = REAL_TOL):
    """Face labels C1..C6 of a point of the real hexablock boundary.

    C1..C4 attach to the tetrahedron faces D1..D4 and require the psi bound
    to hold; C5 (a in [0,1]) and C6 (a in [-1,0]) sit over the open real
    tetrablock where |a| K*(x) = 1.  Every real boundary point receives at
    least one label; none is an error.
    """
    a, *x = _real3(p)
    labels = []
    x1, x2, x3 = x
    forms = [f(x1, x2, x3) for f in _FACE_FORMS]
    mt = real_tetra_margin(x)
    in_closed_tetra = mt >= -tol
    ks = k_star(x) if mt > tol else None
    if in_closed_tetra:
        # psi bound: sup |psi| <= 1 over the bidisc
        if ks is not None:
            psi_ok = abs(a) * ks <= 1.0 + tol * max(1.0, ks)
        elif abs(a) <= tol:
            psi_ok = True
        else:
            # x sits on dE, where psi_sup's suprema are closed-form limits
            from .hexa import psi_sup
            sup, _, _ = psi_sup((complex(a), *x))
            psi_ok = sup is not None and sup <= 1.0 + tol
        for j, f in enumerate(forms):
            if abs(f) <= tol and psi_ok:
                labels.append(f"C{j + 1}")
    if ks is not None:
        eq = abs(abs(a) * ks - 1.0)
        if eq <= tol * max(1.0, ks):
            if a >= -tol:
                labels.append("C5")
            if a <= tol:
                labels.append("C6")
    if not labels:
        raise DomainError("real boundary point received no face label")
    return labels


# ---------------------------------------------------------------------------
# The defining function rho of d2(E) and its Levi form
# ---------------------------------------------------------------------------

def _chart_check(x):
    """Coerced x on the chart of rho (|x_i| < 1, beta > 0, x1 x2 != x3),
    its `psi._tetra_terms`, and beta and D of `psi._k_star_M`."""
    x = tuple(cx(t) for t in x)
    terms = _tetra_terms(*x)
    beta, D, _ = _k_star_M(terms)
    if not (max(terms[:3]) < 1.0 and beta > 0.0 and terms[11] > 0.0):
        raise DomainError("point outside the chart of the defining function")
    return x, terms, beta, D


def rho_value(x) -> float:
    """rho = 4|x1 x2 - x3|^2 - (1 - |x1|^2 - |x2|^2 + |x3|^2)^2 on the chart,
    evaluated as -D of `psi._k_star_M`, its least cancelled factorization."""
    return -_chart_check(x)[3]


def rho_gradient(x):
    """Holomorphic gradient (d rho/d x1, d rho/d x2, d rho/d x3)."""
    return _rho_gradient(_chart_check(x))


def _rho_gradient(chart):
    (x1, x2, x3), terms, beta, _ = chart
    b = terms[10].conjugate()
    g1 = 2.0 * x1.conjugate() * beta + 4.0 * x2 * b
    g2 = 2.0 * x2.conjugate() * beta + 4.0 * x1 * b
    g3 = -2.0 * x3.conjugate() * beta - 4.0 * b
    return (g1, g2, g3)


def levi_matrix(x) -> np.ndarray:
    """Hermitian matrix of mixed second derivatives d^2 rho / dx_i d conj(x_j)."""
    return _levi_matrix(_chart_check(x))


def _levi_matrix(chart) -> np.ndarray:
    (x1, x2, x3), terms, _, _ = chart
    a1, a2, a3 = terms[3:6]
    L = np.empty((3, 3), dtype=complex)
    L[0, 0] = 2.0 * (1.0 - 2.0 * a1 + a2 + a3)
    L[1, 1] = 2.0 * (1.0 + a1 - 2.0 * a2 + a3)
    L[2, 2] = 2.0 * (1.0 + a1 + a2 - 2.0 * a3)
    L[0, 1] = 2.0 * x1.conjugate() * x2
    L[1, 0] = 2.0 * x1 * x2.conjugate()
    L[0, 2] = -4.0 * x2 + 2.0 * x1.conjugate() * x3
    L[2, 0] = -4.0 * x2.conjugate() + 2.0 * x1 * x3.conjugate()
    L[1, 2] = -4.0 * x1 + 2.0 * x2.conjugate() * x3
    L[2, 1] = -4.0 * x1.conjugate() + 2.0 * x2 * x3.conjugate()
    return L


def rho_and_levi(x, w):
    """(rho, gradient, gradient pairing, Levi-form value) at x in direction w.

    The gradient pairing sum_i (d rho/d x_i) w_i vanishes exactly on complex
    tangent directions; the Levi value is sum_ij L_ij w_i conj(w_j).
    """
    wv = np.array([cx(t) for t in w])
    chart = _chart_check(x)
    grad = _rho_gradient(chart)
    pairing = sum(g * t for g, t in zip(grad, wv))
    levi = complex(wv @ _levi_matrix(chart) @ np.conj(wv))
    return -chart[3], grad, pairing, levi.real


def dE_part_classify(x):
    """Split a point of dE off the distinguished boundary into the
    triangular part (one coordinate on the circle) or the non-Levi-flat
    hypersurface part, returning normal-form data for the latter.

    Returns ('d3E', None) or ('d2E', params) where params holds the
    rotation angles (alpha, beta), the Blaschke centre x1 and the height r
    with f o tau_{v,chi}(x) = (0, r, 1-r).
    """
    part = _d2E_image(x)
    if part is None:
        return "d3E", None
    x1, y2, y3 = part
    alpha = math.atan2(y2.imag, y2.real)
    beta = math.atan2(y3.imag, y3.real) - alpha
    return "d2E", {"alpha": alpha, "beta": beta, "centre": x1, "r": abs(y2)}


def _d2E_image(x):
    """None for a point of the triangular part d3E; for a point of d2E,
    (x1, y2, y3) where (0, y2, y3) is its image under the automorphism
    whose Blaschke centre is x1."""
    x1, x2, x3 = (cx(t) for t in x)
    v = tetra_classify((x1, x2, x3))
    if v.region is not Region.BOUNDARY:
        raise DomainError("point is not on dE off the distinguished boundary")
    tri = is_triangular((x1, x2, x3), D3E_EDGE)
    pattern = (abs(abs(x1) - 1.0) <= D3E_EDGE) != (abs(abs(x2) - 1.0) <= D3E_EDGE)
    # the two characterizations coincide; a mismatch is a tolerance clash
    if tri or pattern:
        return None
    den = 1.0 - abs(x1) ** 2
    return x1, (x2 - x1.conjugate() * x3) / den, (x1 * x2 - x3) / den


def d2E_normal_form(x):
    """Map a d2E point through the recovered automorphism and the rotation
    by (alpha, beta) = (arg y2, arg y3 - arg y2): it lands at
    (0, |y2|, |y3|) = (0, r, 1-r)."""
    part = _d2E_image(x)
    if part is None:
        raise DomainError("normal form exists only on the d2E part")
    _, y2, y3 = part
    return 0j, complex(abs(y2)), complex(abs(y3))


def d3E_approach_sequence(x):
    """Points of d2E at e = 0.9, 0.99, 0.999 converging to a d3E point."""
    x1, x2, x3 = (cx(t) for t in x)
    first = abs(abs(x1) - 1.0) <= CIRCLE_EDGE
    if not (first or abs(abs(x2) - 1.0) <= CIRCLE_EDGE):
        raise DomainError("d3E point needs a circle coordinate")
    u = x1 if first else x2
    pairs = [(e * u + (1 - e) * u.conjugate() * x3,
              (1 - e) * u + e * u.conjugate() * x3) for e in (0.9, 0.99, 0.999)]
    return [(p, q, x3) if first else (q, p, x3) for p, q in pairs]


# ---------------------------------------------------------------------------
# Real pentablock sets
# ---------------------------------------------------------------------------

def s1_surface_value(s: float, p: float) -> float:
    """|1 - (s^2/2)/((1+p) + sqrt((1+p)^2 - s^2))| - the height of the
    curved faces of the real pentablock."""
    q = (1.0 + p) ** 2 - s * s
    return abs(1.0 - s * s / (2.0 * ((1.0 + p) + math.sqrt(max(q, 0.0)))))


def _in_triangle(q, v1, v2, v3):
    A = np.column_stack([np.array(v2) - np.array(v1), np.array(v3) - np.array(v1)])
    rhs = np.array(q) - np.array(v1)
    sol, res, _, _ = np.linalg.lstsq(A, rhs, rcond=None)
    recon = A @ sol
    if np.max(np.abs(recon - rhs)) > REAL_TOL:
        return False
    u, v = sol
    return u >= -REAL_TOL and v >= -REAL_TOL and u + v <= 1.0 + REAL_TOL


def penta_real_sets(a: float, s: float, p: float):
    """Labels among {T1, T2, Ell, S1, S2} of a real (a, s, p), at `REAL_TOL`."""
    a, s, p = float(a), float(s), float(p)
    labels = []
    if _in_triangle((a, s, p), (0, 2, 1), (1, 0, -1), (-1, 0, -1)):
        labels.append("T1")
    if _in_triangle((a, s, p), (0, -2, 1), (1, 0, -1), (-1, 0, -1)):
        labels.append("T2")
    if abs(p - 1.0) <= REAL_TOL and a * a + s * s / 4.0 <= 1.0 + REAL_TOL:
        labels.append("Ell")
    g2 = g2_classify(s, p)
    if g2.in_interior:
        g = s1_surface_value(s, p)
        if -REAL_TOL <= a <= 1.0 + REAL_TOL and abs(a - g) <= REAL_TOL:
            labels.append("S1")
        if -1.0 - REAL_TOL <= a <= REAL_TOL and abs(a + g) <= REAL_TOL:
            labels.append("S2")
    return labels


def s1_c5_match(a: float, s: float, p: float) -> bool:
    """Check the correspondence S1 <-> C5 (and S2 <-> C6) under the
    symmetric embedding (a, s, p) -> (a, s/2, s/2, p)."""
    labels = penta_real_sets(a, s, p)
    q = (a, s / 2.0, s / 2.0, p)
    try:
        faces = face_classify(q)
    except DomainError:
        faces = []
    return (("S1" in labels) == ("C5" in faces)) and \
        (("S2" in labels) == ("C6" in faces))
