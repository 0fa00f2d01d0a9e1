"""Real-coordinate geometry of the hexablock: membership in H with real
coordinates, the concave-candidate potential K and its Hessian probe, the
six boundary faces C1..C6 over the tetrahedron faces D1..D4, the defining
function rho of the non-Levi-flat boundary part of the tetrablock with its
Levi form, and the real pentablock sets T1, T2, E, S1, S2.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DomainError, cx
from .psi import is_triangular, k_star
from .domains import Region, g2_classify, tetra_classify


def _real3(x):
    out = []
    for t in x:
        t = cx(t)
        if abs(t.imag) > 1e-12:
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


def real_h_member(p, tol: float = 1e-9):
    """Membership of H intersect R^4: x in the open tetrahedron and
    |a| < K(x).  Returns (flag, margin)."""
    a = cx(p[0])
    if abs(a.imag) > 1e-12:
        raise DomainError("real-slice routines need real coordinates")
    x = _real3(p[1:])
    mt = real_tetra_margin(x)
    if mt <= tol:
        return False, min(mt, 0.0)
    margin = K_real(x) - abs(a.real)
    return margin > tol, margin


def hessian_probe_K(x, h: float = 1e-3, richardson: bool = True):
    """Central-difference Hessian of K_real at x with a negative-semidefinite
    probe flag.

    Returns (H, eigenvalues, flag).  This is an empirical probe supporting
    the convexity conjecture for the real hexablock, never a proof; callers
    should report its outcome as conjecture-consistent at best.
    """
    x = np.array(_real3(x), dtype=float)
    if real_tetra_margin(x) < 4.0 * h:
        raise DomainError("Hessian probe needs interior margin above 4h")

    def hess(step):
        H = np.zeros((3, 3))
        for i in range(3):
            for j in range(i, 3):
                ei = np.zeros(3)
                ej = np.zeros(3)
                ei[i] = step
                ej[j] = step
                if i == j:
                    v = (K_real(x + ei) - 2.0 * K_real(x) + K_real(x - ei)) / step ** 2
                else:
                    v = (K_real(x + ei + ej) - K_real(x + ei - ej)
                         - K_real(x - ei + ej) + K_real(x - ei - ej)) / (4.0 * step ** 2)
                H[i, j] = H[j, i] = v
        return H

    H = hess(h)
    if richardson:
        H = (4.0 * hess(h / 2.0) - H) / 3.0
    eig = np.linalg.eigvalsh(H)
    return H, eig, bool(np.all(eig <= 1e-4))


def face_classify(p, tol: float = 1e-7):
    """Face labels C1..C6 of a point of the real hexablock boundary.

    C1..C4 attach to the tetrahedron faces D1..D4 and require the psi bound
    to hold; C5 (a in [0,1]) and C6 (a in [-1,0]) sit over the open real
    tetrablock where |a| K*(x) = 1.  Every real boundary point receives at
    least one label; none is an error.
    """
    a = cx(p[0]).real
    x = _real3(p[1:])
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
            sup, _, _ = psi_sup((complex(a), *x), tol=1e-9)
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
    x1, x2, x3 = (cx(t) for t in x)
    beta = 1.0 - abs(x1) ** 2 - abs(x2) ** 2 + abs(x3) ** 2
    w = abs(x1 * x2 - x3)
    if not (max(abs(x1), abs(x2), abs(x3)) < 1.0 and beta > 0.0 and w > 0.0):
        raise DomainError("point outside the chart of the defining function")
    return x1, x2, x3, beta


def rho_value(x) -> float:
    """rho = 4|x1 x2 - x3|^2 - (1 - |x1|^2 - |x2|^2 + |x3|^2)^2 on the chart."""
    x1, x2, x3, beta = _chart_check(x)
    return 4.0 * abs(x1 * x2 - x3) ** 2 - beta * beta


def rho_gradient(x):
    """Holomorphic gradient (d rho/d x1, d rho/d x2, d rho/d x3)."""
    x1, x2, x3, beta = _chart_check(x)
    b = (x1 * x2 - x3).conjugate()
    g1 = 2.0 * x1.conjugate() * beta + 4.0 * x2 * b
    g2 = 2.0 * x2.conjugate() * beta + 4.0 * x1 * b
    g3 = -2.0 * x3.conjugate() * beta - 4.0 * b
    return (g1, g2, g3)


def levi_matrix(x) -> np.ndarray:
    """Hermitian matrix of mixed second derivatives d^2 rho / dx_i d conj(x_j)."""
    x1, x2, x3, _ = _chart_check(x)
    a1, a2, a3 = abs(x1) ** 2, abs(x2) ** 2, abs(x3) ** 2
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
    rho = rho_value(x)
    grad = rho_gradient(x)
    pairing = sum(g * t for g, t in zip(grad, wv))
    L = levi_matrix(x)
    levi = complex(wv @ L @ np.conj(wv))
    return rho, grad, pairing, levi.real


def levi_fd_matrix(x, h: float = 1e-4) -> np.ndarray:
    """Finite-difference mixed Hessian of rho (oracle for levi_matrix).

    Uses the Wirtinger combination of the real 6x6 Hessian computed by
    central differences on the underlying real coordinates.
    """
    x0 = np.array([cx(t) for t in x])

    def rho_of(v6):
        pt = [complex(v6[0], v6[1]), complex(v6[2], v6[3]), complex(v6[4], v6[5])]
        x1, x2, x3 = pt
        beta = 1.0 - abs(x1) ** 2 - abs(x2) ** 2 + abs(x3) ** 2
        return 4.0 * abs(x1 * x2 - x3) ** 2 - beta * beta

    base = np.array([x0[0].real, x0[0].imag, x0[1].real, x0[1].imag,
                     x0[2].real, x0[2].imag])
    Hr = np.zeros((6, 6))
    for i in range(6):
        for j in range(i, 6):
            ei = np.zeros(6)
            ej = np.zeros(6)
            ei[i] = h
            ej[j] = h
            if i == j:
                v = (rho_of(base + ei) - 2.0 * rho_of(base) + rho_of(base - ei)) / h ** 2
            else:
                v = (rho_of(base + ei + ej) - rho_of(base + ei - ej)
                     - rho_of(base - ei + ej) + rho_of(base - ei - ej)) / (4.0 * h ** 2)
            Hr[i, j] = Hr[j, i] = v
    L = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            uu = Hr[2 * i, 2 * j]
            vv = Hr[2 * i + 1, 2 * j + 1]
            uv = Hr[2 * i, 2 * j + 1]
            vu = Hr[2 * i + 1, 2 * j]
            L[i, j] = 0.25 * ((uu + vv) + 1j * (uv - vu))
    return L


def dE_part_classify(x, tol: float = 1e-9):
    """Split a point of dE off the distinguished boundary into the
    triangular part (one coordinate on the circle) or the non-Levi-flat
    hypersurface part, returning normal-form data for the latter.

    Returns ('d3E', None) or ('d2E', params) where params holds the
    rotation angles (alpha, beta), the Blaschke centre x1 and the height r
    with f o tau_{v,chi}(x) = (0, r, 1-r).
    """
    x1, x2, x3 = (cx(t) for t in x)
    v = tetra_classify((x1, x2, x3), tol)
    if v.region is not Region.BOUNDARY:
        raise DomainError("point is not on dE off the distinguished boundary")
    tri = is_triangular((x1, x2, x3), 1e-7)
    pattern = (abs(abs(x1) - 1.0) <= 1e-7) != (abs(abs(x2) - 1.0) <= 1e-7)
    if tri != pattern:
        # the two characterizations coincide; a mismatch is a tolerance clash
        tri = tri or pattern
    if tri:
        return "d3E", None
    y2 = (x2 - x1.conjugate() * x3) / (1.0 - abs(x1) ** 2)
    y3 = (x1 * x2 - x3) / (1.0 - abs(x1) ** 2)
    r = abs(y2)
    alpha = math.atan2(y2.imag, y2.real)
    beta = math.atan2(y3.imag, y3.real) - alpha
    return "d2E", {"alpha": alpha, "beta": beta, "centre": x1, "r": r}


def d2E_normal_form(x):
    """Map a d2E point through the recovered automorphism; lands at (0, r, 1-r)."""
    kind, prm = dE_part_classify(x)
    if kind != "d2E":
        raise DomainError("normal form exists only on the d2E part")
    x1, x2, x3 = (cx(t) for t in x)
    y1 = 0.0
    y2 = (x2 - x1.conjugate() * x3) / (1.0 - abs(x1) ** 2)
    y3 = (x1 * x2 - x3) / (1.0 - abs(x1) ** 2)
    a, b = prm["alpha"], prm["beta"]
    rot = (complex(math.cos(-b), math.sin(-b)) * y1,
           complex(math.cos(-a), math.sin(-a)) * y2,
           complex(math.cos(-(a + b)), math.sin(-(a + b))) * y3)
    return rot


def d3E_approach_sequence(x, steps=(0.9, 0.99, 0.999)):
    """Points of d2E converging to a given d3E point (density probe)."""
    x1, x2, x3 = (cx(t) for t in x)
    if abs(abs(x1) - 1.0) <= 1e-9:
        seq = [((e * x1 + (1 - e) * x1.conjugate() * x3),
                ((1 - e) * x1 + e * x1.conjugate() * x3), x3) for e in steps]
    elif abs(abs(x2) - 1.0) <= 1e-9:
        seq = [(((1 - e) * x2 + e * x2.conjugate() * x3),
                (e * x2 + (1 - e) * x2.conjugate() * x3), x3) for e in steps]
    else:
        raise DomainError("d3E point needs a circle coordinate")
    return seq


# ---------------------------------------------------------------------------
# Real pentablock sets
# ---------------------------------------------------------------------------

def s1_surface_value(s: float, p: float) -> float:
    """|1 - (s^2/2)/((1+p) + sqrt((1+p)^2 - s^2))| - the height of the
    curved faces of the real pentablock."""
    q = (1.0 + p) ** 2 - s * s
    return abs(1.0 - s * s / (2.0 * ((1.0 + p) + math.sqrt(max(q, 0.0)))))


def _in_triangle(q, v1, v2, v3, tol):
    A = np.column_stack([np.array(v2) - np.array(v1), np.array(v3) - np.array(v1)])
    rhs = np.array(q) - np.array(v1)
    sol, res, _, _ = np.linalg.lstsq(A, rhs, rcond=None)
    recon = A @ sol
    if np.max(np.abs(recon - rhs)) > tol:
        return False
    u, v = sol
    return u >= -tol and v >= -tol and u + v <= 1.0 + tol


def penta_real_sets(a: float, s: float, p: float, tol: float = 1e-7):
    """Labels among {T1, T2, Ell, S1, S2} of a real (a, s, p) triple."""
    a, s, p = float(a), float(s), float(p)
    labels = []
    if _in_triangle((a, s, p), (0, 2, 1), (1, 0, -1), (-1, 0, -1), tol):
        labels.append("T1")
    if _in_triangle((a, s, p), (0, -2, 1), (1, 0, -1), (-1, 0, -1), tol):
        labels.append("T2")
    if abs(p - 1.0) <= tol and a * a + s * s / 4.0 <= 1.0 + tol:
        labels.append("Ell")
    g2 = g2_classify(s, p, 1e-9)
    if g2.in_interior:
        g = s1_surface_value(s, p)
        if -tol <= a <= 1.0 + tol and abs(a - g) <= tol:
            labels.append("S1")
        if -1.0 - tol <= a <= tol and abs(a + g) <= tol:
            labels.append("S2")
    return labels


def s1_c5_match(a: float, s: float, p: float, tol: float = 1e-7) -> bool:
    """Check the correspondence S1 <-> C5 (and S2 <-> C6) under the
    symmetric embedding (a, s, p) -> (a, s/2, s/2, p)."""
    labels = penta_real_sets(a, s, p, tol)
    q = (a, s / 2.0, s / 2.0, p)
    try:
        faces = face_classify(q, tol)
    except DomainError:
        faces = []
    return (("S1" in labels) == ("C5" in faces)) and \
        (("S2" in labels) == ("C6" in faces))
