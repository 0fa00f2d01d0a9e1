"""Independent brute-force references: grid suprema of |psi|, the
definitional tetrablock test, a sweep-based structured singular value, and
the finite-difference Levi form of the defining function rho.

The grid and sweep oracles deliberately share no code path with the
closed-form implementations they are used to test; all grids are
deterministic functions of a GridSpec.  They share their grid mechanics:
`_polar` grids, `_box` refinement boxes, `_at` to read an extremum and its
point, `_lower` to keep the lower of two, and `_on_curve` for the
determinant curve.  Each oracle keeps its own refinement policy (box size,
shrink factor, projection, when the centre moves), since changing any of
them changes that oracle's output.  `levi_fd_matrix` differentiates
the library's own D (`psi._k_star_M`) by finite differences, so it checks
only the exact derivatives of `realslice`, not D itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Mat2, cx, op_norm
from .psi import _k_star_M, _tetra_terms

#: Step of the central differences in `levi_fd_matrix`.
LEVI_FD_STEP = 1e-4


@dataclass(frozen=True)
class GridSpec:
    radial_points: int = 14
    angular_points: int = 28
    refinement_levels: int = 3


def _polar(radii: np.ndarray, n_angles: int) -> np.ndarray:
    """Every radius times every one of n_angles equally spaced unit points,
    radius-major."""
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _box(b1: complex, b2: complex, window: float, n: int):
    """The n^4 refinement grid around (b1, b2): n-point real and imaginary
    offsets in [-window, window] for each coordinate."""
    off = np.linspace(-window, window, n)
    g1 = b1 + off[:, None, None, None] + 1j * off[None, :, None, None]
    g2 = b2 + off[None, None, :, None] + 1j * off[None, None, None, :]
    return g1, g2


def _at(vals: np.ndarray, g1, g2, flat: int):
    """(value, z1, z2) at flat index `flat` of vals, evaluated on the grids
    g1, g2 broadcast to its shape."""
    idx = np.unravel_index(flat, vals.shape)
    return (float(vals.ravel()[flat]),
            complex(np.broadcast_to(g1, vals.shape)[idx]),
            complex(np.broadcast_to(g2, vals.shape)[idx]))


def _lower(best, cand):
    """The (value, z1, z2) with the lower value; the incumbent on ties."""
    return cand if cand[0] < best[0] else best


def _on_curve(ring: np.ndarray, first: bool, a11, a22, dA):
    """(z1, z2) on the curve 1 - a11 z1 - a22 z2 + dA z1 z2 = 0: z2 on ring
    and z1 solved linearly if `first`, else the other way round; ring
    points where the solve degenerates are dropped."""
    num = 1.0 - (a22 if first else a11) * ring
    den = (a11 - dA * ring) if first else (a22 - dA * ring)
    ok = np.abs(den) > 1e-13
    other = num[ok] / den[ok]
    return (other, ring[ok]) if first else (ring[ok], other)


def disc_grid(spec: GridSpec, rmax: float = 0.995) -> np.ndarray:
    """Deterministic polar grid of the disc of radius rmax, centre included."""
    radii = np.linspace(0.0, rmax, spec.radial_points + 1)[1:]
    return np.concatenate([[0.0 + 0.0j], _polar(radii, spec.angular_points)])


def _kappa_abs(z1: np.ndarray, z2: np.ndarray, x) -> np.ndarray:
    x1, x2, x3 = (cx(t) for t in x)
    t1 = 1.0 - np.abs(z1) ** 2
    t2 = 1.0 - np.abs(z2) ** 2
    ok = (t1 > 0.0) & (t2 > 0.0)
    den = 1.0 - x1 * z1 - x2 * z2 + x3 * z1 * z2
    out = np.zeros(np.broadcast(z1, z2).shape)
    np.divide(np.sqrt(np.clip(t1 * t2, 0.0, None)), np.abs(den),
              out=out, where=ok & (np.abs(den) > 1e-300))
    return out


def _golden_min(f, a: float, b: float, iters: int) -> float:
    """Midpoint of the bracket left by `iters` golden-section steps
    minimizing f on [a, b]."""
    gold = 0.5 * (math.sqrt(5.0) - 1.0)
    c = b - gold * (b - a)
    d = a + gold * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gold * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gold * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _corner_fan(x):
    """Best |kappa| along approach fans into torus zeros of the denominator.

    On the boundary of the tetrablock the supremum can be a limit at a
    point of the torus where 1 - x1 z1 - x2 z2 + x3 z1 z2 vanishes; plain
    product grids converge to such corner values only at a square-root
    rate.  This scans the torus for zeros, then sweeps z = w(1 - d e^(i p))
    fans over log-spaced depths, depth ratios and small phases, polishing
    the depth ratio by golden section (the phase dependence is flat to
    second order at the optimum).
    """
    x1, x2, x3 = (cx(t) for t in x)

    def pair_of(theta):
        u1 = complex(math.cos(theta), math.sin(theta))
        den = x2 - x3 * u1
        if abs(den) < 1e-12:
            return u1, None, math.inf
        u2 = (1.0 - x1 * u1) / den
        return u1, u2, abs(abs(u2) - 1.0)

    th = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    step = th[1]
    w1 = np.exp(1j * th)
    den = x2 - x3 * w1
    ok = np.abs(den) > 1e-12
    w2 = np.full(w1.shape, np.inf, dtype=complex)
    w2[ok] = (1.0 - x1 * w1[ok]) / den[ok]
    gap = np.abs(np.abs(w2) - 1.0)
    # u2 runs over a circle, the Moebius image of the torus, which meets
    # the torus at most twice, so the gap has few local minima; each is
    # refined, however large its sampled gap: near |x1| = 1 the zero falls
    # between samples whose gaps are well above zero
    local_min = (gap <= np.roll(gap, 1)) & (gap <= np.roll(gap, -1))
    corners = []
    for k in np.nonzero(local_min & ok)[0]:
        # golden refinement of the torus zero (the gap typically touches
        # zero tangentially, so sign-based bisection does not apply)
        theta = _golden_min(lambda t: pair_of(t)[2], float(th[k]) - step,
                            float(th[k]) + step, 60)
        c1, c2, residual = pair_of(theta)
        if c2 is None or residual > 1e-8:
            continue
        c2 /= abs(c2)
        if all(abs(c1 - e1) + abs(c2 - e2) > 1e-3 for e1, e2 in corners):
            corners.append((c1, c2))
        if len(corners) >= 16:
            break
    best = 0.0
    arg = None
    phases = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    ratios = np.geomspace(1e-3, 1e3, 241)
    for c1, c2 in corners:
        for d2 in np.geomspace(1e-8, 3e-2, 12):
            d1 = np.clip(ratios * d2, 1e-14, 0.5)
            z1 = c1 * (1.0 - d1[:, None, None]
                       * np.exp(1j * phases)[None, :, None])
            z2 = c2 * (1.0 - d2 * np.exp(1j * phases)[None, None, :])
            vals = _kappa_abs(z1, z2, x)
            cand, f1, f2 = _at(vals, z1, z2, int(np.argmax(vals)))
            if cand > best:
                best, arg = cand, (f1, f2)
        # golden-section polish of the depth ratio d1/d2 = exp(lt); their
        # geometric mean balances O(d) truncation against O(eps/d)
        # cancellation noise

        def depths(lt):
            return 1e-8 * math.exp(0.5 * lt), 1e-8 * math.exp(-0.5 * lt)

        def fval(lt):
            d1, d2 = depths(lt)
            if max(d1, d2) >= 0.5:
                return 0.0
            return float(_kappa_abs(np.array(c1 * (1.0 - d1)),
                                    np.array(c2 * (1.0 - d2)), x))

        lt = _golden_min(lambda t: -fval(t), math.log(1e-6), math.log(1e6), 80)
        cand = fval(lt)
        if cand > best:
            best = cand
            d1, d2 = depths(lt)
            arg = (complex(c1 * (1.0 - d1)), complex(c2 * (1.0 - d2)))
    return best, arg


def grid_sup_kappa(x, spec: GridSpec = GridSpec()):
    """(sup estimate, argmax) of |kappa(., x)| over the open bidisc.

    A polar product grid is refined around the running argmax for
    `refinement_levels` rounds; the estimate is monotone non-decreasing in
    the refinement level by construction (the incumbent stays a candidate).
    Corner fans into torus zeros of the denominator capture boundary-limit
    suprema that product grids approach too slowly.  Ties break toward the
    lexicographically first grid index.
    """
    pts = disc_grid(spec)
    Z1 = pts[:, None]
    Z2 = pts[None, :]
    vals = _kappa_abs(Z1, Z2, x)
    best, b1, b2 = _at(vals, Z1, Z2, int(np.argmax(vals)))

    spacing = 1.0 / max(spec.radial_points, 1)
    window = 2.5 * spacing
    for _ in range(spec.refinement_levels):
        g1, g2 = _box(b1, b2, window, 11)
        r1 = np.maximum(np.abs(g1), 1e-300)
        r2 = np.maximum(np.abs(g2), 1e-300)
        g1 = np.where(r1 >= 1.0, g1 / r1 * 0.999999, g1)
        g2 = np.where(r2 >= 1.0, g2 / r2 * 0.999999, g2)
        vals = _kappa_abs(g1, g2, x)
        # the sup estimate is monotone; the centre always follows the
        # finer grid's argmax, which tracks the flat top better
        cand, b1, b2 = _at(vals, g1, g2, int(np.argmax(vals)))
        best = max(best, cand)
        window *= 0.20
    corner, corner_arg = _corner_fan(x)
    if corner > best and corner_arg is not None:
        best = corner
        b1, b2 = corner_arg
    return best, (b1, b2)


def grid_sup_psi(p, spec: GridSpec = GridSpec()):
    """(sup estimate, argmax) of |psi_{z1,z2}(p)| over the open bidisc."""
    a = abs(cx(p[0]))
    sup, arg = grid_sup_kappa(p[1:], spec)
    return a * sup, arg


def tetra_definitional(x, spec: GridSpec = GridSpec(), tol: float = 1e-9):
    """Definitional tetrablock probe: minimum of |1 - x1 z1 - x2 z2 + x3 z1 z2|
    over a closed-bidisc grid.

    Returns (candidate_flag, min_abs).  A positive minimum on a finite grid
    only *suggests* closure membership; a small minimum robustly certifies
    non-membership, which is what the cross-checks rely on.
    """
    x1, x2, x3 = (cx(t) for t in x)
    pts = disc_grid(spec, rmax=1.0)
    Z1 = pts[:, None]
    Z2 = pts[None, :]
    den = np.abs(1.0 - x1 * Z1 - x2 * Z2 + x3 * Z1 * Z2)
    best = _at(den, Z1, Z2, int(np.argmin(den)))

    spacing = 1.0 / max(spec.radial_points, 1)
    window = 2.5 * spacing
    for _ in range(spec.refinement_levels):
        g1, g2 = _box(best[1], best[2], window, 9)
        r1 = np.maximum(np.abs(g1), 1e-300)
        r2 = np.maximum(np.abs(g2), 1e-300)
        g1 = np.where(r1 > 1.0, g1 / r1, g1)
        g2 = np.where(r2 > 1.0, g2 / r2, g2)
        den = np.abs(1.0 - x1 * g1 - x2 * g2 + x3 * g1 * g2)
        best = _lower(best, _at(den, g1, g2, int(np.argmin(den))))
        window *= 0.28
    return best[0] > tol, best[0]


def _tri_norms(z1: np.ndarray, z2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Operator norms of [[z1, w], [0, z2]], vectorized closed form."""
    f = np.abs(z1) ** 2 + np.abs(z2) ** 2 + np.abs(w) ** 2
    d = np.abs(z1 * z2)
    disc = np.clip(f * f - 4.0 * d * d, 0.0, None)
    return np.sqrt(0.5 * (f + np.sqrt(disc)))


def mu_bruteforce(A: Mat2, spec: GridSpec = GridSpec()) -> float:
    """Structured singular value for the upper-triangular structure by sweep.

    For X = [[z1, w], [0, z2]], det(I - AX) = 0 is linear in w whenever
    a21 != 0, so the sweep ranges over (z1, z2), solves for w, evaluates
    ||X|| by the closed 2x2 form and returns 1/min.  The search radius
    1/|a21| is valid because X(0, 0) already has norm 1/|a21|.  When
    a21 = 0 the determinant no longer involves w, and the zero set is the
    curve 1 - a11 z1 - a22 z2 + det(A) z1 z2 = 0 swept with w = 0.

    Returns 0 when no structured X with det(I - AX) = 0 exists.
    """
    a21 = A.a21
    a11, a22, dA = A.a11, A.a22, A.det

    if abs(a21) > 1e-13:

        def cost(Z1, Z2):
            W = (1.0 - a11 * Z1 - a22 * Z2 + dA * Z1 * Z2) / a21
            return _tri_norms(Z1, Z2, W)

        def sweep(R, fine=False):
            # linear radii resolve the target scale, log radii bridge the
            # gap when the initial radius overshoots by orders of magnitude
            mult = 2 if fine else 1
            lin = np.linspace(0.0, R, mult * spec.radial_points + 1)[1:]
            logr = np.geomspace(R * 1e-3, R, spec.radial_points // 2)
            radii = np.unique(np.concatenate([lin, logr]))
            pts = np.concatenate([[0.0 + 0.0j],
                                  _polar(radii, mult * spec.angular_points)])
            vals = cost(pts[:, None], pts[None, :])
            return _at(vals, pts[:, None], pts[None, :], int(np.argmin(vals)))

        def curve_candidates(R):
            # the determinant curve w = 0 is a thin valley of the sweep cost
            # when |a21| is small; parametrize it directly.  ||X|| >= 1/||A||
            # for any feasible X, giving a rigorous radial floor.
            floor = 0.5 / max(op_norm(A), 1e-13)
            radii = np.geomspace(min(floor, R), R,
                                 8 * spec.radial_points)
            ring = _polar(radii, 4 * spec.angular_points)
            best_c = (math.inf, 0.0 + 0.0j, 0.0 + 0.0j)
            for first in (True, False):
                z1, z2 = _on_curve(ring, first, a11, a22, dA)
                if z1.size:
                    vals = cost(z1, z2)
                    best_c = _lower(best_c,
                                    _at(vals, z1, z2, int(np.argmin(vals))))
            return best_c

        # X(0, 0) is feasible with norm 1/|a21|, so the minimizer satisfies
        # max(|z1|, |z2|) <= ||X|| <= incumbent; shrinking the sweep radius
        # to the running best concentrates resolution where it matters.
        # best is (min ||X||, z1, z2).
        R = 1.0001 / abs(a21)
        best = _lower(sweep(R), curve_candidates(R))
        for _ in range(10):
            R_new = min(R, 1.02 * best[0])
            if R_new > 0.9 * R:
                break
            R = R_new
            best = _lower(best, sweep(R))
        best = _lower(best, sweep(min(R, 1.02 * best[0]), fine=True))
        best = _lower(best, curve_candidates(min(R, 1.02 * best[0])))

        window = max(2.5 * best[0] / max(2 * spec.radial_points, 1), 1e-9)
        for _ in range(max(spec.refinement_levels, 3) + 5):
            g1, g2 = _box(best[1], best[2], window, 9)
            vals = cost(g1, g2)
            best = _lower(best, _at(vals, g1, g2, int(np.argmin(vals))))
            window *= 0.35
        return 1.0 / best[0] if best[0] > 1e-13 else 0.0

    # a21 = 0: minimize max(|z1|, |z2|) on the determinant curve, w = 0

    def curve_min(ring, first):
        # fix one coordinate on ring, solve the other linearly
        z1, z2 = _on_curve(ring, first, a11, a22, dA)
        return float(np.min(np.maximum(np.abs(z1), np.abs(z2)),
                            initial=math.inf))

    best = math.inf
    R = 1.0e3
    radii = np.linspace(0.0, R, 4 * spec.radial_points + 1)[1:]
    pts = np.concatenate([[0.0 + 0.0j],
                          _polar(radii, 2 * spec.angular_points)])
    for first in (True, False):
        best = min(best, curve_min(pts, first))
    if not math.isfinite(best) or best > R:
        return 0.0
    # local refinement on the better parametrization
    circle = np.exp(1j * np.linspace(0, 2 * math.pi, 720, endpoint=False))
    for _ in range(40):
        shrunk = False
        for first in (True, False):
            m = curve_min(best * circle, first)
            if m < best * (1.0 - 1e-6):
                best = m
                shrunk = True
        if not shrunk:
            break
    return 1.0 / best if best > 1e-13 else 0.0


def levi_fd_matrix(x) -> np.ndarray:
    """Finite-difference mixed Hessian d^2 rho / dx_i d conj(x_j) of rho = -D
    (`psi._k_star_M`), the reference for `realslice.levi_matrix`: central
    differences on the six real coordinates, at x +/- (h/2)(e_i +/- e_j)
    for h = `LEVI_FD_STEP`, combined by the Wirtinger rule."""
    base = np.array([c for t in x for c in (cx(t).real, cx(t).imag)])

    def rho(e):
        u = base + e
        return -_k_star_M(_tetra_terms(*map(complex, u[0::2], u[1::2])))[1]

    E = 0.5 * LEVI_FD_STEP * np.eye(6)
    Hr = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            s, t = E[i] + E[j], E[i] - E[j]
            Hr[i, j] = Hr[j, i] = ((rho(s) - rho(t) - rho(-t) + rho(-s))
                                   / LEVI_FD_STEP ** 2)
    return 0.25 * (Hr[0::2, 0::2] + Hr[1::2, 1::2]
                   + 1j * (Hr[0::2, 1::2] - Hr[1::2, 0::2]))
