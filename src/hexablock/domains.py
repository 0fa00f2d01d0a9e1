"""Classification oracles for the symmetrized bidisc, tetrablock and
pentablock (interior / closure / boundary / distinguished boundary), the
diamond action behind Aut(E), and the embeddings tying everything to the
hexablock.

Every boundary-sensitive predicate works through signed margins; a verdict
is only a thresholding of those margins at the supplied tolerance.  When two
implemented criteria disagree while both margins clear the tolerance, a
`ConsistencyError` is raised: that situation is a bug, not a data problem.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .numerics import (TOL, ConsistencyError, DomainError, DiscAut, cx,
                       cx_arrays, cx_coords, stable_quadratic_roots)
from .psi import _betas_from, _interior_margin, _maximizer, is_triangular


class Region(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    DISTINGUISHED_BOUNDARY = "distinguished_boundary"
    EXTERIOR = "exterior_of_closure"


@dataclass
class RegionVerdict:
    region: Region
    margins: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    @property
    def in_closure(self) -> bool:
        return self.region is not Region.EXTERIOR

    @property
    def in_interior(self) -> bool:
        return self.region is Region.INTERIOR

    @property
    def distinguished(self) -> bool:
        return self.region is Region.DISTINGUISHED_BOUNDARY


def _vote(flags: dict, margins: dict, tol: float, what: str) -> bool:
    """Consensus of equivalent boolean criteria.

    Criteria whose margin is within tol of zero abstain.  Decisive criteria
    must agree; a split vote is an internal fault.
    """
    votes = {}
    for name, flag in flags.items():
        if abs(margins[name]) > tol:
            votes[name] = flag
    if not votes:
        # everything is within tolerance of the boundary: report the flag of
        # the first criterion; caller treats it as a boundary-zone call
        return next(iter(flags.values()))
    vals = set(votes.values())
    if len(vals) > 1:
        raise ConsistencyError(
            f"{what}: equivalent criteria disagree beyond tolerance: {votes} "
            f"margins={{{', '.join(f'{k}: {v:.3e}' for k, v in margins.items())}}}")
    return vals.pop()


def _vote_each(flags: dict, margins: dict, tol: float, what: str, point):
    """`_vote` at every entry of flag and margin arrays; nan margins abstain.
    Each flag must be its margin's sign, m > 0 or m >= -tol: a decisive
    criterion then votes yes where m > tol and no where m < -tol.

    `point` holds the coordinate arrays, named in the `ConsistencyError`
    of the first point with a split vote."""
    margin = np.array(list(margins.values()))
    yes = np.logical_or.reduce(margin > tol)
    no = np.logical_or.reduce(margin < -tol)
    split = yes & no
    if split.any():
        i = np.unravel_index(np.argmax(split), split.shape)
        at = tuple(complex(c[i]) for c in point)
        votes = {k: bool(m[i] > tol) for k, m in margins.items() if abs(m[i]) > tol}
        raise ConsistencyError(
            f"{what} at point {at}: equivalent criteria disagree beyond "
            f"tolerance: {votes} margins={{"
            f"{', '.join(f'{k}: {m[i]:.3e}' for k, m in margins.items())}}}")
    # without a split, a decisive vote is yes or no; else the first flag
    return yes | (next(iter(flags.values())) > no)


# ---------------------------------------------------------------------------
# Symmetrized bidisc
# ---------------------------------------------------------------------------

def solve_beta(s: complex, p: complex):
    """beta with s = beta + conj(beta) p, or None when the map is singular."""
    return _solve_beta(cx(s), cx(p))


def _solve_beta(s: complex, p: complex):
    # write beta = u + iv; s = beta + conj(beta)p is the real 2x2 system
    # [[a.re, b.re], [a.im, b.im]] (u, v) = (s.re, s.im), solved by Cramer's rule
    a = 1.0 + p
    b = 1j * (1.0 - p)
    det = a.real * b.imag - b.real * a.imag
    if abs(det) < 1e-12:
        return None
    return complex((s.real * b.imag - b.real * s.imag) / det,
                   (a.real * s.imag - s.real * a.imag) / det)


def g2_classify(s: complex, p: complex, tol: float = TOL) -> RegionVerdict:
    """Classify (s, p) against the symmetrized bidisc G2.

    Interior criteria: |s - conj(s)p| < 1 - |p|^2;
    2|s - conj(s)p| + |s^2 - 4p| < 4 - |s|^2; and the beta decomposition.
    Closure uses the non-strict forms with |s| <= 2; the distinguished
    boundary needs |p| = 1, s = conj(s) p and |s| <= 2.
    """
    return RegionVerdict(*_g2_verdict(cx(s), cx(p), tol))


def _g2_verdict(s: complex, p: complex, tol: float):
    """(region, margins, witnesses) of `g2_classify` for coerced s, p."""
    sp = abs(s - s.conjugate() * p)
    m2 = (1.0 - abs(p) ** 2) - sp
    m3 = (4.0 - abs(s) ** 2) - (2.0 * sp + abs(s * s - 4.0 * p))
    margins = {"sp_vs_p2": m2, "royal": m3}
    flags = {"sp_vs_p2": m2 > 0.0, "royal": m3 > 0.0}
    beta = _solve_beta(s, p)
    if beta is not None and abs(p) < 1.0:
        m4 = 1.0 - abs(beta)
        margins["beta"] = m4
        flags["beta"] = m4 > 0.0 and abs(p) < 1.0
    inside = _vote(flags, margins, tol, "G2 interior")

    mc = min((4.0 - abs(s) ** 2) - (2.0 * sp + abs(s * s - 4.0 * p)),
             2.0 - abs(s))
    margins["closure"] = mc
    in_closure = mc >= -tol

    mb = -max(abs(abs(p) - 1.0), abs(s - s.conjugate() * p), abs(s) - 2.0)
    margins["b_gamma"] = mb
    on_b = mb >= -tol

    witnesses = {}
    if beta is not None:
        witnesses["beta"] = beta
    l1, l2 = stable_quadratic_roots(s, p)
    witnesses["eigenvalues"] = (l1, l2)

    if not in_closure:
        region = Region.EXTERIOR
    elif on_b:
        region = Region.DISTINGUISHED_BOUNDARY
    elif inside and mc > tol:
        region = Region.INTERIOR
    else:
        region = Region.BOUNDARY
    return region, margins, witnesses


# ---------------------------------------------------------------------------
# Tetrablock
# ---------------------------------------------------------------------------

def bE_margin(x):
    """Signed distance-like margin to the distinguished boundary of E.

    The coordinates may be scalars (the margin is a float) or arrays that
    broadcast together (the margin is an array, elementwise)."""
    return _bE_margin(*cx_coords(x))


def _bE_margin(x1, x2, x3):
    gaps = (abs(x1 - x2.conjugate() * x3), abs(abs(x3) - 1.0), abs(x2) - 1.0)
    if isinstance(x1, np.ndarray):
        return -np.maximum(np.maximum(gaps[0], gaps[1]), gaps[2])
    return -max(gaps)


def _pick(cond, if_true, if_false):
    """`if_true if cond else if_false`, elementwise when cond is an array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, if_true, if_false)
    return if_true if cond else if_false


# regions by the codes of `_tetra_verdict` on arrays
_REGIONS = np.array([Region.BOUNDARY, Region.INTERIOR,
                     Region.DISTINGUISHED_BOUNDARY, Region.EXTERIOR], dtype=object)


def _tetra_verdict(x1, x2, x3, tol: float):
    """(region, margins, witnesses) of `tetra_classify` for coerced
    coordinates: scalars, or arrays of one shape, on which every margin,
    vote and region is elementwise.  On arrays part 7 is nan (abstaining)
    where |x3| >= 1 and the beta witnesses are not kept.

    Each quantity shared by several criteria is computed once: c12 =
    x1 - conj(x2) x3 and c21 give d12, d21 and the betas, w = |x1 x2 - x3|
    the triangular guard, g3 = ||x3| - 1| the closure and the
    distinguished boundary."""
    batch = isinstance(x1, np.ndarray)
    lo, hi = (np.minimum, np.maximum) if batch else (min, max)
    vote = partial(_vote_each, point=(x1, x2, x3)) if batch else _vote
    a1, a2, a3 = abs(x1), abs(x2), abs(x3)
    s1, s2, s3 = a1 ** 2, a2 ** 2, a3 ** 2
    c12 = x1 - x2.conjugate() * x3
    c21 = x2 - x1.conjugate() * x3
    d12, d21 = abs(c12), abs(c21)
    w = abs(x1 * x2 - x3)
    g3 = abs(a3 - 1.0)
    q8 = 1.0 - s1 - s2 + s3 - 2.0 * w
    below3, den, over2 = 1.0 - a3, 1.0 - s3, a2 - 1.0

    # part 8 needs |x3| < 1 alongside the displayed inequality (the stated
    # triangular guard, `is_triangular`, alone does not exclude e.g.
    # (0, 0, 1.2))
    m8 = lo(q8, below3)
    m8 = _pick(w <= tol * (1.0 + a3), lo(m8, 2.0 - a1 - a2), m8)
    m4 = lo(1.0 + s1 - s2 - s3 - 2.0 * d12, 1.0 - a1)
    m3, m3_flip = 1.0 - (s1 + d21 + w), 1.0 - (s2 + d12 + w)
    m5 = den - (d12 + d21)
    margins = {"part3": m3, "part3_flip": m3_flip, "part4": m4, "part5": m5,
               "part8": m8}
    witnesses = {}
    below = a3 < 1.0
    if batch:
        b1, b2 = _betas_from(c12, c21, np.where(below, den, 1.0))
        m7 = margins["part7"] = np.where(below, 1.0 - (abs(b1) + abs(b2)), np.nan)
    elif below:
        b1, b2 = _betas_from(c12, c21, den)
        m7 = margins["part7"] = 1.0 - (abs(b1) + abs(b2))
        witnesses["beta1"] = b1
        witnesses["beta2"] = b2
    else:
        m7 = math.nan
    inside = vote({k: v > 0.0 for k, v in margins.items()}, margins, tol,
                  "tetrablock interior")

    # the closure: the non-strict beta margin, extended continuously through
    # |x3| = 1, where it forces x1 = conj(x2) x3 (bE directions), and part
    # 4's margin with the non-strict inequality
    mc = _pick(a3 > 1.0, below3,
               _pick(g3 < 1e-13, -hi(hi(d12, a1 - 1.0), over2), m7))
    margins["closure_beta"] = mc
    margins["closure_part4"] = m4
    in_closure = vote({"closure_beta": mc >= -tol, "closure_part4": m4 >= -tol},
                      {"closure_beta": mc, "closure_part4": m4},
                      tol, "tetrablock closure")

    # boundary equalities (only meaningful inside the closure): interior
    # margins negated, as 0.0 - m so that an exact zero stays +0.0
    margins["boundary_part2"] = 0.0 - m3_flip
    margins["boundary_part3"] = 0.0 - m3
    margins["boundary_part4"] = q8
    margins["boundary_part5"] = 0.0 - m5

    # part 1 is `bE_margin`; outside the closure part 6 reads -1 and part 1
    # is never positive, so the vote cannot split there
    mb = -hi(hi(d12, g3), over2)
    mb6 = _pick(in_closure, -g3, -1.0)
    margins["b_tetra_part1"] = mb
    margins["b_tetra_part6"] = mb6
    on_b = in_closure & vote(
        {"b_tetra_part1": mb >= -tol, "b_tetra_part6": mb6 >= -tol},
        {"b_tetra_part1": mb, "b_tetra_part6": mb6}, tol,
        "tetrablock distinguished boundary")

    interior = inside & (mc > tol)
    if batch:
        region = _REGIONS[np.where(in_closure,
                                   np.where(on_b, 2, np.where(interior, 1, 0)), 3)]
    elif not in_closure:
        region = Region.EXTERIOR
    elif on_b:
        region = Region.DISTINGUISHED_BOUNDARY
    elif interior:
        region = Region.INTERIOR
    else:
        region = Region.BOUNDARY
    return region, margins, witnesses


def tetra_classify(x, tol: float = TOL) -> RegionVerdict:
    """Classify x = (x1, x2, x3) against the tetrablock E.

    Evaluates the equivalent interior criteria (parts 3, 4, 5, 8 and the
    beta decomposition), the closure criteria, the boundary equalities and
    the distinguished-boundary characterizations, asserting agreement.
    """
    x1, x2, x3 = x
    return RegionVerdict(*_tetra_verdict(cx(x1), cx(x2), cx(x3), tol))


def tetra_classify_batch(x, tol: float = TOL):
    """`tetra_classify` at every point of coordinate arrays that broadcast
    together: (regions, margins), an object array of `Region` members and a
    dict of margin arrays under the scalar keys (part 7 is nan where
    |x3| >= 1).  The votes are taken point by point; a split vote raises
    `ConsistencyError` naming the point."""
    region, margins, _ = _tetra_verdict(*cx_arrays(x), tol)
    return region, margins


# ---------------------------------------------------------------------------
# Pentablock
# ---------------------------------------------------------------------------

def penta_radii(s: complex, p: complex) -> tuple[float, float]:
    """(c_minus, c_plus) = |1 - conj(l2) l1|/2 -/+ sqrt((1-|l1|^2)(1-|l2|^2))/2
    for the roots l1, l2 of t^2 - s t + p."""
    return _penta_radii(*stable_quadratic_roots(s, p))


def _penta_radii(l1: complex, l2: complex) -> tuple[float, float]:
    prod = (1.0 - abs(l1) ** 2) * (1.0 - abs(l2) ** 2)
    mid = 0.5 * abs(1.0 - l2.conjugate() * l1)
    half = 0.5 * math.sqrt(max(prod, 0.0))
    return mid - half, mid + half


def penta_classify(a: complex, s: complex, p: complex,
                   tol: float = TOL) -> RegionVerdict:
    """Classify (a, s, p) against the pentablock P.

    Interior: (s, p) in G2 and |a| below the closed-form bound c_plus; the
    same supremum is recomputed through the symmetric hexablock embedding
    psi_z(a, s, p) = psi_{z,z}(a, s/2, s/2, p) and the two routes must agree.
    Distinguished boundary: (s, p) in b Gamma and |a|^2 + |s|^2/4 = 1.
    """
    return RegionVerdict(*_penta_verdict(cx(a), cx(s), cx(p), tol))


def _penta_verdict(a: complex, s: complex, p: complex, tol: float):
    """(region, margins, witnesses) of `penta_classify` for coerced
    a, s, p.  c_plus comes from the roots in the G2 verdict's witnesses.
    The interior margin of the symmetric point (s/2, s/2, p) is taken
    once; where it exceeds the maximizer's refusal margin 1e-9, K* comes
    from the maximizer's core."""
    g2_region, g2_margins, witnesses = _g2_verdict(s, p, tol)
    g2_interior = g2_region is Region.INTERIOR
    _, cp = _penta_radii(*witnesses["eigenvalues"])
    a_a = abs(a)
    m_cp = cp - a_a
    margins = {"c_plus": m_cp, "g2_closure": g2_margins["closure"]}
    flags = {"c_plus": g2_interior and m_cp > 0.0}

    # the psi-sup route through the hexablock bridge
    h = s / 2.0
    if _interior_margin(h, h, p) > 1e-9:
        m_sup = 1.0 - a_a * _maximizer(h, h, p).k_star
        margins["psi_sup"] = m_sup
        flags["psi_sup"] = g2_interior and m_sup > 0.0
    inside = _vote(flags, margins, tol, "pentablock interior")

    m_closure = min(m_cp, g2_margins["closure"])
    margins["closure"] = m_closure
    in_closure = g2_region is not Region.EXTERIOR and m_cp >= -tol

    mb = min(g2_margins["b_gamma"],
             -abs(a_a ** 2 + abs(s) ** 2 / 4.0 - 1.0))
    margins["b_penta"] = mb
    on_b = in_closure and mb >= -tol

    if not in_closure:
        region = Region.EXTERIOR
    elif on_b:
        region = Region.DISTINGUISHED_BOUNDARY
    elif inside and m_closure > tol and g2_interior:
        region = Region.INTERIOR
    else:
        region = Region.BOUNDARY
    return region, margins, witnesses


# ---------------------------------------------------------------------------
# The diamond action and tau
# ---------------------------------------------------------------------------

def diamond(x, y, tol: float = 1e-12):
    """x <> y = (x1 - x3 y1, y2 - x2 y3, x1 y2 - x3 y3) / (1 - x2 y1),
    the composition law Psi(., x) o Psi(., y) = Psi(., x <> y)."""
    x1, x2, x3 = (cx(t) for t in x)
    y1, y2, y3 = (cx(t) for t in y)
    den = 1.0 - x2 * y1
    if abs(den) < max(tol, 1e-14):
        raise DomainError("diamond singularity: x2*y1 = 1")
    return ((x1 - x3 * y1) / den, (y2 - x2 * y3) / den,
            (x1 * y2 - x3 * y3) / den)


def tau_of(v: DiscAut):
    """tau(v) = (omega*alpha, conj(alpha), omega) for v = omega*B_alpha;
    lies in the closed tetrablock and satisfies v = Psi(., tau(v))."""
    return (v.xi * v.z, v.z.conjugate(), v.xi)


# ---------------------------------------------------------------------------
# Embeddings and retractions
# ---------------------------------------------------------------------------

def embed_biball(a: complex, x: complex):
    return (cx(a), cx(x), 0.0 + 0.0j, 0.0 + 0.0j)


def embed_g2(s: complex, p: complex):
    s, p = cx(s), cx(p)
    return (0.0 + 0.0j, s / 2.0, s / 2.0, p)


def embed_tetra(x):
    x1, x2, x3 = (cx(t) for t in x)
    return (0.0 + 0.0j, x1, x2, x3)


def embed_penta(a: complex, s: complex, p: complex):
    a, s, p = cx(a), cx(s), cx(p)
    return (a, s / 2.0, s / 2.0, p)


def retract_g2(q):
    _, x1, x2, x3 = (cx(t) for t in q)
    return (x1 + x2, x3)


def retract_tetra(q):
    return tuple(cx(t) for t in q[1:])


def retract_penta(q):
    a, x1, x2, x3 = (cx(t) for t in q)
    return (a, x1 + x2, x3)


def penta_hn_witness(a: complex, s: complex, p: complex, tol: float = TOL):
    """A point of the open normed hexablock projecting onto (a, s, p) in P.

    Returns (a, s/2, s/2, p) on the c_- < |a| < c_+ branch, otherwise the
    zeta_0-shifted quadruple (a, s/2 + d, s/2 - d, p) with
    d = zeta_0 sqrt(|w|^2 - |a|^2) and w = (l1 - l2)/2.
    """
    a, s, p = cx(a), cx(s), cx(p)
    region, _, witnesses = _penta_verdict(a, s, p, tol)
    if region is not Region.INTERIOR:
        raise DomainError("penta_hn_witness needs a point of the open pentablock")
    l1, l2 = witnesses["eigenvalues"]
    cm, cp = _penta_radii(l1, l2)
    if cm < abs(a) < cp:
        return (a, s / 2.0, s / 2.0, p)
    w = (l1 - l2) / 2.0
    if abs(w) < 1e-14:
        # c_- = 0 forces a = 0 here; the symmetric point is triangular
        return (a, s / 2.0, s / 2.0, p)
    zeta0 = w / abs(w)
    d = zeta0 * math.sqrt(max(abs(w) ** 2 - abs(a) ** 2, 0.0))
    return (a, s / 2.0 + d, s / 2.0 - d, p)


# ---------------------------------------------------------------------------
# Distinguished-boundary generation for the tetrablock
# ---------------------------------------------------------------------------

def bE_generator_params(x, tol: float = 1e-9):
    """Normal-form parameters reproducing a distinguished-boundary point.

    Returns ``(kind, xi1, z1, xi2, z2)`` with ``tau_{v, chi}(base) = x`` for
    v = -xi1 B_{z1}, chi = -xi2 B_{-conj(z2)} and base point (1,1,1) when
    ``kind == 'triangular'`` or (0,0,1) otherwise.
    """
    x1, x2, x3 = (cx(t) for t in x)
    if bE_margin(x) < -10 * tol:
        raise DomainError("not a distinguished-boundary point of E")
    if is_triangular(x, tol):
        return ("triangular", x1 / abs(x1), 0.0 + 0.0j, x2 / abs(x2), 0.0 + 0.0j)
    return ("generic", x3, -x1 * x3.conjugate(), 1.0 + 0.0j, 0.0 + 0.0j)
