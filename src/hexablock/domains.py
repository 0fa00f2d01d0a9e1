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
from functools import reduce

import numpy as np

from .numerics import (REFUSE_MARGIN, TOL, _TINY, ConsistencyError,
                       DomainError, DiscAut, cx, cx_arrays, cx_coords,
                       _quadratic_roots, stable_quadratic_roots)
from .psi import (_betas_from, _k_star_M, _k_star_of_M, _tetra_terms,
                  _terms_margin, is_triangular)

#: the determinant of the real system s = beta + conj(beta) p
BETA_SINGULAR = 1e-12
#: the denominator of the diamond law
DIAMOND_POLE = 1e-12
#: ||x3| - 1| that takes the tetrablock closure's |x3| = 1 branch; part 7
#: of the interior vote abstains nearer the circle
UNIT_X3_EDGE = 1e-13
#: a margin at or below this is rounding noise and abstains in `_vote` at
#: any tol (16 ulps of 1, 2^-48)
VOTE_FLOOR = 3.552713678800501e-15


class Region(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    DISTINGUISHED_BOUNDARY = "distinguished_boundary"
    EXTERIOR = "exterior_of_closure"


# the members bound once: reading a module-level name is about ten times
# cheaper than reading `Region.X`, so the scalar paths compare with these
_INTERIOR, _BOUNDARY, _DISTINGUISHED, _EXTERIOR = (
    Region.INTERIOR, Region.BOUNDARY, Region.DISTINGUISHED_BOUNDARY,
    Region.EXTERIOR)


@dataclass
class RegionVerdict:
    region: Region
    margins: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    @property
    def in_interior(self) -> bool:
        return self.region is _INTERIOR


def _vote(first, margins: dict, tol: float, what: str, point):
    """Consensus of equivalent criteria, each decided by its margin alone:
    yes above tol, no below -tol, abstain in between (nan abstains), and
    abstain within `VOTE_FLOOR` of zero even when tol is below it.  The
    margins are scalars, or arrays of one shape on which the vote is taken
    point by point.  Where every criterion abstains, the first criterion's
    flag `first` decides: the caller treats that as a boundary-zone call.

    Decisive criteria must agree; a split vote is an internal fault, and
    the `ConsistencyError` names `what`, the first point of the coordinates
    `point` with a split vote, its decisive votes and every margin."""
    ms = margins.values()
    if tol < VOTE_FLOOR:
        tol = VOTE_FLOOR
    if isinstance(first, np.ndarray):
        # fmax and fmin pass over nan
        yes = reduce(np.fmax, ms) > tol
        no = reduce(np.fmin, ms) < -tol
        split = yes & no
        if not split.any():
            return yes | (first > no)
        i = np.unravel_index(np.argmax(split), split.shape)
    else:
        votes = {m > tol for m in ms if abs(m) > tol}
        if len(votes) < 2:
            return votes.pop() if votes else first
        i = ()
    at = tuple(complex(np.asarray(c)[i]) for c in point)
    vals = {k: np.asarray(m)[i] for k, m in margins.items()}
    votes = {k: bool(m > tol) for k, m in vals.items() if abs(m) > tol}
    raise ConsistencyError(
        f"{what} at point {at}: equivalent criteria disagree beyond "
        f"tolerance: {votes} margins={{"
        f"{', '.join(f'{k}: {m:.3e}' for k, m in vals.items())}}}")


# the regions by their codes in `_region`
_CODES = (_BOUNDARY, _INTERIOR, _DISTINGUISHED, _EXTERIOR)
_EXTERIOR_CODE = _CODES.index(_EXTERIOR)
_REGIONS = np.array(_CODES, dtype=object)


def _region(in_closure, on_b, interior):
    """The region decided by the closure, distinguished-boundary and
    interior calls, which take precedence in that order; elementwise, an
    array of region codes (indices into `_CODES`), when the calls are
    arrays."""
    if isinstance(in_closure, np.ndarray):
        return np.where(in_closure, np.where(on_b, 2, np.where(interior, 1, 0)),
                        _EXTERIOR_CODE)
    return _CODES[(2 if on_b else 1 if interior else 0) if in_closure else 3]


# ---------------------------------------------------------------------------
# Symmetrized bidisc
# ---------------------------------------------------------------------------

def _solve_beta(s: complex, p: complex):
    """beta with s = beta + conj(beta) p, or None when the map is singular;
    `g2_classify`'s "beta" witness."""
    # write beta = u + iv; s = beta + conj(beta)p is the real 2x2 system
    # [[a.re, b.re], [a.im, b.im]] (u, v) = (s.re, s.im), solved by Cramer's rule
    a = 1.0 + p
    b = 1j * (1.0 - p)
    det = a.real * b.imag - b.real * a.imag
    if abs(det) < BETA_SINGULAR:
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
    return RegionVerdict(*_g2_verdict(cx(s), cx(p), tol)[:3])


def _g2_verdict(s: complex, p: complex, tol: float):
    """(region, margins, witnesses, terms) of `g2_classify` for coerced
    s, p.  Each quantity is computed once: terms = (|s|, |p|, c, |c|, q,
    |q|) with c = s - conj(s) p and q = s^2 - 4p, from which
    `_bridge_terms` builds the terms of the symmetric point."""
    a_s, a_p = abs(s), abs(p)
    c = s - s.conjugate() * p
    q = s * s - 4.0 * p
    d, e = abs(c), abs(q)
    m2 = (1.0 - a_p ** 2) - d
    m3 = (4.0 - a_s ** 2) - (2.0 * d + e)
    margins = {"sp_vs_p2": m2, "royal": m3}
    beta = _solve_beta(s, p)
    if beta is not None and a_p < 1.0:
        margins["beta"] = 1.0 - abs(beta)
    inside = _vote(m2 > 0.0, margins, tol, "G2 interior", (s, p))

    mc = min(m3, 2.0 - a_s)
    margins["closure"] = mc
    in_closure = mc >= -tol

    mb = -max(abs(a_p - 1.0), d, a_s - 2.0)
    margins["b_gamma"] = mb

    witnesses = {}
    if beta is not None:
        witnesses["beta"] = beta
    l1, l2 = _quadratic_roots(s, p)
    witnesses["eigenvalues"] = (l1, l2)

    region = _region(in_closure, mb >= -tol, inside and mc > tol)
    return region, margins, witnesses, (a_s, a_p, c, d, q, e)


def _bridge_terms(g2_terms):
    """`psi._tetra_terms(s/2, s/2, p)` from the terms of `_g2_verdict`:
    halving and quartering are exact, so away from subnormal values these
    are the same roundings, bit for bit.  Only where s or p has a -0.0
    part may a zero part of c12 or v carry the other sign; the readers of
    the terms take moduli, which it cannot move."""
    a_s, a_p, c, d, q, e = g2_terms
    a1, c12, d12 = 0.5 * a_s, c / 2.0, 0.5 * d
    s1 = a1 ** 2
    return (a1, a1, a_p, s1, s1, a_p ** 2, c12, c12, d12, d12,
            complex(0.25 * q.real, 0.25 * q.imag), 0.25 * e)


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


def _tetra_verdict(x1, x2, x3, tol: float):
    """(region, margins, witnesses, terms) of `tetra_classify` for coerced
    coordinates, with the `psi._tetra_terms` it read: scalars, or arrays
    of one shape, on which every margin, vote and region is elementwise
    and the region is a region code (`_region`).  Part 7 (the beta
    criterion) votes only where 1 - |x3| >= `UNIT_X3_EDGE`, the edge past
    which the closure stops reading it: elsewhere it is left out of the
    margins and witnesses, on arrays it is nan (abstaining), and the beta
    witnesses are not kept on arrays.

    Each quantity shared by several criteria is computed once: c12 =
    x1 - conj(x2) x3 and c21 give d12, d21 and the betas, w = |x1 x2 - x3|
    the triangular guard, g3 = ||x3| - 1| the closure and the
    distinguished boundary."""
    batch = isinstance(x1, np.ndarray)
    lo, hi = (np.minimum, np.maximum) if batch else (min, max)
    point = (x1, x2, x3)
    terms = _tetra_terms(x1, x2, x3)
    a1, a2, a3, s1, s2, s3, c12, c21, d12, d21, _, w = terms
    g3 = abs(a3 - 1.0)
    q8 = 1.0 - s1 - s2 + s3 - 2.0 * w
    below3, den, over2 = 1.0 - a3, 1.0 - s3, a2 - 1.0

    # part 8 needs |x3| < 1 alongside the displayed inequality (the stated
    # triangular guard, `is_triangular`, alone does not exclude e.g.
    # (0, 0, 1.2))
    m8 = lo(q8, below3)
    m8 = _pick(w <= tol * (1.0 + a3), lo(m8, 2.0 - a1 - a2), m8)
    m4 = lo(1.0 + s1 - s2 - s3 - 2.0 * d12, 1.0 - a1)
    m3, m3_flip = _terms_margin(terms), 1.0 - (s2 + d12 + w)
    m5 = den - (d12 + d21)
    margins = {"part3": m3, "part3_flip": m3_flip, "part4": m4, "part5": m5,
               "part8": m8}
    witnesses = {}
    below = below3 >= UNIT_X3_EDGE
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
    inside = _vote(m3 > 0.0, margins, tol, "tetrablock interior", point)

    # the closure: the non-strict beta margin, extended continuously through
    # |x3| = 1, where it forces x1 = conj(x2) x3 (bE directions), and part
    # 4's margin with the non-strict inequality
    mc = _pick(a3 > 1.0, below3,
               _pick(g3 < UNIT_X3_EDGE, -hi(hi(d12, a1 - 1.0), over2), m7))
    margins["closure_beta"] = mc
    margins["closure_part4"] = m4
    in_closure = _vote(mc >= -tol, {"closure_beta": mc, "closure_part4": m4},
                       tol, "tetrablock closure", point)

    # boundary equalities (only meaningful inside the closure): interior
    # margins negated, as 0.0 - m so that an exact zero stays +0.0
    margins["boundary_part2"] = 0.0 - m3_flip
    margins["boundary_part3"] = 0.0 - m3
    margins["boundary_part4"] = q8
    margins["boundary_part5"] = 0.0 - m5

    # part 1 is `bE_margin`; outside the closure part 6 reads -1 and part 1
    # is never positive, so the vote cannot split there (nor does it count)
    mb = -hi(hi(d12, g3), over2)
    mb6 = _pick(in_closure, -g3, -1.0)
    margins["b_tetra_part1"] = mb
    margins["b_tetra_part6"] = mb6
    on_b = _vote(mb >= -tol, {"b_tetra_part1": mb, "b_tetra_part6": mb6}, tol,
                 "tetrablock distinguished boundary", point)
    region = _region(in_closure, on_b, inside & (mc > tol))
    return region, margins, witnesses, terms


def _closure_margin(margins: dict):
    """The tetrablock closure margin, the lesser of the closure_beta and
    closure_part4 margins of a tetrablock verdict: a float on scalar
    margins, an array on arrays."""
    mc, m4 = margins["closure_beta"], margins["closure_part4"]
    return np.minimum(mc, m4) if isinstance(mc, np.ndarray) else min(mc, m4)


def tetra_classify(x, tol: float = TOL) -> RegionVerdict:
    """Classify x = (x1, x2, x3) against the tetrablock E.

    Evaluates the equivalent interior criteria (parts 3, 4, 5, 8 and the
    beta decomposition), the closure criteria, the boundary equalities and
    the distinguished-boundary characterizations, asserting agreement.
    """
    x1, x2, x3 = x
    region, margins, witnesses, _ = _tetra_verdict(cx(x1), cx(x2), cx(x3), tol)
    return RegionVerdict(region, margins, witnesses)


def tetra_classify_batch(x, tol: float = TOL):
    """`tetra_classify` at every point of coordinate arrays that broadcast
    together: (regions, margins), an object array of `Region` members and a
    dict of margin arrays under the scalar keys (part 7 is nan where it
    abstains, 1 - |x3| < `UNIT_X3_EDGE`).  The votes are taken point by
    point; a split vote raises `ConsistencyError` naming the point."""
    region, margins, _, _ = _tetra_verdict(*cx_arrays(x), tol)
    return _REGIONS[region], margins


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
    The symmetric point (s/2, s/2, p) is read from the G2 verdict's
    terms, as the `psi._tetra_terms` of `_bridge_terms`: where its
    interior margin (`psi._terms_margin`) exceeds
    `REFUSE_MARGIN`, the psi_sup criterion is 1 - |a| K* with K* the one
    closed form of `psi._k_star_M`, the hexablock's K* there (c_plus =
    1/K*(s/2, s/2, p), the bridge that the vote checks)."""
    g2_region, g2_margins, witnesses, g2_terms = _g2_verdict(s, p, tol)
    g2_interior = g2_region is _INTERIOR
    _, cp = _penta_radii(*witnesses["eigenvalues"])
    a_a = abs(a)
    m_cp = cp - a_a
    margins = {"c_plus": m_cp, "g2_closure": g2_margins["closure"]}
    criteria = {"c_plus": m_cp}

    # the psi-sup route through the hexablock bridge
    terms = _bridge_terms(g2_terms)
    if _terms_margin(terms) > REFUSE_MARGIN:
        criteria["psi_sup"] = margins["psi_sup"] = \
            1.0 - a_a * _k_star_of_M(_k_star_M(terms)[2])
    inside = g2_interior and _vote(m_cp > 0.0, criteria, tol,
                                   "pentablock interior", (a, s, p))

    m_closure = min(m_cp, g2_margins["closure"])
    margins["closure"] = m_closure
    in_closure = g2_region is not _EXTERIOR and m_cp >= -tol

    # terms[3] = |s|^2/4, exactly
    mb = min(g2_margins["b_gamma"], -abs(a_a ** 2 + terms[3] - 1.0))
    margins["b_penta"] = mb
    region = _region(in_closure, mb >= -tol, inside and m_closure > tol)
    return region, margins, witnesses


# ---------------------------------------------------------------------------
# The diamond action and tau
# ---------------------------------------------------------------------------

def diamond(x, y):
    """x <> y = (x1 - x3 y1, y2 - x2 y3, x1 y2 - x3 y3) / (1 - x2 y1),
    the composition law Psi(., x) o Psi(., y) = Psi(., x <> y)."""
    x1, x2, x3 = (cx(t) for t in x)
    y1, y2, y3 = (cx(t) for t in y)
    den = 1.0 - x2 * y1
    if abs(den) < DIAMOND_POLE:
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


def penta_hn_witness(a: complex, s: complex, p: complex):
    """A point of the open normed hexablock projecting onto (a, s, p) in P.

    Returns (a, s/2, s/2, p) on the c_- < |a| < c_+ branch, otherwise the
    zeta_0-shifted quadruple (a, s/2 + d, s/2 - d, p) with
    d = zeta_0 sqrt(|w|^2 - |a|^2) and w = (l1 - l2)/2.
    """
    a, s, p = cx(a), cx(s), cx(p)
    region, _, witnesses = _penta_verdict(a, s, p, TOL)
    if region is not _INTERIOR:
        raise DomainError("penta_hn_witness needs a point of the open pentablock")
    l1, l2 = witnesses["eigenvalues"]
    cm, cp = _penta_radii(l1, l2)
    if cm < abs(a) < cp:
        return (a, s / 2.0, s / 2.0, p)
    w = (l1 - l2) / 2.0
    if abs(w) < _TINY:
        # c_- = 0 forces a = 0 here; the symmetric point is triangular
        return (a, s / 2.0, s / 2.0, p)
    zeta0 = w / abs(w)
    d = zeta0 * math.sqrt(max(abs(w) ** 2 - abs(a) ** 2, 0.0))
    return (a, s / 2.0 + d, s / 2.0 - d, p)


# ---------------------------------------------------------------------------
# Distinguished-boundary generation for the tetrablock
# ---------------------------------------------------------------------------

def bE_generator_params(x):
    """Normal-form parameters reproducing a distinguished-boundary point.

    Returns ``(kind, xi1, z1, xi2, z2)`` with ``tau_{v, chi}(base) = x`` for
    v = -xi1 B_{z1}, chi = -xi2 B_{-conj(z2)} and base point (1,1,1) when
    ``kind == 'triangular'`` or (0,0,1) otherwise.
    """
    x1, x2, x3 = (cx(t) for t in x)
    if bE_margin(x) < -10 * TOL:
        raise DomainError("not a distinguished-boundary point of E")
    if is_triangular(x):
        return ("triangular", x1 / abs(x1), 0.0 + 0.0j, x2 / abs(x2), 0.0 + 0.0j)
    return ("generic", x3, -x1 * x3.conjugate(), 1.0 + 0.0j, 0.0 + 0.0j)
