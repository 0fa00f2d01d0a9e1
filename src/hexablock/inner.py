"""Rational inner functions into the closed tetrablock and hexablock,
their construction through spectral factorization, rational inner-outer
splitting, and the constructive two-point Schwarz interpolation for the
hexablock and the pentablock.

Data model: a tetrablock inner function is the triple of polynomials
(E1, E2, D) with declared bound n, evaluating to (E1/D, E2/D, D~n/D); a
hexablock inner function adds the outer numerator A, a Blaschke product B
and a unimodular constant c, with first component c*B*A/D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import (CIRCLE_EDGE, TOL, _FR_CIRCLE, BlaschkeProduct,
                       ConsistencyError, DomainError, Poly, PowerTable, _frozen,
                       cx, cx_arrays, cx_from_json, fejer_riesz, poly_abs2_trig,
                       trig_sub)
from .psi import _tetra_terms, k_star
from .domains import _bE_margin, _closure_margin, _tetra_verdict
from .hexa import _closed_member, _h_closure_arrays, h_member

#: the inner-function validation reports
INNER_TOL = 1e-6
#: the negativity `hexa_inner_construct` allows |D|^2 - |E1|^2
INNER_FR_TOL = 1e-7
#: `SchwarzProblem`'s open-hexablock check on its target
SCHWARZ_TARGET_TOL = 1e-12
#: a complex scalar with no phase to take (outer part, target)
PHASE_ZERO = 1e-13
#: |D| on the closed disc (and a denominator there) that counts as a zero
INNER_D_ZERO = 1e-9
#: |D|^2 - |E1|^2 that is identically zero (A = 0), relative to |D|^2
INNER_A_ZERO = 1e-12
#: `_interp_zero_blaschke`: |ratio| = 1, a rotation
UNIMODULAR_EDGE = 1e-10
#: the Schwarz construction's cases |x3| = |lambda0|, x1 = x2 = 0 and
#: x1 x2 = x3, and its reach |a| <= |lambda0| |A/D|(lambda0)
SCHWARZ_EDGE = 1e-9
#: the Schwarz construction's case a = 0 on triangular targets
SCHWARZ_A_ZERO = 1e-12
#: the reflection identity E1 = E2~n, relative
INNER_REFL_SLACK = 1e-9
#: disc images of a hexablock inner function outside the closure
INNER_CLOSURE_SLACK = 1e-8
#: rational data above modulus 1 on the closed disc
INNER_BOUND_SLACK = 1e-7
#: an interpolation value outside the closed disc
INNER_DISC_SLACK = 1e-12
#: E1 = E2 of symmetric (pentablock) inner data
SYMMETRY_SLACK = 1e-9
#: the phase alignment E1 = E2~n and its D~n/D spot check
PHASE_ALIGN_SLACK = 1e-8
#: supplied tetrablock data interpolating the Schwarz target
INTERP_SLACK = 1e-7
#: the pentablock Schwarz margins against their hexablock bridge, relative
BRIDGE_SLACK = 1e-8

_CIRCLE_N = 512


def _disc_samples(n: int, rmax: float = 0.93) -> np.ndarray:
    k = np.arange(n)
    r = rmax * np.sqrt((k + 0.5) / n)
    th = 2.0 * np.pi * k * 0.6180339887498949
    return _frozen(r * np.exp(1j * th))


# Sample grids shared by every validation; each circle grid is a stride of
# the one circle `numerics._FR_CIRCLE`.  A validation evaluates all the
# polynomials of its function in one product with `_VALIDATION_TABLE`, the
# power table of `_DISC_CLOSED`, the circle, the tetra disc grid and the
# hexa disc grid, in that order: its first two blocks are the closed-disc
# grid, 200 disc points and their rim `_CIRCLE`.
_CIRCLE = _FR_CIRCLE[:: len(_FR_CIRCLE) // _CIRCLE_N]
_CIRCLE_K0 = _FR_CIRCLE[::16]      # 128 points
_CIRCLE_SPOT = _FR_CIRCLE[::128]   # 16 points
_DISC_CLOSED = _disc_samples(200, 0.999)
_DISC_TETRA = _disc_samples(60)
_DISC_HEXA = _disc_samples(100)
# the stride of the circle samples that the tetra report's bE check reads
_CIRCLE_STEP = max(1, len(_CIRCLE) // 64)
_VALIDATION_TABLE = PowerTable(np.concatenate([_DISC_CLOSED, _CIRCLE,
                                               _DISC_TETRA, _DISC_HEXA]))
# the columns of `_VALIDATION_TABLE` whose images `tetra_inner_validate`
# reads: every `_CIRCLE_STEP`-th circle point, then the tetra disc grid
_TETRA_IMAGES = len(_DISC_CLOSED) + np.r_[0: len(_CIRCLE): _CIRCLE_STEP,
                                          len(_CIRCLE): len(_CIRCLE) + len(_DISC_TETRA)]


def _stack(polys) -> np.ndarray:
    """The coefficient rows of `polys`, zero-padded to one length."""
    rows = np.zeros((len(polys), max(len(p.coeffs) for p in polys)),
                    dtype=complex)
    for row, p in zip(rows, polys):
        row[: len(p.coeffs)] = p.coeffs
    return _frozen(rows)


def _ratios(vals):
    """(E1/D, E2/D, D~n/D) from the values of the rows E1, E2, D, D~n; not
    finite, with no warning, where D vanishes: `cx_arrays` refuses them."""
    E1, E2, D, Dr = vals[:4]
    with np.errstate(divide="ignore", invalid="ignore"):
        return E1 / D, E2 / D, Dr / D


# ---------------------------------------------------------------------------
# Tetrablock inner functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalTetraInner:
    """(E1/D, E2/D, D~n/D) with E1 = E2~n, |Ei| <= |D| on the circle and
    D zero-free on the closed disc."""

    E1: Poly
    E2: Poly
    D: Poly
    n: int

    @cached_property
    def components(self) -> tuple[Poly, Poly, Poly, Poly]:
        """(E1, E2, D, D~n), each at the declared bound n."""
        E1 = self.E1.with_bound(self.n)
        E2 = self.E2.with_bound(self.n)
        D = self.D.with_bound(self.n)
        return E1, E2, D, D.reflect()

    @cached_property
    def _rows(self) -> np.ndarray:
        """The coefficient rows E1, E2, D, D~n."""
        return _stack(self.components)

    def __call__(self, lam):
        E1, E2, D, Dr = self.components
        dv = D(lam)
        return (E1(lam) / dv, E2(lam) / dv, Dr(lam) / dv)

    @classmethod
    def from_dict(cls, d: dict) -> "RationalTetraInner":
        """E1, E2 and D from the JSON form: the bound "n" and coefficient
        arrays of complex scalars, each [re, im] or a real number."""
        n = int(d["n"])
        E1, E2, D = (Poly(np.array([cx_from_json(v) for v in d[key]]), n)
                     for key in ("E1", "E2", "D"))
        return cls(E1, E2, D, n)


def tetra_inner_validate(t: RationalTetraInner) -> dict:
    """Validation report for tetrablock inner data.

    Checks D zero-free on a dense closed-disc grid, the reflection identity
    E1 = E2~n, the circle bounds |Ei| <= |D|, circle images on the
    distinguished boundary and disc images in the closed tetrablock.
    """
    vals = _VALIDATION_TABLE.eval(t._rows)
    nt = len(_DISC_TETRA)
    # only the images the checks read are divided and coerced, once
    x = cx_arrays(_ratios(vals[:, _TETRA_IMAGES]))
    _, margins, _, _ = _tetra_verdict(*(v[-nt:] for v in x), TOL)
    return _tetra_report(t._rows[:2], vals, _bE_margin(*(v[:-nt] for v in x)),
                         _closure_margin(margins))


def _tetra_report(e: np.ndarray, vals: np.ndarray, circle_bE: np.ndarray,
                  disc_closure: np.ndarray) -> dict:
    """`tetra_inner_validate` from the coefficient rows `e` of E1 and E2 at
    the bound n, the values `vals` of E1, E2, D, D~n (and possibly more)
    on the `_VALIDATION_TABLE` grid, the bE margin `circle_bE` of the
    images of every `_CIRCLE_STEP`-th point of `_CIRCLE` and the smaller
    closure margin of the tetrablock, `disc_closure`, at the images of
    `_DISC_TETRA`.  D is zero-free on the closed-disc grid, whose rim is
    every circle point that a circle check divides by."""
    k, nc = len(_DISC_CLOSED), len(_CIRCLE)
    E1, E2 = e
    dmin = float(np.abs(vals[2, : k + nc]).min())
    refl = float(np.abs(E1 - np.conj(E2[::-1])).max())
    circ = np.abs(vals[:3, k: k + nc])
    excess = float((circ[:2] - circ[2]).max())
    worst_b = max(0.0, -float(circle_bE.min()))
    worst_in = max(0.0, -float(disc_closure.min()))
    return _report((
        ("min_abs_D", dmin, dmin <= INNER_D_ZERO,
         "D vanishes on the closed disc"),
        ("reflection_residual", refl,
         refl > INNER_REFL_SLACK * max(1.0, float(np.abs(E2).max())),
         "E1 != E2~n"),
        ("circle_bound_excess", excess, excess > INNER_TOL,
         "|E_i| exceeds |D| on the circle"),
        ("circle_bE_violation", worst_b, worst_b > INNER_TOL,
         "circle image leaves the distinguished boundary"),
        ("disc_closure_violation", worst_in, worst_in > INNER_TOL,
         "disc image leaves the closed tetrablock")))


def _report(checks) -> dict:
    """A validation report from `checks`, tuples (key, value, failed,
    issue): "ok", the issues of the failed checks, and each value."""
    report = {"ok": True, "issues": []}
    for key, value, failed, issue in checks:
        report[key] = value
        if failed:
            report["ok"] = False
            report["issues"].append(issue)
    return report


# ---------------------------------------------------------------------------
# Hexablock inner functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalHexaInner:
    """(c*B*A/D, E1/D, E2/D, D~n/D); A is the spectral factor of
    |D|^2 - |E1|^2 and B an arbitrary finite Blaschke product."""

    tetra: RationalTetraInner
    A: Poly
    B: BlaschkeProduct = BlaschkeProduct()
    c: complex = 1.0

    def __call__(self, lam):
        return (self.a_component(lam), *self.tetra(lam))

    @cached_property
    def _rows(self) -> np.ndarray:
        """The coefficient rows E1, E2, D, D~n, A."""
        return _stack((*self.tetra.components, self.A))

    def a_component(self, lam):
        D = self.tetra.components[2]
        return self.c * self.B(lam) * self.A(lam) / D(lam)

    def to_dict(self) -> dict:
        """The JSON form: coefficient arrays at the bound n and complex
        scalars, each as [re, im]."""
        n = self.tetra.n

        def arr(p: Poly):
            return [[z.real, z.imag] for z in p.with_bound(n).padded().tolist()]

        c = cx(self.c)
        return {
            "n": n,
            "E1": arr(self.tetra.E1),
            "E2": arr(self.tetra.E2),
            "D": arr(self.tetra.D),
            "A": arr(self.A),
            "B_phase": [self.B.phase.real, self.B.phase.imag],
            "B_zeros": [[z.real, z.imag] for z in self.B.zeros],
            "c": [c.real, c.imag],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RationalHexaInner":
        """The inverse of `to_dict`, which also accepts a real number for
        each complex scalar and takes absent B_phase, B_zeros and c as in
        `_completion_from_dict`."""
        tetra = RationalTetraInner.from_dict(d)
        A = Poly(np.array([cx_from_json(v) for v in d["A"]]), tetra.n)
        return cls(tetra, A, *_completion_from_dict(d))


def _completion_from_dict(d: dict) -> tuple[BlaschkeProduct, complex]:
    """B and c of a hexablock inner function from its JSON form: B_phase
    and c default to 1 and B_zeros to [], so an absent B is B = 1."""
    B = BlaschkeProduct(cx_from_json(d.get("B_phase", 1.0)),
                        tuple(cx_from_json(z) for z in d.get("B_zeros", [])))
    return B, cx_from_json(d.get("c", 1.0))


def hexa_inner_construct(t: RationalTetraInner, B: BlaschkeProduct,
                         c: complex = 1.0) -> RationalHexaInner:
    """Complete tetrablock inner data to a hexablock inner function.

    A is the spectral factor of |D|^2 - |E1|^2, assembled exactly from
    coefficient convolutions before factoring (no sampling); the result
    passes `hexa_inner_validate` whenever the input data validates.
    """
    rep = tetra_inner_validate(t)
    if not rep["ok"]:
        raise DomainError(f"invalid tetrablock inner data: {rep['issues']}")
    E1, _, D, _ = t.components
    d2 = poly_abs2_trig(D)
    f = trig_sub(d2, poly_abs2_trig(E1))
    scale = float(np.max(np.abs(d2)))
    if float(np.max(np.abs(f))) <= INNER_A_ZERO * scale:
        # |E1| = |D| identically on the circle (x1 itself inner): A = 0
        A = Poly.const(0.0, t.n)
    else:
        A = fejer_riesz(f, tol=INNER_FR_TOL)
    if A.degree > t.n:
        raise ConsistencyError("spectral factor degree exceeded the bound")
    return RationalHexaInner(t, A.with_bound(t.n), B, cx(c))


def hexa_inner_validate(f: RationalHexaInner) -> dict:
    """Validation report for hexablock inner data: circle images satisfy
    |a|^2 + |x1|^2 = 1 and land on the distinguished boundary of E; disc
    images stay in the closed hexablock (to 1e-8); the tetra part validates.

    The tetra part's report is `tetra_inner_validate`'s, made from the same
    samples: its disc check reads the tetrablock margins of the closure
    verdict, which covers both disc grids."""
    vals = _VALIDATION_TABLE.eval(f._rows)
    k, nc, nt = len(_DISC_CLOSED), len(_CIRCLE), len(_DISC_TETRA)
    # f on the circle and on both disc grids, coerced once; a zero of D
    # leaves a non-finite value that `cx_arrays` refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        a = f.c * f.B(_VALIDATION_TABLE.points[k:]) * vals[4, k:] / vals[2, k:]
    f_all = cx_arrays((a, *_ratios(vals[:, k:])))
    circle = [v[:nc] for v in f_all]
    _, margins, tm = _h_closure_arrays(*(v[nc:] for v in f_all), TOL)
    circle_bE = _bE_margin(*circle[1:])

    sub = _tetra_report(f._rows[:2, : f.tetra.n + 1], vals,
                        circle_bE[::_CIRCLE_STEP], _closure_margin(tm)[:nt])
    worst_norm = float(np.abs(np.abs(circle[0]) ** 2 + np.abs(circle[1]) ** 2
                              - 1.0).max())
    worst_b = max(0.0, -float(circle_bE.min()))
    low = float(margins[nt:].min())
    worst_marg = -low if low < -INNER_CLOSURE_SLACK else 0.0
    return _report((
        ("tetra", sub, not sub["ok"], "tetra part invalid"),
        ("circle_norm_residual", worst_norm, worst_norm > INNER_TOL,
         "|a|^2 + |x1|^2 != 1 on the circle"),
        ("circle_bE_violation", worst_b, worst_b > INNER_TOL,
         "circle image off the distinguished boundary"),
        ("disc_closure_violation", worst_marg, worst_marg > INNER_CLOSURE_SLACK,
         "disc image leaves the closed hexablock")))


def rational_inner_outer(num: Poly, den: Poly):
    """Inner-outer splitting of a rational function bounded by 1 on the disc.

    Returns (a_in, (out_num, out_den)) where a_in is the Blaschke product
    over the zeros of `num` in the open disc (with multiplicity) and the
    outer part is zero-free on the disc with a_in * out = num/den exactly.
    """
    grid = _VALIDATION_TABLE.points[: len(_DISC_CLOSED) + len(_CIRCLE)]
    dv = den(grid)
    if float(np.min(np.abs(dv))) <= INNER_D_ZERO:
        raise DomainError("denominator vanishes on the closed disc")
    if float(np.max(np.abs(num(grid) / dv))) > 1.0 + INNER_BOUND_SLACK:
        raise DomainError("rational data exceeds modulus 1 on the disc")
    zero_list = [] if num.degree <= 0 else list(num.roots())
    inner_zeros = [z for z in zero_list if abs(z) < 1.0 - CIRCLE_EDGE]
    # divide out the disc zeros, multiply the reflected denominators back in
    q = num.coeffs.copy()
    for z in inner_zeros:
        q = _deflate(q, z)
    out_num = Poly(q, max(len(q) - 1, 0))
    for z in inner_zeros:
        out_num = out_num.mul(Poly(np.array([-1.0, z.conjugate()]), 1))
    # outer part normalized positive at the origin; the phase moves inside
    v0 = complex(out_num(0.0)) / complex(den(0.0))
    phase = 1.0 + 0.0j
    if abs(v0) > PHASE_ZERO:
        phase = v0 / abs(v0)
        out_num = out_num.scale(phase.conjugate())
    a_in = BlaschkeProduct(phase, tuple(inner_zeros))
    return a_in, (out_num, den)


def _deflate(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Synthetic division of an ascending-coefficient polynomial by (t - root)."""
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    out = np.zeros(d, dtype=complex)
    carry = c[d]
    for k in range(d - 1, -1, -1):
        out[k] = carry
        carry = c[k] + carry * root
    return out


# ---------------------------------------------------------------------------
# Schwarz lemma for the hexablock
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchwarzProblem:
    """Two-point data: f(0) = 0, f(lambda0) = target with target in H."""

    lambda0: complex
    target: tuple

    def __post_init__(self):
        lam = cx(self.lambda0)
        if not 0.0 < abs(lam) < 1.0:
            raise DomainError("lambda0 must lie in the punctured open disc")
        tgt = tuple(cx(t) for t in self.target)
        ok, margin = h_member(tgt, tol=SCHWARZ_TARGET_TOL)
        if not ok:
            raise DomainError(f"target outside the open hexablock "
                              f"(margin {margin:.3e})")
        object.__setattr__(self, "lambda0", lam)
        object.__setattr__(self, "target", tgt)


def tetra_ratio(x) -> float:
    """max of the two Schwarz ratios of the tetrablock target,
    (|x1 - conj(x2) x3| + |x1 x2 - x3|)/(1 - |x2|^2) and its x1 <-> x2 flip."""
    _, _, _, s1, s2, _, _, _, d12, d21, _, w = _tetra_terms(*(cx(t) for t in x))
    return max((d12 + w) / (1.0 - s2), (d21 + w) / (1.0 - s1))


@dataclass
class FeasibilityReport:
    feasible: bool
    margins: dict = field(default_factory=dict)
    violated: str | None = None


def schwarz_feasible(prob: SchwarzProblem) -> FeasibilityReport:
    """Feasibility of the two-point problem.

    The psi-supremum bound sup |psi(a, x)| <= |lambda0| (equivalently the
    rescaled closure condition on (a/lambda0, x); the two margins are
    cross-asserted) together with the tetrablock ratio condition decide
    feasibility.  The coordinate bound |a| <= |lambda0| sqrt(1 - |x1|^2)
    is also reported: it is necessary but strictly weaker. (0.55, 0, 0.8, 0)
    at lambda0 = 0.85 satisfies it and the ratio bound while the supremum
    11/12 exceeds lambda0, so no interpolant exists.
    """
    lam = abs(prob.lambda0)
    a = prob.target[0]
    x = prob.target[1:]
    x1 = x[0]
    m_ratio = lam - tetra_ratio(x)
    m_sup = lam - abs(a) * k_star(x)
    m_coord = lam * math.sqrt(1.0 - abs(x1) ** 2) - abs(a)
    ok_resc, m_resc = _closed_member(cx(a / prob.lambda0), x, TOL)
    margins = {"tetra_ratio": m_ratio, "psi_sup": m_sup,
               "a_bound": m_coord, "rescaled_closure": m_resc}
    # (3) <-> (4): the supremum bound and the rescaled closure must agree
    if abs(m_sup) > TOL and abs(m_resc) > TOL and (m_sup > 0) != ok_resc:
        raise ConsistencyError(
            f"psi-supremum and rescaled-closure criteria disagree ({margins})")
    # the coordinate bound is a consequence of feasibility
    if m_sup > TOL and m_ratio > TOL and m_coord < -TOL:
        raise ConsistencyError(
            f"necessary coordinate bound failed on feasible data ({margins})")
    feasible = m_sup >= -TOL and m_ratio >= -TOL
    violated = None
    if not feasible:
        violated = "psi_sup" if m_sup < -TOL else "tetra_ratio"
        if m_coord < -TOL:
            violated = "a_bound"
    return FeasibilityReport(feasible, margins, violated)


def _interp_zero_blaschke(lambda0: complex, ratio: complex) -> BlaschkeProduct:
    """Blaschke product B with B(0) = 0 and B(lambda0) = lambda0 * ratio.

    The rotation ratio * t when |ratio| = 1 within `UNIMODULAR_EDGE`;
    otherwise t times the disc automorphism taking lambda0 to ratio, with
    zeros {0, zeta},
    zeta = (lambda0 - ratio)/(1 - ratio conj(lambda0))."""
    lam = cx(lambda0)
    ratio = cx(ratio)
    if abs(abs(ratio) - 1.0) <= UNIMODULAR_EDGE:
        return BlaschkeProduct(-ratio, (0.0,))
    if abs(ratio) > 1.0 + INNER_DISC_SLACK:
        raise DomainError("interpolation value outside the closed disc")
    zeta = (lam - ratio) / (1.0 - ratio * lam.conjugate())
    u = (1.0 - ratio * lam.conjugate()) / (1.0 - ratio.conjugate() * lam)
    return BlaschkeProduct(u, (0.0, zeta))


def _phase_align_tetra(b1: BlaschkeProduct,
                       b2: BlaschkeProduct) -> RationalTetraInner:
    """(E1, E2, D) = cD (n1 m2, n2 m1, m1 m2) for b_i = n_i/m_i, at the
    bound n = deg b1 + deg b2, so that x1 = b1, x2 = b2 and x3 = b1 b2.
    n_i = phi_i prod (t - z) is (-1)^{d_i} phi_i m_i~, so (n2 m1)~n =
    (-1)^n conj(phi1 phi2) n1 m2, and E1 = E2~n for cD^2 = (-1)^n
    conj(phi1 phi2)."""
    n = b1.degree + b2.degree
    (n1, m1), (n2, m2) = b1.as_rational(), b2.as_rational()
    cD = _unit_sqrt((-1) ** n * b1.phase * b2.phase).conjugate()
    E1 = n1.mul(m2).scale(cD)
    E2 = n2.mul(m1).scale(cD)
    D = m1.mul(m2).scale(cD)
    resid = float(np.max(np.abs(E1.padded() - E2.reflect().padded())))
    if resid > PHASE_ALIGN_SLACK:
        raise ConsistencyError(f"phase alignment failed, residual {resid:.3e}")
    # spot-check D~n/D against the product of the component maps
    lam = _CIRCLE_SPOT
    lhs = D.reflect()(lam) / D(lam)
    if np.any(np.abs(lhs - b1(lam) * b2(lam)) > PHASE_ALIGN_SLACK):
        raise ConsistencyError("x3 does not match the product map")
    return RationalTetraInner(E1, E2, D, n)


def construct_from_tetra(t: RationalTetraInner, lambda0: complex,
                         a_target: complex) -> RationalHexaInner:
    """Lift tetrablock inner data interpolating x(0) = 0, x(lambda0) = x to a
    hexablock inner function with a(0) = 0, a(lambda0) = a_target.

    B is conj(A(lambda0)/D(lambda0)) / |A/D| times the interpolating
    Blaschke product of `_interp_zero_blaschke`: a rotation when
    |a| = |lambda0| |A/D|(lambda0) holds with equality (detected at 1e-10
    relative), degree 2 otherwise.
    """
    lam = cx(lambda0)
    a = cx(a_target)
    f0 = hexa_inner_construct(t, BlaschkeProduct(), 1.0)
    A, D = f0.A, t.D.with_bound(t.n)
    ratio = complex(A(lam) / D(lam))
    s = abs(ratio)
    cap = abs(lam) * s
    if abs(a) <= PHASE_ZERO:
        # the first component vanishes identically once B has a zero at 0
        return RationalHexaInner(t, A, BlaschkeProduct(1.0, (0.0,)), 1.0)
    if abs(a) > cap + SCHWARZ_EDGE:
        raise DomainError(
            "target first coordinate exceeds this data's Schwarz reach "
            f"(|a| = {abs(a):.6g} > {cap:.6g} = |lambda0| |A/D|(lambda0)); "
            "general synthesis requires external tetrablock inner "
            "interpolation data")
    c2 = ratio / s
    B = _interp_zero_blaschke(lam, a / (lam * s))
    B = BlaschkeProduct(c2.conjugate() * B.phase, B.zeros)
    return RationalHexaInner(t, A, B, 1.0)


def schwarz_construct(prob: SchwarzProblem,
                      supplied_tetra: RationalTetraInner | None = None
                      ) -> RationalHexaInner:
    """Rational hexablock inner interpolant with f(0) = 0, f(lambda0) = target.

    Supported automatic cases: |x3| = |lambda0| (forces x1 = x2 = 0);
    triangular targets x1 x2 = x3 (per-coordinate Blaschke synthesis);
    any target when `supplied_tetra` interpolates ((0,0,0) at 0, x at
    lambda0).  Other feasible targets need external tetrablock inner data
    and raise a DomainError saying so.
    """
    return _schwarz_construct(prob, schwarz_feasible(prob), supplied_tetra)


def _schwarz_construct(prob: SchwarzProblem, rep: FeasibilityReport,
                       supplied_tetra: RationalTetraInner | None = None
                       ) -> RationalHexaInner:
    """`schwarz_construct` given the feasibility report of `prob`."""
    if not rep.feasible:
        raise DomainError(f"infeasible Schwarz data: {rep.violated} violated "
                          f"(margins {rep.margins})")
    lam = prob.lambda0
    a, x1, x2, x3 = prob.target

    if supplied_tetra is not None:
        t = supplied_tetra
        val0 = t(0.0)
        val1 = t(lam)
        e0 = max(abs(cx(v)) for v in val0)
        e1 = max(abs(cx(u) - cx(v)) for u, v in zip(val1, (x1, x2, x3)))
        if e0 > INTERP_SLACK or e1 > INTERP_SLACK:
            raise DomainError("supplied tetrablock data does not interpolate "
                              f"the target (residuals {e0:.2e}, {e1:.2e})")
        return construct_from_tetra(t, lam, a)

    if abs(abs(x3) - abs(lam)) <= SCHWARZ_EDGE \
            and max(abs(x1), abs(x2)) <= SCHWARZ_EDGE:
        omega = x3 / lam
        w1 = _unit_sqrt(omega)
        D = Poly.const(w1.conjugate(), 1)
        t = RationalTetraInner(Poly.const(0.0, 1), Poly.const(0.0, 1), D, 1)
        return construct_from_tetra(t, lam, a)

    if abs(x1 * x2 - x3) <= SCHWARZ_EDGE * (1.0 + abs(x3)):
        # the inner g-pair forces |x1| = 1 on the circle, so the lifted
        # first component vanishes identically: this route only reaches
        # targets with a = 0
        if abs(a) > SCHWARZ_A_ZERO:
            raise DomainError(
                "triangular targets with a != 0 are outside the automatic "
                "g-pair construction; general synthesis requires external "
                "tetrablock inner interpolation data (pass supplied_tetra)")
        b1 = _interp_zero_blaschke(lam, x1 / lam)
        b2 = _interp_zero_blaschke(lam, x2 / lam)
        t = _phase_align_tetra(b1, b2)
        return construct_from_tetra(t, lam, a)

    raise DomainError("general synthesis requires external tetrablock inner "
                      "interpolation data; pass supplied_tetra")


def _unit_sqrt(w: complex) -> complex:
    w = cx(w)
    ang = math.atan2(w.imag, w.real)
    return complex(math.cos(ang / 2.0), math.sin(ang / 2.0))


def interpolation_residuals(f: RationalHexaInner, prob: SchwarzProblem) -> float:
    """max endpoint residual of f against the two-point data."""
    v0 = f(0.0)
    v1 = f(prob.lambda0)
    r0 = max(abs(cx(t)) for t in v0)
    r1 = max(abs(cx(u) - cx(v)) for u, v in zip(v1, prob.target))
    return max(r0, r1)


# ---------------------------------------------------------------------------
# Pentablock bridge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPentaInner:
    """(a_in-part, E/D, D~n/D) pentablock inner data with E = E~n."""

    E: Poly
    D: Poly
    A: Poly
    B: BlaschkeProduct
    c: complex
    n: int

    def __call__(self, lam):
        a, x1, x2, x3 = penta_inner_to_hexa(self)(lam)
        return (a, x1 + x2, x3)


def penta_inner_to_hexa(f: RationalPentaInner) -> RationalHexaInner:
    """(a, s, p) inner data to (a, s/2, s/2, p) hexablock inner data."""
    half = f.E.scale(0.5)
    tetra = RationalTetraInner(half, half, f.D, f.n)
    return RationalHexaInner(tetra, f.A, f.B, f.c)


def hexa_inner_to_penta(f: RationalHexaInner) -> RationalPentaInner:
    """Inverse bridge; requires symmetric tetra data E1 = E2."""
    E1 = f.tetra.E1.with_bound(f.tetra.n)
    E2 = f.tetra.E2.with_bound(f.tetra.n)
    if float(np.max(np.abs(E1.padded() - E2.padded()))) > SYMMETRY_SLACK:
        raise DomainError("hexablock inner data is not symmetric (E1 != E2)")
    return RationalPentaInner(E1.scale(2.0), f.tetra.D, f.A, f.B, cx(f.c),
                              f.tetra.n)


def penta_inner_validate(f: RationalPentaInner) -> dict:
    """Validate pentablock inner data through the hexablock bridge and the
    direct circle conditions |a|^2 + |s|^2/4 = 1, (s, p) in b Gamma."""
    report = hexa_inner_validate(penta_inner_to_hexa(f))
    a, s, p = f(_CIRCLE_K0)
    worst = max(float(np.max(np.abs(np.abs(a) ** 2 + np.abs(s) ** 2 / 4.0 - 1.0))),
                float(np.max(np.abs(np.abs(p) - 1.0))),
                float(np.max(np.abs(s - s.conjugate() * p))))
    report["circle_K0_violation"] = worst
    if worst > 10.0 * INNER_TOL:
        report["ok"] = False
        report["issues"].append("circle image off K0")
    return report


def penta_schwarz_feasible(lambda0: complex, a: complex, s: complex,
                           p: complex) -> FeasibilityReport:
    """Feasibility of the pentablock two-point problem; delegates to the
    symmetric embedded hexablock problem and cross-checks the direct
    inequalities (2|s - conj(s)p| + |s^2 - 4p|)/(4 - |s|^2) <= |lambda0|
    and |a| <= |lambda0| sqrt(1 - |s|^2/4)."""
    lam = cx(lambda0)
    a, s, p = cx(a), cx(s), cx(p)
    prob = SchwarzProblem(lam, (a, s / 2.0, s / 2.0, p))
    rep = schwarz_feasible(prob)
    direct_ratio = (2.0 * abs(s - s.conjugate() * p) + abs(s * s - 4.0 * p)) \
        / (4.0 - abs(s) ** 2)
    m1 = abs(lam) - direct_ratio
    m2 = abs(lam) * math.sqrt(max(1.0 - abs(s) ** 2 / 4.0, 0.0)) - abs(a)
    for name, direct, bridged in (("ratio", m1, rep.margins["tetra_ratio"]),
                                  ("a_bound", m2, rep.margins["a_bound"])):
        if abs(direct - bridged) > BRIDGE_SLACK * (1.0 + abs(direct)):
            raise ConsistencyError(
                f"pentablock {name} margin disagrees with the bridge: "
                f"{direct} vs {bridged}")
    return rep
