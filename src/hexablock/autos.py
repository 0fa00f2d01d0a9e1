"""Automorphism algebra: the tetrablock maps tau_{v,chi} (with optional
coordinate flip), the hexablock subgroup of maps T_{v,chi,omega} and
T_{v,chi,F,omega} with exact normal-form composition and inversion, and the
pentablock automorphisms f_{omega,v}.

Conventions.  A `DiscAut` stores the plain form xi*B_z.  The hexablock
normal form uses v = -xi1 B_{z1} and chi = -xi2 B_{-conj(z2)}; the helpers
below convert between the two.

The flip.  T_{v,chi,F,omega} = T_{v,chi,omega} o F-hat, F-hat swapping x1
and x2, and F-hat T_{v,chi,omega} F-hat = T_{chi*, v*, omega conj(xi1) xi2}
(`_flip_conjugate`), so one flip-free law composes and inverts them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (AUT_MATCH_TOL, UNIT_SLACK, _DEN_TINY, _TINY,
                       ConsistencyError, DomainError, DiscAut, cx)
from .domains import tau_of, diamond
from . import hexa as _hexa

#: the loose closure check of `hexa_aut_apply` on its input
AUT_CHECK_TOL = 1e-7
#: the two routes of `penta_aut_apply`
AUT_ROUTE_SLACK = 1e-10


def _params_v(v: DiscAut) -> tuple[complex, complex]:
    """(xi1, z1) with v = -xi1 B_{z1}."""
    return -v.xi, v.z


def _params_chi(chi: DiscAut) -> tuple[complex, complex]:
    """(xi2, z2) with chi = -xi2 B_{-conj(z2)}."""
    return -chi.xi, -chi.z.conjugate()


def _v_from_params(xi1: complex, z1: complex) -> DiscAut:
    return DiscAut(-cx(xi1), cx(z1))


def _chi_from_params(xi2: complex, z2: complex) -> DiscAut:
    return DiscAut(-cx(xi2), -cx(z2).conjugate())


def _flip_conjugate(v: DiscAut, chi: DiscAut, omega: complex):
    """The flip-free parts (chi*, v*, omega conj(xi1) xi2) of
    F-hat T_{v,chi,omega} F-hat, where F-hat swaps x1 and x2."""
    xi1, _ = _params_v(v)
    xi2, _ = _params_chi(chi)
    return chi.star(), v.star(), omega * xi1.conjugate() * xi2


# ---------------------------------------------------------------------------
# Tetrablock automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TetraAut:
    """tau_{v,chi} (flip False) or tau_{v,chi,F} (flip True) on closed E."""

    v: DiscAut
    chi: DiscAut
    flip: bool = False

    def __call__(self, x):
        return tetra_aut_apply(self, x)


def tetra_aut_apply(t: TetraAut, x):
    """Apply the closed-form tetrablock automorphism; the flip acts first."""
    return _tetra_aut(t, *(cx(s) for s in x))[0]


def _tetra_aut(t, x1, x2, x3):
    """(image, denominator) of `tetra_aut_apply` for coerced coordinates
    and the v, chi and flip of t, a `TetraAut` or a `HexaAut`, whose first
    coordinate has the same denominator."""
    if t.flip:
        x1, x2 = x2, x1
    xi1, z1 = _params_v(t.v)
    xi2, z2 = _params_chi(t.chi)
    den = (1.0 - z1.conjugate() * x1) \
        - xi2 * z2.conjugate() * (x2 - z1.conjugate() * x3)
    if abs(den) < _DEN_TINY:
        raise DomainError("automorphism denominator vanished")
    t1 = xi1 * ((x1 - z1) + xi2 * z2.conjugate() * (z1 * x2 - x3)) / den
    t2 = (z2 * (z1.conjugate() * x1 - 1.0) + xi2 * (x2 - z1.conjugate() * x3)) / den
    t3 = xi1 * (z2 * (z1 - x1) - xi2 * (z1 * x2 - x3)) / den
    return (t1, t2, t3), den


def tetra_aut_apply_diamond(t: TetraAut, x):
    """Same map through the diamond action (independent route for tests)."""
    x1, x2, x3 = (cx(s) for s in x)
    if t.flip:
        x1, x2 = x2, x1
    return diamond(diamond(tau_of(t.v), (x1, x2, x3)), tau_of(t.chi))


def tetra_aut_invert(t: TetraAut) -> TetraAut:
    """tau_{v,chi}^{-1} = tau_{v^-1,chi^-1}; with the flip, the inverse
    F-hat tau_{v^-1,chi^-1} is carried past F-hat by `_flip_conjugate`."""
    v, chi = t.v.invert(), t.chi.invert()
    if t.flip:
        v, chi, _ = _flip_conjugate(v, chi, 1.0)
    return TetraAut(v, chi, t.flip)


# ---------------------------------------------------------------------------
# Hexablock automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HexaAut:
    """T_{v,chi,omega} (flip False) or T_{v,chi,F,omega} (flip True)."""

    v: DiscAut
    chi: DiscAut
    omega: complex
    flip: bool = False

    def __post_init__(self):
        w = cx(self.omega)
        if abs(abs(w) - 1.0) > UNIT_SLACK:
            raise DomainError("hexablock automorphism phase must be unimodular")
        object.__setattr__(self, "omega", w / abs(w))

    @classmethod
    def identity(cls) -> "HexaAut":
        return cls(DiscAut.identity(), DiscAut.identity(), 1.0, False)

    def __call__(self, p, check: bool = True):
        return hexa_aut_apply(self, p, check=check)

    def approx_eq(self, other: "HexaAut", tol: float = AUT_MATCH_TOL) -> bool:
        return (self.flip == other.flip
                and abs(self.omega - other.omega) <= tol
                and self.v.approx_eq(other.v, tol)
                and self.chi.approx_eq(other.chi, tol))


def hexa_aut_apply(T: HexaAut, p, check: bool = True):
    """Apply T to a point of the closed hexablock.

    With check=True the input must pass the closure criterion at the loose
    `AUT_CHECK_TOL`; the image region always equals the input region.
    """
    a, x1, x2, x3 = (cx(s) for s in p)
    if check:
        ok, margin = _hexa.h_member((a, x1, x2, x3), True, AUT_CHECK_TOL)
        if not ok:
            raise DomainError(f"point outside the closed hexablock "
                              f"(margin {margin:.3e})")
    image, den = _tetra_aut(T, x1, x2, x3)
    _, z1 = _params_v(T.v)
    xi2, z2 = _params_chi(T.chi)
    scale = math.sqrt((1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2))
    return (T.omega * xi2 * a * scale / den, *image)


def hexa_aut_invert(T: HexaAut) -> HexaAut:
    """Closed-form inverse: T_{v,chi,w}^-1 = T_{v^-1,chi^-1,conj(w)}, and
    T_{v,chi,F,w}^-1 = F-hat T_{v^-1,chi^-1,conj(w)}, carried past F-hat by
    F-hat T_{v,chi,w} F-hat = T_{chi*, v*, w conj(xi1) xi2}."""
    parts = (T.v.invert(), T.chi.invert(), T.omega.conjugate())
    if T.flip:
        parts = _flip_conjugate(*parts)
    return HexaAut(*parts, T.flip)


def _compose_noflip(T1: HexaAut, v2: DiscAut, chi2: DiscAut,
                    w2: complex) -> tuple[DiscAut, DiscAut, complex]:
    """Normal form of T_{v1,chi1,w1} o T_{v2,chi2,w2}, the flip of T1 not
    read: v-part v1 o v2, chi-part chi2 o chi1, phase w1 w2 conj(gamma)."""
    _, z1 = _params_v(T1.v)
    xi2c1, z2c1 = _params_chi(T1.chi)
    xi1b, z1b = _params_v(v2)
    # pattern parameters: chi = chi1^-1, zeta = v2^-1, Y = chi2
    z2 = -xi2c1.conjugate() * z2c1          # chi slot of the pattern
    alpha1 = -xi1b * z1b                    # zeta = -eta1 B_{alpha1}
    _, alpha2 = _params_chi(chi2)
    u1 = 1.0 - z1.conjugate() * alpha1
    u2 = 1.0 - z2 * alpha2.conjugate()
    if abs(u1) < _TINY or abs(u2) < _TINY:
        raise ConsistencyError("degenerate phase factor in composition")
    gamma = (u1 / abs(u1)) * (u2 / abs(u2))
    return T1.v.compose(v2), chi2.compose(T1.chi), \
        T1.omega * w2 * gamma.conjugate()


def hexa_aut_compose(T1: HexaAut, T2: HexaAut) -> HexaAut:
    """Exact normal form of T1 o T2; flip parity is the XOR of the inputs.

    A flip on T2 acts first and stays there.  A flip on T1 is moved past
    the flip-free part of T2 by F-hat T_{v,chi,w} F-hat =
    T_{chi*, v*, w conj(xi1) xi2}; what is left is the flip-free law.
    """
    parts = (T2.v, T2.chi, T2.omega)
    if T1.flip:
        parts = _flip_conjugate(*parts)
    return HexaAut(*_compose_noflip(T1, *parts), T1.flip != T2.flip)


def hexa_aut_from_be_point(x) -> tuple[HexaAut, tuple]:
    """A hexablock automorphism T and base point q in {(0,1,1,1), (1,0,0,1)}
    with tetra part reproducing the given distinguished-boundary point:
    tau_{v,chi}(base) = x."""
    from .domains import bE_generator_params
    kind, xi1, z1, xi2, z2 = bE_generator_params(x)
    T = HexaAut(_v_from_params(xi1, z1), _chi_from_params(xi2, z2), 1.0, False)
    base = (0.0, 1.0, 1.0, 1.0) if kind == "triangular" else (1.0, 0.0, 0.0, 1.0)
    return T, base


# ---------------------------------------------------------------------------
# Pentablock automorphisms
# ---------------------------------------------------------------------------

def penta_aut_apply(omega: complex, v: DiscAut, q, check: bool = True):
    """f_{omega,v} on the closed pentablock, computed by the closed form and
    cross-checked against the factored route e_* o T_{v,v*,omega} o e_0."""
    omega = cx(omega)
    if abs(abs(omega) - 1.0) > UNIT_SLACK:
        raise DomainError("pentablock automorphism phase must be unimodular")
    a, s, p = (cx(t) for t in q)
    xi, z = _params_v(v)
    den = 1.0 - z.conjugate() * s + z.conjugate() ** 2 * p
    if abs(den) < _DEN_TINY:
        raise DomainError("pentablock automorphism denominator vanished")
    out = (xi / den * omega * (1.0 - abs(z) ** 2) * a,
           xi / den * (-2.0 * z + (1.0 + abs(z) ** 2) * s - 2.0 * z.conjugate() * p),
           xi * xi / den * (z * z - z * s + p))

    if check:
        T = HexaAut(v, v.star(), omega, False)
        b, y1, y2, y3 = hexa_aut_apply(T, (a, s / 2.0, s / 2.0, p), check=False)
        alt = (b, y1 + y2, y3)
        err = max(abs(o - t) for o, t in zip(out, alt))
        if err > AUT_ROUTE_SLACK:
            raise ConsistencyError(
                f"pentablock automorphism routes disagree by {err:.3e}")
    return out


def penta_aut_compose_params(omega1, v1: DiscAut, omega2, v2: DiscAut):
    """Group law f_{w1,v1} o f_{w2,v2} = f_{w1 w2, v1 o v2}."""
    return cx(omega1) * cx(omega2), v1.compose(v2)
