import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hexablock.numerics import DiscAut, DomainError, Mat2, pi_penta, pi_tetra
from hexablock.psi import k_star
from hexablock.domains import Region, penta_classify, tetra_classify
from hexablock.hexa import (bh_member, classify_hexa, hn_params, hp_param,
                            mu_value)
from hexablock.autos import (HexaAut, TetraAut, _flip_conjugate,
                             hexa_aut_apply, hexa_aut_compose,
                             hexa_aut_from_be_point,
                             hexa_aut_invert, penta_aut_apply,
                             tetra_aut_apply, tetra_aut_invert)
from hexablock.oracles import tetra_aut_apply_diamond

from conftest import (rand_be_point, rand_contraction, rand_disc,
                      rand_discaut, rand_hexa_point, rand_hexaaut,
                      rand_tetra_point, rand_unit, st_disc, st_entry,
                      st_hexa_point, st_hexaaut, st_tetra_point, st_tetraaut,
                      st_unit)


def penta_aut_compose_params(omega1, v1, omega2, v2):
    """The group law f_{w1,v1} o f_{w2,v2} = f_{w1 w2, v1 o v2}."""
    return omega1 * omega2, v1.compose(v2)


def _close4(p, q, tol=1e-10):
    return max(abs(complex(a) - complex(b)) for a, b in zip(p, q)) <= tol


# ---------------------------------------------------------------------------
# Tetrablock automorphisms
# ---------------------------------------------------------------------------

def test_tetra_identity(rng):
    t = TetraAut(DiscAut.identity(), DiscAut.identity(), False)
    for _ in range(20):
        x = rand_tetra_point(rng)
        assert _close4(tetra_aut_apply(t, x), x, 1e-12)


def test_tetra_flip_only(rng):
    t = TetraAut(DiscAut.identity(), DiscAut.identity(), True)
    x = rand_tetra_point(rng)
    assert _close4(tetra_aut_apply(t, x), (x[1], x[0], x[2]), 1e-12)


def test_tetra_matches_diamond_route(rng):
    for _ in range(100):
        t = TetraAut(rand_discaut(rng), rand_discaut(rng),
                     bool(rng.integers(0, 2)))
        x = rand_tetra_point(rng, 0.95)
        assert _close4(tetra_aut_apply(t, x),
                       tetra_aut_apply_diamond(t, x), 1e-10)


def test_tetra_region_preserved(rng):
    for _ in range(200):
        t = TetraAut(rand_discaut(rng), rand_discaut(rng),
                     bool(rng.integers(0, 2)))
        x = rand_tetra_point(rng, 0.9, min_margin=1e-3)
        y = tetra_aut_apply(t, x)
        assert tetra_classify(y).region is Region.INTERIOR
        b = rand_be_point(rng)
        yb = tetra_aut_apply(t, b)
        assert tetra_classify(yb).region is Region.DISTINGUISHED_BOUNDARY


def test_tetra_preserves_triangular(rng):
    for _ in range(50):
        t = TetraAut(rand_discaut(rng), rand_discaut(rng), False)
        x1, x2 = rand_disc(rng, 0.6), rand_disc(rng, 0.6)
        y = tetra_aut_apply(t, (x1, x2, x1 * x2))
        assert abs(y[0] * y[1] - y[2]) < 1e-10


def test_tetra_invert(rng):
    for flip in (False, True):
        for _ in range(50):
            t = TetraAut(rand_discaut(rng), rand_discaut(rng), flip)
            ti = tetra_aut_invert(t)
            x = rand_tetra_point(rng, 0.95)
            assert _close4(tetra_aut_apply(ti, tetra_aut_apply(t, x)), x, 1e-10)


# ---------------------------------------------------------------------------
# Hexablock automorphism normal forms
# ---------------------------------------------------------------------------

def test_hexa_identity_normal_form(rng):
    T = HexaAut.identity()
    for _ in range(20):
        p = rand_hexa_point(rng)
        assert _close4(hexa_aut_apply(T, p), p, 1e-12)


def test_hexa_invert_round_trip(rng):
    for flip in (False, True):
        for _ in range(50):
            T = rand_hexaaut(rng, flip)
            Ti = hexa_aut_invert(T)
            for _ in range(4):
                p = rand_hexa_point(rng)
                q = hexa_aut_apply(T, p, check=False)
                assert _close4(hexa_aut_apply(Ti, q, check=False), p, 1e-10)
            # invert twice is the identity on normal forms
            assert hexa_aut_invert(Ti).approx_eq(T, 1e-12)


def test_hexa_compose_matches_pointwise(rng):
    for f1 in (False, True):
        for f2 in (False, True):
            for _ in range(20):
                T1 = rand_hexaaut(rng, f1)
                T2 = rand_hexaaut(rng, f2)
                C = hexa_aut_compose(T1, T2)
                assert C.flip == (f1 != f2)
                for _ in range(5):
                    p = rand_hexa_point(rng)
                    seq = hexa_aut_apply(
                        T1, hexa_aut_apply(T2, p, check=False), check=False)
                    assert _close4(hexa_aut_apply(C, p, check=False), seq,
                                   1e-10)


def test_hexa_compose_star_family(rng):
    # T_{v,v*,w} o T_{f,f*,t} = T_{v o f, (v o f)*, w t} exactly
    for _ in range(50):
        v = rand_discaut(rng)
        f = rand_discaut(rng)
        w = rand_unit(rng)
        t = rand_unit(rng)
        T1 = HexaAut(v, v.star(), w, False)
        T2 = HexaAut(f, f.star(), t, False)
        C = hexa_aut_compose(T1, T2)
        vf = v.compose(f)
        assert C.v.approx_eq(vf, 1e-10)
        assert C.chi.approx_eq(vf.star(), 1e-10)
        assert abs(C.omega - w * t) < 1e-10
        assert not C.flip


def test_hexa_group_axioms(rng):
    e = HexaAut.identity()
    for _ in range(30):
        T = rand_hexaaut(rng)
        U = rand_hexaaut(rng)
        V = rand_hexaaut(rng)
        p = rand_hexa_point(rng)
        # identity laws
        assert _close4(hexa_aut_apply(hexa_aut_compose(T, e), p, check=False),
                       hexa_aut_apply(T, p, check=False), 1e-11)
        assert _close4(hexa_aut_apply(hexa_aut_compose(e, T), p, check=False),
                       hexa_aut_apply(T, p, check=False), 1e-11)
        # inverse law in normal form
        TT = hexa_aut_compose(T, hexa_aut_invert(T))
        assert _close4(hexa_aut_apply(TT, p, check=False), p, 1e-10)
        # associativity pointwise
        lhs = hexa_aut_compose(hexa_aut_compose(T, U), V)
        rhs = hexa_aut_compose(T, hexa_aut_compose(U, V))
        assert _close4(hexa_aut_apply(lhs, p, check=False),
                       hexa_aut_apply(rhs, p, check=False), 1e-10)


def test_hexa_region_preservation(rng):
    for _ in range(60):
        T = rand_hexaaut(rng)
        p = rand_hexa_point(rng, slack=0.8)
        vin = classify_hexa(p)
        vout = classify_hexa(hexa_aut_apply(T, p))
        assert vin.in_h and vout.in_h
        assert vin.in_hmu == vout.in_hmu
        assert vin.in_hn == vout.in_hn


def test_hexa_boundary_part_preservation(rng):
    for _ in range(30):
        T = rand_hexaaut(rng)
        x = rand_tetra_point(rng, 0.85, min_margin=0.03)
        p = (rand_unit(rng) / k_star(x), *x)  # on d1
        q = hexa_aut_apply(T, p)
        from hexablock.hexa import classify_boundary
        parts, _ = classify_boundary(q)
        assert "d1" in parts


def test_hexa_preserves_hp(rng):
    for _ in range(100):
        T = rand_hexaaut(rng)
        theta = rng.uniform(0, 2 * math.pi)
        z = complex(*rng.normal(0, 1, 2))
        w = complex(*rng.normal(0, 1, 2))
        n = math.hypot(abs(z), abs(w))
        p = hp_param(theta, z / n, w / n)
        q = hexa_aut_apply(T, p, check=False)
        a, x1 = q[0], q[1]
        assert abs(abs(a) ** 2 + abs(x1) ** 2 - 1.0) <= 1e-10
        ok, _ = bh_member(q, tol=1e-8)
        assert ok


def test_hexa_royal_orbit_closed_form(rng):
    # T(1,0,0,1) first coordinate is w xi2 sqrt((1-|z1|^2)(1-|z2|^2)) /
    # (1 + conj(z1) conj(z2) xi2)
    from hexablock.autos import _params_chi, _params_v
    for _ in range(50):
        T = rand_hexaaut(rng, flip=False)
        xi1, z1 = _params_v(T.v)
        xi2, z2 = _params_chi(T.chi)
        got = hexa_aut_apply(T, (1, 0, 0, 1), check=False)
        expect_a = (T.omega * xi2
                    * math.sqrt((1 - abs(z1) ** 2) * (1 - abs(z2) ** 2))
                    / (1 + z1.conjugate() * z2.conjugate() * xi2))
        assert abs(got[0] - expect_a) < 1e-12
        expect_x1 = -xi1 * (z1 + xi2 * z2.conjugate()) / \
            (1 + xi2 * z1.conjugate() * z2.conjugate())
        assert abs(got[1] - expect_x1) < 1e-12
        ok, _ = bh_member(got, tol=1e-9)
        assert ok


def test_hexa_apply_checks_domain():
    T = HexaAut.identity()
    with pytest.raises(DomainError):
        hexa_aut_apply(T, (2.0, 0, 0, 0))


def test_be_point_reproduction(rng):
    for _ in range(100):
        x = rand_be_point(rng)
        T, base = hexa_aut_from_be_point(x)
        img = hexa_aut_apply(T, base, check=False)
        assert _close4(img[1:], x, 1e-8)
    for _ in range(20):
        x1, x2 = rand_unit(rng), rand_unit(rng)
        T, base = hexa_aut_from_be_point((x1, x2, x1 * x2))
        assert base == (0.0, 1.0, 1.0, 1.0)
        img = hexa_aut_apply(T, base, check=False)
        assert _close4(img[1:], (x1, x2, x1 * x2), 1e-8)


# ---------------------------------------------------------------------------
# Properties over Hypothesis-drawn automorphisms and points
# ---------------------------------------------------------------------------

_FLAGS = ("in_h", "in_h_closure", "in_hmu", "in_hmu_closure", "in_int_hmu",
          "in_hn", "in_hn_closure", "in_int_hn", "in_bh", "boundary_parts")


@st.composite
def _about_hn(draw):
    """Points of H with |a|^2 = f m(x), f in [0.1, 10], where m(x) is the
    lower end of the H_N interval: outside H_N below it, inside above."""
    x = draw(st_tetra_point(min_margin=0.02))
    m = hn_params(x)[2]
    a = draw(st_unit) * math.sqrt(draw(st.floats(0.1, 10.0)) * m)
    assume(1e-6 < abs(a) * k_star(x) < 0.95)
    return (a, *x)


@given(st_hexaaut, st.one_of(st_hexa_point(slack=(0.05, 0.95)), _about_hn()))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_hexa_aut_preserves_flags(T, p):
    # every flag of the verdict, at points whose H_N margins are decisive
    vin = classify_hexa(p)
    assume(min(abs(vin.margins["hn"]), abs(vin.margins["hn_closure"])) > 1e-6)
    vout = classify_hexa(hexa_aut_apply(T, p))
    assert [getattr(vin, f) for f in _FLAGS] \
        == [getattr(vout, f) for f in _FLAGS]


@given(st_tetraaut, st_tetra_point(min_margin=1e-3),
       st.lists(st_entry.filter(lambda z: abs(z) > 1e-2), min_size=4,
                max_size=4), st_disc(0.95), st_unit)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_tetra_aut_preserves_regions(t, x, entries, x2, x3):
    # interior points, points of dE off bE (pi_E(A / mu_E(A))) and of bE
    A = Mat2(*entries)
    d = pi_tetra(A.scaled(1.0 / mu_value(A, "tetra")))
    assume(max(map(abs, d)) < 0.999)
    b = (x2.conjugate() * x3, x2, x3)
    for y, region in ((x, Region.INTERIOR), (d, Region.BOUNDARY),
                      (b, Region.DISTINGUISHED_BOUNDARY)):
        assert tetra_classify(y).region is region
        assert tetra_classify(tetra_aut_apply(t, y)).region is region


@given(st_hexaaut, st_hexaaut, st_hexa_point())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_hexa_aut_invert_compose_round_trip(T, U, p):
    def apply(A, q):
        return hexa_aut_apply(A, q, check=False)

    Ti, C = hexa_aut_invert(T), hexa_aut_compose(T, U)
    assert hexa_aut_invert(Ti).approx_eq(T, 1e-10)
    assert _close4(apply(Ti, apply(T, p)), p, 1e-9)
    assert _close4(apply(C, p), apply(T, apply(U, p)), 1e-9)
    assert _close4(apply(hexa_aut_compose(Ti, C), p), apply(U, p), 1e-9)


def _swap12(q):
    """F-hat: (a, x1, x2, x3) -> (a, x2, x1, x3)."""
    return (q[0], q[2], q[1], q[3])


_st_discaut95 = st.builds(DiscAut, st_unit, st_disc(0.95))


@given(st.one_of(st.just(HexaAut.identity()),
                 st.builds(HexaAut, _st_discaut95, _st_discaut95, st_unit)),
       st_hexa_point())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_flip_conjugate_matches_pointwise(T, p):
    # F-hat T_{v,chi,w} F-hat = T_{chi*, v*, w conj(xi1) xi2}, pointwise
    C = HexaAut(*_flip_conjugate(T.v, T.chi, T.omega))
    assert not C.flip
    lhs = _swap12(hexa_aut_apply(T, _swap12(p), check=False))
    assert _close4(lhs, hexa_aut_apply(C, p, check=False), 1e-10)


# ---------------------------------------------------------------------------
# Pentablock automorphisms
# ---------------------------------------------------------------------------

def test_penta_identity():
    v = DiscAut.identity()
    q = (0.2, 0.3 + 0.1j, 0.05)
    out = penta_aut_apply(1.0, v, q)
    assert _close4(out, q, 1e-12)


def test_penta_routes_agree(rng):
    # closed form vs factored route through the hexablock (checked inline)
    for _ in range(200):
        A = rand_contraction(rng, 0.95)
        q = pi_penta(A)
        penta_aut_apply(rand_unit(rng), rand_discaut(rng), q)


def test_penta_group_law(rng):
    for _ in range(50):
        w1, v1 = rand_unit(rng), rand_discaut(rng)
        w2, v2 = rand_unit(rng), rand_discaut(rng)
        A = rand_contraction(rng, 0.9)
        q = pi_penta(A)
        seq = penta_aut_apply(w1, v1, penta_aut_apply(w2, v2, q))
        wc, vc = penta_aut_compose_params(w1, v1, w2, v2)
        one = penta_aut_apply(wc, vc, q)
        assert _close4(seq, one, 1e-10)


def test_penta_preserves_K0(rng):
    for _ in range(100):
        # K0 point: (s, p) in b Gamma, |a|^2 + |s|^2/4 = 1
        l1, l2 = rand_unit(rng), rand_unit(rng)
        s, p = l1 + l2, l1 * l2
        a = rand_unit(rng) * math.sqrt(max(1 - abs(s) ** 2 / 4.0, 0.0))
        out = penta_aut_apply(rand_unit(rng), rand_discaut(rng), (a, s, p))
        ao, so, po = out
        assert abs(abs(ao) ** 2 + abs(so) ** 2 / 4.0 - 1.0) < 1e-9
        assert abs(abs(po) - 1.0) < 1e-10
        assert abs(so - so.conjugate() * po) < 1e-9


def test_penta_preserves_interior(rng):
    for _ in range(100):
        A = rand_contraction(rng, 0.9)
        q = pi_penta(A)
        out = penta_aut_apply(rand_unit(rng), rand_discaut(rng), q)
        assert penta_classify(*out).in_interior
