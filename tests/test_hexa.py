import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hexablock import hexa
from hexablock.numerics import SCALE_HI, SCALE_LO, TOL, DomainError, Mat2, \
    op_norm, pi_hexa, pi_penta, pi_tetra, singular_values, spectral_radius
from hexablock.psi import k_star, k_star_closed, tetra_interior_margin
from hexablock.hexa import (bh_member, classify_boundary, classify_hexa,
                            h_closure_batch, h_member, hartogs_u,
                            hmu_closure_member, hmu_member, hn_member,
                            hn_params, hp_param, mu_value, psi_sup)
from hexablock.autos import AUT_CHECK_TOL, hexa_aut_apply
from hexablock.domains import Region, penta_classify, tetra_classify
from hexablock.oracles import mu_bruteforce

from conftest import (columns, counted, de_points, rand_be_point,
                      rand_complex, rand_contraction, rand_disc,
                      rand_hexa_point, rand_hexaaut, rand_mat,
                      rand_tetra_point, rand_unit, st_entry, st_tetra_point,
                      st_unit, tetra_region_points)


# ---------------------------------------------------------------------------
# H_mu
# ---------------------------------------------------------------------------

def test_hmu_triangular_zero_slice(rng):
    for _ in range(30):
        x1 = rand_disc(rng, 0.7)
        x2 = rand_disc(rng, 0.7)
        ok, _ = hmu_member((0, x1, x2, x1 * x2))
        assert ok


def test_hmu_rejects_zero_a_nontriangular():
    ok, margin = hmu_member((0, 0, 0, 0.5))
    assert not ok and margin < 0
    # but the hexablock accepts it
    ok_h, _ = h_member((0, 0, 0, 0.5))
    assert ok_h


def test_hmu_midpoint_counterexample():
    ok1, _ = hmu_member((0, 0.5, 0.5, 0.25))
    ok2, _ = hmu_member((0, -0.5, -0.5, 0.25))
    mid, _ = hmu_member((0, 0, 0, 0.25))
    assert ok1 and ok2 and not mid


def test_hmu_closure_royal_disc():
    for alpha in (0.0, 0.5, 1.0, rand_unit(np.random.default_rng(1))):
        ok, _ = hmu_closure_member((alpha, 0, 0, 1))
        assert ok
    ok, margin = hmu_closure_member((1.2, 0, 0, 1))
    assert not ok


def test_hmu_closure_contains_zero_slice(rng):
    for _ in range(20):
        x = rand_tetra_point(rng)
        ok, _ = hmu_closure_member((0, *x))
        assert ok
    ok, _ = hmu_closure_member((0, 0, 0, 1))
    assert ok


def test_hmu_closure_rejects_big_a():
    ok, margin = hmu_closure_member((2, 0, 0, 0))
    assert not ok and margin < -0.5


def test_classify_hexa_reads_hmu_from_its_h_verdict(monkeypatch, rng):
    # H_mu is H without the fibre a = 0 over non-triangular x: at an
    # interior point classify_hexa evaluates open H once and no separate
    # H_mu test, and hmu_member coerces the point once
    import hexablock.autos as autos
    import hexablock.domains as domains
    import hexablock.numerics as numerics
    import hexablock.psi as psi
    mods = (numerics, psi, domains, hexa, autos)
    counts = {name: counted(monkeypatch, name, mods[first:])
              for name, first in (("h_member", 3), ("hmu_member", 3),
                                  ("_point4", 3), ("_tetra_terms", 1),
                                  ("tetra_interior_margin", 1))}

    def read():
        got = {name: c[0] for name, c in counts.items()}
        for c in counts.values():
            c[0] = 0
        return got

    for _ in range(20):
        p = rand_hexa_point(rng)
        read()
        classify_hexa(p)
        assert read() == {"h_member": 0, "hmu_member": 0, "_point4": 6,
                          "_tetra_terms": 7, "tetra_interior_margin": 3}, p
        hexa.hmu_member(p)
        assert read() == {"h_member": 0, "hmu_member": 1, "_point4": 1,
                          "_tetra_terms": 1, "tetra_interior_margin": 1}, p


def _hmu_fixtures(rng, tol):
    """The closed-H fixtures (a = 0 on triangular and non-triangular x, dE,
    bE, outside closed E, the near-circle family) and the same x with
    0 < |a| <= tol.  classify_hexa still overflows at |a| = 1e300, which
    is left out."""
    pts = [p for p in _closed_h_fixtures(rng) if abs(p[0]) < 1.0]
    return pts + [(0.5 * tol * rand_unit(rng), *p[1:]) for p in pts[::3]] \
        + [(tol * rand_unit(rng), *p[1:]) for p in pts[1::3]]


@pytest.mark.parametrize("tol", [TOL, 1e-6])
def test_classify_hexa_hmu_matches_hmu_member(rng, tol):
    cut = kept = 0
    for p in _hmu_fixtures(rng, tol):
        v = classify_hexa(p, tol)
        got = hmu_member(p, tol)
        assert repr((v.in_hmu, v.margins["hmu"])) == repr(got), p
        if got != (v.in_h, v.margins["h"]):
            cut += 1
            assert abs(complex(p[0])) <= tol and not got[0]
        else:
            kept += 1
    assert cut > 20 and kept > 200


# ---------------------------------------------------------------------------
# H_N
# ---------------------------------------------------------------------------

def test_hn_royal_disc_closed_iff_unimodular(rng):
    for _ in range(20):
        alpha = rng.uniform(0, 0.98)
        ok, _ = hn_member((alpha, 0, 0, 1), closed=True)
        assert not ok
    for _ in range(20):
        ok, _ = hn_member((rand_unit(rng), 0, 0, 1), closed=True)
        assert ok


def test_hn_epsilon_counterexample(rng):
    for eps in (0.1, 0.5, 0.9):
        ok, _ = hn_member((eps / 2, 0, eps / 2, eps / 2))
        assert not ok


def test_hn_biball_slice():
    ok, _ = hn_member((0.6, 0.6, 0, 0))
    assert ok  # |a|^2 + |x|^2 = 0.72 < 1
    ok2, _ = hn_member((0.8, 0.7, 0, 0))
    assert not ok2  # 1.13 > 1


def test_hn_matches_contraction_norms(rng):
    for _ in range(300):
        A = rand_mat(rng)
        p = pi_hexa(A)
        n = op_norm(A)
        if abs(n - 1.0) < 1e-6 or abs(p[0]) < 1e-6:
            continue
        ok, _ = hn_member(p)
        assert ok == (n < 1.0), (p, n)


def test_hn_member_open_takes_no_tetra_verdict(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(hexa, "tetra_classify",
                        lambda *args: calls.append(args))
    assert hn_member(pi_hexa(rand_contraction(rng)))[0]
    assert calls == []


def test_hn_interval_params():
    beta, wsq, m, M = hn_params((0, 0, 1))
    assert beta == pytest.approx(2.0)
    assert abs(wsq + 1) < 1e-12
    assert m == pytest.approx(1.0) and M == pytest.approx(1.0)
    # at the circle point (1, 0, 0) of the closed tetrablock, M = K*^-2 = 0
    assert hn_params((1, 0, 0)) == (0.0, 0.0, 0.0, 0.0)
    assert hn_member((0.5, 1, 0, 0), closed=True)[0] is False


@given(st_tetra_point(norm_range=(0.05, 0.999), min_margin=1e-6))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_hn_upper_end_is_k_star_inverse_square(x):
    # the normed hexablock's upper end M is K*^-2; m M = |x1 x2 - x3|^2
    beta, wsq, m, M = hn_params(x)
    assert abs(M * k_star(x) ** 2 - 1.0) <= 1e-13
    assert m * M == pytest.approx(abs(wsq) ** 2, rel=1e-14, abs=1e-300)
    assert m + M == pytest.approx(beta, rel=1e-12)


# ---------------------------------------------------------------------------
# H and its closure
# ---------------------------------------------------------------------------

def test_h_contains_tetra_slice(rng):
    for alpha in (0.1, 0.5j, -0.8):
        ok, _ = h_member((0, 0, 0, alpha))
        assert ok


def test_h_biball_slice(rng):
    for _ in range(100):
        a, x = (complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2))
        t = abs(a) ** 2 + abs(x) ** 2
        if abs(t - 1.0) < 1e-6:
            continue
        ok, _ = h_member((a, x, 0, 0))
        assert ok == (t < 1.0)


def test_h_closed_conjugate_slice(rng):
    # (a, x, conj(x), 1) in closed H iff |a|^2 + |x|^2 <= 1
    for _ in range(100):
        a, x = (complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2))
        t = abs(a) ** 2 + abs(x) ** 2
        if abs(t - 1.0) < 1e-5:
            continue
        ok, _ = h_member((a, x, x.conjugate(), 1), closed=True)
        assert ok == (t < 1.0), (a, x, t)


def test_h_member_consistency_with_hmu(rng):
    # H = H_mu union ({0} x E)
    for _ in range(300):
        p = rand_hexa_point(rng, slack=1.3)
        ok_h, mh = h_member(p)
        ok_mu, _ = hmu_member(p)
        if abs(mh) < 1e-7:
            continue
        assert ok_h == (ok_mu or (abs(p[0]) < 1e-12))


def test_open_h_where_k_star_is_infinite():
    # x = (x1, 1, x1) with |x1| = 1 is on dE, but its interior margin
    # rounds to 1.1e-16, which clears tol 0; K* is infinite there, and
    # open H reads 1 - |a| K* as closed H does: 1 at a = 0 (not 1 - 0 * inf
    # = nan) and -1 elsewhere (not -inf)
    x1 = 0.6151774449047079 - 0.7883886803350965j
    x = (x1, 1.0, x1)
    assert tetra_interior_margin(x) > 0.0 and k_star_closed(x) == math.inf
    p = (0.0, *x)
    assert h_member(p, tol=0.0) == hmu_member(p, tol=0.0) == (True, 1.0)
    v = classify_hexa(p, 0.0)
    assert v.in_h and v.in_hmu and v.in_hn and v.margins["h"] == 1.0
    p = (0.5, *x)
    assert h_member(p, tol=0.0) == hmu_member(p, tol=0.0) == (False, -1.0)
    assert h_member(p, closed=True, tol=0.0) == (False, -1.0)
    v = classify_hexa(p, 0.0)
    assert not (v.in_h or v.in_h_closure or v.in_hn_closure)
    assert v.margins["h"] == v.margins["hmu"] == -1.0


def test_h_member_below_the_refusal_margin():
    # the open test thresholds the interior margin (2e-10 here) at the
    # caller's tol and reads K* in closed form, with no refusal of its own
    p = (5e-11, 0.9999999999, 0, 0)
    ok, margin = h_member(p, tol=1e-11)
    assert ok and margin == pytest.approx(1 - 5e-11 / math.sqrt(1 - 0.9999999999 ** 2))
    v = classify_hexa(p, tol=1e-11)
    assert v.in_h and v.in_h_closure and v.margins["h"] == margin


def test_quasi_balanced_scaling(rng):
    for _ in range(100):
        p = rand_hexa_point(rng, slack=1.0)
        ok, margin = h_member(p, closed=True)
        if not ok:
            continue
        r = rng.uniform(0.1, 0.95)
        q = (r * p[0], r * p[1], r * p[2], r * r * p[3])
        ok_open, _ = h_member(q)
        assert ok_open


def test_coordinate_bound_lemma(rng):
    for _ in range(200):
        p = rand_hexa_point(rng, slack=0.999)
        a, x1, x2, _ = p
        assert abs(a) ** 2 + abs(x1) ** 2 <= 1.0 + 1e-9
        assert abs(a) ** 2 + abs(x2) ** 2 <= 1.0 + 1e-9


def test_projection_to_penta(rng):
    from hexablock.domains import penta_classify
    for _ in range(100):
        p = rand_hexa_point(rng)
        v = penta_classify(p[0], p[1] + p[2], p[3])
        assert v.in_interior, (p, v.margins)


# ---------------------------------------------------------------------------
# psi_sup and boundary classification
# ---------------------------------------------------------------------------

def test_psi_sup_methods(rng):
    x = rand_tetra_point(rng, min_margin=0.05)
    sup, witness, method = psi_sup((0.5, *x))
    assert method == "maximizer"
    assert sup == pytest.approx(0.5 * k_star(x), rel=1e-12)
    b = rand_be_point(rng)
    sup2, _, method2 = psi_sup((0.3, *b))
    assert method2 == "b_tetra"
    assert sup2 == pytest.approx(0.3 / math.sqrt(1 - abs(b[0]) ** 2), rel=1e-9)
    sup3, _, method3 = psi_sup((0.0, *x))
    assert sup3 == 0.0 and method3 == "zero"


def test_psi_sup_boundary_limit():
    # (0, r, 1-r) lies on dE off bE, where the supremum 1/sqrt(1-r) is a
    # limit at the torus zero (-1, 1) of the denominator: no witness
    for r in (0.3, 0.7):
        sup, witness, method = psi_sup((0.5, 0.0, r, 1.0 - r))
        assert method == "boundary_limit" and witness is None
        assert sup == pytest.approx(0.5 / math.sqrt(1.0 - r), rel=1e-12)
    # beside the corner |x1| = |x2| = 1 beta rounds to 0: K* is infinite
    r = 1.0 - 2e-9
    assert psi_sup((0.1, r, r, r * r)) == (math.inf, None, "boundary_limit")


def test_psi_sup_boundary_limit_matches_grid_oracle(rng):
    from hexablock.oracles import grid_sup_kappa
    from hexablock.psi import k_star_closed
    pts = de_points(rng)
    assert max(abs(x[0]) for x in pts) > 0.9999
    assert min(abs(x[0] * x[1] - x[2]) for x in pts) < 1e-4
    sups = []
    for x in pts:
        sup, witness, method = psi_sup((1.0, *x))
        assert method == "boundary_limit" and witness is None
        # within 6.7e-6 relative measured (oracle above and below)
        assert sup == pytest.approx(grid_sup_kappa(x)[0], rel=1e-4), x
        sups.append(sup)
    # numpy's complex modulus rounds apart from Python's, and beta cancels
    # to about 1e-4 as |x1| -> 1: 7.5e-12 measured
    closed = k_star_closed(columns(pts))
    assert np.max(np.abs(closed - sups) / closed) <= 1e-10


def test_h_closure_batch_matches_scalar(rng, monkeypatch):
    pts = []
    limit_points = 0
    for x in tetra_region_points(rng, 8):
        pts.append((0.0, *x))
        u = rand_unit(rng)
        if tetra_interior_margin(x) > 1e-9:
            # inside, on and outside the closure along the ray of u
            pts += [(u * s / k_star(x), *x) for s in (0.5, 1.0, 1.3)]
        elif tetra_classify(x).region is not Region.BOUNDARY:
            pts.append((0.3 * u, *x))
        elif limit_points < 2:
            # dE off bE with a != 0: the boundary-limit route of psi_sup
            pts.append((0.3 * u, *x))
            limit_points += 1
    scalar = [h_member(p, closed=True) for p in pts]
    calls = []
    core = hexa._closed_member
    monkeypatch.setattr(hexa, "_closed_member", lambda a, x, tol: (
        calls.append((a, *x)), core(a, x, tol))[1])
    flags, margins = h_closure_batch(columns(pts))
    assert flags.shape == margins.shape == (len(pts),)
    for i, (f, m) in enumerate(scalar):
        assert flags[i] == f, pts[i]
        assert abs(margins[i] - m) <= 1e-14 * max(1.0, abs(m)), pts[i]
    assert {True, False} <= set(f for f, _ in scalar)
    # the points outside the closed tetrablock, and those with a != 0 off
    # the maximizer route, go through the scalar core of h_member
    expect = [p for p in pts if tetra_classify(p[1:]).region is Region.EXTERIOR
              or (p[0] != 0 and not tetra_interior_margin(p[1:]) > 1e-9)]
    assert len(calls) == len(expect) < len(pts) / 2
    assert [complex(t) for p in calls for t in p] == \
        [complex(t) for p in expect for t in p]


def test_h_closure_margins_take_k_star_from_the_verdict(rng):
    # K* from the tetrablock verdict's terms, on all points at once, is
    # k_star_closed bit for bit where the margin reads it, near dE as well
    from hexablock.psi import REFUSE_MARGIN, k_star_closed
    pts = []
    for k in range(1, 9):
        for _ in range(6):
            A = rand_mat(rng)
            x = pi_tetra(A.scaled((1.0 - 10.0 ** -k) / mu_value(A, "tetra")))
            pts.append((rand_unit(rng) * rng.uniform(0.0, 1.2) / k_star(x), *x))
    a, *x = columns(pts)
    flags, margins, tm = hexa._h_closure_arrays(a, *x, 1e-9)
    routed = tm["part3"] > REFUSE_MARGIN
    assert routed.sum() >= 40 and tm["part3"][routed].min() < 1e-6
    want = 1.0 - abs(a[routed]) * k_star_closed(tuple(t[routed] for t in x))
    assert margins[routed].tobytes() == want.tobytes()
    assert (flags == (margins >= -1e-9)).all()


def test_classify_boundary_d0(rng):
    parts, _ = classify_boundary((0, 0.3, 0, 0.7))
    assert parts == {"d0"}


def test_classify_boundary_d1(rng):
    for _ in range(20):
        x = rand_tetra_point(rng, min_margin=0.05)
        a = rand_unit(rng) / k_star(x)
        parts, witness = classify_boundary((a, *x))
        assert "d1" in parts
        assert witness is not None


def test_classify_boundary_d2(rng):
    for _ in range(20):
        b = rand_be_point(rng, 0.8)
        a = 0.25 * rand_unit(rng) * math.sqrt(1 - abs(b[0]) ** 2)
        parts, _ = classify_boundary((a, *b))
        assert "d2" in parts


def test_classify_boundary_d2_off_distinguished(rng):
    # (a, 0, r, 1-r) sits over dE off bE; the supremum 1/sqrt(1-r) is a
    # corner limit, so even a at the critical height gives d2 without d1
    for r in (0.3, 0.7):
        x = (0.0, r, 1.0 - r)
        crit = math.sqrt(1.0 - r)
        parts, _ = classify_boundary((0.2 * crit, *x))
        assert parts == {"d2"}
        parts_crit, _ = classify_boundary((crit, *x))
        assert parts_crit == {"d2"}


def test_classify_hexa_no_grid_call_off_bE(monkeypatch):
    # (a, 0, r, 1-r) lies over dE off bE: its supremum is a closed form
    from hexablock import oracles
    calls = []
    monkeypatch.setattr(oracles, "grid_sup_kappa",
                        lambda *args: calls.append(args))
    v = classify_hexa((0.5, 0.0, 0.3, 0.7))
    assert v.in_h_closure and not v.in_h
    assert v.boundary_parts == {"d2"}
    assert calls == []


def test_classify_boundary_overlap(rng):
    # sup = 1 attained on bE: both d1 and d2
    b = rand_be_point(rng, 0.7)
    a = rand_unit(rng) * math.sqrt(1 - abs(b[0]) ** 2)
    parts, witness = classify_boundary((a, *b))
    assert parts == {"d1", "d2"}


def test_classify_boundary_rejects_interior(rng):
    with pytest.raises(DomainError):
        classify_boundary((0, 0, 0, 0))


def test_psi_sup_outside_the_closed_tetrablock():
    # |x3| = 1.5: psi_{z1,z2} is undefined, there is no supremum, and the
    # point lies outside closed H, so not on its boundary
    p = (0.5, 0, 0, 1.5)
    assert psi_sup(p) == (None, None, "exterior")
    with pytest.raises(DomainError, match="point is not on the boundary of H"):
        classify_boundary(p)


def test_tol_zero_verdicts_on_the_unit_x3_circle(rng):
    # at tol = 0 the boundary margins that are rounding noise abstain
    # (domains.VOTE_FLOOR) instead of splitting a vote: points of bE and
    # points with |x3| = 1 off bE, with |a|^2 + |x1|^2 <= 1
    for i in range(600):
        if i % 2:
            x = rand_be_point(rng)
        else:
            x = (rand_disc(rng, 0.9), rand_disc(rng, 0.9), rand_unit(rng))
        a = rand_unit(rng) * rng.uniform() * math.sqrt(1.0 - abs(x[0]) ** 2)
        p = (a, *x)
        ok, margin = h_member(p, closed=True, tol=0.0)
        v = classify_hexa(p, 0.0)
        assert (v.in_h_closure, v.margins["h_closure"]) == (ok, margin)


# ---------------------------------------------------------------------------
# Distinguished boundary
# ---------------------------------------------------------------------------

def test_bh_examples():
    assert bh_member((1, 0, 0, 1))[0]
    assert bh_member((0, 1, 1, 1))[0]
    assert not bh_member((0.5, 0, 0, 1))[0]
    assert not bh_member((1, 0, 0, 0.5))[0]


def test_hp_param_hits_bh(rng):
    for _ in range(300):
        theta = rng.uniform(0, 2 * math.pi)
        z = complex(*rng.normal(0, 1, 2))
        w = complex(*rng.normal(0, 1, 2))
        n = math.hypot(abs(z), abs(w))
        p = hp_param(theta, z / n, w / n)
        ok, margin = bh_member(p)
        assert ok and abs(margin) <= 1e-12
    with pytest.raises(DomainError):
        hp_param(0.3, 1.0, 1.0)


def test_bh_parametric_roundtrip(rng):
    # criterion-based bH points are reproduced by the parametrization:
    # theta = arg(x3), w = x1, z = -exp(-i theta) a
    for _ in range(100):
        b = rand_be_point(rng)
        a = rand_unit(rng) * math.sqrt(1.0 - abs(b[0]) ** 2)
        p = (a, *b)
        assert bh_member(p)[0]
        theta = math.atan2(p[3].imag, p[3].real)
        e = complex(math.cos(theta), math.sin(theta))
        q = hp_param(theta, -a / e, p[1])
        assert max(abs(complex(u) - complex(v))
                   for u, v in zip(p, q)) < 1e-12


def test_bh_inside_closure(rng):
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi)
        z = complex(*rng.normal(0, 1, 2))
        w = complex(*rng.normal(0, 1, 2))
        n = math.hypot(abs(z), abs(w))
        p = hp_param(theta, z / n, w / n)
        ok, margin = h_member(p, closed=True)
        assert ok or margin >= -1e-8


# ---------------------------------------------------------------------------
# Verdict lattice
# ---------------------------------------------------------------------------

def test_classify_hexa_lattice(rng):
    for _ in range(200):
        kind = rng.integers(0, 4)
        if kind == 0:
            p = rand_hexa_point(rng, slack=1.4)
        elif kind == 1:
            p = pi_hexa(rand_contraction(rng, 1.2))
        elif kind == 2:
            x = rand_tetra_point(rng)
            p = (0, *x)
        else:
            p = tuple(complex(*rng.uniform(-1.1, 1.1, 2)) for _ in range(4))
        classify_hexa(p)  # lattice violations raise


@pytest.mark.parametrize("p, tol", [
    ((1e-12, 1.0, 1.0, 1.0), TOL),
    ((1e-12, 1.0, 1.0, 1.0), 1e-6),
    # K* is finite here (6.7e7): 1 - |a| K* = -6.7e6 against tol 0.5
    ((0.1, 0.9999896026888706 + 0.004560100235139419j,
      -0.9705677598410362 + 0.24082820340888814j,
      -0.971655869293058 + 0.23639981317325873j), 0.5),
])
def test_hn_band_at_small_a_reads_the_h_margin(p, tol):
    # for 0 < |a| <= tol H_N is decided as a = 0 on triangularity, and
    # also on H's own 1 - |a| K*, so closed H_N <= closed H holds
    v = classify_hexa(p, tol)
    closed_h = h_member(p, closed=True, tol=tol)
    assert not v.in_hn_closure and not v.in_hn and not closed_h[0]
    assert hn_member(p, closed=True, tol=tol)[1] \
        <= min(closed_h[1], -abs(p[1] * p[2] - p[3]))
    # a = 0 itself is decided on triangularity alone, as before
    zero = (0.0, *p[1:])
    assert hn_member(zero, closed=True, tol=tol) == \
        (True, -abs(p[1] * p[2] - p[3]))


def test_hmu_strictly_larger_than_hn(rng):
    # sampling finds points of H_mu off H_N
    found = 0
    for _ in range(500):
        A = rand_mat(rng)
        p = pi_hexa(A)
        v = classify_hexa(p)
        if v.in_hmu and not v.in_hn:
            found += 1
    assert found > 0


# ---------------------------------------------------------------------------
# Structured singular values
# ---------------------------------------------------------------------------

def test_mu_nilpotent_example():
    A = Mat2(0, 5, 0, 0)
    assert op_norm(A) == pytest.approx(5.0)
    assert mu_value(A, "hexa") <= 1.0
    assert mu_value(A, "hexa") == pytest.approx(0.0, abs=1e-9)


def test_mu_m_over_n_example():
    A = Mat2(0, 2, -0.25, 0)
    assert mu_value(A, "hexa") <= 1.0 <= 2.0 == pytest.approx(op_norm(A))
    # here mu_hexa equals the spectral radius 1/sqrt(2)
    assert mu_value(A, "hexa") == pytest.approx(1 / math.sqrt(2), abs=1e-8)


def test_mu_tetra_diagonal(rng):
    for _ in range(30):
        z1 = rand_disc(rng, 2.0)
        z2 = rand_disc(rng, 2.0)
        A = Mat2(z1, 0, 0, z2)
        assert mu_value(A, "tetra") == pytest.approx(max(abs(z1), abs(z2)),
                                                     abs=1e-8)


def test_mu_nested_chains(rng):
    # only the inclusion-driven chains hold: diagonal and span{I, e12}
    # perturbations are not nested, so mu_tetra and mu_penta are not
    # comparable in general
    for _ in range(120):
        A = rand_mat(rng)
        r = spectral_radius(A)
        mt = mu_value(A, "tetra")
        mp = mu_value(A, "penta")
        mh = mu_value(A, "hexa")
        n = op_norm(A)
        assert r <= mt + 1e-6
        assert r <= mp + 1e-6
        assert mt <= mh + 1e-6
        assert mp <= mh + 1e-6
        assert mh <= n + 1e-6


def test_mu_homogeneity(rng):
    for _ in range(40):
        A = rand_mat(rng)
        base = mu_value(A, "hexa")
        for r in (0.25, 0.5, 2.0):
            assert mu_value(A.scaled(r), "hexa") == pytest.approx(
                r * base, abs=1e-6 * max(1, r * base), rel=1e-6)


def test_mu_oracle_agreement(rng):
    for _ in range(15):
        A = rand_mat(rng)
        mh = mu_value(A, "hexa")
        mo = mu_bruteforce(A)
        assert abs(mo - mh) / max(mh, 1e-3) <= 2e-2


def _triangular_mats(rng, zero, count):
    """Seeded Gaussian matrices with the entry `zero` ("a12" or "a21") set
    to 0."""
    out = []
    for _ in range(count):
        m = [complex(*rng.normal(0.0, 1.0, 2)) for _ in range(4)]
        m[1 if zero == "a12" else 2] = 0.0
        out.append(Mat2(*m))
    return out


def test_mu_hexa_upper_triangular_closed_form():
    # a21 = 0: det(I - A Delta) does not involve the corner of Delta, so
    # mu_hexa = mu_tetra = max(|a11|, |a22|)
    rng = np.random.default_rng(7)
    for k, A in enumerate(_triangular_mats(rng, "a21", 150)):
        mh = mu_value(A, "hexa")
        assert mh == max(abs(A.a11), abs(A.a22))
        assert mu_value(A, "tetra") == pytest.approx(mh, rel=1e-12)
        if k < 3:
            assert abs(mu_bruteforce(A) - mh) <= 2e-2 * max(mh, 1e-3)


def test_mu_penta_upper_triangular_pinned():
    # span{I, e12} lies in the upper-triangular matrices, so on
    # upper-triangular A: r(A) <= mu_penta <= mu_hexa = r(A)
    assert mu_value(Mat2(1, 1, 0, 1), "penta") == 1.0
    assert mu_value(Mat2(0.5, 0.3, 0, 0.5), "penta") == 0.5


def test_mu_penta_upper_triangular_closed_form():
    rng = np.random.default_rng(7)
    for k, A in enumerate(_triangular_mats(rng, "a21", 150)):
        mp = mu_value(A, "penta")
        assert mp == max(abs(A.a11), abs(A.a22))
        assert mp == pytest.approx(
            max(abs(np.linalg.eigvals(A.to_array()))), rel=1e-12)
        if k < 20:
            # the voting classifier puts pi_P(A/t) inside P just above mu
            # and outside just below
            for t, inside in ((1.001 * mp, True), (0.999 * mp, False)):
                B = A.scaled(1.0 / t)
                assert penta_classify(B.a21, B.trace, B.det).in_interior \
                    == inside


def test_mu_hexa_lower_triangular_closed_form():
    # a12 = 0: K* factors on triangular points and mu_hexa = ||A||
    rng = np.random.default_rng(7)
    for k, A in enumerate(_triangular_mats(rng, "a12", 150)):
        mh = mu_value(A, "hexa")
        assert mh == pytest.approx(np.linalg.norm(A.to_array(), 2), rel=1e-12)
        assert mh >= abs(A.a21)
        if k < 3:
            assert abs(mu_bruteforce(A) - mh) <= 2e-2 * max(mh, 1e-3)


def test_mu_hexa_straddles_h_membership():
    # pi_H(A/t) lies in H just above t = mu_hexa and outside just below, on
    # both branches: mu_hexa = mu_tetra (|a12| > |a21|) and ||A||
    rng = np.random.default_rng(8)
    branches = set()
    for _ in range(400):
        A = rand_mat(rng)
        mh = mu_value(A, "hexa")
        branches.add(abs(A.a12) > abs(A.a21))
        assert h_member(pi_hexa(A.scaled(1.0 / (mh * (1 + 1e-6)))))[0]
        assert not h_member(pi_hexa(A.scaled(1.0 / (mh * (1 - 1e-6)))))[0]
    assert branches == {True, False}


def test_mu_penta_straddles_p_membership():
    # pi_P(A/t) lies in P just above t = mu_penta and outside just below
    rng = np.random.default_rng(12)
    for _ in range(400):
        A = rand_mat(rng)
        mp = mu_value(A, "penta")
        for t, inside in ((mp * (1 - 1e-6), False), (mp * (1 + 1e-6), True)):
            v = penta_classify(*pi_penta(A.scaled(1.0 / t)))
            assert v.in_interior == inside, (A, t)


def _mu_penta_reference(A):
    """(mu_penta, g2_decides) from the closed form at 50 digits:
    max(|a11|, |a22|) at a21 = 0; r(A) where |tr^2 - 4 det| >= 4|a21|^2
    (g2_decides: the pentablock's G2 part bounds the scaling there);
    otherwise mu^2 = (b + sqrt(b^2 - 4|det|^2))/2 with b = |tr|^2/2 +
    |a21|^2 + |tr^2 - 4 det|^2/(16|a21|^2)."""
    import mpmath
    with mpmath.workdps(50):
        a11, a12, a21, a22 = (mpmath.mpc(complex(t))
                              for t in (A.a11, A.a12, A.a21, A.a22))
        if a21 == 0:
            return float(max(abs(a11), abs(a22))), False
        tr, det = a11 + a22, a11 * a22 - a12 * a21
        disc, r2 = tr * tr - 4 * det, abs(a21) ** 2
        if abs(disc) >= 4 * r2:
            root = mpmath.sqrt(disc)
            return float(max(abs(tr + root), abs(tr - root)) / 2), True
        b = abs(tr) ** 2 / 2 + r2 + abs(disc) ** 2 / (16 * r2)
        return float(mpmath.sqrt((b + mpmath.sqrt(b * b - 4 * abs(det) ** 2))
                                 / 2)), False


def test_mu_penta_matches_the_closed_form_at_50_digits():
    # the bisection brackets the scale where its strict criterion (every
    # margin above TOL = 1e-9) turns: never below mu_penta by more than its
    # width 1e-9 ||A||; above it by a few widths where c_plus decides, and
    # where the G2 part decides (mu = r(A)) by TOL over the growth of the G2
    # closure margin, which vanishes as the eigenvalues of A meet: below
    # sqrt(TOL) ||A||
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(2025)
    mats = []
    for _ in range(200):
        A = rand_mat(rng)
        mats.append(A)
        mats.append(A.scaled(10.0 ** rng.choice([-3, 3])))
        a11, a12, a21, a22 = (rand_complex(rng) for _ in range(4))
        mats.append(Mat2(a11, a12, 10.0 ** rng.uniform(-7, -2) * rand_unit(rng),
                         a22))
        # on the branch switch |tr^2 - 4 det| = 4|a21|^2
        a12 = (4 * abs(a21) ** 2 * rand_unit(rng) - (a11 - a22) ** 2) / (4 * a21)
        mats.append(Mat2(a11, a12, a21, a22))
        # eigenvalues near each other, where the G2 margin grows slowest
        gap = 10.0 ** rng.uniform(-5, 0) * abs(a11) * rand_unit(rng)
        mats.append(Mat2(a11, rand_complex(rng),
                         10.0 ** rng.uniform(-9, 0) * rand_unit(rng), a11 + gap))
    branches = {True: 0, False: 0}
    for A in mats:
        ref, g2_decides = _mu_penta_reference(A)
        branches[g2_decides] += 1
        n = op_norm(A)
        err = mu_value(A, "penta") - ref
        assert err >= -1e-9 * n, A
        assert err <= (3.2e-5 if g2_decides else 5e-9) * n, A
    assert min(branches.values()) >= 200


def test_penta_member_matches_scaled_matrix(monkeypatch):
    # the bisection step scales inline with the arithmetic of Mat2.scaled,
    # so it classifies exactly the coordinates of pi_P(A/t)
    rng = np.random.default_rng(13)
    seen = []

    def spy(*args):
        seen.append(args)
        return penta_classify(*args)

    monkeypatch.setattr(hexa, "penta_classify", spy)
    cases = 0
    for k in range(1000):
        A = rand_mat(rng, 10.0 ** (k % 7 - 3))
        mp = mu_value(A, "penta")
        n = op_norm(A)
        ts = [mp * (1.0 + d) for d in (1e-9, -1e-9, 3e-10, -3e-10)]
        ts += [float(u) * n for u in rng.uniform(0.3, 2.0, 6)]
        for t in ts:
            seen.clear()
            got = hexa._penta_member(A, t)
            want = pi_penta(A.scaled(1.0 / t))
            assert repr(seen) == repr([(*want, 1e-9)])
            assert got == penta_classify(*want, 1e-9).in_interior
            cases += 1
    assert cases == 10 ** 4


def test_mu_hexa_dense_matches_bruteforce():
    rng = np.random.default_rng(9)
    mats = [rand_mat(rng) for _ in range(12)]
    picked = [next(A for A in mats if abs(A.a12) > abs(A.a21)),
              next(A for A in mats if abs(A.a12) < abs(A.a21)),
              Mat2(0.3 + 0.1j, 0.2, 0.2j, -0.4)]
    for A in picked:
        mh = mu_value(A, "hexa")
        assert abs(mu_bruteforce(A) - mh) <= 2e-2 * max(mh, 1e-3)


def test_mu_hexa_evaluates_no_membership(monkeypatch):
    # mu_hexa is a closed form: no membership test, no bisection
    def refuse(*args, **kwargs):
        raise AssertionError("membership evaluated")

    for name in ("k_star", "tetra_interior_margin", "penta_classify",
                 "tetra_classify", "h_member"):
        monkeypatch.setattr(hexa, name, refuse)
    rng = np.random.default_rng(10)
    for _ in range(50):
        A = rand_mat(rng)
        assert mu_value(A, "hexa") in (op_norm(A), hexa._mu_tetra(A))


def test_k_star_users_take_no_maximizer(monkeypatch, rng):
    # K* is one closed form; the maximizer runs only for psi_sup's witness,
    # once per interior classify_hexa, and never for the pentablock vote
    # nor for closed-H membership, also as the automorphisms' input check
    import hexablock.domains as domains
    import hexablock.psi as psi
    import hexablock.realslice as realslice
    from hexablock.realslice import K_real
    calls = []
    core = psi._witness
    for mod in (psi, domains, hexa, realslice):
        if getattr(mod, "_witness", None) is core:
            monkeypatch.setattr(mod, "_witness",
                                lambda *x: (calls.append(x), core(*x))[1])
    T = rand_hexaaut(rng)
    for _ in range(30):
        p = rand_hexa_point(rng)
        x = p[1:]
        calls.clear()
        classify_hexa(p)
        assert len(calls) == 1
        calls.clear()
        k_star(x), h_member(p), hartogs_u(x), k_star(columns([x, x]))
        h_member(p, closed=True), hmu_closure_member(p)
        hexa_aut_apply(T, p, check=True)
        assert calls == []
    x = (0.3, -0.2, 0.1)
    assert K_real(x) == pytest.approx(1.0 / k_star(x), rel=1e-15)
    routes = 0
    for _ in range(40):
        routes += "psi_sup" in penta_classify(
            *pi_penta(rand_contraction(rng, 0.95))).margins
        mu_value(rand_mat(rng), "penta")
    assert routes == 40
    assert calls == []


def _closed_h_fixtures(rng):
    """Points of every closed-H route, as (a, x1, x2, x3): inside H,
    outside closed E, a = 0, |x1| = 1 (K* infinite), dE off bE, bE, the
    near-circle family (sqrt(1 - r^2) u, x1, conj(x1) x3, x3), r = |x1| =
    1 - 5 10^-k, and a just inside, on and just outside |a| K* = 1."""
    pts = [rand_hexa_point(rng) for _ in range(40)]
    for x in tetra_region_points(rng, 10):
        pts += [(0.0, *x), (0.3 * rand_unit(rng), *x)]
    pts += [(0.3, 1.0, 0.0, 0.0), (0.2j, 1.0, 1.0, 1.0),
            (0.1, 1j, 0.2, 0.2j), (1e300, 0.1, 0.2, 0.0)]
    for x in de_points(rng)[::10]:
        pts += [(rand_unit(rng) * s / k_star_closed(x), *x)
                for s in (0.5, 1.0, 1.5)]
    for _ in range(20):
        x = rand_be_point(rng)
        pts += [(rand_unit(rng) * s * math.sqrt(1.0 - abs(x[0]) ** 2), *x)
                for s in (0.5, 1.0, 1.1)]
    for k in range(8, 16):
        for _ in range(6):
            r = 1.0 - 5.0 * 10.0 ** -k
            x1, x3 = r * rand_unit(rng), rand_unit(rng)
            pts.append((math.sqrt(1.0 - r * r) * rand_unit(rng), x1,
                        x1.conjugate() * x3, x3))
    for _ in range(20):
        x = rand_tetra_point(rng, min_margin=1e-3)
        pts += [(rand_unit(rng) * (1.0 + e) / k_star(x), *x)
                for e in (-1e-9, 0.0, 1e-9)]
    return pts


def test_closed_member_matches_the_closure_test(rng):
    # h_member(p, closed=True) takes K* from the terms of its one tetrablock
    # verdict; classify_hexa's _closure_test reads |a| K* through psi_sup.
    # The two routes give the same floats on every route of the test
    routes = set()
    for p in _closed_h_fixtures(rng):
        for tol in (TOL, AUT_CHECK_TOL):
            got = h_member(p, closed=True, tol=tol)
            assert repr(got) == repr(hexa._closure_test(p, tol)[0]), p
            assert repr(hmu_closure_member(p, tol)) == repr(got)
            routes.add(got if got in ((True, 1.0), (False, -1.0)) else
                       ("exterior" if tetra_classify(p[1:], tol).region
                        is Region.EXTERIOR else got[0]))
    assert routes == {(True, 1.0), (False, -1.0), "exterior", True, False}


def test_closed_membership_is_one_tetrablock_pass(monkeypatch, rng):
    # closed-H membership, also as the input check of hexa_aut_apply, is
    # one tetrablock verdict on the point coerced once, with no maximizer
    import hexablock.autos as autos
    import hexablock.domains as domains
    import hexablock.numerics as numerics
    import hexablock.psi as psi
    mods = (numerics, psi, domains, hexa, autos)
    pts = _closed_h_fixtures(rng)
    T = rand_hexaaut(rng)
    terms = counted(monkeypatch, "_tetra_terms", mods[1:])
    verdicts = counted(monkeypatch, "_tetra_verdict", mods[2:])
    witness = counted(monkeypatch, "_witness", mods[1:])
    coerce = counted(monkeypatch, "cx", mods)
    calls = {"h_member": lambda p: h_member(p, closed=True),
             "hmu_closure_member": hmu_closure_member,
             "hexa_aut_apply": lambda p: hexa_aut_apply(T, p, check=True)}
    refused = 0
    for p in pts:
        for name, call in calls.items():
            for c in (terms, verdicts, witness, coerce):
                c[0] = 0
            try:
                call(p)
            except DomainError:
                refused += 1
            assert (terms[0], verdicts[0], witness[0]) == (1, 1, 0), (name, p)
            assert coerce[0] <= 4, (name, p)
    assert 0 < refused < len(pts) / 2


def test_mu_homogeneous_at_small_scales():
    # the bisection width is relative to ||A||, so mu(cA) = |c| mu(A) holds
    # to the bisection's 1e-9 at every scale
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rand_mat(rng)
        for s in ("penta", "hexa"):
            base = mu_value(A, s)
            for c in (1e-6, 1e-8):
                assert mu_value(A.scaled(c), s) == pytest.approx(c * base,
                                                                 rel=1e-8)


@pytest.mark.parametrize("c", [1e-302, 1e-100, 1e-80, 2.0 ** -1000, 1e80,
                               2.0 ** 1000])
def test_mu_and_norms_at_every_scale(c):
    # products of four entries underflow or overflow far inside the float
    # range; each value is recomputed on A scaled by a power of two.  At
    # 1e-302 every value used to read 0
    A = Mat2(1, 2, 1, 0).scaled(c)
    for s in ("tetra", "penta", "hexa", "spectral"):
        assert mu_value(A, s) / c == pytest.approx(2.0, rel=1e-9), s
    smax, smin = singular_values(A)
    assert op_norm(A) == smax
    assert smax / c == pytest.approx(2.2882456112707374, rel=1e-15)
    assert smin / c == pytest.approx(2.0 / 2.2882456112707374, rel=1e-15)


_part = st.floats(-1.0, 1.0).filter(lambda t: t == 0.0 or abs(t) >= 2.0 ** -20)


@given(st.lists(st.builds(complex, _part, _part), min_size=4, max_size=4),
       st.integers(-1000, 1000))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mu_scales_by_powers_of_two(entries, k):
    # A with its largest entry part in [1/2, 1), then 2^k A exactly.  A value
    # recomputed at unit scale, and a penta value off its mu_hexa cap, is
    # 2^k mu(A) bit for bit; an in-range value comes from today's
    # arithmetic at the scale of 2^k A, whose float powers (libm pow) round
    # apart by an ulp or so
    big = max(abs(t) for z in entries for t in (z.real, z.imag))
    assume(big > 0.0)
    e = math.frexp(big)[1]

    def scaled(n):
        return Mat2(*(complex(math.ldexp(z.real, n), math.ldexp(z.imag, n))
                      for z in entries))

    A, B = scaled(-e), scaled(k - e)
    for s in ("tetra", "penta", "hexa", "spectral", "norm"):
        got, want = mu_value(B, s), math.ldexp(mu_value(A, s), k)
        capped = s == "penta" and got == mu_value(B, "hexa")
        if not capped and (s == "penta" or not SCALE_LO <= got <= SCALE_HI):
            assert got == want, s
        else:
            assert got == pytest.approx(want, rel=1e-15), s


@given(st.lists(st_entry.filter(lambda z: abs(z) > 1e-3), min_size=4,
                max_size=4))
# the penta bisection read 2.015564470 here, 1.6e-8 above the exact
# r(A) = mu_tetra = mu_hexa = 2.0155644371
@example([2j, -0.5j, 0.125j, 2j])
@settings(max_examples=150, deadline=None)
def test_mu_hexa_dense_bounds(entries):
    # diagonal, span{I, e12} and [[0, 1/a21], [0, 0]] perturbations are
    # all upper triangular
    A = Mat2(*entries)
    mh, n = mu_value(A, "hexa"), op_norm(A)
    slack = 1e-8 * n
    assert max(mu_value(A, "tetra"), mu_value(A, "penta"), abs(A.a21)) \
        <= mh + slack
    assert mh <= n + slack


@given(st.lists(st_entry, min_size=4, max_size=4),
       st.sampled_from([None, 1, 2]), st_entry.filter(lambda c: abs(c) > 0.1))
@settings(max_examples=150, deadline=None)
def test_mu_hexa_bounds_and_homogeneity(entries, zero, c):
    # dense, upper-triangular (a21 = 0) and lower-triangular (a12 = 0)
    if zero is not None:
        entries[zero] = 0.0
    A = Mat2(*entries)
    mh, mt, n = mu_value(A, "hexa"), mu_value(A, "tetra"), op_norm(A)
    slack = 1e-8 * max(1.0, n)
    assert max(mt, abs(A.a21)) <= mh + slack
    assert mh <= n + slack
    if zero is not None:
        # span{I, e12} lies in the upper-triangular matrices
        assert mu_value(A, "penta") <= mh + 1e-9 * n
    for s, base in (("hexa", mh), ("tetra", mt)):
        assert mu_value(A.scaled(c), s) == pytest.approx(
            abs(c) * base, rel=1e-6, abs=1e-8 * max(1.0, abs(c) * n))


_scale = st.builds(lambda e, u: 10.0 ** e * u, st.floats(-3, 3), st_unit)


@given(st.lists(st_entry, min_size=4, max_size=4), _scale)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_mu_penta_homogeneity(entries, c):
    # the bisection width is relative to ||A||: mu(cA) = |c| mu(A)
    A = Mat2(*entries)
    base = mu_value(A, "penta")
    assert mu_value(A.scaled(c), "penta") == pytest.approx(
        abs(c) * base, rel=1e-6, abs=1e-9 * abs(c) * op_norm(A))


@given(st_tetra_point(norm_range=(0.05, 1.3)), st.floats(0.0, 2.0), st_unit)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_hexa_verdict_lattice(x, f, u):
    # H_N <= H_mu <= H <= closure, and the same for interiors and closures;
    # |a| is f / K*(x) where the maximizer applies, else f
    m = tetra_interior_margin(x)
    v = classify_hexa((u * f / (k_star(x) if m > 1e-9 else 1.0), *x))
    for low, high in ((v.in_hn, v.in_hmu), (v.in_hmu, v.in_h),
                      (v.in_h, v.in_h_closure), (v.in_int_hn, v.in_int_hmu),
                      (v.in_int_hmu, v.in_hmu), (v.in_hn, v.in_hn_closure),
                      (v.in_hn_closure, v.in_h_closure)):
        assert high or not low


def _mp_margins(a, x):
    """(1 - |a| K*, min(1 - |a| K*, 1 - sqrt(m)/|a|)) at 50 digits, the
    margins of closed H and closed H_N: M = K*^-2 = (beta + sqrt(D))/2 and
    m = |x1 x2 - x3|^2 / M."""
    import mpmath
    with mpmath.workdps(50):
        a, x1, x2, x3 = (mpmath.mpc(t) for t in (a, *x))
        beta = 1 - abs(x1) ** 2 - abs(x2) ** 2 + abs(x3) ** 2
        v2 = abs(x1 * x2 - x3) ** 2
        M = (beta + mpmath.sqrt(max(beta ** 2 - 4 * v2, 0))) / 2
        h = 1 - abs(a) / mpmath.sqrt(M)
        return float(h), float(min(h, 1 - mpmath.sqrt(v2 / M) / abs(a)))


def test_hexa_lattice_near_dE(rng):
    # H_N <= H reads one K*: no ConsistencyError next to bH or dE, and
    # each closure agrees with 50 digits wherever they are decisive
    pytest.importorskip("mpmath")
    import mpmath
    tol = 1e-9
    cases = []
    # (a) bH points (a(1 + eps), x): |a| K* = 1 + eps at the exact point
    for _ in range(60):
        w = rand_disc(rng, 0.95)
        z = rand_unit(rng) * math.sqrt(1.0 - abs(w) ** 2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        a, *x = hp_param(theta, z, w)
        with mpmath.workdps(50):
            zm, wm = mpmath.mpc(z), mpmath.mpc(w)
            r = mpmath.sqrt(abs(zm) ** 2 + abs(wm) ** 2)
            e = mpmath.expjpi(mpmath.mpf(theta) / mpmath.pi)
            exact = (-e * zm / r, wm / r, e * mpmath.conj(wm) / r, e)
            for eps in (0.0, 1e-9, 2e-9, 1e-7, 1e-5, 1e-4):
                cases.append(((a * (1 + eps), *x),
                              _mp_margins(exact[0] * (1 + mpmath.mpf(eps)),
                                          exact[1:])))
    # (b) x = pi_E((1 - 10^-k) A / mu_E(A)) inside E next to dE, and
    # |a| = s / K*(x)
    for _ in range(30):
        A = rand_mat(rng)
        mu = mu_value(A, "tetra")
        u = rand_unit(rng)
        for k in range(2, 13):
            x = pi_tetra(A.scaled((1.0 - 10.0 ** -k) / mu))
            K = k_star_closed(x)
            for s in (1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1e-5, 1 + 1e-5, 1 + 1e-4):
                p = (u * s / K, *x)
                cases.append((p, _mp_margins(p[0], x)))
    decided = 0
    for p, margins in cases:
        v = classify_hexa(p)
        for flag, margin in zip((v.in_h_closure, v.in_hn_closure), margins):
            if abs(margin) >= 2 * tol:
                assert flag == (margin > 0), (p, margins)
                decided += 1
    assert decided > len(cases)
    # (c) bH points with |x1| = r = 1 - 5 10^-k, within tol of the circle
    # for k >= 9: at (a(1 + eps), x) the supremum is finite, |a| K* = 1 + eps,
    # and closed H_N on bE is |a|^2 = M alone.  Rounding, of the inputs and
    # of beta's sum, moves beta = 2(1 - r^2) by about 1e-16, so a verdict is
    # decisive where |eps| exceeds 2 tol by 1e-15/beta.
    decided = 0
    for _ in range(20):
        t, s, phase = rng.uniform(0.0, 2.0 * math.pi, 3)
        for k in range(8, 16):
            r = 1.0 - 5.0 * 10.0 ** -k
            x1, x3 = r * cmath.exp(1j * t), cmath.exp(1j * s)
            x = (x1, x1.conjugate() * x3, x3)
            beta = 2.0 * (1.0 - r * r)
            for eps in (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5, 1e-4):
                p = (cmath.exp(1j * phase) * math.sqrt(1.0 - r * r)
                     * (1.0 + eps), *x)
                assert psi_sup(p)[2] == "b_tetra", p
                v = classify_hexa(p)
                if abs(eps) >= 2 * tol + 1e-15 / beta:
                    assert v.in_h_closure == (eps < 0), p
                    assert not v.in_hn_closure, p
                    decided += 1
    assert decided > 300


def test_mu_structures_spectral_norm(rng):
    A = rand_mat(rng)
    assert mu_value(A, "norm") == op_norm(A)
    assert mu_value(A, "spectral") == spectral_radius(A)
    with pytest.raises(DomainError):
        mu_value(A, "banana")


# ---------------------------------------------------------------------------
# Hartogs potential
# ---------------------------------------------------------------------------

def test_hartogs_values(rng):
    assert hartogs_u((0, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    for _ in range(10):
        x1 = rand_disc(rng, 0.8)
        assert hartogs_u((x1, 0, 0)) == pytest.approx(
            math.log(1.0 / (1.0 - abs(x1) ** 2)), rel=1e-10)
    assert hartogs_u((0.5, 0.5, 0.25)) == pytest.approx(2 * math.log(4 / 3),
                                                        rel=1e-10)


def test_hartogs_describes_membership(rng):
    for _ in range(50):
        x = rand_tetra_point(rng, min_margin=0.02)
        u = hartogs_u(x)
        a_in = 0.9 * math.exp(-u / 2.0)
        a_out = 1.1 * math.exp(-u / 2.0)
        assert h_member((a_in, *x))[0]
        assert not h_member((a_out, *x))[0]
