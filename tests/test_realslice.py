import math

import numpy as np
import pytest

from hexablock.numerics import DomainError, op_norm, pi_tetra
from hexablock.oracles import levi_fd_matrix
from hexablock.psi import k_star
from hexablock.realslice import (K_real, d2E_normal_form,
                                 d3E_approach_sequence, dE_part_classify,
                                 face_classify, hessian_probe_K,
                                 levi_matrix, penta_real_sets,
                                 real_h_member, real_tetra_margin,
                                 rho_and_levi, rho_value, s1_c5_match,
                                 s1_surface_value)

from conftest import rand_mat, rand_unit

# the vertices of the real tetrahedron E intersect R^3
_VERTICES = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], float)


def _rand_real_tetra(rng, min_margin=0.05):
    while True:
        x = tuple(rng.uniform(-1.0, 1.0, 3))
        if real_tetra_margin(x) > min_margin:
            return x


def test_real_member_origin():
    ok, margin = real_h_member((0, 0, 0, 0))
    assert ok and margin == pytest.approx(1.0)


def test_real_member_triangular_bound(rng):
    for _ in range(50):
        x1, x2 = rng.uniform(-0.7, 0.7, 2)
        bound = math.sqrt((1 - x1 ** 2) * (1 - x2 ** 2))
        ok_in, _ = real_h_member((0.95 * bound, x1, x2, x1 * x2))
        ok_out, _ = real_h_member((1.05 * bound, x1, x2, x1 * x2))
        assert ok_in and not ok_out


def test_real_member_boundary_value(rng):
    x = _rand_real_tetra(rng)
    k = K_real(x)
    ok, margin = real_h_member((k, *x))
    assert not ok and abs(margin) < 1e-12


def test_real_tetra_vertices():
    for v in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        assert real_tetra_margin(v) == pytest.approx(0.0, abs=1e-14)
    assert real_tetra_margin((0, 0, 0)) == pytest.approx(1.0)


def test_K_real_values(rng):
    assert K_real((0, 0, 0)) == pytest.approx(1.0)
    assert K_real((0.5, 0.5, 0.25)) == pytest.approx(0.75, rel=1e-12)
    for _ in range(50):
        x = _rand_real_tetra(rng, 0.02)
        assert K_real(x) == pytest.approx(1.0 / k_star(x), abs=1e-10)
        assert 0.0 < K_real(x) <= 1.0 + 1e-12


def test_hessian_probe_smoke():
    H, eig, flag = hessian_probe_K((0, 0, 0))
    assert np.allclose(H, H.T, atol=1e-8)
    assert np.all(np.isfinite(eig))
    assert flag


def test_hessian_probe_random(rng):
    bad = 0
    for _ in range(500):
        x = _rand_real_tetra(rng, 0.15)
        _, eig, flag = hessian_probe_K(x)
        if not flag:
            bad += 1
    # conjecture-consistent: no convexity violations found
    assert bad == 0


def test_hessian_probe_matches_mpmath(rng):
    # the exact Hessian against 50-digit numerical derivatives of
    # K = sqrt(M), at convex combinations of the vertices; every third
    # point sits at face margin 1e-3 (a face form is 4 times the weight of
    # the opposite vertex).  8.9e-14 measured
    mpmath = pytest.importorskip("mpmath")

    def K(x1, x2, x3):
        beta = 1 - x1 ** 2 - x2 ** 2 + x3 ** 2
        v = x1 * x2 - x3
        return mpmath.sqrt((beta + mpmath.sqrt(beta ** 2 - 4 * v ** 2)) / 2)

    worst = 0.0
    near = 0
    for n in range(60):
        lam = rng.dirichlet(np.ones(4))
        if n % 3 == 0:
            j = rng.integers(4)
            lam *= (1.0 - 2.5e-4) / (1.0 - lam[j])
            lam[j] = 2.5e-4
        x = tuple(lam @ _VERTICES)
        near += real_tetra_margin(x) == pytest.approx(1e-3)
        H, _, _ = hessian_probe_K(x)
        with mpmath.workdps(50):
            ref = np.array([[float(mpmath.diff(K, x, [(i == m) + (j == m)
                                                      for m in range(3)]))
                             for j in range(3)] for i in range(3)])
        worst = max(worst, np.max(np.abs(H - ref)) / np.max(np.abs(ref)))
    assert near == 20
    assert worst <= 1e-10
    with pytest.raises(DomainError):
        hessian_probe_K((0.6, 0.0, 0.4))  # on the face Delta_1


def test_concavity_segment_probe(rng):
    viol = 0
    tried = 0
    for _ in range(1000):
        x = np.array(_rand_real_tetra(rng, 0.03))
        y = np.array(_rand_real_tetra(rng, 0.03))
        t = rng.uniform(0.1, 0.9)
        mid = t * x + (1 - t) * y
        if real_tetra_margin(mid) < 1e-6:
            continue
        tried += 1
        if K_real(mid) < t * K_real(x) + (1 - t) * K_real(y) - 1e-6:
            viol += 1
    assert tried > 800
    assert viol == 0


def test_face_classify_c5_c6():
    for r in (0.1, 0.4, 0.8):
        assert face_classify((1, 0, 0, r)) == ["C5"]
        assert face_classify((-1, 0, 0, r)) == ["C6"]


def test_face_classify_tetrahedron_faces():
    # (0.6, 0, 0.4) sits on Delta_1 (-x1 + x2 - x3 + 1 = 0)
    assert face_classify((0.0, 0.6, 0.0, 0.4)) == ["C1"]


def test_face_coverage(rng):
    covered = 0
    for _ in range(400):
        kind = rng.integers(0, 2)
        if kind == 0:
            x = _rand_real_tetra(rng, 0.05)
            k = K_real(x)
            sign = 1 if rng.uniform() < 0.5 else -1
            p = (sign * k, *x)
        else:
            # a point on a tetrahedron face with the psi bound satisfied
            u, v = rng.uniform(0.05, 0.9, 2)
            w = max(1 - u - v, 0.05)
            s = u + v + w
            u, v, w = u / s, v / s, w / s
            # face Delta_1 = conv{(1,1,1), (1,-1,-1), (-1,-1,1)}
            x = tuple(u * np.array([1, 1, 1]) + v * np.array([1, -1, -1])
                      + w * np.array([-1, -1, 1]))
            p = (0.0, *x)
        labels = face_classify(p)
        assert labels
        covered += 1
    assert covered == 400


def test_rho_levi_face_values():
    for r in np.arange(0.1, 0.95, 0.1):
        rho, grad, pairing, levi = rho_and_levi((0, r, 1 - r), (1, 1, 0))
        assert abs(rho) < 1e-12
        assert abs(pairing) < 1e-12
        assert levi == pytest.approx(2 * (2 - r) ** 2, abs=1e-9)


def test_rho_and_levi_checks_the_chart_once(monkeypatch):
    # one `_chart_check`, so one `_tetra_terms`, gives rho, its gradient and
    # the Levi form, with the values of the three separate functions
    import hexablock.realslice as rs
    calls = []
    terms = rs._tetra_terms
    monkeypatch.setattr(rs, "_tetra_terms",
                        lambda *x: (calls.append(x), terms(*x))[1])
    x, w = (0.2 + 0.1j, 0.5 - 0.3j, 0.4j), (1, 1j, -0.5)
    got = rho_and_levi(x, w)
    assert len(calls) == 1
    wv = np.array(w, dtype=complex)
    grad = rs.rho_gradient(x)
    want = (rho_value(x), grad, sum(g * t for g, t in zip(grad, wv)),
            complex(wv @ levi_matrix(x) @ np.conj(wv)).real)
    assert repr(got) == repr(want)


def test_face_classify_refuses_complex_a():
    # as `real_h_member` does: the real slice takes real coordinates only
    for f in (face_classify, real_h_member):
        with pytest.raises(DomainError):
            f((1 + 0.5j, 0, 0, 0.3))


def test_rho_levi_fd_agreement(rng):
    done = 0
    while done < 40:
        x = tuple(complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(3))
        try:
            L = levi_matrix(x)
        except DomainError:
            continue
        Lfd = levi_fd_matrix(x)
        assert np.max(np.abs(L - Lfd)) < 1e-6
        done += 1


def test_rho_chart_guard():
    with pytest.raises(DomainError):
        rho_value((0, 0, 0))  # |x1 x2 - x3| = 0 is off the chart


def test_rho_near_dE_matches_mpmath(rng):
    # x = pi_E(A) with |a12| = |a21|, so that ||A|| = mu_E(A), at
    # ||A|| = 1 - 10^-k, k = 2..8: rho -> 0 near dE while its terms stay of
    # order one, so its error is absolute.  3.2e-16 measured (relative
    # 1.2e-8 at |rho| = 2e-9); the cancelling beta^2 - 4|v|^2 reads 8.4e-16
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for k in range(2, 9):
        for _ in range(60):
            A = rand_mat(rng)
            t = math.sqrt(abs(A.a21) / abs(A.a12))
            A = type(A)(A.a11, A.a12 * t, A.a21 / t, A.a22)
            x = pi_tetra(A.scaled((1.0 - 10.0 ** -k) / op_norm(A)))
            with mpmath.workdps(50):
                x1, x2, x3 = (mpmath.mpc(c) for c in x)
                beta = 1 - abs(x1) ** 2 - abs(x2) ** 2 + abs(x3) ** 2
                ref = 4 * abs(x1 * x2 - x3) ** 2 - beta ** 2
                worst = max(worst, float(abs(rho_value(x) - ref)))
    assert worst <= 2.0 * np.finfo(float).eps


def test_dE_parts():
    kind, _ = dE_part_classify((1, 0.4, 0.4))
    assert kind == "d3E"
    kind2, params = dE_part_classify((0, 0.3, 0.7))
    assert kind2 == "d2E"
    assert params["r"] == pytest.approx(0.3)
    y = d2E_normal_form((0, 0.3, 0.7))
    assert y[0] == pytest.approx(0.0, abs=1e-12)
    assert complex(y[1]).real == pytest.approx(0.3, abs=1e-10)
    assert complex(y[2]).real == pytest.approx(0.7, abs=1e-10)


def test_dE_part_normal_form_random(rng):
    from hexablock.domains import Region, tetra_classify
    for _ in range(50):
        # build a d2E point by rotating (0, r, 1-r)
        r = rng.uniform(0.05, 0.95)
        a1, a2 = rng.uniform(0, 2 * math.pi, 2)
        x = (0.0, r * np.exp(1j * a1), (1 - r) * np.exp(1j * a2))
        assert tetra_classify(x).region is Region.BOUNDARY
        kind, params = dE_part_classify(x)
        assert kind == "d2E"
        y = d2E_normal_form(x)
        assert complex(y[1]) == pytest.approx(r, abs=1e-10)
        assert complex(y[2]) == pytest.approx(1 - r, abs=1e-10)


def test_d3E_density_probe(rng):
    from hexablock.domains import Region, tetra_classify
    for _ in range(20):
        x1 = rand_unit(rng)
        x2 = rng.uniform(0.1, 0.9) * rand_unit(rng)
        x = (x1, x2, x1 * x2)
        assert tetra_classify(x).region is Region.BOUNDARY
        seq = d3E_approach_sequence(x)
        for y in seq:
            kind, _ = dE_part_classify(y)
            assert kind == "d2E"
        last = seq[-1]
        assert max(abs(complex(a) - complex(b))
                   for a, b in zip(last, x)) < 2e-3


def test_penta_real_sets_examples():
    a = (2 + math.sqrt(5)) / (3 + math.sqrt(5))
    assert "S1" in penta_real_sets(a, 1, 0.5)
    assert penta_real_sets(a, 0, 0.5) == []  # the midpoint leaves S1
    assert "T1" in penta_real_sets(0, 2, 1)
    assert "Ell" in penta_real_sets(0.3, 1.2, 1.0)
    assert "S2" in penta_real_sets(-a, 1, 0.5)


def test_s1_surface_value():
    a = (2 + math.sqrt(5)) / (3 + math.sqrt(5))
    assert s1_surface_value(1.0, 0.5) == pytest.approx(a, rel=1e-12)


def test_s1_c5_correspondence(rng):
    a = (2 + math.sqrt(5)) / (3 + math.sqrt(5))
    assert s1_c5_match(a, 1, 0.5)
    assert s1_c5_match(a, 0, 0.5)
    checked = 0
    for _ in range(300):
        s = rng.uniform(-1.6, 1.6)
        p = rng.uniform(-0.9, 0.9)
        from hexablock.domains import g2_classify
        if not g2_classify(s, p).in_interior:
            continue
        g = s1_surface_value(s, p)
        for aa in (g, -g, 0.7 * g, 1.2 * g):
            if abs(aa) > 1.0:
                continue
            assert s1_c5_match(aa, s, p)
            checked += 1
    assert checked > 200


def test_face_classify_on_face_d2_follows_psi_sup():
    # x on the tetrahedron face Delta_2 (x3 = x1 + x2 - 1, |x3| < 1) with
    # a != 0: the face label is conditioned on the psi bound that psi_sup
    # reads on dE, so a label comes back exactly where that bound holds
    from hexablock.hexa import psi_sup
    from hexablock.numerics import REAL_TOL
    rng = np.random.default_rng(4557)
    labelled = refused = 0
    while labelled + refused < 600:
        x1, x2 = rng.uniform(-1.0, 1.0, 2)
        x3 = x1 + x2 - 1.0
        if abs(x3) >= 1.0:
            continue
        for a in (0.2, rng.uniform(-1.0, 1.0)):
            sup, _, _ = psi_sup((complex(a), x1, x2, x3))
            if sup is not None and sup <= 1.0 + REAL_TOL:
                assert "C2" in face_classify((a, x1, x2, x3))
                labelled += 1
            else:
                with pytest.raises(DomainError):
                    face_classify((a, x1, x2, x3))
                refused += 1
    assert labelled > 50 and refused > 50


def test_real_h_member_outside_the_tetrahedron():
    x = (0.9, 0.9, -0.5)    # -x1 - x2 + x3 + 1 = -1.3
    assert real_h_member((0.1, *x)) == (False, real_tetra_margin(x))
    assert real_tetra_margin(x) < 0.0
