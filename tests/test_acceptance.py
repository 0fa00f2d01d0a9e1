"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them all).  Two criteria also assert fixed counterexamples.  Criterion 3
asserts the inclusion lattice of the mu values, which is not a total
order: mu_tetra > mu_penta at the README matrix (3.50688 > 3.22563, with
mu_tetra checked against the D-scaling closed form) and mu_tetra <
mu_penta at [[0, 0], [5, 0]] (0 < 5).  Criterion 10 asserts (3) <=> (4)
and (3) => (5) for the Schwarz conditions; the coordinate bound (5) is
only necessary: target (0.55, 0, 0.8, 0) at lambda0 = 0.85 meets it while
sup|psi| = 11/12 > 0.85 rules interpolation out.
"""

import math
import time

import numpy as np
import pytest

from hexablock.numerics import (BlaschkeProduct, ConsistencyError, Mat2, Poly,
                                fejer_riesz, op_norm, pi_hexa, poly_abs2_trig,
                                spectral_radius)
from hexablock.psi import k_star, maximizer
from hexablock.domains import g2_classify, penta_classify, tetra_classify
from hexablock.hexa import (bh_member, classify_hexa, h_member, hn_member,
                            hmu_member, hp_param, mu_value)
from hexablock.oracles import (GridSpec, grid_sup_kappa, levi_fd_matrix,
                               mu_bruteforce, stationarity_residual)
from hexablock.autos import hexa_aut_apply, hexa_aut_compose, hexa_aut_invert
from hexablock.inner import (RationalTetraInner, SchwarzProblem,
                             hexa_inner_construct, hexa_inner_validate,
                             interpolation_residuals, schwarz_construct,
                             schwarz_feasible)
from hexablock import realslice as rs

from conftest import (rand_contraction, rand_disc, rand_hexa_point,
                      rand_hexaaut, rand_mat, rand_tetra_point, rand_unit,
                      s1_c5_match)

rng_global = np.random.default_rng  # seeded per criterion for independence


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_maximizer_vs_oracle():
    rng = rng_global(101)
    t0 = time.time()
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(200):
        x = rand_tetra_point(rng, norm_cap=0.9, min_margin=1e-3)
        m = maximizer(x)
        sup, _ = grid_sup_kappa(x, GridSpec(refinement_levels=3))
        worst_gap = max(worst_gap, abs(sup - m.k_star))
        worst_res = max(worst_res, stationarity_residual(x, m.z1, m.z2))
    dt = time.time() - t0
    ok = worst_gap <= 1e-4 and worst_res <= 1e-8 and dt <= 60.0
    assert report(1, ok, f"200 points: max |k* - grid| = {worst_gap:.2e} "
                         f"(<= 1e-4), stationarity {worst_res:.2e} (<= 1e-8), "
                         f"runtime {dt:.1f}s (<= 60s)")


def test_criterion_02_cross_equivalence():
    rng = rng_global(102)
    faults = 0
    n = 10_000
    for _ in range(n):
        s, p = (complex(*rng.uniform(-2.2, 2.2, 2)) for _ in range(2))
        try:
            g2_classify(s, p, tol=1e-7)
        except ConsistencyError:
            faults += 1
    for _ in range(n):
        x = tuple(complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(3))
        try:
            tetra_classify(x, tol=1e-7)
        except ConsistencyError:
            faults += 1
    for _ in range(n):
        a, s, p = (complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(3))
        try:
            penta_classify(a, s, p, tol=1e-7)
        except ConsistencyError:
            faults += 1
    ok = faults == 0
    assert report(2, ok, f"3 x {n} box samples, {faults} consistency faults")


def test_criterion_03_mu_chain_and_homogeneity():
    rng = rng_global(103)
    # the inclusion lattice: scalars lie in both the diagonal structure and
    # span{I, e12}, both lie in the upper triangular structure, which lies
    # in M2; mu_tetra and mu_penta are not compared (see the witnesses)
    lattice_bad = {"r<=tetra": 0, "r<=penta": 0, "tetra<=hexa": 0,
                   "penta<=hexa": 0, "hexa<=norm": 0}
    homo_bad = 0
    for k in range(500):
        A = rand_mat(rng)
        r = spectral_radius(A)
        mt = mu_value(A, "tetra")
        mp = mu_value(A, "penta")
        mh = mu_value(A, "hexa")
        nn = op_norm(A)
        for name, lo, hi in (("r<=tetra", r, mt), ("r<=penta", r, mp),
                             ("tetra<=hexa", mt, mh), ("penta<=hexa", mp, mh),
                             ("hexa<=norm", mh, nn)):
            if lo > hi + 1e-6:
                lattice_bad[name] += 1
        if k < 60:
            for rr in (0.25, 0.5, 2.0):
                if abs(mu_value(A.scaled(rr), "hexa") - rr * mh) \
                        > 1e-6 * max(1.0, rr * mh):
                    homo_bad += 1
    # not nested, one fixed witness per direction
    W1 = Mat2(2.0409 - 2.5557j, 0.4181 - 0.5678j,
              -0.4526 - 0.2156j, -2.0200 - 0.2319j)
    mt1, mp1, r1 = mu_value(W1, "tetra"), mu_value(W1, "penta"), \
        spectral_radius(W1)
    # two scalar blocks fall in Doyle's 2S + F <= 3 case, so mu_tetra equals
    # the diagonal D-scaling bound, here in closed form
    f = abs(W1.a11) ** 2 + abs(W1.a22) ** 2 + 2 * abs(W1.a12) * abs(W1.a21)
    d = abs(W1.a11 * W1.a22 - W1.a12 * W1.a21)
    closed = math.sqrt((f + math.sqrt(f * f - 4 * d * d)) / 2)
    w1 = abs(mt1 - closed) <= 1e-6 * closed and \
        abs(mp1 - r1) <= 1e-6 * r1 and mt1 > mp1 + 1e-6
    # diagonal perturbations keep [[0,0],[5,0]] nilpotent, while
    # Delta = y e12 gives the eigenvalue 5y
    W2 = Mat2(0, 0, 5, 0)
    mt2, mp2 = mu_value(W2, "tetra"), mu_value(W2, "penta")
    w2 = mt2 <= 1e-6 and abs(mp2 - 5.0) <= 1e-6 * 5.0
    ok = all(v == 0 for v in lattice_bad.values()) and homo_bad == 0 \
        and w1 and w2
    assert report(3, ok, f"500 matrices: lattice violations {lattice_bad}, "
                         f"homogeneity violations {homo_bad}; not nested: "
                         f"mu_tetra = {mt1:.5f} (D-scaling {closed:.10f}) > "
                         f"{mp1:.5f} = mu_penta = r at the README matrix "
                         f"{w1}, mu_tetra = {mt2:g} < {mp2:.5f} = mu_penta "
                         f"at [[0,0],[5,0]] {w2}")


def test_criterion_04_mu_oracle_agreement():
    rng = rng_global(104)
    worst = 0.0
    for _ in range(50):
        A = rand_mat(rng)
        mh = mu_value(A, "hexa")
        mo = mu_bruteforce(A)
        worst = max(worst, abs(mo - mh) / max(mh, 1e-3))
    ok = worst <= 2e-2
    assert report(4, ok, f"50 matrices, max relative gap {worst:.3e} (<= 2e-2)")


def test_criterion_05_fixed_witnesses():
    A = Mat2(0, 5, 0, 0)
    w1 = mu_value(A, "hexa") <= 1.0 and op_norm(A) == 5.0
    B = Mat2(0, 2, -0.25, 0)
    w2 = mu_value(B, "hexa") <= 1.0 <= 2.0 and op_norm(B) == 2.0
    w3 = True
    for alpha in (0.0, 0.3, 0.99, 1.0, complex(math.cos(1), math.sin(1))):
        inside, _ = hn_member((alpha, 0, 0, 1), closed=True, tol=1e-9)
        w3 = w3 and (inside == (abs(abs(alpha) - 1.0) <= 1e-9))
    ok_mu, _ = hmu_member((0, 0, 0, 0.5))
    ok_h, _ = h_member((0, 0, 0, 0.5))
    w4 = (not ok_mu) and ok_h
    ok = w1 and w2 and w3 and w4
    assert report(5, ok, f"[[0,5],[0,0]]: {w1}; [[0,2],[-1/4,0]]: {w2}; "
                         f"(a,0,0,1) in closed H_N iff |a|=1: {w3}; "
                         f"(0,0,0,a) in H minus H_mu: {w4}")


def _aut_point_family(rng, k):
    kind = k % 4
    if kind == 0:
        return rand_hexa_point(rng, slack=0.8), "interior"
    if kind == 1:
        return pi_hexa(rand_contraction(rng, 0.85)), "hn"
    if kind == 2:
        theta = rng.uniform(0, 2 * math.pi)
        z = complex(*rng.normal(0, 1, 2))
        w = complex(*rng.normal(0, 1, 2))
        n = math.hypot(abs(z), abs(w))
        return hp_param(theta, z / n, w / n), "bh"
    x = rand_tetra_point(rng, 0.85, min_margin=0.03)
    return (rand_unit(rng) / k_star(x), *x), "d1"


def test_criterion_06_automorphism_suite():
    rng = rng_global(106)
    auts = [rand_hexaaut(rng, flip=bool(i % 2)) for i in range(100)]
    points = [_aut_point_family(rng, k) for k in range(100)]
    worst_round = 0.0
    worst_comp = 0.0
    worst_hp = 0.0
    flag_bad = 0
    pairs = [(auts[i], auts[(i * 7 + 3) % 100]) for i in range(100)]
    composed = [hexa_aut_compose(T1, T2) for T1, T2 in pairs]
    inverses = [hexa_aut_invert(T) for T in auts]
    for i, T in enumerate(auts):
        Ti = inverses[i]
        T1, T2 = pairs[i]
        C = composed[i]
        for p, fam in points:
            q = hexa_aut_apply(T, p, check=False)
            back = hexa_aut_apply(Ti, q, check=False)
            worst_round = max(worst_round, max(
                abs(complex(u) - complex(v)) for u, v in zip(back, p)))
            seq = hexa_aut_apply(T1, hexa_aut_apply(T2, p, check=False),
                                 check=False)
            one = hexa_aut_apply(C, p, check=False)
            worst_comp = max(worst_comp, max(
                abs(complex(u) - complex(v)) for u, v in zip(seq, one)))
            if fam == "bh":
                worst_hp = max(worst_hp, abs(
                    abs(q[0]) ** 2 + abs(q[1]) ** 2 - 1.0))
    # region flags on a stratified subsample (all families, 10 auts)
    for T in auts[::10]:
        for p, fam in points:
            vin = classify_hexa(p, tol=1e-9)
            vout = classify_hexa(hexa_aut_apply(T, p, check=False), tol=1e-9)
            if (vin.in_h, vin.in_hmu, vin.in_hn, vin.in_bh) != \
                    (vout.in_h, vout.in_hmu, vout.in_hn, vout.in_bh):
                flag_bad += 1
    ok = worst_round <= 1e-10 and worst_comp <= 1e-10 and \
        worst_hp <= 1e-10 and flag_bad == 0
    assert report(6, ok, f"100x100: round-trip {worst_round:.2e}, composition "
                         f"{worst_comp:.2e} (<= 1e-10), H_p norm residual "
                         f"{worst_hp:.2e}, region-flag violations {flag_bad}")


def test_criterion_07_bh_parametrization():
    rng = rng_global(107)
    worst_margin = 0.0
    worst_sup = 0.0
    for _ in range(1000):
        theta = rng.uniform(0, 2 * math.pi)
        z = complex(*rng.normal(0, 1, 2))
        w = complex(*rng.normal(0, 1, 2))
        n = math.hypot(abs(z), abs(w))
        p = hp_param(theta, z / n, w / n)
        okb, margin = bh_member(p)
        worst_margin = max(worst_margin, abs(margin))
        okc, mc = h_member(p, closed=True, tol=1e-9)
        if not okc:
            worst_sup = max(worst_sup, -mc)
    ok = worst_margin <= 1e-12 and worst_sup <= 1e-8
    assert report(7, ok, f"1000 parametrized points: bH margin "
                         f"{worst_margin:.2e} (<= 1e-12), closure violation "
                         f"{worst_sup:.2e} (<= 1e-8)")


def test_criterion_08_fejer_riesz():
    rng = rng_global(108)
    circle = np.exp(2j * np.pi * np.arange(512) / 512)
    grid = np.concatenate([
        (np.sqrt(np.arange(600) / 600)[:, None]
         * np.exp(2j * np.pi * np.arange(40) / 40)[None, :]).ravel(), circle])
    worst_rec = 0.0
    worst_min = math.inf
    for _ in range(100):
        deg = int(rng.integers(0, 7))
        roots = [rng.uniform(1.2, 3.0) * rand_unit(rng) for _ in range(deg)]
        lead = complex(*rng.normal(0, 1, 2)) + 0.3
        D0 = Poly.from_roots(roots, lead=lead)
        D = fejer_riesz(poly_abs2_trig(D0), strict=True)
        scale = max(1.0, float(np.max(np.abs(D0(circle)))) ** 2)
        worst_rec = max(worst_rec, float(np.max(np.abs(
            np.abs(D(circle)) - np.abs(D0(circle))))) / scale)
        worst_min = min(worst_min, float(np.min(np.abs(D(grid)))))
    D5 = fejer_riesz(np.array([2.0, 5.0, 2.0]))
    w5 = float(np.max(np.abs(np.abs(D5(circle)) - np.abs(2.0 + circle))))
    ok = worst_rec <= 1e-8 and worst_min > 1e-6 and w5 <= 1e-10
    assert report(8, ok, f"100 factorizations: reconstruction {worst_rec:.2e} "
                         f"(<= 1e-8), min |D| on the closed disc "
                         f"{worst_min:.2e} (> 1e-6), 5+2cos case {w5:.2e} "
                         f"(<= 1e-10)")


def _random_tetra_inner(rng, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    roots = [rng.uniform(1.25, 3.0) * rand_unit(rng)
             for _ in range(int(rng.integers(1, n + 1)))]
    D = Poly.from_roots(roots, lead=1.0, n=n)
    deg2 = int(rng.integers(0, n + 1))
    E2 = Poly(rng.normal(0, 1, deg2 + 1) + 1j * rng.normal(0, 1, deg2 + 1), n)
    circ = np.exp(2j * np.pi * np.arange(256) / 256)
    E1 = E2.reflect()
    bound = np.abs(D(circ))
    worst = max(float(np.max(np.abs(E1(circ)) / bound)),
                float(np.max(np.abs(E2(circ)) / bound)))
    scale = rng.uniform(0.35, 0.95) / worst
    return RationalTetraInner(E1.scale(scale), E2.scale(scale), D, n)


def test_criterion_09_inner_pipeline():
    rng = rng_global(109)
    worst_norm = 0.0
    worst_be = 0.0
    worst_disc = 0.0
    for _ in range(50):
        t = _random_tetra_inner(rng)
        deg = int(rng.integers(0, 4))
        B = BlaschkeProduct(rand_unit(rng),
                            tuple(rand_disc(rng, 0.7) for _ in range(deg)))
        f = hexa_inner_construct(t, B, rand_unit(rng))
        rep = hexa_inner_validate(f)
        worst_norm = max(worst_norm, rep["circle_norm_residual"])
        worst_be = max(worst_be, rep["circle_bE_violation"])
        worst_disc = max(worst_disc, rep["disc_closure_violation"])
    # the monomial example (lam^m, 0, 0, lam^n)
    t0 = RationalTetraInner(Poly.const(0, 3), Poly.const(0, 3),
                            Poly.const(1, 3), 3)
    f0 = hexa_inner_construct(t0, BlaschkeProduct(1.0, (0.0, 0.0)), 1.0)
    mono_ok = hexa_inner_validate(f0)["ok"] and \
        complex(f0(0.5)[0]) == pytest.approx(0.25) and \
        complex(f0(0.5)[3]) == pytest.approx(0.125)
    # the diagonal pair (0, h1, h2, h1 h2)
    fd = schwarz_construct(SchwarzProblem(0.5, (0.0, 0.3, 0.2, 0.06)))
    diag_ok = hexa_inner_validate(fd)["ok"]
    ok = worst_norm <= 1e-6 and worst_be <= 1e-6 and worst_disc <= 1e-8 \
        and mono_ok and diag_ok
    assert report(9, ok, f"50 pipelines: circle norm {worst_norm:.2e} "
                         f"(<= 1e-6), bE margin {worst_be:.2e} (<= 1e-6), "
                         f"interior margin {worst_disc:.2e} (<= 1e-8), "
                         f"monomial {mono_ok}, diagonal pair {diag_ok}")


def test_criterion_10_schwarz():
    rng = rng_global(110)
    worst_res = 0.0
    all_valid = True
    # case (ii): |x3| = |lambda0|
    for _ in range(50):
        lam0 = rng.uniform(0.2, 0.9) * rand_unit(rng)
        w = rand_unit(rng)
        a = rng.uniform(0, 0.999) * abs(lam0) * rand_unit(rng)
        prob = SchwarzProblem(lam0, (a, 0, 0, w * lam0))
        f = schwarz_construct(prob)
        worst_res = max(worst_res, interpolation_residuals(f, prob))
        all_valid &= hexa_inner_validate(f)["ok"]
    # triangular case
    for _ in range(50):
        lam0 = rng.uniform(0.25, 0.9)
        x1 = rng.uniform(0, 0.98 * lam0) * rand_unit(rng)
        x2 = rng.uniform(0, 0.98 * lam0) * rand_unit(rng)
        prob = SchwarzProblem(lam0, (0.0, x1, x2, x1 * x2))
        f = schwarz_construct(prob)
        worst_res = max(worst_res, interpolation_residuals(f, prob))
        all_valid &= hexa_inner_validate(f)["ok"]
    # supplied-data lift
    for _ in range(50):
        lam0 = rng.uniform(0.3, 0.85) * rand_unit(rng)
        w = rand_unit(rng)
        ang = math.atan2(w.imag, w.real) / 2.0
        D = Poly.const(complex(math.cos(-ang), math.sin(-ang)), 1)
        t = RationalTetraInner(Poly.const(0, 1), Poly.const(0, 1), D, 1)
        a = rng.uniform(0, 0.97) * abs(lam0) * rand_unit(rng)
        prob = SchwarzProblem(lam0, (a, 0, 0, w * lam0))
        f = schwarz_construct(prob, supplied_tetra=t)
        worst_res = max(worst_res, interpolation_residuals(f, prob))
        all_valid &= hexa_inner_validate(f)["ok"]
    # 50 infeasible problems rejected with the violated inequality named
    rejected = 0
    for _ in range(200):
        if rejected >= 50:
            break
        lam0 = rng.uniform(0.15, 0.7)
        x = rand_tetra_point(rng, 0.9, min_margin=1e-3)
        a = rng.uniform(0, 0.99) / k_star(x) * rand_unit(rng)
        try:
            prob = SchwarzProblem(lam0, (a, *x))
        except Exception:
            continue
        rep = schwarz_feasible(prob)
        if rep.feasible:
            continue
        assert rep.violated in ("a_bound", "psi_sup", "tetra_ratio")
        rejected += 1
    # (3) <=> (4) is an equivalence; the coordinate bound (5) is only
    # necessary, so the one admissible disagreement is (5) without (3)
    agree_checked = 0
    kinds = {"c3!=c4": 0, "c3 and not c5": 0, "c5 and not c3": 0}
    for _ in range(4000):
        if agree_checked >= 1000:
            break
        lam0 = rng.uniform(0.15, 0.95)
        x = rand_tetra_point(rng, 0.9, min_margin=1e-3)
        a = rng.uniform(0, 1.2) / k_star(x) * rand_unit(rng)
        try:
            prob = SchwarzProblem(lam0, (a, *x))
        except Exception:
            continue
        rep = schwarz_feasible(prob)
        m = rep.margins
        if any(abs(v) <= 1e-7 for v in m.values()):
            continue
        agree_checked += 1
        c3 = m["psi_sup"] > 0 and m["tetra_ratio"] > 0
        c4 = m["rescaled_closure"] > 0 and m["tetra_ratio"] > 0
        c5 = m["a_bound"] > 0 and m["tetra_ratio"] > 0
        if c3 != c4:
            kinds["c3!=c4"] += 1
        if c3 and not c5:
            kinds["c3 and not c5"] += 1
        if c5 and not c3:
            kinds["c5 and not c3"] += 1
    # the pinned witness: (5) holds but sup|psi| = 0.55 * 5/3 = 11/12 > 0.85
    rep = schwarz_feasible(SchwarzProblem(0.85, (0.55, 0, 0.8, 0)))
    witness = abs(k_star((0, 0.8, 0)) - 5 / 3) <= 1e-12 and \
        abs(rep.margins["psi_sup"] - (0.85 - 11 / 12)) <= 1e-12 and \
        not rep.feasible and rep.violated == "psi_sup" and \
        rep.margins["a_bound"] > 0
    ok = worst_res <= 1e-7 and all_valid and rejected == 50 \
        and agree_checked >= 1000 and kinds["c3!=c4"] == 0 \
        and kinds["c3 and not c5"] == 0 and witness
    assert report(10, ok, f"150 constructions, residual {worst_res:.2e} "
                          f"(<= 1e-7), all validate {all_valid}; {rejected} "
                          f"infeasible rejected by name; {agree_checked} "
                          f"samples: (3)<=>(4) and (3)=>(5) violations "
                          f"{kinds['c3!=c4']}, {kinds['c3 and not c5']}, "
                          f"(5) without (3) {kinds['c5 and not c3']}; "
                          f"(0.55, 0, 0.8, 0) at 0.85 meets (5) yet "
                          f"sup|psi| = 11/12 rejects it {witness}")


def test_criterion_11_levi_form():
    rng = rng_global(111)
    worst_levi = 0.0
    worst_pair = 0.0
    for r in np.arange(0.1, 0.95, 0.1):
        _, _, pairing, levi = rs.rho_and_levi((0, r, 1 - r), (1, 1, 0))
        worst_levi = max(worst_levi, abs(levi - 2 * (2 - r) ** 2))
        worst_pair = max(worst_pair, abs(pairing))
    worst_fd = 0.0
    done = 0
    while done < 100:
        x = tuple(complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(3))
        try:
            L = rs.levi_matrix(x)
        except Exception:
            continue
        worst_fd = max(worst_fd, float(np.max(np.abs(L - levi_fd_matrix(x)))))
        done += 1
    ok = worst_levi <= 1e-9 and worst_pair <= 1e-9 and worst_fd <= 1e-6
    assert report(11, ok, f"face values {worst_levi:.2e} (<= 1e-9), gradient "
                          f"pairing {worst_pair:.2e} (<= 1e-9), FD agreement "
                          f"{worst_fd:.2e} (<= 1e-6) on 100 chart points")


def test_criterion_12_penta_bridge():
    rng = rng_global(112)
    n = 10_000
    mismatches = 0
    compared = 0
    for _ in range(n):
        a, s, p = (complex(*rng.uniform(-1.1, 1.1, 2)) for _ in range(3))
        v = penta_classify(a, s, p, tol=1e-9)
        emb = (a, s / 2, s / 2, p)
        okh, mh = h_member(emb, tol=1e-9)
        if abs(mh) <= 1e-7 or abs(v.margins.get("closure", 1.0)) <= 1e-7:
            continue
        compared += 1
        if okh != v.in_interior:
            mismatches += 1
    a0 = (2 + math.sqrt(5)) / (3 + math.sqrt(5))
    s1_ok = "S1" in rs.penta_real_sets(a0, 1, 0.5) and \
        rs.penta_real_sets(a0, 0, 0.5) == []
    corr = 0
    corr_bad = 0
    while corr < 1000:
        s = rng.uniform(-1.6, 1.6)
        p = rng.uniform(-0.9, 0.9)
        if not g2_classify(s, p).in_interior:
            continue
        g = rs.s1_surface_value(s, p)
        aa = rng.choice([g, -g, 0.8 * g, 1.1 * g])
        if abs(aa) > 1.0:
            continue
        if not s1_c5_match(float(aa), s, p):
            corr_bad += 1
        corr += 1
    ok = mismatches == 0 and compared > n // 2 and s1_ok and corr_bad == 0
    assert report(12, ok, f"{compared} bridged samples, {mismatches} region "
                          f"mismatches; S1 counterexample pattern {s1_ok}; "
                          f"S1/C5+S2/C6 correspondence failures {corr_bad} "
                          f"of {corr}")


def test_criterion_13_real_faces():
    rng = rng_global(113)

    def rand_real_tetra(min_margin=0.04):
        while True:
            x = tuple(rng.uniform(-1.0, 1.0, 3))
            if rs.real_tetra_margin(x) > min_margin:
                return x

    # coverage: every sampled real boundary point gets a label
    unlabeled = 0
    verts = {1: [(1, 1, 1), (1, -1, -1), (-1, -1, 1)],
             2: [(1, 1, 1), (1, -1, -1), (-1, 1, -1)],
             3: [(1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
             4: [(1, 1, 1), (-1, 1, -1), (-1, -1, 1)]}
    for k in range(1000):
        if k % 2 == 0:
            x = rand_real_tetra()
            kk = rs.K_real(x)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            p = (sign * kk, *x)
        else:
            j = int(rng.integers(1, 5))
            u, v, w = rng.dirichlet((1, 1, 1))
            x = tuple(u * np.array(verts[j][0]) + v * np.array(verts[j][1])
                      + w * np.array(verts[j][2]))
            p = (0.0, *x)
        try:
            labels = rs.face_classify(p, tol=1e-7)
        except Exception:
            labels = []
        if not labels:
            unlabeled += 1

    # extreme-set probe for C1..C4
    extreme_bad = 0
    for _ in range(1000):
        j = int(rng.integers(1, 5))
        u, v, w = rng.dirichlet((1, 1, 1))
        z = (u * np.array(verts[j][0]) + v * np.array(verts[j][1])
             + w * np.array(verts[j][2]))
        point = np.array([0.0, *z])
        d = rng.normal(0, 1, 4) * np.array([0.3, 0.2, 0.2, 0.2])
        t = rng.uniform(0.2, 0.8)
        eps = rng.uniform(0.02, 0.3)
        pp = point + (1 - t) * eps * d
        qq = point - t * eps * d
        def in_closed_real_h(y):
            a, x = y[0], tuple(y[1:])
            if rs.real_tetra_margin(x) > 1e-9:
                return abs(a) <= rs.K_real(x) + 1e-12
            mj = [abs(f) <= 1e-9 for f in
                  [-x[0] + x[1] - x[2] + 1, -x[0] - x[1] + x[2] + 1,
                   x[0] + x[1] + x[2] + 1, x[0] - x[1] - x[2] + 1]]
            if rs.real_tetra_margin(x) < -1e-9 or not any(mj):
                return rs.real_tetra_margin(x) >= -1e-9 and abs(a) < 1e-12
            return abs(a) < 1e-9  # on a face only a = 0 stays in closure here
        if in_closed_real_h(pp) and in_closed_real_h(qq):
            # both endpoints admissible: they must sit on the same face
            for y in (pp, qq):
                try:
                    labels = rs.face_classify(tuple(y), tol=1e-6)
                except Exception:
                    labels = []
                if f"C{j}" not in labels:
                    extreme_bad += 1

    # concavity segment probe (conjecture-consistent reporting)
    seg_viol = 0
    tried = 0
    while tried < 1000:
        x = np.array(rand_real_tetra(0.02))
        y = np.array(rand_real_tetra(0.02))
        t = rng.uniform(0.1, 0.9)
        mid = t * x + (1 - t) * y
        if rs.real_tetra_margin(mid) < 1e-6:
            continue
        tried += 1
        if rs.K_real(mid) < t * rs.K_real(x) + (1 - t) * rs.K_real(y) - 1e-6:
            seg_viol += 1
    ok = unlabeled == 0 and extreme_bad == 0 and seg_viol == 0
    assert report(13, ok, f"1000 boundary points, {unlabeled} unlabeled; "
                          f"extreme-set violations {extreme_bad}; concavity "
                          f"probe violations {seg_viol} of {tried} "
                          f"(conjecture-consistent, not asserted as theorem)")
