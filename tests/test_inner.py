import json
import math

import numpy as np
import pytest

from hexablock.numerics import BlaschkeProduct, DomainError, Poly, PowerTable
from hexablock.psi import k_star
from hexablock.inner import (RationalHexaInner,
                             RationalPentaInner, RationalTetraInner,
                             SchwarzProblem,
                             hexa_inner_construct, hexa_inner_to_penta,
                             hexa_inner_validate, interpolation_residuals,
                             penta_inner_to_hexa, penta_inner_validate,
                             penta_schwarz_feasible, rational_inner_outer,
                             schwarz_construct, schwarz_feasible,
                             tetra_inner_validate, tetra_ratio)

from conftest import rand_disc, rand_tetra_point, rand_unit


_CIRC = np.exp(2j * np.pi * np.arange(512) / 512)


def _const_tetra(n, d_const=1.0):
    return RationalTetraInner(Poly.const(0, n), Poly.const(0, n),
                              Poly.const(d_const, n), n)


def _random_tetra_inner(rng, n_max=4):
    """Random valid (E1, E2, D) data: D zero-free outside, E2 free, E1 the
    reflection, scaled until the circle bound holds."""
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


# ---------------------------------------------------------------------------
# Tetrablock inner functions
# ---------------------------------------------------------------------------

def test_tetra_inner_monomial():
    t = _const_tetra(3)
    rep = tetra_inner_validate(t)
    assert rep["ok"]
    x = t(0.5)
    assert x == pytest.approx((0, 0, 0.125))
    lam = np.exp(0.3j)
    assert abs(complex(t(lam)[2])) == pytest.approx(1.0, abs=1e-12)


def test_tetra_inner_reflection_ratio():
    t = RationalTetraInner(Poly.const(0, 1), Poly.const(0, 1),
                           Poly(np.array([2.0, 1.0]), 1), 1)
    assert tetra_inner_validate(t)["ok"]
    lam = np.exp(1.1j)
    x3 = complex(t(lam)[2])
    assert abs(x3) == pytest.approx(1.0, abs=1e-12)
    assert x3 == pytest.approx((1 + 2 * lam) / (2 + lam))


def test_tetra_inner_random_disc_images(rng):
    for _ in range(20):
        t = _random_tetra_inner(rng)
        rep = tetra_inner_validate(t)
        assert rep["ok"], rep["issues"]


def test_tetra_inner_degree_accounting(rng):
    # deg of the x3 Blaschke equals n when deg D = n and D(0) != 0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        roots = [rng.uniform(1.3, 2.5) * rand_unit(rng) for _ in range(n)]
        D = Poly.from_roots(roots, lead=1.0, n=n)
        assert abs(complex(D(0.0))) > 1e-9
        refl = D.reflect()
        inside = [r for r in refl.roots() if abs(r) < 1.0]
        assert len(inside) == n


# ---------------------------------------------------------------------------
# Hexablock inner functions
# ---------------------------------------------------------------------------

def test_hexa_inner_monomials():
    # f = (lam^m, 0, 0, lam^n)
    t = _const_tetra(3)
    f = hexa_inner_construct(t, BlaschkeProduct(1.0, (0.0, 0.0)), 1.0)
    lam = 0.4 + 0.2j
    val = f(lam)
    assert val[0] == pytest.approx(lam ** 2)
    assert val[3] == pytest.approx(lam ** 3)
    assert hexa_inner_validate(f)["ok"]


def test_hexa_inner_diagonal_pair(rng):
    # f = (0, h1, h2, h1 h2) through the triangular Schwarz construction
    prob = SchwarzProblem(0.5, (0.0, 0.2, 0.3, 0.06))
    f = schwarz_construct(prob)
    rep = hexa_inner_validate(f)
    assert rep["ok"], rep["issues"]
    lam = np.exp(0.9j)
    a, x1, x2, x3 = f(lam)
    assert abs(complex(x1) * complex(x2) - complex(x3)) < 1e-10
    assert abs(complex(a)) < 1e-12


def test_hexa_inner_trivial_factor():
    # E1 = 0, D = 1 gives A = 1
    t = _const_tetra(2)
    f = hexa_inner_construct(t, BlaschkeProduct(), 1.0)
    assert f.A.padded()[0] == pytest.approx(1.0)
    assert float(np.max(np.abs(f.A.padded()[1:]))) < 1e-12


def test_hexa_inner_validate_rejects_scaled_phase(rng):
    t = _random_tetra_inner(rng)
    f = hexa_inner_construct(t, BlaschkeProduct(1.0, (0.2,)), 1.0)
    assert hexa_inner_validate(f)["ok"]
    bad = RationalHexaInner(f.tetra, f.A.scale(1.1), f.B, f.c)
    rep = hexa_inner_validate(bad)
    assert not rep["ok"]
    assert rep["circle_norm_residual"] > 1e-3


def test_hexa_inner_random_pipeline(rng):
    for _ in range(15):
        t = _random_tetra_inner(rng)
        deg = int(rng.integers(0, 4))
        B = BlaschkeProduct(rand_unit(rng),
                            tuple(rand_disc(rng, 0.7) for _ in range(deg)))
        f = hexa_inner_construct(t, B, rand_unit(rng))
        rep = hexa_inner_validate(f)
        assert rep["ok"], rep["issues"]
        assert rep["circle_norm_residual"] <= 1e-6
        assert rep["circle_bE_violation"] <= 1e-6
        assert rep["disc_closure_violation"] <= 1e-8


def test_hexa_inner_outer_replacement(rng):
    # replacing a by its outer part keeps the function inner
    t = _random_tetra_inner(rng)
    B = BlaschkeProduct(rand_unit(rng), (rand_disc(rng, 0.5),))
    f = hexa_inner_construct(t, B, rand_unit(rng))
    outer_only = RationalHexaInner(f.tetra, f.A, BlaschkeProduct(f.B.phase),
                                   f.c)
    rep = hexa_inner_validate(outer_only)
    assert rep["ok"], rep["issues"]


def test_hexa_inner_json_round_trip(rng):
    t = _random_tetra_inner(rng)
    f = hexa_inner_construct(t, BlaschkeProduct(1.0, (0.3, -0.2j)),
                             rand_unit(rng))
    g = RationalHexaInner.from_dict(json.loads(json.dumps(f.to_dict())))
    for lam in (0.3, 0.2 - 0.4j, np.exp(0.5j)):
        assert np.allclose(np.array(f(lam), dtype=complex),
                           np.array(g(lam), dtype=complex), atol=1e-12)


def test_hexa_inner_validate_rejects_corrupted_c(rng):
    t = _random_tetra_inner(rng)
    f = hexa_inner_construct(t, BlaschkeProduct(1.0, (0.2,)), 1.0)
    rep = hexa_inner_validate(RationalHexaInner(f.tetra, f.A, f.B, 1.2))
    assert "|a|^2 + |x1|^2 != 1 on the circle" in rep["issues"]
    # |a|^2 grows by 1.44 where |a|^2 = 1 - |x1|^2
    x1 = np.abs(t.E1(_CIRC) / t.D(_CIRC))
    assert rep["circle_norm_residual"] == pytest.approx(
        0.44 * float(np.max(1.0 - x1 ** 2)), rel=1e-9)


def test_hexa_inner_validate_rejects_circle_off_bE(rng):
    t = _random_tetra_inner(rng)
    f = hexa_inner_construct(t, BlaschkeProduct(), 1.0)
    bad = RationalTetraInner(t.E1, t.E2.scale(1.1), t.D, t.n)
    rep = hexa_inner_validate(RationalHexaInner(bad, f.A, f.B, f.c))
    assert "circle image off the distinguished boundary" in rep["issues"]
    # x1 - conj(1.1 x2) x3 = -0.1 x1 on the circle
    assert rep["circle_bE_violation"] == pytest.approx(
        0.1 * float(np.max(np.abs(t.E1(_CIRC) / t.D(_CIRC)))), rel=1e-9)


def test_tetra_inner_validate_rejects_circle_bound(rng):
    t = _random_tetra_inner(rng)
    big = RationalTetraInner(t.E1.scale(3.0), t.E2.scale(3.0), t.D, t.n)
    rep = tetra_inner_validate(big)
    assert "|E_i| exceeds |D| on the circle" in rep["issues"]
    dv = np.abs(t.D(_CIRC))
    assert rep["circle_bound_excess"] == pytest.approx(3.0 * max(
        float(np.max(np.abs(E(_CIRC)) - dv / 3.0)) for E in (t.E1, t.E2)),
        rel=1e-9)


def test_tetra_inner_validate_rejects_circle_off_bE(rng):
    t = _random_tetra_inner(rng)
    rep = tetra_inner_validate(
        RationalTetraInner(t.E1, t.E2.scale(1.1), t.D, t.n))
    assert "circle image leaves the distinguished boundary" in rep["issues"]
    # checked on every eighth point of the circle
    circ = _CIRC[::8]
    assert rep["circle_bE_violation"] == pytest.approx(
        0.1 * float(np.max(np.abs(t.E1(circ) / t.D(circ)))), rel=1e-9)


def _vanishing_on_circle():
    """E1 = E2 = 0 and D = t - w, n = 1, with w = `_CIRCLE[1]`: a circle
    point outside the 256-point subgrid the zero check once read."""
    from hexablock.inner import _CIRCLE
    w = complex(_CIRCLE[1])
    return {"n": 1, "E1": [[0, 0]], "E2": [[0, 0]],
            "D": [[-w.real, -w.imag], [1, 0]]}


def test_tetra_inner_validate_rejects_d_zero_on_the_circle():
    t = RationalTetraInner.from_dict(_vanishing_on_circle())
    rep = tetra_inner_validate(t)
    assert not rep["ok"]
    assert "D vanishes on the closed disc" in rep["issues"]
    with pytest.raises(DomainError, match="D vanishes on the closed disc"):
        hexa_inner_construct(t, BlaschkeProduct(), 1.0)


def test_every_circle_grid_is_one_circle():
    # each circle grid is the roots of unity of its size, bit for bit, and
    # the closed-disc block of the validation table ends in the circle
    from hexablock import inner
    from hexablock.numerics import _FR_CIRCLE, _circle
    for grid in (_FR_CIRCLE, inner._CIRCLE, inner._CIRCLE_K0,
                 inner._CIRCLE_SPOT):
        assert grid.tobytes() == _circle(len(grid)).tobytes()
    k, nc = len(inner._DISC_CLOSED), len(inner._CIRCLE)
    closed = inner._VALIDATION_TABLE.points[: k + nc]
    assert closed[:k].tobytes() == inner._DISC_CLOSED.tobytes()
    assert closed[k:].tobytes() == inner._CIRCLE.tobytes()


def test_penta_inner_validate_rejects_non_inner_s():
    # s = 1/2 is not inner: s != conj(s) p and |a|^2 + |s|^2/4 = 17/16 on
    # the circle
    n = 2
    p = RationalPentaInner(Poly.const(0.5, n), Poly.const(1.0, n),
                           Poly.const(1.0, n), BlaschkeProduct(-1.0, (0.0,)),
                           1.0, n)
    rep = penta_inner_validate(p)
    assert "circle image off K0" in rep["issues"]
    assert rep["circle_K0_violation"] == pytest.approx(1.0, abs=1e-12)


def test_inner_array_evaluation_matches_scalar(rng):
    lam = np.concatenate([np.exp(2j * np.pi * np.arange(37) / 37),
                          [rand_disc(rng, 0.95) for _ in range(40)]])
    t = _random_tetra_inner(rng)
    B = BlaschkeProduct(rand_unit(rng), (0.3, rand_disc(rng, 0.7)))
    f = hexa_inner_construct(t, B, rand_unit(rng))
    p = RationalPentaInner(Poly(np.array([0.1, 0.3 + 0.2j, 0.1]), 2),
                           Poly.from_roots([1.7, -2.1j], n=2), f.A, B, 1.0, 2)
    for fn in (t, f, p, B):
        batch = np.array(fn(lam), dtype=complex)
        scalar = np.array([fn(z) for z in lam], dtype=complex)
        scalar = scalar.T if batch.ndim == 2 else scalar
        assert batch.shape == scalar.shape
        assert np.all(np.abs(batch - scalar) <= 1e-14 * np.abs(scalar) + 1e-300)


def test_hexa_inner_validate_work_is_independent_of_circle_size(rng,
                                                               monkeypatch):
    # every polynomial is evaluated in one power-table product over a grid
    # that holds the whole circle
    import hexablock.inner as inner
    from hexablock.numerics import _circle
    f = hexa_inner_construct(_random_tetra_inner(rng),
                             BlaschkeProduct(1.0, (0.2,)), 1.0)
    counts = {"poly": 0, "product": 0, "bE": 0}
    grids = []
    poly_call = Poly.__call__
    product = PowerTable.eval
    margin = inner._bE_margin

    def counted_poly(self, lam):
        counts["poly"] += 1
        return poly_call(self, lam)

    def counted_product(self, coeffs):
        counts["product"] += 1
        grids.append(len(self.points))
        return product(self, coeffs)

    def counted_margin(*x):
        counts["bE"] += 1
        return margin(*x)

    monkeypatch.setattr(Poly, "__call__", counted_poly)
    monkeypatch.setattr(PowerTable, "eval", counted_product)
    monkeypatch.setattr(inner, "_bE_margin", counted_margin)
    seen = []
    for n in (inner._CIRCLE_N, 8 * inner._CIRCLE_N):
        monkeypatch.setattr(inner, "_CIRCLE", _circle(n))
        monkeypatch.setattr(inner, "_VALIDATION_TABLE", PowerTable(
            np.concatenate([inner._DISC_CLOSED, inner._CIRCLE,
                            inner._DISC_TETRA, inner._DISC_HEXA])))
        counts.update(poly=0, product=0, bE=0)
        assert hexa_inner_validate(f)["ok"]
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    others = len(inner._DISC_CLOSED) + len(inner._DISC_TETRA) \
        + len(inner._DISC_HEXA)
    assert grids == [others + inner._CIRCLE_N, others + 8 * inner._CIRCLE_N]
    # one stacked product for the tetra and hexa checks; one bE margin on
    # the circle, which the tetra check reads every eighth point of
    assert seen[0] == {"poly": 0, "product": 1, "bE": 1}


def test_hexa_inner_validate_takes_one_array_tetra_verdict(rng, monkeypatch):
    import hexablock.domains as domains
    import hexablock.hexa as hexa
    verdict = domains._tetra_verdict
    sizes = []

    def counted(x1, x2, x3, tol):
        if isinstance(x1, np.ndarray):
            sizes.append(x1.size)
        return verdict(x1, x2, x3, tol)

    for mod in (domains, hexa):
        monkeypatch.setattr(mod, "_tetra_verdict", counted)
    for _ in range(4):
        f = hexa_inner_construct(_random_tetra_inner(rng),
                                 BlaschkeProduct(rand_unit(rng), (0.3,)), 1.0)
        sizes.clear()
        assert hexa_inner_validate(f)["ok"]
        # both disc grids in one verdict
        assert sizes == [160]


def test_hexa_inner_validate_work_counts(rng, monkeypatch):
    # one validation: one power-table product, one tetrablock verdict (on
    # both disc grids), each sample block coerced once, K* in closed form
    import hexablock.domains as domains
    import hexablock.hexa as hexa
    import hexablock.inner as inner
    import hexablock.numerics as numerics
    import hexablock.psi as psi
    counts = {"product": 0, "verdict": 0, "coerce": 0, "maximizer": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PowerTable, "eval", counted("product", PowerTable.eval))
    seams = {"_tetra_verdict": ("verdict", domains, (domains, hexa, inner)),
             "cx_arrays": ("coerce", numerics, (numerics, domains, hexa, inner)),
             "maximizer": ("maximizer", psi, (psi, hexa))}
    for name, (key, home, users) in seams.items():
        wrapper = counted(key, getattr(home, name))
        for mod in users:
            monkeypatch.setattr(mod, name, wrapper)
    for _ in range(5):
        f = hexa_inner_construct(_random_tetra_inner(rng),
                                 BlaschkeProduct(rand_unit(rng), (0.3,)),
                                 rand_unit(rng))
        counts.update(product=0, verdict=0, coerce=0, maximizer=0)
        assert hexa_inner_validate(f)["ok"]
        assert counts["product"] == 1 and counts["verdict"] == 1
        assert counts["coerce"] <= 2 and counts["maximizer"] == 0


def test_hexa_inner_validate_coerces_once(rng, monkeypatch):
    # f on the circle and on both disc grids is coerced in one call
    import hexablock.domains as domains
    import hexablock.hexa as hexa
    import hexablock.inner as inner
    import hexablock.numerics as numerics
    coerce = numerics.cx_arrays
    calls = []

    def counted(values):
        values = tuple(values)
        calls.append(len(values))
        return coerce(values)

    for mod in (numerics, domains, hexa, inner):
        monkeypatch.setattr(mod, "cx_arrays", counted)
    for _ in range(3):
        f = hexa_inner_construct(_random_tetra_inner(rng),
                                 BlaschkeProduct(rand_unit(rng), (0.3,)),
                                 rand_unit(rng))
        calls.clear()
        assert hexa_inner_validate(f)["ok"]
        assert calls == [4]


def test_hexa_tetra_report_is_tetra_inner_validate(rng):
    # the tetra part of the hexablock report, made from the hexablock
    # samples, is the standalone tetrablock report, on valid data and on
    # data whose disc images leave the tetrablock
    for _ in range(4):
        t = _random_tetra_inner(rng)
        f = hexa_inner_construct(t, BlaschkeProduct(rand_unit(rng), (0.2,)),
                                 rand_unit(rng))
        bad_t = RationalTetraInner(t.E1.scale(2.5), t.E2.scale(2.5), t.D, t.n)
        for g in (f, RationalHexaInner(bad_t, f.A, f.B, f.c)):
            got = hexa_inner_validate(g)["tetra"]
            want = tetra_inner_validate(g.tetra)
            assert got.keys() == want.keys()
            assert got["ok"] == want["ok"] and got["issues"] == want["issues"]
            for key in want.keys() - {"ok", "issues"}:
                assert got[key] == pytest.approx(want[key], rel=1e-12,
                                                 abs=1e-15)
        assert "disc image leaves the closed tetrablock" in got["issues"]


def test_disc_checks_are_one_array_evaluation(rng, monkeypatch):
    import hexablock.domains
    import hexablock.hexa
    calls = {"tetra_classify": 0, "h_member": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (hexablock.domains, hexablock.hexa):
        monkeypatch.setattr(mod, "tetra_classify",
                            counted("tetra_classify", mod.tetra_classify))
    monkeypatch.setattr(hexablock.hexa, "h_member",
                        counted("h_member", hexablock.hexa.h_member))
    for _ in range(6):
        f = hexa_inner_construct(_random_tetra_inner(rng),
                                 BlaschkeProduct(rand_unit(rng), (0.3,)), 1.0)
        calls.update(tetra_classify=0, h_member=0)
        assert hexa_inner_validate(f)["ok"]
        assert calls["tetra_classify"] <= 2 and calls["h_member"] <= 2


def test_disc_violations_match_scalar_loops(rng):
    # data whose disc images leave the domains: the array checks report the
    # worst margin of the per-point scalar classifiers
    from hexablock.domains import tetra_classify
    from hexablock.hexa import h_member
    from hexablock.inner import _DISC_HEXA, _DISC_TETRA
    for _ in range(4):
        t = _random_tetra_inner(rng)
        f = hexa_inner_construct(t, BlaschkeProduct(rand_unit(rng), (0.2,)),
                                 1.0)
        bad_t = RationalTetraInner(t.E1.scale(2.5), t.E2.scale(2.5), t.D, t.n)
        bad_f = RationalHexaInner(t, f.A.scale(1.4), f.B, f.c)
        ref_t = max(0.0, *(-min(v.margins["closure_beta"],
                                v.margins["closure_part4"])
                           for v in map(tetra_classify, zip(*bad_t(_DISC_TETRA)))))
        ref_h = max(0.0, *(-h_member(p, closed=True)[1]
                           for p in zip(*bad_f(_DISC_HEXA))))
        got_t = tetra_inner_validate(bad_t)["disc_closure_violation"]
        got_h = hexa_inner_validate(bad_f)["disc_closure_violation"]
        assert ref_h > 1e-3 and got_h == pytest.approx(ref_h, rel=1e-13)
        assert ref_t > 1e-3 and got_t == pytest.approx(ref_t, rel=1e-13)
        assert "disc image leaves the closed hexablock" in \
            hexa_inner_validate(bad_f)["issues"]


# ---------------------------------------------------------------------------
# Inner-outer splitting
# ---------------------------------------------------------------------------

def test_inner_outer_half_lambda():
    a_in, (num, den) = rational_inner_outer(Poly(np.array([0, 0.5]), 1),
                                            Poly.const(1.0, 0))
    assert a_in.zeros == (0.0,)
    # a_in = lam, a_out = 1/2 under positive-at-zero normalization
    assert complex(a_in(0.3)) == pytest.approx(0.3)
    assert complex(num(0.7)) / complex(den(0.7)) == pytest.approx(0.5)


def test_inner_outer_no_zeros():
    a_in, (num, den) = rational_inner_outer(Poly(np.array([0.5, 0.1]), 1),
                                            Poly.const(1.0, 0))
    assert a_in.degree == 0


def test_inner_outer_rejects_den_zero_on_the_circle():
    from hexablock.inner import _CIRCLE
    den = Poly(np.array([-complex(_CIRCLE[1]), 1.0]), 1)
    with pytest.raises(DomainError, match="denominator vanishes"):
        rational_inner_outer(Poly.const(0.0, 0), den)


def test_inner_outer_blaschke_times_third():
    num = Poly(np.array([-1 / 6, 1 / 3]), 1)
    den = Poly(np.array([1.0, -0.5]), 1)
    a_in, (onum, oden) = rational_inner_outer(num, den)
    assert len(a_in.zeros) == 1
    assert a_in.zeros[0] == pytest.approx(0.5)
    circ = np.exp(2j * np.pi * np.arange(32) / 32)
    assert np.max(np.abs(np.abs(a_in(circ)) - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(onum(circ) / oden(circ)) - 1 / 3)) < 1e-12
    for lam in (0.1, -0.3 + 0.2j):
        assert complex(a_in(lam)) * complex(onum(lam)) / complex(oden(lam)) \
            == pytest.approx(complex(num(lam)) / complex(den(lam)), abs=1e-12)


# ---------------------------------------------------------------------------
# Schwarz lemma
# ---------------------------------------------------------------------------

def test_schwarz_feasible_origin_always(rng):
    for _ in range(10):
        lam = rand_disc(rng, 0.9)
        if abs(lam) < 0.05:
            continue
        rep = schwarz_feasible(SchwarzProblem(lam, (0, 0, 0, 0)))
        assert rep.feasible


def test_schwarz_feasible_royal(rng):
    # target (a, 0, 0, w lam0) feasible iff |a| <= |lam0|
    lam0 = 0.5
    w = rand_unit(rng)
    ok = schwarz_feasible(SchwarzProblem(lam0, (0.4, 0, 0, w * lam0)))
    assert ok.feasible
    bad = schwarz_feasible(SchwarzProblem(lam0, (0.6, 0, 0, w * lam0)))
    assert not bad.feasible and bad.violated == "a_bound"


def test_schwarz_feasibility_criteria_agree(rng):
    agree = 0
    for _ in range(1000):
        lam = rng.uniform(0.15, 0.95)
        x = rand_tetra_point(rng, 0.9, min_margin=1e-3)
        a = rand_unit(rng) * rng.uniform(0, 1.2) / k_star(x)
        try:
            prob = SchwarzProblem(lam, (a, *x))
        except DomainError:
            continue
        rep = schwarz_feasible(prob)  # raises on criterion disagreement
        if all(abs(m) > 1e-7 for m in rep.margins.values()):
            agree += 1
    assert agree > 400


def test_schwarz_construct_royal_case(rng):
    for _ in range(50):
        lam0 = rng.uniform(0.2, 0.9) * rand_unit(rng)
        w = rand_unit(rng)
        a = rng.uniform(0, abs(lam0)) * rand_unit(rng)
        prob = SchwarzProblem(lam0, (a, 0, 0, w * lam0))
        f = schwarz_construct(prob)
        assert interpolation_residuals(f, prob) <= 1e-7
        assert hexa_inner_validate(f)["ok"]


def test_schwarz_construct_royal_equality_subcase(rng):
    lam0 = 0.5
    w = rand_unit(rng)
    a = 0.5 * rand_unit(rng)  # |a| = |lam0|
    prob = SchwarzProblem(lam0, (a, 0, 0, w * lam0))
    f = schwarz_construct(prob)
    assert interpolation_residuals(f, prob) <= 1e-9
    assert f.B.degree == 1  # pure rotation branch


def test_schwarz_construct_triangular_case(rng):
    for _ in range(50):
        lam0 = rng.uniform(0.25, 0.9)
        x1 = rng.uniform(0, lam0 * 0.98) * rand_unit(rng)
        x2 = rng.uniform(0, lam0 * 0.98) * rand_unit(rng)
        prob = SchwarzProblem(lam0, (0.0, x1, x2, x1 * x2))
        f = schwarz_construct(prob)
        assert interpolation_residuals(f, prob) <= 1e-7
        rep = hexa_inner_validate(f)
        assert rep["ok"], rep["issues"]


def test_schwarz_triangular_phase_is_closed_form():
    # triangular targets (a, x1, x2, x1 x2) with a = 0, each x_i generic,
    # on the circle |x_i| = |lambda0| (the rotation branch of
    # `_interp_zero_blaschke`) or 0: the global phase cD of the data is the
    # square root of (-1)^n conj(phi1 phi2), phi_i the Blaschke phases
    from hexablock.inner import _interp_zero_blaschke
    rng = np.random.default_rng(23)
    kinds = [(k1, k2) for k1 in ("disc", "rotation", "zero")
             for k2 in ("disc", "rotation", "zero")]
    for k1, k2 in kinds * 3:
        lam = rng.uniform(0.25, 0.9) * rand_unit(rng)
        x1, x2 = ({"disc": rng.uniform(0.05, 0.95) * lam * rand_unit(rng),
                   "rotation": lam * rand_unit(rng), "zero": 0j}[k]
                  for k in (k1, k2))
        prob = SchwarzProblem(lam, (0.0, x1, x2, x1 * x2))
        f = schwarz_construct(prob)
        b1 = _interp_zero_blaschke(lam, x1 / lam)
        b2 = _interp_zero_blaschke(lam, x2 / lam)
        assert (b1.degree == 1) == (k1 == "rotation")
        assert (b2.degree == 1) == (k2 == "rotation")
        t = f.tetra
        n = b1.degree + b2.degree
        assert t.n == n
        # D = cD m1 m2 with m1 m2 (0) = (-1)^n
        cD = complex(t.D.coeffs[0]) * (-1) ** n
        want = (-1) ** n * (b1.phase * b2.phase).conjugate()
        assert abs(cD ** 2 - want) <= 1e-15, (k1, k2)
        E1, E2 = t.components[:2]
        scale = max(np.abs(E1.padded()).max(), np.abs(E2.padded()).max())
        assert np.abs(E1.padded() - E2.reflect().padded()).max() \
            <= 1e-14 * scale, (k1, k2)
        assert interpolation_residuals(f, prob) <= 1e-12
        rep = hexa_inner_validate(f)
        assert rep["ok"], (k1, k2, rep["issues"])


def test_schwarz_triangular_nonzero_a_rejected():
    prob = SchwarzProblem(0.5, (0.2, 0.25, 0.25, 0.0625))
    assert schwarz_feasible(prob).feasible
    with pytest.raises(DomainError, match="supplied_tetra"):
        schwarz_construct(prob)


def test_schwarz_supplied_data_route(rng):
    for _ in range(30):
        lam0 = rng.uniform(0.3, 0.8) * rand_unit(rng)
        w = rand_unit(rng)
        w1 = complex(math.cos(0.5 * math.atan2(w.imag, w.real)),
                     math.sin(0.5 * math.atan2(w.imag, w.real)))
        D = Poly.const(w1.conjugate(), 1)
        t = RationalTetraInner(Poly.const(0, 1), Poly.const(0, 1), D, 1)
        a = rng.uniform(0, 0.95) * abs(lam0) * rand_unit(rng)
        prob = SchwarzProblem(lam0, (a, 0, 0, w * lam0))
        f = schwarz_construct(prob, supplied_tetra=t)
        assert interpolation_residuals(f, prob) <= 1e-7
        assert hexa_inner_validate(f)["ok"]


def test_schwarz_supplied_data_must_interpolate(rng):
    t = _const_tetra(1)  # x3 = lam, hits (0,0,lam0), not the target below
    prob = SchwarzProblem(0.5, (0.1, 0, 0, -0.5))
    with pytest.raises(DomainError, match="does not interpolate"):
        schwarz_construct(prob, supplied_tetra=t)


def test_schwarz_necessity_of_constructed(rng):
    # every constructed interpolant satisfies the feasibility inequalities
    for _ in range(20):
        lam0 = rng.uniform(0.3, 0.9)
        w = rand_unit(rng)
        a = rng.uniform(0, lam0) * rand_unit(rng)
        prob = SchwarzProblem(lam0, (a, 0, 0, w * lam0))
        f = schwarz_construct(prob)
        val = f(lam0)
        assert abs(complex(val[0])) <= lam0 * math.sqrt(
            1 - abs(complex(val[1])) ** 2) + 1e-9
        assert tetra_ratio(tuple(val)[1:]) <= lam0 + 1e-9


def test_schwarz_rejects_target_outside_h():
    with pytest.raises(DomainError):
        SchwarzProblem(0.5, (0.9, 0.8, 0.8, 0.1))
    with pytest.raises(DomainError):
        SchwarzProblem(0.0, (0.1, 0, 0, 0))


# ---------------------------------------------------------------------------
# Pentablock bridge
# ---------------------------------------------------------------------------

def test_penta_bridge_monomials():
    # (lam^m-data, 0, lam^n-data) bridges to (lam^m, 0, 0, lam^n)
    n = 2
    p = RationalPentaInner(Poly.const(0, n), Poly.const(1.0, n),
                           Poly.const(1.0, n), BlaschkeProduct(-1.0, (0.0,)),
                           1.0, n)
    h = penta_inner_to_hexa(p)
    lam = 0.3 + 0.1j
    a, x1, x2, x3 = h(lam)
    assert x1 == pytest.approx(0) and x2 == pytest.approx(0)
    assert a == pytest.approx(lam)
    assert x3 == pytest.approx(lam ** 2)
    assert hexa_inner_validate(h)["ok"]
    assert penta_inner_validate(p)["ok"]


def test_penta_bridge_round_trip(rng):
    # symmetric hexablock data with E = 2 E1
    n = 2
    E2 = Poly(np.array([0.1, 0.05 + 0.02j]), n)
    E1 = E2.reflect()
    # symmetrize: average so E1 = E2, preserving the reflection identity
    Es = Poly((E1.padded() + E2.padded()) / 2, n)
    if float(np.max(np.abs(Es.padded() - Es.reflect().padded()))) > 1e-12:
        Es = Poly((Es.padded() + Es.reflect().padded()) / 2, n)
    D = Poly.from_roots([1.7, -2.1], lead=1.0, n=n)
    t = RationalTetraInner(Es, Es, D, n)
    assert tetra_inner_validate(t)["ok"]
    f = hexa_inner_construct(t, BlaschkeProduct(), 1.0)
    p = hexa_inner_to_penta(f)
    assert np.allclose(p.E.padded(), 2 * Es.padded())
    h2 = penta_inner_to_hexa(p)
    lam = 0.25 - 0.15j
    assert np.allclose(np.array(f(lam), dtype=complex),
                       np.array(h2(lam), dtype=complex), atol=1e-12)


def test_penta_schwarz_feasibility_bridge(rng):
    agree = 0
    for _ in range(300):
        lam = rng.uniform(0.2, 0.9)
        s, p = (complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2))
        from hexablock.domains import penta_classify
        a = complex(*rng.uniform(-0.5, 0.5, 2))
        if not penta_classify(a, s, p).in_interior:
            continue
        try:
            rep = penta_schwarz_feasible(lam, a, s, p)
        except DomainError:
            continue
        direct = (2 * abs(s - s.conjugate() * p) + abs(s * s - 4 * p)) \
            / (4 - abs(s) ** 2) <= lam and \
            abs(a) <= lam * math.sqrt(1 - abs(s) ** 2 / 4)
        if all(abs(m) > 1e-7 for m in rep.margins.values()):
            assert rep.feasible == direct
            agree += 1
    assert agree > 100
