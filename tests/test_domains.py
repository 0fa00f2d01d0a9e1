import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexablock.numerics import (REFUSE_MARGIN, ConsistencyError, DiscAut,
                                DomainError, pi_penta, pi_tetra)
from hexablock.psi import Psi_eval, k_star, tetra_interior_margin
from hexablock.domains import (Region, bE_generator_params, bE_margin,
                               diamond, embed_biball, embed_g2, embed_penta,
                               embed_tetra, g2_classify, penta_classify,
                               penta_hn_witness, penta_radii, retract_g2,
                               retract_penta, retract_tetra, tau_of, tetra_classify, tetra_classify_batch)
from hexablock.hexa import h_member, hn_member
from hexablock.oracles import GridSpec, tetra_definitional
from hexablock.autos import TetraAut, tetra_aut_apply

from conftest import (columns, counted, rand_be_point, rand_contraction,
                      rand_disc, rand_discaut, rand_mat, rand_tetra_point,
                      rand_unit, tetra_region_points)


# ---------------------------------------------------------------------------
# Symmetrized bidisc
# ---------------------------------------------------------------------------

def test_g2_origin_interior():
    assert g2_classify(0, 0).region is Region.INTERIOR


def test_g2_royal_corner():
    assert g2_classify(2, 1).region is Region.DISTINGUISHED_BOUNDARY


def test_g2_zero_one_distinguished():
    assert g2_classify(0, 1).region is Region.DISTINGUISHED_BOUNDARY


def test_g2_exterior():
    assert g2_classify(3, 0).region is Region.EXTERIOR


def test_g2_matches_definitional(rng):
    # interior iff (s, p) = (z1 + z2, z1 z2) for z1, z2 in the open disc
    for _ in range(300):
        z1 = rand_disc(rng, 0.97)
        z2 = rand_disc(rng, 0.97)
        v = g2_classify(z1 + z2, z1 * z2)
        assert v.region is Region.INTERIOR


def _beta_witness(s, p):
    """beta with s = beta + conj(beta) p as `g2_classify` reports it, or
    None when the map is singular."""
    return g2_classify(s, p).witnesses.get("beta")


def _solve_beta_lu(s, p):
    """beta through numpy's LU solver, with the same singularity test."""
    a, b = 1.0 + p, 1j * (1.0 - p)
    M = np.array([[a.real, b.real], [a.imag, b.imag]])
    if abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) < 1e-12:
        return None
    u, v = np.linalg.solve(M, np.array([s.real, s.imag]))
    return complex(u, v)


def test_solve_beta_matches_lu_solver(rng):
    # the determinant is 1 - |p|^2; away from |p| = 1 the system is well
    # conditioned and Cramer's rule agrees with the LU solve to rounding
    n = 0
    while n < 10000:
        s = complex(*rng.uniform(-2.0, 2.0, 2))
        p = 1.5 * math.sqrt(rng.uniform()) * rand_unit(rng)
        if abs(1.0 - abs(p) ** 2) < 1e-2:
            continue
        n += 1
        want = _solve_beta_lu(s, p)
        got = _beta_witness(s, p)
        assert abs(got - want) <= 1e-12 * abs(want)
    # just above and below the singularity threshold |det| = 1e-12
    for det in (1.5e-12, 1.01e-12, 0.99e-12, 0.5e-12, 0.0):
        for phase in (1.0, rand_unit(rng), -1j):
            p = math.sqrt(1.0 - det) * phase
            s = complex(*rng.uniform(-2.0, 2.0, 2))
            want = _solve_beta_lu(s, p)
            got = _beta_witness(s, p)
            assert (got is None) == (want is None)
            if want is not None:
                # conditioned like 1/det: compare through the equation
                assert abs(got + got.conjugate() * p - s) <= 1e-3 * abs(got)
    assert _beta_witness(0.3, math.sqrt(1.0 - 1.5e-12)) is not None
    assert _beta_witness(0.3, math.sqrt(1.0 - 0.5e-12)) is None


def test_g2_beta_witness(rng):
    for _ in range(100):
        z1 = rand_disc(rng, 0.9)
        z2 = rand_disc(rng, 0.9)
        s, p = z1 + z2, z1 * z2
        beta = _beta_witness(s, p)
        assert beta is not None
        assert beta + beta.conjugate() * p == pytest.approx(s, abs=1e-10)


# ---------------------------------------------------------------------------
# Tetrablock
# ---------------------------------------------------------------------------

def test_tetra_axis_family():
    for alpha in (0.0, 0.5, -0.7j, 0.9):
        assert tetra_classify((0, 0, alpha)).region is Region.INTERIOR


def test_tetra_iii_exterior():
    assert tetra_classify((1j, 1j, 1j)).region is Region.EXTERIOR


def test_tetra_face_point_boundary_not_distinguished():
    for r in (0.2, 0.5, 0.8):
        v = tetra_classify((r, 0, 1 - r))
        assert v.region is Region.BOUNDARY


def test_tetra_distinguished(rng):
    for _ in range(50):
        v = tetra_classify(rand_be_point(rng))
        assert v.region is Region.DISTINGUISHED_BOUNDARY
    # triangular corner
    assert tetra_classify((1, 1, 1)).region is Region.DISTINGUISHED_BOUNDARY


def test_bE_margin_array_matches_scalar(rng):
    pts = [rand_be_point(rng) for _ in range(20)] \
        + [pi_tetra(rand_contraction(rng, 0.98)) for _ in range(20)] \
        + [(0.3, 1.5, 1.2j), (1, 1, 1)]
    scalar = [bE_margin(x) for x in pts]
    assert all(type(m) is float for m in scalar)
    assert scalar[:20] == pytest.approx([0.0] * 20, abs=1e-12)
    assert all(m < -1e-3 for m in scalar[20:-2])
    cols = tuple(np.array(c, dtype=complex) for c in zip(*pts))
    batch = bE_margin(cols)
    assert isinstance(batch, np.ndarray) and batch.shape == (len(pts),)
    # numpy's complex product and modulus round differently from Python's
    # in the last bit, so the two agree to rounding, not bit for bit
    assert batch.tolist() == pytest.approx(scalar, rel=1e-14, abs=1e-15)
    # scalar coordinates broadcast against array ones
    assert bE_margin((cols[0], 0.5, cols[2])).tolist() == pytest.approx(
        [bE_margin((x1, 0.5, x3)) for x1, x3 in zip(cols[0], cols[2])],
        rel=1e-14, abs=1e-15)
    with pytest.raises(DomainError):
        bE_margin((cols[0], cols[1], np.full(len(pts), np.nan)))


def test_tetra_classify_batch_matches_scalar(rng):
    pts = tetra_region_points(rng)
    regions, margins = tetra_classify_batch(columns(pts))
    assert regions.shape == margins["part3"].shape == (len(pts),)
    seen, keys = set(), set()
    for i, x in enumerate(pts):
        v = tetra_classify(x)
        assert regions[i] is v.region, x
        seen.add(v.region)
        keys |= set(v.margins)
        # part 7 abstains where 1 - |x3| < UNIT_X3_EDGE: absent on scalars,
        # nan on arrays
        assert np.isnan(margins["part7"][i]) == ("part7" not in v.margins), x
        for k, m in v.margins.items():
            assert abs(margins[k][i] - m) <= 1e-14 * max(1.0, abs(m)), (k, x)
    assert seen == set(Region)
    assert set(margins) == keys
    # scalar coordinates broadcast against arrays
    x1 = columns(pts)[0][:5]
    r, m = tetra_classify_batch((x1, 0.1, 0.0))
    assert list(r) == [tetra_classify((z, 0.1, 0.0)).region for z in x1]


def test_part7_abstains_next_to_the_unit_circle(rng):
    # part 7 divides by 1 - |x3|^2, rounding noise next to |x3| = 1, where
    # Python's and numpy's moduli may round |x3| to either side of 1; it
    # abstains within UNIT_X3_EDGE, as the closure stops reading it there.
    # x1 = conj(x2) x3 with x3 = (cos t, sin t) is bE for |x2| <= 1 and
    # outside the closure beyond
    from hexablock.domains import UNIT_X3_EDGE
    x = ((-0.5177119606104362 - 0.9196902687240394j),
         (1.010456290952005 - 0.30468664004237994j),
         (-0.7212267501822752 - 0.6926990506861649j))
    v = tetra_classify(x)
    regions, margins = tetra_classify_batch(columns([x]))
    assert v.region is regions[0] is Region.EXTERIOR
    assert "part7" not in v.margins and "beta1" not in v.witnesses
    assert np.isnan(margins["part7"][0])
    pts = []
    for _ in range(1000):
        t = rng.uniform(0.0, 2.0 * math.pi)
        x3 = complex(math.cos(t), math.sin(t))
        x2 = rng.uniform(0.3, 1.6) * rand_unit(rng)
        pts.append((x2.conjugate() * x3, x2, x3))
    regions, margins = tetra_classify_batch(columns(pts))
    for i, x in enumerate(pts):
        v = tetra_classify(x)
        assert regions[i] is v.region, x
        if abs(abs(x[1]) - 1.0) > 1e-3:
            assert v.region is (Region.EXTERIOR if abs(x[1]) > 1.0
                                else Region.DISTINGUISHED_BOUNDARY), x
        assert ("part7" in v.margins) == (1.0 - abs(x[2]) >= UNIT_X3_EDGE)
    assert np.isnan(margins["part7"]).all()


def test_vote_floor_abstains_below_any_tol():
    # margins within VOTE_FLOOR of zero are rounding noise: they abstain
    # at tol = 0 as well, so the first flag decides, and a margin past the
    # floor still votes
    from hexablock.domains import VOTE_FLOOR, _vote
    noise = {"part4": 2.220446049250313e-16, "part5": -2.7755575615628914e-17}
    for tol in (0.0, VOTE_FLOOR / 2):
        assert _vote(False, noise, tol, "v", (0j,)) is False
        assert _vote(True, noise, tol, "v", (0j,)) is True
        got = _vote(np.array([False, True]),
                    {k: np.full(2, m) for k, m in noise.items()}, tol, "v",
                    (np.zeros(2),))
        assert got.tolist() == [False, True]
        assert _vote(False, {"a": 2 * VOTE_FLOOR, "b": 0.0}, tol, "v",
                     (0j,)) is True
        with pytest.raises(ConsistencyError):
            _vote(False, {"a": 2 * VOTE_FLOOR, "b": -2 * VOTE_FLOOR}, tol,
                  "v", (0j,))


def test_tetra_beta_margins_near_unit_x3_match_mpmath(rng):
    # part 5, part 7 and closure_beta at |x3| = 1 - 10^-k, k = 2..8, against
    # 50-digit references at the same coordinates.  The betas divide by
    # den = 1 - |x3|^2, so part 7's rounding error grows like 1/den; the
    # bounds are 4 eps times the condition of each margin.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for k in range(2, 9):
        pts = []
        for _ in range(60):
            # x from betas with |b1| + |b2| = u: inside the closure for u <= 1
            u, t = rng.uniform(0, 1.3), rng.uniform(0, 1)
            b1, b2 = t * u * rand_unit(rng), (1 - t) * u * rand_unit(rng)
            x3 = (1.0 - 10.0 ** -k) * rand_unit(rng)
            pts.append((b1 + b2.conjugate() * x3, b2 + b1.conjugate() * x3, x3))
        _, batch = tetra_classify_batch(columns(pts))
        for i, x in enumerate(pts):
            scalar = tetra_classify(x).margins
            with mpmath.workdps(50):
                x1, x2, x3 = (mpmath.mpc(complex(v)) for v in x)
                den = 1 - abs(x3) ** 2
                d = abs(x1 - mpmath.conj(x2) * x3) + abs(x2 - mpmath.conj(x1) * x3)
                size = 1 + abs(x1) + abs(x2)
                refs = {"part5": (den - d, 4 * eps * size),
                        "part7": (1 - d / den, 4 * eps * size * (1 + d / den) / den)}
                refs["closure_beta"] = refs["part7"]
                for key, (ref, bound) in refs.items():
                    for got in (scalar[key], batch[key][i]):
                        assert abs(got - ref) <= bound, (k, key, x)


def test_tetra_split_vote_raises_naming_the_point(monkeypatch):
    import hexablock.domains as domains
    betas = domains._betas_from
    # doubled betas put part 7 outside while parts 3-8 read inside when
    # 1/2 < |b1| + |b2| < 1; they still agree at small betas
    monkeypatch.setattr(domains, "_betas_from",
                        lambda *c: tuple(2.0 * b for b in betas(*c)))
    good, bad = (0.1, 0.1, 0.0), (0.4, 0.2, 0.05)
    assert tetra_classify(good).region is Region.INTERIOR
    regions, _ = tetra_classify_batch(columns([good, good]))
    assert list(regions) == [Region.INTERIOR] * 2
    with pytest.raises(ConsistencyError) as err:
        tetra_classify(bad)
    msg = str(err.value)
    assert "tetrablock interior at point ((0.4+0j), (0.2+0j), (0.05+0j))" in msg
    assert "'part7': False" in msg and "'part3': True" in msg
    assert "part7: -1.429e-01" in msg
    with pytest.raises(ConsistencyError) as err:
        tetra_classify_batch(columns([good, bad, good]))
    assert str(err.value) == msg


_TOL = 1e-9
# margins on and around 0 and +-tol, where a criterion turns from
# abstaining to decisive, or anywhere in [-2 tol, 2 tol]
_st_margin = st.one_of(
    st.sampled_from([0.0, _TOL, -_TOL, np.nextafter(_TOL, 1.0),
                     -np.nextafter(_TOL, 1.0), 2 * _TOL, -2 * _TOL, np.nan]),
    st.floats(-2 * _TOL, 2 * _TOL))


@given(st.integers(2, 6).flatmap(lambda k: st.lists(
           st.lists(_st_margin, min_size=k, max_size=k), min_size=1, max_size=8)),
       st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_vote_is_the_same_on_scalars_and_arrays(columns_, data):
    # each column is one point's margins; the array vote takes the columns
    # stacked and must give every column's scalar vote, raising on the
    # first column whose scalar vote raises
    from hexablock.domains import _vote
    firsts = data.draw(st.lists(st.booleans(), min_size=len(columns_),
                                max_size=len(columns_)))
    names = [f"c{k}" for k in range(len(columns_[0]))]
    scalar = []
    for j, (col, first) in enumerate(zip(columns_, firsts)):
        try:
            scalar.append(_vote(first, dict(zip(names, col)), _TOL, "v", (j,)))
        except ConsistencyError as exc:
            scalar.append(exc)
    rows = np.array(columns_).T
    index = np.arange(len(columns_))
    split = [j for j, r in enumerate(scalar) if isinstance(r, Exception)]
    if split:
        with pytest.raises(ConsistencyError) as err:
            _vote(np.array(firsts), dict(zip(names, rows)), _TOL, "v", (index,))
        assert str(err.value) == str(scalar[split[0]])
    keep = [j for j in index if j not in split]
    if keep:
        got = _vote(np.array(firsts)[keep], dict(zip(names, rows[:, keep])),
                    _TOL, "v", (index[keep],))
        assert got.tolist() == [scalar[j] for j in keep]


def test_tetra_from_contractions(rng):
    for _ in range(300):
        x = pi_tetra(rand_contraction(rng, 0.98))
        assert tetra_classify(x).region is Region.INTERIOR


def test_tetra_definitional_oracle_agreement(rng):
    spec = GridSpec(radial_points=10, angular_points=20, refinement_levels=2)
    checked = 0
    for _ in range(120):
        x = tuple(complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(3))
        v = tetra_classify(x)
        margin = min(v.margins["closure_beta"], v.margins["closure_part4"])
        if abs(margin) < 1e-3:
            continue
        ok, dmin = tetra_definitional(x, spec, tol=1e-3)
        if v.region is Region.EXTERIOR:
            # grids certify non-membership robustly
            assert dmin < 0.05 or not ok
        else:
            assert ok
        checked += 1
    assert checked > 60


def test_tetra_consistency_sweep(rng):
    # equivalent criteria must agree pairwise on a box sample
    for _ in range(2000):
        x = tuple(complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(3))
        tetra_classify(x)  # raises ConsistencyError on disagreement


# ---------------------------------------------------------------------------
# Pentablock
# ---------------------------------------------------------------------------

def test_penta_origin():
    assert penta_classify(0, 0, 0).region is Region.INTERIOR


def test_penta_triangle_vertex_distinguished():
    v = penta_classify(1, 0, -1)
    assert v.region is Region.DISTINGUISHED_BOUNDARY


def test_penta_surface_point_boundary():
    v = penta_classify(1, 0, 0.5)
    assert v.region is Region.BOUNDARY


def test_penta_root_swap_invariance(rng):
    for _ in range(100):
        l1 = rand_disc(rng, 0.95)
        l2 = rand_disc(rng, 0.95)
        a = complex(*rng.normal(0, 0.4, 2))
        _, r1 = penta_radii(l1 + l2, l1 * l2)
        # swapping the roots leaves the closed-form radius unchanged
        direct = 0.5 * abs(1 - l1.conjugate() * l2) + 0.5 * math.sqrt(
            (1 - abs(l1) ** 2) * (1 - abs(l2) ** 2))
        assert r1 == pytest.approx(direct, rel=1e-9)


def test_penta_hexa_bridge(rng):
    # (a, s, p) in P iff (a, s/2, s/2, p) in H
    for _ in range(400):
        a, s, p = (complex(*rng.uniform(-1.1, 1.1, 2)) for _ in range(3))
        v = penta_classify(a, s, p)
        if abs(v.margins.get("closure", 1.0)) < 1e-5:
            continue
        inside, margin = h_member((a, s / 2, s / 2, p))
        if abs(margin) < 1e-5:
            continue
        assert inside == v.in_interior


def test_penta_psi_sup_margin_is_the_hexablock_k_star(rng):
    # c_plus = 1/K*(s/2, s/2, p): the vote's psi_sup criterion is the
    # hexablock's one K* at the symmetric point, to the last bit
    points = [pi_penta(rand_contraction(rng, cap))
              for cap in (0.5, 0.95, 0.999, 0.999999) for _ in range(100)]
    points += [tuple(complex(*rng.uniform(-1.1, 1.1, 2)) for _ in range(3))
               for _ in range(400)]
    routes = 0
    for a, s, p in points:
        v = penta_classify(a, s, p)
        x = (s / 2, s / 2, p)
        if tetra_interior_margin(x) > REFUSE_MARGIN:
            routes += 1
            assert v.margins["psi_sup"] == 1 - abs(a) * k_star(x)
        else:
            assert "psi_sup" not in v.margins
    assert routes >= 400


def test_bridge_terms_are_the_tetra_terms_of_the_symmetric_point():
    # the G2 verdict's terms give psi._tetra_terms(s/2, s/2, p) bit for
    # bit, from 1e-150 to 1e150, at |s| -> 2, |p| -> 1, s = 0 and p = 0
    import struct
    from hexablock.domains import _bridge_terms, _g2_verdict
    from hexablock.psi import _tetra_terms

    def bits(terms):
        return [struct.pack("<dd", t.real, t.imag) if isinstance(t, complex)
                else struct.pack("<d", t) for t in terms]

    rng = np.random.default_rng(4242)
    unit = [rand_unit(rng) for _ in range(40)]
    points = [(0j, 0j), (0j, 0.3 + 0j), (1.2 + 0j, 0j)]
    for scale in 10.0 ** np.arange(-150, 151, 25):
        points += [(complex(*rng.normal(0, scale, 2)),
                    complex(*rng.normal(0, scale, 2))) for _ in range(20)]
    for k in range(1, 16):
        edge = 1.0 - 10.0 ** -k
        points += [(2.0 * edge * u, edge * v) for u, v in zip(unit, unit[1:])]
        points += [(2.0 * edge * u, 0j) for u in unit[:5]]
        points += [(0j, edge * v) for v in unit[:5]]
    # on the axes, where a part of c12 or v is zero
    for x in (0.0, 0.7, -0.7, -1.3):
        for y in (0.0, 0.4, -0.9):
            points += [(complex(x), complex(y)), (complex(0.0, x), complex(y)),
                       (complex(x), complex(0.0, y)),
                       (complex(0.0, x), complex(0.0, y))]
    for s, p in points:
        bridge = _bridge_terms(_g2_verdict(s, p, 1e-9)[3])
        assert bits(bridge) == bits(_tetra_terms(s / 2, s / 2, p)), (s, p)


def test_penta_classify_work_per_call(monkeypatch, rng):
    # one root solve, read by the G2 verdict and c_plus; the symmetric
    # point's interior margin and K* come from psi's private cores; a, s
    # and p are coerced once each, the root solve takes them as they are;
    # the symmetric point's terms come from the G2 verdict, in a pentablock
    # verdict and in each membership of the mu bisection
    import hexablock.domains as domains
    import hexablock.hexa as hexa
    import hexablock.numerics as numerics
    import hexablock.psi as psi
    mods = (numerics, psi, domains, hexa)
    roots = counted(monkeypatch, "_quadratic_roots", mods)
    ks = counted(monkeypatch, "k_star", mods[1:])
    margin = counted(monkeypatch, "tetra_interior_margin", mods[1:])
    terms = counted(monkeypatch, "_tetra_terms", mods[1:])
    coerce = counted(monkeypatch, "cx", mods)
    points = [(0, 0, 0), (1, 0, -1), (1, 0, 0.5), (0.1, 2, 1)]
    points += [pi_penta(rand_contraction(rng, 0.95)) for _ in range(40)]
    routes = 0
    for k, q in enumerate(points, 1):
        coerce[0] = 0
        v = penta_classify(*q)
        routes += "psi_sup" in v.margins
        assert (roots[0], ks[0], margin[0], terms[0], coerce[0]) == (k, 0, 0, 0, 3)
    assert routes >= 40
    for _ in range(20):
        hexa.mu_value(rand_mat(rng), "penta")
    assert roots[0] > len(points) + 20 and terms[0] == 0


# ---------------------------------------------------------------------------
# Diamond action and tau
# ---------------------------------------------------------------------------

def test_diamond_identity_action(rng):
    ident = (0, 0, -1)  # tau of the identity automorphism
    for _ in range(20):
        x = rand_tetra_point(rng)
        assert diamond(ident, x) == pytest.approx(x, abs=1e-12)


def test_diamond_absorbs_zero():
    x = (0.2 + 0.1j, 0.3, 0.05)
    assert diamond(x, (0, 0, 0)) == pytest.approx((x[0], 0, 0))


def test_diamond_composition_law(rng):
    for _ in range(50):
        x = rand_tetra_point(rng, 0.95)
        y = rand_tetra_point(rng, 0.9)
        xy = diamond(x, y)
        for _ in range(8):
            z = rand_disc(rng, 0.9)
            lhs = Psi_eval(Psi_eval(z, y), x)
            rhs = Psi_eval(z, xy)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_diamond_singularity():
    with pytest.raises(DomainError):
        diamond((0, 1.0, 0), (1.0, 0, 0))


def test_tau_of(rng):
    assert tau_of(DiscAut.identity()) == pytest.approx((0, 0, -1))
    for _ in range(50):
        v = rand_discaut(rng)
        t = tau_of(v)
        # normal form -xi B_z maps to (-xi z, conj(z), -xi)
        assert t == pytest.approx((v.xi * v.z, v.z.conjugate(), v.xi))
        for _ in range(4):
            lam = rand_disc(rng, 0.95)
            assert Psi_eval(lam, t) == pytest.approx(v(lam), abs=1e-11)
        assert tetra_classify(t).region in (Region.BOUNDARY,
                                            Region.DISTINGUISHED_BOUNDARY)


# ---------------------------------------------------------------------------
# Embeddings and retractions
# ---------------------------------------------------------------------------

def test_retract_embed_identity(rng):
    for _ in range(50):
        a, s, p = (complex(*rng.normal(0, 0.4, 2)) for _ in range(3))
        assert retract_penta(embed_penta(a, s, p)) == pytest.approx((a, s, p))
        assert retract_g2(embed_g2(s, p)) == pytest.approx((s, p))
        x = rand_tetra_point(rng)
        assert retract_tetra(embed_tetra(x)) == pytest.approx(x)


def test_biball_slice(rng):
    # (a, x) in B2 iff (a, x, 0, 0) in H
    for _ in range(200):
        a, x = (complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2))
        inside, margin = h_member(embed_biball(a, x))
        expect = abs(a) ** 2 + abs(x) ** 2 < 1.0
        if abs(abs(a) ** 2 + abs(x) ** 2 - 1.0) < 1e-6:
            continue
        assert inside == expect


def test_embed_tetra_into_hexa(rng):
    for alpha in (0.1, 0.5j, -0.8):
        inside, _ = h_member(embed_tetra((0, 0, alpha)))
        assert inside


def test_penta_hn_witness(rng):
    count_shift = 0
    for _ in range(200):
        A = rand_contraction(rng, 0.95)
        a, s, p = A.a21, A.trace, A.det
        if not penta_classify(a, s, p).in_interior:
            continue
        w = penta_hn_witness(a, s, p)
        inside, margin = hn_member(w)
        assert inside, (w, margin)
        assert retract_penta(w) == pytest.approx((a, s, p), abs=1e-10)
        if abs(w[1] - w[2]) > 1e-10:
            count_shift += 1
    # both branches of the witness construction should occur
    assert count_shift > 0


def test_penta_hn_witness_symmetric_branch():
    # c_- < |a| < c_+ keeps the symmetric point
    a, s, p = 0.3, 0.2, 0.1
    cm, cp = penta_radii(s, p)
    assert cm < abs(a) < cp
    w = penta_hn_witness(a, s, p)
    assert w == pytest.approx((a, s / 2, s / 2, p))
    assert penta_hn_witness(0, 0, 0) == pytest.approx((0, 0, 0, 0))


def test_penta_hn_witness_shifted_branch():
    # small |a| <= c_- needs the zeta shift
    s, p = 1.0, 0.21  # real distinct roots 0.7 and 0.3
    cm, _ = penta_radii(s, p)
    assert cm > 0.01
    a = 0.5 * cm
    w = penta_hn_witness(a, s, p)
    assert abs(w[1] - w[2]) > 1e-6
    inside, _ = hn_member(w)
    assert inside


# ---------------------------------------------------------------------------
# Distinguished boundary generation
# ---------------------------------------------------------------------------

def test_be_orbit_classifies_distinguished(rng):
    for _ in range(100):
        t = TetraAut(rand_discaut(rng), rand_discaut(rng), False)
        for base in ((0, 0, 1), (1, 1, 1)):
            img = tetra_aut_apply(t, base)
            assert tetra_classify(img).region is Region.DISTINGUISHED_BOUNDARY


def test_be_generator_recovery(rng):
    from hexablock.autos import _chi_from_params, _v_from_params
    for _ in range(200):
        x = rand_be_point(rng)
        kind, xi1, z1, xi2, z2 = bE_generator_params(x)
        t = TetraAut(_v_from_params(xi1, z1), _chi_from_params(xi2, z2), False)
        base = (1, 1, 1) if kind == "triangular" else (0, 0, 1)
        img = tetra_aut_apply(t, base)
        assert img == pytest.approx(x, abs=1e-8)
    for _ in range(30):
        x1, x2 = rand_unit(rng), rand_unit(rng)
        kind, *params = bE_generator_params((x1, x2, x1 * x2))
        assert kind == "triangular"
