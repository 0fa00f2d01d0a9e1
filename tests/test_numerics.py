import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexablock.numerics import (BlaschkeProduct, ConsistencyError, DiscAut,
                                DomainError, Mat2,
                                Poly, fejer_riesz, lift_point,
                                matricial_mobius, op_norm, pi_gamma, pi_hexa,
                                pi_penta, pi_tetra, poly_abs2_trig,
                                poly_reflect, singular_values, spectral_radius,
                                stable_quadratic_roots, upper_tri_contraction,
                                _horner)

from conftest import rand_contraction, rand_disc, rand_discaut, rand_mat, \
    rand_unit


def test_op_norm_identity():
    assert op_norm(Mat2(1, 0, 0, 1)) == pytest.approx(1.0, abs=1e-15)


def test_op_norm_nilpotent_five():
    # ||[[0,5],[0,0]]|| = 5 exactly
    assert op_norm(Mat2(0, 5, 0, 0)) == pytest.approx(5.0, abs=1e-12)


def test_op_norm_diagonal_is_max_modulus(rng):
    for _ in range(50):
        z1 = complex(*rng.normal(0, 1, 2))
        z2 = complex(*rng.normal(0, 1, 2))
        A = Mat2(z1, 0, 0, z2)
        assert op_norm(A) == pytest.approx(max(abs(z1), abs(z2)), rel=1e-12)


def test_op_norm_matches_numpy_svd(rng):
    for _ in range(200):
        A = rand_mat(rng)
        smax, smin = singular_values(A)
        ref = np.linalg.svd(A.to_array(), compute_uv=False)
        assert smax == pytest.approx(float(ref[0]), rel=1e-10, abs=1e-12)
        assert smin == pytest.approx(float(ref[1]), rel=1e-8, abs=1e-10)


def test_op_norm_dominates_spectral_radius(rng):
    for _ in range(300):
        A = rand_mat(rng)
        assert op_norm(A) >= spectral_radius(A) - 1e-10


def test_quadratic_roots_stable():
    l1, l2 = stable_quadratic_roots(1e8 + 1e-8, 1.0)
    assert abs(l1 * l2 - 1.0) < 1e-8
    assert abs(l1 + l2 - (1e8 + 1e-8)) < 1e-4


def test_quadratic_roots_are_relative_at_every_scale():
    # t^2 - (3c + 1e-9 c) t + 3e-9 c^2: the small root is p / big at every
    # scale c, not a cancelling difference once |big| falls below a fixed
    # threshold
    for c in (1.0, 1e-10, 1e-20, 1e-100, 1e150):
        big, small = stable_quadratic_roots((3.0 + 1e-9) * c, 3e-9 * c * c)
        assert big / c == pytest.approx(3.0, rel=1e-15, abs=0.0)
        assert small / c == pytest.approx(1e-9, rel=1e-15, abs=0.0), c
    assert stable_quadratic_roots(0.0, 0.0) == (0j, 0j)


def test_upper_tri_contraction_equality_case():
    assert upper_tri_contraction(0, 1, 0) is True
    assert upper_tri_contraction(0, 1, 0, strict=True) is False
    assert upper_tri_contraction(0, 0, 0, strict=True) is True


def test_upper_tri_contraction_derived_case():
    # singular value of [[1/2, 0.9], [0, 1/2]] exceeds 1
    assert op_norm(Mat2(0.5, 0.9, 0.0, 0.5)) > 1.0
    assert upper_tri_contraction(0.5, 0.9, 0.5) is False


def test_upper_tri_contraction_agrees_with_norm(rng):
    agree = 0
    for _ in range(10_000):
        z1, w, z2 = (complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(3))
        criterion = upper_tri_contraction(z1, w, z2)
        norm = op_norm(Mat2(z1, w, 0, z2)) <= 1.0 + 1e-12
        if abs(op_norm(Mat2(z1, w, 0, z2)) - 1.0) < 1e-9:
            continue  # boundary: both answers defensible
        assert criterion == norm
        agree += 1
    assert agree > 9000


def test_projections():
    A = Mat2(0, 0, 1, 0)
    assert pi_hexa(A) == (1, 0, 0, 0)
    B = Mat2(0.3, 0, 0, 0.4)
    assert pi_penta(B) == (0, pytest.approx(0.7), pytest.approx(0.12))
    C = Mat2(0.5, 0, 0.2, 0.6)
    x = pi_tetra(C)
    assert x == (0.5, 0.6, pytest.approx(0.3))
    assert pi_gamma(C) == (pytest.approx(1.1), pytest.approx(0.3))


def test_lift_point_examples():
    A = lift_point((1, 0, 0, 0))
    assert A.to_array() == pytest.approx(np.array([[0, 0], [1, 0]]))
    # triangular: w-entry vanishes
    B = lift_point((0.3 + 0.1j, 0.5, 0.25, 0.125))
    assert abs(B.a12) < 1e-12
    # off-diagonal lift: the x3 coordinate comes entirely from a12*a21
    C = lift_point((-0.25, 0, 0, 0.5))
    assert C.to_array() == pytest.approx(np.array([[0, 2], [-0.25, 0]]))
    with pytest.raises(DomainError):
        lift_point((0, 1, 1, 1))


def test_lift_round_trip(rng):
    for _ in range(100):
        p = tuple(complex(*rng.normal(0, 1, 2)) for _ in range(4))
        if abs(p[0]) < 1e-3:
            continue
        assert pi_hexa(lift_point(p)) == pytest.approx(p)


# ---------------------------------------------------------------------------
# Disc automorphisms
# ---------------------------------------------------------------------------

def test_disc_aut_identity():
    e = DiscAut.identity()
    for lam in (0.3, -0.5 + 0.1j, 0.9j):
        assert e(lam) == pytest.approx(lam)


def test_disc_aut_compose_invert_eval(rng):
    for _ in range(200):
        v = rand_discaut(rng)
        w = rand_discaut(rng)
        lam = rand_disc(rng, 0.95)
        assert v.compose(w)(lam) == pytest.approx(v(w(lam)), abs=1e-12)
        assert v.invert()(v(lam)) == pytest.approx(lam, abs=1e-12)
        assert abs(v(cmath.exp(1j))) == pytest.approx(1.0, abs=1e-12)


def test_disc_aut_group_laws_pointwise(rng):
    for _ in range(100):
        u, v, w = (rand_discaut(rng) for _ in range(3))
        lam = rand_disc(rng, 0.9)
        lhs = u.compose(v).compose(w)(lam)
        rhs = u.compose(v.compose(w))(lam)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        ident = v.compose(v.invert())
        assert ident.approx_eq(DiscAut.identity(), tol=1e-10)


def test_disc_aut_star_involution(rng):
    for _ in range(100):
        v = rand_discaut(rng)
        assert v.star().star().approx_eq(v)
        w = rand_discaut(rng)
        # anti-homomorphism: (v o w)* = w* o v*
        assert v.compose(w).star().approx_eq(w.star().compose(v.star()), 1e-10)
        # (v^-1)* = (v*)^-1
        assert v.invert().star().approx_eq(v.star().invert(), 1e-10)


def test_disc_aut_rejects_bad_parameters():
    with pytest.raises(DomainError):
        DiscAut(1.0, 1.0)
    with pytest.raises(DomainError):
        DiscAut(2.0, 0.0)


# ---------------------------------------------------------------------------
# Polynomials and reflection
# ---------------------------------------------------------------------------

def test_poly_reflect_examples():
    one = Poly(np.array([1.0]), 1)
    assert poly_reflect(one, 1).padded() == pytest.approx(np.array([0, 1]))
    g = Poly(np.array([2.0, 1.0]), 1)
    assert poly_reflect(g, 1).padded() == pytest.approx(np.array([1, 2]))
    with pytest.raises(DomainError):
        poly_reflect(Poly(np.array([1.0, 1.0, 1.0]), 2), 1)


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=1, max_size=6),
       st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_poly_reflect_involution(coeffs, extra):
    c = np.array([complex(a, b) for a, b in coeffs])
    n = len(c) - 1 + extra
    g = Poly(c, n)
    assert np.allclose(g.reflect().reflect().padded(), g.padded())


def test_poly_eval_and_reflect_identity(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        c = rng.normal(0, 1, n + 1) + 1j * rng.normal(0, 1, n + 1)
        g = Poly(c, n)
        lam = rand_unit(rng)
        # g~n(lam) = lam^n conj(g(1/conj(lam))) on the circle
        lhs = g.reflect()(lam)
        rhs = lam ** n * np.conj(g(1.0 / np.conj(lam)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# Blaschke products
# ---------------------------------------------------------------------------

def test_blaschke_unimodular_on_circle(rng):
    b = BlaschkeProduct(rand_unit(rng), (0.3, -0.2 + 0.4j, 0.1j))
    for t in np.linspace(0, 2 * np.pi, 17):
        assert abs(b(np.exp(1j * t))) == pytest.approx(1.0, abs=1e-12)
    assert abs(b(0.2)) < 1.0


def test_blaschke_rational_form_matches(rng):
    b = BlaschkeProduct(rand_unit(rng), (rand_disc(rng), rand_disc(rng)))
    num, den = b.as_rational()
    for _ in range(20):
        lam = rand_disc(rng, 0.95)
        assert num(lam) / den(lam) == pytest.approx(b(lam), abs=1e-12)


# ---------------------------------------------------------------------------
# Fejer-Riesz
# ---------------------------------------------------------------------------

def test_fejer_riesz_constant():
    D = fejer_riesz(np.array([1.0]))
    assert D.padded() == pytest.approx(np.array([1.0]))


def test_fejer_riesz_known_factor():
    # f = 5 + 2 lam + 2 / lam = |2 + lam|^2
    D = fejer_riesz(np.array([2.0, 5.0, 2.0]))
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(np.abs(D(circle)) - np.abs(2.0 + circle))) < 1e-10


def test_fejer_riesz_second_example():
    # f = 5/4 - lam/2 - 1/(2 lam) = |1 - lam/2|^2
    D = fejer_riesz(np.array([-0.5, 1.25, -0.5]))
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(np.abs(D(circle)) - np.abs(1.0 - circle / 2.0))) < 1e-10


def _random_outside_poly(rng, max_deg=6, rmin=1.15, rmax=3.0):
    deg = int(rng.integers(0, max_deg + 1))
    roots = [rng.uniform(rmin, rmax) * rand_unit(rng) for _ in range(deg)]
    lead = complex(*rng.normal(0, 1, 2))
    if abs(lead) < 0.2:
        lead = 0.5 + 0.5j
    return Poly.from_roots(roots, lead=lead)


def test_fejer_riesz_round_trip(rng):
    circle = np.exp(2j * np.pi * np.arange(512) / 512)
    for _ in range(60):
        D0 = _random_outside_poly(rng)
        f = poly_abs2_trig(D0)
        D = fejer_riesz(f, strict=True)
        err = np.max(np.abs(np.abs(D(circle)) - np.abs(D0(circle))))
        assert err < 1e-8 * max(1.0, float(np.max(np.abs(D0(circle)))) ** 2)


def test_fejer_riesz_rejects_negative():
    # f = cos(theta) takes negative values
    with pytest.raises(DomainError):
        fejer_riesz(np.array([0.5, 0.0, 0.5]))


def test_fejer_riesz_strict_rejects_circle_roots():
    # f = |1 - lam|^2 vanishes at lam = 1
    with pytest.raises(DomainError):
        fejer_riesz(np.array([-1.0, 2.0, -1.0]), strict=True)
    D = fejer_riesz(np.array([-1.0, 2.0, -1.0]))  # non-strict is fine
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(np.abs(D(circle)) - np.abs(1 - circle))) < 1e-7


def _fr_residual(f, D) -> float:
    """max over 97 circle points of ||D|^2 - f|, relative to max |f_k|, at
    30 digits."""
    import mpmath
    with mpmath.workdps(30):
        fk = [mpmath.mpc(complex(v)) for v in f]
        dk = [mpmath.mpc(complex(v)) for v in D.coeffs]
        n = (len(fk) - 1) // 2
        worst = mpmath.mpf(0)
        for j in range(97):
            lam = mpmath.expjpi(mpmath.mpf(2 * j) / 97)
            fv = sum(fk[k + n] * lam ** k for k in range(-n, n + 1))
            worst = max(worst, abs(abs(mpmath.polyval(dk[::-1], lam)) ** 2 - fv))
        return float(worst / max(abs(v) for v in fk))


def test_fejer_riesz_matches_mpmath(rng):
    # |D|^2 = f on the circle, checked at 30 digits: degrees 0-6, vanishing
    # extreme coefficients that the factorization trims, and factors with
    # zeros on the circle (double zeros of f, double roots of t^n f(t))
    for deg in range(7):
        roots = [rng.uniform(1.1, 3.0) * rand_unit(rng) for _ in range(deg)]
        f = poly_abs2_trig(Poly.from_roots(roots, lead=0.3 + 1.1j))
        assert _fr_residual(f, fejer_riesz(f)) < 1e-12
    f = poly_abs2_trig(Poly.from_roots([2.0, -1.5j]))
    padded = np.concatenate([[0.0, 0.0], f, [0.0, 0.0]])
    D = fejer_riesz(padded)
    assert D.n == 2 and _fr_residual(padded, D) < 1e-12
    for g in ([1.0, 0.5j], [2.0, -1.0, 0.3]):
        D0 = Poly.from_roots([rand_unit(rng)]).mul(Poly(np.array(g), len(g) - 1))
        f = poly_abs2_trig(D0)
        assert _fr_residual(f, fejer_riesz(f)) < 1e-12
    # a double zero of D on the circle: the roots are only good to about
    # sqrt(eps), within the factorization's own reconstruction bound
    f = poly_abs2_trig(Poly.from_roots([1.0, 1.0]))
    assert _fr_residual(f, fejer_riesz(f)) < 1e-7


def test_horner_matches_polyval(rng):
    from hexablock.numerics import _horner
    polyval = np.polynomial.polynomial.polyval

    def close(got, want, c, lam):
        # relative to the sum of the moduli of the terms
        scale = polyval(np.abs(lam), np.abs(c))
        return np.all(np.abs(got - want) <= 1e-15 * scale)

    lam = rng.normal(0, 1, 41) + 1j * rng.normal(0, 1, 41)
    grid = lam.reshape(41, 1) * np.exp(0.1j * np.arange(3))
    for deg in range(8):
        rows = rng.normal(0, 1, (5, deg + 1)) + 1j * rng.normal(0, 1, (5, deg + 1))
        c = rows[0]
        for z in (complex(lam[0]), 0.7, 0, np.complex128(lam[1])):
            got = _horner(c, z)
            assert isinstance(got, np.complex128)
            assert close(got, polyval(z, c), c, z)
        assert close(_horner(c, lam), polyval(lam, c), c, lam)
        assert _horner(c, grid).shape == grid.shape
        assert close(_horner(c, grid), polyval(grid, c), c, grid)
        assert Poly(c, deg)(lam[2]) == _horner(c, lam[2])
    # degree 0: the constant, at full shape
    assert np.all(_horner(np.array([2.5 - 1j]), lam) == 2.5 - 1j)


def test_poly_with_bound_keeps_self():
    p = Poly(np.array([1.0, 2.0]), 3)
    assert p.with_bound(3) is p
    wider = p.with_bound(4)
    assert wider.n == 4 and wider.coeffs.tolist() == p.coeffs.tolist()


def test_poly_unchecked_paths_match_the_constructor(rng):
    # reflect and a widening with_bound skip __post_init__; their results
    # equal the checked constructor's, read-only coefficients included
    for deg in range(6):
        c = rng.normal(0, 1, deg + 1) + 1j * rng.normal(0, 1, deg + 1)
        p = Poly(c, deg + 2)
        for fast, slow in ((p.reflect(), Poly(np.conj(p.padded()[::-1]), p.n)),
                           (p.with_bound(deg + 5), Poly(p.coeffs, deg + 5))):
            assert fast.n == slow.n
            assert fast.coeffs.tolist() == slow.coeffs.tolist()
            assert fast.coeffs.dtype == complex and not fast.coeffs.flags.writeable
    # narrowing still checks the dropped coefficients
    assert Poly(np.array([1.0, 2.0, 0.0]), 3).with_bound(1).n == 1
    with pytest.raises(DomainError):
        Poly(np.array([1.0, 2.0, 3.0]), 3).with_bound(1)
    # the public constructor keeps every check
    for coeffs, n in ((np.array([1.0, np.inf]), 2), (np.array([[1.0, 2.0]]), 2),
                      (np.array([1.0, 2.0]), -1), (np.array([1.0, 2.0]), 0),
                      (np.array([np.nan]), 0)):
        with pytest.raises(DomainError):
            Poly(coeffs, n)
    src = np.array([1.0, 2.0])
    q = Poly(src, 1)
    src[0] = 5.0
    assert q.coeffs[0] == 1.0 and Poly(3.0, 0).coeffs.tolist() == [3.0]


def test_poly_abs2_trig_matches_mpmath(rng):
    # the autocorrelation a_k = sum_j c_{j+k} conj(c_j), at 50 digits,
    # relative to a_0 = sum |c_j|^2
    mpmath = pytest.importorskip("mpmath")
    for deg in list(range(9)) * 20:
        c = rng.normal(0, 1, deg + 1) + 1j * rng.normal(0, 1, deg + 1)
        c *= 10.0 ** rng.uniform(-3, 3)
        got = poly_abs2_trig(Poly(c, deg))
        assert got.shape == (2 * deg + 1,)
        with mpmath.workdps(50):
            cm = [mpmath.mpc(complex(v)) for v in c]
            ref = [mpmath.fsum(cm[j + k] * mpmath.conj(cm[j])
                               for j in range(deg + 1) if 0 <= j + k <= deg)
                   for k in range(-deg, deg + 1)]
            scale = ref[deg].real
            err = max(abs(mpmath.mpc(complex(g)) - r) for g, r in zip(got, ref))
            assert err <= 1e-15 * scale


def _pair_roots_loop(roots, strict):
    """The nearest-root pairing of `fejer_riesz` as a scalar loop: each
    distance a numpy-scalar complex abs."""
    order = np.argsort(-np.abs(roots))
    used = np.zeros(len(roots), dtype=bool)
    outside = []
    for i in order:
        if used[i]:
            continue
        used[i] = True
        target = 1.0 / roots[i].conjugate()
        best, best_d = -1, np.inf
        for j in range(len(roots)):
            if used[j]:
                continue
            d = abs(roots[j] - target)
            if d < best_d:
                best, best_d = j, d
        if best < 0:
            raise ConsistencyError("unpaired root in spectral factorization")
        used[best] = True
        rho = 0.5 * (roots[i] + 1.0 / roots[best].conjugate())
        if abs(rho) < 1.0:
            if strict:
                raise DomainError("paired root fell inside the disc in strict mode")
            rho = rho / abs(rho) if abs(rho) > 0 else 1.0
        outside.append(rho)
    return outside


def test_pair_roots_is_the_scalar_loop(rng):
    # the distance-matrix pairing returns the loop's representatives bit for
    # bit on 10^4 seeded root sets: roots of t^n |D|^2 with zeros of D
    # inside, outside and on the circle (double roots), and unstructured
    # sets, whose pairings are arbitrary
    from hexablock.numerics import _pair_roots
    for trial in range(10_000):
        deg = int(rng.integers(1, 7))
        if trial % 4 == 3:
            roots = rng.normal(0, 1, 2 * deg) + 1j * rng.normal(0, 1, 2 * deg)
        else:
            radii = rng.choice([rng.uniform(0.3, 0.95), 1.0, rng.uniform(1.05, 3.0)],
                               size=deg)
            D = Poly.from_roots([r * rand_unit(rng) for r in radii],
                                lead=complex(*rng.normal(0, 1, 2)))
            q = poly_abs2_trig(D)
            roots = np.roots(q[::-1])
        for strict in (False, True):
            try:
                want = _pair_roots_loop(roots, strict)
            except (ConsistencyError, DomainError) as exc:
                with pytest.raises(type(exc)):
                    _pair_roots(roots, strict)
                continue
            got = _pair_roots(roots, strict)
            assert [complex(z) for z in got] == [complex(z) for z in want]


def test_power_table_matches_mpmath(rng):
    # rows of degree <= 12 on the validation grid in one product, against
    # 50-digit evaluations at the grid's points, relative to the sum of the
    # moduli of the terms; the table grows to the degree asked for
    mpmath = pytest.importorskip("mpmath")
    from hexablock.numerics import PowerTable
    from hexablock.inner import _VALIDATION_TABLE
    points = _VALIDATION_TABLE.points
    table = PowerTable(points)
    assert table.eval(np.array([2.0 + 1j])).tolist() == [2.0 + 1j] * len(points)
    rows = np.zeros((3, 13), dtype=complex)
    for row, deg in zip(rows, (3, 8, 12)):
        row[: deg + 1] = rng.normal(0, 1, deg + 1) + 1j * rng.normal(0, 1, deg + 1)
    vals = table.eval(rows)
    assert vals.shape == (3, len(points))
    assert np.array_equal(table.eval(rows[0, :4]), vals[0])
    with mpmath.workdps(50):
        for row, got in zip(rows, vals):
            cm = [mpmath.mpc(complex(v)) for v in row[::-1]]
            scale = np.polynomial.polynomial.polyval(np.abs(points), np.abs(row))
            for z, g, sc in zip(points.tolist(), got.tolist(), scale.tolist()):
                err = abs(mpmath.polyval(cm, mpmath.mpc(z)) - mpmath.mpc(g))
                assert err <= 1e-13 * sc, (z, float(err), sc)


def trig_eval(coeffs, lam):
    """Evaluate sum a_k lam^k, k = -n..n, for |lam| = 1; coeffs ascending."""
    c = np.asarray(coeffs, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    return _horner(c, lam) / lam ** ((len(c) - 1) // 2)


def test_trig_eval_hermitian_real(rng):
    c = np.array([0.25 - 0.3j, 1.0, 0.25 + 0.3j])
    vals = trig_eval(c, np.exp(2j * np.pi * np.arange(32) / 32))
    assert np.max(np.abs(vals.imag)) < 1e-12


# ---------------------------------------------------------------------------
# Matricial Mobius transform
# ---------------------------------------------------------------------------

def test_matricial_mobius_basics(rng):
    X = rand_contraction(rng, 0.99)
    Z0 = Mat2(0, 0, 0, 0)
    assert matricial_mobius(Z0, X).to_array() == pytest.approx(X.to_array())
    Z = rand_contraction(rng, 0.8)
    out = matricial_mobius(Z, Z)
    assert np.max(np.abs(out.to_array())) < 1e-10


def test_matricial_mobius_contraction_bound(rng):
    for _ in range(200):
        Z = rand_contraction(rng, 0.85)
        X = rand_contraction(rng, 1.0)
        assert op_norm(matricial_mobius(Z, X)) <= 1.0 + 1e-10


def test_matricial_mobius_inverse(rng):
    for _ in range(100):
        Z = rand_contraction(rng, 0.8)
        X = rand_contraction(rng, 0.97)
        back = matricial_mobius(Z.scaled(-1.0), matricial_mobius(Z, X))
        assert np.max(np.abs(back.to_array() - X.to_array())) < 1e-9


def test_matricial_mobius_rejects_expansive():
    with pytest.raises(DomainError):
        matricial_mobius(Mat2(2, 0, 0, 0), Mat2(0, 0, 0, 0))


def test_cx_from_json_refuses_booleans():
    from hexablock.numerics import cx_from_json
    assert cx_from_json(2) == 2 and cx_from_json([0.5, -1]) == 0.5 - 1j
    for value in (True, False, [True, 0], [0.5, False]):
        with pytest.raises(ValueError):
            cx_from_json(value)


def test_cx_from_json_takes_only_json_numbers():
    # a JSON string is no number, alone or as a part, whatever it spells
    from hexablock.numerics import cx_from_json
    assert cx_from_json([1, -2]) == 1 - 2j and cx_from_json(3) == 3
    assert math.isnan(cx_from_json([float("nan"), 0]).real)
    for value in ("0.1", ["0.1", 0], ["nan", 0], [0, "1e3"], [0.1, None],
                  None, [0.1], [0.1, 0, 0], {"re": 0.1, "im": 0}, [[0.1, 0], 0]):
        with pytest.raises(ValueError):
            cx_from_json(value)
