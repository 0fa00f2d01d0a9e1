import math

import numpy as np
import pytest

from hexablock.numerics import DomainError, Mat2, pi_tetra
from hexablock.psi import (Phi_eval, Psi_eval, betas, k_star, k_star_closed,
                           kappa_eval, maximizer, psi_eval, sup_on_bE,
                           tetra_interior_margin)
from hexablock.oracles import GridSpec, grid_sup_kappa, stationarity_residual

from conftest import (NEAR_UNIT_X1, columns, corner_witness, rand_disc,
                      rand_tetra_point, rand_unit)


def test_psi_at_origin_is_a(rng):
    p = (0.3 + 0.4j, 0.1, 0.2, 0.05)
    assert psi_eval(0, 0, p) == pytest.approx(p[0])


def test_psi_zero_on_circle():
    assert psi_eval(1.0, 0.2, (0.5, 0.1, 0.2, 0.05)) == 0.0
    assert psi_eval(0.2, -1.0, (0.5, 0.1, 0.2, 0.05)) == 0.0


def test_psi_symmetric_reduction(rng):
    # psi_z(a, s, p) = psi_{z,z}(a, s/2, s/2, p)
    for _ in range(50):
        z = rand_disc(rng, 0.9)
        a, s, p = (complex(*rng.normal(0, 0.4, 2)) for _ in range(3))
        lhs = psi_eval(z, z, (a, s / 2, s / 2, p))
        rhs = a * (1 - abs(z) ** 2) / (1 - s * z + p * z * z)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_Psi_triangular_branch():
    x = (0.3 + 0.1j, 0.5, (0.3 + 0.1j) * 0.5)
    for z in (0.2, 0.9j, 2.0):  # constant even where x2 z = 1
        assert Psi_eval(z, x) == pytest.approx(x[0])
    assert Psi_eval(1.5, (0.3, 0.5, 0.2)) != 0  # fine away from the pole
    with pytest.raises(DomainError):
        Psi_eval(2.0, (0.3, 0.5, 0.2))


def test_Phi_Psi_identity(rng):
    for _ in range(100):
        z = rand_disc(rng, 0.95)
        s, p = (complex(*rng.normal(0, 0.5, 2)) for _ in range(2))
        if abs(2 - z * s) < 1e-6:
            continue
        assert Phi_eval(z, s, p) == pytest.approx(
            -Psi_eval(z, (s / 2, s / 2, p)), abs=1e-11)
    assert Phi_eval(0.37, 0, 0) == 0


def test_betas_solve_decomposition(rng):
    for _ in range(100):
        x = rand_tetra_point(rng)
        b1, b2 = betas(x)
        assert b1 + b2.conjugate() * x[2] == pytest.approx(x[0], abs=1e-12)
        assert b2 + b1.conjugate() * x[2] == pytest.approx(x[1], abs=1e-12)
        assert abs(b1) + abs(b2) < 1.0


def test_maximizer_origin_family(rng):
    # x = (0, 0, p): maximizer at (0, 0), K* = 1
    for p in (0.0, 0.3, -0.5j, 0.7 * rand_unit(rng)):
        m = maximizer((0, 0, p))
        assert abs(m.z1) < 1e-13 and abs(m.z2) < 1e-13
        assert m.k_star == pytest.approx(1.0, abs=1e-12)


def test_maximizer_beta1_zero_case(rng):
    # beta1 = 0 forces x1 = conj(x2) x3; then z1* = 0, z2* = conj(x2)
    for _ in range(20):
        x2 = rand_disc(rng, 0.6)
        x3 = rand_disc(rng, 0.6)
        x = (x2.conjugate() * x3, x2, x3)
        if tetra_interior_margin(x) < 1e-3:
            continue
        m = maximizer(x)
        assert abs(m.beta1) < 1e-12
        assert m.z1 == pytest.approx(0.0, abs=1e-12)
        assert m.z2 == pytest.approx(x2.conjugate(), abs=1e-10)


def test_maximizer_matches_grid_oracle():
    # frozen derived value for x = (0.3, 0.2, 0.1)
    x = (0.3, 0.2, 0.1)
    sup_grid, arg = grid_sup_kappa(x, GridSpec())
    m = maximizer(x)
    assert m.k_star == pytest.approx(sup_grid, abs=1e-4)
    assert abs(complex(arg[0]) - m.z1) < 1e-3
    assert abs(complex(arg[1]) - m.z2) < 1e-3


def test_maximizer_uniqueness_probe(rng):
    # the refined grid argmax lands at the closed-form point and no second
    # local maximum of comparable value shows up anywhere on the grid
    for _ in range(200):
        x = rand_tetra_point(rng, norm_cap=0.85, min_margin=0.05)
        m = maximizer(x)
        sup_grid, arg = grid_sup_kappa(x, GridSpec(refinement_levels=4))
        assert abs(sup_grid - m.k_star) < 1e-4
        assert abs(complex(arg[0]) - m.z1) < 1e-3
        assert abs(complex(arg[1]) - m.z2) < 1e-3


def test_maximizer_stationarity(rng):
    for _ in range(100):
        x = rand_tetra_point(rng, min_margin=1e-4)
        m = maximizer(x)
        assert stationarity_residual(x, m.z1, m.z2) < 1e-8


def test_maximizer_flip_symmetry(rng):
    for _ in range(50):
        x = rand_tetra_point(rng, min_margin=1e-4)
        m = maximizer(x)
        mf = maximizer((x[1], x[0], x[2]))
        assert mf.k_star == pytest.approx(m.k_star, rel=1e-11)
        assert mf.z1 == pytest.approx(m.z2, abs=1e-11)
        assert mf.z2 == pytest.approx(m.z1, abs=1e-11)


def test_maximizer_real_slice(rng):
    for _ in range(50):
        x = tuple(rng.uniform(-0.55, 0.55, 3))
        if tetra_interior_margin(x) < 1e-3:
            continue
        m = maximizer(x)
        assert abs(m.z1.imag) < 1e-13 and abs(m.z2.imag) < 1e-13
        assert -1 < m.z1.real < 1 and -1 < m.z2.real < 1


def test_maximizer_refuses_boundary():
    with pytest.raises(DomainError):
        maximizer((0, 0, 1))
    with pytest.raises(DomainError):
        maximizer((1.2, 0, 0))


def test_k_star_values():
    assert k_star((0, 0, 0)) == pytest.approx(1.0, abs=1e-14)
    # triangular closed form
    assert k_star((0.5, 0.5, 0.25)) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_k_star_triangular_formula(rng):
    for _ in range(50):
        x1 = rand_disc(rng, 0.7)
        x2 = rand_disc(rng, 0.7)
        x = (x1, x2, x1 * x2)
        if tetra_interior_margin(x) < 1e-3:
            continue
        expect = 1.0 / math.sqrt((1 - abs(x1) ** 2) * (1 - abs(x2) ** 2))
        assert k_star(x) == pytest.approx(expect, rel=1e-10)


def test_k_star_symmetric_case(rng):
    # x1 = x2: z1* = z2* = 2 conj(b1) / (1 + sqrt(1 - 4|b1|^2))
    for _ in range(30):
        x1 = rand_disc(rng, 0.5)
        x3 = rand_disc(rng, 0.5)
        x = (x1, x1, x3)
        if tetra_interior_margin(x) < 1e-3:
            continue
        m = maximizer(x)
        b1 = (x1 - x1.conjugate() * x3) / (1 - abs(x3) ** 2)
        expect = 2 * b1.conjugate() / (1 + math.sqrt(1 - 4 * abs(b1) ** 2))
        assert m.z1 == pytest.approx(expect, abs=1e-11)
        assert m.z2 == pytest.approx(expect, abs=1e-11)


def _k_star_reference(x):
    """K*(x) from K*^-2 = (beta + sqrt(sigma^2 - 4|x2 - conj(x1) x3|^2))/2,
    beta = 1 - |x1|^2 - |x2|^2 + |x3|^2, sigma = 1 - |x1|^2 + |x2|^2 - |x3|^2:
    the minimum of |kappa|^-2 taken over z1 in closed form, then over |z2|.
    Independent of the maximizer; evaluated in whatever arithmetic the
    coordinates carry (floats or mpmath numbers)."""
    x1, x2, x3 = x
    beta = 1 - abs(x1) ** 2 - abs(x2) ** 2 + abs(x3) ** 2
    sigma = 1 - abs(x1) ** 2 + abs(x2) ** 2 - abs(x3) ** 2
    root = (sigma ** 2 - 4 * abs(x2 - x1.conjugate() * x3) ** 2) ** 0.5
    return ((beta + root) / 2) ** -0.5


def test_k_star_matches_reference(rng):
    pts = [rand_tetra_point(rng, 0.95, 1e-9) for _ in range(5000)]
    ref = np.array([_k_star_reference(x) for x in pts])
    scalar = np.array([k_star(x) for x in pts])
    batch = k_star(columns(pts))
    assert isinstance(batch, np.ndarray) and batch.shape == (len(pts),)
    # 1.5e-15 (scalar and array) measured
    assert np.max(np.abs(scalar - ref) / ref) <= 1e-13
    assert np.max(np.abs(batch - ref) / ref) <= 1e-13
    assert np.max(np.abs(batch - scalar) / scalar) <= 1e-14
    # the closed form without the refusal, on the same points
    closed = k_star_closed(columns(pts))
    assert isinstance(closed, np.ndarray) and closed.shape == (len(pts),)
    assert np.max(np.abs(closed - scalar) / scalar) <= 1e-13
    assert np.max(np.abs(closed - [k_star_closed(x) for x in pts])
                  / closed) <= 1e-14


def test_k_star_closed_corner_witness():
    pytest.importorskip("mpmath")
    # on dE off bE, |kappa| at 50 digits rises to the closed form along
    # bidisc points running into the torus zero of the denominator
    pts = [(0.0, 0.3, 0.7), (0.0, 0.8 * np.exp(0.7j), 0.2 * np.exp(-0.4j)),
           NEAR_UNIT_X1[1:]]
    for x in pts:
        K = k_star_closed(x)
        vals = []
        for delta in (1e-4, 1e-6, 1e-8):
            k, z2 = corner_witness(x, delta)
            assert z2 < 1.0
            vals.append(k)
        # the float coordinates sit up to about 1e-16 inside or outside dE,
        # which moves the witness by up to 1.5e-8 either way; 3.4e-7 below
        # measured at NEAR_UNIT_X1
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] == pytest.approx(K, rel=1e-6)
    assert k_star_closed(pts[0]) == pytest.approx(
        1.0 / math.sqrt(0.7), rel=1e-15)


def _near_boundary_points(rng):
    """|x3| -> 1 and |x1| -> 1: pi_E of U diag(1 - eps, s) V for unitary U,
    V, with s = 1 - eps, 1 - 2 eps or free in [0.2, 0.9]; and dE from
    inside: pi_E(A / ((1 + eps) mu_E(A))); interior margin above 1e-9."""
    from hexablock.hexa import mu_value
    pts = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        for _ in range(12):
            U, V = (np.linalg.qr(rng.normal(size=(2, 2))
                                 + 1j * rng.normal(size=(2, 2)))[0]
                    for _ in range(2))
            for s in (1 - eps, 1 - 2 * eps, rng.uniform(0.2, 0.9)):
                A = U @ np.diag([1 - eps, s]) @ V
                pts.append((complex(A[0, 0]), complex(A[1, 1]),
                            complex(np.linalg.det(A))))
            B = Mat2.from_array(U @ np.diag(rng.uniform(0.2, 2.0, 2)) @ V.T)
            pts.append(pi_tetra(B.scaled(1.0 / ((1 + eps) * mu_value(B, "tetra")))))
    pts = [x for x in pts if tetra_interior_margin(x) > 1e-9]
    assert len(pts) > 150 and max(abs(x[2]) for x in pts) > 1 - 1e-7
    return pts


def test_k_star_near_boundary_matches_mpmath(rng):
    mpmath = pytest.importorskip("mpmath")
    pts = _near_boundary_points(rng) + _near_boundary_points(rng)
    with mpmath.workdps(50):
        ref = np.array([float(_k_star_reference(tuple(mpmath.mpc(t) for t in x)))
                        for x in pts])
    scalar = np.array([k_star(x) for x in pts])
    batch = k_star(columns(pts))
    closed = np.array([k_star_closed(x) for x in pts])
    # at most 1.4e-12 relative measured; the sigma form alone reads 1.7e-11
    # here (on arrays) and the beta form alone 4.5e-9: the discriminant is
    # taken in the least cancelled of its three factorizations
    for got in (scalar, batch, closed, k_star_closed(columns(pts))):
        assert np.max(np.abs(got - ref) / ref) <= 1e-11


def test_hn_params_match_mpmath(rng):
    # m = |x1 x2 - x3|^2 / M keeps the precision that the root form
    # (beta - sqrt(D))/2 loses where m << M (4.6e-10 measured there)
    mpmath = pytest.importorskip("mpmath")
    from hexablock.hexa import hn_params
    pts = _near_boundary_points(rng)
    pts += [rand_tetra_point(rng, 0.95, 1e-9) for _ in range(300)]
    worst = 0.0
    with mpmath.workdps(50):
        for x in pts:
            x1, x2, x3 = (mpmath.mpc(t) for t in x)
            beta = 1 - abs(x1) ** 2 - abs(x2) ** 2 + abs(x3) ** 2
            root = mpmath.sqrt(beta ** 2 - 4 * abs(x1 * x2 - x3) ** 2)
            _, _, m, M = hn_params(x)
            for got, want in ((m, (beta - root) / 2), (M, (beta + root) / 2)):
                worst = max(worst, float(abs(got - want) / want))
    # 8.9e-13 measured
    assert worst <= 1e-10


def test_maximizer_witness_attains_k_star_mpmath(rng):
    # |kappa| at 50 digits, at the float witness, is the 50-digit K*: the
    # witness is the argmax, where |kappa| is stationary
    mpmath = pytest.importorskip("mpmath")
    pts = [rand_tetra_point(rng, 0.95, 1e-6) for _ in range(200)]
    pts += [x for x in _near_boundary_points(rng) if tetra_interior_margin(x) > 1e-6]
    gap = value = 0.0
    with mpmath.workdps(50):
        for x in pts:
            m = maximizer(x)
            z1, z2 = mpmath.mpc(m.z1), mpmath.mpc(m.z2)
            x1, x2, x3 = (mpmath.mpc(t) for t in x)
            at = abs(mpmath.sqrt((1 - abs(z1) ** 2) * (1 - abs(z2) ** 2))
                     / (1 - x1 * z1 - x2 * z2 + x3 * z1 * z2))
            ref = _k_star_reference((x1, x2, x3))
            assert at <= ref * (1 + mpmath.mpf(10) ** -40)
            gap = max(gap, float((ref - at) / ref))
            value = max(value, float(abs(m.k_star - at) / at))
    # 1.2e-21 and 5.5e-14 measured: the witness misses K* to second order
    # only, and `MaximizerResult.k_star` is |kappa| there in floats
    assert gap <= 1e-18 and value <= 1e-12


def test_maximizer_array_refuses_any_boundary_point():
    x = columns([(0.1, 0.2, 0.0), (0, 0, 1)])
    with pytest.raises(DomainError):
        k_star(x)
    assert k_star(tuple(c[:1] for c in x))[0] == pytest.approx(
        k_star((0.1, 0.2, 0.0)), rel=1e-15)


def test_k_star_at_least_one(rng):
    for _ in range(100):
        assert k_star(rand_tetra_point(rng, min_margin=1e-4)) >= 1.0 - 1e-13


def test_sup_on_bE_values(rng):
    assert sup_on_bE((0, 0, 1)) == pytest.approx(1.0)
    xi = rand_unit(rng)
    assert sup_on_bE((0.5, 0.5 * xi, xi)) == pytest.approx(
        2.0 / math.sqrt(3.0), rel=1e-12)
    with pytest.raises(DomainError):
        sup_on_bE((1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        sup_on_bE((0.2, 0.3, 0.4))


def test_sup_on_bE_grid_approach():
    # the grid estimate approaches the closed form from below
    sup, _ = grid_sup_kappa((0, 0, 1), GridSpec())
    assert sup <= 1.0 + 1e-3
    assert sup > 1.0 - 2e-2
    coarse, _ = grid_sup_kappa((0, 0, 1), GridSpec(refinement_levels=0))
    assert coarse <= sup + 1e-12


def test_kappa_raises_outside_closure():
    with pytest.raises(DomainError):
        kappa_eval(1.0 - 1e-16, 0.0, (1.0, 0.0, 0.0))
