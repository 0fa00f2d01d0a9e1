import pytest

from hexablock.numerics import Mat2
from hexablock.psi import k_star, k_star_closed
from hexablock.oracles import (GridSpec, grid_sup_kappa, grid_sup_psi,
                               mu_bruteforce, tetra_definitional)
from hexablock.hexa import classify_hexa, mu_value

from conftest import NEAR_UNIT_X1, corner_witness, rand_mat, rand_tetra_point


def test_grid_sup_trivial():
    sup, arg = grid_sup_psi((1, 0, 0, 0))
    assert sup == pytest.approx(1.0, abs=1e-6)
    assert abs(complex(arg[0])) < 5e-2 and abs(complex(arg[1])) < 5e-2


def test_grid_sup_triangular_value():
    sup, _ = grid_sup_psi((1, 0.5, 0.5, 0.25))
    assert sup == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_grid_sup_monotone_refinement():
    x = (0.3, 0.2, 0.1)
    sups = [grid_sup_kappa(x, GridSpec(refinement_levels=k))[0]
            for k in range(4)]
    for lo, hi in zip(sups, sups[1:]):
        assert hi >= lo - 1e-15


def test_grid_sup_determinism():
    spec = GridSpec()
    a = grid_sup_kappa((0.3, 0.2 + 0.1j, 0.1), spec)
    b = grid_sup_kappa((0.3, 0.2 + 0.1j, 0.1), spec)
    assert a == b


def test_grid_convergence_to_k_star(rng):
    for _ in range(20):
        x = rand_tetra_point(rng, 0.85, min_margin=0.03)
        sup, _ = grid_sup_kappa(x, GridSpec())
        assert abs(sup - k_star(x)) <= 1e-4


def test_grid_sup_boundary_corner_limits():
    # on dE off bE the supremum is a limit at torus zeros of the
    # denominator; for (0, r, 1-r) the corner value is 1/sqrt(1-r)
    import math
    for r in (0.1, 0.4, 0.75, 0.9):
        sup, _ = grid_sup_kappa((0.0, r, 1.0 - r), GridSpec())
        assert sup == pytest.approx(1.0 / math.sqrt(1.0 - r), abs=2e-5)
    # rotations of the normal form keep the value
    import cmath
    for r in (0.3, 0.8):
        x = (0.0, r * cmath.exp(0.7j), (1 - r) * cmath.exp(-0.4j))
        sup, _ = grid_sup_kappa(x, GridSpec())
        assert sup == pytest.approx(1.0 / math.sqrt(1.0 - r), abs=2e-5)


def test_grid_sup_finds_corner_near_unit_x1():
    # the torus zero falls between scan angles whose gaps are all above
    # 1e-3; the scan used to miss it and read 9.31 against 11.78
    a, *x = NEAR_UNIT_X1
    sup, _ = grid_sup_kappa(x)
    assert sup == pytest.approx(k_star_closed(x), rel=1e-6)
    assert abs(a) * sup > 1.05
    # a 50-digit point of the bidisc where |psi| > 1: p lies outside the
    # closure of H
    pytest.importorskip("mpmath")
    k, z2 = corner_witness(x, 1e-8)
    assert z2 < 1.0 and abs(a) * k > 1.0528
    assert not classify_hexa(NEAR_UNIT_X1).in_h_closure


def test_tetra_definitional_examples():
    ok, mn = tetra_definitional((0, 0, 0))
    assert ok and mn == pytest.approx(1.0, abs=1e-9)
    ok2, mn2 = tetra_definitional((1, 0, 0))
    assert mn2 < 1e-3  # denominator 1 - z1 pinches at z1 = 1


def test_mu_bruteforce_zero_matrix():
    assert mu_bruteforce(Mat2(0, 0, 0, 0)) == 0.0


def test_mu_bruteforce_diagonal():
    # structure contains diag(2, small): mu = 1/2
    assert mu_bruteforce(Mat2(0.5, 0, 0, 0)) == pytest.approx(0.5, abs=1e-3)


def test_mu_bruteforce_agrees_with_bisection(rng):
    for _ in range(10):
        A = rand_mat(rng)
        mu = mu_value(A, "hexa")
        ref = mu_bruteforce(A)
        assert abs(ref - mu) / max(mu, 1e-3) <= 2e-2


def test_oracle_outputs_are_pinned():
    """repr of oracle outputs recorded when the oracles' grid mechanics were
    merged into shared helpers.  perfbench builds boundary-grid's points
    from `grid_sup_kappa` and checks mu against `mu_bruteforce`, so a
    change here changes the benchmark's inputs; that includes a numpy
    upgrade that moves these values."""
    assert repr(grid_sup_kappa((0.3 + 0.1j, -0.2 + 0.25j, 0.1 - 0.05j))) == (
        "(1.15497920834355, ((0.39705601009838876-0.13787756589513026j), "
        "(-0.26730243693547434-0.3276809964524384j)))")
    # the dE corner, where the corner fans decide the supremum
    assert repr(grid_sup_kappa((0.0, 0.4, 0.6))) == (
        "(1.290994458058372, ((-0.999999987090525-2.4835268065308073e-08j), "
        "(0.9999999922537515-1.4901160916122912e-08j)))")
    A = Mat2(0.5 + 0.2j, -0.3 + 0.4j, 0.6 - 0.1j, -0.2 + 0.1j)
    assert repr(mu_bruteforce(A)) == "0.9396748552345465"
