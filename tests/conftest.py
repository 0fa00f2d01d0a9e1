import math

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from hexablock.numerics import DiscAut, Mat2, op_norm, pi_tetra
from hexablock.autos import HexaAut, TetraAut
from hexablock.psi import k_star, tetra_interior_margin


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def rand_complex(rng, scale=1.0):
    return complex(*rng.normal(0.0, scale, 2))


def rand_unit(rng):
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(t), math.sin(t))


def rand_disc(rng, r=0.8):
    while True:
        z = complex(*rng.uniform(-r, r, 2))
        if abs(z) < r:
            return z


def rand_mat(rng, scale=1.0):
    return Mat2(*(rand_complex(rng, scale) for _ in range(4)))


def rand_contraction(rng, norm_cap=0.9):
    A = rand_mat(rng)
    target = rng.uniform(0.15, 1.0) * norm_cap
    return A.scaled(target / max(op_norm(A), 1e-12))


def rand_tetra_point(rng, norm_cap=0.9, min_margin=0.0):
    """pi_E of a random strict contraction, optionally with a margin floor."""
    while True:
        x = pi_tetra(rand_contraction(rng, norm_cap))
        if tetra_interior_margin(x) > min_margin:
            return x


def rand_hexa_point(rng, norm_cap=0.9, slack=0.85):
    """Random point of the open hexablock with comfortable margin."""
    x = rand_tetra_point(rng, norm_cap, min_margin=0.02)
    a = rand_unit(rng) * rng.uniform(0.0, slack) / k_star(x)
    return (a, *x)


def rand_discaut(rng, r=0.7):
    return DiscAut(rand_unit(rng), rand_disc(rng, r))


def rand_hexaaut(rng, flip=None, r=0.6):
    if flip is None:
        flip = bool(rng.integers(0, 2))
    return HexaAut(rand_discaut(rng, r), rand_discaut(rng, r),
                   rand_unit(rng), flip)


def rand_be_point(rng, x2_cap=0.95):
    """Random point of the distinguished boundary of E (non-triangular a.s.)."""
    x2 = rand_disc(rng, x2_cap)
    x3 = rand_unit(rng)
    return (x2.conjugate() * x3, x2, x3)


# Hypothesis strategies: the random generators above, drawn by Hypothesis
st_unit = st.floats(0.0, 2.0 * math.pi).map(
    lambda t: complex(math.cos(t), math.sin(t)))
st_entry = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))


def st_disc(r):
    return st.builds(lambda m, u: m * u, st.floats(0.0, r), st_unit)


st_discaut = st.builds(DiscAut, st_unit, st_disc(0.6))
st_hexaaut = st.builds(HexaAut, st_discaut, st_discaut, st_unit, st.booleans())
st_tetraaut = st.builds(TetraAut, st_discaut, st_discaut, st.booleans())


@st.composite
def st_tetra_point(draw, norm_range=(0.05, 0.9), min_margin=None):
    """pi_E of a matrix with norm drawn from `norm_range`, optionally with
    a floor on its tetrablock interior margin."""
    A = Mat2(*draw(st.lists(st_entry, min_size=4, max_size=4)))
    n = op_norm(A)
    assume(n > 1e-3)
    x = pi_tetra(A.scaled(draw(st.floats(*norm_range)) / n))
    if min_margin is not None:
        assume(tetra_interior_margin(x) > min_margin)
    return x


@st.composite
def st_hexa_point(draw, slack=(0.05, 0.85)):
    """(a, x) with x deep in the tetrablock and |a| K*(x) drawn from
    `slack`."""
    x = draw(st_tetra_point(min_margin=0.02))
    return (draw(st_unit) * draw(st.floats(*slack)) / k_star(x), *x)


def tetra_region_points(rng, count=20):
    """Points of every tetrablock region for array/scalar agreement checks:
    fixed corners, interior points, points of dE (pi_E(A / mu_E(A))),
    exterior points (pi_E(1.2 A / mu_E(A))), points of bE, points with
    |x3| = 1 off bE and triangular points."""
    from hexablock.hexa import mu_value
    pts = [(0, 0, 0), (1, 1, 1), (0, 0, 1), (0, 0, 1.2), (0.5, 0.5, 0.25),
           (0.3, 0.4, 1j)]
    for _ in range(count):
        A = rand_mat(rng)
        mu = mu_value(A, "tetra")
        z1, z2 = rand_disc(rng, 0.95), rand_disc(rng, 0.95)
        pts += [rand_tetra_point(rng), pi_tetra(A.scaled(1.0 / mu)),
                pi_tetra(A.scaled(1.2 / mu)), rand_be_point(rng),
                (rand_disc(rng, 0.5), rand_disc(rng, 0.5), rand_unit(rng)),
                (z1, z2, z1 * z2)]
    return pts


def counted(monkeypatch, name, modules):
    """Count the calls of the function `name` of the first module, rebound
    in every module of `modules` that binds it."""
    fn = getattr(modules[0], name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counting)
    return calls


def columns(pts):
    """The coordinate arrays of a list of points."""
    return tuple(np.array(c, dtype=complex) for c in zip(*pts))


#: a point of dE off bE with |x1| = 0.994 (boundary-grid workload, seed 34,
#: operation 73) and the a that workload gave it
NEAR_UNIT_X1 = ((-0.08937764645549731 - 0.0003375652572787994j),
                (0.9496055834646919 - 0.29253152605888916j),
                (0.0961525793651511 - 0.10435388206337248j),
                (0.0618253578079344 - 0.13435276431028015j))


def de_points(rng):
    """Points of dE off bE with |x1|, |x2| < 1, as pi_E(A / mu_E(A)): 240
    from Gaussian A (|x_i| < 0.999), 30 with |x1| in (0.99, 1 - 1e-6) and
    30 nearly triangular ones (a21 scaled by 1e-3)."""
    from hexablock.hexa import mu_value

    def onto_dE(A):
        return pi_tetra(A.scaled(1.0 / mu_value(A, "tetra")))

    dense, near_x1, near_tri = [], [], []
    while len(dense) < 240:
        x = onto_dE(rand_mat(rng))
        if max(abs(t) for t in x) < 0.999:
            dense.append(x)
    while len(near_x1) < 30:
        eps = 10.0 ** rng.uniform(-4.0, -1.5)
        x = onto_dE(Mat2(rand_unit(rng), rand_complex(rng),
                         eps * rand_complex(rng),
                         0.8 * rng.uniform() * rand_unit(rng)))
        if 0.99 < abs(x[0]) < 1.0 - 1e-6 and abs(x[1]) < 0.999:
            near_x1.append(x)
    while len(near_tri) < 30:
        A = rand_mat(rng)
        x = onto_dE(Mat2(A.a11, A.a12, 1e-3 * A.a21, A.a22))
        if max(abs(x[0]), abs(x[1])) < 1.0 - 1e-6:
            near_tri.append(x)
    return dense + near_x1 + near_tri


def corner_witness(x, delta):
    """(|kappa(z1, z2, x)|, |z2|) at 50 digits for z1 = (1 - delta) conj(c)/|c|,
    c = x1 - conj(x2) x3, and z2 = conj((x2 - x3 z1)/(1 - x1 z1)), which
    maximizes |kappa(z1, ., x)|.  On dE off bE the pair runs into the torus
    zero of the denominator where sup |kappa| is a limit as delta -> 0."""
    import mpmath
    with mpmath.workdps(50):
        x1, x2, x3 = (mpmath.mpc(complex(t)) for t in x)
        c = x1 - mpmath.conj(x2) * x3
        z1 = (1 - mpmath.mpf(delta)) * mpmath.conj(c) / abs(c)
        z2 = mpmath.conj((x2 - x3 * z1) / (1 - x1 * z1))
        den = 1 - x1 * z1 - x2 * z2 + x3 * z1 * z2
        k = mpmath.sqrt((1 - abs(z1) ** 2) * (1 - abs(z2) ** 2)) / abs(den)
        return float(k), float(abs(z2))


def s1_c5_match(a, s, p):
    """Whether the real pentablock's S1 <-> C5 (and S2 <-> C6)
    correspondence holds at (a, s, p) under the symmetric embedding
    (a, s, p) -> (a, s/2, s/2, p)."""
    from hexablock.numerics import DomainError
    from hexablock.realslice import face_classify, penta_real_sets
    labels = penta_real_sets(a, s, p)
    try:
        faces = face_classify((a, s / 2.0, s / 2.0, p))
    except DomainError:
        faces = []
    return (("S1" in labels) == ("C5" in faces)) and \
        (("S2" in labels) == ("C6" in faces))
