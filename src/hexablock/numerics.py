"""Scalar/matrix/polynomial substrate: 2x2 matrix algebra with closed-form
singular values, disc automorphisms in normal form, finite Blaschke products,
polynomial reflection, Fejer-Riesz spectral factorization and the matricial
Mobius transform.

All routines are pure; values are immutable after construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# Thresholds that two or more modules read, and those of `fejer_riesz`.
# Every other float the library decides by is named, with its meaning, at
# the top of the one module that reads it.  Names that share a value but
# not a meaning stay apart.
# ---------------------------------------------------------------------------

# The caller's band: the default width of the zone around a decision
# boundary where a margin is too close to call.
#: verdicts: converts every signed membership margin into a flag
TOL = 1e-9
#: the real-slice face labels and real pentablock sets
REAL_TOL = 1e-7
#: `DiscAut.approx_eq` and `HexaAut.approx_eq`
AUT_MATCH_TOL = 1e-10
#: `fejer_riesz`'s allowed negativity, relative to the coefficients
FR_TOL = 1e-9

# Structural zeros: a quantity that vanishes exactly in a degenerate case
# counts as zero below these.
#: a divisor of the 2x2 algebra (det, sqrt trace) and of a phase
_TINY = 1e-14
#: the denominator of a linear fractional map: a pole below this
_DEN_TINY = 1e-14
#: `fejer_riesz`: extreme coefficients dropped, relative to the largest
FR_TRIM = 1e-13
#: `fejer_riesz`: circle values that count as zero, relative
FR_ZERO = 1e-10

# Knife-edges: decisions on a set of measure zero, taken within these.
#: a modulus within this of 1 is on the unit circle (the circle
#: coordinates of `realslice.d3E_approach_sequence`, the zeros that
#: `inner.rational_inner_outer` leaves in the outer part)
CIRCLE_EDGE = 1e-9

# Rounding slack: how far a computed quantity may stray from its exact
# value (Higham, Accuracy and Stability of Numerical Algorithms, 2002).
#: the interior margin `psi.maximizer` and `psi.k_star` need: nearer dE
#: the cost blows up off bE directions, and the suprema are closed forms
REFUSE_MARGIN = 1e-9
#: a modulus that must be 1 (a phase, |z|^2 + |w|^2 in `hp_param`)
UNIT_SLACK = 1e-9
#: `fejer_riesz`: a_{-k} - conj(a_k), relative to the coefficients
FR_HERMITIAN_SLACK = 1e-8
#: `fejer_riesz`: |D|^2 against f on the circle, relative
FR_RECON_SLACK = 1e-7
#: a 2x2 norm, spectral radius or mu below this (2^-240) may have lost a
#: product of entries to underflow: `_rescaled` recomputes it
SCALE_LO = 5.659799424266695e-73
#: the same above this (2^240), for overflow
SCALE_HI = 1.7668470647783843e+72


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConsistencyError(RuntimeError):
    """Equivalent criteria disagreed beyond tolerance (internal fault)."""


def cx(value) -> complex:
    """Coerce to a finite complex scalar."""
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite complex value {value!r}")
    return z


def cx_arrays(values) -> tuple:
    """Coerce to finite complex arrays broadcast to one shape."""
    arrs = [np.asarray(v, dtype=complex) for v in values]
    if len({a.shape for a in arrs}) > 1:
        arrs = np.broadcast_arrays(*arrs)
    if not np.isfinite(arrs).all():
        raise DomainError("non-finite complex value in array")
    return tuple(arrs)


def cx_coords(values) -> tuple:
    """Coerce coordinates with `cx`, or with `cx_arrays` when any of them
    is an ndarray."""
    if np.ndarray in map(type, values):
        return cx_arrays(values)
    return tuple(map(cx, values))


def _json_number(value) -> bool:
    """A JSON int or float; a JSON boolean or string is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cx_from_json(value) -> complex:
    """A complex scalar from its JSON form: [re, im] or a real number, each
    part a JSON int or float."""
    if isinstance(value, list):
        if len(value) == 2 and _json_number(value[0]) and _json_number(value[1]):
            return complex(value[0], value[1])
    elif _json_number(value):
        return complex(value)
    raise ValueError(f"expected [re, im] or a real number, got {value!r}")


# ---------------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mat2:
    """A 2x2 complex matrix with exact trace/determinant accessors."""

    a11: complex
    a12: complex
    a21: complex
    a22: complex

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22"):
            object.__setattr__(self, name, cx(getattr(self, name)))

    @classmethod
    def from_array(cls, arr) -> "Mat2":
        a = np.asarray(arr, dtype=complex)
        if a.shape != (2, 2):
            raise DomainError(f"expected 2x2 array, got shape {a.shape}")
        return cls(a[0, 0], a[0, 1], a[1, 0], a[1, 1])

    def to_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=complex)

    @property
    def trace(self) -> complex:
        return self.a11 + self.a22

    @property
    def det(self) -> complex:
        return self.a11 * self.a22 - self.a12 * self.a21

    def scaled(self, r: complex) -> "Mat2":
        return Mat2(r * self.a11, r * self.a12, r * self.a21, r * self.a22)


def _unit_scaled(A: Mat2) -> tuple["Mat2", int]:
    """(2^-e A, e), e the binary exponent of the largest real or imaginary
    part of an entry of A (0 for the zero matrix): every part of 2^-e A is
    below 1 in modulus and one is at least 1/2.  The scaling is exact
    wherever the parts stay normal."""
    a11, a12, a21, a22 = A.a11, A.a12, A.a21, A.a22
    e = math.frexp(max(abs(a11.real), abs(a11.imag), abs(a12.real),
                       abs(a12.imag), abs(a21.real), abs(a21.imag),
                       abs(a22.real), abs(a22.imag)))[1]
    ld, f = math.ldexp, -e
    return Mat2(complex(ld(a11.real, f), ld(a11.imag, f)),
                complex(ld(a12.real, f), ld(a12.imag, f)),
                complex(ld(a21.real, f), ld(a21.imag, f)),
                complex(ld(a22.real, f), ld(a22.imag, f))), e


def _rescaled(fn, A: Mat2, v: float) -> float:
    """fn(A) given its plain value v = fn(A) (nan for an OverflowError of
    a float power) outside [SCALE_LO, SCALE_HI], 0 included: fn is
    positively homogeneous and forms products of up to four entries, so
    it is recomputed on the `_unit_scaled` matrix 2^-e A and multiplied
    back by 2^e; where A is unit-scaled already (e = 0), v stands.  Both
    scalings are exact, so a recomputed value is 2^k fn(A0) bit for bit at
    every 2^k A0 whose entries stay normal, A0 having its largest part in
    [1/2, 1).  An in-range value costs its caller one comparison and is
    today's arithmetic at the scale of A, which agrees with that to about
    an ulp: a float ** is libm pow, not exactly homogeneous."""
    B, e = _unit_scaled(A)
    return math.ldexp(fn(B), e) if e else v


def op_norm(A: Mat2) -> float:
    """Largest singular value (operator norm) of a 2x2 matrix, the larger
    root of the closed-form quadratic on the eigenvalues of A*A; at every
    scale (`_rescaled`)."""
    try:
        f = (abs(A.a11) ** 2 + abs(A.a12) ** 2 + abs(A.a21) ** 2
             + abs(A.a22) ** 2)
        d = abs(A.det)
        disc = max(f * f - 4.0 * d * d, 0.0)
        v = math.sqrt(0.5 * (f + math.sqrt(disc)))
    except OverflowError:
        v = math.nan
    return v if SCALE_LO <= v <= SCALE_HI else _rescaled(op_norm, A, v)


def _smin(A: Mat2) -> float:
    """The smaller singular value, |det A| over the larger; at every scale
    (`_rescaled`)."""
    smax = op_norm(A)
    v = abs(A.det) / smax if smax > 0.0 else 0.0
    return v if SCALE_LO <= v <= SCALE_HI else _rescaled(_smin, A, v)


def singular_values(A: Mat2) -> tuple[float, float]:
    """Both singular values of a 2x2 matrix by the closed-form quadratic on
    the eigenvalues of A*A, smin = |det A| / smax; no iterative eigensolver.
    Each holds at every scale (`_rescaled`)."""
    return op_norm(A), _smin(A)


def spectral_radius(A: Mat2) -> float:
    """The largest eigenvalue modulus, at every scale (`_rescaled`)."""
    # the first root has the larger modulus
    v = abs(_quadratic_roots(A.trace, A.det)[0])
    return v if SCALE_LO <= v <= SCALE_HI else _rescaled(spectral_radius, A, v)


def stable_quadratic_roots(s: complex, p: complex) -> tuple[complex, complex]:
    """Roots of ``t**2 - s*t + p`` avoiding cancellation.

    The bigger root is computed from the quadratic formula with the sign of
    the square root chosen to avoid subtraction; the other root comes from
    the product identity.
    """
    return _quadratic_roots(cx(s), cx(p))


def _quadratic_roots(s: complex, p: complex) -> tuple[complex, complex]:
    """`stable_quadratic_roots` for coerced s, p."""
    sq = cmath.sqrt(s * s - 4.0 * p)
    if abs(s + sq) < abs(s - sq):
        sq = -sq
    # big is formed without cancellation, so p / big is stable at every
    # scale; big = 0 only where s = p = 0
    big = 0.5 * (s + sq)
    return big, (p / big if big else 0j)


def upper_tri_contraction(z1: complex, w: complex, z2: complex,
                          strict: bool = False) -> bool:
    """Whether ``[[z1, w], [0, z2]]`` has operator norm <= 1 (< 1 if strict).

    Uses the criterion |w|^2 <= (1-|z1|^2)(1-|z2|^2) together with the
    modulus bounds on the diagonal; agrees with the closed-form norm.
    """
    r1 = abs(cx(z1))
    r2 = abs(cx(z2))
    bound = (1.0 - r1 * r1) * (1.0 - r2 * r2)
    w2 = abs(cx(w)) ** 2
    if strict:
        return r1 < 1.0 and r2 < 1.0 and w2 < bound
    return r1 <= 1.0 and r2 <= 1.0 and w2 <= bound


# Coordinate projections of a 2x2 matrix onto the four domains.

def pi_hexa(A: Mat2) -> tuple[complex, complex, complex, complex]:
    """(a21, a11, a22, det A)."""
    return (A.a21, A.a11, A.a22, A.det)


def pi_tetra(A: Mat2) -> tuple[complex, complex, complex]:
    """(a11, a22, det A)."""
    return (A.a11, A.a22, A.det)


def pi_penta(A: Mat2) -> tuple[complex, complex, complex]:
    """(a21, tr A, det A)."""
    return (A.a21, A.trace, A.det)


def pi_gamma(A: Mat2) -> tuple[complex, complex]:
    """(tr A, det A)."""
    return (A.trace, A.det)


def lift_point(p) -> Mat2:
    """The unique 2x2 matrix with pi_hexa(A) = (a, x1, x2, x3); needs a != 0."""
    a, x1, x2, x3 = (cx(t) for t in p)
    if abs(a) <= _TINY:
        raise DomainError("no unique lift: first coordinate vanishes")
    return Mat2(x1, (x1 * x2 - x3) / a, a, x2)


# ---------------------------------------------------------------------------
# Disc automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscAut:
    """Automorphism ``xi * B_z`` of the unit disc, B_z(t) = (t-z)/(conj(z)t-1).

    The pair (xi, z) with |xi| = 1 and |z| < 1 is unique for a given map;
    the identity map is (-1) * B_0.
    """

    xi: complex
    z: complex

    def __post_init__(self):
        xi = cx(self.xi)
        z = cx(self.z)
        if abs(abs(xi) - 1.0) > UNIT_SLACK:
            raise DomainError(f"|xi| = {abs(xi)} is not 1")
        if abs(z) >= 1.0:
            raise DomainError(f"|z| = {abs(z)} is not < 1")
        object.__setattr__(self, "xi", xi / abs(xi))
        object.__setattr__(self, "z", z)

    @classmethod
    def identity(cls) -> "DiscAut":
        return cls(-1.0, 0.0)

    def __call__(self, lam: complex) -> complex:
        lam = cx(lam)
        return self.xi * (lam - self.z) / (self.z.conjugate() * lam - 1.0)

    def compose(self, other: "DiscAut") -> "DiscAut":
        """Normal form of self o other."""
        x1, z1 = self.xi, self.z
        x2, z2 = other.xi, other.z
        num = 1.0 - x2.conjugate() * z1 * z2.conjugate()
        den = 1.0 - x2 * z1.conjugate() * z2
        xi = -x1 * x2 * num / den
        z = x2.conjugate() * (z1 - z2 * x2) / (z1 * z2.conjugate() * x2.conjugate() - 1.0)
        return DiscAut(xi, z)

    def invert(self) -> "DiscAut":
        return DiscAut(self.xi.conjugate(), self.xi * self.z)

    def star(self) -> "DiscAut":
        """The involution xi*B_z -> xi*B_{conj(xi)conj(z)}."""
        return DiscAut(self.xi, self.xi.conjugate() * self.z.conjugate())

    def approx_eq(self, other: "DiscAut", tol: float = AUT_MATCH_TOL) -> bool:
        return abs(self.xi - other.xi) <= tol and abs(self.z - other.z) <= tol


# ---------------------------------------------------------------------------
# Polynomials with a declared degree bound
# ---------------------------------------------------------------------------

def _horner(coeffs: np.ndarray, lam):
    """The polynomial with ascending complex coefficients `coeffs`,
    evaluated at `lam` by Horner's rule.

    At a scalar it runs a plain-Python loop and returns a numpy complex
    scalar; at an array it returns lam's shape.  The arithmetic is that of
    numpy's `polyval`, step for step.
    """
    if not isinstance(lam, np.ndarray):
        x = complex(lam)
        c = coeffs.tolist()
        acc = c[-1]
        for a in reversed(c[:-1]):
            acc = a + acc * x
        return np.complex128(acc)
    acc = coeffs[-1] + lam * 0
    for a in coeffs[-2::-1]:
        acc *= lam
        acc += a
    return acc


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class PowerTable:
    """The powers lam**k, k = 0, 1, ..., of a fixed grid of points, so that
    polynomials evaluate at the whole grid as one matrix product.

    Row k is row k-1 times the points, the powers Horner's rule works with;
    rows are built on first use, up to the degree asked for.  (Powers of
    the exact roots of unity, each rounded on its own, break the
    reflection identities that the circle checks measure: on random inner
    data they left 2-3 times the residual of these products.)"""

    def __init__(self, points):
        self.points = _frozen(np.array(points, dtype=complex))
        self._table = _frozen(np.ones((1, len(self.points)), dtype=complex))

    def eval(self, coeffs: np.ndarray) -> np.ndarray:
        """Polynomials with ascending coefficients along the last axis of
        `coeffs` at every grid point: shape (*coeffs.shape[:-1], len(points))."""
        m = coeffs.shape[-1]
        if m > len(self._table):
            rows = [self._table[-1]]
            while len(self._table) + len(rows) <= m:
                rows.append(rows[-1] * self.points)
            self._table = _frozen(np.vstack([self._table, *rows[1:]]))
        return coeffs @ self._table[:m]


@dataclass(frozen=True)
class Poly:
    """Polynomial with ascending coefficients and a declared degree bound n.

    The bound matters: reflection conjugates coefficient n-k into slot k, so
    the same coefficient list reflects differently under different bounds.
    """

    coeffs: np.ndarray
    n: int

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex, ndmin=1)
        if c.ndim != 1:
            raise DomainError("coefficients must be one-dimensional")
        if not np.isfinite(c).all():
            raise DomainError("non-finite polynomial coefficient")
        n = int(self.n)
        if n < 0:
            raise DomainError("degree bound must be nonnegative")
        if len(c) > n + 1:
            if np.max(np.abs(c[n + 1:])) > 0.0:
                raise DomainError(f"degree exceeds declared bound {n}")
            c = c[: n + 1]
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "n", n)

    @classmethod
    def _trusted(cls, coeffs: np.ndarray, n: int) -> "Poly":
        """A Poly from read-only coefficients already valid at the bound n,
        without `__post_init__`'s coercion and checks."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        object.__setattr__(p, "n", n)
        return p

    @classmethod
    def const(cls, value: complex, n: int = 0) -> "Poly":
        return cls(np.array([cx(value)]), n)

    @classmethod
    def from_roots(cls, roots, lead: complex = 1.0, n: int | None = None) -> "Poly":
        c = np.array([cx(lead)])
        for r in roots:
            c = np.convolve(c, np.array([-cx(r), 1.0]))
        if n is None:
            n = len(c) - 1
        return cls(c, n)

    @property
    def degree(self) -> int:
        """Actual degree (index of last nonzero coefficient; -1 for zero)."""
        nz = np.nonzero(np.abs(self.coeffs) > 0.0)[0]
        return int(nz[-1]) if len(nz) else -1

    def __call__(self, lam):
        return _horner(self.coeffs, lam)

    def padded(self) -> np.ndarray:
        out = np.zeros(self.n + 1, dtype=complex)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def reflect(self) -> "Poly":
        """g~n with g~n(t) = t**n * conj(g(1/conj(t)))."""
        return Poly._trusted(_frozen(np.conj(self.padded()[::-1])), self.n)

    def mul(self, other: "Poly") -> "Poly":
        return Poly(np.convolve(self.coeffs, other.coeffs), self.n + other.n)

    def scale(self, factor: complex) -> "Poly":
        return Poly(self.coeffs * cx(factor), self.n)

    def with_bound(self, n: int) -> "Poly":
        if n == self.n:
            return self
        if n > self.n:
            # widening keeps every coefficient
            return Poly._trusted(self.coeffs, int(n))
        return Poly(self.coeffs, n)

    def roots(self) -> np.ndarray:
        d = self.degree
        if d <= 0:
            return np.array([], dtype=complex)
        return np.roots(self.coeffs[: d + 1][::-1])


def poly_reflect(g: Poly, n: int) -> Poly:
    """Reflect g at the declared bound n (error if deg g > n)."""
    if g.degree > n:
        raise DomainError(f"deg(g) = {g.degree} exceeds reflection bound {n}")
    return g.with_bound(n).reflect()


# ---------------------------------------------------------------------------
# Finite Blaschke products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlaschkeProduct:
    """phase * prod (t - z_i)/(conj(z_i) t - 1), zeros z_i in the open disc."""

    phase: complex = 1.0
    zeros: tuple = ()

    def __post_init__(self):
        phase = cx(self.phase)
        if abs(abs(phase) - 1.0) > UNIT_SLACK:
            raise DomainError("Blaschke phase must be unimodular")
        zeros = tuple(cx(z) for z in self.zeros)
        for z in zeros:
            if abs(z) >= 1.0:
                raise DomainError(f"Blaschke zero |{z}| >= 1")
        object.__setattr__(self, "phase", phase / abs(phase))
        object.__setattr__(self, "zeros", zeros)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.full(lam.shape, self.phase, dtype=complex)
        for z in self.zeros:
            out = out * (lam - z) / (np.conj(z) * lam - 1.0)
        return out if out.shape else complex(out)

    def as_rational(self) -> tuple[Poly, Poly]:
        """(numerator, denominator) polynomials of the product."""
        den = Poly.const(1.0)
        for z in self.zeros:
            den = den.mul(Poly(np.array([-1.0, z.conjugate()]), 1))
        return Poly.from_roots(self.zeros, lead=self.phase), den


# ---------------------------------------------------------------------------
# Trigonometric polynomials and Fejer-Riesz factorization
# ---------------------------------------------------------------------------

def poly_abs2_trig(p: Poly) -> np.ndarray:
    """Laurent coefficients of |p|^2 on the circle, ordered a_{-m}..a_m."""
    # a_k = sum_j c_{j+k} conj(c_j): the autocorrelation of c
    return np.convolve(p.coeffs, np.conj(p.coeffs[::-1]))


def trig_sub(f, g) -> np.ndarray:
    """Difference of two trig polynomials, aligning the symmetric index."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    nf = (len(f) - 1) // 2
    ng = (len(g) - 1) // 2
    n = max(nf, ng)
    out = np.zeros(2 * n + 1, dtype=complex)
    out[n - nf: n + nf + 1] = f
    out[n - ng: n + ng + 1] -= g
    return out


def _circle(n: int) -> np.ndarray:
    """The n-th roots of unity, read-only.  For m a power of two, every
    m-th point is `_circle(n // m)` bit for bit: scaling by m is exact."""
    return _frozen(np.exp(2j * np.pi * np.arange(n) / n))


# the one circle, whose strides are every circle grid: the 2048th roots of
# unity, on which `fejer_riesz` checks its input and its factor (by
# Horner's rule: one row over 2048 points is no faster as a matrix product,
# and OpenBLAS runs that product on threads whose wake-up took milliseconds
# on a 2-vCPU host)
_FR_CIRCLE = _circle(2048)


def fejer_riesz(coeffs, strict: bool = False, tol: float = FR_TOL) -> Poly:
    """Spectral factor of a nonnegative trigonometric polynomial.

    Parameters
    ----------
    coeffs : array of length 2n+1
        Laurent coefficients a_{-n}..a_n of f; Hermitian (a_{-k} = conj(a_k))
        so that f is real on the circle.
    strict : bool
        Require min f on the circle to exceed `FR_ZERO` times the largest
        coefficient, guaranteeing the factor is zero-free on the closed
        disc.

    Returns
    -------
    Poly
        D with deg D <= n, D != 0 on the open disc, |D|^2 = f on the circle,
        leading nonzero coefficient real positive.

    Raises
    ------
    DomainError
        If f is not Hermitian, goes negative on the circle, or (strict mode)
        comes within that bound of zero there.

    The factorization roots q(t) = t^n f(t), pairs roots (r, 1/conj(r)) and
    assigns the representative of modulus >= 1 of each pair to D.
    """
    c = np.asarray(coeffs, dtype=complex)
    if len(c) % 2 != 1:
        raise DomainError("trig polynomial needs an odd number of coefficients")
    n = (len(c) - 1) // 2
    scale = float(np.max(np.abs(c))) if len(c) else 0.0
    if scale == 0.0:
        return Poly.const(0.0, 0)
    if np.max(np.abs(c - np.conj(c[::-1]))) > FR_HERMITIAN_SLACK * scale:
        raise DomainError("trig polynomial is not real on the circle")

    # on the circle Re a_{-k} lam^-k = Re conj(a_{-k}) lam^k, so the real
    # part of f is that of the polynomial with coefficients a_0 and
    # a_k + conj(a_{-k}), k = 1..n
    half = c[n:].copy()
    half[1:] += np.conj(c[:n][::-1])
    vals = _horner(half, _FR_CIRCLE).real
    fmin = float(np.min(vals))
    if fmin < -max(tol, FR_ZERO) * scale:
        raise DomainError(f"trig polynomial negative on the circle (min {fmin:.3e})")
    if strict and fmin <= FR_ZERO * scale:
        raise DomainError("circle value too close to zero for the strict factorization")

    # Trim vanishing extreme coefficients: they only lower the true degree.
    while n > 0 and abs(c[0]) <= FR_TRIM * scale and abs(c[-1]) <= FR_TRIM * scale:
        c = c[1:-1]
        n -= 1
    if n == 0:
        val = max(c[0].real, 0.0)
        return Poly.const(math.sqrt(val), 0)

    q = c  # ascending coefficients of t^n f(t), degree 2n, q(0) = a_{-n} != 0
    roots = np.roots(q[::-1])

    outside = _pair_roots(roots, strict)
    lead = abs(q[-1])
    amp = math.sqrt(lead / float(np.prod([abs(r) for r in outside])))
    D = Poly.from_roots(outside, lead=amp, n=n)

    # rotate so the leading nonzero coefficient is real positive
    d = D.coeffs.copy()
    top = d[D.degree]
    D = Poly(d * (abs(top) / top), n)

    recon = np.abs(D(_FR_CIRCLE)) ** 2
    err = float(np.max(np.abs(recon - vals)))
    if err > FR_RECON_SLACK * max(scale, 1.0):
        raise ConsistencyError(f"spectral factor reconstruction error {err:.3e}")
    return D


def _pair_roots(roots: np.ndarray, strict: bool) -> list:
    """The outside representative of each pair (r, 1/conj(r)) of roots.

    Taking roots by decreasing modulus, each is paired with the nearest
    unused root to its reflection 1/conj(r), by one distance matrix; the
    distances are `hypot`s, the rounding of a scalar complex `abs` (numpy's
    array `abs` rounds apart from it)."""
    inv = 1.0 / np.conj(roots)
    diff = roots[None, :] - inv[:, None]
    dist = np.hypot(diff.real, diff.imag).tolist()
    used = [False] * len(roots)
    outside = []
    for i in np.argsort(-np.abs(roots)).tolist():
        if used[i]:
            continue
        used[i] = True
        # nearest unused root; a wrong pairing fails the reconstruction check
        best, best_d = -1, math.inf
        for j, d in enumerate(dist[i]):
            if not used[j] and d < best_d:
                best, best_d = j, d
        if best < 0:
            raise ConsistencyError("unpaired root in spectral factorization")
        used[best] = True
        # average the two estimates of the outside representative
        rho = 0.5 * (roots[i] + inv[best])
        if abs(rho) < 1.0:
            if strict:
                raise DomainError("paired root fell inside the disc in strict mode")
            rho = rho / abs(rho) if abs(rho) > 0 else 1.0
        outside.append(rho)
    return outside


# ---------------------------------------------------------------------------
# Matricial Mobius transform
# ---------------------------------------------------------------------------

def _sqrtm2_psd(H: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 positive semidefinite Hermitian matrix."""
    t = (H[0, 0] + H[1, 1]).real
    d = (H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]).real
    s = math.sqrt(max(d, 0.0))
    denom = math.sqrt(max(t + 2.0 * s, 0.0))
    if denom <= _TINY:
        return np.zeros((2, 2), dtype=complex)
    return (H + s * np.eye(2)) / denom


def _inv2(M: np.ndarray) -> np.ndarray:
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det) <= _TINY:
        raise DomainError("singular 2x2 matrix inversion")
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=complex) / det


def matricial_mobius(Z: Mat2, X: Mat2) -> Mat2:
    """M_Z(X) = (I-ZZ*)^(-1/2) (X-Z) (I-Z*X)^(-1) (I-Z*Z)^(1/2); needs |Z| < 1."""
    if op_norm(Z) >= 1.0:
        raise DomainError("matricial Mobius centre must be a strict contraction")
    Za = Z.to_array()
    Xa = X.to_array()
    I = np.eye(2)
    left = _inv2(_sqrtm2_psd(I - Za @ Za.conj().T))
    right = _sqrtm2_psd(I - Za.conj().T @ Za)
    out = left @ (Xa - Za) @ _inv2(I - Za.conj().T @ Xa) @ right
    return Mat2.from_array(out)
