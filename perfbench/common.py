"""Helpers shared by the benchmark workloads: seeded random draws, the JSON
form of complex scalars, and reference formulas computed apart from the
library (the diagonal D-scaling value of mu_E, tetrablock-inner evaluation).
"""

from __future__ import annotations

import math

import numpy as np


class Workload:
    """One workload: `specs(hb, seed)` makes the JSON-able inputs of a
    round, `prepare` turns one into an operation, `run` performs it, and
    `check(hb, specs, results, seed)` returns {op index: error} for the
    outputs (None where an operation raised).  `allowed_failures` names the
    operations that fail today through a registered fault; `tail_pct` is
    the highest percentile with ten operations of a round beyond it;
    `calibration` names the run.py snippet whose speed tracks the
    workload's through the host's speed swings."""

    name: str
    tail_pct: int
    calibration = "interpreter"

    def allowed_failures(self, specs):
        return set()


def unit(rng) -> complex:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(t), math.sin(t))


def gauss(rng, scale: float = 1.0) -> complex:
    return complex(*rng.normal(0.0, scale, 2))


def disc(rng, r: float) -> complex:
    """Uniform draw from the disc of radius r."""
    return r * math.sqrt(rng.uniform()) * unit(rng)


def pack(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def unpack(v) -> complex:
    return complex(v[0], v[1])


def contraction(rng, lo: float, hi: float):
    """Entries (a11, a12, a21, a22) of a Gaussian 2x2 matrix scaled to an
    operator norm drawn from [lo, hi]."""
    m = np.array([[gauss(rng), gauss(rng)], [gauss(rng), gauss(rng)]])
    m *= rng.uniform(lo, hi) / np.linalg.norm(m, 2)
    return complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1])


def mu_tetra_closed_form(a11, a12, a21, a22) -> float:
    """mu for diagonal perturbations of a 2x2 matrix (Doyle's 2S+F <= 3 case,
    where mu equals its D-scaling bound): mu^2 = (f + sqrt(f^2 - 4|det|^2))/2
    with f = |a11|^2 + |a22|^2 + 2|a12||a21|."""
    f = abs(a11) ** 2 + abs(a22) ** 2 + 2.0 * abs(a12) * abs(a21)
    det = abs(a11 * a22 - a12 * a21)
    return math.sqrt(0.5 * (f + math.sqrt(max(f * f - 4.0 * det * det, 0.0))))


def spectral_radius(a11, a12, a21, a22) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.array([[a11, a12], [a21, a22]])))))


def op_norm(a11, a12, a21, a22) -> float:
    return float(np.linalg.norm(np.array([[a11, a12], [a21, a22]]), 2))


def offset_circle(n: int = 1000) -> np.ndarray:
    """n points of the unit circle, offset from the library's 2^k grids."""
    return np.exp(2j * np.pi * (np.arange(n) + 0.37) / n)


def inner_eval(data: dict, lam: np.ndarray):
    """(a, x1, x2, x3) of hexablock inner data in the CLI's JSON form:
    a = c B A / D, x1 = E1 / D, x2 = E2 / D, x3 = D~n / D with
    D~n(t) = t^n conj(D(1/conj t)) and B = phase prod (t - z)/(conj(z) t - 1).
    """
    n = int(data["n"])
    coef = {k: np.array([unpack(v) for v in data[k]]) for k in ("E1", "E2", "D", "A")}
    pv = np.polynomial.polynomial.polyval
    lam = np.asarray(lam, dtype=complex)
    d = pv(lam, coef["D"])
    d_pad = np.zeros(n + 1, dtype=complex)
    d_pad[: len(coef["D"])] = coef["D"]
    d_refl = pv(lam, np.conj(d_pad[::-1]))
    b = np.full(lam.shape, unpack(data["B_phase"]), dtype=complex)
    for z in (unpack(v) for v in data["B_zeros"]):
        b = b * (lam - z) / (np.conj(z) * lam - 1.0)
    a = unpack(data["c"]) * b * pv(lam, coef["A"]) / d
    return a, pv(lam, coef["E1"]) / d, pv(lam, coef["E2"]) / d, d_refl / d
