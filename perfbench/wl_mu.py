"""mu: `mu_value` for the tetra, penta and hexa structures in rotation.

Seeded inputs: dense Gaussian matrices, the first of them again scaled by
1e3 and 1e-3, and triangular matrices (a12 = 0 or a21 = 0).  The seeded
triangular matrices run under tetra and penta only: `mu_value(A, "hexa")`
raises on about 2% of triangular matrices, and which ones depends on the
draw.  Triangular inputs reach the hexa structure through a fixed set that
does not depend on the seed: the two matrices named in the fault report
and 40 triangular matrices drawn once from FIXED_SEED.  The ones in that
set on which the fault fires today are listed in KNOWN_HEXA_FAULTS; they
are counted as failed, every round, on every seed.
"""

from __future__ import annotations

import numpy as np

from common import (Workload, gauss, mu_tetra_closed_form, op_norm, pack,
                    spectral_radius, unpack)

DENSE = 160
SCALED = 30                  # dense matrices repeated at 1e3 and 1e-3
TRIANGULAR = 120
FIXED_SEED = 20250619
FIXED_TRIANGULAR = 40
PINNED = ([1, 1, 0, 1], [0.5, 0.3, 0, 0.5])
# (fixed-set index, structure) of the operations that fail today: the
# upper-triangular ones raise in mu_value, the lower-triangular one
# returns r(A) = 0.8066 where mu_hexa is 1.3379
KNOWN_FAULTS = frozenset({(0, "hexa"), (1, "hexa"), (20, "hexa"), (32, "hexa"),
                          (29, "hexa")})
BRUTEFORCE_CHECKED = 3
STRUCTURES = ("tetra", "penta", "hexa")


def _triangular(rng, k):
    m = [gauss(rng) for _ in range(4)]
    m[2 if k % 2 == 0 else 1] = 0.0j
    return m


def fixed_matrices():
    rng = np.random.default_rng(FIXED_SEED)
    return [list(map(complex, m)) for m in PINNED] + \
        [_triangular(rng, k) for k in range(FIXED_TRIANGULAR)]


class Mu(Workload):
    name = "mu"
    tail_pct = 99

    def specs(self, hb, seed):
        rng = np.random.default_rng(seed)
        dense = [[gauss(rng) for _ in range(4)] for _ in range(DENSE)]
        groups = [("dense", m, None, 1.0) for m in dense]
        for k in range(SCALED):
            for c in (1e3, 1e-3):
                groups.append(("scaled", [c * t for t in dense[k]], k, c))
        groups += [("triangular", _triangular(rng, k), None, 1.0)
                   for k in range(TRIANGULAR)]
        groups += [("fixed", m, None, 1.0) for m in fixed_matrices()]
        specs = []
        for key, (group, m, base, c) in enumerate(groups):
            for s in STRUCTURES[:2] if group == "triangular" else STRUCTURES:
                specs.append({"group": group, "key": key, "m": [pack(t) for t in m],
                              "structure": s, "base": base, "scale": c})
        return specs

    def prepare(self, hb, spec):
        return hb.Mat2(*map(unpack, spec["m"])), spec["structure"]

    def run(self, hb, op):
        return hb.mu_value(*op)

    def allowed_failures(self, specs):
        first_fixed = min(s["key"] for s in specs if s["group"] == "fixed")
        return {i for i, s in enumerate(specs) if s["group"] == "fixed"
                and (s["key"] - first_fixed, s["structure"]) in KNOWN_FAULTS}

    def check(self, hb, specs, results, seed):
        """Errors by op index.  A lattice link between two structures is
        charged to the larger one (hexa), whose value is least constrained
        by the other checks."""
        by_key = {}
        for i, (s, r) in enumerate(zip(specs, results)):
            by_key.setdefault(s["key"], {})[s["structure"]] = (i, r)
        errors = {}
        for key, ops in by_key.items():
            s = specs[next(iter(ops.values()))[0]]
            mus = {st: r for st, (_, r) in ops.items()}
            for st, e in matrix_errors([unpack(t) for t in s["m"]], mus):
                errors[ops[st][0]] = f"matrix {key}: {e}"
            if s["base"] is not None:
                for st, (i, v) in ops.items():
                    want = s["scale"] * by_key[s["base"]][st][1]
                    if v is not None and abs(v - want) > 1e-6 * want:
                        errors[i] = (f"matrix {key}: mu_{st}(cA) = {v!r} "
                                     f"!= |c| mu_{st}(A) = {want!r}")
        # the sweep oracle, outside the timed region
        for key in range(BRUTEFORCE_CHECKED):
            i, v = by_key[key]["hexa"]
            ref = hb.mu_bruteforce(hb.Mat2(*map(unpack, specs[i]["m"])))
            if abs(ref - v) > 2e-2 * max(v, 1e-3):
                errors[i] = f"matrix {key}: mu_hexa {v!r} vs sweep oracle {ref!r}"
        return errors


def matrix_errors(m, mus):
    """(structure, error) pairs for the mu values of one matrix, None where
    the call failed: the diagonal D-scaling closed form for tetra; the
    inclusion lattice r <= mu_tetra, mu_penta <= mu_hexa <= ||A|| with
    1e-6 ||A|| slack; |a21| <= mu_hexa, since the upper-triangular
    perturbation [[0, 1/a21], [0, 0]] makes I - A Delta singular; and
    mu_hexa = r(A) on upper-triangular A."""
    r, norm = spectral_radius(*m), op_norm(*m)
    slack = 1e-6 * norm
    tetra, penta, hexa = (mus.get(s) for s in STRUCTURES)
    errors = []
    cf = mu_tetra_closed_form(*m)
    if tetra is not None and abs(tetra - cf) > 1e-6 * cf:
        errors.append(("tetra", f"mu_tetra {tetra!r} vs closed form {cf!r}"))
    links = [("tetra", "r", r, tetra), ("tetra", "tetra", tetra, norm),
             ("penta", "r", r, penta), ("penta", "penta", penta, norm),
             ("hexa", "tetra", tetra, hexa), ("hexa", "penta", penta, hexa),
             ("hexa", "|a21|", abs(m[2]), hexa), ("hexa", "hexa", hexa, norm)]
    for charged, lo_name, lo, hi in links:
        if lo is not None and hi is not None and lo > hi + slack:
            errors.append((charged, f"lattice: {lo_name} = {lo!r} exceeds {hi!r}"))
    if hexa is not None and m[2] == 0 and abs(hexa - r) > 1e-6 * max(r, slack):
        errors.append(("hexa", f"upper-triangular mu_hexa {hexa!r} != r(A) {r!r}"))
    return errors
