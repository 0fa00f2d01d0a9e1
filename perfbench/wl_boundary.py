"""boundary-grid: `classify_hexa` at points whose tetrablock part lies on
the topological boundary of E off its distinguished boundary, with a != 0.

x = pi_E(A / mu_E(A)) for a Gaussian A, with mu_E from the diagonal
D-scaling closed form, so x lies on dE; |x1|, |x2|, |x3| < 0.999 keeps it
off bE and keeps the supremum finite.  This is the library path on which
`psi_sup` falls back to the grid oracle.  Four of every five points are
inside the closed hexablock (|a| G <= 0.95, boundary part d2), the fifth
just outside it (|a| G > 1), G being the grid supremum of |kappa(., x)|.
"""

from __future__ import annotations

import numpy as np

from common import Workload, gauss, mu_tetra_closed_form, pack, unit, unpack

POINTS = 200
COORD_CAP = 0.999


class BoundaryGrid(Workload):
    name = "boundary-grid"
    tail_pct = 90
    calibration = "array"       # the grid oracle's numpy work dominates

    def specs(self, hb, seed):
        rng = np.random.default_rng(seed)
        specs = []
        while len(specs) < POINTS:
            m = [gauss(rng) for _ in range(4)]
            b11, b12, b21, b22 = (t / mu_tetra_closed_form(*m) for t in m)
            x = (b11, b22, b11 * b22 - b12 * b21)
            if max(abs(t) for t in x) >= COORD_CAP:
                continue
            g, _ = hb.grid_sup_kappa(x)
            outside = len(specs) % 5 == 4
            r = rng.uniform(1.02, 1.3) if outside else rng.uniform(0.3, 0.95)
            a = unit(rng) * r / g
            specs.append({"point": [pack(t) for t in (a,) + x],
                          "a_times_g": abs(a) * g})
        return specs

    def prepare(self, hb, spec):
        return tuple(unpack(t) for t in spec["point"])

    def run(self, hb, op):
        v = hb.classify_hexa(op)
        return v.in_h, v.in_h_closure, tuple(sorted(v.boundary_parts))

    def check(self, hb, specs, results, seed):
        return {i: e for i, (s, r) in enumerate(zip(specs, results))
                if r is not None for e in [verdict_error(s["a_times_g"], r)] if e}


def verdict_error(a_times_g, verdict):
    """|a| G > 1 proves the point outside the closure (G <= K*);
    |a| G <= 0.95 keeps it inside, on part d2 since x lies on dE."""
    in_h, in_hc, parts = verdict
    if a_times_g > 1.0:
        ok = not in_h and not in_hc
    elif a_times_g <= 0.95:
        ok = not in_h and in_hc and "d2" in parts
    else:
        return f"point built with |a| G = {a_times_g} in the unchecked band"
    return None if ok else f"|a| G = {a_times_g:.6f} got {verdict}"
