"""classify: `classify_hexa` over six seeded point families, half of each
family first moved by a seeded hexablock automorphism.

Every supremum on these points takes a closed-form route (maximizer,
bE formula), so the workload exercises psi, domains, hexa and autos with
no grid on the timed path.
"""

from __future__ import annotations

import math

import numpy as np

from common import Workload, contraction, disc, gauss, pack, unit, unpack

PER_FAMILY = 200
FAMILIES = ("hn", "interior", "exterior_a", "d1", "bh", "outside_e")
# families whose points lie in the closed hexablock; the library's
# automorphism refuses the others unless the closure check is skipped
IN_CLOSURE = {"hn", "interior", "d1", "bh"}
GRID_CHECKED = ("hn", "interior", "exterior_a", "d1")
GRID_PER_FAMILY = 8
GRID_BUDGET = 1e-4          # documented accuracy of grid_sup_kappa


def _tetra_margin(x) -> float:
    """Interior margin of the tetrablock (part 3 of its characterization)."""
    x1, x2, x3 = x
    return 1.0 - (abs(x1) ** 2 + abs(x2 - x1.conjugate() * x3) + abs(x1 * x2 - x3))


def _tetra_point(rng):
    while True:
        a11, _, _, a22 = m = contraction(rng, 0.15, 0.9)
        x = (a11, a22, a11 * a22 - m[1] * m[2])
        if _tetra_margin(x) > 0.02:
            return x


def _point(hb, rng, family):
    if family == "hn":
        a11, a12, a21, a22 = contraction(rng, 0.15, 0.9)
        return (a21, a11, a22, a11 * a22 - a12 * a21)
    if family == "bh":
        w = disc(rng, 0.95)
        z = unit(rng) * math.sqrt(1.0 - abs(w) ** 2)
        return tuple(hb.hp_param(rng.uniform(0.0, 2.0 * math.pi), z, w))
    if family == "outside_e":
        return (gauss(rng, 0.5), disc(rng, 0.9), disc(rng, 0.9),
                rng.uniform(1.05, 2.0) * unit(rng))
    x = _tetra_point(rng)
    scale = {"interior": rng.uniform(0.05, 0.95),
             "exterior_a": rng.uniform(1.05, 2.0), "d1": 1.0}[family]
    return (unit(rng) * scale / hb.k_star(x),) + x


def _aut(rng):
    return {"v": [pack(unit(rng)), pack(disc(rng, 0.6))],
            "chi": [pack(unit(rng)), pack(disc(rng, 0.6))],
            "omega": pack(unit(rng)), "flip": bool(rng.integers(0, 2))}


class Classify(Workload):
    name = "classify"
    tail_pct = 99

    def specs(self, hb, seed):
        rng = np.random.default_rng(seed)
        specs = []
        for i in range(PER_FAMILY):
            for family in FAMILIES:
                point = _point(hb, rng, family)
                specs.append({"family": family,
                              "point": [pack(t) for t in point],
                              "aut": _aut(rng) if i % 2 else None})
        return specs

    def prepare(self, hb, spec):
        point = tuple(unpack(t) for t in spec["point"])
        aut = spec["aut"]
        if aut is None:
            return point, None, False
        T = hb.HexaAut(hb.DiscAut(*map(unpack, aut["v"])),
                       hb.DiscAut(*map(unpack, aut["chi"])),
                       unpack(aut["omega"]), aut["flip"])
        return point, T, spec["family"] in IN_CLOSURE

    def run(self, hb, op):
        point, T, check = op
        if T is not None:
            point = hb.hexa_aut_apply(T, point, check=check)
        v = hb.classify_hexa(point)
        return point, (v.in_h, v.in_h_closure, v.in_hmu, v.in_hn, v.in_bh,
                       tuple(sorted(v.boundary_parts)))

    def check(self, hb, specs, results, seed):
        errors = {i: e for i, (s, r) in enumerate(zip(specs, results))
                  if r is not None
                  for e in [label_error(s["family"], s["aut"] is not None, r[1])]
                  if e}
        # the grid gives G <= K*, within GRID_BUDGET of it
        rng = np.random.default_rng(seed + 7919)
        for family in GRID_CHECKED:
            idx = [i for i, s in enumerate(specs) if s["family"] == family]
            for i in rng.choice(idx, GRID_PER_FAMILY, replace=False):
                if results[i] is None:
                    continue
                point = results[i][0]
                g, _ = hb.grid_sup_kappa(point[1:])
                e = grid_error(family, abs(point[0]) * g)
                if e:
                    errors[i] = e
        return errors


def label_error(family, moved, flags):
    """Verdict flags (in_h, in_h_closure, in_hmu, in_hn, in_bh, parts)
    against the label the point was built with; automorphisms of H keep H,
    its closure, its complement and its distinguished boundary."""
    in_h, in_hc, in_hmu, in_hn, in_bh, parts = flags
    if family == "hn":
        ok = in_h and in_hc and not in_bh and not parts and (moved or in_hn and in_hmu)
    elif family == "interior":
        ok = in_h and in_hc and not in_bh and not parts
    elif family == "d1":
        ok = not in_h and in_hc and not in_bh and "d1" in parts
    elif family == "bh":
        ok = in_bh and in_hc and not in_h
    else:
        ok = not (in_h or in_hc or in_hmu or in_hn or in_bh)
    return None if ok else f"{family} point got flags {flags}"


def grid_error(family, a_times_g):
    if family in ("hn", "interior"):
        ok = a_times_g < 1.0 - GRID_BUDGET
    elif family == "d1":
        ok = abs(a_times_g - 1.0) <= GRID_BUDGET
    else:
        ok = a_times_g > 1.0
    return None if ok else f"{family} point has |a| G = {a_times_g:.9f}"
