"""Show that no output check of the benchmark is vacuous.

    python3 perfbench/selftest.py

Runs a few operations of each workload through the library, confirms the
checks accept the true outputs, then feeds each check deliberately wrong
answers (a flipped verdict, mu off by 1e-3 relative, an interpolant moved
by 1e-5, ...) and confirms each is rejected.  Exits 1 if any true output is
rejected or any wrong one accepted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hexablock as hb  # noqa: E402

import wl_boundary  # noqa: E402
import wl_classify  # noqa: E402
import wl_inner  # noqa: E402
import wl_mu  # noqa: E402

SEED = 0
failures = []


def expect(name, errors, rejected):
    ok = bool(errors) == rejected
    print(f"{'ok ' if ok else 'BAD'} {'rejects' if rejected else 'accepts'} {name}")
    if not ok:
        failures.append(name)


def flip(flags, k):
    return flags[:k] + (not flags[k],) + flags[k + 1:]


def classify_cases():
    wl = wl_classify.Classify()
    specs = wl.specs(hb, SEED)[:48]
    for s in specs[:len(wl_classify.FAMILIES) * 2]:
        point, flags = wl.run(hb, wl.prepare(hb, s))
        fam, moved = s["family"], s["aut"] is not None
        expect(f"classify {fam} (moved={moved}) verdict",
               wl_classify.label_error(fam, moved, flags), False)
        for k, what in ((0, "in_h"), (1, "in_h_closure"), (4, "in_bh")):
            expect(f"classify {fam} (moved={moved}) with {what} flipped",
                   wl_classify.label_error(fam, moved, flip(flags, k)), True)
        if fam in wl_classify.GRID_CHECKED:
            g = abs(point[0]) * hb.grid_sup_kappa(point[1:])[0]
            expect(f"classify {fam} grid check", wl_classify.grid_error(fam, g), False)
            wrong = {"hn": 1.0, "interior": 1.0, "d1": g * (1 + 3e-4),
                     "exterior_a": 0.999}[fam]
            expect(f"classify {fam} grid check at |a| G = {wrong:.6f}",
                   wl_classify.grid_error(fam, wrong), True)
    d1 = [s for s in specs if s["family"] == "d1"][0]
    _, flags = wl.run(hb, wl.prepare(hb, d1))
    expect("classify d1 without part d1",
           wl_classify.label_error("d1", False, flags[:5] + (("d2",),)), True)


def boundary_cases():
    for a_g, verdict in ((0.5, (False, True, ("d2",))), (1.1, (False, False, ()))):
        expect(f"boundary-grid |a| G = {a_g} true verdict",
               wl_boundary.verdict_error(a_g, verdict), False)
        for k in range(2):
            expect(f"boundary-grid |a| G = {a_g} flag {k} flipped",
                   wl_boundary.verdict_error(a_g, flip(verdict, k)), True)
    expect("boundary-grid inside point without part d2",
           wl_boundary.verdict_error(0.5, (False, True, ())), True)


def mu_cases():
    mats = {"dense": [0.3 + 1.1j, -0.7 + 0.2j, 0.9 - 0.4j, 0.5 + 0.5j],
            "upper": [0.8 - 0.1j, 1.3 + 0.4j, 0j, -0.6 + 0.2j]}
    for name, m in mats.items():
        mus = {s: hb.mu_value(hb.Mat2(*m), s) for s in wl_mu.STRUCTURES}
        expect(f"mu {name} true values", wl_mu.matrix_errors(m, mus), False)
        for s, factor in (("tetra", 1 + 1e-3), ("tetra", 1 - 1e-3), ("hexa", 0.9)):
            wrong = dict(mus, **{s: mus[s] * factor})
            expect(f"mu {name} with mu_{s} x {factor}", wl_mu.matrix_errors(m, wrong), True)
    m = mats["upper"]
    mus = {s: hb.mu_value(hb.Mat2(*m), s) for s in wl_mu.STRUCTURES}
    expect("mu upper-triangular with mu_hexa x (1 + 1e-3)",
           wl_mu.matrix_errors(m, dict(mus, hexa=mus["hexa"] * (1 + 1e-3))), True)
    m = [0.2 + 0.1j, 0j, 1.5 - 0.3j, -0.4 + 0.1j]
    r = wl_mu.spectral_radius(*m)
    expect("mu lower-triangular with mu_hexa = r(A) < |a21|",
           wl_mu.matrix_errors(m, {"hexa": r}), True)
    wl = wl_mu.Mu()
    specs = wl.specs(hb, SEED)
    results = []
    for s in specs:
        try:
            results.append(wl.run(hb, wl.prepare(hb, s)))
        except (ZeroDivisionError, hb.DomainError):
            results.append(None)
    errors = wl.check(hb, specs, results, SEED)
    expect("mu round: only the registered faults",
           set(errors) - wl.allowed_failures(specs), False)
    scaled = next(i for i, s in enumerate(specs) if s["group"] == "scaled")
    wrong = list(results)
    wrong[scaled] *= 1 + 1e-3
    expect("mu scaled matrix off homogeneity by 1e-3",
           set(wl.check(hb, specs, wrong, SEED)) - set(errors), True)
    wrong = list(results)
    hexa0 = next(i for i, s in enumerate(specs) if s["key"] == 0 and s["structure"] == "hexa")
    wrong[hexa0] *= 1.05
    expect("mu_hexa 5% away from the sweep oracle",
           set(wl.check(hb, specs, wrong, SEED)) - set(errors), True)


def inner_cases():
    wl = wl_inner.Inner()
    specs = wl.specs(hb, SEED)[:len(wl_inner.KINDS)]
    for s in specs:
        result = wl.run(hb, wl.prepare(hb, s))
        expect(f"inner {s['kind']} true output", wl_inner.output_errors(s, result), False)
        code1, out1, code2, out2 = result
        for key in ("A", "E1", "D"):
            data = json.loads(out1)
            data[key][0][0] += 1e-5
            expect(f"inner {s['kind']} with {key}[0] moved by 1e-5",
                   wl_inner.output_errors(s, (code1, json.dumps(data), code2, out2)), True)
        expect(f"inner {s['kind']} with a failing exit code",
               wl_inner.output_errors(s, (4, out1, code2, out2)), True)
        report = dict(json.loads(out2), ok=False)
        expect(f"inner {s['kind']} with validate reporting not ok",
               wl_inner.output_errors(s, (code1, out1, 0, json.dumps(report))), True)


if __name__ == "__main__":
    for cases in (classify_cases, boundary_cases, mu_cases, inner_cases):
        cases()
    print(f"{len(failures)} check(s) misjudged" if failures else "every check judged right")
    sys.exit(1 if failures else 0)
