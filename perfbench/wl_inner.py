"""inner: the CLI in-process with --json, two calls per operation.

The first call is `schwarz solve` on a feasible two-point problem (three
kinds: |x3| = |lambda0|, triangular with a = 0, supplied --tetra-data) or
`inner construct` on random tetrablock inner data of degree <= 4; the
second is `inner validate` on the JSON the first returned.  The returned
coefficients are checked by this file's own numpy evaluation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from common import Workload, disc, gauss, inner_eval, offset_circle, pack, unit, unpack

PER_KIND = 10
KINDS = ("royal", "triangular", "supplied", "construct")
CIRCLE = offset_circle()
_pv = np.polynomial.polynomial.polyval


def _tetra_data(rng, n):
    """(E1, E2, D) coefficient arrays of random tetrablock inner data with
    bound n: D with zeros outside the closed disc, E1 the reflection of a
    free E2, scaled so max |E_i / D| on the circle is below 1."""
    roots = [rng.uniform(1.25, 3.0) * unit(rng)
             for _ in range(int(rng.integers(1, n + 1)))]
    d = np.array([1.0 + 0j])
    for z in roots:
        d = np.convolve(d, [-z, 1.0])
    e2 = np.zeros(n + 1, dtype=complex)
    deg2 = int(rng.integers(0, n + 1))
    e2[: deg2 + 1] = [gauss(rng) for _ in range(deg2 + 1)]
    e1 = _reflect(e2, n)
    circ = np.exp(2j * np.pi * np.arange(1024) / 1024)
    worst = np.max(np.abs(_pv(circ, e2)) / np.abs(_pv(circ, d)))
    s = rng.uniform(0.35, 0.95) / worst
    return s * e1, s * e2, d


def _outer_modulus(e1, d, lam0):
    """|A(lam0)| for the outer A with |A|^2 = |D|^2 - |E1|^2 on the circle,
    by the Poisson integral of log|A|."""
    t = np.exp(2j * np.pi * np.arange(4096) / 4096)
    log_a = 0.5 * np.log(np.abs(_pv(t, d)) ** 2 - np.abs(_pv(t, e1)) ** 2)
    poisson = (1.0 - abs(lam0) ** 2) / np.abs(t - lam0) ** 2
    return math.exp(float(np.mean(poisson * log_a)))


def _reflect(c, n):
    """Coefficients of t^n conj(p(1/conj t)) for p of degree <= n."""
    return np.conj(np.concatenate([c, np.zeros(n + 1 - len(c))])[::-1])


def _arr(c):
    return [pack(t) for t in c]


def _spec(rng, kind):
    if kind == "construct":
        n = int(rng.integers(1, 5))
        e1, e2, d = _tetra_data(rng, n)
        data = {"n": n, "E1": _arr(e1), "E2": _arr(e2), "D": _arr(d),
                "B_phase": pack(unit(rng)),
                "B_zeros": [pack(disc(rng, 0.8)) for _ in range(int(rng.integers(0, 3)))],
                "c": pack(unit(rng))}
        return {"kind": kind, "data": data,
                "argv": ["inner", "construct", "--data", json.dumps(data), "--json"]}
    lam = rng.uniform(0.25, 0.9) * unit(rng)
    extra = []
    if kind == "royal":
        target = (rng.uniform(0.0, 0.95) * abs(lam) * unit(rng), 0, 0, unit(rng) * lam)
    elif kind == "triangular":
        x1, x2 = disc(rng, 0.95 * abs(lam)), disc(rng, 0.95 * abs(lam))
        target = (0, x1, x2, x1 * x2)
    else:
        # t -> (t y1(t), t y2(t), t^2 y3(t)) maps inner data y of bound n0
        # to inner data of bound n0 + 2 vanishing at 0
        n0 = int(rng.integers(1, 3))
        e1, e2, d = _tetra_data(rng, n0)
        e1, e2 = np.concatenate([[0], e1]), np.concatenate([[0], e2])
        dv = _pv(lam, d)
        cap = abs(lam) * _outer_modulus(e1, d, lam) / abs(dv)
        x3 = lam ** 2 * _pv(lam, _reflect(d, n0)) / dv
        target = (rng.uniform(0.3, 0.9) * cap * unit(rng), _pv(lam, e1) / dv,
                  _pv(lam, e2) / dv, x3)
        extra = ["--tetra-data", json.dumps({"n": n0 + 2, "E1": _arr(e1),
                                             "E2": _arr(e2), "D": _arr(d)})]
    return {"kind": kind, "lam": pack(lam), "target": [pack(t) for t in target],
            "argv": ["schwarz", "solve", "--lam", json.dumps(pack(lam)),
                     "--target", json.dumps([pack(t) for t in target])] + extra
            + ["--json"]}


def _call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Inner(Workload):
    name = "inner"
    tail_pct = 75

    def specs(self, hb, seed):
        rng = np.random.default_rng(seed)
        return [_spec(rng, kind) for _ in range(PER_KIND) for kind in KINDS]

    def prepare(self, hb, spec):
        import hexablock.cli
        return hexablock.cli, spec["argv"]

    def run(self, hb, op):
        cli, argv = op
        code1, out1 = _call(cli, argv)
        code2, out2 = _call(cli, ["inner", "validate", "--data", out1, "--json"])
        return code1, out1, code2, out2

    def check(self, hb, specs, results, seed):
        return {i: "; ".join(e) for i, (s, r) in enumerate(zip(specs, results))
                if r is not None for e in [output_errors(s, r)] if e}


def output_errors(spec, result):
    code1, out1, code2, out2 = result
    if code1 != 0 or code2 != 0:
        return [f"{spec['kind']}: exit codes {code1}, {code2}"]
    data = json.loads(out1)
    errors = []
    if json.loads(out2).get("ok") is not True:
        errors.append("inner validate did not report ok")
    a, x1, x2, x3 = inner_eval(data, CIRCLE)
    worst = max(float(np.max(np.abs(np.abs(a) ** 2 + np.abs(x1) ** 2 - 1.0))),
                float(np.max(np.abs(np.abs(x3) - 1.0))),
                float(np.max(np.abs(x1 - np.conj(x2) * x3))))
    if worst > 1e-6:
        errors.append(f"circle identities off by {worst:.3e}")
    if spec["kind"] == "construct":
        src = spec["data"]
        for k in ("E1", "E2", "D"):
            got = np.array([unpack(v) for v in data[k]])
            want = np.array([unpack(v) for v in src[k]])
            want = np.concatenate([want, np.zeros(len(got) - len(want))])
            if np.max(np.abs(got - want)) > 1e-12 * max(1.0, np.max(np.abs(want))):
                errors.append(f"construct changed {k}")
    else:
        lam = unpack(spec["lam"])
        at0 = inner_eval(data, np.array([0j]))
        at1 = inner_eval(data, np.array([lam]))
        res = max(max(abs(v[0]) for v in at0),
                  max(abs(v[0] - unpack(t)) for v, t in zip(at1, spec["target"])))
        if res > 1e-7:
            errors.append(f"{spec['kind']}: interpolation residual {res:.3e}")
    return errors
