"""Command-line front end.

A complex scalar in JSON input is [re, im] or a real number; output always
writes [re, im].  Points are arrays of complex scalars, polynomials are
coefficient arrays (ascending) with a declared degree bound.

Exit codes: 0 interior, 1 boundary (distinguished or not), 2 exterior,
3 infeasible Schwarz data, 4 unsupported construction case, 64 malformed
input, 70 internal fault.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .numerics import (REAL_TOL, TOL, ConsistencyError, DiscAut, DomainError,
                       Mat2)
from .numerics import cx_from_json as _cx
from .domains import (Region, _region, g2_classify, penta_classify,
                      tetra_classify)
from .hexa import classify_hexa, hp_param, mu_value
from .autos import HexaAut, hexa_aut_apply, hexa_aut_compose, hexa_aut_invert
from . import __version__

EXIT_INTERIOR = 0
EXIT_BOUNDARY = 1
EXIT_EXTERIOR = 2
EXIT_INFEASIBLE = 3
EXIT_UNSUPPORTED = 4
EXIT_USAGE = 64
EXIT_INTERNAL = 70

#: `mu --oracle`: a mu below this reports its gap relative to this instead
ORACLE_GAP_FLOOR = 1e-3
#: the real-slice sampler skips points this close to a tetrahedron face
SAMPLE_FACE_EDGE = 1e-6


class UsageError(Exception):
    pass


def _cx_out(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON for {what}: {exc}") from exc


def _point(text: str, arity: int):
    data = _parse_json(text, "point")
    if not isinstance(data, list) or len(data) != arity:
        raise UsageError(f"point must be an array of {arity} complex entries")
    return tuple(_cx(v) for v in data)


def _matrix(text: str) -> Mat2:
    data = _parse_json(text, "matrix")
    if not (isinstance(data, list) and len(data) == 2
            and all(isinstance(r, list) and len(r) == 2 for r in data)):
        raise UsageError("matrix must be a 2x2 array")
    return Mat2(_cx(data[0][0]), _cx(data[0][1]), _cx(data[1][0]),
                _cx(data[1][1]))


def _emit(payload: dict, machine: bool):
    """Write payload as JSON or key: value lines; refuse non-finite floats."""
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"non-finite value in output: {exc}") from None
    if machine:
        sys.stdout.write(text + "\n")
    else:
        for key, val in payload.items():
            sys.stdout.write(f"{key}: {val}\n")


def _region_exit(region: Region) -> int:
    return {Region.INTERIOR: EXIT_INTERIOR,
            Region.BOUNDARY: EXIT_BOUNDARY,
            Region.DISTINGUISHED_BOUNDARY: EXIT_BOUNDARY,
            Region.EXTERIOR: EXIT_EXTERIOR}[region]


def _discaut_arg(data) -> DiscAut:
    return DiscAut(_cx(data["xi"]), _cx(data["z"]))


def _discaut_out(v: DiscAut):
    return {"xi": _cx_out(v.xi), "z": _cx_out(v.z)}


def _hexaaut_arg(data) -> HexaAut:
    v, chi, omega = (_discaut_arg(data["v"]), _discaut_arg(data["chi"]),
                     _cx(data["omega"]))
    flip = data.get("flip", False)
    if not isinstance(flip, bool):
        raise UsageError(f"flip must be true or false, got {flip!r}")
    return HexaAut(v, chi, omega, flip)


def _hexaaut_out(T: HexaAut):
    return {"v": _discaut_out(T.v), "chi": _discaut_out(T.chi),
            "omega": _cx_out(T.omega), "flip": T.flip}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    tol = args.tol
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"--tol must be finite and >= 0, got {tol!r}")
    if args.domain == "g2":
        s, p = _point(args.point, 2)
        verdict = g2_classify(s, p, tol)
    elif args.domain == "tetra":
        verdict = tetra_classify(_point(args.point, 3), tol)
    elif args.domain == "penta":
        a, s, p = _point(args.point, 3)
        verdict = penta_classify(a, s, p, tol)
    elif args.domain in ("hexa", "hexa-mu", "hexa-n"):
        point = _point(args.point, 4)
        full = classify_hexa(point, tol)
        if args.domain == "hexa":
            inside, closure = full.in_h, full.in_h_closure
        elif args.domain == "hexa-mu":
            inside, closure = full.in_hmu, full.in_hmu_closure
        else:
            inside, closure = full.in_hn, full.in_hn_closure
        if args.closed:
            inside = closure
        region = _region(closure, full.in_bh, inside)
        payload = {"domain": args.domain, "region": region.value,
                   "tolerance": tol,
                   "flags": {"h": full.in_h, "h_closure": full.in_h_closure,
                             "hmu": full.in_hmu, "hn": full.in_hn,
                             "hn_closure": full.in_hn_closure,
                             "bh": full.in_bh,
                             "boundary_parts": sorted(full.boundary_parts)},
                   "margins": {k: v for k, v in full.margins.items()}}
        _emit(payload, args.json)
        return _region_exit(region)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown domain {args.domain}")
    region = verdict.region
    payload = {"domain": args.domain, "region": region.value,
               "tolerance": tol,
               "margins": {k: v for k, v in verdict.margins.items()},
               "witnesses": {k: (_cx_out(v) if isinstance(v, complex)
                                 else [_cx_out(t) for t in v])
                             for k, v in verdict.witnesses.items()}}
    _emit(payload, args.json)
    return _region_exit(region)


def cmd_mu(args) -> int:
    A = _matrix(args.matrix)
    value = mu_value(A, args.structure)
    payload = {"structure": args.structure, "value": value}
    if args.oracle:
        from .oracles import mu_bruteforce
        ref = mu_bruteforce(A)
        payload["oracle"] = ref
        payload["relative_gap"] = abs(ref - value) / max(value, ORACLE_GAP_FLOOR)
    _emit(payload, args.json)
    return 0


def cmd_aut(args) -> int:
    if args.action == "apply":
        if not args.point:
            raise UsageError("aut apply needs --point")
        T = _hexaaut_arg(_parse_json(args.aut, "automorphism"))
        p = _point(args.point, 4)
        image = hexa_aut_apply(T, p, check=not args.no_check)
        _emit({"image": [_cx_out(t) for t in image]}, args.json)
        return 0
    if args.action == "invert":
        T = _hexaaut_arg(_parse_json(args.aut, "automorphism"))
        _emit(_hexaaut_out(hexa_aut_invert(T)), args.json)
        return 0
    if not args.second:
        raise UsageError("aut compose needs --second")
    T1 = _hexaaut_arg(_parse_json(args.aut, "first automorphism"))
    T2 = _hexaaut_arg(_parse_json(args.second, "second automorphism"))
    _emit(_hexaaut_out(hexa_aut_compose(T1, T2)), args.json)
    return 0


def cmd_inner(args) -> int:
    from .inner import (RationalHexaInner, RationalTetraInner,
                        _completion_from_dict, hexa_inner_construct,
                        hexa_inner_validate)
    if args.action == "construct":
        data = _parse_json(args.data, "inner data")
        f = hexa_inner_construct(RationalTetraInner.from_dict(data),
                                 *_completion_from_dict(data))
        _emit(f.to_dict(), args.json)
        return 0
    f = RationalHexaInner.from_dict(_parse_json(args.data, "inner data"))
    report = hexa_inner_validate(f)
    payload = {k: v for k, v in report.items() if k != "tetra"}
    payload["tetra_ok"] = report["tetra"]["ok"]
    _emit(payload, args.json)
    return 0 if report["ok"] else 1


def cmd_schwarz(args) -> int:
    from .inner import (RationalTetraInner, SchwarzProblem, _schwarz_construct,
                        interpolation_residuals, schwarz_feasible)
    lam = _cx(_parse_json(args.lam, "lambda0"))
    target = _point(args.target, 4)
    try:
        prob = SchwarzProblem(lam, target)
    except DomainError as exc:
        raise UsageError(f"invalid Schwarz data: {exc}") from exc
    rep = schwarz_feasible(prob)
    if args.action == "check":
        _emit({"feasible": rep.feasible, "margins": rep.margins,
               "violated": rep.violated}, args.json)
        return 0 if rep.feasible else EXIT_INFEASIBLE
    if not rep.feasible:
        _emit({"feasible": False, "violated": rep.violated,
               "margins": rep.margins}, args.json)
        return EXIT_INFEASIBLE
    supplied = None
    if args.tetra_data:
        supplied = RationalTetraInner.from_dict(
            _parse_json(args.tetra_data, "tetra data"))
    try:
        f = _schwarz_construct(prob, rep, supplied)
    except DomainError as exc:
        _emit({"feasible": True, "constructed": False, "reason": str(exc)},
              args.json)
        return EXIT_UNSUPPORTED
    payload = f.to_dict()
    payload["endpoint_residual"] = interpolation_residuals(f, prob)
    _emit(payload, args.json)
    return 0


def cmd_sample(args) -> int:
    if args.count < 0:
        raise UsageError(f"--count must be >= 0, got {args.count}")
    from .realslice import K_real, face_classify, real_h_member, real_tetra_margin
    rng = np.random.default_rng(args.seed)
    rows = []
    if args.what == "real-slice":
        header = ["a", "x1", "x2", "x3", "region", "margin", "faces"]
        for _ in range(args.count):
            x = rng.uniform(-1, 1, 3)
            if real_tetra_margin(x) <= SAMPLE_FACE_EDGE:
                continue
            k = K_real(x)
            a = rng.uniform(-1.2, 1.2) * k
            member, margin = real_h_member((a, *x))
            region = "interior" if member else (
                "boundary" if abs(margin) <= REAL_TOL else "exterior")
            faces = []
            if not member:
                try:
                    faces = face_classify((math.copysign(k, a), *x))
                except DomainError:
                    faces = []
            rows.append([a, *x, region, margin, "|".join(faces)])
    else:
        header = ["theta", "z_re", "z_im", "w_re", "w_im",
                  "a_re", "a_im", "x1_re", "x1_im", "x2_re", "x2_im",
                  "x3_re", "x3_im"]
        for _ in range(args.count):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = complex(*rng.normal(0, 1, 2))
            w = complex(*rng.normal(0, 1, 2))
            norm = math.hypot(abs(z), abs(w))
            z, w = z / norm, w / norm
            p = hp_param(theta, z, w)
            rows.append([theta, z.real, z.imag, w.real, w.imag]
                        + [c for t in p for c in (t.real, t.imag)])
    try:
        out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hexablock",
        description="Membership, boundaries, structured singular values, "
                    "automorphisms, inner functions and Schwarz interpolation "
                    "for the mu-synthesis domain family.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a point against a domain")
    c.add_argument("--domain", required=True,
                   choices=["g2", "tetra", "penta", "hexa", "hexa-mu", "hexa-n"])
    c.add_argument("--point", required=True,
                   help="JSON array of complex entries, each [re, im]")
    c.add_argument("--closed", action="store_true",
                   help="test closure membership for the hexa domains")
    c.add_argument("--tol", type=float, default=TOL)
    c.add_argument("--json", action="store_true", help="machine-readable output")

    m = sub.add_parser("mu", help="structured singular value of a 2x2 matrix")
    m.add_argument("--structure", required=True,
                   choices=["tetra", "penta", "hexa", "spectral", "norm"])
    m.add_argument("--matrix", required=True, help="JSON 2x2 array")
    m.add_argument("--oracle", action="store_true",
                   help="also run the sweep oracle and report the gap")
    m.add_argument("--json", action="store_true")

    a = sub.add_parser("aut", help="hexablock automorphism algebra")
    a.add_argument("action", choices=["apply", "compose", "invert"])
    a.add_argument("--aut", required=True, help="JSON normal form")
    a.add_argument("--second", help="second normal form (compose)")
    a.add_argument("--point", help="JSON point (apply)")
    a.add_argument("--no-check", action="store_true",
                   help="skip the closure membership check on apply")
    a.add_argument("--json", action="store_true")

    i = sub.add_parser("inner", help="rational inner functions")
    i.add_argument("action", choices=["construct", "validate"])
    i.add_argument("--data", required=True, help="JSON inner-function data")
    i.add_argument("--json", action="store_true")

    s = sub.add_parser("schwarz", help="two-point interpolation")
    s.add_argument("action", choices=["check", "solve"])
    s.add_argument("--lam", required=True, help="lambda0 as JSON [re, im]")
    s.add_argument("--target", required=True, help="JSON 4-point")
    s.add_argument("--tetra-data", help="optional supplied tetra inner data")
    s.add_argument("--json", action="store_true")

    sp = sub.add_parser("sample", help="deterministic CSV sampling")
    sp.add_argument("what", choices=["real-slice", "boundary"])
    sp.add_argument("--out", default="-", help="CSV path or - for stdout")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=100)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


@functools.cache
def _subparsers() -> dict:
    """{command name: its parser}, taken from `_parser()`."""
    return next(a.choices for a in _parser()._actions
                if isinstance(a, argparse._SubParsersAction))


def _parse(argv: list):
    """`_parser().parse_args(argv)`, in one pass over the subcommand's own
    parser when argv starts with a subcommand's name.  Arguments that
    parser leaves over are reported by the top-level parser, as
    `parse_args` would."""
    sub = _subparsers().get(argv[0]) if argv else None
    if sub is None:
        return _parser().parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        _parser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up at call time, so a rebinding of cmd_<command> takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_USAGE
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency fault: {exc}\n")
        return EXIT_INTERNAL
    except ArithmeticError as exc:
        sys.stderr.write(f"internal arithmetic fault: {exc!r}\n")
        return EXIT_INTERNAL
    except (KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"malformed input: {exc!r}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
