import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hexablock
from hexablock.cli import main

from conftest import D_CASES, d_case_data


def run_cli(args):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_classify_tetra_interior():
    code, out = run_cli(["classify", "--domain", "tetra",
                         "--point", "[[0,0],[0,0],[0.5,0]]", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "interior"
    assert payload["tolerance"] == 1e-9


def test_classify_hexa_flags():
    # (0, 0, 0, alpha): inside H but rejected from H_mu
    code, out = run_cli(["classify", "--domain", "hexa",
                         "--point", "[[0,0],[0,0],[0,0],[0.5,0]]", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "interior"
    assert payload["flags"]["h"] is True
    assert payload["flags"]["hmu"] is False


def test_classify_exit_codes():
    code, _ = run_cli(["classify", "--domain", "g2", "--point", "[[3,0],[0,0]]",
                       "--json"])
    assert code == 2
    code, _ = run_cli(["classify", "--domain", "g2", "--point", "[[2,0],[1,0]]",
                       "--json"])
    assert code == 1


def test_classify_hexa_below_the_refusal_margin():
    # interior margin 2e-10, under psi.REFUSE_MARGIN, decided at --tol 1e-11
    code, out = run_cli(["classify", "--domain", "hexa", "--point",
                         "[[5e-11,0],[0.9999999999,0],[0,0],[0,0]]",
                         "--tol", "1e-11", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "interior"
    assert payload["flags"]["h"] is True


def test_classify_malformed_json():
    code, _ = run_cli(["classify", "--domain", "tetra", "--point", "[[0,0"])
    assert code == 64


def test_mu_norm():
    code, out = run_cli(["mu", "--structure", "norm",
                         "--matrix", "[[[0,0],[5,0]],[[0,0],[0,0]]]", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(5.0)


def test_mu_hexa_nilpotent():
    code, out = run_cli(["mu", "--structure", "hexa",
                         "--matrix", "[[[0,0],[5,0]],[[0,0],[0,0]]]", "--json"])
    assert code == 0
    assert json.loads(out)["value"] <= 1.0


def test_mu_hexa_triangular():
    code, out = run_cli(["mu", "--structure", "hexa",
                         "--matrix", "[[1,1],[0,1]]", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_mu_with_oracle():
    code, out = run_cli(["mu", "--structure", "hexa", "--oracle",
                         "--matrix", "[[[0.3,0.1],[0.2,0]],[[0.5,0],[0.1,0.2]]]",
                         "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["relative_gap"] <= 2e-2


def test_aut_compose_and_invert_round_trip():
    for flip in (False, True):
        T = {"v": {"xi": [0.6, 0.8], "z": [0.2, 0.1]},
             "chi": {"xi": [1, 0], "z": [-0.1, 0.3]},
             "omega": [0, 1], "flip": flip}
        code, out = run_cli(["aut", "invert", "--aut", json.dumps(T),
                             "--json"])
        assert code == 0
        Ti = json.loads(out)
        assert Ti["flip"] is flip
        code, out2 = run_cli(["aut", "compose", "--aut", json.dumps(T),
                              "--second", json.dumps(Ti), "--json"])
        assert code == 0
        C = json.loads(out2)
        # T o T^-1 is the identity normal form (-1) B_0, (-1) B_0, 1
        assert C["flip"] is False
        for part in ("v", "chi"):
            assert abs(complex(*C[part]["xi"]) + 1) < 1e-10
            assert abs(complex(*C[part]["z"])) < 1e-10
        assert abs(complex(*C["omega"]) - 1) < 1e-10


def test_aut_apply():
    T = {"v": {"xi": [-1, 0], "z": [0, 0]},
         "chi": {"xi": [-1, 0], "z": [0, 0]},
         "omega": [1, 0], "flip": False}
    code, out = run_cli(["aut", "apply", "--aut", json.dumps(T),
                         "--point", "[[0.1,0],[0.2,0],[0.1,0],[0.05,0]]",
                         "--json"])
    assert code == 0
    img = json.loads(out)["image"]
    flat = [c for pair in img for c in pair]
    assert flat == pytest.approx([0.1, 0, 0.2, 0, 0.1, 0, 0.05, 0])


def test_aut_missing_arguments():
    T = '{"v":{"xi":[1,0],"z":[0,0]},"chi":{"xi":[1,0],"z":[0,0]},"omega":[1,0]}'
    code, _ = run_cli(["aut", "compose", "--aut", T])
    assert code == 64
    code, _ = run_cli(["aut", "apply", "--aut", T])
    assert code == 64
    # structurally incomplete normal form
    code, _ = run_cli(["aut", "invert", "--aut", '{"v":{"xi":[1,0],"z":[0,0]}}'])
    assert code == 64


def test_inner_construct_and_validate():
    data = {"n": 2, "E1": [[0, 0]], "E2": [[0, 0]], "D": [[1, 0]],
            "B_zeros": [[0, 0]], "B_phase": [-1, 0], "c": [1, 0]}
    code, out = run_cli(["inner", "construct", "--data", json.dumps(data),
                         "--json"])
    assert code == 0
    built = json.loads(out)
    code2, out2 = run_cli(["inner", "validate", "--data", json.dumps(built),
                           "--json"])
    assert code2 == 0
    assert json.loads(out2)["ok"] is True


def test_inner_construct_rejects_d_zero_on_the_circle():
    # D = t - w for w = inner._CIRCLE[1] vanishes at a circle point
    from hexablock.inner import _CIRCLE
    w = complex(_CIRCLE[1])
    data = {"n": 1, "E1": [[0, 0]], "E2": [[0, 0]],
            "D": [[-w.real, -w.imag], [1, 0]]}
    code, _ = run_cli(["inner", "construct", "--data", json.dumps(data),
                       "--json"])
    assert code == 64


@pytest.mark.parametrize("case", sorted(D_CASES))
def test_inner_construct_decides_d_zero_free_from_coefficients(case):
    # a zero of D on the circle between samples or just inside it is
    # malformed input; D = 1e-10 (2 + t) builds a function that validates
    zero_free = D_CASES[case][1] > 0.0
    code, out, err = _run_cli_all(["inner", "construct", "--data",
                                   json.dumps(d_case_data(case)), "--json"])
    if not zero_free:
        assert (code, out) == (64, "")
        assert err == ("domain error: invalid tetrablock inner data: "
                       "['D vanishes on the closed disc']\n")
        return
    assert (code, err) == (0, "")
    code, out = run_cli(["inner", "validate", "--data", out, "--json"])
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("action, data", [
    ("construct", {"n": 1, "E1": [0, 0], "E2": [0, 0], "D": [0, 0]}),
    ("validate", {"n": 1, "E1": [0, 0], "E2": [0, 0], "D": [0, 0],
                  "A": [0, 0]}),
])
def test_inner_with_d_identically_zero_is_one_stderr_line(action, data):
    # the images divide by D = 0: one domain error line, no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _run_cli_all(["inner", action, "--data", json.dumps(data)])
    assert [str(w.message) for w in caught] == []
    assert got == (64, "", "domain error: non-finite complex value in array\n")


def test_inner_validate_reads_real_number_scalars():
    # a complex scalar is [re, im] or a real number on input, as for
    # construct; a three-element scalar is malformed
    real = {"n": 1, "E1": [0, 0], "E2": [0, 0], "D": [1, 0], "A": [0, 1],
            "B_zeros": [], "B_phase": 1, "c": 1}
    pairs = {k: [[v, 0] for v in real[k]] for k in ("E1", "E2", "D", "A")}
    pairs.update(n=1, B_zeros=[], B_phase=[1, 0], c=[1, 0])
    code, out = run_cli(["inner", "validate", "--data", json.dumps(real),
                         "--json"])
    assert code == 0 and json.loads(out)["ok"] is True
    assert run_cli(["inner", "validate", "--data", json.dumps(pairs),
                    "--json"]) == (code, out)
    bad = dict(real, c=[1, 0, 0])
    code, out, err = _run_cli_all(["inner", "validate", "--data",
                                   json.dumps(bad)])
    assert code == 64 and out == "" and "[re, im]" in err


def test_inner_validate_defaults_b_and_c_as_construct():
    # absent B_phase, B_zeros and c read as 1, [] and 1 in validate, as in
    # construct, whose output validates to the same report
    bare = {"n": 1, "E1": [0, 0], "E2": [0, 0], "D": [1, 0], "A": [0, 1]}
    code, out = run_cli(["inner", "validate", "--data", json.dumps(bare),
                         "--json"])
    assert code == 0 and json.loads(out)["ok"] is True
    full = dict(bare, B_phase=1, B_zeros=[], c=1)
    assert run_cli(["inner", "validate", "--data", json.dumps(full),
                    "--json"]) == (code, out)
    code, built = run_cli(["inner", "construct", "--data",
                           json.dumps({k: bare[k] for k in ("n", "E1", "E2", "D")}),
                           "--json"])
    assert code == 0
    assert run_cli(["inner", "validate", "--data", built, "--json"])[0] == 0


def test_schwarz_check_infeasible_named():
    code, out = run_cli(["schwarz", "check", "--lam", "[0.5,0]",
                         "--target", "[[0.6,0],[0,0],[0,0],[0.5,0]]",
                         "--json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["violated"] == "a_bound"


def test_schwarz_solve_royal():
    code, out = run_cli(["schwarz", "solve", "--lam", "[0.5,0]",
                         "--target", "[[0.25,0],[0,0],[0,0],[0.5,0]]",
                         "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["endpoint_residual"] <= 1e-7


def test_schwarz_solve_checks_feasibility_once(monkeypatch):
    import hexablock.cli as cli
    import hexablock.inner as inner
    calls = []
    real = inner.schwarz_feasible

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(inner, "schwarz_feasible", counted)
    for lam, target, code in (
            ("[0.5,0]", "[[0.25,0],[0,0],[0,0],[0.5,0]]", 0),
            ("[0.6,0]", "[[0,0],[0.2,0.1],[-0.3,0],[-0.06,-0.03]]", 0),
            ("[0.9,0]", "[[0.05,0],[0.3,0],[0.2,0],[0.1,0]]", 4),
            ("[0.5,0]", "[[0.6,0],[0,0],[0,0],[0.5,0]]", 3)):
        calls.clear()
        got, _ = run_cli(["schwarz", "solve", "--lam", lam, "--target", target,
                          "--json"])
        assert got == code and len(calls) == 1


def test_inner_json_is_one_dict_form():
    # construct emits the dict form; validate reads it back without a
    # second JSON round trip, and the dict form survives JSON text
    from hexablock.inner import RationalHexaInner
    data = {"n": 2, "E1": [[0.1, 0.2]], "E2": [[0, 0], [0, 0], [0.1, -0.2]],
            "D": [[2, 0], [0.5, 0.5]], "B_zeros": [[0.3, 0]],
            "B_phase": [0, 1], "c": [1, 0]}
    code, out = run_cli(["inner", "construct", "--data", json.dumps(data),
                         "--json"])
    assert code == 0
    f = RationalHexaInner.from_dict(json.loads(out))
    assert f.to_dict() == json.loads(out)
    text = json.dumps(f.to_dict())
    assert RationalHexaInner.from_dict(json.loads(text)).to_dict() == f.to_dict()
    assert all(type(v) is float for row in f.to_dict()["A"] for v in row)
    code, text = run_cli(["inner", "construct", "--data", json.dumps(data)])
    assert code == 0 and "np.float64" not in text


def test_schwarz_solve_unsupported_case():
    # non-triangular target without supplied data
    code, out = run_cli(["schwarz", "solve", "--lam", "[0.9,0]",
                         "--target", "[[0.05,0],[0.3,0],[0.2,0],[0.1,0]]",
                         "--json"])
    assert code == 4
    assert json.loads(out)["constructed"] is False


def test_cli_deterministic_output():
    args = ["classify", "--domain", "penta",
            "--point", "[[0.2,0],[0.3,0],[0.1,0]]", "--json"]
    out1 = run_cli(args)
    out2 = run_cli(args)
    assert out1 == out2


def _run_cli_all(args):
    """(exit code, stdout, stderr) of an in-process call."""
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_cli_reuses_one_parser(monkeypatch):
    import hexablock.cli as cli
    inner_data = json.dumps({"n": 1, "E1": [[0, 0]], "E2": [[0, 0]],
                             "D": [[1, 0]]})
    calls = [
        ["classify", "--domain", "tetra", "--point", "[[0,0],[0,0],[0.5,0]]",
         "--json"],
        ["classify", "--domain", "tetra", "--point", "[[0,0],[0,0],[0.5,0]]"],
        ["mu", "--structure", "penta", "--matrix", "[[1,1],[0,1]]"],
        ["classify", "--domain", "banana", "--point", "[]"],
        ["--version"],
        ["inner", "construct", "--data", inner_data, "--json"],
        ["mu", "--structure", "norm", "--matrix", "[[1,0],[0,2]]", "--json"],
        ["schwarz", "check", "--lam", "[0.5,0]",
         "--target", "[[0.6,0],[0,0],[0,0],[0.5,0]]"],
        ["classify", "--domain", "tetra", "--point", "[[0,0"],
        [],
    ]
    reused = [_run_cli_all(args) for args in calls]
    parser = cli._parser()
    assert all(_run_cli_all(args) == r for args, r in zip(calls, reused))
    assert cli._parser() is parser
    fresh = []
    for args in calls:
        cli._parser.cache_clear()
        fresh.append(_run_cli_all(args))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 0, 2, 0, 0, 0, 3, 64, 2]
    assert reused[4][1].strip() == hexablock.__version__
    assert "invalid choice: 'banana'" in reused[3][2]

    # subcommands are looked up when called: a rebinding takes effect
    seen = []
    real = cli.cmd_inner

    def recorded(args):
        seen.append(args.action)
        return real(args)

    monkeypatch.setattr(cli, "cmd_inner", recorded)
    assert _run_cli_all(calls[5]) == reused[5]
    assert seen == ["construct"]


@pytest.mark.parametrize("args", [
    ["classify", "--domain", "tetra", "--point", "[[1e200,0],[0,0],[0,0]]"],
    ["mu", "--structure", "hexa", "--matrix",
     "[[1.5e308,1.5e308],[1.5e308,0]]"],
    ["mu", "--structure", "penta", "--matrix",
     "[[1.5e308,1.5e308],[1.5e308,0]]", "--json"],
])
def test_arithmetic_fault_is_internal(args):
    # an overflow, or a mu that is not finite, is an internal fault: exit 70
    # with one line on stderr, never a region code or a NaN on stdout.  The
    # mu of these matrices, about 2.4e308, is beyond the float range
    code, out, err = _run_cli_all(args)
    assert code == 70
    assert out == ""
    assert err.startswith("internal arithmetic fault: ")
    assert err.count("\n") == 1


def _refuse_constant(name):
    """`json.loads`' parse_constant: strict JSON has no NaN or Infinity."""
    raise AssertionError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("domain", ["hexa", "hexa-n"])
@pytest.mark.parametrize("closed", [[], ["--closed"]])
def test_classify_json_is_strict_where_k_star_is_infinite(domain, closed):
    # K* is infinite at x = (1, 0, 0): every margin is a finite float
    code, out, err = _run_cli_all(
        ["classify", "--domain", domain, "--point",
         "[[0.5,0],[1,0],[0,0],[0,0]]", "--json", *closed])
    assert err == "" and code == 2
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert payload["margins"]["hn_closure"] == -1.0


def test_emit_refuses_non_finite_floats(monkeypatch):
    # one rule for both output forms: a non-finite float is an internal
    # arithmetic fault, whatever computed it
    import hexablock.cli as cli
    monkeypatch.setattr(cli, "mu_value", lambda A, s: math.inf)
    for extra in ([], ["--json"]):
        code, out, err = _run_cli_all(["mu", "--structure", "tetra",
                                       "--matrix", "[[1,0],[0,1]]", *extra])
        assert (code, out) == (70, "")
        assert err.startswith("internal arithmetic fault: ")
        assert err.count("\n") == 1


# per subcommand: a complete argv, then (option, bad value) for one choice
_COMMANDS = {
    "classify": (["classify", "--domain", "tetra", "--point", "[[0,0],[0,0],[0,0]]"],
                 ("--domain", "banana")),
    "mu": (["mu", "--structure", "tetra", "--matrix", "[[1,0],[0,1]]"],
           ("--structure", "banana")),
    "aut": (["aut", "invert", "--aut", "{}"], (1, "banana")),
    "inner": (["inner", "validate", "--data", "{}"], (1, "banana")),
    "schwarz": (["schwarz", "check", "--lam", "[0.5,0]",
                 "--target", "[[0,0],[0,0],[0,0],[0,0]]"], (1, "banana")),
    "sample": (["sample", "boundary"], (1, "banana")),
}


def _bad_argvs(cmd):
    """{case: argv} of argvs that argparse rejects or answers itself."""
    full, (opt, bad) = _COMMANDS[cmd]
    if isinstance(opt, int):
        choice = full[:opt] + [bad] + full[opt + 1:]
    else:
        i = full.index(opt) + 1
        choice = full[:i] + [bad] + full[i + 1:]
    return {"help": [cmd, "-h"], "unknown": full + ["--bogus"],
            "missing": [cmd], "choice": choice}


@pytest.mark.parametrize("cmd", sorted(_COMMANDS))
def test_direct_dispatch_keeps_argparse_answers(cmd):
    # the subcommand's own parser answers as the full parser does: same exit
    # code, usage line and message
    import contextlib
    import io
    from hexablock.cli import build_parser

    def reference(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                build_parser().parse_args(argv)
                code = None
            except SystemExit as exc:
                code = int(exc.code or 0)
        return code, out.getvalue(), err.getvalue()

    for case, argv in _bad_argvs(cmd).items():
        code, out, err = _run_cli_all(argv)
        assert (code, out, err) == reference(argv), case
        if case == "help":
            assert code == 0 and out.startswith(f"usage: hexablock {cmd} ")
            continue
        assert code == 2 and out == ""
        if case == "unknown":
            assert err.startswith("usage: hexablock [-h] [--version]")
            assert "hexablock: error: unrecognized arguments: --bogus" in err
        else:
            assert err.startswith(f"usage: hexablock {cmd} ")
            assert f"hexablock {cmd}: error: " in err
            assert ("invalid choice: 'banana'" if case == "choice"
                    else "the following arguments are required") in err


def test_sample_real_slice(tmp_path):
    out = tmp_path / "slice.csv"
    code, _ = run_cli(["sample", "real-slice", "--seed", "7", "--count", "40",
                       "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "a,x1,x2,x3,region,margin,faces"
    code2, _ = run_cli(["sample", "real-slice", "--seed", "7", "--count", "40",
                        "--out", str(tmp_path / "slice2.csv")])
    assert (tmp_path / "slice2.csv").read_text() == text


def test_sample_boundary(tmp_path):
    out = tmp_path / "bnd.csv"
    code, _ = run_cli(["sample", "boundary", "--seed", "3", "--count", "25",
                       "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 26


def _readme_cli_lines():
    """The `hexablock ...` lines of README's shell blocks, continuation
    lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines, in_sh = [], False
    for line in text.replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("hexablock "):
            lines.append(line)
    return lines


def test_readme_cli_block_runs(tmp_path):
    # every quick-start line exits as its "# exit N" comment says (0 when
    # it has none), with --out files written under tmp_path
    lines = _readme_cli_lines()
    assert {shlex.split(line)[1] for line in lines} >= {
        "classify", "mu", "aut", "inner", "schwarz", "sample"}
    for line in lines:
        args = shlex.split(line, comments=True)[1:]
        for i, arg in enumerate(args[:-1]):
            if arg == "--out":
                args[i + 1] = str(tmp_path / args[i + 1])
        exit_note = re.search(r"#\s*exit (\d+)", line)
        code, _ = run_cli(args)
        assert code == (int(exit_note.group(1)) if exit_note else 0), line


def test_console_entry_point():
    # the child imports the same package as the tests, installed or not
    root = os.path.dirname(os.path.dirname(hexablock.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hexablock.cli", "--version"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0


@pytest.mark.parametrize("domain, point, tol", [
    ("tetra", "[0.1,0.1,0.1]", "-1"),
    ("penta", "[0.1,0.1,0.1]", "-1"),
    ("hexa", "[0.1,0.1,0.1,0]", "nan"),
    ("hexa", "[0.1,0.1,0.1,0]", "inf"),
])
def test_classify_refuses_a_negative_or_non_finite_tol(domain, point, tol):
    code, out, err = _run_cli_all(["classify", "--domain", domain,
                                   "--point", point, "--tol", tol])
    assert (code, out) == (64, "")
    assert err.startswith("error: --tol ") and err.count("\n") == 1


def test_classify_tetra_next_to_the_unit_circle():
    # |x3| is one ulp below 1 and x1 = conj(x2) x3 with |x2| > 1: outside
    # the closure, where part 7 (the beta criterion) is rounding noise and
    # abstains
    code, out = run_cli(["classify", "--domain", "tetra", "--point",
                         "[[-1.3840966069577616,-0.4438378231069485],"
                         "[1.2785980663467693,0.69130486425788],"
                         "[-0.6924150683246008,-0.721499392346964]]",
                         "--json"])
    assert code == 2
    assert json.loads(out)["region"] == "exterior_of_closure"


def test_classify_tol_zero_on_the_distinguished_boundary():
    # a bE point: at tol 0 the margins that are rounding noise (part4
    # 2.2e-16, part5 -2.8e-17) abstain, as at the default tol
    point = ("[[-0.5596551116904928,0.3468412972600431],"
             "[0.08687894212082595,0.6526597727317761],"
             "[-0.6343334060810235,-0.7730595901543731]]")
    for extra in ([], ["--tol", "0"]):
        code, out, err = _run_cli_all(["classify", "--domain", "tetra",
                                       "--point", point, "--json", *extra])
        assert (code, err) == (1, "")
        assert json.loads(out)["region"] == "distinguished_boundary"


def test_classify_accepts_tol_zero():
    code, out, err = _run_cli_all(["classify", "--domain", "hexa", "--point",
                                   "[0.1,0.1,0.1,0]", "--tol", "0", "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["tolerance"] == 0.0


@pytest.mark.parametrize("args", [
    ["classify", "--domain", "hexa", "--point", "[true,0,0,0]"],
    ["classify", "--domain", "tetra", "--point", "[[0.1,false],0,0]"],
    ["aut", "invert", "--aut",
     '{"v":{"xi":[1,0],"z":[0,0]},"chi":{"xi":[1,0],"z":[0,0]},'
     '"omega":[1,0],"flip":"false"}'],
    ["aut", "invert", "--aut",
     '{"v":{"xi":[1,0],"z":[0,0]},"chi":{"xi":[1,0],"z":[0,0]},'
     '"omega":[1,0],"flip":1}'],
    ["classify", "--domain", "hexa", "--point", '[["0.1",0],0,0,0]'],
    ["classify", "--domain", "hexa", "--point", '[["nan",0],0,0,0]'],
])
def test_json_booleans_and_numbers_are_not_interchangeable(args):
    # a JSON boolean or string is no complex scalar, and flip is nothing
    # but a boolean
    code, out, err = _run_cli_all(args)
    assert (code, out) == (64, "")
    assert err.count("\n") == 1


@pytest.mark.parametrize("what, header", [
    ("boundary", "theta,z_re,z_im,w_re,w_im,a_re,a_im,x1_re,x1_im,x2_re,"
                 "x2_im,x3_re,x3_im"),
    ("real-slice", "a,x1,x2,x3,region,margin,faces"),
], ids=["boundary", "real-slice"])
def test_sample_negative_count_is_a_usage_error(what, header):
    assert _run_cli_all(["sample", what, "--count", "-5"]) == \
        (64, "", "error: --count must be >= 0, got -5\n")
    assert _run_cli_all(["sample", what, "--count", "0"]) == \
        (0, header + "\n", "")


def test_sample_unwritable_out_is_a_usage_error(tmp_path):
    path = tmp_path / "missing" / "boundary.csv"
    code, out, err = _run_cli_all(["sample", "boundary", "--count", "3",
                                   "--out", str(path)])
    assert (code, out) == (64, "")
    assert str(path) in err and err.count("\n") == 1


def test_classify_small_a_on_the_lattice_fault_points():
    # 0 < |a| <= tol over triangular x with K* infinite: closed H_N reads
    # H's margin too, so the verdict lattice holds and the point is exterior
    for domain in ("hexa", "hexa-mu", "hexa-n"):
        code, out, err = _run_cli_all(["classify", "--domain", domain,
                                       "--point", "[1e-12, 1, 1, 1]",
                                       "--json"])
        assert (code, err) == (2, "")
        flags = json.loads(out)["flags"]
        assert not (flags["h_closure"] or flags["hn_closure"] or flags["bh"])
    code, out, err = _run_cli_all(["classify", "--domain", "hexa", "--point",
                                   "[0, 1, 1, 1]", "--json"])
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["region"] == "distinguished_boundary"
    assert payload["flags"]["boundary_parts"] == ["d0"]


def test_mu_at_a_tiny_scale():
    # a true value of 2e-100, whose products of four entries underflow
    assert run_cli(["mu", "--structure", "hexa", "--matrix",
                    "[[1e-100,2e-100],[1e-100,0]]"]) == \
        (0, "structure: hexa\nvalue: 2e-100\n")


# ---------------------------------------------------------------------------
# the classify contract under a fuzzer
# ---------------------------------------------------------------------------

_ARITY = {"g2": 2, "tetra": 3, "penta": 3, "hexa": 4, "hexa-mu": 4,
          "hexa-n": 4}
_TOLS = (0.0, 1e-300, 1e-9, 0.01, 0.5)
_st_unit_angle = st.floats(0.0, 2.0 * math.pi)
_st_near_unit = st.builds(
    lambda t, d: [(1.0 + d) * math.cos(t), (1.0 + d) * math.sin(t)],
    _st_unit_angle, st.sampled_from([0.0, 1e-16, -1e-16, 1e-9, -1e-9]))
_st_scalar = st.sampled_from([0.0, -0.0, 5e-324, 1e-155, 1e155, 1e308,
                              -1e308, 1, -1, 0.5])
_st_entry = st.one_of(_st_scalar,
                      st.lists(_st_scalar, min_size=2, max_size=2),
                      _st_near_unit,
                      st.sampled_from([True, False, "0.1", None]))


def _cx_pair(z):
    return [z.real, z.imag]


@st.composite
def _st_be_point(draw, tol):
    """(a, conj(x2) x3, x2, x3) with |x3| = 1, |x2| = 1 or U(0, 1) and a
    of modulus 0, 1e-12, tol/2, 2 tol or sqrt(1 - |x1|^2)."""
    def unit():
        t = draw(_st_unit_angle)
        return complex(math.cos(t), math.sin(t))

    x3 = unit()
    x2 = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))) * unit()
    x1 = x2.conjugate() * x3
    r = draw(st.sampled_from([0.0, 1e-12, tol / 2, 2 * tol,
                              math.sqrt(max(0.0, 1.0 - abs(x1) ** 2))]))
    return [_cx_pair(r * unit()), *map(_cx_pair, (x1, x2, x3))]


@st.composite
def _st_classify_argv(draw):
    domain = draw(st.sampled_from(sorted(_ARITY)))
    tol = draw(st.sampled_from(_TOLS))
    arity = _ARITY[domain]
    if draw(st.integers(0, 9)) == 0:
        arity += draw(st.sampled_from([-1, 1]))
    if draw(st.booleans()):
        # the last `arity` coordinates of a bE point, padded with 0
        point = ([0] * 4 + draw(_st_be_point(tol)))[-arity:]
    else:
        point = draw(st.lists(_st_entry, min_size=arity, max_size=arity))
    closed = ["--closed"] if draw(st.booleans()) else []
    return ["classify", "--domain", domain, "--point", json.dumps(point),
            "--tol", repr(tol), "--json", *closed]


def _huge(argv):
    """Whether the point has a part of modulus >= 1e150."""
    def parts(v):
        if isinstance(v, list):
            for t in v:
                yield from parts(t)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield abs(v)
    return max(parts(json.loads(argv[4])), default=0.0) >= 1e150


@given(_st_classify_argv())
@example(["classify", "--domain", "hexa", "--point", "[1e-12, 1, 1, 1]",
          "--tol", "1e-09", "--json"])
@example(["classify", "--domain", "hexa-mu", "--point", "[1e-12, 1, 1, 1]",
          "--tol", "1e-06", "--json", "--closed"])
@example(["classify", "--domain", "hexa-n", "--point",
          "[[0.1, 0], [0.9999896026888706, 0.004560100235139419], "
          "[-0.9705677598410362, 0.24082820340888814], "
          "[-0.971655869293058, 0.23639981317325873]]",
          "--tol", "0.5", "--json"])
# x = (x1, 1, x1), |x1| = 1, at tol 0: the interior margin rounds to
# 1.1e-16 and K* is infinite, and open H read 1 - |a| K* as nan at a = 0
# and as -inf at a = 0.5
@example(["classify", "--domain", "hexa", "--point",
          "[[0.0, 0.0], [0.6151774449047079, -0.7883886803350965], "
          "[1.0, 0.0], [0.6151774449047079, -0.7883886803350965]]",
          "--tol", "0.0", "--json"])
@example(["classify", "--domain", "hexa-mu", "--point",
          "[[0.5, 0.0], [0.6151774449047079, -0.7883886803350965], "
          "[1.0, 0.0], [0.6151774449047079, -0.7883886803350965]]",
          "--tol", "0.0", "--json"])
@settings(max_examples=400, deadline=None, derandomize=True)
def test_classify_contract_under_a_fuzzer(argv):
    # README's contract: a listed exit code; strict JSON on stdout and an
    # empty stderr for a verdict; one stderr line for malformed input or an
    # internal fault; never a split vote.  An overflow on coordinates of
    # about 1e155 or more is still an arithmetic fault (exit 70)
    code, out, err = _run_cli_all(argv)
    assert code in (0, 1, 2, 64, 70), (code, argv)
    assert "internal consistency fault" not in out + err, argv
    if code <= 2:
        assert err == "", argv
        payload = json.loads(out, parse_constant=_refuse_constant)
        assert payload["domain"] == argv[2]
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
    if code == 70:
        assert err.startswith("internal arithmetic fault: OverflowError"), argv
        assert _huge(argv), argv


# ---------------------------------------------------------------------------
# the inner contract under a fuzzer
# ---------------------------------------------------------------------------

_st_inner_scalar = st.sampled_from([
    0.0, -0.0, 5e-324, 1e-308, 1e-155, 2e-10, 0.5, 1, -1, 1.5, 1e155, 1e308,
    -1e308, math.nan, math.inf, -math.inf])
# junk in the place of a complex scalar or of a coefficient array
_st_inner_junk = st.one_of(
    _st_inner_scalar,
    st.lists(_st_inner_scalar, max_size=3),
    st.sampled_from([True, False, "0.1", None, [[0, 0]], [[[0, 0]]], {}, []]))
# D: zero-free, zero-free at a small or huge scale, a zero on the circle or
# just inside it, or a long random array
_st_inner_d = st.one_of(
    st.builds(lambda s: [[2 * s, 0], [s, 0]],
              st.sampled_from([1.0, 1e-10, 1e-300, 1e155, 1e300])),
    st.builds(lambda t, d: [[-(1.0 + d) * math.cos(t),
                             -(1.0 + d) * math.sin(t)], [1, 0]],
              _st_unit_angle,
              st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9,
                               -1e-9, -1e-3])),
    st.lists(st.floats(-2.0, 2.0), min_size=20, max_size=40),
    _st_inner_junk)


@st.composite
def _st_inner_argv(draw):
    """`inner construct` or `inner validate` on E1 = E2 = 0, A = D and
    B = c = 1 with a drawn D and bound n, and at most one other field
    replaced by junk or dropped."""
    action = draw(st.sampled_from(["construct", "validate"]))
    D = draw(_st_inner_d)
    fits = len(D) - 1 if isinstance(D, list) and len(D) > 2 else 1
    n = fits if draw(st.integers(0, 2)) else draw(st.sampled_from(
        [2, 4, 0, -1, True, "1", 1.5, None, [1], 1e308, math.inf, math.nan]))
    data = {"n": n, "E1": [[0, 0]], "E2": [[0, 0]], "D": D, "A": D,
            "B_phase": 1, "B_zeros": [], "c": 1}
    key = draw(st.sampled_from([None] * 7 + ["E1", "E2", "A", "B_phase",
                                             "B_zeros", "c"]))
    if key is not None:
        if draw(st.booleans()):
            data[key] = draw(_st_inner_junk)
        else:
            del data[key]
    text = json.dumps(data)
    broken = draw(st.sampled_from([None] * 15 + [text[:-1], "[]", "1", '"x"',
                                                 "null"]))
    return ["inner", action, "--data", broken or text, "--json"]


def _huge_data(argv):
    """Whether the data holds a finite number of modulus >= 1e150, or
    coefficients beyond 1e150 times the largest of D, so that the functions
    reach 1e150."""
    def top(v):
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, list):
            return max(map(top, v), default=0.0)
        if isinstance(v, (int, float)) and not isinstance(v, bool) \
                and math.isfinite(v):
            return abs(v)
        return 0.0
    try:
        data = json.loads(argv[3])
    except json.JSONDecodeError:
        return False
    d = top(data.get("D")) if isinstance(data, dict) else 0.0
    return top(data) >= 1e150 * min(1.0, d or 1.0)


def _inner_argv(action, **data):
    """`inner <action>` on E1 = E2 = 0 and D = A = 2 + t at n = 1, with the
    fields of `data` in their place."""
    base = {"n": 1, "E1": [[0, 0]], "E2": [[0, 0]], "D": [[2, 0], [1, 0]],
            "A": [[2, 0], [1, 0]], "B_phase": 1, "B_zeros": [], "c": 1}
    return ["inner", action, "--data", json.dumps({**base, **data}), "--json"]


@given(_st_inner_argv())
# an infinite bound n: int() raised OverflowError (exit 70); a bound 1.5,
# true or "1" was read as an integer
@example(_inner_argv("construct", n=math.inf))
@example(_inner_argv("validate", n=1.5))
@example(_inner_argv("validate", n=True))
# overflow warnings: |a|^2 at c = 1e155, the circle values of coefficients
# 1e308, the tetrablock verdict on images 1e155, and D(1) subnormal
@example(_inner_argv("validate", c=1e155))
@example(_inner_argv("construct", D=[1e308, 1e308], A=[1e308, 1e308]))
@example(_inner_argv("construct", E1=[1e155]))
@example(_inner_argv("validate", D=[[-1.0, -2.2250738585e-313], [1, 0]],
                     A=[[-1.0, -2.2250738585e-313], [1, 0]]))
# |x1| = 6e164 at t = 1 squared to an infinite norm residual, which the
# CLI refused to print (exit 70)
@example(_inner_argv("validate", E1=[2e-10],
                     D=[[-1.0, -3.167307360090437e-175], [1, 0]],
                     A=[[-1.0, -3.167307360090437e-175], [1, 0]]))
# a zero of D between circle samples (exit 64) and D = 1e-10 (2 + t)
@example(["inner", "construct", "--data",
          json.dumps(d_case_data("on_the_circle")), "--json"])
@example(["inner", "construct", "--data",
          json.dumps(d_case_data("small_scale")), "--json"])
@settings(max_examples=250, deadline=None, derandomize=True)
def test_inner_contract_under_a_fuzzer(argv):
    # README's contract: construct exits 0 and validate 0 (valid) or 1 (not
    # valid), with strict JSON on stdout and an empty stderr; malformed
    # input exits 64 with one stderr line; no Python warning.  An overflow
    # on coefficients of about 1e150 or more is still an arithmetic fault
    # (exit 70)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run_cli_all(argv)
    assert [str(w.message) for w in caught] == [], argv
    assert code in ((0, 64, 70) if argv[1] == "construct" else (0, 1, 64, 70)), \
        (code, err, argv)
    if code <= 1:
        assert err == "", argv
        json.loads(out, parse_constant=_refuse_constant)
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
    if code == 70:
        assert err.startswith("internal arithmetic fault: "), argv
        assert _huge_data(argv), argv
