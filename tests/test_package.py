import ast
import os
import pathlib
import subprocess
import sys

import hexablock

LAZY = ("hexablock.oracles", "hexablock.inner", "hexablock.realslice",
        "hexablock.cli")


def _run(code):
    src = os.path.dirname(os.path.dirname(hexablock.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_scalar_calls_load_no_lazy_module():
    # the oracles, inner functions, real slices and the CLI stay unloaded
    # through a scalar mu and a point classification
    loaded = _run(
        "import sys, hexablock as hb\n"
        "hb.mu_value(hb.Mat2(0.3, 0.2j, 0.4, -0.1), 'penta')\n"
        "hb.classify_hexa((0.1, 0.2, 0.3j, 0.05))\n"
        f"print(*[m for m in {LAZY!r} if m in sys.modules])")
    assert loaded == []


def test_cli_classify_loads_no_inner_or_realslice():
    # the CLI imports the inner functions only for `inner` and `schwarz`,
    # and the real slices only for `sample`
    loaded = _run(
        "import contextlib, io, sys\n"
        "from hexablock.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['classify', '--domain', 'hexa', '--point',\n"
        "                 '[[0.1,0],[0.2,0],[0,0.3],[0.05,0]]', '--json'])\n"
        "assert code == 0, code\n"
        "print(*[m for m in ('hexablock.inner', 'hexablock.realslice')\n"
        "        if m in sys.modules])")
    assert loaded == []


def test_every_export_resolves():
    assert len(set(hexablock.__all__)) == len(hexablock.__all__)
    for name in hexablock.__all__:
        assert getattr(hexablock, name) is not None, name
    from hexablock import grid_sup_kappa
    from hexablock.oracles import grid_sup_kappa as direct
    assert grid_sup_kappa is direct


def test_lazy_name_loads_its_module_only():
    # the real slices differentiate K exactly and need no oracle
    for name, module in (("grid_sup_kappa", "hexablock.oracles"),
                         ("hessian_probe_K", "hexablock.realslice")):
        loaded = _run(
            "import sys\n"
            f"from hexablock import {name}\n"
            f"print(*[m for m in {LAZY!r} if m in sys.modules])")
        assert loaded == [module], name


def test_every_parameter_is_read():
    # a parameter that the function body never reads only threads a value
    # through, or is a knob that does nothing
    unread = []
    for path in sorted(pathlib.Path(hexablock.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {p}" for p in params
                       if p not in read]
    assert unread == []


def test_thresholds_are_named():
    # every float below 1e-2 that the library decides by is a module-level
    # name; only the test oracles write such literals.  A float name lives
    # in the one module that reads it, or in `numerics` when two or more
    # modules read it, so the shared table cannot regrow
    trees = {path.stem: ast.parse(path.read_text()) for path in
             sorted(pathlib.Path(hexablock.__file__).parent.glob("*.py"))}
    small, misplaced = [], []
    for mod, tree in trees.items():
        named = {node.targets[0].id: node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Constant)
                 and type(node.value.value) is float}
        if mod != "oracles":
            table = set(map(id, named.values()))
            small += [f"{mod}.py:{node.lineno} {node.value!r}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Constant)
                      and type(node.value) is float
                      and 0.0 < abs(node.value) < 1e-2
                      and id(node) not in table]
        for name in named:
            readers = {m for m, t in trees.items() for n in ast.walk(t)
                       if isinstance(n, ast.Name) and n.id == name
                       and isinstance(n.ctx, ast.Load)}
            home = "numerics" if len(readers) > 1 else next(iter(readers), None)
            if mod != home:
                misplaced.append(f"{mod}.{name} read by {sorted(readers)}")
    assert small == []
    assert misplaced == []


def test_scalar_paths_read_no_region_member():
    # reading `Region.X` is an Enum lookup, about ten times a module-level
    # name; every function of `domains` and `hexa` compares regions with
    # the members `domains` binds once
    root = pathlib.Path(hexablock.__file__).parent
    hot = {"_g2_verdict", "_penta_verdict", "psi_sup", "_closure_test",
           "hn_member", "_boundary_parts"}
    seen, reads = set(), []
    for mod in ("domains", "hexa"):
        tree = ast.parse((root / f"{mod}.py").read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            seen.add(fn.name)
            reads += [f"{mod}.{fn.name}:{n.lineno} Region.{n.attr}"
                      for n in ast.walk(fn) if isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name) and n.value.id == "Region"
                      and isinstance(n.ctx, ast.Load)]
    assert hot <= seen
    assert reads == []


def test_every_public_name_is_exported_or_used():
    # a public module-level function or class is a paper object or an entry
    # point (exported by `hexablock`), or a helper that the library reads
    # by name outside the helper's own body; anything else is dead code or
    # belongs with the tests.  `cli` dispatches its commands by name and
    # `oracles` is the reference module, so neither is governed
    surface = ("numerics", "psi", "domains", "hexa", "autos", "inner",
               "realslice")
    root = pathlib.Path(hexablock.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(root.glob("*.py"))}
    exported = set(hexablock.__all__)
    orphans = []
    for mod in surface:
        for node in trees[mod].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") or node.name in exported:
                continue
            own = set(map(id, ast.walk(node)))
            if not any(isinstance(n, ast.Name) and n.id == node.name
                       and isinstance(n.ctx, ast.Load)
                       or isinstance(n, ast.Attribute) and n.attr == node.name
                       for tree in trees.values() for n in ast.walk(tree)
                       if id(n) not in own):
                orphans.append(f"{mod}.{node.name}")
    assert orphans == []


def test_changes_has_no_repeated_line():
    # CHANGES.md holds one entry per change, once: no non-empty line occurs
    # twice
    lines = (pathlib.Path(__file__).parent.parent / "CHANGES.md") \
        .read_text().splitlines()
    seen, repeated = set(), []
    for line in filter(str.strip, lines):
        if line in seen:
            repeated.append(line[:80])
        seen.add(line)
    assert repeated == []
