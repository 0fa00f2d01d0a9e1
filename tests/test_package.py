import os
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


def test_every_export_resolves():
    assert len(set(hexablock.__all__)) == len(hexablock.__all__)
    for name in hexablock.__all__:
        assert getattr(hexablock, name) is not None, name
    from hexablock import grid_sup_kappa
    from hexablock.oracles import grid_sup_kappa as direct
    assert grid_sup_kappa is direct


def test_lazy_name_loads_its_module_only():
    loaded = _run(
        "import sys\n"
        "from hexablock import grid_sup_kappa\n"
        f"print(*[m for m in {LAZY!r} if m in sys.modules])")
    assert loaded == ["hexablock.oracles"]
