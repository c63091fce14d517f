"""`import catcx` and `import catcx.cli` load only what they are asked for."""

import importlib
import os
from pathlib import Path
import subprocess
import sys

import catcx

DOMAIN_MODULES = ("catcx.perverse", "catcx.laxmat", "catcx.simplex", "catcx.doldkan",
                  "catcx.multicplx", "catcx.koszul")


def run_fresh(code: str) -> str:
    """stdout of `code` in a new interpreter importing this process's catcx."""
    env = dict(os.environ)
    paths = [str(Path(catcx.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout


def test_importing_the_cli_skips_the_domain_modules():
    loaded = run_fresh("import sys, catcx.cli\n"
                       "print(*sorted(m for m in sys.modules if m.startswith('catcx')))")
    loaded = loaded.split()
    assert "catcx.cli" in loaded
    assert [m for m in DOMAIN_MODULES if m in loaded] == []


def test_names_load_their_module_on_first_use():
    out = run_fresh("import sys, catcx\n"
                    "print('catcx.perverse' in sys.modules)\n"
                    "catcx.PervDisk\n"
                    "print('catcx.perverse' in sys.modules, 'catcx.laxmat' in sys.modules)\n")
    assert out.split() == ["False", "True", "False"]


def test_every_exported_name_is_the_defining_modules_object():
    assert len(set(catcx.__all__)) == len(catcx.__all__)
    star = {}
    exec("from catcx import *", star)
    for name in catcx.__all__:
        home = importlib.import_module(f"catcx.{catcx._MODULE_OF[name]}")
        assert getattr(catcx, name) is getattr(home, name), name
        assert star[name] is getattr(home, name), name
        assert name in dir(catcx)


def test_koszul_is_the_function_whichever_is_imported_first():
    out = run_fresh("import catcx.koszul, catcx\n"
                    "print(catcx.koszul is catcx.koszul.__globals__['koszul'])\n"
                    "from catcx import koszul\n"
                    "print(callable(koszul), callable(catcx.koszul))\n")
    assert out.split() == ["True", "True", "True"]
