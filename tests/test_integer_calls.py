"""A command-line call on integer documents never loads `fractions`.

Integral scalars are plain ints all the way from parsing to writing, so
`fractions` (and `decimal` and `numbers`, which it imports) is loaded only
where a non-integer rational is read or built.  Each call runs in a fresh
interpreter.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import catcx

RATIONAL_MODULES = ("fractions", "decimal", "numbers")
COMPLEX = '{"type":"chain_complex","lo":0,"hi":2,"dims":[1,2,1],' \
          '"differentials":{"1":[["1","-2"]],"2":[["2"],["1"]]}}'
ALGEBRA = '{"dim":1,"structure":[[["1"]]],"unit":["1"]}'


def _fresh_call(*argv):
    """(exit code, stdout, the rational modules loaded) of one fresh call."""
    code = ("import json, sys\n"
            "from catcx.cli import run\n"
            "code = run(sys.argv[1:])\n"
            f"loaded = [m for m in {RATIONAL_MODULES!r} if m in sys.modules]\n"
            "sys.stderr.write(json.dumps([code, loaded]))\n")
    env = dict(os.environ)
    paths = [str(Path(catcx.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    exit_code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return exit_code, proc.stdout, loaded


def _koszul_doc(tmp_path, lambdas):
    doc = tmp_path / "k.json"
    doc.write_text(json.dumps({"type": "koszul_complex", "algebra": json.loads(ALGEBRA),
                               "lambdas": lambdas}))
    return str(doc)


@pytest.mark.parametrize("command", ["tensor", "homology", "koszul", "koszul-dual"])
def test_integer_calls_load_no_rational_module(tmp_path, command):
    if command.startswith("koszul"):
        files = [_koszul_doc(tmp_path, [["1"], ["-2"], ["3"]])]
    else:
        (tmp_path / "c.json").write_text(COMPLEX)
        files = [str(tmp_path / "c.json")] * (2 if command == "tensor" else 1)
    code, out, loaded = _fresh_call(command, *files)
    assert code == 0 and out.startswith("{")
    assert loaded == []


def test_a_rational_lambda_loads_fractions_and_writes_the_same_bytes(tmp_path):
    code, out, loaded = _fresh_call("koszul", _koszul_doc(tmp_path, [["1/2"], ["-2/3"]]))
    assert code == 0
    assert "fractions" in loaded
    # the bytes the Fraction-based algebra wrote
    assert out == ('{"differentials":{"1":[["-2/3","1/2"]],"2":[["1/2"],["2/3"]]},'
                   '"dims":[1,2,1],"hi":2,"lo":0,"type":"chain_complex"}\n')
