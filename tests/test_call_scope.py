"""A command-line call loads, compiles and builds only what it runs.

`catcx tensor` imports no domain module but `chain`, so no other type's
codec, and no `dataclasses`.  When the first argument names a subcommand,
`run` builds that subcommand's parser alone; every usage, help text and
error must come out as the full parser writes it.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import catcx
from catcx import cli

CODEC_MODULES = ("catcx.multicplx", "catcx.koszul", "catcx.perverse", "catcx.doldkan",
                 "catcx.laxmat", "catcx.simplex")


def test_tensor_call_loads_no_other_codec_and_no_dataclasses(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text('{"type":"chain_complex","lo":0,"hi":1,"dims":[1,2]}')
    code = ("import json, sys\n"
            "from catcx.cli import run\n"
            f"code = run(['tensor', {str(doc)!r}, {str(doc)!r}])\n"
            "sys.stderr.write(json.dumps([code, sorted(sys.modules)]))\n")
    env = dict(os.environ)
    paths = [str(Path(catcx.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    exit_code, modules = json.loads(proc.stderr)
    assert exit_code == 0 and json.loads(proc.stdout)["dims"] == [1, 4, 4]
    assert "dataclasses" not in modules
    assert [m for m in CODEC_MODULES if m in modules] == []


def test_full_parser_has_every_subcommand():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == [c[0] for c in cli._COMMANDS]
    assert len(sub.choices) == 22


def _outcome(argv, capsys):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["bogus"], ["tensor"], ["tensor", "--help"], ["tensor", "-h"],
    ["--strict", "tensor", "a", "b"], ["tensor", "a", "b"], ["tensor", "a", "b", "c"],
    ["tensor", "a", "b", "--bogus"], ["dk-gamma", "--level", "x", "f"],
    ["dk-gamma", "--help"], ["encode-sheaf", "--help"], ["k0-compose", "a", "b"],
    ["validate", "--pretty", "--strict"], ["--pretty"],
])
def test_one_subcommand_parser_writes_what_the_full_parser_writes(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(argv, capsys)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: full())
    assert got == _outcome(argv, capsys)
