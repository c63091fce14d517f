"""Hostile inputs end in exit code 2 with one `error:` line, never a traceback."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

import catcx
from catcx.cli import run
from catcx.documents import MAX_RATIONAL_DIGITS, DocumentError, parse_document


def _complex_with_entry(entry: str) -> str:
    return ('{"type":"chain_complex","lo":0,"hi":1,"dims":[1,1],'
            '"differentials":{"1":[["%s"]]}}' % entry)


def _run_file(tmp_path, capsys, text, *argv):
    f = tmp_path / "doc.json"
    f.write_text(text, encoding="utf-8")
    code = run([*argv, str(f)])
    return code, *capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "homology"])
@pytest.mark.parametrize("entry", [
    "1e400000",                                   # 90-byte document, 400001-digit numerator
    "1e-400000",                                  # the same size in the denominator
    "1e" + "9" * 40,                              # exponent too long to even evaluate
    "0." + "0" * (MAX_RATIONAL_DIGITS - 1) + "1", # denominator 10**4300
])
def test_oversized_rationals_exit_2(tmp_path, capsys, command, entry):
    code, out, err = _run_file(tmp_path, capsys, _complex_with_entry(entry), command)
    assert code == 2
    assert out == ""
    assert err.startswith("error: $.differentials.1[0][0]: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_rationals_at_the_digit_cap_still_parse(tmp_path, capsys):
    big = "9" * MAX_RATIONAL_DIGITS
    for entry in (f"{big}/7", f"-7/{big}"):
        code, out, _ = _run_file(tmp_path, capsys, _complex_with_entry(entry), "homology")
        assert code == 0 and out == '{"dims":{"0":0,"1":0},"type":"homology"}\n'
    doc = parse_document(_complex_with_entry("2e3"))
    assert doc.d(1)[0, 0] == 2000
    with pytest.raises(DocumentError, match="non-canonical"):
        parse_document(_complex_with_entry("2e3"), strict=True)


@pytest.mark.parametrize("text", [
    "[" * 200000,
    '{"type":"report","x":' + "[" * 200000 + "]" * 200000 + "}",
])
def test_deep_nesting_exits_2(tmp_path, capsys, text):
    code, out, err = _run_file(tmp_path, capsys, text, "validate")
    assert code == 2
    assert out == ""
    assert err == "error: $: document nested too deeply\n"


def test_huge_integer_literal_exits_2(tmp_path, capsys):
    text = '{"type":"matrix","entries":[[%s]]}' % ("1" * 5000)
    code, out, err = _run_file(tmp_path, capsys, text, "validate")
    assert code == 2 and out == ""
    assert err.startswith("error: $: invalid JSON")


def test_python_dash_m(tmp_path):
    good = tmp_path / "m.json"
    good.write_text('{"type":"matrix","entries":[["1/2"]]}', encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(catcx.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def catcx_m(*argv):
        return subprocess.run([sys.executable, "-m", "catcx", *argv],
                              capture_output=True, text=True, env=env)

    proc = catcx_m("validate", str(good))
    assert proc.returncode == 0
    assert parse_document(proc.stdout)["valid"] is True
    proc = catcx_m("validate", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error:")
