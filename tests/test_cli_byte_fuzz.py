"""Command-line byte-level mutation fuzz over the golden inputs.

Each golden case is run with its first input file mutated as bytes: one
byte replaced, the tail cut off, one byte inserted, or 1 to 7 bytes
deleted, so most mutants are not JSON and many are not UTF-8.  Every call
must return 0, 1 or 2 without raising.  On 2 it writes nothing to stdout
and exactly one `error:` line to stderr; on 1 it writes a report document.

All calls run in one child process whose address space is capped, with
CATCX_MAX_DIM=8, as in `test_cli_fuzz.py`.  The mutations are a fixed,
seeded sample, the same number for each case.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

import catcx
from test_derived_dims import _cap_memory

SAMPLE = 1000
GOLDEN = Path(__file__).resolve().parent / "golden"

CHILD = r"""
import contextlib, io, json, random, sys, tempfile, traceback
from pathlib import Path
from catcx.cli import run

golden, sample = Path(sys.argv[1]), int(sys.argv[2])
cases = json.loads((golden / "cases.json").read_text())
rng = random.Random(31)


def mutated(data):
    at = rng.randrange(len(data) + 1)
    kind = rng.randrange(4)
    if kind == 0 and at < len(data):
        return "replace", data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
    if kind == 1:
        return "cut", data[:at]
    if kind == 2:
        return "insert", data[:at] + bytes([rng.randrange(256)]) + data[at:]
    return "delete", data[:at] + data[at + rng.randint(1, 7):]


failures, calls = [], 0
with tempfile.TemporaryDirectory() as tmp:
    mutant = Path(tmp) / "mutant.json"
    for case in cases:
        argv = case["argv"]
        first = next(i for i, a in enumerate(argv) if a.startswith("inputs/"))
        data = (golden / argv[first]).read_bytes()
        args = [str(mutant) if i == first else str(golden / a) if a.startswith("inputs/")
                else a for i, a in enumerate(argv)]
        for _ in range(-(-sample // len(cases))):
            kind, text = mutated(data)
            mutant.write_bytes(text)
            out, err = io.StringIO(), io.StringIO()
            what = f"{case['name']} {kind} {text[-40:]!r}"
            calls += 1
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(args)
            except Exception:
                failures.append(f"{what}: {traceback.format_exc().splitlines()[-1]}")
                continue
            out, err = out.getvalue(), err.getvalue().splitlines()
            errors = [line for line in err if line.startswith("error: ")]
            if code == 2:
                ok = out == "" and len(errors) == 1
            elif code == 1:
                ok = json.loads(out)["type"] == "report" and errors == []
            else:
                ok = code == 0 and errors == []
            if not ok:
                failures.append(f"{what}: exit {code}, stdout {out[:80]!r}, stderr {err[-2:]}")
print(json.dumps({"calls": calls, "failures": failures[:20]}))
"""


def test_byte_mutated_golden_inputs_keep_the_exit_code_contract():
    env = dict(os.environ, CATCX_MAX_DIM="8")
    paths = [str(Path(catcx.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(GOLDEN), str(SAMPLE)],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=_cap_memory)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["calls"] >= SAMPLE
    assert result["failures"] == []
