"""Command-line mutation fuzz over the golden inputs.

Each golden case is run with its first input file mutated at one path:
the value dropped, or replaced by null, "x", [], 9 or 10**6.  Every path
into objects is mutated; into a list, only its first and last elements.
Every call must return 0, 1 or 2 without raising, and write nothing to
stdout when it returns 2.

All calls run in one child process whose address space is capped, with
CATCX_MAX_DIM=8, so that a size that escapes every check fails at once
instead of taking the machine's memory.  The mutations are a fixed,
seeded sample of all of them, sized to a few seconds.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

import catcx
from test_derived_dims import _cap_memory

SAMPLE = 1500
GOLDEN = Path(__file__).resolve().parent / "golden"

CHILD = r"""
import contextlib, io, json, random, sys, tempfile, traceback
from pathlib import Path
from catcx.cli import run

golden, sample = Path(sys.argv[1]), int(sys.argv[2])
DROP = object()
VALUES = (DROP, None, "x", [], 9, 10 ** 6)


def paths(x, at=()):
    # every key of an object; the first and last element of a list
    keys = (list(x) if isinstance(x, dict)
            else sorted({0, len(x) - 1}) if isinstance(x, list) and x else [])
    for k in keys:
        yield at + (k,)
        yield from paths(x[k], at + (k,))


def mutated(doc, path, value):
    out = json.loads(json.dumps(doc))
    node = out
    for k in path[:-1]:
        node = node[k]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


jobs = []
for case in json.loads((golden / "cases.json").read_text()):
    argv = case["argv"]
    first = next(i for i, a in enumerate(argv) if a.startswith("inputs/"))
    try:
        doc = json.loads((golden / argv[first]).read_text())
    except ValueError:
        continue  # the malformed-JSON case has no paths
    for path in paths(doc):
        for value in VALUES:
            jobs.append((case["name"], argv, first, doc, path, value))
jobs = random.Random(0).sample(jobs, min(sample, len(jobs)))

failures = []
with tempfile.TemporaryDirectory() as tmp:
    mutant = Path(tmp) / "mutant.json"
    for name, argv, first, doc, path, value in jobs:
        mutant.write_text(json.dumps(mutated(doc, path, value)))
        args = [str(mutant) if i == first else str(golden / a) if a.startswith("inputs/")
                else a for i, a in enumerate(argv)]
        out, err = io.StringIO(), io.StringIO()
        what = f"{name} at {list(path)} <- {'drop' if value is DROP else repr(value)}"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(args)
        except Exception:
            failures.append(f"{what}: {traceback.format_exc().splitlines()[-1]}")
            continue
        if code not in (0, 1, 2) or (code == 2 and out.getvalue()):
            failures.append(f"{what}: exit {code}, stdout {out.getvalue()[:80]!r}")
print(json.dumps({"cases": len(jobs), "failures": failures[:20]}))
"""


def test_mutated_golden_inputs_exit_0_1_or_2_without_raising():
    env = dict(os.environ, CATCX_MAX_DIM="8")
    paths = [str(Path(catcx.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(GOLDEN), str(SAMPLE)],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=_cap_memory)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["cases"] == SAMPLE
    assert result["failures"] == []
