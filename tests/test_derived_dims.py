"""tensor and hom-complex size their result from the declared dimensions
before building anything: a degree past CATCX_MAX_DIM exits 2.

Every call here runs in a child process whose address space is capped, so
a regression that builds the 1024 x 262146 differential fails on memory at
once instead of taking the machine's memory.
"""

import json
import os
from pathlib import Path
import resource
import subprocess
import sys

import pytest

import catcx
from catcx.chain import hom_complex, hom_dims, tensor, tensor_dims
from helpers import small_complex

ADDRESS_SPACE = 1 << 30
CHILD = """
import json, sys, time
from catcx.cli import run
t0 = time.perf_counter()
code = run(sys.argv[1:])
sys.stderr.write(json.dumps({"code": code, "seconds": time.perf_counter() - t0}) + "\\n")
"""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_capped(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("CATCX_MAX_DIM", None)
    env.update(env_extra or {})
    paths = [str(Path(catcx.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, env=env, timeout=60, preexec_fn=_cap_memory)
    *errors, result = proc.stderr.splitlines()
    return json.loads(result), proc.stdout, errors


@pytest.mark.parametrize("command, degree", [("tensor", 1), ("hom-complex", -1)])
def test_wide_middle_degree_exits_2_fast(tmp_path, command, degree):
    # 60 bytes: (C (x) C)_1 and Map(C, C)_-1 are both 512 + 512 = 1024-dimensional
    doc = tmp_path / "c.json"
    doc.write_text('{"type":"chain_complex","lo":0,"hi":2,"dims":[1,512,1]}')
    result, out, errors = run_capped(command, str(doc), str(doc))
    assert result["code"] == 2
    assert result["seconds"] < 1
    assert out == ""
    assert errors == [f"error: $: the result has dimension 1024 in degree {degree}, "
                      "which exceeds CATCX_MAX_DIM=512"]


def test_a_raised_cap_admits_the_same_call(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text('{"type":"chain_complex","lo":0,"hi":1,"dims":[3,4]}')
    small = {"CATCX_MAX_DIM": "24"}
    result, out, _ = run_capped("tensor", str(doc), str(doc), env_extra=small)
    assert result["code"] == 0 and json.loads(out)["dims"] == [9, 24, 16]
    result, out, errors = run_capped("tensor", str(doc), str(doc),
                                     env_extra={"CATCX_MAX_DIM": "23"})
    assert result["code"] == 2 and out == "" and "dimension 24 in degree 1" in errors[0]


def test_sizes_match_the_built_complexes():
    import random
    rng = random.Random(5)
    for _ in range(30):
        A, B = small_complex(rng, max_len=3, max_dim=3), small_complex(rng, max_len=3, max_dim=3)
        T, H = tensor(A, B), hom_complex(A, B)
        assert tensor_dims(A, B) == {k: T.dim(k) for k in T.degrees()}
        assert hom_dims(A, B) == {k: H.dim(k) for k in H.degrees()}
