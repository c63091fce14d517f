"""cone, cof, fib and cc2 size their result before building it, as tensor,
hom-complex and totalize do.

cone(f)_k = A_{k-1} + B_k (`chain.sum_cone_dims`, which `sum_cone` also
sizes itself with); fib names the cone's degrees shifted down by one; and
cc2's total is T_k = (Y01)_{k-2} + (Y02)_{k-1} + (Y12)_k (`simplex.cc2_dims`).
A degree past CATCX_MAX_DIM exits 2 before anything is built.
"""

import json
import random

import pytest

from catcx.chain import cone_complex, sum_cone_dims
from catcx.laxmat import cof_action, fib
from catcx.simplex import cc2, cc2_dims
from helpers import random_chain_map, random_complex
from test_derived_dims import run_capped


def chain_map_doc(path, hi, dims):
    """A chain map with no components between two complexes of the given dims."""
    cx = {"type": "chain_complex", "lo": 0, "hi": hi, "dims": dims}
    path.write_text(json.dumps({"type": "chain_map", "source": cx, "target": cx,
                                "components": {}}))
    return str(path)


@pytest.mark.parametrize("hi", [3, 15])
@pytest.mark.parametrize("command, dim, degree", [
    ("cone", 1024, 1), ("cof", 1024, 1), ("fib", 1024, 0), ("cc2", 1536, 1)])
def test_a_wide_cone_exits_2_fast(tmp_path, hi, command, dim, degree):
    # dims 512 in degrees 0..hi: 2 KB for hi = 3
    doc = chain_map_doc(tmp_path / "f.json", hi, [512] * (hi + 1))
    files = (doc, doc) if command == "cc2" else (doc,)
    result, out, errors = run_capped(command, *files)
    assert result["code"] == 2
    assert result["seconds"] < 1
    assert out == ""
    assert errors == [f"error: $: the result has dimension {dim} in degree {degree}, "
                      "which exceeds CATCX_MAX_DIM=512"]


# A: dims [3, 4] in degrees 0..1; cone(0: A -> A) has dims [3, 7, 4], and
# cc2 of that map with itself [3, 10, 14, 11, 4]
@pytest.mark.parametrize("command, dims, degree", [
    ("cone", [3, 7, 4], 1), ("cof", [3, 7, 4], 1), ("fib", [3, 7, 4], 0),
    ("cc2", [3, 10, 14, 11, 4], 2)])
def test_the_cap_just_above_and_just_below_the_result(tmp_path, command, dims, degree):
    doc = chain_map_doc(tmp_path / "f.json", 1, [3, 4])
    files = (doc, doc) if command == "cc2" else (doc,)
    top = max(dims)
    result, out, errors = run_capped(command, *files, env_extra={"CATCX_MAX_DIM": str(top)})
    assert result["code"] == 0 and errors == []
    written = json.loads(out)
    assert (written["target"] if command == "cof" else
            written["source"] if command == "fib" else written)["dims"] == dims
    result, out, errors = run_capped(command, *files,
                                     env_extra={"CATCX_MAX_DIM": str(top - 1)})
    assert result["code"] == 2 and out == ""
    assert errors == [f"error: $: the result has dimension {top} in degree {degree}, "
                      f"which exceeds CATCX_MAX_DIM={top - 1}"]


def test_sizes_match_the_built_complexes():
    rng = random.Random(19)
    for _ in range(30):
        X0, X1, X2 = (random_complex(rng, max_len=3, max_dim=3)[0] for _ in range(3))
        u, v = random_chain_map(rng, X0, X1), random_chain_map(rng, X1, X2)
        C = cone_complex(u)
        assert sum_cone_dims(X0, X1) == {k: C.dim(k) for k in C.degrees()}
        assert cof_action(u).target == C
        F = fib(u)[0]
        assert {k - 1: n for k, n in sum_cone_dims(X0, X1).items()} == {
            k: F.dim(k) for k in F.degrees()}
        T = cc2(u, v).total
        assert cc2_dims(u, v) == {k: T.dim(k) for k in T.degrees()}
