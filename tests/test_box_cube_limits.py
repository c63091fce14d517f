"""Multicomplex boxes and cubes are sized from their declared bounds before
anything is built: a support box holding more than CATCX_MAX_DIM
multidegrees exits 2 at `$.support`, a `perv_cube` whose 2^n vertices
exceed it exits 2 at `$.n`, and `embed-cube` on a flag of n + 1 spaces
exits 2 at `$.dims` when 2^n does.  A size exactly at the cap is accepted.

The calls run in a child whose address space is capped (see
`test_derived_dims.py`), so a regression that builds the box or the cube
fails on memory at once instead of taking the machine's memory.
"""

import json

import pytest

from test_derived_dims import run_capped

LOW = {"CATCX_MAX_DIM": "8"}


def box(hi) -> str:
    return json.dumps({"type": "multicomplex", "n": len(hi),
                       "support": {"lo": [0] * len(hi), "hi": hi}, "dims": {}})


def cube(n: int) -> str:
    return json.dumps({"type": "perv_cube", "n": n, "dims": {}, "f": {}, "g": {}})


def flag(n: int) -> str:
    zero = [["0"]]
    return json.dumps({"type": "perv_flag", "dims": [1] * (n + 1),
                       "d": [zero] * n, "delta": [zero] * n})


def call(tmp_path, command: str, text: str, env=None):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    return run_capped(command, str(doc), env_extra=env)


def rejected(tmp_path, command, text, message, env=None):
    result, out, errors = call(tmp_path, command, text, env)
    assert result["code"] == 2
    assert result["seconds"] < 1
    assert out == ""
    assert errors == [f"error: {message}"]


@pytest.mark.parametrize("hi, env, cap", [
    ([30, 30, 30], None, 512), ([8, 7, 7], None, 512),
    ([10 ** 1000] * 3, None, 512), ([2, 2], LOW, 8), ([1, 1, 1, 1], LOW, 8)])
def test_a_box_past_the_cap_exits_2(tmp_path, hi, env, cap):
    rejected(tmp_path, "validate", box(hi),
             f"$.support: the support box holds more than CATCX_MAX_DIM={cap} multidegrees",
             env)


@pytest.mark.parametrize("hi, env", [([7, 7, 7], None), ([511], None), ([1, 1, 1], LOW)])
def test_a_box_at_the_cap_is_accepted(tmp_path, hi, env):
    result, out, _ = call(tmp_path, "validate", box(hi), env)
    assert result["code"] == 0 and json.loads(out)["valid"]


@pytest.mark.parametrize("n, env, cap, shown", [
    (14, None, 512, 14), (10, None, 512, 10), (10 ** 200, None, 512, "over 10^100"),
    (4, LOW, 8, 4)])
def test_a_cube_past_the_cap_exits_2(tmp_path, n, env, cap, shown):
    rejected(tmp_path, "validate", cube(n),
             f"$.n: the n-cube for n = {shown} has 2^n vertices, more than "
             f"CATCX_MAX_DIM={cap}", env)


@pytest.mark.parametrize("n, env", [(9, None), (3, LOW)])
def test_a_cube_at_the_cap_is_accepted(tmp_path, n, env):
    # no maps: parsed, then reported invalid (exit 1), one problem per edge
    result, out, _ = call(tmp_path, "validate", cube(n), env)
    assert result["code"] == 1
    assert len(json.loads(out)["problems"]) == n * 2 ** (n - 1)


@pytest.mark.parametrize("n, env, cap", [(14, None, 512), (10, None, 512), (4, LOW, 8)])
def test_embedding_a_long_flag_past_the_cap_exits_2(tmp_path, n, env, cap):
    rejected(tmp_path, "embed-cube", flag(n),
             f"$.dims: the n-cube for n = {n} has 2^n vertices, more than "
             f"CATCX_MAX_DIM={cap}", env)


@pytest.mark.parametrize("n, env", [(9, None), (3, LOW)])
def test_embedding_a_flag_at_the_cap_is_accepted(tmp_path, n, env):
    result, out, _ = call(tmp_path, "embed-cube", flag(n), env)
    assert result["code"] == 0
    embedded = json.loads(out)
    assert embedded["type"] == "perv_cube" and embedded["n"] == n
    assert len(embedded["dims"]) == 2 ** n
