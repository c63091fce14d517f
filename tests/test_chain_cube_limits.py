"""A `chain_cube` is sized from its declared n before any vertex is read:
a negative n exits 2 at `$.n`, and so does an n whose 2^n vertices exceed
CATCX_MAX_DIM, with the message a `perv_cube` gets.  n = 0 and a cube at
the cap are accepted.

The calls run in a child whose address space is capped (see
`test_derived_dims.py`): before the cap, a 53-byte cube of n = 40 ran out
of memory while listing its vertices.
"""

import json

import pytest

from test_derived_dims import run_capped

LOW = {"CATCX_MAX_DIM": "8"}
ZERO = {"lo": 0, "hi": 0, "dims": [0]}


def cube(n: int, vertices=None, edges=None) -> str:
    return json.dumps({"type": "chain_cube", "n": n, "vertices": vertices or {},
                       "edges": edges or {}})


def zero_cube(n: int) -> str:
    """The n-cube of zero complexes, every vertex and edge present."""
    subsets = {",".join(str(i + 1) for i in range(n) if bits >> i & 1): bits
               for bits in range(2 ** n)}
    return cube(n, {key: ZERO for key in subsets},
                {str(i + 1): {key: {} for key, bits in subsets.items() if bits >> i & 1}
                 for i in range(n)})


def call(tmp_path, text: str, env=None):
    doc = tmp_path / "cube.json"
    doc.write_text(text)
    return run_capped("validate", str(doc), env_extra=env)


@pytest.mark.parametrize("n, env, message", [
    (-1, None, "n must be nonnegative"),
    (-1, LOW, "n must be nonnegative"),
    (40, None, "the n-cube for n = 40 has 2^n vertices, more than CATCX_MAX_DIM=512"),
    (10, None, "the n-cube for n = 10 has 2^n vertices, more than CATCX_MAX_DIM=512"),
    (10 ** 200, None,
     "the n-cube for n = over 10^100 has 2^n vertices, more than CATCX_MAX_DIM=512"),
    (4, LOW, "the n-cube for n = 4 has 2^n vertices, more than CATCX_MAX_DIM=8")],
    ids=["-1", "-1-low", "40", "10", "10^200", "4-low"])
def test_a_cube_with_a_bad_n_exits_2(tmp_path, n, env, message):
    result, out, errors = call(tmp_path, cube(n), env)
    assert result["code"] == 2
    assert result["seconds"] < 1
    assert out == ""
    assert errors == [f"error: $.n: {message}"]


@pytest.mark.parametrize("n, env", [(0, None), (0, LOW), (9, None), (3, LOW)])
def test_a_cube_up_to_the_cap_is_accepted(tmp_path, n, env):
    result, out, _ = call(tmp_path, zero_cube(n), env)
    assert result["code"] == 0
    assert json.loads(out) == {"type": "report", "doc_type": "chain_cube",
                               "valid": True, "problems": []}
