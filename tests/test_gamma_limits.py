"""dk-gamma sizes its top level from the declared dimensions before
building: dim Gamma(C)_n = sum_k C(n, k) dim C_k, which grows with n, so a
top level past CATCX_MAX_DIM exits 2.

The oversized calls run in a child whose address space is capped (see
`test_derived_dims.py`), so a regression that builds them fails on memory
at once instead of taking the machine's memory.
"""

import random

import pytest

from catcx.doldkan import gamma
from helpers import small_complex
from test_derived_dims import run_capped

DOC = '{"type":"chain_complex","lo":0,"hi":3,"dims":[4,5,5,4]}'


@pytest.mark.parametrize("level, dim", [
    (40, 43624), (1000000000, 666666667166666670500000004)])
def test_a_large_level_exits_2_fast(tmp_path, level, dim):
    doc = tmp_path / "c.json"
    doc.write_text(DOC)
    result, out, errors = run_capped("dk-gamma", str(doc), "--level", str(level))
    assert result["code"] == 2
    assert result["seconds"] < 1
    assert out == ""
    assert errors == [f"error: $: the result has dimension {dim} in degree {level}, "
                      "which exceeds CATCX_MAX_DIM=512"]


def test_the_cap_bounds_the_top_level(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text(DOC)
    # level 4: 4 + 5 * 4 + 5 * 6 + 4 * 4 = 70
    result, out, _ = run_capped("dk-gamma", str(doc), "--level", "4",
                                env_extra={"CATCX_MAX_DIM": "70"})
    assert result["code"] == 0 and out.startswith('{"N":4,')
    result, out, errors = run_capped("dk-gamma", str(doc), "--level", "4",
                                     env_extra={"CATCX_MAX_DIM": "69"})
    assert result["code"] == 2 and out == ""
    assert errors == ["error: $: the result has dimension 70 in degree 4, "
                      "which exceeds CATCX_MAX_DIM=69"]


def test_an_astronomical_level_is_reported_without_its_digits(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text(DOC)
    level = 10 ** 40
    result, out, errors = run_capped("dk-gamma", str(doc), "--level", str(level))
    assert result["code"] == 2 and out == ""
    assert errors == [f"error: $: the result has dimension over 10^100 in degree {level}, "
                      "which exceeds CATCX_MAX_DIM=512"]


def test_the_closed_form_matches_the_built_levels():
    from math import comb
    rng = random.Random(8)
    for _ in range(20):
        C = small_complex(rng, max_len=3, max_dim=3, lo_range=(0, 1))
        built = gamma(C, 4)
        for n in range(5):
            assert built.dims[n] == sum(comb(n, k) * C.dim(k) for k in C.degrees())
