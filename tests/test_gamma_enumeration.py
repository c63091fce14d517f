"""dk-gamma lists only the summands C_k with k <= C.hi: a summand over a
zero degree adds nothing, and listing every monotone surjection out of [n]
costs 2^n at level n.

On a two-term complex the output is pinned by its sha256 at levels 12 and
16, as the enumeration of all 2^n surjections wrote it, and level 20 (2^20
surjections before) runs in well under a second.
"""

import hashlib
import json

import pytest

from catcx.doldkan import _summands, gamma_summands
from test_derived_dims import run_capped

DOC = '{"type":"chain_complex","lo":0,"hi":1,"dims":[1,1],"differentials":{"1":[["1"]]}}'


@pytest.mark.parametrize("level, sha256", [
    (12, "ab8550538edc5e349859e562147ce0bbb74325b98a08bb08618ec6c57a03dcd3"),
    (16, "64035eda1f676972fc77c7e99b8b9af7e50c128c73ae2c69445008ff2ab96e83"),
])
def test_output_is_unchanged(tmp_path, level, sha256):
    doc = tmp_path / "c.json"
    doc.write_text(DOC)
    result, out, errors = run_capped("dk-gamma", str(doc), "--level", str(level))
    assert result["code"] == 0 and errors == []
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_level_20_is_fast(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text(DOC)
    result, out, errors = run_capped("dk-gamma", str(doc), "--level", "20")
    assert result["code"] == 0 and errors == []
    assert result["seconds"] < 1
    assert json.loads(out)["dims"] == [n + 1 for n in range(21)]


def test_the_summands_are_the_full_list_cut_at_top():
    for n in range(7):
        full = gamma_summands(n)
        assert len(full) == 2 ** n
        for top in range(n + 2):
            assert _summands(n, top) == [(k, eta) for k, eta in full if k <= top]
