"""A `lax-compose` call builds each tensor product its checks need once:
validating the two documents and composing them share one tensor memo.

Counted on the golden `lax_left` / `lax_right` call, with `chain.tensor`
wrapped under every name it is bound to; the call's stdout stays the
golden bytes.
"""

from pathlib import Path

import catcx.chain
import catcx.laxmat
from catcx.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_lax_compose_call_builds_at_most_35_tensors(monkeypatch, capsysbinary):
    calls = []
    real = catcx.chain.tensor

    def counted(A, B, *rest):
        calls.append((A.dims, B.dims))
        return real(A, B, *rest)

    monkeypatch.setattr(catcx.chain, "tensor", counted)
    monkeypatch.setattr(catcx.laxmat, "tensor", counted)
    code = run(["lax-compose", str(GOLDEN / "inputs" / "lax_left.json"),
                str(GOLDEN / "inputs" / "lax_right.json")])
    assert code == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "expected" / "lax_compose.out").read_bytes()
    # 8 parsing the cells' endpoints, 10 checking the documents, the rest composing
    assert 0 < len(calls) <= 35
