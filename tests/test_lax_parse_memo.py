"""Parsing a `lax-compose` call's documents builds the cells' source tensor
products in the call's tensor memo, so checking the documents finds them
instead of building them again.

Counted on the golden `lax_left` / `lax_right` call, with `chain.tensor`
wrapped under every name it is bound to; the call's stdout stays the
golden bytes.
"""

from pathlib import Path

import catcx.chain
import catcx.laxmat
from catcx.chain import TensorMemo
from catcx.cli import run
from catcx.documents import parse_document

GOLDEN = Path(__file__).resolve().parent / "golden"


def counted_tensor(monkeypatch):
    calls = []
    real = catcx.chain.tensor

    def counted(A, B, *rest):
        calls.append((A.dims, B.dims))
        return real(A, B, *rest)

    monkeypatch.setattr(catcx.chain, "tensor", counted)
    monkeypatch.setattr(catcx.laxmat, "tensor", counted)
    return calls


def test_lax_compose_call_builds_at_most_27_tensors(monkeypatch, capsysbinary):
    calls = counted_tensor(monkeypatch)
    code = run(["lax-compose", str(GOLDEN / "inputs" / "lax_left.json"),
                str(GOLDEN / "inputs" / "lax_right.json")])
    assert code == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "expected" / "lax_compose.out").read_bytes()
    # 8 parsing the cells' sources, 2 more checking the documents, the rest composing
    assert 0 < len(calls) <= 27


def test_parsed_cell_sources_are_the_memos_tensors(monkeypatch):
    text = (GOLDEN / "inputs" / "lax_left.json").read_text()
    memo = TensorMemo()
    D = parse_document(text, memo=memo)
    assert D.cell_f0.source is memo.tensor(D.g_tgt, D.entry(0, 0))
    assert D.cell_0f.source is memo.tensor(D.entry(0, 1), D.g_src)
    assert D.cell_f1.source is memo.tensor(D.g_tgt, D.entry(0, 1))
    assert D.cell_1f.source is memo.tensor(D.entry(1, 1), D.g_src)
    calls = counted_tensor(monkeypatch)
    assert parse_document(text) == D    # without a memo, the same document
    assert len(calls) == 4
