"""Parsing a Delta^1 chain matrix builds each cell's source tensor product
once, with plain `chain.tensor`: the parser keeps no tensor memo.  The
sharing of tensor products between a `lax-compose` call's checks and its
composition is pinned by `tests/test_lax_cli_tensors.py`.

Counted on the golden `lax_left` document, with `chain.tensor` wrapped
under every name it is bound to.
"""

from pathlib import Path

import catcx.chain
import catcx.laxmat
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


def test_parsing_builds_each_cell_source_once(monkeypatch):
    text = (GOLDEN / "inputs" / "lax_left.json").read_text()
    calls = counted_tensor(monkeypatch)
    D = parse_document(text)
    assert len(calls) == 4
    tensor = catcx.chain.tensor
    assert D.cell_f0.source == tensor(D.g_tgt, D.entry(0, 0))
    assert D.cell_0f.source == tensor(D.entry(0, 1), D.g_src)
    assert D.cell_f1.source == tensor(D.g_tgt, D.entry(0, 1))
    assert D.cell_1f.source == tensor(D.entry(1, 1), D.g_src)
