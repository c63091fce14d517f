"""Koszul inputs are sized before anything is built: too large exits 2,
and the largest accepted sizes run quickly."""

import json
from math import comb
import time

import pytest

from catcx.cli import run
from catcx.documents import DocumentError, parse_document


def koszul_doc(n: int) -> str:
    """n nonzero lambdas over Q."""
    lambdas = ",".join('["%d"]' % (i % 3 + 1) for i in range(n))
    return ('{"type":"koszul_complex","algebra":{"type":"fd_algebra","dim":1,'
            '"structure":[[["1"]]],"unit":["1"]},"lambdas":[%s]}' % lambdas)


def run_doc(tmp_path, capsys, text, command):
    f = tmp_path / "k.json"
    f.write_text(text, encoding="utf-8")
    code = run([command, str(f)])
    return code, *capsys.readouterr()


@pytest.mark.parametrize("command", ["koszul", "koszul-dual", "validate"])
def test_twelve_lambdas_over_q_exit_2(tmp_path, capsys, monkeypatch, command):
    # C(12, 6) = 924 basis vectors in degree 6, past the default cap of 512
    monkeypatch.delenv("CATCX_MAX_DIM", raising=False)
    code, out, err = run_doc(tmp_path, capsys, koszul_doc(12), command)
    assert code == 2
    assert out == ""
    assert err.startswith("error: $.lambdas: ") and "924" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cap_is_the_largest_degree(monkeypatch):
    # C(11, 5) * 1 = 462; the cap applies to that, not to the 2^11 total
    monkeypatch.setenv("CATCX_MAX_DIM", "462")
    assert len(parse_document(koszul_doc(11)).lambdas) == 11
    monkeypatch.setenv("CATCX_MAX_DIM", "461")
    with pytest.raises(DocumentError, match=r"^\$\.lambdas: .*exceeds CATCX_MAX_DIM=461"):
        parse_document(koszul_doc(11))


def test_ten_lambdas_over_q_run_quickly(tmp_path, capsys, monkeypatch):
    # the dense d.d check did not finish this in 60 s; the target is 1 s
    monkeypatch.delenv("CATCX_MAX_DIM", raising=False)
    start = time.perf_counter()
    code, out, err = run_doc(tmp_path, capsys, koszul_doc(10), "koszul")
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert json.loads(out)["dims"] == [comb(10, k) for k in range(11)]
    assert elapsed < 5, f"koszul of 10 lambdas took {elapsed:.2f} s"
