"""A call that runs out of memory exits 2 with one `error:` line and an
empty stdout, like every other input the CLI cannot serve.  The handler is
made to raise, so the test allocates nothing large."""

import catcx.doldkan
from catcx.cli import run


def test_memory_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(catcx.doldkan, "gamma", exhausted)
    doc = tmp_path / "c.json"
    doc.write_text('{"type":"chain_complex","lo":0,"hi":1,"dims":[1,1]}')
    code = run(["dk-gamma", str(doc), "--level", "3"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"
