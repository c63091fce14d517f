"""The documents catcx writes without a library type (report, homology,
monodromy, koszul_duality) are named by their own "type" in CLI errors."""

import json

import pytest

from catcx.cli import run

COMPLEX = '{"type":"chain_complex","lo":0,"hi":1,"dims":[1,1],"differentials":{"1":[["1"]]}}'


def call(capsys, *argv):
    code = run(list(argv))
    return code, *capsys.readouterr()


def test_homology_output_piped_back_is_named(tmp_path, capsys):
    src = tmp_path / "c.json"
    src.write_text(COMPLEX)
    out_file = tmp_path / "h.json"
    assert call(capsys, "homology", str(src), "--output", str(out_file))[0] == 0
    assert json.loads(out_file.read_text())["type"] == "homology"
    code, out, err = call(capsys, "homology", str(out_file))
    assert (code, out) == (2, "")
    assert err == "error: $: expected a chain_complex document, found homology\n"
    code, out, err = call(capsys, "validate", str(out_file))
    assert (code, out) == (2, "")
    assert err == "error: $: validate does not support homology documents\n"


@pytest.mark.parametrize("tag", ["report", "monodromy", "koszul_duality"])
def test_every_passthrough_type_is_named(tmp_path, capsys, tag):
    doc = tmp_path / "d.json"
    doc.write_text(json.dumps({"type": tag}))
    assert call(capsys, "cone", str(doc))[2] == \
        f"error: $: expected a chain_map document, found {tag}\n"
    assert call(capsys, "validate", str(doc))[2] == \
        f"error: $: validate does not support {tag} documents\n"
