"""Cube documents name each subset of {1..n} once, and each axis in 1..n.

A `perv_cube` or `chain_cube` key outside the cube, or a second spelling
of a subset another key already named ("1" and "1,1"), used to be kept or
silently overwritten: dims {"": 1, "1": 1, "1,1": 2} at n = 1 was written
back as dims {"": 1, "1": 2}.  Each now fails at the key's `$.path`, and
through the command line exits 2 with an empty stdout.
"""

import json

import pytest

from catcx.cli import run
from catcx.documents import DocumentError, parse_document, serialize_document

ZERO = {"lo": 0, "hi": 0, "dims": [0]}
PERV = {"type": "perv_cube", "n": 1, "dims": {"": 1, "1": 1},
        "f": {"1": {"": [["0"]]}}, "g": {"1": {"": [["0"]]}}}
CHAIN = {"type": "chain_cube", "n": 1, "vertices": {"": ZERO, "1": ZERO},
         "edges": {"1": {"1": {}}}}


def with_table(base, field, table):
    return {**base, field: table}


CASES = [
    (with_table(PERV, "dims", {"": 1, "1": 1, "1,1": 2}),
     "$.dims.1,1: subset already named by key '1'"),
    (with_table(PERV, "dims", {"": 1, "1": 1, "5": 1}),
     "$.dims.5: subset has an element outside 1..1"),
    (with_table(PERV, "dims", {"0": 1, "": 1, "1": 1}),
     "$.dims.0: subset has an element outside 1..1"),
    (with_table(PERV, "f", {"1": {"": [["0"]]}, "3": {}}), "$.f: axis 3 out of range"),
    (with_table(PERV, "g", {"0": {}}), "$.g: axis 0 out of range"),
    (with_table(PERV, "g", {"1": {"": [["0"]], "2": [["0"]]}}),
     "$.g.1.2: subset has an element outside 1..1"),
    (with_table(PERV, "f", {"1": {"": [["0"]], ",": [["0"]]}}), "$.f.1: bad subset key ','"),
    (with_table(CHAIN, "vertices", {"": ZERO, "1": ZERO, "5": ZERO}),
     "$.vertices.5: subset has an element outside 1..1"),
    (with_table(CHAIN, "vertices", {"": ZERO, "1": ZERO, "1,1": ZERO}),
     "$.vertices.1,1: subset already named by key '1'"),
    (with_table(CHAIN, "edges", {"1": {"1": {}}, "7": {}}), "$.edges: axis 7 out of range"),
    (with_table(CHAIN, "edges", {"1": {"1": {}, "1,1": {}}}),
     "$.edges.1.1,1: subset already named by key '1'"),
]


@pytest.mark.parametrize("document, message", CASES, ids=[m for _, m in CASES])
def test_a_key_outside_the_cube_or_named_twice_is_rejected(document, message):
    with pytest.raises(DocumentError) as e:
        parse_document(json.dumps(document))
    assert str(e.value) == message


@pytest.mark.parametrize("document, field", [(PERV, "dims"), (CHAIN, "vertices")])
def test_a_cube_that_names_each_key_once_keeps_every_key(document, field):
    text = serialize_document(parse_document(json.dumps(document)))
    assert json.loads(text)[field].keys() == document[field].keys()
    assert serialize_document(parse_document(text)) == text


@pytest.mark.parametrize("document, message", [CASES[0], CASES[9]], ids=["twice", "outside"])
def test_the_command_line_exits_2(tmp_path, capsys, document, message):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(document))
    assert run(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
