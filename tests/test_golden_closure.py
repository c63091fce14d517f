"""The golden corpus is closed under the document layer: every exit-0
output that is a library document reads back as a valid document, and
writing it again gives its own bytes, compact and with --pretty.

Outputs with a passthrough type (report, homology, monodromy,
koszul_duality) have no library type, so they are skipped.
"""

import json

import pytest

from catcx.cli import run
from catcx.documents import _PASSTHROUGH_TYPES, parse_document, problems_of, serialize_document
from test_golden import CASES, _argv, _expected_path

LIBRARY = [c for c in CASES if c["exit"] == 0 and json.loads(
    _expected_path(c).read_bytes())["type"] not in _PASSTHROUGH_TYPES]


def test_the_corpus_has_19_library_outputs():
    assert len(LIBRARY) == 19
    assert sum(c["exit"] == 0 for c in CASES) - len(LIBRARY) == 6


@pytest.mark.parametrize("case", LIBRARY, ids=[c["name"] for c in LIBRARY])
def test_golden_output_reads_back_valid_and_writes_its_own_bytes(case, capsysbinary):
    compact = _expected_path(case).read_bytes()
    assert run(_argv(case) + ["--pretty"]) == 0
    pretty = capsysbinary.readouterr().out
    for text, is_pretty in ((compact, False), (pretty, True)):
        obj = parse_document(text.decode("utf-8"), strict=True)
        assert problems_of(obj) == []
        assert serialize_document(obj, pretty=is_pretty).encode("utf-8") == text
