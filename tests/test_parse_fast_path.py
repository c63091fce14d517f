"""Matrix cells that are canonical integers skip Fraction; every other
spelling still goes through parse_rational, with the same warnings."""

import json

from hypothesis import given, settings, strategies as st
import pytest

from catcx.documents import DocumentError, parse_document, parse_rational
from catcx.exactlin import Matrix

SPELLINGS = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["0", "-0", "+5", " 5", "5 ", "007", "1_000", "٣", "2e3",
                     "4/6", "-1/2", "1.5", "9" * 4300, "9" * 4301]),
)


def reference(cells, strict):
    warnings = []
    values = [parse_rational(c, strict, warnings.append, f"$.entries[0][{j}]")
              for j, c in enumerate(cells)]
    return Matrix(1, len(values), values), warnings


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(SPELLINGS, min_size=1, max_size=6), strict=st.booleans())
def test_matrix_cells_parse_as_parse_rational_does(cells, strict):
    text = json.dumps({"type": "matrix", "entries": [cells]})
    try:
        want = reference(cells, strict)
    except DocumentError as e:
        with pytest.raises(DocumentError) as got:
            parse_document(text, strict=strict, warn=lambda msg: None)
        assert str(got.value) == str(e)
        return
    warnings = []
    m = parse_document(text, strict=strict, warn=warnings.append)
    assert (m, warnings) == want
