"""A matrix row of canonical integers is parsed in one pass; any other row
cell by cell, with the same values, warnings, errors and paths as before."""

import json
import sys

from hypothesis import given, settings, strategies as st
import pytest

from catcx.documents import (MAX_RATIONAL_DIGITS, DocumentError, _canonical_int,
                             parse_document, parse_rational)
from catcx.exactlin import Matrix

CELLS = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["0", "-0", "007", " 1", "1 ", "+1", "1_0", "٣", "１２", "²",
                     "-", "", "2e3", "4/6", "-1/2", "1.5", "9" * MAX_RATIONAL_DIGITS,
                     "-" + "9" * MAX_RATIONAL_DIGITS, "9" * (MAX_RATIONAL_DIGITS + 1)]),
    st.integers(-10**20, 10**20),    # JSON numbers
    st.booleans(), st.none(), st.just(1.5), st.just([]),
)


def per_cell(rows, strict):
    """The matrix, warnings and error of the cell-by-cell path."""
    warnings = []
    try:
        ent = []
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                n = _canonical_int(cell) if type(cell) is str else None
                ent.append(n if n is not None else
                           parse_rational(cell, strict, warnings.append, f"$.entries[{i}][{j}]"))
    except DocumentError as e:
        return None, warnings, str(e)
    return Matrix(len(rows), len(rows[0]) if rows else 0, ent), warnings, None


def parsed(rows, strict):
    warnings = []
    try:
        m = parse_document(json.dumps({"type": "matrix", "entries": rows}), strict=strict,
                           warn=warnings.append)
    except DocumentError as e:
        return None, warnings, str(e)
    return m, warnings, None


@settings(max_examples=300, deadline=None)
@given(width=st.integers(0, 4), data=st.data(), strict=st.booleans())
def test_mixed_rows_parse_as_cell_by_cell(width, data, strict):
    canonical = st.integers(-10**6, 10**6).map(str)
    rows = data.draw(st.lists(st.lists(st.one_of(canonical, CELLS), min_size=width,
                                       max_size=width), max_size=4))
    got, want = parsed(rows, strict), per_cell(rows, strict)
    assert got[1:] == want[1:]
    assert got[0] == want[0]
    if got[0] is not None:
        assert got[0]._d == want[0]._d and got[0]._e == want[0]._e


def test_digit_cap_holds_without_the_int_str_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        long = "9" * (MAX_RATIONAL_DIGITS + 1)
        with pytest.raises(DocumentError) as e:
            parsed_doc = {"type": "matrix", "entries": [["1", "2"], ["3", long]]}
            parse_document(json.dumps(parsed_doc))
        assert str(e.value) == f"$.entries[1][1]: rational exceeds {MAX_RATIONAL_DIGITS} digits"
        at_cap = "-" + "9" * MAX_RATIONAL_DIGITS
        m = parse_document(json.dumps({"type": "matrix", "entries": [["1", at_cap]]}))
        assert m._e == (1, -(10 ** MAX_RATIONAL_DIGITS - 1))
    finally:
        sys.set_int_max_str_digits(old)
