"""A matrix whose every row took the canonical-integer fast path is built
without a second scan of its entries; any other matrix still goes through
the coercing constructor.  Both give the entries and common denominator
the cell-by-cell path gives."""

import json

from hypothesis import given, settings, strategies as st
import pytest

from catcx.documents import parse_document
from catcx.exactlin import Matrix
from test_parse_rows import per_cell

canonical = st.integers(-10**40, 10**40).map(str)
other = st.one_of(st.sampled_from(["1/2", "-3/4", "007", "-0", "6/4"]),
                  st.integers(-10**6, 10**6))    # JSON numbers


def coercing_calls(rows):
    """The parsed matrix, and how many times `Matrix.__init__` ran."""
    calls = []
    init = Matrix.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "__init__", counted)
        m = parse_document(json.dumps({"type": "matrix", "entries": rows}))
    return m, len(calls)


def canonical_cell(cell):
    return type(cell) is str and cell.lstrip("-").isdigit() and str(int(cell)) == cell


@settings(max_examples=200, deadline=None)
@given(width=st.integers(0, 4), data=st.data())
def test_fast_rows_and_mixed_rows_give_the_cell_by_cell_matrix(width, data):
    fast = data.draw(st.lists(st.lists(canonical, min_size=width, max_size=width),
                              max_size=4))
    slow = data.draw(st.lists(st.lists(st.one_of(canonical, other), min_size=width,
                                       max_size=width), max_size=3))
    for rows in (fast, fast + slow, slow + fast):
        m, coerced = coercing_calls(rows)
        want = per_cell(rows, False)[0]
        assert (m.rows, m.cols, m._d, m._e) == (want.rows, want.cols, want._d, want._e)
        assert all(type(x) is int for x in m._e)
        assert coerced == (0 if all(map(canonical_cell, sum(rows, []))) else 1)


def test_a_mixed_matrix_keeps_its_common_denominator():
    m = parse_document(json.dumps({"type": "matrix",
                                   "entries": [["1", "2"], ["1/2", 3], ["007", "-5/6"]]}))
    assert m._d == 6 and m._e == (6, 12, 3, 18, 42, -5)
