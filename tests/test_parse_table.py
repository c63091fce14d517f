"""A row whose cells all spell ints in [-256, 256] exactly as str() does is
parsed by one table lookup per cell; a row with any other cell falls back
to the int/str round trip or to the cell-by-cell path.  Values, warnings,
errors and paths are those of the cell-by-cell path."""

from hypothesis import given, settings, strategies as st

from catcx.documents import _INT, _canonical_ints
from catcx.exactlin import _QUOTED
from test_parse_rows import CELLS, parsed, per_cell

TABLE = st.integers(-256, 256).map(str)
EDGES = ["-256", "256", "-257", "257", "0", "-0", "00", "+5", "-1", "1"]


def same_as_per_cell(rows, strict):
    got, want = parsed(rows, strict), per_cell(rows, strict)
    assert got[1:] == want[1:]
    assert got[0] == want[0]
    if got[0] is not None:
        assert (got[0]._d, got[0]._e) == (want[0]._d, want[0]._e)


def test_table_is_the_inverse_of_the_writers():
    assert len(_INT) == len(_QUOTED) == 513
    assert all(_QUOTED[n] == f'"{s}"' and str(n) == s for s, n in _INT.items())


def test_boundaries_and_spellings():
    assert _canonical_ints(["-256", "256", "0"]) == [-256, 256, 0]
    assert _canonical_ints(["-257", "257"]) == [-257, 257]      # the round trip
    for cell in ("-0", "00", "+5", "007", " 1"):
        assert _canonical_ints(["1", cell]) is None               # cell by cell
    for strict in (False, True):
        for cell in EDGES:
            same_as_per_cell([[cell, "3"], ["-4", cell]], strict)
        same_as_per_cell([EDGES[:5], EDGES[5:]], strict)


def test_rows_mixing_table_cells_with_others():
    big = str(10**40)
    for strict in (False, True):
        for row in (["1", big], [big, "-256"], ["2", 5], ["2", [1]], ["2", True],
                    ["2", None], ["2", 1.5], ["3", "1/2"], ["4", "2e3"]):
            same_as_per_cell([row, ["0"] * len(row)], strict)


@settings(max_examples=300, deadline=None)
@given(width=st.integers(0, 4), data=st.data(), strict=st.booleans())
def test_table_rows_among_other_rows(width, data, strict):
    cell = st.one_of(TABLE, TABLE, st.sampled_from(EDGES), CELLS)
    rows = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=4))
    same_as_per_cell(rows, strict)
