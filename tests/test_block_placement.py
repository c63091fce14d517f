"""Differential tests: `Matrix.from_blocks` with Kronecker blocks and a
column gather, against forming each block and multiplying.

A block (r0, c0, m, s, a, b) stands for s (1_a (x) m (x) 1_b), and
gather = (cols, signs) for the product with the monomial matrix whose
column j is signs[j] e_{cols[j]} (zero where cols[j] is -1).  The
reference forms each block with `Matrix.kron` against identities, places
the formed blocks with plain `from_blocks`, and multiplies by a monomial
matrix written entry by entry, so it shares neither the Kronecker nor the
gather path with the code under test.  Shapes include 0 x n and n x 0
blocks and empty identities, columns gathered twice or not at all, and
p/q entries with a different denominator in each block.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catcx.exactlin import DimensionError, Matrix

entries = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-5, 5),
                                                  st.sampled_from((1, 2, 3, 4, 6, 9))))


@st.composite
def blocks(draw):
    """Up to four blocks down a staircase, so they never overlap, each
    either plain (r0, c0, m) or (r0, c0, m, s, a, b)."""
    out, r, c = [], 0, 0
    for _ in range(draw(st.integers(0, 4))):
        mr, mc = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        m = Matrix(mr, mc, draw(st.lists(entries, min_size=mr * mc, max_size=mr * mc)))
        r, c = r + draw(st.integers(0, 1)), c + draw(st.integers(0, 1))
        if draw(st.booleans()):
            out.append((r, c, m))
            r, c = r + mr, c + mc
        else:
            s = draw(st.sampled_from((1, -1)))
            a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
            out.append((r, c, m, s, a, b))
            r, c = r + a * mr * b, c + a * mc * b
    return out, r + draw(st.integers(0, 1)), c + draw(st.integers(0, 1))


def formed(block):
    """The block as a plain (r0, c0, matrix), its Kronecker product formed."""
    if len(block) == 3:
        return block
    r0, c0, m, s, a, b = block
    return r0, c0, Matrix.identity(a).kron(m).kron(Matrix.identity(b)).scale(s)


def monomial(rows, cols, signs):
    """rows x len(cols) monomial matrix, written entry by entry."""
    grid = [[0] * len(cols) for _ in range(rows)]
    for j, i in enumerate(cols):
        if i >= 0:
            grid[i][j] = 1 if signs is None else signs[j]
    return Matrix.from_rows(grid, len(cols))


@settings(max_examples=300, deadline=None)
@given(blocks(), st.data())
def test_kronecker_blocks_and_gathers_against_forming_and_multiplying(placed, data):
    bl, rows, cols = placed
    plain = Matrix.from_blocks(rows, cols, [formed(b) for b in bl])
    assert Matrix.from_blocks(rows, cols, bl) == plain
    gathered = data.draw(st.lists(st.integers(-1, cols - 1), max_size=cols + 2))
    signs = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from((1, -1)), min_size=len(gathered), max_size=len(gathered))))
    got = Matrix.from_blocks(rows, cols, bl, (gathered, signs))
    assert got == plain * monomial(cols, gathered, signs)
    assert got == plain.permute(gathered, signs)


@settings(max_examples=100, deadline=None)
@given(blocks(), st.data())
def test_permutation_gathers_invert_back(placed, data):
    bl, rows, cols = placed
    perm = data.draw(st.permutations(range(cols)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=cols, max_size=cols))
    back = [0] * cols
    for j, c in enumerate(perm):
        back[c] = j
    got = Matrix.from_blocks(rows, cols, bl, (perm, signs))
    assert got.permute(back, [signs[j] for j in back]) == Matrix.from_blocks(rows, cols, bl)


def test_shapes_and_ranges_are_checked():
    m = Matrix(2, 1, [1, Fraction(1, 2)])
    with pytest.raises(DimensionError):
        Matrix.from_blocks(4, 2, [(0, 0, m, 1, 1, 3)])  # 6 x 3 does not fit
    with pytest.raises(DimensionError):
        Matrix.from_blocks(4, 2, [(0, 1, m, -1, 2, 1)])  # 4 x 2 at column 1
    with pytest.raises(DimensionError):
        Matrix.from_blocks(2, 1, [(0, 0, m)], ([1], None))
    assert Matrix.from_blocks(0, 3, [], ([2, -1], None)) == Matrix.zeros(0, 2)
    assert Matrix.from_blocks(4, 0, [(0, 0, Matrix.zeros(2, 0), -1, 1, 2)]) == Matrix.zeros(4, 0)
    assert Matrix.from_blocks(0, 4, [(0, 0, Matrix.zeros(0, 2), 1, 2, 1)],
                              ([3, 0, -1], [1, -1, 1])) == Matrix.zeros(0, 3)
    one_half = Matrix.from_blocks(4, 2, [(0, 0, m, -1, 2, 1)], ([1, 0], [1, -1]))
    assert one_half == Matrix.from_rows([[0, 1], [0, Fraction(1, 2)], [-1, 0],
                                         [Fraction(-1, 2), 0]])
