"""Blocks are placed one way: `Matrix.block` assembles every grid, and
`from_blocks` places every cochain differential as one Kronecker block.

`hstack` and `vstack` are the one-row and one-column grids, with the same
error texts; `invert` needs no case for the 0 x 0 matrix; `linear_cochain`
places D (x) 1_V for the signed incidence matrix D.  The old bodies are
copied below as the references.
"""

from fractions import Fraction
import itertools
import random

import pytest

from catcx.chain import ChainComplex
from catcx.exactlin import DimensionError, Matrix
from catcx.simplex import linear_cochain
from helpers import int_matrix


def reference_linear_cochain(n: int, dim_v: int) -> ChainComplex:
    """linear_cochain as it wrote each +-1 of every copy of V by hand."""
    subsets = [list(itertools.combinations(range(n + 1), k + 1))
               for k in range(n + 1)]
    dims = tuple(len(subsets[n - i]) * dim_v for i in range(n + 1))
    diffs = {}
    for k in range(n):
        rows_sets = subsets[k + 1]
        cols_sets = subsets[k]
        col_index = {s: c for c, s in enumerate(cols_sets)}
        rows = len(rows_sets) * dim_v
        cols = len(cols_sets) * dim_v
        ent = [0] * (rows * cols)
        for r, sigma in enumerate(rows_sets):
            for i in range(len(sigma)):
                tau = sigma[:i] + sigma[i + 1:]
                c = col_index[tau]
                sgn = -1 if i % 2 else 1
                for v in range(dim_v):
                    ent[(r * dim_v + v) * cols + (c * dim_v + v)] = sgn
        diffs[-k] = Matrix._of(rows, cols, ent)
    return ChainComplex(-n, 0, dims, diffs)


def reference_hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise DimensionError("hstack needs equal row counts")
    return Matrix.from_blocks(a.rows, a.cols + b.cols, [(0, 0, a), (0, a.cols, b)])


def reference_vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise DimensionError("vstack needs equal column counts")
    return Matrix.from_blocks(a.rows + b.rows, a.cols, [(0, 0, a), (a.rows, 0, b)])


@pytest.mark.parametrize("n", range(6))
def test_linear_cochain_matches_the_entrywise_body(n):
    for dim_v in range(4):
        C, ref = linear_cochain(n, dim_v), reference_linear_cochain(n, dim_v)
        assert (C.lo, C.hi, C.dims) == (ref.lo, ref.hi, ref.dims)
        assert C.diffs.keys() == ref.diffs.keys()
        for k, m in ref.diffs.items():
            assert (C.diffs[k].rows, C.diffs[k].cols) == (m.rows, m.cols)
            assert C.diffs[k].to_lists() == m.to_lists(), (n, dim_v, k)


def test_linear_cochain_blocks_repeat_down_the_diagonal():
    # degree 0 -> -1 of the 1-simplex with V = Q^2: the edge {0,1} against the
    # vertices 0 and 1 gives D = [[-1, 1]], and d = D (x) 1_2
    d = linear_cochain(1, 2).diffs[0]
    assert d.to_lists() == [[-1, 0, 1, 0], [0, -1, 0, 1]]


# -- hstack and vstack are Matrix.block ------------------------------------------------

def test_stack_error_texts():
    a, b = Matrix.zeros(2, 2), Matrix.zeros(3, 3)
    with pytest.raises(DimensionError, match="^hstack needs equal row counts$"):
        a.hstack(b)
    with pytest.raises(DimensionError, match="^vstack needs equal column counts$"):
        a.vstack(b)
    with pytest.raises(DimensionError, match="^hstack needs equal row counts$"):
        Matrix.zeros(0, 2).hstack(Matrix.zeros(1, 2))
    with pytest.raises(DimensionError, match="^vstack needs equal column counts$"):
        Matrix.zeros(2, 0).vstack(Matrix.zeros(2, 1))


@pytest.mark.parametrize("a, b, hshape, vshape", [
    ((0, 2), (0, 3), (0, 5), None),
    ((2, 0), (3, 0), None, (5, 0)),
    ((0, 0), (0, 0), (0, 0), (0, 0)),
    ((3, 0), (3, 2), (3, 2), None),
    ((0, 2), (4, 2), None, (4, 2)),
])
def test_empty_shapes(a, b, hshape, vshape):
    a, b = Matrix.zeros(*a), Matrix.zeros(*b)
    if hshape is not None:
        h = a.hstack(b)
        assert (h.rows, h.cols) == hshape and h == reference_hstack(a, b)
    if vshape is not None:
        v = a.vstack(b)
        assert (v.rows, v.cols) == vshape and v == reference_vstack(a, b)


def test_stacks_match_the_placed_blocks():
    rng = random.Random(19)
    for _ in range(100):
        r, c1, c2, r2 = (rng.randint(0, 4) for _ in range(4))
        a = int_matrix(rng, r, c1).scale(Fraction(1, rng.randint(1, 4)))
        b = int_matrix(rng, r, c2).scale(Fraction(rng.randint(1, 3), 5))
        assert a.hstack(b) == reference_hstack(a, b)
        c = int_matrix(rng, r2, c1).scale(Fraction(1, rng.randint(1, 6)))
        assert a.vstack(c) == reference_vstack(a, c)


def test_the_empty_inverse():
    inv = Matrix.identity(0).invert()
    assert inv == Matrix.zeros(0, 0) == Matrix.identity(0)
    assert (inv.rows, inv.cols, inv._d) == (0, 0, 1)
    assert Matrix.zeros(0, 0).is_invertible()
