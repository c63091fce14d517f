"""`rref`, `kernel_basis`, `solve` and `invert` run the deferred-scaling
Bareiss loop of `exactlin._eliminate` with `reduce`: rows above the pivot
are cleared too, and every row is brought current at the last pivot D at
the end.  They must give, entry for entry, what the fraction-free
Gauss-Jordan below (a verbatim copy of the former `exactlin._gauss_jordan`,
kept as the reference) gives, on sparse, dense, staircase and p/q input up
to side 14, with right-hand sides up to 14 columns wide."""

import random
from typing import List, Tuple
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from catcx import exactlin
from catcx.exactlin import Matrix, _eliminate
from test_rank_deferred import P_Q, Exact, dense, hadamard, sparse, staircase


# -- reference: the former exactlin._gauss_jordan, verbatim ------------------------

def _gauss_jordan(a: List[list]) -> Tuple[List[int], int]:
    """Fraction-free Gauss-Jordan on integer rows, in place.

    Each step clears the pivot column in every other row with
    row_i <- (p * row_i - a_ic * row_r) / prev, where p is the new pivot and
    prev the one before; the divisions are exact (every entry is a minor
    of the input).  Returns (pivot columns, D): all pivots end equal to D,
    rows past the rank end zero, and the reduced row echelon form is a / D.
    The pivot is the first nonzero entry in its column, so results are
    deterministic.
    """
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = None
        for i in range(r, nr):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        ar = a[r]
        p = ar[c]
        for i in range(nr):
            if i == r:
                continue
            ai = a[i]
            f = ai[c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(ai, ar)]
            elif p != prev and any(ai):
                a[i] = [p * x // prev for x in ai]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, prev


def reference(m: Matrix, name: str, *args):
    """m.name(*args) computed on the reference elimination."""
    def gauss_jordan(a, reduce):
        assert reduce
        return _gauss_jordan(a)
    with patch.object(exactlin, "_eliminate", gauss_jordan):
        return getattr(m, name)(*args)


# -- inputs -----------------------------------------------------------------------

@st.composite
def with_rhs(draw, matrices):
    """A matrix and a right-hand side 0 to 14 columns wide, whose entries
    (ints, or p/q in a third of the sides) come from a drawn seed."""
    m = draw(matrices)
    w = draw(st.integers(0, 14))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if rng.random() < 1 / 3:
        e = [f"{rng.randint(-50, 50)}/{rng.randint(1, 60)}" for _ in range(m.rows * w)]
    else:
        e = [rng.randint(-10**4, 10**4) for _ in range(m.rows * w)]
    return m, Matrix(m.rows, w, e)


def leading_square(m: Matrix) -> Matrix:
    k, c = min(m.rows, m.cols), m.cols
    return Matrix._of(k, k, [m._e[i * c + j] for i in range(k) for j in range(k)], m._d)


def agrees(m: Matrix, b: Matrix) -> None:
    rows = [row + tail for row, tail in zip(m._num_rows(), b._num_rows())]
    want, a = [list(row) for row in rows], [list(row) for row in rows]
    pivots, D = _gauss_jordan(want)
    assert _eliminate(a, True) == (pivots, D) and a == want
    # every division is exact and every quotient a minor of [m | b]
    Exact.bound = hadamard(m.hstack(b))
    exact = [[Exact(x) for x in row] for row in rows]
    assert _eliminate(exact, True) == (pivots, D) and exact == want

    assert m.rref() == reference(m, "rref")
    assert m.kernel_basis() == reference(m, "kernel_basis")
    assert m.solve(b) == reference(m, "solve", b)
    sq = leading_square(m)
    assert sq.invert() == reference(sq, "invert")


# -- the differential tests ------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(with_rhs(sparse()))
def test_sparse(mb):
    agrees(*mb)


@settings(max_examples=60, deadline=None)
@given(with_rhs(dense()))
def test_dense(mb):
    agrees(*mb)


@settings(max_examples=80, deadline=None)
@given(with_rhs(staircase()))
def test_rows_skipping_steps(mb):
    agrees(*mb)


@settings(max_examples=60, deadline=None)
@given(with_rhs(st.one_of(sparse(P_Q), dense(P_Q))))
def test_p_over_q(mb):
    agrees(*mb)


def test_empty_and_zero_shapes():
    for r, c in ((0, 0), (0, 5), (5, 0), (3, 3), (1, 14)):
        agrees(Matrix.zeros(r, c), Matrix.zeros(r, 2))


def test_rows_above_catch_up_across_pivots():
    # row 0 is zero in columns 1 and 2, so it sits out the next two pivots
    # above them; rows 3 and 4 sit out the first two below them
    m = Matrix.from_rows([[7, 0, 0, 3, 1], [0, 5, 1, 4, 2], [0, 2, 3, 9, 0],
                          [0, 0, 0, 6, 18], [0, 0, 0, 12, 36]])
    agrees(m, Matrix.identity(5))
    R, pivots = m.rref()
    assert pivots == [0, 1, 2, 3]
    assert R.row(4) == (0,) * 5
