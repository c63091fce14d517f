"""`Matrix.rank` defers Bareiss's row scaling: a row zero in the pivot
column is left alone and brought up to date when next used.  It must give
the rank the plain Bareiss elimination below gives (a verbatim copy of the
former `Matrix.rank`, kept as the reference) on sparse, dense, staircase
and p/q input, and must not be slower where deferral saves nothing."""

import random
import time
from fractions import Fraction
from math import isqrt

from hypothesis import given, settings, strategies as st

from catcx.exactlin import Matrix


# -- reference: the former Matrix.rank, verbatim ---------------------------------

def rank(self) -> int:
    """Bareiss elimination: intermediates stay integral and bounded."""
    a = self._num_rows()
    nr, nc = self.rows, self.cols
    prev = 1
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = None
        for i in range(r, nr):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        ar = a[r]
        arc = ar[c]
        tail = ar[c:]
        for i in range(r + 1, nr):
            ai = a[i]
            aic = ai[c]
            if aic:
                ai[c:] = [(arc * x - aic * y) // prev for x, y in zip(ai[c:], tail)]
            elif arc != prev and any(ai[c:]):
                ai[c:] = [arc * x // prev for x in ai[c:]]
        prev = arc
        r += 1
    return r


# -- inputs -----------------------------------------------------------------------

SIDES = st.integers(0, 14)


@st.composite
def sparse(draw, values=st.integers(-9, 9)):
    """At least 80% zeros; tall, wide and empty shapes."""
    r, c = draw(SIDES), draw(SIDES)
    e = [0] * (r * c)
    for k in draw(st.lists(st.integers(0, max(r * c - 1, 0)), max_size=r * c // 5)):
        e[k] = draw(values)
    return Matrix(r, c, e)


@st.composite
def dense(draw, values=st.integers(-10**6, 10**6)):
    r, c = draw(SIDES), draw(SIDES)
    return Matrix(r, c, draw(st.lists(values, min_size=r * c, max_size=r * c)))


@st.composite
def staircase(draw):
    """Rows each zero before a column of their own, in shuffled order, with
    entries far from 1, so the pivot changes at every step and a row that
    starts late skips every step whose pivot column comes before its start.
    Some rows repeat a sum of two others, so the rank falls short."""
    r, c = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    big = st.integers(2, 10**4).flatmap(lambda n: st.sampled_from([n, -n]))
    rows = []
    for _ in range(r):
        start = draw(st.integers(0, c))
        rows.append([0] * start + [draw(big) for _ in range(c - start)])
    for _ in range(draw(st.integers(0, r // 3))):
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        rows.append([x + y for x, y in zip(rows[i], rows[j])])
    order = draw(st.permutations(range(len(rows))))
    return Matrix.from_rows([rows[k] for k in order])


P_Q = st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(1, 60))


class Exact(int):
    """An int whose floor divisions must be exact and whose quotients stay
    within `Exact.bound`; its arithmetic stays Exact."""

    bound = None

    def __mul__(self, o):
        return Exact(int(self) * int(o))

    __rmul__ = __mul__

    def __sub__(self, o):
        return Exact(int(self) - int(o))

    def __floordiv__(self, o):
        q, r = divmod(int(self), int(o))
        assert r == 0, f"inexact division {int(self)} / {int(o)}"
        assert abs(q) <= Exact.bound, "an entry past Hadamard's bound"
        return Exact(q)


def hadamard(m: Matrix) -> int:
    """A bound on every minor of m's numerators: the product of the row norms."""
    out = 1
    for row in m._num_rows():
        out *= isqrt(sum(x * x for x in row)) + 1
    return out


def agrees(m: Matrix) -> None:
    assert m.rank() == rank(m)
    assert m.transpose().rank() == m.rank()
    # every division is exact and every quotient a minor, not just the rank right
    Exact.bound = hadamard(m)
    assert Matrix._of(m.rows, m.cols, [Exact(x) for x in m._e], m._d).rank() == m.rank()


# -- the differential tests ------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(sparse())
def test_sparse(m):
    assert sum(1 for x in m._e if x == 0) >= 0.8 * len(m._e)
    agrees(m)


@settings(max_examples=300, deadline=None)
@given(dense())
def test_dense(m):
    agrees(m)


@settings(max_examples=300, deadline=None)
@given(staircase())
def test_rows_skipping_steps(m):
    agrees(m)


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse(P_Q), dense(P_Q)))
def test_p_over_q(m):
    agrees(m)


def test_empty_and_zero_shapes():
    for r, c in ((0, 0), (0, 5), (5, 0), (3, 3), (1, 14)):
        assert Matrix.zeros(r, c).rank() == rank(Matrix.zeros(r, c)) == 0


def test_skipped_rows_catch_up_across_pivots():
    # rows 2 and 3 are zero in columns 0 and 1, so they sit out the first
    # two pivots (14 and 140, on the numerators over 2) before their update
    m = Matrix.from_rows([[7, 1, 2, 3], [0, 5, 1, 4], [0, 0, 3, 9], [0, 0, 6, 18],
                          [Fraction(1, 2), 0, 0, 1]])
    agrees(m)
    assert m.rank() == 4


def test_growth_smoke_48_dense_30_digit():
    """Every entry is nonzero, so no scaling is deferred: the work is the
    reference's, and so must be the time.  Each side's fastest of five runs,
    taken in turn, with 20% allowed for timer noise."""
    rng = random.Random(48)
    m = Matrix(48, 48, [rng.randint(-10**30, 10**30) for _ in range(48 * 48)])
    assert m.rank() == rank(m) == 48
    best = {Matrix.rank: float("inf"), rank: float("inf")}
    for _ in range(5):
        for f in best:
            t = time.perf_counter()
            f(m)
            best[f] = min(best[f], time.perf_counter() - t)
    assert best[Matrix.rank] <= 1.2 * best[rank], best
