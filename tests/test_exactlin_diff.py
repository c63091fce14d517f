"""Differential tests: integer-backed `Matrix` against the Fraction reference.

`fraction_reference.Matrix` keeps one `Fraction` per entry and plain
Gauss-Jordan over Q; every kernel of `catcx.exactlin.Matrix` must give
the same entries, pivots and shapes on the same input, including empty
shapes, rank-deficient inputs and entries p/q with p, q up to about 2^64.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

import fraction_reference as ref
from catcx.exactlin import DimensionError, Matrix, column_space_dim

BIG = 2 ** 64

small = st.integers(-3, 3).map(Fraction)
big = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
entry = st.one_of(st.just(Fraction(0)), small, big)
side = st.integers(0, 5)


@st.composite
def shaped(draw, rows=None, cols=None, entries=entry):
    r = draw(side) if rows is None else rows
    c = draw(side) if cols is None else cols
    return r, c, draw(st.lists(entries, min_size=r * c, max_size=r * c))


@st.composite
def low_rank(draw):
    """rows x cols entries of a product through a k-dimensional space, k < min side."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(r, c) - 1))
    left = ref.Matrix(r, k, draw(st.lists(entry, min_size=r * k, max_size=r * k)))
    right = ref.Matrix(k, c, draw(st.lists(entry, min_size=k * c, max_size=k * c)))
    return r, c, list((left * right).entries())


matrices = st.one_of(shaped(), low_rank())


def pair(spec):
    r, c, e = spec
    return Matrix(r, c, e), ref.Matrix(r, c, e)


def same(m: Matrix, expected: ref.Matrix) -> None:
    assert (m.rows, m.cols) == (expected.rows, expected.cols)
    assert m.entries() == expected.entries()
    assert all(type(x) is Fraction for x in m.entries())
    # canonical layout: positive denominator sharing no factor with the numerators
    assert m._d > 0 and gcd(m._d, *m._e) == 1
    assert (m._d == 1) == all(x.denominator == 1 for x in expected.entries())


@given(matrices)
def test_construction_and_access(spec):
    m, e = pair(spec)
    same(m, e)
    assert m.to_lists() == e.to_lists()
    for i in range(m.rows):
        assert m.row(i) == e.row(i)
        for j in range(m.cols):
            assert m[i, j] == e[i, j]
    assert m.to_str_lists() == [[ref.rat_str(x) for x in e.row(i)] for i in range(e.rows)]
    assert repr(m) == repr(e)
    assert m.is_zero() == e.is_zero()
    assert m.is_identity() == e.is_identity()


@given(shaped(entries=st.one_of(small, big)))
def test_constructor_accepts_ints_strings_and_fractions(spec):
    r, c, e = spec
    spelled = [str(x) if i % 3 == 0 else (x.numerator if x.denominator == 1 else x)
               for i, x in enumerate(e)]
    same(Matrix(r, c, spelled), ref.Matrix(r, c, e))


@given(st.data())
def test_products(data):
    n, k, p = data.draw(side), data.draw(side), data.draw(side)
    a, ra = pair(data.draw(shaped(n, k)))
    b, rb = pair(data.draw(shaped(k, p)))
    same(a * b, ra * rb)


@given(st.data())
def test_sums_differences_and_negation(data):
    a, ra = pair(data.draw(matrices))
    b, rb = pair(data.draw(shaped(a.rows, a.cols)))
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(a - a, ra - ra)
    same(-a, -ra)


@given(matrices, st.one_of(st.just(Fraction(0)), small, big))
def test_scale(spec, c):
    m, e = pair(spec)
    same(m.scale(c), e.scale(c))


@given(matrices, matrices)
def test_kron_and_transpose(s1, s2):
    a, ra = pair(s1)
    b, rb = pair(s2)
    same(a.kron(b), ra.kron(rb))
    same(a.transpose(), ra.transpose())


@given(st.data())
def test_stacking_and_blocks(data):
    a, ra = pair(data.draw(matrices))
    b, rb = pair(data.draw(shaped(rows=a.rows)))
    same(a.hstack(b), ra.hstack(rb))
    c, rc = pair(data.draw(shaped(cols=a.cols)))
    same(a.vstack(c), ra.vstack(rc))
    d, rd = pair(data.draw(shaped(c.rows, b.cols)))
    same(Matrix.block([[a, b], [c, d]]), ref.Matrix.block([[ra, rb], [rc, rd]]))


@given(st.data())
def test_from_blocks_places_each_block(data):
    a, ra = pair(data.draw(matrices))
    rows = a.rows + data.draw(side)
    cols = a.cols + data.draw(side)
    r0, c0 = data.draw(st.integers(0, rows - a.rows)), data.draw(st.integers(0, cols - a.cols))
    m = Matrix.from_blocks(rows, cols, [(r0, c0, a)])
    expected = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(a.rows):
        expected[r0 + i][c0:c0 + a.cols] = ra.row(i)
    same(m, ref.Matrix.from_rows(expected, cols=cols))


def test_from_blocks_rejects_blocks_that_do_not_fit():
    blk = Matrix.identity(2)
    for r0, c0 in ((2, 0), (0, 2), (-1, 0)):
        try:
            Matrix.from_blocks(3, 3, [(r0, c0, blk)])
        except DimensionError:
            continue
        raise AssertionError(f"block at ({r0}, {c0}) was accepted")


@given(matrices)
def test_eliminations(spec):
    m, e = pair(spec)
    assert m.rank() == e.rank()
    R, piv = m.rref()
    rR, rpiv = e.rref()
    assert piv == rpiv
    same(R, rR)
    basis, rbasis = m.kernel_basis(), e.kernel_basis()
    assert len(basis) == len(rbasis)
    for v, rv in zip(basis, rbasis):
        same(v, rv)
    assert m.is_invertible() == e.is_invertible()
    if m.rows == m.cols:
        inv, rinv = m.invert(), e.invert()
        assert (inv is None) == (rinv is None)
        if inv is not None:
            same(inv, rinv)


@given(st.data())
def test_solve(data):
    a, ra = pair(data.draw(matrices))
    if data.draw(st.booleans()):
        # consistent right-hand side: a times some x
        x, _ = pair(data.draw(shaped(a.cols, data.draw(side))))
        b, rb = a * x, ref.Matrix(a.rows, x.cols, (a * x).entries())
    else:
        b, rb = pair(data.draw(shaped(rows=a.rows)))
    got, expected = a.solve(b), ra.solve(rb)
    assert (got is None) == (expected is None)
    if got is not None:
        same(got, expected)
        assert a * got == b


@given(matrices, st.data())
def test_equality_and_hash(spec, data):
    m, e = pair(spec)
    r, c, ent = spec
    again = Matrix(r, c, [str(x) for x in ent])
    assert m == again and hash(m) == hash(again) == hash(e)
    other, rother = pair(data.draw(shaped(m.rows, m.cols)))
    assert (m == other) == (e == rother)


def test_empty_shapes():
    for r, c in ((0, 0), (0, 3), (3, 0)):
        m = Matrix.zeros(r, c)
        e = ref.Matrix.zeros(r, c)
        same(m.transpose(), e.transpose())
        assert m.rank() == 0
        assert len(m.kernel_basis()) == c
        same(m.solve(Matrix.zeros(r, 2)), e.solve(ref.Matrix.zeros(r, 2)))
    same(Matrix.zeros(0, 0).invert(), ref.Matrix.zeros(0, 0).invert())
    assert column_space_dim([]) == 0


def test_non_integer_inverse_and_solve():
    a = Matrix.from_rows([["1/2", "1/3", 0], ["1/5", "1/7", "2/9"], [0, "-3/4", "5/11"]])
    inv = a.invert()
    assert inv is not None
    assert a * inv == Matrix.identity(3)
    assert inv * a == Matrix.identity(3)
    same(inv, ref.Matrix(3, 3, a.entries()).invert())

    x = Matrix.column(["7/3", "-1/8", "5"])
    b = a * x
    assert a.solve(b) == x
    assert a.scale("3/7").invert() == inv.scale("7/3")

    singular = Matrix.from_rows([["1/2", "1/3"], ["3/2", 1]])
    assert singular.invert() is None
    (k,) = singular.kernel_basis()
    assert k == Matrix.column(["-2/3", 1])
    assert (singular * k).is_zero()


def test_column_space_dim_matches_rank():
    cols = [Matrix.column(["1/2", 1, 0]), Matrix.column([1, 2, 0]), Matrix.column([0, 0, "1/3"])]
    assert column_space_dim(cols) == 2
