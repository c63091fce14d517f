"""Sparse RMatrix against a dense reference, and the duality checks' errors."""

from fractions import Fraction
import importlib

import pytest
from hypothesis import given, settings, strategies as st

from catcx.exactlin import DimensionError, Matrix
from catcx.koszul import (FDAlgebra, KoszulDualityError, RMatrix, duality_iso,
                          koszul, monomial_algebra, variable_element)


class DenseRMatrix:
    """Row-major tuple of every entry, multiplied densely: the reference."""

    def __init__(self, algebra, rows, cols, entries):
        self.algebra, self.rows, self.cols = algebra, rows, cols
        self.e = tuple(tuple(v) for v in entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.e[i * self.cols + j]

    def put(self, i, j, v):
        e = list(self.e)
        e[i * self.cols + j] = tuple(v)
        return DenseRMatrix(self.algebra, self.rows, self.cols, e)

    def __mul__(self, other):
        A = self.algebra
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = A.zero()
                for k in range(self.cols):
                    term = A.mult(self[i, k], other[k, j])
                    acc = tuple(a + b for a, b in zip(acc, term))
                out.append(acc)
        return DenseRMatrix(A, self.rows, other.cols, out)

    def transpose(self):
        return DenseRMatrix(self.algebra, self.cols, self.rows,
                            [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self):
        return all(not any(v) for v in self.e)

    def realize(self):
        m = self.algebra.dim
        if self.rows == 0 or self.cols == 0:
            return Matrix.zeros(self.rows * m, self.cols * m)
        return Matrix.block([[self.algebra.mult_matrix(self[i, j]) for j in range(self.cols)]
                             for i in range(self.rows)])


ALGEBRAS = {"Q": FDAlgebra.rationals(), "Q[x,y]/(x^2,y^3)": monomial_algebra(2, (2, 3))[0]}


def elements(alg):
    """Often zero, otherwise coefficient vectors of small rationals."""
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    nonzero = st.lists(coeff, min_size=alg.dim, max_size=alg.dim).map(
        lambda c: tuple(Fraction(x) for x in c))
    return st.one_of(st.just(alg.zero()), nonzero)


def pair(data, alg, rows, cols):
    entries = data.draw(st.lists(elements(alg), min_size=rows * cols, max_size=rows * cols))
    return RMatrix(alg, rows, cols, entries), DenseRMatrix(alg, rows, cols, entries)


def assert_same(s, d):
    assert (s.rows, s.cols) == (d.rows, d.cols)
    for i in range(d.rows):
        for j in range(d.cols):
            assert s[i, j] == d[i, j]
    assert s == RMatrix(s.algebra, d.rows, d.cols, d.e)
    assert s.is_zero() == d.is_zero()
    assert s.realize() == d.realize()


sides = st.integers(0, 4)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), r=sides, k=sides, c=sides)
def test_sparse_rmatrix_matches_dense_reference(name, data, r, k, c):
    alg = ALGEBRAS[name]
    sa, da = pair(data, alg, r, k)
    sb, db = pair(data, alg, k, c)
    assert_same(sa, da)
    assert_same(sa * sb, da * db)
    assert_same(sa.transpose(), da.transpose())
    assert_same(sa.transpose().transpose(), da)
    other, dother = pair(data, alg, r, k)
    assert (sa == other) == (da.e == dother.e)
    if r and k:
        i = data.draw(st.integers(0, r - 1))
        j = data.draw(st.integers(0, k - 1))
        v = data.draw(elements(alg))
        assert_same(sa.put(i, j, v), da.put(i, j, v))
        assert_same(sa.put(i, j, alg.zero()), da.put(i, j, alg.zero()))
    zeros = RMatrix.zeros(alg, r, c)
    assert_same(zeros, DenseRMatrix(alg, r, c, [alg.zero()] * (r * c)))
    assert zeros.is_zero() and zeros == zeros.transpose().transpose()


def test_sparse_rmatrix_shapes_and_indices():
    alg = ALGEBRAS["Q"]
    empty = RMatrix.zeros(alg, 0, 3)
    assert (empty * RMatrix.zeros(alg, 3, 2)) == RMatrix.zeros(alg, 0, 2)
    assert empty.transpose() == RMatrix.zeros(alg, 3, 0)
    assert empty.realize() == Matrix.zeros(0, 3)
    wide = RMatrix(alg, 2, 0, []) * RMatrix(alg, 0, 2, [])
    assert wide.is_zero() and (wide.rows, wide.cols) == (2, 2)
    with pytest.raises(DimensionError):
        RMatrix.zeros(alg, 2, 3) * RMatrix.zeros(alg, 2, 3)
    with pytest.raises(DimensionError):
        RMatrix(alg, 2, 2, [alg.zero()] * 3)
    with pytest.raises(IndexError):
        empty[0, 0]
    with pytest.raises(IndexError):
        RMatrix.zeros(alg, 2, 2).put(0, 2, (Fraction(1),))


def test_duality_map_that_is_not_invertible_is_rejected():
    # a unit vector of 0 breaks the unit law: every duality map is zero,
    # which commutes with everything but is not invertible
    alg = FDAlgebra(1, [[[1]]], (0,))
    K = koszul(alg, [[1]])
    with pytest.raises(KoszulDualityError, match="duality map not invertible at degree 0"):
        duality_iso(K)


def test_duality_map_with_wrong_signs_is_rejected(monkeypatch):
    alg, basis = monomial_algebra(2, (2, 2))
    K = koszul(alg, [variable_element(basis, 0), variable_element(basis, 1)])
    # `import catcx.koszul as m` would bind the function catcx.koszul
    monkeypatch.setattr(importlib.import_module("catcx.koszul"), "shuffle_sign",
                        lambda comp, S: 1)
    with pytest.raises(KoszulDualityError, match="duality map fails to commute at degree"):
        duality_iso(K)


def test_duality_map_with_non_unit_entries_is_rejected():
    # x stands in for the unit of Q[x]/(x^2): each map has one entry +-x per
    # row and column and commutes, but x is not invertible
    alg, basis = monomial_algebra(1, (2,))
    x = variable_element(basis, 0)
    K = koszul(FDAlgebra(alg.dim, alg.structure, x), [x])
    with pytest.raises(KoszulDualityError, match="duality map not invertible at degree 0"):
        duality_iso(K)
