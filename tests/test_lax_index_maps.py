"""Differential tests: structural maps built from index data against dense ones.

`lax_reference` keeps the dense constructions the package had before the
associator, the tensor/cone interchanges and the inclusions and
projections became index maps.  On random small complexes, with zero
dimensional degrees, negative support windows and rational entries, every
index-map build must give the same chain maps, matrix for matrix in the
canonical layout, and a lax composition must give the same Delta^1 matrix.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lax_reference as ref
from catcx.chain import ChainComplex, ChainMap, cone, sum_inclusions, tensor, tensor_map
from catcx.exactlin import DimensionError, Matrix
from catcx.laxmat import (Span, assoc, assoc_inv, compose_entry_span, fib, hpushout,
                          lax_compose_delta1, tensor_cone, tensor_cone_left,
                          tensor_cone_right)
from helpers import random_lax_matrix

entries = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3),
                                                 st.integers(1, 4)))


def matrix(draw, rows, cols):
    return Matrix(rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                            max_size=rows * cols)))


@st.composite
def complexes(draw):
    """Up to three degrees from -3 on, each of dimension 0, 1 or 2.  The
    structural maps are index data, so d.d need not vanish here."""
    lo = draw(st.integers(-3, 1))
    dims = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    diffs = {lo + i: matrix(draw, dims[i - 1], dims[i]) for i in range(1, len(dims))}
    return ChainComplex(lo, lo + len(dims) - 1, dims, diffs)


def random_map(draw, A, B):
    lo, hi = min(A.lo, B.lo), max(A.hi, B.hi)
    return ChainMap(A, B, {k: matrix(draw, B.dim(k), A.dim(k)) for k in range(lo, hi + 1)})


@st.composite
def maps(draw):
    A, B = draw(complexes()), draw(complexes())
    return random_map(draw, A, B)


@st.composite
def spans(draw):
    A, B, C = draw(complexes()), draw(complexes()), draw(complexes())
    return Span(random_map(draw, A, B), random_map(draw, A, C))


def same_pushout(got, want):
    assert got.cx == want.cx
    assert got.from_left == want.from_left
    assert got.from_right == want.from_right
    assert got.span.left == want.span.left and got.span.right == want.span.right


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monomial_and_permute_against_dense_products(data):
    rows = data.draw(st.integers(0, 4))
    m = matrix(data.draw, data.draw(st.integers(0, 4)), rows)
    cols = data.draw(st.lists(st.integers(-1, rows - 1), max_size=5))
    signs = data.draw(st.one_of(st.none(), st.lists(st.sampled_from((1, -1)),
                                                    min_size=len(cols), max_size=len(cols))))
    p = Matrix.monomial(rows, cols, signs)
    want = [[0] * len(cols) for _ in range(rows)]
    for j, i in enumerate(cols):
        if i >= 0:
            want[i][j] = 1 if signs is None else signs[j]
    assert p == Matrix.from_rows(want, len(cols))
    assert m.permute(cols, signs) == m * p
    with pytest.raises(DimensionError):
        m.permute([rows])
    with pytest.raises(DimensionError):
        Matrix.monomial(rows, [rows])


@settings(max_examples=150, deadline=None)
@given(complexes(), complexes())
def test_tensor_against_reference(a, b):
    assert tensor(a, b) == ref.tensor(a, b)


@settings(max_examples=100, deadline=None)
@given(maps(), maps())
def test_tensor_map_against_reference(f, g):
    assert tensor_map(f, g) == ref.tensor_map(f, g)


@settings(max_examples=100, deadline=None)
@given(complexes(), complexes(), complexes())
def test_associator_against_reference(x, y, z):
    assert assoc(x, y, z) == ref.assoc(x, y, z)
    assert assoc_inv(x, y, z) == ref.assoc_inv(x, y, z)


@settings(max_examples=100, deadline=None)
@given(maps())
def test_cone_sum_and_fiber_maps_against_reference(f):
    c = cone(f)
    cx, from_target, to_shifted_source = ref.cone(f)
    assert c.complex == cx
    assert c.from_target == from_target
    assert c.to_shifted_source == to_shifted_source
    assert sum_inclusions(f.source, f.target) == ref.sum_inclusions(f.source, f.target)
    assert fib(f) == ref.fib(f)


@settings(max_examples=100, deadline=None)
@given(spans(), complexes())
def test_pushout_and_interchanges_against_reference(span, k):
    push = hpushout(span)
    same_pushout(push, ref.hpushout(span))
    for (tpush, omega), (want_push, want) in (
            (tensor_cone_left(k, push), ref.tensor_cone_left(k, push)),
            (tensor_cone(push, k, "left"), ref.tensor_cone_left(k, push)),
            (tensor_cone_right(push, k), ref.tensor_cone_right(push, k)),
            (tensor_cone(push, k, "right"), ref.tensor_cone_right(push, k))):
        same_pushout(tpush, want_push)
        assert omega == want
    with pytest.raises(ValueError):
        tensor_cone(push, k, "middle")


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_lax_composition_against_reference(rng):
    m = random_lax_matrix(rng)
    n = random_lax_matrix(rng, g=m.g_tgt)
    got, want = lax_compose_delta1(n, m), ref.lax_compose_delta1(n, m)
    assert got.g_src == want.g_src and got.g_tgt == want.g_tgt
    assert got.entries == want.entries
    for cell in ("cell_f0", "cell_0f", "cell_f1", "cell_1f"):
        assert getattr(got, cell) == getattr(want, cell)
    for u in (0, 1):
        for s in (0, 1):
            span, want_span = compose_entry_span(n, m, u, s), ref.compose_entry_span(n, m, u, s)
            assert span.left == want_span.left and span.right == want_span.right
