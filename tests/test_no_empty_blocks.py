"""Constructions build only what they keep.

No construction builds a block of empty shape: each one that builds
components degree by degree skips a degree whose rows or columns are 0
(or where it places nothing) before it builds anything, so no
`Matrix.from_blocks` call of a lax composition, of `cc2` or of the golden
`lax-compose` call makes an empty matrix.  The complexes the library sizes
itself (`tensor`, `sum_cone`, `dual`, `shift`, `totalize`, and so
`hom_complex` and `direct_sum`, built by `tensor` and `sum_cone`) come
from the trusted `ChainComplex._of`, and each equals the same data passed
through the checked constructor.  Equality reads a block stored on one
side only with `is_zero`, so it builds no zero matrix.
"""

import json
import random
from pathlib import Path

import pytest

import lax_reference as ref
from catcx.chain import (ChainComplex, ChainHomotopy, ChainMap, cone, cone_complex,
                         direct_sum, hom_complex, hom_dims, hom_element,
                         hom_element_components, identity_map, shift, sum_cone, tensor,
                         tensor_map, zero_map)
from catcx.cli import run
from catcx.exactlin import Matrix
from catcx.laxmat import Span, assoc, assoc_inv, hpushout, lax_compose_delta1, unit_matrix
from catcx.multicplx import MultiComplex, totalize
from catcx.simplex import cc2
from helpers import (int_matrix, random_chain_map, random_complex, random_lax_matrix,
                     random_multicomplex, small_complex)
from test_stored_components import count_zeros

GOLDEN = Path(__file__).resolve().parent / "golden"


def count_from_blocks(monkeypatch) -> list:
    """The result shapes of the `Matrix.from_blocks` calls made from now on."""
    shapes = []
    from_blocks = Matrix.from_blocks.__func__

    def counted(cls, rows, cols, blocks, gather=None):
        shapes.append((rows, cols if gather is None else len(gather[0])))
        return from_blocks(cls, rows, cols, blocks, gather)

    monkeypatch.setattr(Matrix, "from_blocks", classmethod(counted))
    return shapes


def empty(shapes) -> list:
    return [s for s in shapes if 0 in s]


def some_map(rng, A, B):
    return zero_map(A, B) if rng.random() < 0.2 else random_chain_map(rng, A, B)


# -- no from_blocks call builds an empty matrix -----------------------------------

def test_golden_lax_compose_builds_no_empty_matrix(monkeypatch, capsysbinary):
    case = next(c for c in json.loads((GOLDEN / "cases.json").read_text())
                if c["name"] == "lax_compose")
    shapes = count_from_blocks(monkeypatch)
    code = run([str(GOLDEN / a) if a.startswith("inputs/") else a for a in case["argv"]])
    assert code == case["exit"]
    assert capsysbinary.readouterr().out == (GOLDEN / "expected" / "lax_compose.out").read_bytes()
    assert len(shapes) > 50 and empty(shapes) == []


@pytest.mark.parametrize("style", ["corner", "augmented", "spread"])
def test_compositions_build_no_empty_matrix(monkeypatch, style):
    rng = random.Random(41)
    pairs = []
    for _ in range(8):
        m = random_lax_matrix(rng, style)
        pairs.append((random_lax_matrix(rng, style, g=m.g_tgt), m))
    shapes = count_from_blocks(monkeypatch)
    for n, m in pairs:
        lax_compose_delta1(n, m)
    assert len(shapes) > 50 and empty(shapes) == []


def test_cc2_builds_no_empty_matrix(monkeypatch):
    rng = random.Random(42)
    pairs = []
    for _ in range(30):
        x0, x1, x2 = (small_complex(rng, max_len=2, max_dim=3, lo_range=(-2, 1))
                      for _ in range(3))
        pairs.append((some_map(rng, x0, x1), some_map(rng, x1, x2)))
    shapes = count_from_blocks(monkeypatch)
    seen_zero = 0
    for u, v in pairs:
        seen_zero += 0 in cc2(u, v).total.dims
    assert seen_zero and len(shapes) > 30 and empty(shapes) == []


# -- complexes sized by the library come from the trusted constructor -------------

def assert_well_formed(C: ChainComplex):
    """C's data is what the checked constructor would accept, and equal to it."""
    assert type(C.dims) is tuple and all(type(n) is int for n in C.dims)
    keys = list(C.diffs)
    assert keys == sorted(keys) and all(C.lo < k <= C.hi for k in keys)
    assert all(m.rows and m.cols for m in C.diffs.values())
    assert C.support == tuple((k, n) for k, n in zip(C.degrees(), C.dims) if n)
    assert C == ChainComplex(C.lo, C.hi, C.dims, C.diffs)


def complexes(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_complex(rng, max_len=4, max_dim=3)[0], \
            random_complex(rng, max_len=4, max_dim=3)[0]


def test_tensor_shift_and_direct_sum_are_well_formed():
    for rng, A, B in complexes(43, 60):
        for build, want in ((tensor, ref.tensor), (direct_sum, ref.direct_sum)):
            C = build(A, B)
            assert_well_formed(C)
            assert C == want(A, B)
        m = rng.randint(-3, 3)
        S = shift(A, m)
        assert_well_formed(S)
        assert (S.lo, S.dims) == (A.lo + m, A.dims)
        assert all(S.d(k + m) == A.d(k).scale(-1 if m % 2 else 1) for k in A.degrees())


def test_cones_are_well_formed():
    for rng, A, B in complexes(44, 60):
        f = some_map(rng, A, B)
        C = cone_complex(f)
        assert_well_formed(C)
        assert C == ref.cone(f)[0]
        T = random_complex(rng, max_len=4, max_dim=3)[0]
        g = {k: int_matrix(rng, T.dim(k), A.dim(k)) for k in A.degrees() if rng.random() < 0.5}
        assert_well_formed(sum_cone([(f, 1), (ChainMap(A, T, g), -1)]))


def hom_differential(A, B, n, f: Matrix) -> Matrix:
    """d(f) for f in Map(A, B)_n, from d(f)_i = d_B f_i - (-1)^{n-1} f_{i-1} d_A."""
    f = hom_element_components(A, B, n, f)
    sign = -1 if (n - 1) % 2 else 1

    def comp(i):
        return f.get(i, Matrix.zeros(B.dim(n + i), A.dim(i)))
    return hom_element(A, B, n - 1, {i: B.d(n + i) * comp(i) - (comp(i - 1) * A.d(i)).scale(sign)
                                     for i in range(A.lo, A.hi + 1)})


def test_hom_complexes_are_well_formed():
    seen_gap = 0
    for rng, A, B in complexes(45, 60):
        H = hom_complex(A, B)
        assert_well_formed(H)
        assert dict(zip(H.degrees(), H.dims)) == hom_dims(A, B)
        seen_gap += len(H.diffs) < H.hi - H.lo
        for n in range(H.lo + 1, H.hi + 1):
            cols = [hom_differential(A, B, n, Matrix.monomial(H.dim(n), [j]))
                    for j in range(H.dim(n))]
            assert H.d(n) == Matrix.block([cols]) if cols else H.d(n).cols == 0
    assert seen_gap > 10


def tensor_box(A: ChainComplex, B: ChainComplex) -> MultiComplex:
    """The bicomplex A_a (x) B_b, d_1 = d_A (x) 1 and d_2 = 1 (x) d_B."""
    box = [(a, b) for a in A.degrees() for b in B.degrees()]
    return MultiComplex(2, (A.lo, B.lo), (A.hi, B.hi), {x: A.dim(x[0]) * B.dim(x[1]) for x in box},
                        {1: {(a, b): A.d(a).kron(Matrix.identity(B.dim(b))) for a, b in box},
                         2: {(a, b): Matrix.identity(A.dim(a)).kron(B.d(b)) for a, b in box}})


def test_totalizations_are_well_formed():
    rng = random.Random(46)
    for n in (1, 2, 2, 3, 3):
        M = random_multicomplex(rng, n=n)
        T = totalize(M)
        assert_well_formed(T)
        assert T.dims == tuple(sum(M.dim(a) for a in M.multidegrees() if sum(a) == k)
                               for k in T.degrees())
    # with the sign (-1)^{a_1} on d_2, the total complex of a tensor box is the tensor product
    for _, A, B in complexes(50, 30):
        T = totalize(tensor_box(A, B))
        assert_well_formed(T)
        assert T == tensor(A, B)


# -- maps built degree by degree store no empty block and skip no value ------------

def assert_complete(f, want):
    """f stores no empty block, by ascending degree, and equals `want`."""
    keys = list(f.comps)
    assert keys == sorted(keys) and all(m.rows and m.cols for m in f.comps.values())
    assert f == want


def test_structure_maps_equal_the_dense_references():
    seen_empty = 0
    for rng, A, B in complexes(47, 60):
        seen_empty += 0 in A.dims
        assert_complete(identity_map(A), ChainMap(A, A, {k: Matrix.identity(A.dim(k))
                                                         for k in A.degrees()}))
        f = some_map(rng, A, B)
        c = cone(f)
        _, from_target, to_shifted_source = ref.cone(f)
        assert_complete(c.from_target, from_target)
        assert_complete(c.to_shifted_source, to_shifted_source)
        C = random_complex(rng, max_len=4, max_dim=3)[0]
        span = Span(f, some_map(rng, A, C))
        push, want = hpushout(span), ref.hpushout(span)
        assert_complete(push.from_left, want.from_left)
        assert_complete(push.from_right, want.from_right)
        g = some_map(rng, B, C)
        assert_complete(tensor_map(f, g), ref.tensor_map(f, g))
        X, Y, Z = (small_complex(rng) for _ in range(3))
        assert_complete(assoc(X, Y, Z), ref.assoc(X, Y, Z))
        assert_complete(assoc_inv(X, Y, Z), ref.assoc_inv(X, Y, Z))
    assert seen_empty > 10


def test_unit_matrix_cells_are_identities():
    for _, G, _ in complexes(48, 30):
        U = unit_matrix(G)
        for cell in (U.cell_f0, U.cell_1f):
            assert_complete(cell, identity_map(G))
        assert U.cell_0f.comps == U.cell_f1.comps == {}


def test_cc2_homotopy_stores_where_the_middle_complex_is_nonzero():
    rng = random.Random(49)
    for _ in range(30):
        x0, x1, x2 = (small_complex(rng, max_len=2, max_dim=3, lo_range=(-2, 1))
                      for _ in range(3))
        h = cc2(some_map(rng, x0, x1), some_map(rng, x1, x2)).level1.h
        assert list(h.comps) == [k for k, _ in x1.support]
        # -1 on the X1 part of (Y01)_k into (Y12)_{k+1} = X1_k (+) X2_{k+1}
        for k, n in x1.support:
            m = h.comps[k]
            assert [(i, j, m[i, j]) for i in range(m.rows) for j in range(m.cols) if m[i, j]] \
                == [(i, x0.dim(k - 1) + i, -1) for i in range(n)]


# -- equality builds no zero matrix -----------------------------------------------

def test_equality_builds_no_zero_matrix(monkeypatch):
    A = ChainComplex(0, 2, (2, 2, 1))
    one = Matrix(2, 2, [0, 1, 0, 0])
    zero_d = ChainComplex(0, 2, (2, 2, 1), {1: Matrix(2, 2, [0] * 4)})
    full_d = ChainComplex(0, 2, (2, 2, 1), {1: one})
    maps = [ChainMap(A, A, {0: Matrix(2, 2, [0] * 4)}), zero_map(A, A),
            ChainMap(A, A, {1: Matrix.identity(2)})]
    homs = [ChainHomotopy(A, A, {1: Matrix(1, 2, [0, 0])}), ChainHomotopy(A, A),
            ChainHomotopy(A, A, {0: Matrix(2, 2, [1, 0, 0, 1])})]
    calls = count_zeros(monkeypatch)
    assert zero_d == A and A == zero_d and full_d != A and A != full_d and zero_d != full_d
    for x, y, z in (maps, homs):
        assert x == y and y == x and x != z and z != x and y != z and z != y
    assert calls == []
