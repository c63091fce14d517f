"""One layout rule places every graded direct sum.

`chain.layout` is the only code that decides where a summand starts inside
its degree, for the four sums laid out degree by degree: tensor products
(`block_table`), the Hom coordinates of `hom_element`, `totalize` and
Dold-Kan `gamma`.  Each is compared with the code that had its own offset
loop: the nested loop of `block_table` and the totalization below,
`hom_reference` (whose `hom_offsets` walks the window of Map(A,B)_n) and
`gamma_reference`.  On seeded data with rational entries, zero-dimension
degrees and multidegrees, one-degree windows and windows far apart, both
sides must give equal results that store the same keys and write the same
bytes, compact and indented.

Two narrowings are pinned: `hom_element_components` returns a block only
for a nonzero summand, and `hom_element` ignores a component at an empty
summand, of any shape, as it ignores one outside the window.
"""

from fractions import Fraction
from itertools import product
import random

import pytest

from catcx import chain
from catcx.chain import (ChainComplex, block_table, hom_complex, hom_element,
                         hom_element_components, tensor, tensor_dims)
from catcx.documents import serialize_document
from catcx.doldkan import gamma
from catcx.exactlin import DimensionError, Matrix
from catcx.multicplx import MultiComplex, totalize, totalize_dims
from helpers import random_complex
from test_hom_as_tensor import assert_same_store, rational
import gamma_reference
import hom_reference

CASES = 300


def parent_block_table(As, Bs):
    """`block_table` as a nested loop over the two supports."""
    dim, off = {}, {}
    for i, a in As:
        for j, b in Bs:
            off[i, j] = at = dim.get(i + j, 0)
            dim[i + j] = at + a * b
    return dim, off


def parent_summands(M: MultiComplex):
    """dim tot_n by n - sum(lo), and where each multidegree's summand starts
    in its degree: one pass over the box in lex order."""
    lo = sum(M.lo)
    dims = [0] * (sum(M.hi) - lo + 1)
    off = {}
    for a in M.multidegrees():
        t = sum(a) - lo
        off[a], dims[t] = dims[t], dims[t] + M.dim(a)
    return dims, off


def parent_totalize(M: MultiComplex) -> ChainComplex:
    lo, hi = sum(M.lo), sum(M.hi)
    dims, off = parent_summands(M)
    blocks = {}
    for j, table in M.diffs.items():
        for a, m in table.items():
            blocks.setdefault(sum(a), []).append(
                (off[M._step(a, j)], off[a], m, -1 if sum(a[: j - 1]) % 2 else 1, 1, 1))
    diffs = {n: Matrix.from_blocks(dims[n - 1 - lo], dims[n - lo], blocks[n])
             for n in sorted(blocks)}
    return ChainComplex._of(lo, hi, tuple(dims), diffs)


def some_complex(rng, lo_range=None) -> ChainComplex:
    """1 to 4 degrees of dimension 0..3 (one degree in about a quarter),
    near 0 or anywhere in -15..15, rational in about three fifths."""
    C, _ = random_complex(rng, max_len=rng.choice((0, 1, 2, 3)), max_dim=3,
                          lo_range=lo_range or rng.choice(((-2, 2), (-15, 15))))
    return rational(rng, C) if rng.random() < 0.6 else C


def same_matrix(got: Matrix, want: Matrix) -> bool:
    return (got.rows, got.cols, got._e, got._d) == (want.rows, want.cols, want._e, want._d)


def tally(seen: dict, A, B):
    seen["rational"] += any(m._d != 1 for X in (A, B) for m in X.diffs.values())
    seen["zero degree"] += 0 in A.dims + B.dims
    seen["one-degree window"] += A.lo == A.hi or B.lo == B.hi
    seen["far apart"] += max(A.lo - B.hi, B.lo - A.hi) > 5


def new_seen() -> dict:
    return dict.fromkeys(("rational", "zero degree", "one-degree window", "far apart"), 0)


@pytest.fixture(scope="module")
def pairs():
    rng = random.Random(2701)
    return [(some_complex(rng), some_complex(rng)) for _ in range(CASES)]


def test_tensor_is_placed_as_by_the_nested_loop(pairs, monkeypatch):
    got = [(tensor(A, B), tensor_dims(A, B)) for A, B in pairs]
    for A, B in pairs:
        for As, Bs in ((A.support, B.support), (B.support, A.support)):
            dim, off = block_table(As, Bs)
            want_dim, want_off = parent_block_table(As, Bs)
            assert list(dim.items()) == list(want_dim.items())
            assert list(off.items()) == list(want_off.items())
    monkeypatch.setattr(chain, "block_table", parent_block_table)
    seen = new_seen()
    for (A, B), (T, dims) in zip(pairs, got):
        assert_same_store(T, chain.tensor(A, B))
        assert dims == chain.tensor_dims(A, B)
        tally(seen, A, B)
    assert all(n >= 20 for n in seen.values()), seen


def hom_cases(pairs):
    """(A, B, n) over each Hom window and one degree past either end."""
    for A, B in pairs:
        for n in range(B.lo - A.hi - 1, B.hi - A.lo + 2):
            yield A, B, n


def some_components(rng, A, B, n) -> dict:
    """A component of the right shape for each i of A's window and one past
    either end, empty summands included; rational in about half."""
    q = rng.choice((1, 1, 2, 3))
    return {i: Matrix(B.dim(n + i), A.dim(i),
                      [Fraction(rng.randint(-3, 3), q) for _ in range(B.dim(n + i) * A.dim(i))])
            for i in range(A.lo - 1, A.hi + 2)}


def test_hom_coordinates_are_the_offset_walks(pairs):
    rng = random.Random(2702)
    seen = new_seen()
    seen["empty summand"] = 0
    for A, B, n in hom_cases(pairs):
        comps = some_components(rng, A, B, n)
        v = hom_element(A, B, n, comps)
        want = hom_reference.hom_element(A, B, n, comps)
        assert same_matrix(v, want)
        assert serialize_document(v) == serialize_document(want)
        assert v.rows == hom_complex(A, B).dim(n)
        back = hom_element_components(A, B, n, v)
        full = hom_reference.hom_element_components(A, B, n, v)
        # a block only for a nonzero summand, by i ascending
        kept = {i: m for i, m in full.items() if m.rows and m.cols}
        assert list(back) == list(kept)
        assert all(same_matrix(back[i], m) and same_matrix(m, comps[i]) for i, m in kept.items())
        seen["empty summand"] += len(kept) < len(full)
        tally(seen, A, B)
    assert all(n >= 100 for n in seen.values()), seen


def test_a_component_at_an_empty_summand_is_ignored(pairs):
    rng = random.Random(2703)
    ignored = raised = 0
    for A, B, n in hom_cases(pairs):
        comps = some_components(rng, A, B, n)
        full = hom_reference.hom_offsets(A, B, n)
        for i in full:
            wrong = Matrix.zeros(B.dim(n + i) + 1, A.dim(i))
            bad = {**comps, i: wrong}
            if A.dim(i) and B.dim(n + i):
                # a nonzero summand checks the shape, with the same message
                with pytest.raises(DimensionError) as got:
                    hom_element(A, B, n, bad)
                with pytest.raises(DimensionError) as want:
                    hom_reference.hom_element(A, B, n, bad)
                assert str(got.value) == str(want.value)
                raised += 1
            else:
                # the old walk checked it; the layout has no place for it
                with pytest.raises(DimensionError):
                    hom_reference.hom_element(A, B, n, bad)
                assert same_matrix(hom_element(A, B, n, bad), hom_element(A, B, n, comps))
                ignored += 1
    assert ignored >= 300 and raised >= 300, (ignored, raised)


def some_multicomplex(rng) -> MultiComplex:
    """A tensor box of 1 to 3 complexes, each rational in about three
    fifths; each factor has 1 to 3 degrees, near 0 or anywhere in -15..15,
    and about half the multidegrees of dimension 0 are not declared."""
    lo_range = rng.choice(((-1, 1), (-15, 15)))
    factors = [some_complex(rng, lo_range) for _ in range(rng.choice((1, 2, 2, 3)))]
    n = len(factors)
    lo, hi = tuple(F.lo for F in factors), tuple(F.hi for F in factors)
    dims, diffs = {}, {j: {} for j in range(1, n + 1)}
    for a in product(*(F.degrees() for F in factors)):
        d = 1
        for F, x in zip(factors, a):
            d *= F.dim(x)
        if d or rng.random() < 0.5:
            dims[a] = d
        for j in range(1, n + 1):
            if a[j - 1] > lo[j - 1]:
                m = Matrix.identity(1)
                for pos, (F, x) in enumerate(zip(factors, a)):
                    m = m.kron(F.d(x) if pos == j - 1 else Matrix.identity(F.dim(x)))
                diffs[j][a] = m
    return MultiComplex(n, lo, hi, dims, diffs)


def test_totalize_is_placed_as_by_the_box_walk():
    rng = random.Random(2704)
    seen = {"rational": 0, "undeclared": 0, "zero multidegree": 0, "one-degree window": 0,
            "far apart": 0}
    for _ in range(CASES):
        M = some_multicomplex(rng)
        T = totalize(M)
        assert_same_store(T, parent_totalize(M))
        dims, _ = parent_summands(M)
        assert totalize_dims(M) == dict(enumerate(dims, sum(M.lo)))
        seen["rational"] += any(m._d != 1 for m in T.diffs.values())
        seen["undeclared"] += len(M.dims) < len(M.multidegrees())
        seen["zero multidegree"] += 0 in M.dims.values()
        seen["one-degree window"] += M.lo == M.hi
        seen["far apart"] += max(M.hi) - min(M.lo) > 10
    assert all(n >= 20 for n in seen.values()), seen


def test_gamma_is_placed_as_by_the_level_walks():
    rng = random.Random(2705)
    seen = {"rational": 0, "zero degree": 0, "one-degree window": 0, "far above N": 0}
    for _ in range(CASES):
        C = some_complex(rng, rng.choice(((0, 2), (0, 2), (6, 12))))
        N = rng.randint(0, 5)
        got, want = gamma(C, N), gamma_reference.gamma(C, N)
        assert got == want
        for ops, want_ops in ((got.faces, want.faces), (got.degeneracies, want.degeneracies)):
            assert list(ops) == list(want_ops)
            assert all(same_matrix(m, w) for n in ops for m, w in zip(ops[n], want_ops[n]))
        for pretty in (False, True):
            assert serialize_document(got, pretty) == serialize_document(want, pretty)
        seen["rational"] += any(m._d != 1 for m in C.diffs.values())
        seen["zero degree"] += 0 in C.dims
        seen["one-degree window"] += C.lo == C.hi
        seen["far above N"] += C.lo > N
    assert all(n >= 20 for n in seen.values()), seen
