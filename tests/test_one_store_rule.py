"""One store rule for every graded object, kept by `chain._kept_blocks`.

A chain complex, chain map, chain homotopy and multicomplex each store, of
the blocks they are given, exactly those inside their window and of
non-empty shape, by ascending key; a block of the wrong shape raises the
same DimensionError text as before.  Constructions on inputs given with
empty blocks store and write what they do on the same inputs without them,
`hom_complex` stores a differential exactly where it places a block, and
the writers build no zero matrix of empty shape.
"""

import json
import random
from math import comb
from pathlib import Path

import pytest

from catcx.chain import (ChainComplex, ChainHomotopy, ChainMap, direct_sum, hom_complex,
                         shift, sum_cone)
from catcx.documents import DocumentError, parse_document, serialize_document
from catcx.doldkan import gamma, gamma_dims
from catcx.exactlin import DimensionError, Matrix
from catcx.multicplx import MultiComplex, totalize
from helpers import int_matrix, random_chain_map, random_complex, random_multicomplex

GOLDEN = Path(__file__).resolve().parent / "golden"


# -- the four constructors -------------------------------------------------------

def offer(rng, keys, shape, seen):
    """Blocks by key, in shuffled order: None, a block of shape(k) (None
    outside the window, where any block is offered), and what the rule
    keeps of them."""
    given, kept = {}, {}
    keys = list(keys)
    rng.shuffle(keys)
    for k in keys:
        if rng.random() < 0.15:
            given[k] = None
            seen["none"] += 1
            continue
        expected = shape(k)
        if expected is None:
            given[k] = int_matrix(rng, rng.randint(0, 2), rng.randint(0, 2))
            seen["outside"] += 1
            continue
        given[k] = m = int_matrix(rng, *expected)
        if m.rows and m.cols:
            kept[k] = m
            seen["kept"] += 1
        else:
            seen["empty"] += 1
    return given, dict(sorted(kept.items()))


def assert_stores(store: dict, kept: dict):
    """store holds exactly the blocks of kept, the same objects, in ascending key order."""
    assert list(store) == sorted(store) == list(kept)
    assert all(store[k] is m for k, m in kept.items())


def window(src: ChainComplex, tgt: ChainComplex, deg: int) -> range:
    return range(min(src.lo, tgt.lo - deg), max(src.hi, tgt.hi - deg) + 1)


def test_each_constructor_keeps_exactly_the_non_empty_blocks_in_its_window():
    rng = random.Random(23)
    seen = dict.fromkeys(("none", "outside", "empty", "kept"), 0)
    for _ in range(60):
        lo = rng.randint(-2, 2)
        dims = [rng.randint(0, 2) for _ in range(rng.randint(1, 5))]
        hi = lo + len(dims) - 1
        given, kept = offer(rng, range(lo - 2, hi + 3), lambda k: (
            dims[k - 1 - lo], dims[k - lo]) if lo < k <= hi else None, seen)
        assert_stores(ChainComplex(lo, hi, dims, given).diffs, kept)
        A, B = (random_complex(rng, max_len=3, max_dim=2)[0] for _ in range(2))
        for cls, deg in ((ChainMap, 0), (ChainHomotopy, 1)):
            span = window(A, B, deg)
            given, kept = offer(rng, range(span.start - 2, span.stop + 2), lambda k: (
                B.dim(k + deg), A.dim(k)) if k in span else None, seen)
            assert_stores(cls(A, B, given).comps, kept)
        n = rng.randint(1, 3)
        box = MultiComplex(n, [rng.randint(-1, 0) for _ in range(n)], [1] * n, {})
        mdims = {a: rng.randint(0, 2) for a in box.multidegrees()}
        offers = {}
        for j in range(1, n + 1):
            keys = box.multidegrees() + [(5,) * n, (box.lo[0] - 1,) * n]
            offers[j] = offer(rng, keys, lambda a: (
                mdims.get(box._step(a, j), 0), mdims.get(a, 0))
                if box._in_box(a) and a[j - 1] > box.lo[j - 1] else None, seen)
        M = MultiComplex(n, box.lo, box.hi, mdims, {j: g for j, (g, _) in offers.items()})
        for j, (_, kept) in offers.items():
            assert_stores(M.diffs[j], kept)
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize("build, text", [
    (lambda: ChainComplex(0, 1, [1, 2], {1: Matrix(2, 1, [1, 2])}),
     "differential at degree 1 has shape 2x1, expected 1x2"),
    (lambda: ChainComplex(0, 1, [0, 2], {1: Matrix(2, 0, [])}),
     "differential at degree 1 has shape 2x0, expected 0x2"),
    (lambda: ChainMap(ChainComplex(0, 0, [2]), ChainComplex(0, 1, [1, 3]),
                      {0: Matrix(2, 1, [1, 2])}),
     "chain map component at degree 0 has shape 2x1, expected 1x2"),
    (lambda: ChainHomotopy(ChainComplex(0, 0, [2]), ChainComplex(0, 1, [1, 3]),
                           {0: Matrix(1, 2, [1, 2])}),
     "homotopy component at degree 0 has shape 1x2, expected 3x2"),
    (lambda: MultiComplex(2, (0, 0), (0, 1), {(0, 0): 2, (0, 1): 1},
                          {2: {(0, 1): Matrix(1, 1, [1])}}),
     "d_2 at (0, 1) has shape 1x1, expected 2x1"),
])
def test_a_wrong_shape_raises_the_same_text(build, text):
    with pytest.raises(DimensionError) as e:
        build()
    assert str(e.value) == text


# Documents that give explicit empty blocks ([[],[]] is 2x0, [] is 0xn), and
# the bytes they are written as: no empty block is written.
REWRITTEN = [
    ('{"type":"chain_complex","lo":-1,"hi":2,"dims":[2,0,1,1],'
     '"differentials":{"0":[[],[]],"1":[],"2":[["3"]]}}',
     '{"differentials":{"2":[["3"]]},"dims":[2,0,1,1],"hi":2,"lo":-1,"type":"chain_complex"}\n'),
    ('{"type":"chain_map","source":{"type":"chain_complex","lo":0,"hi":1,"dims":[0,2]},'
     '"target":{"type":"chain_complex","lo":0,"hi":1,"dims":[1,0]},'
     '"components":{"0":[[]],"1":[]}}',
     '{"components":{},"source":{"differentials":{},"dims":[0,2],"hi":1,"lo":0,'
     '"type":"chain_complex"},"target":{"differentials":{},"dims":[1,0],"hi":1,"lo":0,'
     '"type":"chain_complex"},"type":"chain_map"}\n'),
    ('{"type":"chain_homotopy","source":{"type":"chain_complex","lo":0,"hi":1,"dims":[2,1]},'
     '"target":{"type":"chain_complex","lo":0,"hi":2,"dims":[1,0,1]},'
     '"components":{"0":[],"1":[["5"]]}}',
     '{"components":{"1":[["5"]]},"source":{"differentials":{"1":[["0"],["0"]]},'
     '"dims":[2,1],"hi":1,"lo":0,"type":"chain_complex"},"target":{"differentials":{},'
     '"dims":[1,0,1],"hi":2,"lo":0,"type":"chain_complex"},"type":"chain_homotopy"}\n'),
    ('{"type":"multicomplex","n":2,"support":{"lo":[0,0],"hi":[1,1]},'
     '"dims":{"0,0":2,"1,0":0,"0,1":1,"1,1":1},'
     '"differentials":{"1":{"1,0":[[],[]],"1,1":[["0"]]},"2":{"0,1":[["1"],["-1"]],"1,1":[]}}}',
     '{"differentials":{"1":{"1,1":[["0"]]},"2":{"0,1":[["1"],["-1"]]}},'
     '"dims":{"0,0":2,"0,1":1,"1,0":0,"1,1":1},"n":2,"support":{"hi":[1,1],"lo":[0,0]},'
     '"type":"multicomplex"}\n'),
]


@pytest.mark.parametrize("text, written", REWRITTEN)
def test_explicit_empty_blocks_are_written_as_before(text, written):
    obj = parse_document(text)
    assert serialize_document(obj) == written
    assert serialize_document(obj, pretty=True) == json.dumps(
        json.loads(written), indent=2, sort_keys=True) + "\n"


# -- constructions on inputs given with and without empty blocks -----------------

def with_empty(C: ChainComplex) -> dict:
    """C's differentials, with an empty block given at every empty-shape degree."""
    given = dict(C.diffs)
    for k in range(C.lo + 1, C.hi + 1):
        if not (C.dim(k - 1) and C.dim(k)):
            given[k] = Matrix.zeros(C.dim(k - 1), C.dim(k))
    return given


def non_empty(blocks: dict) -> dict:
    return {k: m for k, m in blocks.items() if m.rows and m.cols}


def twins(rng, lo_range=(-3, 3)):
    """A seeded complex built from its blocks given with empty ones, and
    from the same blocks given without them; and how many were empty."""
    C = random_complex(rng, max_len=4, max_dim=3, lo_range=lo_range)[0]
    given = with_empty(C)
    kept = non_empty(given)
    return (ChainComplex(C.lo, C.hi, C.dims, given), ChainComplex(C.lo, C.hi, C.dims, kept),
            len(given) - len(kept))


def assert_same(X, Y):
    """Same stored keys, no empty block, same bytes."""
    assert list(X.diffs) == list(Y.diffs)
    assert all(m.rows and m.cols for m in X.diffs.values())
    assert serialize_document(X) == serialize_document(Y)


def test_constructions_on_given_empty_blocks_match_the_same_inputs_without_them():
    rng = random.Random(7)
    empty = 0
    for _ in range(60):
        (A, A0, ea), (B, B0, eb) = twins(rng), twins(rng)
        empty += ea + eb
        m = rng.randint(-2, 2)
        assert_same(shift(A, m), shift(A0, m))
        assert_same(direct_sum(A, B), direct_sum(A0, B0))
        assert_same(hom_complex(A, B), hom_complex(A0, B0))
        f = random_chain_map(rng, A0, B0)
        given = {k: Matrix.zeros(B.dim(k), A.dim(k)) for k in window(A, B, 0)
                 if not (A.dim(k) and B.dim(k))}
        fe = ChainMap(A, B, {**given, **f.comps})
        assert list(fe.comps) == list(f.comps)
        assert_same(sum_cone([(fe, 1)]), sum_cone([(f, 1)]))
        (G, G0, eg) = twins(rng, lo_range=(0, 1))
        empty += eg
        N = rng.randint(0, 3)
        assert serialize_document(gamma(G, N)) == serialize_document(gamma(G0, N))
    assert empty > 60


def test_totalize_on_given_empty_blocks_matches_the_same_box_without_them():
    rng = random.Random(11)
    empty = 0
    for _ in range(60):
        R = random_multicomplex(rng, n=rng.randint(1, 3))
        given = {j: dict(table) for j, table in R.diffs.items()}
        for a in R.multidegrees():
            for j in range(1, R.n + 1):
                b = R._step(a, j)
                if a[j - 1] > R.lo[j - 1] and not (R.dim(a) and R.dim(b)):
                    given[j][a] = Matrix.zeros(R.dim(b), R.dim(a))
                    empty += 1
        M = MultiComplex(R.n, R.lo, R.hi, R.dims, given)
        M0 = MultiComplex(R.n, R.lo, R.hi, R.dims, {j: non_empty(t) for j, t in given.items()})
        assert M.diffs == M0.diffs and all(list(M.diffs[j]) == list(M0.diffs[j]) for j in M.diffs)
        assert_same(totalize(M), totalize(M0))
        assert serialize_document(M) == serialize_document(M0)
    assert empty > 60


# -- hom_complex stores a differential exactly where it places a block ------------

def hom_placed(A: ChainComplex, B: ChainComplex) -> set:
    """The degrees n where Map(A, B) places a block: a non-empty summand
    Hom(A_i, B_{n+i}) meets a stored d_B out of n + i or d_A out of i + 1."""
    return {n for n in range(B.lo - A.hi + 1, B.hi - A.lo + 1) for i, a in A.support
            if B.dim(n + i) and (n + i in B.diffs or i + 1 in A.diffs)}


def test_hom_complex_stores_no_differential_where_only_empty_summands_meet_one():
    A = ChainComplex(0, 1, (1, 0))
    B = ChainComplex(0, 2, (1, 1, 1), {2: Matrix(1, 1, [1])})
    H = hom_complex(A, B)
    assert H.dims == (0, 1, 1, 1) and list(H.diffs) == [2]


def test_hom_complex_stores_exactly_the_placed_degrees():
    rng = random.Random(29)
    gaps = 0
    for _ in range(120):
        A, B = (random_complex(rng, max_len=4, max_dim=3)[0] for _ in range(2))
        A = ChainComplex(A.lo, A.hi, A.dims, {k: m for k, m in A.diffs.items()
                                              if rng.random() < 0.6})
        H = hom_complex(A, B)
        assert set(H.diffs) == hom_placed(A, B)
        gaps += len(H.diffs) < sum(1 for k in range(H.lo + 1, H.hi + 1)
                                   if H.dim(k - 1) and H.dim(k))
    assert gaps > 20


# -- the writers ------------------------------------------------------------------

def corpus():
    """Every document of the golden corpus, inputs and outputs alike."""
    texts = [p.read_text(encoding="utf-8") for p in sorted((GOLDEN / "inputs").glob("*.json"))]
    texts += [p.read_text(encoding="utf-8") for p in sorted((GOLDEN / "expected").glob("*.out"))]
    for text in texts:
        try:
            obj = parse_document(text)
        except DocumentError:
            continue  # a malformed input, a report or an error text
        if not isinstance(obj, dict):
            yield obj


def test_writing_the_golden_corpus_builds_no_empty_zero_matrix(monkeypatch):
    docs = list(corpus())
    assert len(docs) > 30
    calls = []
    zeros = Matrix.zeros.__func__

    def counted(cls, rows, cols):
        calls.append((rows, cols))
        return zeros(cls, rows, cols)

    monkeypatch.setattr(Matrix, "zeros", classmethod(counted))
    for obj in docs:
        serialize_document(obj)
        serialize_document(obj, pretty=True)
    assert all(rows and cols for rows, cols in calls)


# -- the size of a Gamma level ------------------------------------------------------

def test_gamma_dims_is_the_dimension_of_each_built_level():
    rng = random.Random(31)
    for _ in range(40):
        C = random_complex(rng, max_len=3, max_dim=3, lo_range=(0, 2))[0]
        built = gamma(C, 4)
        for n in range(5):
            assert gamma_dims(C, n) == {n: built.dims[n]}
            assert built.dims[n] == sum(comb(n, k) * C.dim(k) for k in C.degrees())
    C = ChainComplex(-1, 1, (1, 1, 1))
    assert gamma_dims(C, 3) == {} and gamma_dims(ChainComplex(0, 1, (1, 1)), -1) == {}
    with pytest.raises(DimensionError):
        gamma(C, 3)
