"""Complexes and multicomplexes store only the differentials they are given.

An absent block is zero.  Every construction, check and serializer gives
the same result on a complex with absent blocks as on the same complex
with each zero block given explicitly, and neither constructor builds a
zero matrix.  Mostly-zero inputs of 512 x 512 blocks run at once, in a
child whose address space is capped.
"""

import json
import random

from catcx.chain import (ChainComplex, ChainMap, direct_sum, hom_complex, homology_dims,
                         shift, sum_cone, tensor, validate_complex)
from catcx.documents import parse_document, serialize_document
from catcx.exactlin import Matrix
from catcx.multicplx import MultiComplex, totalize, validate_multicomplex
from helpers import int_matrix, random_chain_map, random_complex, random_multicomplex
from test_derived_dims import run_capped


def test_homology_of_512_degrees_without_differentials(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"type": "chain_complex", "lo": 0, "hi": 511, "dims": [512] * 512}))
    result, out, errors = run_capped("homology", str(doc))
    assert result["code"] == 0 and errors == []
    assert result["seconds"] < 1
    assert json.loads(out)["dims"] == {str(k): 512 for k in range(512)}


def test_validate_of_a_484_multidegree_box_without_differentials(tmp_path):
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({
        "type": "multicomplex", "n": 2, "support": {"lo": [0, 0], "hi": [21, 21]},
        "dims": {f"{a},{b}": 512 for a in range(22) for b in range(22)}}))
    result, out, errors = run_capped("validate", str(doc))
    assert result["code"] == 0 and errors == []
    assert result["seconds"] < 1
    assert json.loads(out) == {"doc_type": "multicomplex", "problems": [], "type": "report",
                               "valid": True}


# Documents with omitted differentials, and the bytes they are written as:
# each omitted block of a non-empty shape comes back as an explicit zero
# matrix.
REWRITTEN = [
    ('{"type":"chain_complex","lo":-1,"hi":2,"dims":[2,1,2,1],'
     '"differentials":{"2":[["1"],["-1"]]}}',
     '{"differentials":{"0":[["0"],["0"]],"1":[["0","0"]],"2":[["1"],["-1"]]},'
     '"dims":[2,1,2,1],"hi":2,"lo":-1,"type":"chain_complex"}\n'),
    ('{"type":"multicomplex","n":2,"support":{"lo":[0,0],"hi":[2,1]},'
     '"dims":{"0,0":1,"1,0":2,"2,0":1,"0,1":1,"1,1":1},'
     '"differentials":{"1":{"1,0":[["3","-1"]]},"2":{"1,1":[["1"],["2"]]}}}',
     '{"differentials":{"1":{"1,0":[["3","-1"]],"1,1":[["0"]],"2,0":[["0"],["0"]]},'
     '"2":{"0,1":[["0"]],"1,1":[["1"],["2"]]}},"dims":{"0,0":1,"0,1":1,"1,0":2,"1,1":1,'
     '"2,0":1},"n":2,"support":{"hi":[2,1],"lo":[0,0]},"type":"multicomplex"}\n'),
]


def test_omitted_differentials_are_written_as_zero_blocks():
    for text, written in REWRITTEN:
        assert serialize_document(parse_document(text)) == written


def test_a_route_through_an_absent_block_is_zero():
    M = parse_document(REWRITTEN[1][0])
    assert validate_multicomplex(M) == ["d_1 and d_2 do not commute at (1, 1)"]
    assert validate_multicomplex(explicit_multi(M)) == validate_multicomplex(M)


# -- absent blocks against explicit zero blocks -------------------------------

def sparse(rng, C: ChainComplex) -> ChainComplex:
    """C with about half of its differentials made zero by leaving them out."""
    kept = {k: m for k, m in C.diffs.items() if rng.random() < 0.5}
    return ChainComplex(C.lo, C.hi, C.dims, kept)


def explicit(C: ChainComplex) -> ChainComplex:
    """C with every block of its window given, zero ones included."""
    full = {k: C.d(k) for k in range(C.lo + 1, C.hi + 1)}
    assert len(full) == C.hi - C.lo
    return ChainComplex(C.lo, C.hi, C.dims, full)


def arbitrary(rng) -> ChainComplex:
    """Random blocks, so that d.d is mostly not zero."""
    lo = rng.randint(-2, 1)
    dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
    hi = lo + len(dims) - 1
    return ChainComplex(lo, hi, dims, {k: int_matrix(rng, dims[k - 1 - lo], dims[k - lo])
                                       for k in range(lo + 1, hi + 1)})


def pairs(seed: int, count: int):
    """(sparse, explicit) versions of seeded complexes, valid and not."""
    rng = random.Random(seed)
    for t in range(count):
        C = random_complex(rng, max_len=4, max_dim=3)[0] if t % 2 else arbitrary(rng)
        S = sparse(rng, C)
        yield S, explicit(S)


def same(X: ChainComplex, Y: ChainComplex) -> bool:
    return serialize_document(X) == serialize_document(Y)


def test_constructions_agree_with_explicit_zero_blocks():
    rng = random.Random(3)
    seen_absent = 0
    for (A, A_full), (B, B_full) in zip(pairs(1, 60), pairs(2, 60)):
        seen_absent += len(A.diffs) < len(A_full.diffs)
        assert same(tensor(A, B), tensor(A_full, B_full))
        assert same(hom_complex(A, B), hom_complex(A_full, B_full))
        assert same(direct_sum(A, B), direct_sum(A_full, B_full))
        m = rng.randint(-2, 2)
        assert same(shift(A, m), shift(A_full, m))
        f = random_chain_map(rng, A, B)
        ident = {k: Matrix.identity(A.dim(k)) for k in A.degrees()}
        legs = [(f, 1), (ChainMap(A, A, ident), -1)]
        full_legs = [(ChainMap(A_full, B_full, f.comps), 1), (ChainMap(A_full, A_full, ident), -1)]
        assert same(sum_cone(legs), sum_cone(full_legs))
    assert seen_absent > 20


def test_checks_and_homology_agree_with_explicit_zero_blocks():
    seen_problems = 0
    for C, C_full in pairs(4, 200):
        assert validate_complex(C) == validate_complex(C_full)
        assert homology_dims(C) == homology_dims(C_full)
        seen_problems += bool(validate_complex(C))
    assert seen_problems > 20


def sparse_multi(rng, M: MultiComplex) -> MultiComplex:
    kept = {j: {a: m for a, m in table.items() if rng.random() < 0.6}
            for j, table in M.diffs.items()}
    return MultiComplex(M.n, M.lo, M.hi, M.dims, kept)


def explicit_multi(M: MultiComplex) -> MultiComplex:
    full = {j: {a: M.d(j, a) for a in M.multidegrees() if a[j - 1] > M.lo[j - 1]}
            for j in range(1, M.n + 1)}
    return MultiComplex(M.n, M.lo, M.hi, M.dims, full)


def arbitrary_multi(rng) -> MultiComplex:
    """Random blocks on a random box, so that most squares fail."""
    n = rng.randint(1, 3)
    lo = [rng.randint(-1, 1) for _ in range(n)]
    box = MultiComplex(n, lo, [x + rng.randint(1, 2) for x in lo], {})
    dims = {a: rng.randint(0, 2) for a in box.multidegrees()}
    blocks = {j: {a: int_matrix(rng, dims[box._step(a, j)], dims[a])
                  for a in dims if a[j - 1] > lo[j - 1]} for j in range(1, n + 1)}
    return MultiComplex(n, box.lo, box.hi, dims, blocks)


def test_multicomplexes_agree_with_explicit_zero_blocks():
    rng = random.Random(5)
    seen_problems = seen_absent = 0
    for t in range(120):
        M = sparse_multi(rng, random_multicomplex(rng, n=rng.randint(1, 3)) if t % 2
                         else arbitrary_multi(rng))
        M_full = explicit_multi(M)
        seen_absent += sum(map(len, M.diffs.values())) < sum(map(len, M_full.diffs.values()))
        report = validate_multicomplex(M)
        assert report == validate_multicomplex(M_full)
        seen_problems += bool(report)
        assert same(totalize(M), totalize(M_full))
        assert serialize_document(M) == serialize_document(M_full)
    assert seen_problems > 20 and seen_absent > 20


# -- the constructors build no zero block --------------------------------------

def test_constructors_build_no_zero_matrix(monkeypatch):
    calls = []
    zeros = Matrix.zeros.__func__

    def counted(cls, rows, cols):
        calls.append((rows, cols))
        return zeros(cls, rows, cols)

    monkeypatch.setattr(Matrix, "zeros", classmethod(counted))
    ChainComplex(0, 511, [512] * 512)
    C = ChainComplex(-1, 3, [1, 2, 0, 2, 1], {1: Matrix(2, 0, []), 3: Matrix(2, 1, [1, -1])})
    dims = {(a, b): 512 for a in range(22) for b in range(22)}
    MultiComplex(2, (0, 0), (21, 21), dims)
    M = MultiComplex(2, (0, 0), (1, 1), {(0, 0): 1, (1, 0): 1, (1, 1): 1},
                     {1: {(1, 0): Matrix(1, 1, [2])}, 2: {}})
    assert calls == []
    assert list(C.diffs) == [3] and list(M.diffs[1]) == [(1, 0)] and M.diffs[2] == {}
    assert C.d(0).rows == 1 and calls == [(1, 2)]
