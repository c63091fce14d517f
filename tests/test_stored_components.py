"""Chain maps and homotopies store only the components they are given.

An absent component is zero.  Every check and construction gives the same
result on maps with absent components as on the same maps with each zero
component given, the writer writes each absent component of a non-empty
shape as a zero matrix, so documents keep their bytes, and neither
constructor builds a zero matrix.  `totalize` sizes its result before
building it, as `tensor` and `hom-complex` do.
"""

import hashlib
import json
import random

import pytest

from catcx.chain import (ChainComplex, ChainHomotopy, ChainMap, check_homotopy, cone,
                         cone_complex, cone_map, homotopy_failures, tensor, tensor_map,
                         zero_map)
from catcx.documents import parse_document, serialize_document
from catcx.exactlin import DimensionError, Matrix
from catcx.laxmat import Delta1ChainMatrix, validate_delta1_matrix
from catcx.multicplx import ChainCube, unfold_cube, validate_chain_cube
from catcx.perverse import SheafEncoding, encode_sheaf, encode_sheaf_flag, verify_encoding
from helpers import (int_matrix, random_chain_map, random_complex, random_disk, random_flag,
                     random_lax_matrix, small_complex)
from test_derived_dims import run_capped


def count_zeros(monkeypatch) -> list:
    """The shapes of the `Matrix.zeros` calls made from now on."""
    calls = []
    zeros = Matrix.zeros.__func__

    def counted(cls, rows, cols):
        calls.append((rows, cols))
        return zeros(cls, rows, cols)

    monkeypatch.setattr(Matrix, "zeros", classmethod(counted))
    return calls


# -- the constructors build no zero matrix --------------------------------------

def test_constructors_build_no_zero_matrix(monkeypatch):
    calls = count_zeros(monkeypatch)
    wide = ChainComplex(0, 511, [512] * 512)
    ChainMap(wide, wide)
    ChainHomotopy(wide, wide, {3: None})
    A = ChainComplex(0, 2, [1, 2, 0])
    B = ChainComplex(-1, 1, [2, 0, 1])
    f = ChainMap(A, B, {2: Matrix(0, 0, []), 0: Matrix(0, 1, []), 7: Matrix(3, 3, [0] * 9)})
    h = ChainHomotopy(A, B, {0: Matrix(1, 1, [5]), -1: Matrix(0, 0, [])})
    assert calls == []
    assert f.comps == {} and list(h.comps) == [0]
    assert f.f(2).rows == 0 and calls == [(0, 0)]
    assert h.h(-1) == Matrix.zeros(0, 0)


def test_shape_errors_are_raised_lowest_degree_first():
    A = ChainComplex(0, 1, [1, 2])
    with pytest.raises(DimensionError, match="^chain map component at degree 0 has shape "
                                             "2x1, expected 1x1$"):
        ChainMap(A, A, {1: Matrix(1, 1, [1]), 0: Matrix(2, 1, [1, 1])})
    with pytest.raises(DimensionError, match="^homotopy component at degree 0 has shape "
                                             "1x1, expected 2x1$"):
        ChainHomotopy(A, A, {0: Matrix(1, 1, [1])})


def test_validate_of_a_map_of_512_degrees_without_components(tmp_path):
    C = {"type": "chain_complex", "lo": 0, "hi": 511, "dims": [512] * 512}
    doc = tmp_path / "f.json"
    doc.write_text(json.dumps({"type": "chain_map", "source": C, "target": C}))
    result, out, errors = run_capped("validate", str(doc))
    assert result["code"] == 0 and errors == []
    assert result["seconds"] < 1
    assert json.loads(out)["valid"] is True


# -- equality and hashing -------------------------------------------------------

def explicit(f):
    """f with every component of a non-empty shape given, zero ones included."""
    window = range(min(f.source.lo, f.target.lo - 1), max(f.source.hi, f.target.hi) + 1)
    full = type(f)(f.source, f.target, {k: f._comp(k) for k in window})
    assert all(m.rows and m.cols for m in full.comps.values())
    return full


def test_absent_and_explicit_zero_components_are_one_map():
    rng = random.Random(11)
    seen = 0
    for _ in range(40):
        A, B = complexes(rng)
        f, g = zero_map(A, B), explicit(zero_map(A, B))
        seen += len(g.comps) > 0
        assert f.comps == {} and f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert seen > 20


OMITTED_MAP = {
    "type": "chain_map",
    "source": {"type": "chain_complex", "lo": 0, "hi": 2, "dims": [1, 2, 1],
               "differentials": {"1": [["1", "-1"]], "2": [["1"], ["1"]]}},
    "target": {"type": "chain_complex", "lo": -1, "hi": 1, "dims": [1, 1, 2]},
    "components": {"1": [["2", "0"], ["0", "1"]], "2": []}}


def test_a_parsed_map_hashes_as_its_written_form():
    f = parse_document(json.dumps(OMITTED_MAP))
    g = parse_document(serialize_document(f))
    assert list(f.comps) == [1] and list(g.comps) == [0, 1]
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1


# -- the writer -------------------------------------------------------------------

def complex_doc(lo, dims, diffs=None):
    return {"type": "chain_complex", "lo": lo, "hi": lo + len(dims) - 1, "dims": dims,
            "differentials": diffs or {}}


UNIT = complex_doc(0, [1])

# Documents with omitted components, and the sha256 of the parent's bytes
# for each, compact and indented.
OMITTED = {
    "chain_map": (OMITTED_MAP,
                  "2fd8e8f6792bd39d89d5a40e2eafe344d8259030bcf91c285ef5329ef7a9546c",
                  "c02748a41dd561a00a0da169d644cdfaae809e9dffe8ad0c9143de652bee4ac2"),
    "chain_homotopy": ({
        "type": "chain_homotopy",
        "source": complex_doc(0, [2, 1], {"1": [["1"], ["-1"]]}),
        "target": complex_doc(0, [1, 1, 2]),
        "components": {"1": [["1"], ["-1"]]}},
        "5af8c5a2cda9be2505d8d5f78ffee3b47cf5ceea0ab75eb78399819bfe2c0451",
        "60643f1f6e133c58a9370bbe1f5677d280aeb1b5a1db4ecfc1fc73217bb4426d"),
    "chain_cube": ({
        "type": "chain_cube", "n": 2,
        "vertices": {"": complex_doc(0, [1, 2]), "1": complex_doc(0, [2, 1]),
                     "2": complex_doc(1, [1]), "1,2": complex_doc(0, [1, 1], {"1": [["3"]]})},
        "edges": {"1": {"1": {"1": [["1"], ["0"]]}, "1,2": {}},
                  "2": {"2": {}, "1,2": {"0": [["1"], ["0"]]}}}},
        "13b6961db9bdd532c1ece1269873b4d646aabf7b93a0a8b1d28347cfd2d9b28c",
        "1e970640393cec006fc941499eb5a3aa059fcd68c0b45e587432bbb16a9ff2ab"),
    "sheaf_encoding": ({
        "type": "sheaf_encoding", "dual": False,
        "stalks": [complex_doc(0, [1, 1], {"1": [["2"]]}), complex_doc(1, [1])],
        "maps": [{}], "monodromies": [{"1": [["1"]]}], "homotopies": [{}]},
        "bd3dc835b58908a21ab928fe25fab367614aaa4446241a141c200ed11c0f586d",
        "27c9afc969bf874819d4dc927deba2c0ca204983340e29b6046c2dbeef7d9d16"),
    "delta1_chain_matrix": ({
        "type": "delta1_chain_matrix", "g_src": UNIT, "g_tgt": complex_doc(0, [1, 1]),
        "entries": {"0,0": complex_doc(0, [2]), "0,1": UNIT, "1,0": complex_doc(0, [1, 2]),
                    "1,1": complex_doc(0, [2, 1])},
        "cells": {"f0": {"0": [["1", "0"]]}, "0f": {}, "f1": {"1": [["1"]]}, "1f": {}}},
        "d2b3ad8e2f5f1bbb1737742d1b7ebb8ead50548319457352fa7d3259df361182",
        "5d7be1b79ba25f1fab2949428ebf2c4d28a062a03a9c55e28bfd3b20089ed5c9"),
}


@pytest.mark.parametrize("tag", sorted(OMITTED))
def test_omitted_components_are_written_as_zero_blocks(tag):
    doc, compact, pretty = OMITTED[tag]
    x = parse_document(json.dumps(doc))
    for text, digest in ((serialize_document(x), compact),
                         (serialize_document(x, pretty=True), pretty)):
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert serialize_document(parse_document(text)) == serialize_document(x)


# -- absent components against explicit zero components ---------------------------

def sparse(rng, f, keep=0.5):
    """f with about half of its components made zero by leaving them out."""
    return type(f)(f.source, f.target, {k: m for k, m in f.comps.items() if rng.random() < keep})


def arbitrary(rng, A, B, cls=ChainMap):
    """Random components, so that f is mostly not a chain map."""
    deg = int(cls is ChainHomotopy)
    return cls(A, B, {k: int_matrix(rng, B.dim(k + deg), A.dim(k), 2) for k in A.degrees()})


def same(x, y) -> bool:
    return serialize_document(x) == serialize_document(y)


def complexes(rng):
    C = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))[0]
    D = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))[0]
    return C, D


def a_map(rng, A, B):
    return arbitrary(rng, A, B) if rng.random() < 0.5 else random_chain_map(rng, A, B)


def test_checks_and_arithmetic_agree_with_explicit_zero_components():
    rng = random.Random(21)
    seen_absent = seen_problems = seen_homotopic = 0
    for _ in range(80):
        A, B = complexes(rng)
        f, g = sparse(rng, arbitrary(rng, A, B)), sparse(rng, a_map(rng, A, B))
        F, G = explicit(f), explicit(g)
        seen_absent += len(f.comps) < len(F.comps)
        assert f.validate() == F.validate()
        seen_problems += bool(f.validate())
        assert same(f + g, F + G) and same(f - g, F - G) and same(-f, -F)
        C = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))[0]
        e = sparse(rng, a_map(rng, B, C))
        assert same(e.compose(f), explicit(e).compose(F))
        h = sparse(rng, arbitrary(rng, A, B, ChainHomotopy))
        H = explicit(h)
        assert list(homotopy_failures(f, g, h)) == list(homotopy_failures(F, G, H))
        assert check_homotopy(f, g, h) == check_homotopy(F, G, H)
        # g' = f + dh + hd, with its zero components left out
        dh = {k: f.f(k) + B.d(k + 1) * h.h(k) + h.h(k - 1) * A.d(k) for k in A.degrees()}
        g2 = ChainMap(A, B, {k: m for k, m in dh.items() if not m.is_zero()})
        assert check_homotopy(f, g2, h) and check_homotopy(F, explicit(g2), H)
        seen_homotopic += len(g2.comps) < len(explicit(g2).comps)
    assert seen_absent > 20 and seen_problems > 8 and seen_homotopic > 15


def tensor_oracle(f, g):
    """f (x) g placed by hand: degree n is block diagonal over i, with the
    block f_i (x) g_{n-i} (a complex standing for its identity)."""
    def ends(x):
        return (x, x) if isinstance(x, ChainComplex) else (x.source, x.target)

    def comp(x, k):
        return Matrix.identity(x.dim(k)) if isinstance(x, ChainComplex) else x.f(k)

    (A, C), (B, D) = ends(f), ends(g)
    comps = {}
    for n in range(A.lo + B.lo, A.hi + B.hi + 1):
        blocks, r, c = [], 0, 0
        for i in range(min(A.lo, C.lo), max(A.hi, C.hi) + 1):
            blocks.append((r, c, comp(f, i).kron(comp(g, n - i))))
            r, c = r + C.dim(i) * D.dim(n - i), c + A.dim(i) * B.dim(n - i)
        comps[n] = Matrix.from_blocks(r, c, blocks)
    return ChainMap(tensor(A, B), tensor(C, D), comps)


def test_tensor_maps_agree_with_explicit_zero_components():
    rng = random.Random(22)
    seen_absent = 0
    for _ in range(60):
        (A, B), (C, D) = complexes(rng), complexes(rng)
        f, g = sparse(rng, a_map(rng, A, B)), sparse(rng, a_map(rng, C, D))
        seen_absent += len(f.comps) < len(explicit(f).comps)
        for x, y in ((f, g), (A, g), (f, C)):
            X = x if x is A else explicit(x)
            Y = y if y is C else explicit(y)
            got = tensor_map(x, y)
            assert same(got, tensor_map(X, Y)) and same(got, tensor_oracle(x, y))
    assert seen_absent > 20


def test_cones_agree_with_explicit_zero_components():
    rng = random.Random(23)
    for _ in range(60):
        (A, B), (A2, B2) = complexes(rng), complexes(rng)
        f, f2 = sparse(rng, a_map(rng, A, B)), sparse(rng, a_map(rng, A2, B2))
        F, F2 = explicit(f), explicit(f2)
        c, C = cone(f), cone(F)
        assert same(c.complex, C.complex) and same(c.from_target, C.from_target)
        assert same(c.to_shifted_source, C.to_shifted_source)
        a, b = sparse(rng, a_map(rng, A, A2)), sparse(rng, a_map(rng, B, B2))
        src, tgt = cone_complex(f), cone_complex(f2)
        assert same(cone_complex(f2), cone_complex(F2))
        assert same(cone_map(src, tgt, (a, b)),
                    cone_map(cone_complex(F), cone_complex(F2), (explicit(a), explicit(b))))
        g = sparse(rng, a_map(rng, A, B2))
        assert same(cone_map(src, cone_complex(g), (A, b)),
                    cone_map(cone_complex(F), cone_complex(explicit(g)), (A, explicit(b))))


def random_square_cube(rng, full: bool) -> ChainCube:
    """A 2-cube of small complexes with random edges, absent components
    left out unless full."""
    V = {J: small_complex(rng, max_len=2, max_dim=2)
         for J in map(frozenset, ((), (1,), (2,), (1, 2)))}
    edges = {i: {} for i in (1, 2)}
    for J in V:
        for i in J:
            e = sparse(rng, arbitrary(rng, V[J], V[J - {i}]), keep=0.7)
            edges[i][J] = explicit(e) if full else e
    return ChainCube(2, V, edges)


def test_cubes_agree_with_explicit_zero_components():
    seen_problems = 0
    for seed in range(60):
        Q, Q_full = random_square_cube(random.Random(seed), False), \
            random_square_cube(random.Random(seed), True)
        report = validate_chain_cube(Q)
        assert report == validate_chain_cube(Q_full)
        seen_problems += bool(report)
        assert same(unfold_cube(Q), unfold_cube(Q_full))
        assert same(Q, Q_full)
    assert seen_problems > 8


def sparse_encoding(rng, E: SheafEncoding, full: bool) -> SheafEncoding:
    def thin(f):
        # leave out the zero components, and some others
        kept = type(f)(f.source, f.target, {k: m for k, m in f.comps.items()
                                            if not m.is_zero() and rng.random() < 0.8})
        return explicit(kept) if full else kept
    return SheafEncoding(E.dual, E.stalks, [thin(m) for m in E.maps],
                         [thin(t) for t in E.monodromies], [thin(h) for h in E.homotopies])


def test_encodings_agree_with_explicit_zero_components():
    seen_problems = seen_valid = 0
    for seed in range(60):
        rng = random.Random(seed)
        E = (encode_sheaf(random_disk(rng, max_dim=3), dual=bool(seed % 3)) if seed % 2
             else encode_sheaf_flag(random_flag(rng, max_n=3, max_dim=3)))
        state = rng.getstate()
        S = sparse_encoding(rng, E, False)
        rng.setstate(state)
        S_full = sparse_encoding(rng, E, True)
        report = verify_encoding(S)
        assert report == verify_encoding(S_full)
        assert same(S, S_full)
        seen_problems += bool(report)
        seen_valid += not report
    assert seen_problems > 10 and seen_valid > 10


CELLS = ("cell_f0", "cell_0f", "cell_f1", "cell_1f")


def test_lax_matrices_agree_with_explicit_zero_components():
    seen_problems = seen_valid = 0
    for seed in range(40):
        rng = random.Random(seed)
        N = random_lax_matrix(rng, ("corner", "augmented", "spread")[seed % 3])
        cells = [getattr(N, name) for name in CELLS]
        if seed % 2:
            cells = [sparse(rng, c, keep=0.8) for c in cells]
        else:
            cells = [type(c)(c.source, c.target, {k: m for k, m in c.comps.items()
                                                  if not m.is_zero()}) for c in cells]
        S = Delta1ChainMatrix(N.g_src, N.g_tgt, N.entries, *cells)
        S_full = Delta1ChainMatrix(N.g_src, N.g_tgt, N.entries, *map(explicit, cells))
        report = validate_delta1_matrix(S)
        assert report == validate_delta1_matrix(S_full)
        assert same(S, S_full)
        seen_problems += bool(report)
        seen_valid += not report
    assert seen_problems > 5 and seen_valid > 5


# -- totalize sizes its result before building it -----------------------------------

def test_a_wide_totalization_exits_2_fast(tmp_path):
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({
        "type": "multicomplex", "n": 2, "support": {"lo": [0, 0], "hi": [21, 21]},
        "dims": {f"{a},{b}": 512 for a in range(22) for b in range(22)}}))
    result, out, errors = run_capped("totalize", str(doc))
    assert result["code"] == 2
    assert result["seconds"] < 1
    assert out == ""
    assert errors == ["error: $: the result has dimension 1024 in degree 1, "
                      "which exceeds CATCX_MAX_DIM=512"]


def test_a_raised_cap_admits_the_same_totalization(tmp_path):
    doc = tmp_path / "m.json"
    doc.write_text('{"type":"multicomplex","n":2,"support":{"lo":[0,0],"hi":[1,1]},'
                   '"dims":{"0,0":3,"1,0":4,"0,1":5,"1,1":2}}')
    result, out, _ = run_capped("totalize", str(doc), env_extra={"CATCX_MAX_DIM": "9"})
    assert result["code"] == 0 and json.loads(out)["dims"] == [3, 9, 2]
    result, out, errors = run_capped("totalize", str(doc), env_extra={"CATCX_MAX_DIM": "8"})
    assert result["code"] == 2 and out == ""
    assert errors == ["error: $: the result has dimension 9 in degree 1, "
                      "which exceeds CATCX_MAX_DIM=8"]
