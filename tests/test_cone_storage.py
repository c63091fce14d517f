"""Cones keep only what they return.

`sum_cone` stores a differential only in a degree where it places a block,
and gives the same complex, value and bytes, as on inputs with every zero
block given.  `catcx cone` builds no structure map and `cof` no
projection.  The outputs of `cone`, `cof`, `fib` and `cc2` are pinned by
sha256, on mostly-zero documents and on seeded maps.  The map checks look
only at degrees where a stored block meets a differential, so windows
10^15 degrees apart are checked at once.
"""

import hashlib
import json
import random
import time

from catcx import chain
from catcx.chain import (ChainComplex, ChainHomotopy, ChainMap, check_homotopy, cone,
                         cone_complex, homotopy_failures, sum_cone, zero_map)
from catcx.cli import run
from catcx.documents import serialize_document
from catcx.exactlin import Matrix
from catcx.laxmat import cof_action, fib_action
from catcx.simplex import cc2
from helpers import int_matrix, random_chain_map, random_complex
from test_derived_dims import run_capped


def counting(monkeypatch, *names):
    calls = {name: 0 for name in names}
    for name in names:
        def counted(*args, _f=getattr(chain, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(chain, name, counted)
    return calls


def test_cone_builds_no_structure_map_and_cof_no_projection(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "f.json"
    doc.write_text('{"components":{"0":[["0","0"]],"1":[["0","1"],["-2","2"]]},'
                   '"source":{"differentials":{"1":[["1","0"],["0","2"]]},"dims":[2,2],'
                   '"hi":1,"lo":0,"type":"chain_complex"},"target":{"differentials":'
                   '{"1":[["0","0"]]},"dims":[1,2],"hi":1,"lo":0,"type":"chain_complex"},'
                   '"type":"chain_map"}')
    calls = counting(monkeypatch, "inclusion", "projection")
    assert run(["cone", str(doc)]) == 0
    assert calls == {"inclusion": 0, "projection": 0}
    assert run(["cof", str(doc)]) == 0
    assert calls["projection"] == 0 and calls["inclusion"] > 0
    capsys.readouterr()


def test_cone_of_a_zero_map_between_bare_complexes_stores_nothing():
    A = ChainComplex(-1, 2, (3, 0, 2, 1))
    B = ChainComplex(0, 3, (1, 2, 2, 0))
    C = cone_complex(zero_map(A, B))
    assert C.diffs == {}
    assert (C.lo, C.hi) == (0, 3) and C.dims == (4, 2, 4, 1)


def explicit_complex(C: ChainComplex) -> ChainComplex:
    return ChainComplex(C.lo, C.hi, C.dims, {k: C.d(k) for k in range(C.lo + 1, C.hi + 1)})


def sparse(rng, blocks: dict) -> dict:
    return {k: m for k, m in blocks.items() if rng.random() < 0.5}


def test_sum_cone_stores_exactly_the_placed_blocks():
    rng = random.Random(31)
    seen_gap = 0
    for _ in range(80):
        A = random_complex(rng, max_len=4, max_dim=3)[0]
        A = ChainComplex(A.lo, A.hi, A.dims, sparse(rng, A.diffs))
        A_full = explicit_complex(A)
        legs, full_legs = [], []
        for sign in (1, -1)[:rng.randint(1, 2)]:
            T = random_complex(rng, max_len=4, max_dim=3)[0]
            T = ChainComplex(T.lo, T.hi, T.dims, sparse(rng, T.diffs))
            comps = sparse(rng, {k: int_matrix(rng, T.dim(k), A.dim(k)) for k in A.degrees()
                                 if T.dim(k) and A.dim(k)})
            legs.append((ChainMap(A, T, comps), sign))
            full = {k: comps.get(k, Matrix.zeros(T.dim(k), A.dim(k))) for k in A.degrees()}
            full_legs.append((ChainMap(A_full, explicit_complex(T), full), sign))
        got, want = sum_cone(legs), sum_cone(full_legs)
        placed = {k + 1 for k in A.diffs}
        for f, _ in legs:
            placed |= {k + 1 for k in f.comps} | set(f.target.diffs)
        # a block placed where degree k - 1 or k is zero has an empty shape, and is not built
        assert set(got.diffs) == {k for k in placed if got.dim(k - 1) and got.dim(k)}
        seen_gap += len(got.diffs) < got.hi - got.lo
        assert got == want
        assert serialize_document(got) == serialize_document(want)
    assert seen_gap > 20


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def empty_map(hi: int, dim: int) -> str:
    X = {"type": "chain_complex", "lo": 0, "hi": hi, "dims": [dim] * (hi + 1)}
    return json.dumps({"type": "chain_map", "source": X, "target": X, "components": {}})


# stdout sha256 before sum_cone stopped storing zero blocks
EMPTY_MAP_DIGESTS = [
    (("cone",), 3, 256, "0ad23d54509c2cc9cc620fdfdbb11197faf3f8173beb6e32247b9f78810f3ade"),
    (("cof",), 3, 256, "b62be8e0b3a4033cbd7088ce11d0c4c9f580da4bfb9700a9687f7cd291f30a74"),
    (("fib",), 3, 256, "6539454a856e2f800892276e62f158c08f171dd29190c3316d5e180ffa66a10e"),
    (("cc2", "twice"), 3, 64, "603f923afa1c302524553d693ea78c232291fa1ed568666fdeeec1b127b1eed5"),
]


def test_empty_map_outputs_are_unchanged(tmp_path):
    for argv, hi, dim, sha in EMPTY_MAP_DIGESTS:
        doc = tmp_path / f"e{hi}_{dim}.json"
        doc.write_text(empty_map(hi, dim))
        result, out, errors = run_capped(argv[0], *[str(doc)] * len(argv))
        assert result["code"] == 0 and errors == []
        assert digest(out) == sha, argv[0]


def seeded_maps(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        x0, x1, x2 = (random_complex(rng, max_len=4, max_dim=3)[0] for _ in range(3))
        yield random_chain_map(rng, x0, x1), random_chain_map(rng, x1, x2)


# sha256 of the 30 outputs joined, taken the same way before the change
SEEDED_DIGESTS = {
    "cone": "11b12f804e82999758f516e17a04814685b1a205cb7279fafd5d676e79de7fcb",
    "cof": "d2f15c8b02b39364c06c8929db00dd4d1a665dcdc132c9070ac22076ad4afe20",
    "fib": "803ab06378760f3cb61874f1595a69a69c2777add0dc2b94a76031f19d3952f8",
    "cc2": "9c7975a29a3a435d52c53bd9aef56649c970748d33f795f0e8e064b1b220365d",
}


def test_seeded_outputs_are_unchanged():
    texts = {name: [] for name in SEEDED_DIGESTS}
    for u, v in seeded_maps(32, 30):
        texts["cone"].append(serialize_document(cone(u).complex))
        texts["cof"].append(serialize_document(cof_action(u)))
        texts["fib"].append(serialize_document(fib_action(u)))
        texts["cc2"].append(serialize_document(cc2(u, v).total))
    assert {name: digest("".join(t)) for name, t in texts.items()} == SEEDED_DIGESTS


def test_validate_of_windows_far_apart_is_immediate(tmp_path):
    doc = tmp_path / "gap.json"
    doc.write_text(json.dumps({
        "type": "chain_map", "components": {},
        "source": {"type": "chain_complex", "lo": 0, "hi": 0, "dims": [1]},
        "target": {"type": "chain_complex", "lo": 10**15, "hi": 10**15, "dims": [1]}},
        separators=(",", ":")))
    assert len(doc.read_bytes()) == 184
    result, out, errors = run_capped("validate", str(doc))
    assert result["code"] == 0 and errors == []
    assert result["seconds"] < 1
    assert json.loads(out) == {"doc_type": "chain_map", "problems": [], "type": "report",
                               "valid": True}


def test_map_checks_match_the_check_over_the_whole_window():
    rng = random.Random(33)
    seen_invalid = seen_failing = 0
    for _ in range(150):
        A, B = (random_complex(rng, max_len=4, max_dim=3, lo_range=(-1, 1))[0] for _ in "AB")
        f, g = (ChainMap(A, B, sparse(rng, {k: int_matrix(rng, B.dim(k), A.dim(k))
                                            for k in A.degrees()})) for _ in "fg")
        h = ChainHomotopy(A, B, sparse(rng, {k: int_matrix(rng, B.dim(k + 1), A.dim(k))
                                             for k in A.degrees()}))
        window = range(min(A.lo, B.lo), max(A.hi, B.hi) + 1)
        report = f.validate()
        assert report == [f"does not commute with differentials at degree {k}"
                          for k in window[1:] if B.d(k) * f.f(k) != f.f(k - 1) * A.d(k)]
        failing = list(homotopy_failures(f, g, h))
        assert failing == [k for k in window
                           if g.f(k) - f.f(k) != B.d(k + 1) * h.h(k) + h.h(k - 1) * A.d(k)]
        seen_invalid += bool(report)
        seen_failing += bool(failing)
    assert seen_invalid > 20 and seen_failing > 20


def test_homotopy_check_of_windows_far_apart():
    # 10^8 degrees apart: a walk over the gap would take seconds
    gap = 10**8
    A = ChainComplex(0, 1, (1, 1), {1: Matrix(1, 1, [1])})
    B = ChainComplex(gap, gap + 1, (2, 1), {gap + 1: Matrix(2, 1, [1, -1])})
    f = zero_map(A, B)
    t = time.perf_counter()
    assert f.validate() == []
    assert check_homotopy(f, f, ChainHomotopy(A, B))
    assert time.perf_counter() - t < 1
