"""Künneth identities over Q for tensor, hom-complex and the dual.

Over a field, homology commutes with these constructions (Weibel, *An
Introduction to Homological Algebra*, 1994, §3.6):

  dim H_n(A (x) B)    = sum_i dim H_i(A) * dim H_{n-i}(B)
  dim H_n(Map(A, B))  = sum_i dim H_i(A) * dim H_{n+i}(B)
  dim H_{-i}(dual(A)) = dim H_i(A)

`helpers.random_complex` knows each complex's homology by construction,
so these are checked against an answer the library never computes: they
can catch an error that an older implementation shares, which a comparison
with it cannot.
"""

import json
import random

from catcx.chain import dual, hom_complex, homology_dims, tensor
from catcx.cli import run
from catcx.documents import serialize_document
from helpers import random_complex
from test_hom_as_tensor import rational


def cases(seed: int, count: int):
    """(A, H(A), B, H(B)), some with rational entries."""
    rng = random.Random(seed)
    for _ in range(count):
        (A, hA), (B, hB) = (random_complex(rng, max_len=4, max_dim=3) for _ in range(2))
        if rng.random() < 0.3:
            A, B = rational(rng, A), rational(rng, B)
        yield A, hA, B, hB


def tensor_homology(hA: dict, hB: dict) -> dict:
    return {n: sum(a * hB.get(n - i, 0) for i, a in hA.items())
            for n in range(min(hA) + min(hB), max(hA) + max(hB) + 1)}


def hom_homology(hA: dict, hB: dict) -> dict:
    return {n: sum(a * hB.get(n + i, 0) for i, a in hA.items())
            for n in range(min(hB) - max(hA), max(hB) - min(hA) + 1)}


def test_tensor():
    for A, hA, B, hB in cases(2511, 300):
        assert homology_dims(tensor(A, B)) == tensor_homology(hA, hB)


def test_hom_complex():
    for A, hA, B, hB in cases(2512, 300):
        assert homology_dims(hom_complex(A, B)) == hom_homology(hA, hB)


def test_dual():
    for A, hA, _, _ in cases(2513, 300):
        assert homology_dims(dual(A)) == {-i: h for i, h in sorted(hA.items(), reverse=True)}


def test_through_the_cli(tmp_path):
    # one call's output file is the next call's input
    A, hA, B, hB = next(c for c in cases(2514, 50) if any(c[1].values()) and any(c[3].values()))
    left, right = tmp_path / "a.json", tmp_path / "b.json"
    left.write_text(serialize_document(A))
    right.write_text(serialize_document(B))
    for command, want in (("tensor", tensor_homology(hA, hB)),
                          ("hom-complex", hom_homology(hA, hB))):
        built, homology = tmp_path / f"{command}.json", tmp_path / f"{command}-h.json"
        assert run([command, str(left), str(right), "--output", str(built)]) == 0
        assert run(["homology", str(built), "--output", str(homology)]) == 0
        assert json.loads(homology.read_text())["dims"] == {str(n): h for n, h in want.items()}
        assert any(want.values())
