"""ChainMap `+` and `-` build no zero blocks.

A degree stored on one side only is copied (negated for `-`), not added to
a zero matrix; the sums and differences are the degreewise ones, and the
endpoint errors keep their texts.
"""

import random

import pytest

from catcx.chain import ChainComplex, ChainMap
from catcx.exactlin import DimensionError, Matrix
from helpers import int_matrix, random_chain_map, random_complex
from test_stored_components import count_zeros


def test_disjoint_degrees_make_no_zero_matrix(monkeypatch):
    A = ChainComplex(0, 1, [3, 3], {1: Matrix.identity(3)})
    f = ChainMap(A, A, {0: Matrix.identity(3)})
    g = ChainMap(A, A, {1: Matrix.identity(3).scale(2)})
    calls = count_zeros(monkeypatch)
    s, d = f + g, f - g
    assert calls == []
    assert s.comps == {0: Matrix.identity(3), 1: Matrix.identity(3).scale(2)}
    assert d.comps == {0: Matrix.identity(3), 1: Matrix.identity(3).scale(-2)}
    assert (g - f).comps == {0: Matrix.identity(3).scale(-1), 1: Matrix.identity(3).scale(2)}


def test_sums_and_differences_are_degreewise():
    rng = random.Random(31)
    for _ in range(60):
        A, _ = random_complex(rng, max_len=3, max_dim=3)
        B, _ = random_complex(rng, max_len=3, max_dim=3)
        f, g = random_chain_map(rng, A, B), random_chain_map(rng, A, B)
        # drop some stored degrees, so that many are stored on one side only
        f = ChainMap(A, B, {k: m for k, m in f.comps.items() if rng.random() < 0.6})
        g = ChainMap(A, B, {k: m for k, m in g.comps.items() if rng.random() < 0.6})
        for h, op in ((f + g, Matrix.__add__), (f - g, Matrix.__sub__)):
            assert h == ChainMap(A, B, {k: op(f.f(k), g.f(k)) for k in A.degrees()})
            assert h.comps.keys() == f.comps.keys() | g.comps.keys()


def test_endpoint_errors_keep_their_texts():
    A = ChainComplex(0, 0, [2])
    B = ChainComplex(0, 0, [3])
    f = ChainMap(A, A, {0: int_matrix(random.Random(1), 2, 2)})
    g = ChainMap(A, B, {})
    with pytest.raises(DimensionError, match="^chain map addition: endpoints differ$"):
        f + g
    with pytest.raises(DimensionError, match="^chain map subtraction: endpoints differ$"):
        f - g
