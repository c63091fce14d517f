"""The per-composition tensor memo, equality fast paths, the shared
map/homotopy body, and the integer Euler characteristic."""

import copy
import gc
import random

import pytest

import catcx.chain
import catcx.laxmat
from catcx.chain import (ChainComplex, ChainHomotopy, ChainMap, TensorMemo,
                         euler_characteristic, tensor)
from catcx.exactlin import DimensionError, Matrix
from catcx.laxmat import lax_compose_delta1, validate_delta1_matrix
from helpers import random_chain_map, random_lax_matrix, small_complex


def lax_pair(seed):
    rng = random.Random(seed)
    m = random_lax_matrix(rng)
    return random_lax_matrix(rng, g=m.g_tgt), m


def same_matrix(a, b):
    assert a.g_src == b.g_src and a.g_tgt == b.g_tgt and a.entries == b.entries
    for cell in ("cell_f0", "cell_0f", "cell_f1", "cell_1f"):
        assert getattr(a, cell) == getattr(b, cell)


def test_consecutive_compositions_agree():
    for seed in range(8):
        n, m = lax_pair(seed)
        same_matrix(lax_compose_delta1(n, m), lax_compose_delta1(n, m))


def test_composition_of_equal_but_distinct_inputs_agrees():
    for seed in range(8):
        n, m = lax_pair(seed)
        n2, m2 = copy.deepcopy(n), copy.deepcopy(m)
        assert n2.g_src is not n.g_src and n2.g_src is not m2.g_tgt
        out = lax_compose_delta1(n2, m2)
        same_matrix(out, lax_compose_delta1(n, m))
        assert validate_delta1_matrix(out) == []


def module_state(module):
    return {name: (type(v), len(v)) for name, v in vars(module).items()
            if isinstance(v, (dict, list, set))}


def test_no_memo_outlives_a_composition():
    before = [module_state(catcx.chain), module_state(catcx.laxmat)]
    n, m = lax_pair(3)
    lax_compose_delta1(n, m)
    validate_delta1_matrix(n)
    gc.collect()
    assert [module_state(catcx.chain), module_state(catcx.laxmat)] == before
    assert not any(isinstance(v, TensorMemo) for module in (catcx.chain, catcx.laxmat)
                   for v in vars(module).values())
    assert not any(isinstance(o, TensorMemo) for o in gc.get_objects())


def test_memo_keys_on_identity():
    rng = random.Random(5)
    a, b = small_complex(rng), small_complex(rng)
    a2 = ChainComplex(a.lo, a.hi, a.dims, dict(a.diffs))
    memo = TensorMemo()
    t = memo.tensor(a, b)
    assert memo.tensor(a, b) is t
    assert memo.tensor(a2, b) is not t
    assert memo.tensor(a2, b) == t == tensor(a, b)


def changed(m: Matrix) -> Matrix:
    e = list(m._e)
    e[0] += m._d
    return Matrix._of(m.rows, m.cols, e, m._d)


def test_equal_but_distinct_objects_compare_equal_and_one_entry_breaks_it():
    rng = random.Random(11)
    checked = 0
    while checked < 10:
        a, b = small_complex(rng), small_complex(rng)
        f = random_chain_map(rng, a, b)
        a2 = ChainComplex(a.lo, a.hi, a.dims, dict(a.diffs))
        b2 = ChainComplex(b.lo, b.hi, b.dims, dict(b.diffs))
        f2 = ChainMap(a2, b2, dict(f.comps))
        h = ChainHomotopy(a, b, {k: Matrix.zeros(b.dim(k + 1), a.dim(k)) for k in a.degrees()})
        h2 = ChainHomotopy(a2, b2, dict(h.comps))
        assert a == a2 and f == f2 and h == h2 and a is not a2
        assert a == a and f == f and h == h
        k = next((k for k, d in a.diffs.items() if d.rows and d.cols), None)
        if k is None or not f.comps or not h.comps:
            continue
        a3 = ChainComplex(a.lo, a.hi, a.dims, {**a.diffs, k: changed(a.diffs[k])})
        assert a3 != a and ChainMap(a3, b, dict(f.comps)) != f
        j = next(iter(f.comps))
        assert ChainMap(a, b, {**f.comps, j: changed(f.comps[j])}) != f
        i = next(iter(h.comps))
        assert ChainHomotopy(a, b, {**h.comps, i: changed(h.comps[i])}) != h
        checked += 1


def test_maps_and_homotopies_keep_their_shape_errors():
    a = ChainComplex(0, 1, (1, 2))
    b = ChainComplex(0, 1, (2, 1))
    with pytest.raises(DimensionError) as e:
        ChainMap(a, b, {0: Matrix.zeros(1, 1)})
    assert str(e.value) == "chain map component at degree 0 has shape 1x1, expected 2x1"
    with pytest.raises(DimensionError) as e:
        ChainHomotopy(a, b, {0: Matrix.zeros(2, 1)})
    assert str(e.value) == "homotopy component at degree 0 has shape 2x1, expected 1x1"
    assert ChainHomotopy(a, b).h(1).rows == 0 and ChainMap(a, b).f(1).rows == 1
    assert ChainMap(a, b) != ChainHomotopy(a, b)
    assert repr(ChainHomotopy(a, b)).startswith("ChainHomotopy(")


def test_euler_characteristic_is_an_int_on_negative_degrees():
    assert euler_characteristic(ChainComplex(-2, 0, (1, 2, 3))) == 2
    for lo in range(-5, 3):
        for dims in ((1,), (3, 1), (1, 2, 3), (0, 4, 0, 2)):
            chi = euler_characteristic(ChainComplex(lo, lo + len(dims) - 1, dims))
            assert type(chi) is int
            assert chi == sum(d if (lo + i) % 2 == 0 else -d for i, d in enumerate(dims))
