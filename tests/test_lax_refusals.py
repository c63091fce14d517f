"""The refusals of a lax composition and of its checks, with and without
a memo that has already served a composition.

A memo keys tensor products and tensor-map blocks on the identity of
their operands, and block tables and index maps on windows and supports.
A cell or gluing complex that differs from a valid one only in its
values has the same supports, so each refusal below is asserted twice:
with a fresh memo, and with a memo that has composed the valid pair the
tampered one was made from.  A support key must never stand in for the
check of a value.
"""

import random

import pytest

from catcx.chain import ChainComplex, ChainMap, TensorMemo, tensor
from catcx.exactlin import DimensionError, Matrix
from catcx.laxmat import (Delta1ChainMatrix, compose_entry_span, lax_compose_delta1,
                          validate_delta1_matrix)
from helpers import random_lax_matrix


def augmented_pair():
    """A seeded augmented pair whose gluing complex and entries have a
    nonzero differential, so that doubling it changes a value and keeps
    every support."""
    rng = random.Random(139)
    m = random_lax_matrix(rng, "augmented")
    n = random_lax_matrix(rng, "augmented", g=m.g_tgt)
    for X in (m.g_tgt, n.entry(0, 1), m.entry(0, 1)):
        assert any(not d.is_zero() for d in X.diffs.values())
    return n, m


def doubled(X: ChainComplex) -> ChainComplex:
    return ChainComplex(X.lo, X.hi, X.dims, {k: d.scale(2) for k, d in X.diffs.items()})


def scaled(f: ChainMap, c: int = 2) -> ChainMap:
    return ChainMap(f.source, f.target, {k: m.scale(c) for k, m in f.comps.items()})


def with_(D: Delta1ChainMatrix, **fields) -> Delta1ChainMatrix:
    """D with some fields replaced; the others are D's own objects."""
    return Delta1ChainMatrix(**{name: fields.get(name, getattr(D, name))
                                for name in Delta1ChainMatrix.__slots__})


def fresh(n, m):
    return TensorMemo()


def composed(n, m):
    memo = TensorMemo()
    lax_compose_delta1(n, m, memo)
    return memo


MEMOS = pytest.mark.parametrize("memo_for", [fresh, composed], ids=["fresh", "composed"])


def test_the_untampered_pair_is_valid():
    n, m = augmented_pair()
    memo = composed(n, m)
    assert validate_delta1_matrix(n, memo) == [] and validate_delta1_matrix(m, memo) == []


@MEMOS
def test_a_missing_entry_is_reported(memo_for):
    n, m = augmented_pair()
    for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
        entries = {k: e for k, e in n.entries.items() if k != key}
        assert validate_delta1_matrix(with_(n, entries=entries), memo_for(n, m)) == [
            f"missing entry {key}"]


# 1 -> 1 -> 1 with both differentials the identity, so d.d != 0 at degree 2
NOT_A_COMPLEX = ChainComplex(0, 2, (1, 1, 1), {1: Matrix(1, 1, [1]), 2: Matrix(1, 1, [1])})


@MEMOS
def test_an_entry_or_gluing_complex_with_d_squared_nonzero_is_reported(memo_for):
    n, m = augmented_pair()
    # each is reported by name, then the first cell that no longer fits it
    for fields, want in (({"entries": {**n.entries, (1, 0): NOT_A_COMPLEX}},
                          ["entry (1, 0): d.d != 0 at degree 2", "cell_f0 has wrong endpoints"]),
                         ({"g_src": NOT_A_COMPLEX},
                          ["g_src: d.d != 0 at degree 2", "cell_0f has wrong endpoints"]),
                         ({"g_tgt": NOT_A_COMPLEX},
                          ["g_tgt: d.d != 0 at degree 2", "cell_f0 has wrong endpoints"])):
        assert validate_delta1_matrix(with_(n, **fields), memo_for(n, m)) == want


@MEMOS
def test_a_cell_whose_target_differs_only_in_values_has_wrong_endpoints(memo_for):
    n, m = augmented_pair()
    for D, side in ((n, "N"), (m, "M")):
        for name, t in (("cell_f0", (1, 0)), ("cell_0f", (0, 0)),
                        ("cell_f1", (1, 1)), ("cell_1f", (1, 0))):
            cell = getattr(D, name)
            wrong = ChainMap(cell.source, doubled(D.entry(*t)), dict(cell.comps))
            bad = with_(D, **{name: wrong})
            assert validate_delta1_matrix(bad, memo_for(n, m)) == [f"{name} has wrong endpoints"]
            pair = (bad, m) if side == "N" else (n, bad)
            with pytest.raises(DimensionError) as e:
                lax_compose_delta1(*pair, memo_for(n, m))
            assert str(e.value) == f"{name} has wrong endpoints"


@MEMOS
def test_an_entry_that_differs_only_in_values_is_refused(memo_for):
    n, m = augmented_pair()
    # cell_f0's source is g_tgt (x) E00, built by the memo, and cell_0f's
    # target is E00 itself; the memo must not hand back the old tensor
    bad = with_(n, entries={**n.entries, (0, 0): doubled(n.entry(0, 0))})
    assert validate_delta1_matrix(bad, memo_for(n, m)) == ["cell_f0 has wrong endpoints"]
    with pytest.raises(DimensionError) as e:
        lax_compose_delta1(bad, m, memo_for(n, m))
    assert str(e.value) == "cell_f0 has wrong endpoints"


@MEMOS
def test_a_square_that_does_not_commute_is_refused(memo_for):
    n, m = augmented_pair()
    for D, side in ((n, "left"), (m, "right")):
        # doubling cell_1f keeps it a chain map with the same supports, and
        # doubles one route of the square
        bad = with_(D, cell_1f=scaled(D.cell_1f))
        assert validate_delta1_matrix(bad, memo_for(n, m)) == ["structure square does not commute"]
        pair = (bad, m) if side == "left" else (n, bad)
        with pytest.raises(DimensionError) as e:
            lax_compose_delta1(*pair, memo_for(n, m))
        assert str(e.value) == f"span map: {side} square does not commute"


@MEMOS
def test_gluing_complexes_that_differ_only_in_values_are_refused(memo_for):
    n, m = augmented_pair()
    bad = with_(m, g_tgt=doubled(m.g_tgt))
    assert bad.g_tgt != n.g_src and bad.g_tgt.support == n.g_src.support
    # the first cell whose source is a tensor product with g_tgt
    assert validate_delta1_matrix(bad, memo_for(n, m)) == ["cell_f0 has wrong endpoints"]
    with pytest.raises(DimensionError) as e:
        lax_compose_delta1(n, bad, memo_for(n, m))
    assert str(e.value) == "composition needs N.g_src == M.g_tgt"
    for u in (0, 1):
        for s in (0, 1):
            with pytest.raises(DimensionError) as e:
                compose_entry_span(n, bad, u, s, memo_for(n, m))
            assert str(e.value) == "composition needs N.g_src == M.g_tgt"


@MEMOS
def test_an_entry_span_with_a_wrong_cell_source_is_refused(memo_for):
    n, m = augmented_pair()
    G = n.g_src
    for u, name in ((0, "cell_0f"), (1, "cell_1f")):
        cell = getattr(n, name)
        wrong = ChainMap(tensor(doubled(n.entry(u, 1)), G), cell.target, dict(cell.comps))
        bad = with_(n, **{name: wrong})
        for s in (0, 1):
            with pytest.raises(DimensionError) as e:
                compose_entry_span(bad, m, u, s, memo_for(n, m))
            assert str(e.value) == "span legs must share their apex"
    for s, name in ((0, "cell_f0"), (1, "cell_f1")):
        cell = getattr(m, name)
        wrong = ChainMap(tensor(G, doubled(m.entry(0, s))), cell.target, dict(cell.comps))
        bad = with_(m, **{name: wrong})
        for u in (0, 1):
            with pytest.raises(DimensionError) as e:
                compose_entry_span(n, bad, u, s, memo_for(n, m))
            assert str(e.value) == "chain map composition: middle complexes differ"
