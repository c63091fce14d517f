"""koszul() checks d.d = 0 by the pairwise commutators of the lambdas.

The product check it replaced is kept in `koszul_reference.py`: on
commutative and non-commutative structure constants, with zero, integer
and p/q lambdas, both must raise the same error text or build the same
complex.  Every algebra that passes `validate()` makes every pair commute,
so neither `koszul()` nor `duality_iso()` raises on one; that includes the
zero algebra, whose duality maps realize to 0 x 0 identities.
"""

from fractions import Fraction
from itertools import combinations
import json

import pytest
from hypothesis import given, settings, strategies as st

from catcx.cli import run
from catcx.exactlin import Matrix
from catcx.koszul import (AlgebraError, FDAlgebra, KoszulDualityError, duality_iso, koszul,
                          monomial_algebra, realize)
import koszul_reference as ref

SCALARS = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), "3/4"])

# x * y = 0 but y * x = x on the basis (x, y)
NONCOMMUTATIVE = FDAlgebra(2, [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], [1, 0])
ZERO_ALGEBRA = FDAlgebra(0, [], [])


def _outcome(build, algebra, lambdas):
    try:
        K = build(algebra, lambdas)
    except AlgebraError as e:
        return "AlgebraError", str(e)
    return K.lambdas, K.basis, K.sym_d


@st.composite
def structures(draw):
    """dim and structure constants, symmetric in (i, j) or not."""
    m = draw(st.integers(1, 3))
    c = [[[draw(SCALARS) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    if draw(st.booleans()):
        c = [[c[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
    return m, c


@settings(max_examples=150, deadline=None)
@given(structure=structures(), data=st.data())
def test_commutators_match_the_product_check(structure, data):
    m, c = structure
    A = FDAlgebra(m, c, [1] + [0] * (m - 1))
    lambdas = data.draw(st.lists(st.lists(SCALARS, min_size=m, max_size=m),
                                 min_size=1, max_size=6))
    got = _outcome(koszul, A, lambdas)
    assert got == _outcome(ref.koszul, A, lambdas)
    commute = all(A.mult(A.element(a), A.element(b)) == A.mult(A.element(b), A.element(a))
                  for a, b in combinations(lambdas, 2))
    assert (got[0] != "AlgebraError") == commute


@pytest.mark.parametrize("n", range(2, 7))
def test_every_pair_is_checked(n):
    # only the lambdas at positions a and b fail to commute; the rest are
    # zero, or the unit, which commute with everything
    x, y = (1, 0), (0, 1)
    for a, b in combinations(range(n), 2):
        for filler in ((0, 0), (1, 0)):
            lambdas = [filler] * n
            lambdas[a], lambdas[b] = x, y
            want = ("AlgebraError", "Koszul differential does not square to zero at degree 2")
            assert _outcome(koszul, NONCOMMUTATIVE, lambdas) == want
            assert _outcome(ref.koszul, NONCOMMUTATIVE, lambdas) == want


def _quadratic():
    """Q[x] / (x^2 - 1/2) on the basis (2, x): p/q structure constants and unit."""
    s, c = Fraction(2), Fraction(1, 2)
    return FDAlgebra(2, [[[s, 0], [0, s]], [[0, s], [c / s, 0]]], [1 / s, 0])


def _valid_algebras():
    q_x, _ = monomial_algebra(1, (3,))
    q_xy, _ = monomial_algebra(2, (2, 2))
    product = FDAlgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])  # Q x Q
    return [FDAlgebra.rationals(), q_x, q_xy, product, _quadratic(), ZERO_ALGEBRA]


@settings(max_examples=80, deadline=None)
@given(index=st.integers(0, len(_valid_algebras()) - 1), data=st.data())
def test_valid_algebras_never_fail_to_build(index, data):
    A = _valid_algebras()[index]
    assert A.validate() == []
    lambdas = data.draw(st.lists(st.lists(SCALARS, min_size=A.dim, max_size=A.dim),
                                 min_size=1, max_size=5))
    K = koszul(A, lambdas)
    assert _outcome(ref.koszul, A, lambdas) == (K.lambdas, K.basis, K.sym_d)
    D = duality_iso(K)
    assert D.target.lambdas == tuple(reversed(K.lambdas))


def test_zero_algebra_duality_maps_are_empty_identities():
    K = koszul(ZERO_ALGEBRA, [[], [], []])
    D = duality_iso(K)
    assert sorted(D.maps) == [0, 1, 2, 3]
    for phi in D.maps.values():
        assert phi.is_zero() and phi.realize() == Matrix.zeros(0, 0)
    assert realize(K).dims == (0, 0, 0, 0)


def test_a_zero_unit_over_q_still_fails_the_duality():
    K = koszul(FDAlgebra(1, [[[1]]], (0,)), [[1], [2]])
    with pytest.raises(KoszulDualityError, match="duality map not invertible at degree 0"):
        duality_iso(K)


def _run(tmp_path, capsys, command, doc):
    f = tmp_path / "k.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code = run([command, str(f)])
    return code, *capsys.readouterr()


ZERO_DOC = {"type": "koszul_complex", "lambdas": [[], []],
            "algebra": {"type": "fd_algebra", "dim": 0, "structure": [], "unit": []}}


def test_zero_algebra_through_the_cli(tmp_path, capsys):
    assert _run(tmp_path, capsys, "validate", ZERO_DOC)[0] == 0
    code, out, err = _run(tmp_path, capsys, "koszul", ZERO_DOC)
    assert (code, err) == (0, "") and json.loads(out)["dims"] == [0, 0, 0]
    assert _run(tmp_path, capsys, "koszul-dual", ZERO_DOC) == (
        0, '{"maps":{"0":[],"1":[],"2":[]},"n":2,"target_lambdas":[[],[]],'
           '"type":"koszul_duality"}\n', "")


def test_a_non_commutative_algebra_is_reported_before_building(tmp_path, capsys):
    doc = {"type": "koszul_complex", "lambdas": [["1", "0"], ["0", "1"]],
           "algebra": {"type": "fd_algebra", "dim": 2, "unit": ["1", "0"],
                       "structure": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]]}}
    for command in ("validate", "koszul", "koszul-dual"):
        code, out, err = _run(tmp_path, capsys, command, doc)
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["valid"] is False
        assert "not commutative at basis pair (0,1)" in report["problems"]
