"""Integral structure on plain ints agrees with the Fraction-based code.

`mobius` solves zeta . mu = 1 by substitution over a linear extension,
and `FDAlgebra` keeps each scalar as an int when it is integral.  Both are
checked here against the code they replaced (`integral_reference.py`):
the same matrix or the same error text on every relation, and the same
realized Koszul complexes, duality maps and error texts over Q, monomial
algebras and algebras with p/q structure constants, with integer, p/q and
zero lambdas.
"""

from fractions import Fraction
import random

from hypothesis import given, settings, strategies as st

from catcx.exactlin import DimensionError
from catcx.koszul import (AlgebraError, FDAlgebra, KoszulDualityError, duality_iso, koszul,
                          monomial_algebra, realize)
from catcx.laxmat import FinPoset, mobius, zeta
import integral_reference as ref
from helpers import random_poset


def _outcome(f, *args):
    try:
        return f(*args)
    except (AlgebraError, DimensionError, KoszulDualityError) as e:
        return type(e).__name__, str(e)


def _relation(n, pairs, reflexive):
    leq = [[(i, j) in pairs or (reflexive and i == j) for j in range(n)] for i in range(n)]
    return FinPoset(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, leq)))


def _check_k0(P):
    assert zeta(P) == ref.zeta(P)
    assert _outcome(mobius, P) == _outcome(ref.mobius, P)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_posets(seed):
    _check_k0(random_poset(random.Random(seed), max_size=8))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_reflexive_acyclic_relations_that_need_not_be_transitive(n, seed):
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = {(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    _check_k0(_relation(n, pairs, reflexive=True))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 5), bits=st.integers(0, 2**25 - 1), reflexive=st.booleans())
def test_arbitrary_relations(n, bits, reflexive):
    pairs = {(i, j) for i in range(n) for j in range(n) if bits >> (i * n + j) & 1}
    _check_k0(_relation(n, pairs, reflexive))


def test_each_outcome_of_elimination_is_kept():
    two_cycle = _relation(2, {(0, 1), (1, 0)}, reflexive=True)
    three_cycle = _relation(3, {(0, 1), (1, 2), (2, 0)}, reflexive=True)  # det zeta = 2
    swap = _relation(2, {(0, 1), (1, 0)}, reflexive=False)  # zeta is its own inverse
    for P, want in ((two_cycle, "zeta matrix is singular; input is not a poset"),
                    (three_cycle, "Moebius matrix is not integral")):
        assert _outcome(mobius, P) == _outcome(ref.mobius, P) == ("DimensionError", want)
    assert mobius(swap) == ref.mobius(swap) == zeta(swap)


# -- Koszul ------------------------------------------------------------------

SCALARS = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), "3/4", "5"])


def _quadratic(c, s):
    """Q[x] / (x^2 - c) on the basis (s, x): p/q structure constants and unit."""
    c, s = Fraction(c), Fraction(s)
    return 2, [[[s, 0], [0, s]], [[0, s], [c / s, 0]]], [1 / s, 0]


def _pair(dim, structure, unit):
    return FDAlgebra(dim, structure, unit), ref.FDAlgebra(dim, structure, unit)


@st.composite
def algebras(draw):
    kind = draw(st.sampled_from(["q", "monomial", "quadratic", "arbitrary"]))
    if kind == "q":
        return FDAlgebra.rationals(), ref.FDAlgebra.rationals()
    if kind == "monomial":
        degs = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        A, _ = monomial_algebra(len(degs), degs)
        return A, ref.FDAlgebra(A.dim, A.structure, A.unit)
    if kind == "quadratic":
        c = draw(st.sampled_from([0, 1, -2, Fraction(3, 2), Fraction(-1, 4)]))
        return _pair(*_quadratic(c, draw(st.sampled_from([1, 2, Fraction(-1, 3)]))))
    # unchecked constants: not always commutative or associative, nor the unit a unit
    dim = draw(st.integers(1, 2))
    structure = [[[draw(SCALARS) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    return _pair(dim, structure, [draw(SCALARS) for _ in range(dim)])


def _koszul_outcome(A, lambdas):
    K = _outcome(koszul, A, lambdas)
    if isinstance(K, tuple):
        return K
    D = _outcome(duality_iso, K)
    if isinstance(D, tuple):
        return realize(K), D
    return (realize(K), D.target.lambdas, D.source.lambdas,
            {i: m.realize() for i, m in D.maps.items()})


@settings(max_examples=150, deadline=None)
@given(pair=algebras(), data=st.data())
def test_koszul_and_duality_match_the_fraction_algebra(pair, data):
    A, R = pair
    assert A.structure == R.structure and A.unit == R.unit
    scalars = [x for plane in A.structure for row in plane for x in row] + list(A.unit)
    assert all(type(x) is int or x.denominator != 1 for x in scalars)
    assert A.validate() == R.validate()
    lambdas = data.draw(st.lists(st.lists(SCALARS, min_size=A.dim, max_size=A.dim),
                                 min_size=1, max_size=4))
    x, y = A.element(lambdas[0]), A.element(lambdas[-1])
    assert A.mult(x, y) == R.mult(R.element(lambdas[0]), R.element(lambdas[-1]))
    assert A.mult_matrix(x) == R.mult_matrix(R.element(lambdas[0]))
    assert _koszul_outcome(A, lambdas) == _koszul_outcome(R, lambdas)


def test_the_koszul_error_paths_are_covered():
    # x * y = 0 but y * x = x: d.d = 0 fails for the lambdas (x, y)
    noncomm = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
    A, R = _pair(2, noncomm, [1, 0])
    got = _koszul_outcome(A, [[1, 0], [0, 1]])
    assert got == _koszul_outcome(R, [[1, 0], [0, 1]])
    assert got[0] == "AlgebraError"
    A, R = _pair(1, [[[1]]], [0])  # the unit vector is zero
    got = _koszul_outcome(A, [[2]])
    assert got == _koszul_outcome(R, [[2]])
    assert got[1] == ("KoszulDualityError", "duality map not invertible at degree 0")
