"""normalize reads the quotient through the projection's own free columns.

`quotient_presentation` returns P and the columns on which P is the
identity; `normalize` gathers those columns of the face sum d instead of
solving P R = id.  The alternating face sum keeps degenerate vectors
degenerate and P kills them, so P d R is the same for every section R.
Here the result is compared, value and bytes, with the solve-based
`normalize` of `gamma_reference.py`, on gamma of seeded complexes
conjugated level by level by invertible integer matrices, so that P is
not [I 0] and the free columns are not the first ones.
"""

import random

from catcx.documents import serialize_document
from catcx.doldkan import (SimplicialVS, degenerate_inclusion, gamma, normalize,
                           quotient_presentation)
from catcx.exactlin import Matrix
import gamma_reference as ref
from helpers import int_matrix, random_complex, random_simplicial


def invertible(rng, n: int) -> Matrix:
    """A random invertible integer matrix, whose inverse is often not integral."""
    while True:
        m = int_matrix(rng, n, n, 2)
        if m.is_invertible():
            return m


def conjugated_gamma(rng) -> SimplicialVS:
    c, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(0, 0))
    N = c.hi + rng.randint(0, 1)
    X = gamma(c, N)
    w = {k: invertible(rng, X.dims[k]) for k in range(N + 1)}
    winv = {k: w[k].invert() for k in range(N + 1)}
    faces = {n: tuple(w[n - 1] * m * winv[n] for m in X.faces[n]) for n in range(1, N + 1)}
    degs = {n: tuple(w[n + 1] * m * winv[n] for m in X.degeneracies[n]) for n in range(N)}
    return SimplicialVS(N, X.dims, faces, degs)


def standard(P: Matrix, free: list) -> bool:
    """Whether P is [I 0]: the free columns are the first ones."""
    return free == list(range(P.rows)) and P == Matrix.identity(P.rows).hstack(
        Matrix.zeros(P.rows, P.cols - P.rows))


def test_the_free_columns_give_a_section():
    rng = random.Random(2903)
    for _ in range(30):
        X = conjugated_gamma(rng)
        for n in range(X.n_max + 1):
            P, free = quotient_presentation(X, n)
            assert P.permute(free) == Matrix.identity(P.rows)
            assert (P * degenerate_inclusion(X, n)).is_zero()


def test_normalize_matches_the_solved_section():
    rng = random.Random(2904)
    nontrivial = 0
    for case in range(50):
        X = conjugated_gamma(rng) if case % 2 else random_simplicial(rng)
        got, want = normalize(X), ref.normalize(X)
        assert got == want
        assert serialize_document(got) == serialize_document(want)
        nontrivial += not all(standard(*quotient_presentation(X, n))
                              for n in range(X.n_max + 1))
    assert nontrivial >= 20, nontrivial
