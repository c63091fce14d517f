"""The exact texts of reports that no other test reaches: three of the
simplicial identity families of `validate_simplicial`, and the shape and
identity reports of `validate_local_star`.  Each report is produced by
one seeded tampering of a valid object, and the whole report is pinned.
"""

import random

from catcx.chain import ChainComplex
from catcx.doldkan import SimplicialVS, gamma, validate_simplicial
from catcx.exactlin import Matrix
from catcx.perverse import LocalStar, validate_local_star
from helpers import random_local_star, unimodular


def simplicial(seed: int) -> SimplicialVS:
    """Gamma of 1 -> 1 -> 1 (d_1 an isomorphism) to level 3, conjugated
    levelwise by seeded unimodular matrices, so no identity holds by the
    coordinates alone."""
    rng = random.Random(seed)
    X = gamma(ChainComplex(0, 2, (1, 1, 1), {1: Matrix(1, 1, [rng.choice((1, -1, 2))])}), 3)
    w = [unimodular(rng, n) for n in X.dims]
    winv = [m.invert() for m in w]
    return SimplicialVS(3, X.dims,
                        {n: tuple(w[n - 1] * m * winv[n] for m in ops) for n, ops in X.faces.items()},
                        {n: tuple(w[n + 1] * m * winv[n] for m in ops)
                         for n, ops in X.degeneracies.items()})


def doubled(X: SimplicialVS, kind: str, n: int, i: int) -> SimplicialVS:
    """X with face d_i (kind "d") or degeneracy s_i (kind "s") at level n doubled."""
    faces, degs = dict(X.faces), dict(X.degeneracies)
    ops = faces if kind == "d" else degs
    ops[n] = tuple(m.scale(2) if k == i else m for k, m in enumerate(ops[n]))
    return SimplicialVS(X.n_max, X.dims, faces, degs)


def test_simplicial_identity_reports():
    for seed in range(3):
        X = simplicial(seed)
        assert X.dims == (1, 2, 4, 7) and validate_simplicial(X) == []
        # s_i s_j = s_{j+1} s_i for i <= j
        assert validate_simplicial(doubled(X, "s", 2, 2)) == [
            "s_0 s_1 != s_2 s_0 at level 1", "s_1 s_1 != s_2 s_1 at level 1",
            "d_0 s_2 != s_1 d_0 at level 2", "d_1 s_2 != s_1 d_1 at level 2",
            "d_2 s_2 != id at level 2", "d_3 s_2 != id at level 2"]
        # d_i s_j = s_{j-1} d_i for i < j
        assert validate_simplicial(doubled(X, "d", 1, 0)) == [
            "d_0 d_2 != d_1 d_0 at level 2", "d_0 s_0 != id at level 0",
            "d_0 s_1 != s_0 d_0 at level 1"]
        # d_i s_j = s_j d_{i-1} for i > j + 1
        assert validate_simplicial(doubled(X, "d", 1, 1)) == [
            "d_0 d_2 != d_1 d_0 at level 2", "d_1 s_0 != id at level 0",
            "d_2 s_0 != s_0 d_1 at level 1"]


def star(seed: int):
    """A seeded valid local star with three pairs and Psi of dimension 2 or more."""
    rng = random.Random(seed)
    while True:
        P = random_local_star(rng)
        if P.n == 3 and P.f[0].rows >= 2:
            assert validate_local_star(P) == []
            return list(P.f), list(P.g)


def test_local_star_reports():
    for seed in range(3):
        f, g = star(seed)
        phi = f[0].cols
        assert validate_local_star(LocalStar(tuple(f), tuple(g[:2]))) == [
            "need matching nonempty f and g families"]
        assert validate_local_star(LocalStar((), ())) == ["need matching nonempty f and g families"]
        wide = Matrix.block([[f[1], Matrix.zeros(f[1].rows, 1)]])
        assert validate_local_star(LocalStar((f[0], wide, f[2]), tuple(g))) == [
            "pair 2 is not based at a common Phi"]
        tall = Matrix.block([[f[2]], [Matrix.zeros(1, phi)]])
        assert validate_local_star(LocalStar((f[0], f[1], tall), tuple(g))) == [
            "pair 3 has mismatched Psi dimensions"]
        assert validate_local_star(LocalStar(tuple(f), (g[0].scale(2), g[1], g[2]))) == [
            "f_1 g_1 != id"]
        # take g_1's image in Psi_2 away: f_2 g_1 becomes 0, f_3 g_1 no longer is
        g0 = g[0] - g[1] * f[1] * g[0]
        assert validate_local_star(LocalStar(tuple(f), (g0, g[1], g[2]))) == [
            "f_2 g_1 singular", "f_3 g_1 != 0"]
