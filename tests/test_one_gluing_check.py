"""Each gluing pair of a flag or cube is checked by one elimination.

For f: X -> Y and g: Y -> X, det(id_Y - f g) = det(id_X - g f) (Sylvester's
determinant identity), so the two invertibility conditions of a pair hold
or fail together.  `validate_flag` and `validate_cube` check one side of
each pair and, when it is singular, report both texts in the order the
two-check validators wrote them.  Those validators are copied below as the
reference.
"""

from fractions import Fraction
import random

import pytest

from catcx.documents import cube_subsets
from catcx.exactlin import Matrix
from catcx.perverse import (PervCube, PervFlag, flag_embed_cube, validate_cube,
                            validate_flag)
from helpers import random_flag


# -- the two-check validators, as the reference ------------------------------------

def reference_validate_flag(P: PervFlag) -> list:
    report = []
    n = P.n
    if len(P.d) != n or len(P.delta) != n:
        report.append("need exactly n maps in each direction")
        return report
    for k in range(n):
        if (P.d[k].rows, P.d[k].cols) != (P.dims[k + 1], P.dims[k]):
            report.append(f"d[{k}] has the wrong shape")
            return report
        if (P.delta[k].rows, P.delta[k].cols) != (P.dims[k], P.dims[k + 1]):
            report.append(f"delta[{k}] has the wrong shape")
            return report
    for k in range(n - 1):
        if not (P.d[k + 1] * P.d[k]).is_zero():
            report.append(f"d.d != 0 at index {k}")
        if not (P.delta[k] * P.delta[k + 1]).is_zero():
            report.append(f"delta.delta != 0 at index {k}")
    for k in range(n):
        if not (Matrix.identity(P.dims[k + 1]) - P.d[k] * P.delta[k]).is_invertible():
            report.append(f"id - d delta singular at level {k + 1}")
        if not (Matrix.identity(P.dims[k]) - P.delta[k] * P.d[k]).is_invertible():
            report.append(f"id - delta d singular at level {k}")
    return report


def reference_validate_cube(P: PervCube) -> list:
    report = []
    subs = cube_subsets(P.n)
    for J in subs:
        for i in range(1, P.n + 1):
            if i in J:
                continue
            base = frozenset(J)
            fi = P.f.get(i, {}).get(base)
            gi = P.g.get(i, {}).get(base)
            if fi is None or gi is None:
                report.append(f"missing f_{i} or g_{i} at {sorted(J)}")
                continue
            if (fi.rows, fi.cols) != (P.dim(J), P.dim(J | {i})):
                report.append(f"f_{i} at {sorted(J)} has the wrong shape")
            if (gi.rows, gi.cols) != (P.dim(J | {i}), P.dim(J)):
                report.append(f"g_{i} at {sorted(J)} has the wrong shape")
    if report:
        return report
    for J in subs:
        for i in range(1, P.n + 1):
            for j in range(i + 1, P.n + 1):
                if i in J or j in J:
                    continue
                if P.fmap(i, J) * P.fmap(j, J | {i}) != P.fmap(j, J) * P.fmap(i, J | {j}):
                    report.append(f"f_{i} f_{j} != f_{j} f_{i} at {sorted(J)}")
                if P.gmap(i, J | {j}) * P.gmap(j, J) != P.gmap(j, J | {i}) * P.gmap(i, J):
                    report.append(f"g_{i} g_{j} != g_{j} g_{i} at {sorted(J)}")
                if P.gmap(i, J) * P.fmap(j, J) != P.fmap(j, J | {i}) * P.gmap(i, J | {j}):
                    report.append(f"g_{i} f_{j} != f_{j} g_{i} at {sorted(J)}")
    for J in subs:
        for i in range(1, P.n + 1):
            if i in J:
                continue
            gf = P.gmap(i, J) * P.fmap(i, J) - Matrix.identity(P.dim(J | {i}))
            fg = P.fmap(i, J) * P.gmap(i, J) - Matrix.identity(P.dim(J))
            if not gf.is_invertible():
                report.append(f"g_{i} f_{i} - id singular at {sorted(J)}")
            if not fg.is_invertible():
                report.append(f"f_{i} g_{i} - id singular at {sorted(J)}")
    return report


# -- generators -------------------------------------------------------------------

def M(rows) -> Matrix:
    return Matrix.from_rows(rows)


def constant_cube(n, dims, fval, gval) -> PervCube:
    """A cube whose every f_i, g_i at J has all entries fval(i, J), gval(i, J)."""
    subs = cube_subsets(n)
    ds = {J: dims(J) for J in subs}
    f = {i: {} for i in range(1, n + 1)}
    g = {i: {} for i in range(1, n + 1)}
    for J in subs:
        for i in range(1, n + 1):
            if i not in J:
                a, b = ds[J], ds[J | {i}]
                f[i][J] = Matrix(a, b, [fval(i, J)] * (a * b))
                g[i][J] = Matrix(b, a, [gval(i, J)] * (a * b))
    return PervCube(n, ds, f, g)


def entry(rng, rational):
    x = rng.choice((-1, 0, 0, 1, 1, 2))
    return Fraction(x, rng.choice((1, 2, 3))) if rational else x


def mat(rng, rows, cols, rational):
    return Matrix(rows, cols, [entry(rng, rational) for _ in range(rows * cols)])


def seeded_flag(rng, rational) -> PervFlag:
    n = rng.randint(1, 4)
    dims = [rng.choice((0, 1, 1, 1, 2, 2, 3)) for _ in range(n + 1)]
    d = [mat(rng, dims[k + 1], dims[k], rational) for k in range(n)]
    delta = [mat(rng, dims[k], dims[k + 1], rational) for k in range(n)]
    if rng.random() < 0.05:  # now and then a wrong shape
        k = rng.randrange(n)
        d[k] = mat(rng, dims[k + 1] + 1, dims[k], rational)
    return PervFlag(tuple(dims), tuple(d), tuple(delta))


def seeded_cube(rng, rational) -> PervCube:
    n = rng.randint(1, 3)
    subs = cube_subsets(n)
    ds = {J: rng.choice((0, 1, 1, 1, 2)) for J in subs}
    f = {i: {} for i in range(1, n + 1)}
    g = {i: {} for i in range(1, n + 1)}
    for J in subs:
        for i in range(1, n + 1):
            if i not in J:
                a, b = ds[J], ds[J | {i}]
                f[i][J] = mat(rng, a, b, rational)
                g[i][J] = mat(rng, b, a, rational)
    if rng.random() < 0.05:  # now and then a missing map
        i = rng.randint(1, n)
        del f[i][next(J for J in subs if i not in J)]
    return PervCube(n, ds, f, g)


# -- pinned reports, as the two-check validators wrote them ----------------------------

FLAGS = {
    "one": (PervFlag((1, 1, 1), (M([[1]]), M([[0]])), (M([[1]]), M([[0]]))),
            ["id - d delta singular at level 1", "id - delta d singular at level 0"]),
    "several": (PervFlag((1, 1, 1, 1), (M([[1]]), M([[0]]), M([[2]])),
                         (M([[1]]), M([[0]]), M([["1/2"]]))),
                ["id - d delta singular at level 1", "id - delta d singular at level 0",
                 "id - d delta singular at level 3", "id - delta d singular at level 2"]),
    "after d.d": (PervFlag((1, 1, 1), (M([[1]]), M([[1]])), (M([[1]]), M([[1]]))),
                  ["d.d != 0 at index 0", "delta.delta != 0 at index 0",
                   "id - d delta singular at level 1", "id - delta d singular at level 0",
                   "id - d delta singular at level 2", "id - delta d singular at level 1"]),
    "unequal sides": (PervFlag((2, 1, 2), (M([[1, 0]]), M([[0], [1]])),
                               (M([[1], [0]]), M([[0, 3]]))),
                      ["d.d != 0 at index 0", "delta.delta != 0 at index 0",
                       "id - d delta singular at level 1", "id - delta d singular at level 0"]),
    "middle only": (PervFlag((1, 2, 1, 1), (M([[0], [0]]), M([[1, 1]]), M([[0]])),
                             (M([[0, 0]]), M([[1], [0]]), M([[0]]))),
                    ["id - d delta singular at level 2", "id - delta d singular at level 1"]),
}

CUBES = {
    "one": (constant_cube(1, lambda J: 1, lambda i, J: 1, lambda i, J: 1),
            ["g_1 f_1 - id singular at []", "f_1 g_1 - id singular at []"]),
    "several": (constant_cube(2, lambda J: 1, lambda i, J: 1, lambda i, J: 1),
                ["g_1 f_1 - id singular at []", "f_1 g_1 - id singular at []",
                 "g_2 f_2 - id singular at []", "f_2 g_2 - id singular at []",
                 "g_1 f_1 - id singular at [2]", "f_1 g_1 - id singular at [2]",
                 "g_2 f_2 - id singular at [1]", "f_2 g_2 - id singular at [1]"]),
    "one direction": (constant_cube(2, lambda J: 1, lambda i, J: 1,
                                    lambda i, J: 2 if i == 1 else 1),
                      ["g_2 f_2 - id singular at []", "f_2 g_2 - id singular at []",
                       "g_2 f_2 - id singular at [1]", "f_2 g_2 - id singular at [1]"]),
    "p/q": (constant_cube(2, lambda J: 1, lambda i, J: Fraction(2, 3),
                          lambda i, J: Fraction(3, 2) if i == 2 else 3),
            ["g_2 f_2 - id singular at []", "f_2 g_2 - id singular at []",
             "g_2 f_2 - id singular at [1]", "f_2 g_2 - id singular at [1]"]),
}


@pytest.mark.parametrize("name", FLAGS)
def test_flag_reports_are_pinned(name):
    P, expected = FLAGS[name]
    assert validate_flag(P) == expected == reference_validate_flag(P)


@pytest.mark.parametrize("name", CUBES)
def test_cube_reports_are_pinned(name):
    P, expected = CUBES[name]
    assert validate_cube(P) == expected == reference_validate_cube(P)


# -- the one-check validators agree with the two-check ones --------------------------

@pytest.mark.parametrize("rational", [False, True], ids=["int", "p/q"])
def test_flags_agree_with_the_two_check_validator(rational):
    rng = random.Random(20 + rational)
    singular = 0
    for _ in range(400):
        P = seeded_flag(rng, rational)
        report = validate_flag(P)
        assert report == reference_validate_flag(P), P
        singular += any("singular" in msg for msg in report)
    assert singular >= 20  # the comparison covers singular pairs, not only sound ones


@pytest.mark.parametrize("rational", [False, True], ids=["int", "p/q"])
def test_cubes_agree_with_the_two_check_validator(rational):
    rng = random.Random(30 + rational)
    singular = 0
    for _ in range(150):
        P = seeded_cube(rng, rational)
        report = validate_cube(P)
        assert report == reference_validate_cube(P), P
        singular += any("singular" in msg for msg in report)
    assert singular >= 10


def test_sound_flags_and_their_cubes_agree():
    rng = random.Random(7)
    for _ in range(40):
        P = random_flag(rng, max_n=4, max_dim=3)
        assert validate_flag(P) == reference_validate_flag(P) == []
        C = flag_embed_cube(P)
        assert validate_cube(C) == reference_validate_cube(C) == []


# -- one elimination per gluing pair --------------------------------------------------

def count_invertibility_checks(monkeypatch) -> list:
    calls = []
    is_invertible = Matrix.is_invertible

    def counted(self):
        calls.append((self.rows, self.cols))
        return is_invertible(self)

    monkeypatch.setattr(Matrix, "is_invertible", counted)
    return calls


def test_one_check_per_flag_pair(monkeypatch):
    calls = count_invertibility_checks(monkeypatch)
    rng = random.Random(11)
    flags = [random_flag(rng, max_n=4, max_dim=3) for _ in range(20)]
    flags += [P for P, _ in FLAGS.values()]
    for P in flags:
        calls.clear()
        validate_flag(P)
        assert calls == [(P.dims[k + 1],) * 2 for k in range(P.n)]


def test_one_check_per_cube_pair(monkeypatch):
    calls = count_invertibility_checks(monkeypatch)
    rng = random.Random(12)
    cubes = [flag_embed_cube(random_flag(rng, max_n=3, max_dim=3)) for _ in range(10)]
    cubes += [P for P, _ in CUBES.values()]
    for P in cubes:
        calls.clear()
        validate_cube(P)
        assert len(calls) == P.n * 2 ** (P.n - 1)
