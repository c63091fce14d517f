"""Every cone-shaped construction (cc2's maps and total complex, the cube
collapse, maps of homotopy pushouts) against a reference written out here
as an explicit block grid, in value and in stored component keys.

The references are the formulas of the module docstrings, placed with
zero-padded `Matrix.block` grids:

  p_k = [[1, 0], [0, v_k]]       on (Y01)_k = X0_{k-1} (+) X1_k
  q_k = [[u_{k-1}, 0], [0, 1]]   on (Y02)_k = X0_{k-1} (+) X2_k
  h_k = [[0, -1], [0, 0]]        into (Y12)_{k+1} = X1_k (+) X2_{k+1}
  D(x, y, z) = (dx, px - dy, hx - qy + dz)   on T_k = Y01_{k-2} (+) Y02_{k-1} (+) Y12_k

and block diagonals (f_0)_{k-1} (+) (f_1)_k (+) ... for the induced maps.
Inputs are seeded and include empty degrees and zero maps.
"""

from itertools import product
import random

import pytest

from catcx.chain import (ChainComplex, cone, cone_map, identity_map, validate_complex,
                         zero_map)
from catcx.exactlin import DimensionError, Matrix
from catcx.laxmat import Span, hpushout, induced_pushout_map
from catcx.multicplx import ChainCube, _collapse_first_axis, cube_total_cofiber
from catcx.simplex import cc2, cc2_d2
from helpers import random_chain_map, small_complex


def zeros(r, c):
    return Matrix.zeros(r, c)


def eye(n):
    return Matrix.identity(n)


def diagonal(blocks):
    """The block diagonal of `blocks`, zero-padded."""
    return Matrix.block([[b if i == j else zeros(b.rows, o.cols) for j, o in enumerate(blocks)]
                         for i, b in enumerate(blocks)])


def stored_keys(src, tgt, deg=0):
    """The degrees whose component has a non-empty shape."""
    return {k for k in range(min(src.lo, tgt.lo - deg), max(src.hi, tgt.hi - deg) + 1)
            if src.dim(k) and tgt.dim(k + deg)}


def placed(*parts):
    """The degrees where a cone map with these parts places a block,
    (f_0)_{k-1}, (f_1)_k, ...: where a part stores a component, or where
    a complex standing for its identity is nonzero."""
    keys = [{k for k, _ in f.support} if isinstance(f, ChainComplex) else set(f.comps)
            for f in parts]
    return {k + 1 for k in keys[0]}.union(*keys[1:])


def assert_graded(g, ref, keys, deg=0):
    """g stores a component in exactly the degrees `keys`, and equals
    ref(k) in value over every non-empty shape."""
    assert set(g.comps) == keys
    for k in stored_keys(g.source, g.target, deg):
        assert g._comp(k) == ref(k), k


def some_map(rng, A, B):
    return zero_map(A, B) if rng.random() < 0.2 else random_chain_map(rng, A, B)


def composable_pairs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        x0, x1, x2 = (small_complex(rng, max_len=2, max_dim=3, lo_range=(-2, 1))
                      for _ in range(3))
        yield some_map(rng, x0, x1), some_map(rng, x1, x2)


def test_cc2_maps_are_the_explicit_grids():
    for u, v in composable_pairs(3, 40):
        x0, x1, x2 = u.source, u.target, v.target
        lv = cc2_d2(u, v)
        assert_graded(lv.p, lambda k: Matrix.block(
            [[eye(x0.dim(k - 1)), zeros(x0.dim(k - 1), x1.dim(k))],
             [zeros(x2.dim(k), x0.dim(k - 1)), v.f(k)]]), placed(x0, v))
        assert_graded(lv.q, lambda k: Matrix.block(
            [[u.f(k - 1), zeros(x1.dim(k - 1), x2.dim(k))],
             [zeros(x2.dim(k), x0.dim(k - 1)), eye(x2.dim(k))]]), placed(u, x2))
        assert_graded(lv.h, lambda k: Matrix.block(
            [[zeros(x1.dim(k), x0.dim(k - 1)), -eye(x1.dim(k))],
             [zeros(x2.dim(k + 1), x0.dim(k - 1)), zeros(x2.dim(k + 1), x1.dim(k))]]),
                      {k for k, _ in x1.support}, deg=1)


def test_cc2_total_is_the_explicit_3x3_grid():
    seen_empty = False
    for u, v in composable_pairs(4, 40):
        rec = cc2(u, v)
        lv, T = rec.level1, rec.total
        y01, y02, y12 = lv.y01, lv.y02, lv.y12
        lo, hi = min(y01.lo + 2, y02.lo + 1, y12.lo), max(y01.hi + 2, y02.hi + 1, y12.hi)
        assert (T.lo, T.hi) == (lo, hi)
        assert T.dims == tuple(y01.dim(k - 2) + y02.dim(k - 1) + y12.dim(k)
                               for k in range(lo, hi + 1))
        seen_empty |= 0 in T.dims
        # T stores d_k exactly where one of the nine grid blocks below is stored
        assert set(T.diffs) == ({k + 2 for k in y01.diffs.keys() | lv.p.comps.keys()
                                 | lv.h.comps.keys()}
                                | {k + 1 for k in y02.diffs.keys() | lv.q.comps.keys()}
                                | set(y12.diffs))
        for k in range(lo + 1, hi + 1):
            a, b, c = y01.d(k - 2), y02.d(k - 1), y12.d(k)
            p, q, h = lv.p.f(k - 2), lv.q.f(k - 1), lv.h.h(k - 2)
            assert T.d(k) == Matrix.block([[a, zeros(a.rows, b.cols), zeros(a.rows, c.cols)],
                                           [p, -b, zeros(p.rows, c.cols)],
                                           [h, -q, c]]), k
        assert validate_complex(T) == []
    assert seen_empty


def test_a_complex_part_stands_for_its_identity():
    for u, v in composable_pairs(5, 20):
        y01, y02 = cone(u).complex, cone(v.compose(u)).complex
        assert (cone_map(y01, y02, (u.source, v))
                == cone_map(y01, y02, (identity_map(u.source), v)))


def test_parts_that_do_not_fit_the_cones_are_refused():
    rng = random.Random(6)
    x = small_complex(rng)
    wide = ChainComplex(x.lo, x.hi, tuple(n + 1 for n in x.dims))
    with pytest.raises(DimensionError):
        cone_map(cone(identity_map(x)).complex, cone(identity_map(wide)).complex,
                 (x, identity_map(x)))


def path_cube(rng, n):
    """{0,1}^n cube with vertex X_|J| and every edge out of J the same map
    f_|J|: X_|J| -> X_|J|-1, so every face commutes."""
    xs = [small_complex(rng, max_len=2, max_dim=2, lo_range=(-1, 1)) for _ in range(n + 1)]
    fs = [None] + [some_map(rng, xs[m], xs[m - 1]) for m in range(1, n + 1)]
    subsets = [frozenset(i + 1 for i in range(n) if bits[i]) for bits in product((0, 1), repeat=n)]
    edges = {i: {J: fs[len(J)] for J in subsets if i in J} for i in range(1, n + 1)}
    return ChainCube(n, {J: xs[len(J)] for J in subsets}, edges)


def test_cube_collapse_edges_are_the_explicit_block_diagonals():
    rng = random.Random(7)
    for n in (2, 3, 3, 4):
        Q = path_cube(rng, n)
        R = _collapse_first_axis(Q)
        assert R.n == n - 1
        for J in (J for J in Q.vertices if 1 not in J):
            down = frozenset(x - 1 for x in J)
            assert R.vertices[down] == cone(Q.edge(1, J | {1})).complex
            for i in J:
                top, bottom = Q.edge(i, J | {1}), Q.edge(i, J)
                assert_graded(R.edge(i - 1, down),
                              lambda k: diagonal([top.f(k - 1), bottom.f(k)]), placed(top, bottom))
        assert validate_complex(cube_total_cofiber(Q)) == []


def spans_and_maps(seed, count):
    """(source pushout, target pushout, apex part, left part, right part),
    from both ways of building a strictly commuting map of spans."""
    rng = random.Random(seed)
    for t in range(count):
        a, b, c = (small_complex(rng, max_len=2, max_dim=2) for _ in range(3))
        left, right = some_map(rng, a, b), some_map(rng, a, c)
        other = small_complex(rng, max_len=2, max_dim=2)
        if t % 2:
            # post-compose the legs: the apex part is an identity
            fb, fc = some_map(rng, b, other), some_map(rng, c, other)
            src, tgt = Span(left, right), Span(fb.compose(left), fc.compose(right))
            yield hpushout(src), hpushout(tgt), identity_map(a), fb, fc
        else:
            # pre-compose the legs: the leg parts are identities
            g = some_map(rng, other, a)
            src, tgt = Span(left.compose(g), right.compose(g)), Span(left, right)
            yield hpushout(src), hpushout(tgt), g, identity_map(b), identity_map(c)


def test_induced_pushout_maps_are_the_explicit_block_diagonals():
    for src, tgt, fa, fb, fc in spans_and_maps(8, 30):
        ind = induced_pushout_map(src, tgt, fa, fb, fc)
        assert_graded(ind, lambda k: diagonal([fa.f(k - 1), fb.f(k), fc.f(k)]),
                      placed(fa, fb, fc))
        assert ind.validate() == []
