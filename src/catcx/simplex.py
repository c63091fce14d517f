"""Simplicial cochains on the n-simplex, linear and one level up.

The linear model: C^k = maps from (k+1)-element subsets of {0..n} to a
fixed coefficient space V, with the alternating-sum coboundary.  Stored
homologically, so C^k sits in chain degree -k and d lowers degree.

One level up, for n = 2 only: the three arrows 01, 02, 12 are replaced by
mapping cones Y01 = cone(u), Y02 = cone(v u), Y12 = cone(v), connected by
the functorial maps p: Y01 -> Y02 and q: Y02 -> Y12 plus the canonical
null-homotopy h of q p coming from the identity of the middle complex.
The twisted totalization T_k = (Y01)_{k-2} (+) (Y02)_{k-1} (+) (Y12)_k
carries

    D(x, y, z) = (d x, p x - d y, h x - q y + d z)

and D^2 = 0 is exactly (chain map) + (chain map) + (h null-homotopy).
The homotopy block enters with +h; the other sign choices are forced from
that normalization.  So T = cone((p, h): Y01[1] -> cone(q)), and it is
built that way, with `chain.sum_cone`; p and q are the maps of cones
`chain.cone_map` induces from (1, v) and (u, 1).
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from .exactlin import DimensionError, Matrix
from .record import Record
from .chain import (ChainComplex, ChainHomotopy, ChainMap, check_homotopy, cone_complex,
                    cone_map, shift, sum_cone, sum_cone_dims, validate_complex, zero_map)


class TotalizationError(Exception):
    """Assembled differential fails d.d = 0; the homotopy data is inconsistent."""


def linear_cochain(n: int, dim_v: int) -> ChainComplex:
    """Cochains on the n-simplex with dim_v-dimensional coefficients.

    Basis of chain degree -k: (k+1)-subsets of {0..n} in lexicographic
    order, each carrying a copy of V.
    """
    if n < 0 or dim_v < 0:
        raise DimensionError("n and dim_v must be nonnegative")
    subsets = [list(itertools.combinations(range(n + 1), k + 1))
               for k in range(n + 1)]
    dims = tuple(len(subsets[n - i]) * dim_v for i in range(n + 1))
    diffs = {}
    for k in range(n):
        # d: degree -k -> degree -(k+1)
        col_index = {s: c for c, s in enumerate(subsets[k])}
        rows, cols = len(subsets[k + 1]), len(subsets[k])
        ent = [0] * (rows * cols)
        for r, sigma in enumerate(subsets[k + 1]):
            for i in range(len(sigma)):
                ent[r * cols + col_index[sigma[:i] + sigma[i + 1:]]] = -1 if i % 2 else 1
        # the signed incidence matrix D, placed as D (x) 1_V
        diffs[-k] = Matrix.from_blocks(rows * dim_v, cols * dim_v,
                                       [(0, 0, Matrix._of(rows, cols, ent), 1, 1, dim_v)])
    return ChainComplex(-n, 0, dims, diffs)


class CC2Level1(Record):
    """The three cones over a composable pair, with comparison maps.

    p: y01 -> y02 and q: y02 -> y12 are the functorial cone maps and h is
    a null-homotopy of q p (check_homotopy(0, q p, h) holds).
    """

    __slots__ = ("y01", "y02", "y12", "p", "q", "h")
    y01: ChainComplex
    y02: ChainComplex
    y12: ChainComplex
    p: ChainMap
    q: ChainMap
    h: ChainHomotopy


class CatCochain2Level(Record):
    __slots__ = ("x0", "x1", "x2", "u", "v", "level1", "total")
    x0: ChainComplex
    x1: ChainComplex
    x2: ChainComplex
    u: ChainMap
    v: ChainMap
    level1: CC2Level1
    total: ChainComplex


def cc2_d2(u: ChainMap, v: ChainMap) -> CC2Level1:
    """Cones over X0 -u-> X1 -v-> X2 with induced maps and the octahedral
    null-homotopy."""
    if v.source != u.target:
        raise DimensionError("maps are not composable")
    if u.validate() or v.validate():
        raise DimensionError("inputs are not chain maps")
    x0, x1, x2 = u.source, u.target, v.target
    y01, y02, y12 = cone_complex(u), cone_complex(v.compose(u)), cone_complex(v)
    p = cone_map(y01, y02, (x0, v))
    q = cone_map(y02, y12, (u, x2))
    # h(x0, x1) = (-x1, 0) into (Y12)_{k+1} = X1_k (+) X2_{k+1}
    h = ChainHomotopy(y01, y12, {
        k: Matrix.monomial(y12.dim(k + 1), [-1] * x0.dim(k - 1) + list(range(n)),
                           [-1] * y01.dim(k))
        for k, n in x1.support})
    return CC2Level1(y01, y02, y12, p, q, h)


def cc2_d1(level1: CC2Level1) -> ChainComplex:
    """Twisted total complex of Y01 -p-> Y02 -q-> Y12 with correction h:
    the cone of (p, h): Y01[1] -> cone(q)."""
    y01, y02, y12 = level1.y01, level1.y02, level1.y12
    p, q, h = level1.p, level1.q, level1.h
    if p.source != y01 or p.target != y02 or q.source != y02 or q.target != y12:
        raise DimensionError("comparison maps do not match the complexes")
    if h.source != y01 or h.target != y12:
        raise DimensionError("homotopy does not match the complexes")
    if p.validate() or q.validate():
        raise DimensionError("comparison maps are not chain maps")
    return _total(level1)


def _total(level1: CC2Level1) -> ChainComplex:
    """cc2_d1 without its checks of level1, which cc2_d2's cone maps pass."""
    y01, y02, p, q, h = level1.y01, level1.y02, level1.p, level1.q, level1.h
    cq = cone_complex(q)
    # (p, h) stacked: (Y01[1])_{k+1} = (Y01)_k -> cone(q)_{k+1} = (Y02)_k (+) (Y12)_{k+1}
    ph = {k + 1: Matrix.from_blocks(cq.dim(k + 1), y01.dim(k),
                                    [(0, 0, p.f(k)), (y02.dim(k), 0, h.h(k))])
          for k in p.comps.keys() | h.comps.keys()}
    T = sum_cone([(ChainMap(shift(y01, 1), cq, ph), -1)])
    if validate_complex(T):
        raise TotalizationError(
            "assembled differential does not square to zero; "
            "the supplied homotopy is inconsistent with the maps")
    return T


def cc2_dims(u: ChainMap, v: ChainMap) -> Dict[int, int]:
    """Dimension of cc2(u, v)'s total complex by degree, from the declared
    dimensions alone: T_k = (Y01)_{k-2} + (Y02)_{k-1} + (Y12)_k.  Every cone
    cc2 builds is a summand of some T_k."""
    def cone_shape(A, B, m):  # cone(A -> B)[m], dimensions only
        dims = sum_cone_dims(A, B)
        return ChainComplex(min(dims) + m, max(dims) + m, tuple(dims.values()))
    return sum_cone_dims(cone_shape(u.source, u.target, 1), cone_shape(u.source, v.target, 1),
                         cone_shape(v.source, v.target, 0))


def cc2(u: ChainMap, v: ChainMap) -> CatCochain2Level:
    """Full three-level record over a composable pair."""
    level1 = cc2_d2(u, v)
    total = _total(level1)
    return CatCochain2Level(u.source, u.target, v.target, u, v, level1, total)


def octahedron_witness(level1: CC2Level1) -> List[str]:
    """Replays the level-1 identities: chain maps and the null-homotopy."""
    report = []
    for msg in level1.p.validate():
        report.append(f"p: {msg}")
    for msg in level1.q.validate():
        report.append(f"q: {msg}")
    qp = level1.q.compose(level1.p)
    if not check_homotopy(zero_map(level1.y01, level1.y12), qp, level1.h):
        report.append("h is not a null-homotopy of q p")
    return report
