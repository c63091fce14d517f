"""Multicomplexes and totalization.

A MultiComplex stores n strictly commuting differentials on a box-shaped
support: d_j d_i = d_i d_j for i != j and d_j d_j = 0, with no signs.  The
Koszul signs appear only at totalization,

    eps_j(a) = (-1)^(a_1 + ... + a_{j-1}),

which is what makes the total differential square to zero; axis order for
the signs is the stored axis order.  Axes are numbered 1..n.

ChainCube is the separate carrier for a {0,1}^n cube whose vertices are
chain complexes and whose edges (along axis i, from epsilon_i = 1 to 0)
are chain maps with strictly commuting faces.  Its total cofiber is the
iterated mapping cone, axis 1 first.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .exactlin import DimensionError, Matrix
from .chain import ChainComplex, ChainMap, cone


MultiDeg = Tuple[int, ...]


class MultiComplex:
    __slots__ = ("n", "lo", "hi", "dims", "diffs")

    def __init__(self, n: int, lo: Sequence[int], hi: Sequence[int],
                 dims: Dict[MultiDeg, int],
                 diffs: Optional[Dict[int, Dict[MultiDeg, Matrix]]] = None):
        if n < 1:
            raise DimensionError("need at least one axis")
        self.n = n
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        if len(self.lo) != n or len(self.hi) != n:
            raise DimensionError("support bounds must have one entry per axis")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise DimensionError("empty support box")
        self.dims = {tuple(a): int(v) for a, v in dims.items()}
        for a in self.dims:
            if not self._in_box(a):
                raise DimensionError(f"multidegree {a} outside the support box")
        full: Dict[int, Dict[MultiDeg, Matrix]] = {j: {} for j in range(1, n + 1)}
        diffs = diffs or {}
        for j in range(1, n + 1):
            given = diffs.get(j, {})
            for a in self.multidegrees():
                if a[j - 1] == self.lo[j - 1]:
                    continue
                b = self._step(a, j)
                m = given.get(a)
                if m is None:
                    m = Matrix.zeros(self.dim(b), self.dim(a))
                if (m.rows, m.cols) != (self.dim(b), self.dim(a)):
                    raise DimensionError(
                        f"d_{j} at {a} has shape {m.rows}x{m.cols}, "
                        f"expected {self.dim(b)}x{self.dim(a)}"
                    )
                full[j][a] = m
        self.diffs = full

    def _in_box(self, a: MultiDeg) -> bool:
        return len(a) == self.n and all(
            l <= x <= h for x, l, h in zip(a, self.lo, self.hi))

    @staticmethod
    def _step(a: MultiDeg, j: int) -> MultiDeg:
        return a[: j - 1] + (a[j - 1] - 1,) + a[j:]

    def multidegrees(self) -> List[MultiDeg]:
        axes = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        return [tuple(a) for a in product(*axes)]

    def dim(self, a: MultiDeg) -> int:
        return self.dims.get(tuple(a), 0)

    def d(self, j: int, a: MultiDeg) -> Matrix:
        """Differential along axis j out of multidegree a."""
        a = tuple(a)
        m = self.diffs.get(j, {}).get(a)
        if m is None:
            return Matrix.zeros(self.dim(self._step(a, j)), self.dim(a))
        return m


def validate_multicomplex(M: MultiComplex) -> List[str]:
    report = []
    for a in M.multidegrees():
        for j in range(1, M.n + 1):
            if a[j - 1] - 2 >= M.lo[j - 1]:
                b = M._step(a, j)
                if not (M.d(j, b) * M.d(j, a)).is_zero():
                    report.append(f"d_{j} d_{j} != 0 at {a}")
            for i in range(1, j):
                if a[i - 1] - 1 >= M.lo[i - 1] and a[j - 1] - 1 >= M.lo[j - 1]:
                    ai = M._step(a, i)
                    aj = M._step(a, j)
                    if M.d(j, ai) * M.d(i, a) != M.d(i, aj) * M.d(j, a):
                        report.append(f"d_{i} and d_{j} do not commute at {a}")
    return report


def totalization_offsets(M: MultiComplex, n: int) -> Dict[MultiDeg, int]:
    """Summands of tot_n are multidegrees with sum n, in ascending lex order."""
    off = {}
    pos = 0
    for a in sorted(a for a in M.multidegrees() if sum(a) == n):
        off[a] = pos
        pos += M.dim(a)
    return off


def totalize(M: MultiComplex) -> ChainComplex:
    lo = sum(M.lo)
    hi = sum(M.hi)
    dims = []
    for n in range(lo, hi + 1):
        dims.append(sum(M.dim(a) for a in M.multidegrees() if sum(a) == n))
    diffs = {}
    for n in range(lo + 1, hi + 1):
        tgt_off = totalization_offsets(M, n - 1)
        blocks = []
        for a, c0 in totalization_offsets(M, n).items():
            for j in range(1, M.n + 1):
                if a[j - 1] - 1 < M.lo[j - 1]:
                    continue
                blk = M.d(j, a)
                blocks.append((tgt_off[M._step(a, j)], c0,
                               -blk if sum(a[: j - 1]) % 2 else blk))
        diffs[n] = Matrix.from_blocks(dims[n - 1 - lo], dims[n - lo], blocks)
    return ChainComplex(lo, hi, tuple(dims), diffs)


def permute_axes(M: MultiComplex, perm: Sequence[int]) -> MultiComplex:
    """Relabel axes; perm[k] is the old axis placed at new position k+1."""
    if sorted(perm) != list(range(1, M.n + 1)):
        raise DimensionError("perm must be a permutation of 1..n")

    def move(a: MultiDeg) -> MultiDeg:
        return tuple(a[p - 1] for p in perm)

    dims = {move(a): M.dim(a) for a in M.multidegrees()}
    diffs: Dict[int, Dict[MultiDeg, Matrix]] = {}
    for new_j, old_j in enumerate(perm, start=1):
        diffs[new_j] = {}
        for a, m in M.diffs[old_j].items():
            diffs[new_j][move(a)] = m
    lo = move(M.lo)
    hi = move(M.hi)
    return MultiComplex(M.n, lo, hi, dims, diffs)


def complex_to_cube(C: ChainComplex) -> MultiComplex:
    """Place a complex on [0, n] at initial-segment vertices of {0,1}^n.

    Vertex {1..i} (as an indicator multidegree) carries C_i; the axis-i edge
    out of {1..i} is d_i and every other edge is zero.  All square faces
    commute through zero vertices precisely because d.d = 0.
    """
    if C.lo != 0:
        raise DimensionError("complex_to_cube expects support starting at degree 0")
    n = C.hi
    if n < 1:
        raise DimensionError("complex_to_cube needs hi >= 1")
    dims = {}
    for a in product((0, 1), repeat=n):
        i = sum(a)
        is_initial = all(a[k] == 1 for k in range(i))
        dims[a] = C.dim(i) if is_initial else 0
    diffs: Dict[int, Dict[MultiDeg, Matrix]] = {j: {} for j in range(1, n + 1)}
    for i in range(1, n + 1):
        a = tuple(1 if k < i else 0 for k in range(n))
        diffs[i][a] = C.d(i)
    return MultiComplex(n, (0,) * n, (1,) * n, dims, diffs)


# -- cubes of chain complexes -------------------------------------------------

Subset = FrozenSet[int]


class ChainCube:
    """{0,1}^n cube of complexes; edge[i][J]: vertex_J -> vertex_{J minus i}."""

    __slots__ = ("n", "vertices", "edges")

    def __init__(self, n: int, vertices: Dict[Subset, ChainComplex],
                 edges: Dict[int, Dict[Subset, ChainMap]]):
        self.n = n
        self.vertices = {frozenset(J): v for J, v in vertices.items()}
        for J in self._all_subsets():
            if J not in self.vertices:
                raise DimensionError(f"missing vertex {sorted(J)}")
        self.edges = {}
        for i in range(1, n + 1):
            self.edges[i] = {}
            for J in self._all_subsets():
                if i not in J:
                    continue
                e = edges.get(i, {}).get(frozenset(J))
                if e is None:
                    raise DimensionError(f"missing edge along axis {i} at {sorted(J)}")
                if e.source != self.vertices[J] or e.target != self.vertices[J - {i}]:
                    raise DimensionError(f"edge endpoints wrong along axis {i} at {sorted(J)}")
                self.edges[i][frozenset(J)] = e

    def _all_subsets(self) -> List[Subset]:
        out = []
        for bits in product((0, 1), repeat=self.n):
            out.append(frozenset(i + 1 for i in range(self.n) if bits[i]))
        return out

    def edge(self, i: int, J: Subset) -> ChainMap:
        return self.edges[i][frozenset(J)]


def validate_chain_cube(Q: ChainCube) -> List[str]:
    from .chain import validate_complex
    report = []
    for J, V in Q.vertices.items():
        for msg in validate_complex(V):
            report.append(f"vertex {sorted(J)}: {msg}")
    for i in range(1, Q.n + 1):
        for J, e in Q.edges[i].items():
            for msg in e.validate():
                report.append(f"edge axis {i} at {sorted(J)}: {msg}")
    for i in range(1, Q.n + 1):
        for j in range(i + 1, Q.n + 1):
            for J in Q._all_subsets():
                if i in J and j in J:
                    lhs = Q.edge(j, J - {i}).compose(Q.edge(i, J))
                    rhs = Q.edge(i, J - {j}).compose(Q.edge(j, J))
                    if lhs != rhs:
                        report.append(f"face ({i},{j}) does not commute at {sorted(J)}")
    return report


def _collapse_first_axis(Q: ChainCube) -> ChainCube:
    """Cone off axis 1; remaining axes are relabelled down by one."""
    n = Q.n
    new_vertices: Dict[Subset, ChainComplex] = {}
    cones = {}
    for J in Q._all_subsets():
        if 1 in J:
            continue
        c = cone(Q.edge(1, J | {1}))
        cones[J] = c
        new_vertices[frozenset(i - 1 for i in J)] = c.complex
    new_edges: Dict[int, Dict[Subset, ChainMap]] = {i: {} for i in range(1, n)}
    for J in Q._all_subsets():
        if 1 in J:
            continue
        for i in sorted(J):
            src = cones[J]
            tgt = cones[J - {i}]
            top = Q.edge(i, J | {1})  # shifted-source part of the cone
            bot = Q.edge(i, J)
            comps = {}
            for k in src.complex.degrees():
                a_blk = top.f(k - 1)
                b_blk = bot.f(k)
                comps[k] = Matrix.from_blocks(
                    a_blk.rows + b_blk.rows, a_blk.cols + b_blk.cols,
                    [(0, 0, a_blk), (a_blk.rows, a_blk.cols, b_blk)])
            newJ = frozenset(x - 1 for x in J)
            new_edges[i - 1][newJ] = ChainMap(src.complex, tgt.complex, comps)
    return ChainCube(n - 1, new_vertices, new_edges)


def cube_total_cofiber(Q: ChainCube) -> ChainComplex:
    """Iterated cone over all axes, axis 1 innermost."""
    if Q.n == 0:
        raise DimensionError("zero-dimensional cube")
    while Q.n > 1:
        Q = _collapse_first_axis(Q)
    return cone(Q.edge(1, frozenset({1}))).complex


def unfold_cube(Q: ChainCube) -> MultiComplex:
    """Flatten a cube of complexes to an (n+1)-axis multicomplex.

    Axes 1..n are the cube coordinates, axis n+1 the internal degree.  Edge
    maps commute with internal differentials on the nose (they are chain
    maps), so the stored-commuting convention is satisfied as given.
    """
    n = Q.n
    klo = min(V.lo for V in Q.vertices.values())
    khi = max(V.hi for V in Q.vertices.values())
    lo = (0,) * n + (klo,)
    hi = (1,) * n + (khi,)
    dims = {}
    for J, V in Q.vertices.items():
        bits = tuple(1 if i + 1 in J else 0 for i in range(n))
        for k in range(klo, khi + 1):
            dims[bits + (k,)] = V.dim(k)
    diffs: Dict[int, Dict[MultiDeg, Matrix]] = {j: {} for j in range(1, n + 2)}
    for J, V in Q.vertices.items():
        bits = tuple(1 if i + 1 in J else 0 for i in range(n))
        for k in range(klo, khi + 1):
            a = bits + (k,)
            if k > klo:
                diffs[n + 1][a] = V.d(k)
            for i in sorted(J):
                diffs[i][a] = Q.edge(i, J).f(k)
    return MultiComplex(n + 1, lo, hi, dims, diffs)


def cube_from_multicomplex(M: MultiComplex) -> ChainCube:
    """View a {0,1}^n multicomplex as a cube of degree-0 complexes."""
    if M.lo != (0,) * M.n or M.hi != (1,) * M.n:
        raise DimensionError("expected a {0,1}^n support box")
    vertices = {}
    edges: Dict[int, Dict[Subset, ChainMap]] = {i: {} for i in range(1, M.n + 1)}
    for a in M.multidegrees():
        J = frozenset(i + 1 for i in range(M.n) if a[i])
        vertices[J] = ChainComplex(0, 0, (M.dim(a),))
    for a in M.multidegrees():
        J = frozenset(i + 1 for i in range(M.n) if a[i])
        for i in sorted(J):
            src = vertices[J]
            tgt = vertices[J - {i}]
            edges[i][J] = ChainMap(src, tgt, {0: M.d(i, a)})
    return ChainCube(M.n, vertices, edges)
