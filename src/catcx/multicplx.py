"""Multicomplexes and totalization.

A MultiComplex stores n strictly commuting differentials on a box-shaped
support: d_j d_i = d_i d_j for i != j and d_j d_j = 0, with no signs.  The
Koszul signs appear only at totalization,

    eps_j(a) = (-1)^(a_1 + ... + a_{j-1}),

which is what makes the total differential square to zero; axis order for
the signs is the stored axis order.  Axes are numbered 1..n.

Differentials are stored by the one rule of every graded object, applied
per axis by `chain._kept_blocks`: the given ones inside the box and of
non-empty shape, lex ordered.  An absent one is zero; `d(j, a)` makes the
zero matrix for callers that need one.

ChainCube is the separate carrier for a {0,1}^n cube whose vertices are
chain complexes and whose edges (along axis i, from epsilon_i = 1 to 0)
are chain maps with strictly commuting faces.  Its total cofiber is the
iterated mapping cone, axis 1 first.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .exactlin import DimensionError, Matrix
from .chain import ChainComplex, ChainMap, _kept_blocks, cone_complex, cone_map, layout
from .documents import (MAX_DIM_ENV, DocumentError, _Ctx, _as_dict, _as_int, _as_list,
                        _check_dim, _components_json, _field, _int_keys, _parse_chain_complex,
                        _parse_map, _parse_matrix, _subset_key, _subset_keys,
                        check_cube_size, cube_subsets)


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
        self.diffs: Dict[int, Dict[MultiDeg, Matrix]] = {
            j: _kept_blocks((diffs or {}).get(j, {}), f"d_{j} at {{}}", lambda a, j=j: (
                self.dim(self._step(a, j)), self.dim(a))
                if self._in_box(a) and a[j - 1] > self.lo[j - 1] else None)
            for j in range(1, n + 1)}

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


def _stored(M: MultiComplex, j: int, i: int, a: MultiDeg) -> bool:
    """Whether both blocks of the route d_j d_i out of a are stored."""
    return a in M.diffs[i] and M._step(a, i) in M.diffs[j]


def validate_multicomplex(M: MultiComplex) -> List[str]:
    """Report of violations; a route through an absent block is zero."""
    report = []
    for a in M.multidegrees():
        for j in range(1, M.n + 1):
            aj = M._step(a, j)
            if _stored(M, j, j, a) and not (M.d(j, aj) * M.d(j, a)).is_zero():
                report.append(f"d_{j} d_{j} != 0 at {a}")
            for i in range(1, j):
                if ((_stored(M, j, i, a) or _stored(M, i, j, a))
                        and M.d(j, M._step(a, i)) * M.d(i, a) != M.d(i, aj) * M.d(j, a)):
                    report.append(f"d_{i} and d_{j} do not commute at {a}")
    return report


def _summands(M: MultiComplex) -> Tuple[Dict[int, int], Dict[MultiDeg, int]]:
    """The `layout` of tot(M): the declared multidegrees in lex order, each
    in degree sum(a)."""
    return layout([(a, sum(a), d) for a, d in sorted(M.dims.items())])


def totalize_dims(M: MultiComplex) -> Dict[int, int]:
    """Dimension of tot_n by degree n, from the dimensions alone."""
    dim = _summands(M)[0]
    return {n: dim.get(n, 0) for n in range(sum(M.lo), sum(M.hi) + 1)}


def totalize(M: MultiComplex) -> ChainComplex:
    """Summands of tot_n are the multidegrees with sum n, in ascending lex
    order; d_j out of a carries the sign (-1)^(a_1 + ... + a_{j-1})."""
    lo, hi = sum(M.lo), sum(M.hi)
    dim, off = _summands(M)
    blocks: Dict[int, list] = {}
    for j, table in M.diffs.items():
        for a, m in table.items():
            blocks.setdefault(sum(a), []).append(
                (off[M._step(a, j)], off[a], m, -1 if sum(a[: j - 1]) % 2 else 1, 1, 1))
    # a stored block has a non-empty shape, so both its summands have an offset
    diffs = {n: Matrix.from_blocks(dim[n - 1], dim[n], blocks[n]) for n in sorted(blocks)}
    return ChainComplex._of(lo, hi, tuple(dim.get(n, 0) for n in range(lo, hi + 1)), diffs)


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
    diffs = {i: {tuple(1 if k < i else 0 for k in range(n)): m} for i, m in C.diffs.items()}
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
        subsets = cube_subsets(n)
        for J in subsets:
            if J not in self.vertices:
                raise DimensionError(f"missing vertex {sorted(J)}")
        self.edges = {}
        for i in range(1, n + 1):
            self.edges[i] = {}
            for J in subsets:
                if i not in J:
                    continue
                e = edges.get(i, {}).get(frozenset(J))
                if e is None:
                    raise DimensionError(f"missing edge along axis {i} at {sorted(J)}")
                if e.source != self.vertices[J] or e.target != self.vertices[J - {i}]:
                    raise DimensionError(f"edge endpoints wrong along axis {i} at {sorted(J)}")
                self.edges[i][frozenset(J)] = e

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
            for J in cube_subsets(Q.n):
                if i in J and j in J:
                    lhs = Q.edge(j, J - {i}).compose(Q.edge(i, J))
                    rhs = Q.edge(i, J - {j}).compose(Q.edge(j, J))
                    if lhs != rhs:
                        report.append(f"face ({i},{j}) does not commute at {sorted(J)}")
    return report


def _collapse_first_axis(Q: ChainCube) -> ChainCube:
    """Cone off axis 1; remaining axes are relabelled down by one."""
    cones = {J: cone_complex(Q.edge(1, J | {1})) for J in cube_subsets(Q.n) if 1 not in J}
    new_edges: Dict[int, Dict[Subset, ChainMap]] = {i: {} for i in range(1, Q.n)}
    for J, src in cones.items():
        for i in J:
            new_edges[i - 1][frozenset(x - 1 for x in J)] = cone_map(
                src, cones[J - {i}], (Q.edge(i, J | {1}), Q.edge(i, J)))
    return ChainCube(Q.n - 1, {frozenset(i - 1 for i in J): c for J, c in cones.items()},
                     new_edges)


def cube_total_cofiber(Q: ChainCube) -> ChainComplex:
    """Iterated cone over all axes, axis 1 innermost."""
    if Q.n == 0:
        raise DimensionError("zero-dimensional cube")
    while Q.n > 1:
        Q = _collapse_first_axis(Q)
    return cone_complex(Q.edge(1, frozenset({1})))


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
    diffs: Dict[int, Dict[MultiDeg, Matrix]] = {j: {} for j in range(1, n + 2)}
    for J, V in Q.vertices.items():
        bits = tuple(1 if i + 1 in J else 0 for i in range(n))
        for k in range(klo, khi + 1):
            dims[bits + (k,)] = V.dim(k)
        for k, m in V.diffs.items():
            diffs[n + 1][bits + (k,)] = m
        for i in J:
            for k, m in Q.edge(i, J).comps.items():
                diffs[i][bits + (k,)] = m
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
            edges[i][J] = ChainMap(src, tgt, {0: M.diffs[i].get(a)})
    return ChainCube(M.n, vertices, edges)

# -- document codecs (rows of documents._TYPES) ---------------------------------

def _deg_key(a: Tuple[int, ...]) -> str:
    return ",".join(str(x) for x in a)


def _parse_deg(key: str, n: int, path: str) -> Tuple[int, ...]:
    parts = key.split(",")
    if len(parts) != n:
        raise DocumentError(f"multidegree {key!r} needs {n} entries", path)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise DocumentError(f"bad multidegree key {key!r}", path)


def _parse_multicomplex(d: dict, ctx: _Ctx, path: str) -> MultiComplex:
    n = _field(d, "n", path, _as_int)
    if n < 1:
        raise DocumentError("n must be at least 1", f"{path}.n")
    at = f"{path}.support"
    sup = _field(d, "support", path, _as_dict)
    lo = [_as_int(x, f"{at}.lo") for x in _field(sup, "lo", at, _as_list)]
    hi = [_as_int(x, f"{at}.hi") for x in _field(sup, "hi", at, _as_list)]
    if len(lo) != n or len(hi) != n:
        raise DocumentError("support bounds must have one entry per axis", at)
    # validate and totalize walk every multidegree of the box: cap the count first
    volume = 1
    for l, h in zip(lo, hi):
        volume *= max(h - l + 1, 0)
        if volume > ctx.cap:
            raise DocumentError(f"the support box holds more than {MAX_DIM_ENV}={ctx.cap} "
                                "multidegrees", at)
    dims = {_parse_deg(key, n, f"{path}.dims"): _check_dim(v, f"{path}.dims.{key}", ctx.cap)
            for key, v in _field(d, "dims", path, _as_dict).items()}
    probe = MultiComplex(n, lo, hi, dims)
    diffs: Dict[int, Dict[Tuple[int, ...], Matrix]] = {}
    at = f"{path}.differentials"
    for j, axkey, table in _int_keys(_field(d, "differentials", path, default={}), at, "axis",
                                     range(1, n + 1), "axis {} out of range"):
        diffs[j] = {}
        for key, mat in _as_dict(table, f"{at}.{axkey}").items():
            a = _parse_deg(key, n, f"{at}.{axkey}")
            b = MultiComplex._step(a, j)
            diffs[j][a] = _parse_matrix(mat, ctx, f"{at}.{axkey}.{key}",
                                        rows=probe.dim(b), cols=probe.dim(a))
    return MultiComplex(n, lo, hi, dims, diffs)


def _parse_chain_cube(d: dict, ctx: _Ctx, path: str) -> ChainCube:
    n = _field(d, "n", path, _as_int)
    if n < 0:
        raise DocumentError("n must be nonnegative", f"{path}.n")
    check_cube_size(n, ctx.cap, f"{path}.n")
    vertices = {J: _parse_chain_complex(v, ctx, f"{path}.vertices.{key}")
                for J, key, v in _subset_keys(_field(d, "vertices", path), f"{path}.vertices", n)}
    edges: Dict[int, Dict[frozenset, ChainMap]] = {}
    for i, axkey, table in _int_keys(_field(d, "edges", path), f"{path}.edges", "axis",
                                     range(1, n + 1), "axis {} out of range"):
        edges[i] = {}
        at = f"{path}.edges.{axkey}"
        # an edge's subset needs no range of its own: its vertices must exist
        for J, key, comps in _subset_keys(table, at):
            if J not in vertices or (J - {i}) not in vertices:
                raise DocumentError(f"edge at {key!r} references missing vertices", at)
            src, tgt = vertices[J], vertices[J - {i}]
            edges[i][J] = _parse_map(ChainMap, comps, src, tgt, ctx, f"{at}.{key}")
    try:
        return ChainCube(n, vertices, edges)
    except DimensionError as e:
        raise DocumentError(str(e), path)


def _multicomplex_json(M) -> dict:
    diffs = {}
    for j in range(1, M.n + 1):
        table = {_deg_key(a): M.d(j, a) for a in M.multidegrees()
                 if a[j - 1] > M.lo[j - 1] and M.dim(a) and M.dim(M._step(a, j))}
        if table:
            diffs[str(j)] = table
    return {"n": M.n, "support": {"lo": list(M.lo), "hi": list(M.hi)},
            "dims": {_deg_key(a): v for a, v in M.dims.items()},
            "differentials": diffs}


def _chain_cube_json(Q) -> dict:
    edges = {}
    for i in range(1, Q.n + 1):
        edges[str(i)] = {_subset_key(J): _components_json(e) for J, e in Q.edges[i].items()}
    return {"n": Q.n, "vertices": {_subset_key(J): v for J, v in Q.vertices.items()},
            "edges": edges}
