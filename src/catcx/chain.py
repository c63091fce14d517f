"""Bounded chain complexes of finite-dimensional Q-vector spaces.

Grading is homological: the differential d_k lowers degree, d_k: C_k -> C_{k-1}.
A complex stores an explicit support window [lo, hi]; degrees outside it are
zero by fiat.  Sign conventions used throughout the package, pinned by tests:

  shift       C[m]_k = C_{k-m},  d^{C[m]} = (-1)^m d^C
  cone(f)_k   = A_{k-1} (+) B_k,  d = [[-d_A, 0], [-f, d_B]]
  tensor      d(a (x) b) = da (x) b + (-1)^{|a|} a (x) db
  dual        dual(A)_k = (A_{-k})^*,  d^{dual(A)}_{1-k} = (-1)^{k-1} d_k^T
  hom         Map(A,B) = B (x) dual(A),  Map(A,B)_n = (+)_i Hom(A_i, B_{n+i}),
              d(f)_i = d_B . f_i - (-1)^{n-1} f_{i-1} . d_A   for f in degree n
  sum         A (+) B = cone(0 -> A (+) B), from an empty complex below both
  homotopy    check_homotopy(f, g, h) tests  g_k - f_k = d_{k+1} h_k + h_{k-1} d_k

One rule, `layout`, places the summands of every graded direct sum:
listed as (key, degree, dimension) in placement order, each summand of
nonzero dimension starts where those before it in its degree end.  Its
users are `tensor` (by `block_table`: A_i (x) B_{n-i} by increasing i,
basis pairs (p, q) with p outermost, Kronecker order), `hom_element`
(B_{n+i} (x) dual(A)_{-i}, as `tensor(B, dual(A))` places them),
`multicplx.totalize` (multidegrees in lex order) and `doldkan.gamma`
(surjections, identity first).  Cones keep their own running sums.

Every graded object (complex, chain map, homotopy, `multicplx.MultiComplex`)
stores its blocks by one rule, which `_kept_blocks` alone applies: of the
blocks it is given, those inside its window and of non-empty shape, by
ascending degree.  An absent block is zero, and `d(k)`, `f(k)` and `h(k)`
make the zero matrix for callers that need one.  Constructions keep the rule
without checking it: a stored block has a non-empty shape, and so has every
block built from stored ones, and each construction stores a degree only
where it places a block, so a cone of mostly-zero inputs holds no zero
matrix.  A complex the library sizes itself (`tensor`, `sum_cone`, `dual`,
`shift`, `multicplx.totalize`) is made by the trusted `ChainComplex._of`, as
`Matrix._of` makes matrices: `Matrix.from_blocks` has already checked that
every block fits, so its shapes are not checked again.  `ChainComplex(...)`
stays the one checked entry, for parsed and caller data.

Two loops assemble a complex from blocks, `tensor` and `sum_cone`, and
`hom` and `sum` above are built by them.  Cones are built one way:
`sum_cone` builds the cone of A -> T_1 (+) T_2 (+) ..., and `cone_map` the
map of two such cones induced by a map of their diagrams.  The
cone-shaped complexes of the package (mapping cones, direct sums, homotopy
pushouts, cube collapses, the twisted totalization of `simplex`) are all
built from these two, and so are the maps between them, but for one: the
structure cells of a lax composition, maps of homotopy pushouts that
`laxmat._induced_cell` places itself after the tensor/cone interchange.
A `Cone` builds its two structure maps only when they are read: `catcx
cone` writes the complex alone, and `cof` only the map from the target.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .exactlin import DimensionError, Matrix
from .record import Record


class ChainComplex:
    """Bounded complex; dims[i] is the dimension in degree lo + i, and
    support lists the (degree, dimension) pairs of the nonzero degrees."""

    __slots__ = ("lo", "hi", "dims", "diffs", "support")

    def __init__(self, lo: int, hi: int, dims, diffs: Optional[Dict[int, Matrix]] = None):
        if hi < lo:
            raise DimensionError("support window is empty; use a zero degree instead")
        dims = tuple(int(n) for n in dims)
        if len(dims) != hi - lo + 1:
            raise DimensionError("dims length does not match support window")
        if any(n < 0 for n in dims):
            raise DimensionError("negative dimension")
        self.lo = lo
        self.hi = hi
        self.dims = dims
        self.support = tuple((k, n) for k, n in zip(range(lo, hi + 1), dims) if n)
        self.diffs = _kept_blocks(diffs or {}, "differential at degree {}", lambda k: (
            dims[k - 1 - lo], dims[k - lo]) if lo < k <= hi else None)

    @classmethod
    def _of(cls, lo: int, hi: int, dims: Tuple[int, ...],
            diffs: Dict[int, Matrix]) -> "ChainComplex":
        """Trusted constructor, as `Matrix._of`: dims a tuple of ints over
        [lo, hi], diffs by ascending degree inside (lo, hi], each of the
        shape it has in the complex, none of empty shape; nothing is checked."""
        C = object.__new__(cls)
        C.lo, C.hi, C.dims, C.diffs = lo, hi, dims, diffs
        C.support = tuple((k, n) for k, n in zip(range(lo, hi + 1), dims) if n)
        return C

    def dim(self, k: int) -> int:
        if self.lo <= k <= self.hi:
            return self.dims[k - self.lo]
        return 0

    def d(self, k: int) -> Matrix:
        """Differential out of degree k, zero-shaped outside the support."""
        m = self.diffs.get(k)
        if m is None:
            return Matrix.zeros(self.dim(k - 1), self.dim(k))
        return m

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def total_dim(self) -> int:
        return sum(self.dims)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.dims == other.dims
            and _same_blocks(self.diffs, other.diffs)
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.dims))

    def __repr__(self):
        return f"ChainComplex([{self.lo},{self.hi}], dims={list(self.dims)})"


def _kept_blocks(given: dict, what: str, shape) -> dict:
    """The store rule of every graded object: the given blocks by ascending
    key, except None, those outside the window (where shape(k) is None) and
    those of empty shape.  A block not of shape(k) = (rows, cols) raises a
    DimensionError that names it as what.format(k)."""
    kept = {}
    for k in sorted(given):
        m = given[k]
        if m is None or (expected := shape(k)) is None:
            continue
        if (m.rows, m.cols) != expected:
            raise DimensionError(f"{what.format(k)} has shape {m.rows}x{m.cols}, "
                                 f"expected {expected[0]}x{expected[1]}")
        if m.rows and m.cols:
            kept[k] = m
    return kept


def _same_blocks(a: Dict[int, Matrix], b: Dict[int, Matrix]) -> bool:
    """Whether two stores of blocks of the same shapes hold the same graded
    object: a block stored on one side only must be zero."""
    return (all(b[k] == m if k in b else m.is_zero() for k, m in a.items())
            and all(m.is_zero() for k, m in b.items() if k not in a))


def zero_complex() -> ChainComplex:
    return ChainComplex(0, 0, (0,))


def unit_complex() -> ChainComplex:
    """Q concentrated in degree 0; strict unit for tensor."""
    return ChainComplex(0, 0, (1,))


def single(k: int, dim: int = 1) -> ChainComplex:
    return ChainComplex(k, k, (dim,))


def two_term(hi_deg: int, m: Matrix) -> ChainComplex:
    """Complex m: C_{hi_deg} -> C_{hi_deg - 1} with zero elsewhere."""
    return ChainComplex(hi_deg - 1, hi_deg, (m.rows, m.cols), {hi_deg: m})


def validate_complex(C: ChainComplex) -> List[str]:
    """Report of violations of d.d = 0; empty means valid (shapes are checked on construction)."""
    return [f"d.d != 0 at degree {k}" for k, m in C.diffs.items()
            if k - 1 in C.diffs and not (C.diffs[k - 1] * m).is_zero()]


class _Graded:
    """Degreewise matrices comps[k]: A_k -> B_{k + deg} between two complexes,
    the shared body of ChainMap (deg 0) and ChainHomotopy (deg +1)."""

    __slots__ = ("source", "target", "comps")
    _deg = 0
    _what = "chain map component at degree {}"

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 comps: Optional[Dict[int, Matrix]] = None):
        self.source = source
        self.target = target
        self.comps = {}
        if comps:  # most maps a lax composition builds are given no block
            deg = self._deg
            lo, hi = min(source.lo, target.lo - deg), max(source.hi, target.hi - deg)
            self.comps = _kept_blocks(comps, self._what, lambda k: (
                target.dim(k + deg), source.dim(k)) if lo <= k <= hi else None)

    def _comp(self, k: int) -> Matrix:
        """The component out of degree k, zero where none is stored."""
        m = self.comps.get(k)
        if m is None:
            return Matrix.zeros(self.target.dim(k + self._deg), self.source.dim(k))
        return m

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        return _same_blocks(self.comps, other.comps)

    def __repr__(self):
        return f"{type(self).__name__}({self.source!r} -> {self.target!r})"


class ChainMap(_Graded):
    """Degreewise map f_k: A_k -> B_k between two complexes."""

    __slots__ = ()
    f = _Graded._comp

    def validate(self) -> List[str]:
        A, B, stored = self.source, self.target, self.comps
        # only a degree where a stored block meets a differential can fail
        degrees = B.diffs.keys() & stored.keys() | A.diffs.keys() & {k + 1 for k in stored}
        return [f"does not commute with differentials at degree {k}" for k in sorted(degrees)
                if B.d(k) * self.f(k) != self.f(k - 1) * A.d(k)]

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self . other, requiring other.target == self.source."""
        if other.target != self.source:
            raise DimensionError("chain map composition: middle complexes differ")
        # a degree where either factor is absent is zero
        comps = {k: self.comps[k] * other.comps[k] for k in self.comps.keys() & other.comps.keys()}
        return ChainMap(other.source, self.target, comps)

    def _plus(self, other: "ChainMap", what: str) -> "ChainMap":
        """self + other; a degree stored on one side only is that side's block."""
        if self.source != other.source or self.target != other.target:
            raise DimensionError(f"chain map {what}: endpoints differ")
        comps = {**other.comps, **self.comps}
        for k in self.comps.keys() & other.comps.keys():
            comps[k] = self.comps[k] + other.comps[k]
        return ChainMap(self.source, self.target, comps)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        return self._plus(other, "addition")

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self._plus(-other, "subtraction")

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.source, self.target, {k: -m for k, m in self.comps.items()})

    def __hash__(self):
        return hash((self.source, self.target))


def validate_map(f) -> List[str]:
    """The problems of a chain map, or of a chain homotopy's endpoints."""
    problems = ([f"source: {m}" for m in validate_complex(f.source)]
                + [f"target: {m}" for m in validate_complex(f.target)])
    return problems + f.validate() if isinstance(f, ChainMap) else problems


def identity_map(C: ChainComplex) -> ChainMap:
    return ChainMap(C, C, {k: Matrix.identity(n) for k, n in C.support})


def zero_map(A: ChainComplex, B: ChainComplex) -> ChainMap:
    return ChainMap(A, B, {})


class ChainHomotopy(_Graded):
    """Degree +1 data h_k: A_k -> B_{k+1}; the pair it compares is supplied
    at check time (see check_homotopy)."""

    __slots__ = ()
    _deg = 1
    _what = "homotopy component at degree {}"
    h = _Graded._comp


def homotopy_failures(f: ChainMap, g: ChainMap, h: ChainHomotopy) -> Iterator[int]:
    """The degrees k, ascending, where g_k - f_k != d_{k+1} h_k + h_{k-1} d_k."""
    A, B = f.source, f.target
    # only a degree where a stored block meets a product can fail
    degrees = (f.comps.keys() | g.comps.keys() | h.comps.keys() & {k - 1 for k in B.diffs}
               | A.diffs.keys() & {k + 1 for k in h.comps})
    for k in sorted(degrees):
        if g.f(k) - f.f(k) != B.d(k + 1) * h.h(k) + h.h(k - 1) * A.d(k):
            yield k


def check_homotopy(f: ChainMap, g: ChainMap, h: ChainHomotopy) -> bool:
    """Exact check of g - f = d h + h d, degree by degree."""
    if f.source != g.source or f.target != g.target:
        raise DimensionError("homotopy check: maps have different endpoints")
    if h.source != f.source or h.target != f.target:
        raise DimensionError("homotopy check: homotopy endpoints differ from maps")
    return next(homotopy_failures(f, g, h), None) is None


def homology_dims(C: ChainComplex) -> Dict[int, int]:
    """dim H_k = dim C_k - rank d_k - rank d_{k+1}."""
    ranks = {k: m.rank() for k, m in C.diffs.items()}
    return {k: C.dim(k) - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in C.degrees()}


def is_acyclic(C: ChainComplex) -> bool:
    return all(v == 0 for v in homology_dims(C).values())


def euler_characteristic(C: ChainComplex) -> int:
    return sum(-C.dim(k) if k % 2 else C.dim(k) for k in C.degrees())


def shift(C: ChainComplex, m: int) -> ChainComplex:
    """C[m]_k = C_{k-m}; differential scaled by (-1)^m."""
    sign = -1 if m % 2 else 1
    diffs = {k + m: d.scale(sign) for k, d in C.diffs.items()}
    return ChainComplex._of(C.lo + m, C.hi + m, C.dims, diffs)


def shift_map(f: ChainMap, m: int) -> ChainMap:
    return ChainMap(shift(f.source, m), shift(f.target, m),
                    {k + m: v for k, v in f.comps.items()})


class Cone(Record):
    """Mapping cone of f: A -> B; its two canonical structure maps are built
    when read."""

    __slots__ = ("map", "complex")
    map: ChainMap
    complex: ChainComplex

    @property
    def from_target(self) -> ChainMap:
        """B -> cone, the inclusion of the B-part."""
        A, B, cx = self.map.source, self.map.target, self.complex
        return ChainMap(B, cx, {k: inclusion(cx.dim(k), A.dim(k - 1), n) for k, n in B.support})

    @property
    def to_shifted_source(self) -> ChainMap:
        """cone -> A[1], the projection onto the A[1]-part."""
        sh, cx = shift(self.map.source, 1), self.complex
        return ChainMap(cx, sh, {k: projection(cx.dim(k), 0, n) for k, n in sh.support})


def cone(f: ChainMap) -> Cone:
    """cone(f)_k = A_{k-1} (+) B_k with differential [[-d_A, 0], [-f, d_B]].

    The A[1]-part comes first in the direct sum ordering.
    """
    return Cone(f, cone_complex(f))


def cone_complex(f: ChainMap) -> ChainComplex:
    """The complex of cone(f), without its structure maps."""
    return sum_cone([(f, 1)])


def sum_cone_dims(A: ChainComplex, *Ts: ChainComplex) -> Dict[int, int]:
    """Dimension of cone(A -> T_1 (+) T_2 (+) ...) by degree k over its
    window, A_{k-1} + T_1,k + ..., from the dimensions alone."""
    lo = min(A.lo + 1, *(T.lo for T in Ts))
    hi = max(A.hi + 1, *(T.hi for T in Ts))
    return {k: A.dim(k - 1) + sum(T.dim(k) for T in Ts) for k in range(lo, hi + 1)}


def sum_cone(legs: List[tuple]) -> ChainComplex:
    """The complex of cone(A -> T_1 (+) T_2 (+) ...) for legs (f_i, sign_i),
    chain maps f_i: A -> T_i sharing their source A, the map being
    (sign_i f_i): degree k is A_{k-1} (+) T_1,k (+) ..., and
    d = [[-d_A, 0], [-sign_i f_i, d_T_i]]."""
    A = legs[0][0].source
    dims = sum_cone_dims(A, *(f.target for f, _ in legs))
    diffs = {}
    for k in list(dims)[1:]:
        blocks = [(0, 0, A.diffs[k - 1], -1, 1, 1)] if k - 1 in A.diffs else []
        r, c = A.dim(k - 2), A.dim(k - 1)
        for f, sign in legs:
            T = f.target
            if k - 1 in f.comps:
                blocks.append((r, 0, f.comps[k - 1], -sign, 1, 1))
            if k in T.diffs:
                blocks.append((r, c, T.diffs[k]))
            r, c = r + T.dim(k - 1), c + T.dim(k)
        if blocks:
            diffs[k] = Matrix.from_blocks(dims[k - 1], dims[k], blocks)
    return ChainComplex._of(min(dims), max(dims), tuple(dims.values()), diffs)


def _endpoints(f) -> Tuple[ChainComplex, ChainComplex]:
    """A chain map's source and target; a complex stands for its identity."""
    return (f, f) if isinstance(f, ChainComplex) else (f.source, f.target)


def cone_map(src: ChainComplex, tgt: ChainComplex, parts: tuple) -> ChainMap:
    """The map of cones src -> tgt induced by a map of their diagrams, with
    parts (f_0, f_1, ...) on the apex and on each leg of `sum_cone`: degree k
    is block diagonal, (f_0)_{k-1} (+) (f_1)_k (+) ...  A complex stands for
    its identity.  Whether the parts commute with the legs is the caller's
    check."""
    ends = [_endpoints(f) for f in parts]
    comps = {}
    for k in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 1):
        blocks, r, c = [], 0, 0
        for at, f, (A, B) in zip((k - 1,) + (k,) * (len(parts) - 1), parts, ends):
            n = A.dim(at)
            m = (Matrix.identity(n) if n else None) if f is A else f.comps.get(at)
            if m is not None:
                blocks.append((r, c, m))
            r, c = r + B.dim(at), c + n
        if blocks:  # every placed block has a non-empty shape
            comps[k] = Matrix.from_blocks(r, c, blocks)
    return ChainMap(src, tgt, comps)


def is_quasi_iso(f: ChainMap) -> bool:
    """Quasi-isomorphism test: the cone is acyclic."""
    return is_acyclic(cone_complex(f))


def direct_sum(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    """A (+) B, as the cone of the zero map into A and B from an empty
    complex one degree below both windows."""
    Z = single(min(A.lo, B.lo) - 1, 0)
    return sum_cone([(zero_map(Z, A), 1), (zero_map(Z, B), 1)])


def inclusion(n: int, at: int, size: int) -> Matrix:
    """n x size partial identity: column j is the basis vector e_{at + j}."""
    return Matrix.monomial(n, range(at, at + size))


def projection(n: int, at: int, size: int) -> Matrix:
    """size x n partial identity: keeps the coordinates at, ..., at + size - 1."""
    return Matrix.monomial(size, [-1] * at + list(range(size)) + [-1] * (n - at - size))


# -- layout and tensor product ------------------------------------------------

def layout(summands) -> Tuple[Dict[int, int], dict]:
    """The placement rule of every graded direct sum: for (key, degree,
    dimension) triples in placement order, the dimension by degree, nonzero
    ones only, and where each summand of nonzero dimension starts inside
    its degree, by key."""
    dim, off = {}, {}
    for key, n, size in summands:
        if size:
            off[key] = at = dim.get(n, 0)
            dim[n] = at + size
    return dim, off


def block_table(As: Tuple[Tuple[int, int], ...], Bs: Tuple[Tuple[int, int], ...]
                ) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int]]:
    """For supports As, Bs (ascending (degree, dimension) pairs): the
    `layout` of A (x) B, its blocks A_i (x) B_j keyed (i, j) by increasing i."""
    return layout([((i, j), i + j, a * b) for i, a in As for j, b in Bs])


def tensor_dims(*factors: ChainComplex) -> Dict[int, int]:
    """Dimension by degree n of the tensor product of two or more factors,
    over its window, from the dimensions alone."""
    dim = dict(factors[0].support)
    for X in factors[1:]:
        dim = block_table(tuple(sorted(dim.items())), X.support)[0]
    lo, hi = sum(X.lo for X in factors), sum(X.hi for X in factors)
    return {n: dim.get(n, 0) for n in range(lo, hi + 1)}


def tensor(A: ChainComplex, B: ChainComplex, table: Optional[tuple] = None) -> ChainComplex:
    """A (x) B, placed by `block_table(A.support, B.support)`, or by that
    table when the caller already holds it."""
    lo = A.lo + B.lo
    hi = A.hi + B.hi
    dim, off = block_table(A.support, B.support) if table is None else table
    # d(a (x) b) = da (x) b + (-1)^i a (x) db, blockwise da (x) 1 and +-1 (x) db
    blocks = {}
    for (i, j), c0 in off.items():
        if (i - 1, j) in off and i in A.diffs:
            blocks.setdefault(i + j, []).append(
                (off[i - 1, j], c0, A.diffs[i], 1, 1, B.dims[j - B.lo]))
        if (i, j - 1) in off and j in B.diffs:
            blocks.setdefault(i + j, []).append(
                (off[i, j - 1], c0, B.diffs[j], -1 if i % 2 else 1, A.dims[i - A.lo], 1))
    # a block sits where degrees n - 1 and n both have a summand, so no shape is empty
    diffs = {n: Matrix.from_blocks(dim[n - 1], dim[n], blocks[n]) for n in sorted(blocks)}
    return ChainComplex._of(lo, hi, tuple(dim.get(n, 0) for n in range(lo, hi + 1)), diffs)


class TensorMemo:
    """The one cache of a computation: tensor products and the blocks of
    tensor-product maps, each built once per pair of operands, and block
    tables and index maps (`laxmat`'s associators and interchanges), each
    built once per key.

    Operands are keyed on object identity, which is sound only while they
    are alive and unchanged, so the memo holds a reference to each.  Tables
    and index maps are keyed on windows and supports alone, since they
    depend on nothing else, so a key never stands in for a check of
    values.  What the memo returns is shared between its callers, who only
    read it.  Make one per computation, pass it along explicitly, and let
    it go with the computation; nothing is memoised at module level.
    """

    __slots__ = ("_tensors", "_tables", "_blocks", "_maps")

    def __init__(self):
        self._tensors = {}
        self._tables = {}
        self._blocks = {}
        self._maps = {}

    def tensor(self, A: ChainComplex, B: ChainComplex) -> ChainComplex:
        key = (id(A), id(B))
        hit = self._tensors.get(key)
        if hit is None:
            hit = self._tensors[key] = (A, B, tensor(A, B, self.table(A.support, B.support)))
        return hit[2]

    def table(self, As: tuple, Bs: tuple) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int]]:
        """`block_table(As, Bs)`, computed once per memo."""
        hit = self._tables.get((As, Bs))
        if hit is None:
            hit = self._tables[As, Bs] = block_table(As, Bs)
        return hit

    def index_map(self, key: tuple, build):
        """build(), called once per memo and key; the key names everything
        the result depends on."""
        hit = self._maps.get(key)
        if hit is None:
            hit = self._maps[key] = build()
        return hit


def tensor_map_blocks(f, g, memo: TensorMemo) -> Dict[int, Tuple[int, int, list]]:
    """(rows, cols, blocks) of (f (x) g)_n for `Matrix.from_blocks`, by
    degree n over its source's and target's windows, built once per memo
    and pair of operands.  Either factor may be a complex, standing for its
    identity; its blocks are then Kronecker products with an identity,
    which are placed without being formed.  An absent component places no
    block."""
    key = (id(f), id(g))
    hit = memo._blocks.get(key)
    if hit is None:
        hit = memo._blocks[key] = (f, g, _map_blocks(f, g, memo))
    return hit[2]


def _map_blocks(f, g, memo: TensorMemo) -> Dict[int, Tuple[int, int, list]]:
    (A, C), (B, D) = _endpoints(f), _endpoints(g)
    cols, src_off = memo.table(A.support, B.support)
    rows, tgt_off = memo.table(C.support, D.support)
    out = {n: (rows.get(n, 0), cols.get(n, 0), [])
           for n in range(min(A.lo + B.lo, C.lo + D.lo), max(A.hi + B.hi, C.hi + D.hi) + 1)}
    for (i, j), c0 in src_off.items():
        r0 = tgt_off.get((i, j))
        if r0 is None or (f is not A and i not in f.comps) or (g is not B and j not in g.comps):
            continue
        if f is A:
            m, kron = g.comps[j], (1, A.dims[i - A.lo], 1)
        elif g is B:
            m, kron = f.comps[i], (1, 1, B.dims[j - B.lo])
        else:
            m, kron = f.comps[i].kron(g.comps[j]), (1, 1, 1)
        out[i + j][2].append((r0, c0, m, *kron))
    return out


def tensor_map_comps(f, g, memo: TensorMemo,
                     gather: Optional[Dict[int, tuple]] = None) -> Dict[int, Matrix]:
    """Components of f (x) g by degree (a complex standing for its identity),
    without building its source and target; with gather = {degree: (cols,
    signs)}, composed with that index map as `Matrix.permute` composes."""
    # a degree where nothing is placed is zero; every placed block has a non-empty shape
    return {n: Matrix.from_blocks(rows, cols, blocks, gather and gather[n])
            for n, (rows, cols, blocks) in tensor_map_blocks(f, g, memo).items() if blocks}


def tensor_map(f, g, memo: Optional[TensorMemo] = None) -> ChainMap:
    """f (x) g for chain maps (no Koszul signs); a complex stands for its identity."""
    memo = TensorMemo() if memo is None else memo
    (A, C), (B, D) = _endpoints(f), _endpoints(g)
    return ChainMap(memo.tensor(A, B), memo.tensor(C, D), tensor_map_comps(f, g, memo))


# -- mapping complex ----------------------------------------------------------

def dual(A: ChainComplex) -> ChainComplex:
    """The dual complex: dual(A)_k = (A_{-k})^*, its differential out of
    degree 1 - k the transpose of d_k signed (-1)^{k-1}."""
    diffs = {}
    for k in reversed(A.diffs):
        t = A.diffs[k].transpose()
        diffs[1 - k] = -t if k % 2 == 0 else t
    return ChainComplex._of(-A.hi, -A.lo, A.dims[::-1], diffs)


def hom_dims(A: ChainComplex, B: ChainComplex) -> Dict[int, int]:
    """Dimension of Map(A, B)_n by degree n, from the dimensions alone."""
    return tensor_dims(B, ChainComplex._of(-A.hi, -A.lo, A.dims[::-1], {}))


def hom_complex(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    """Map(A,B)_n = (+)_i Hom(A_i, B_{n+i}), built as B (x) dual(A).

    For f of degree n the differential is d(f)_i = d_B . f_i - (-1)^{n-1}
    f_{i-1} . d_A: the tensor sign (-1)^{n+i} times the dual's (-1)^i.
    A matrix F in Hom(A_i, B_{n+i}) is flattened row-major, which is the
    Kronecker order of B_{n+i} (x) A_i^*.
    """
    return tensor(B, dual(A))


def hom_element(A: ChainComplex, B: ChainComplex, n: int,
                comps: Dict[int, Matrix]) -> Matrix:
    """Flatten {f_i: A_i -> B_{n+i}} into a coordinate column of Map(A,B)_n,
    each f_i where `tensor(B, dual(A))` places B_{n+i} (x) dual(A)_{-i}; a
    component at an empty summand or outside the window is ignored."""
    dim, off = block_table(B.support, tuple((-i, a) for i, a in reversed(A.support)))
    blocks = []
    for i in sorted(comps):
        pos, m = off.get((n + i, -i)), comps[i]
        if pos is None or m is None:
            continue
        if (m.rows, m.cols) != (B.dim(n + i), A.dim(i)):
            raise DimensionError(f"hom element component {i} has wrong shape")
        # m flattened row-major into one column
        blocks.append((pos, 0, Matrix._of(m.rows * m.cols, 1, m._e, m._d)))
    return Matrix.from_blocks(dim.get(n, 0), 1, blocks)

