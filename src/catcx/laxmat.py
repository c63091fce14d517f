"""Lax matrix calculus over the arrow poset, at K_0 and at chain level.

K_0 level: finite posets, zeta and Moebius integer matrices, and the
composition rule N . mobius(middle) . M for integer matrices indexed by
poset elements.  Moebius is computed by substitution over a linear
extension (Rota 1964): mu(t, s) = [s = t] - sum of mu(u, s) over u <= t,
u != t.  Only a relation that is not reflexive, or that has a cycle, is
inverted by elimination, which finds the same inverse or the same error.

Chain level: a Delta1ChainMatrix is a 2x2 grid of chain complexes over a
pair of gluing complexes, carrying four structure chain maps

    cell_f0: G_tgt (x) E00 -> E10        cell_0f: E01 (x) G_src -> E00
    cell_f1: G_tgt (x) E01 -> E11        cell_1f: E11 (x) G_src -> E10

and one exact commuting-square constraint tying them together.  The table
`_CELLS` states these shapes once, for the checks, the parser and the writer.
Composition is an entrywise homotopy pushout over the twisted-arrow span

    N_u0 (x) M_0s  <--  N_u1 (x) G (x) M_0s  -->  N_u1 (x) M_1s,

realized as the mapping cone of (p, -q), with the composed structure maps
induced by maps of spans.  Tensoring a cone by a complex is only
isomorphic, not equal, to the cone of the tensored span, so the two
interchange isomorphisms (a sign (-1)^i on the shifted-apex summands for
the left one, a plain permutation for the right one) are explicit.  All
multi-factor tensors are left-associated; re-bracketing goes through the
explicit associator, a signless basis permutation.

The associator, its inverse and the interchanges are index maps
{degree: (cols, signs)}: source basis vector j goes to signs[j] times
target basis vector cols[j] (signs None when all +1); only the public
functions build them densely.  A composition composes them as int lists
and writes each span leg and cell component in one `Matrix.from_blocks`
pass, straight from the input cells' entries.  It never builds the
tensored spans or their pushouts, and builds everything else once, in a
`TensorMemo` that lives for that call only: tensor products and the blocks
of tensor-product maps once per pair of operands (keyed on identity),
block tables and index maps once per key of windows and supports (the
associator's also on its direction, the interchange's on its side).  The
cached index data is shared by every request for its key, so it is only
read.  A key stands in for no check: cells and squares are compared by
value on every call.
"""

from __future__ import annotations

from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from .exactlin import DimensionError, Matrix
from .record import Record
from .chain import (ChainComplex, ChainMap, TensorMemo, cone,
                    euler_characteristic, inclusion, shift_map, sum_cone,
                    tensor, tensor_dims, tensor_map, tensor_map_blocks, tensor_map_comps,
                    unit_complex, validate_complex, zero_complex)
from .documents import (DocumentError, _Ctx, _as_dict, _as_int, _as_list, _check_dim,
                        _complex, _components_json, _field, _parse_map, check_dims)


# -- finite posets and the K_0 shadow ----------------------------------------

class FinPoset(Record):
    __slots__ = ("labels", "leq")
    labels: Tuple[str, ...]
    leq: Tuple[Tuple[bool, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.leq) != n or any(len(r) != n for r in self.leq):
            raise DimensionError("leq must be a square boolean table")

    @classmethod
    def delta1(cls) -> "FinPoset":
        return cls(("0", "1"), ((True, True), (False, True)))

    @classmethod
    def chain(cls, n: int) -> "FinPoset":
        labels = tuple(str(i) for i in range(n))
        leq = tuple(tuple(i <= j for j in range(n)) for i in range(n))
        return cls(labels, leq)

    def size(self) -> int:
        return len(self.labels)


def validate_poset(P: FinPoset) -> List[str]:
    L, leq, n = P.labels, P.leq, range(P.size())
    return ([f"not reflexive at {L[i]}" for i in n if not leq[i][i]]
            + [f"not antisymmetric on ({L[i]},{L[j]})" for i in n for j in n
               if i != j and leq[i][j] and leq[j][i]]
            + [f"not transitive via ({L[i]},{L[j]},{L[k]})" for i in n for j in n for k in n
               if leq[i][j] and leq[j][k] and not leq[i][k]])


class IntMatrix:
    """Integer `Matrix` (denominator 1) with labelled rows and columns."""

    __slots__ = ("row_labels", "col_labels", "matrix")

    def __init__(self, row_labels: Sequence[str], col_labels: Sequence[str],
                 entries: Sequence[Sequence[int]]):
        rows = [tuple(int(x) for x in row) for row in entries]
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        c = len(self.col_labels)
        if len(rows) != len(self.row_labels) or any(len(r) != c for r in rows):
            raise DimensionError("IntMatrix shape does not match labels")
        self.matrix = Matrix._of(len(rows), c, [x for r in rows for x in r])

    @classmethod
    def _of(cls, row_labels: Sequence[str], col_labels: Sequence[str], m: Matrix) -> "IntMatrix":
        """Trusted constructor: m has denominator 1 and the labels' shape."""
        M = object.__new__(cls)
        M.row_labels, M.col_labels, M.matrix = tuple(row_labels), tuple(col_labels), m
        return M

    @property
    def entries(self) -> Tuple[Tuple[int, ...], ...]:
        e, c = self.matrix._e, self.matrix.cols
        return tuple(e[i * c:(i + 1) * c] for i in range(self.matrix.rows))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.col_labels != other.row_labels:
            raise DimensionError("IntMatrix label mismatch in product")
        return IntMatrix._of(self.row_labels, other.col_labels, self.matrix * other.matrix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.row_labels == other.row_labels
                and self.col_labels == other.col_labels
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"IntMatrix({self.row_labels}x{self.col_labels}: {self.entries})"


def zeta(P: FinPoset) -> IntMatrix:
    """zeta[t][s] = 1 when s <= t in the poset."""
    n = P.size()
    ent = [1 if x else 0 for col in zip(*P.leq) for x in col]  # row t is leq's column t
    return IntMatrix._of(P.labels, P.labels, Matrix._of(n, n, ent))


def _linear_extension(below: List[List[int]]) -> Optional[List[int]]:
    """The indices ordered so that each t comes after every u in below[t],
    or None when below has a cycle (Kahn's algorithm)."""
    pending = [len(b) for b in below]
    above = [[] for _ in below]
    for t, b in enumerate(below):
        for u in b:
            above[u].append(t)
    order = [t for t, k in enumerate(pending) if not k]
    for u in order:  # grows while it is read
        for t in above[u]:
            pending[t] -= 1
            if not pending[t]:
                order.append(t)
    return order if len(order) == len(below) else None


def mobius(P: FinPoset) -> IntMatrix:
    """Integer inverse of zeta.  For a reflexive relation without cycles,
    zeta is unitriangular in a linear extension, and zeta . mu = 1 is solved
    there by substitution: row t of mu is e_t minus the rows of mu at every
    u <= t, u != t.  Any other relation is inverted by elimination, which
    raises DimensionError when zeta is singular or its inverse not integral."""
    n, leq = P.size(), P.leq
    order = None
    if all(leq[t][t] for t in range(n)):
        below = [[u for u in range(n) if u != t and leq[u][t]] for t in range(n)]
        order = _linear_extension(below)
    if order is None:
        inv = zeta(P).matrix.invert()
        if inv is None:
            raise DimensionError("zeta matrix is singular; input is not a poset")
        if inv._d != 1:
            raise DimensionError("Moebius matrix is not integral")
        return IntMatrix._of(P.labels, P.labels, inv)
    mu = [None] * n
    for t in order:
        row = [0] * n
        row[t] = 1
        for u in below[t]:
            row = list(map(sub, row, mu[u]))
        mu[t] = row
    return IntMatrix._of(P.labels, P.labels, Matrix._of(n, n, [x for r in mu for x in r]))


def k0_compose(N: IntMatrix, M: IntMatrix, middle: FinPoset) -> IntMatrix:
    """N . mobius(middle) . M; N's columns and M's rows live on middle."""
    if N.col_labels != middle.labels or M.row_labels != middle.labels:
        raise DimensionError("matrix labels do not match the middle poset")
    return N * mobius(middle) * M


# -- spans and homotopy pushouts ----------------------------------------------

class Span(Record):
    """B <-- left -- apex -- right --> C."""

    __slots__ = ("left", "right")
    left: ChainMap
    right: ChainMap

    def __post_init__(self):
        if self.left.source != self.right.source:
            raise DimensionError("span legs must share their apex")

    @property
    def apex(self) -> ChainComplex:
        return self.left.source


class Pushout(Record):
    __slots__ = ("span", "cx", "from_left", "from_right")
    span: Span
    cx: ChainComplex
    from_left: ChainMap   # B -> cx
    from_right: ChainMap  # C -> cx


def hpushout(span: Span) -> Pushout:
    """cone((p, -q): apex -> B (+) C) with the canonical inclusions."""
    A, B, C = span.apex, span.left.target, span.right.target
    P = sum_cone([(span.left, 1), (span.right, -1)])
    fl = {k: inclusion(P.dim(k), A.dim(k - 1), n) for k, n in B.support}
    fr = {k: inclusion(P.dim(k), A.dim(k - 1) + B.dim(k), n) for k, n in C.support}
    return Pushout(span, P, ChainMap(B, P, fl), ChainMap(C, P, fr))


# -- associator and tensor/cone interchange -----------------------------------

IndexMap = Dict[int, Tuple[List[int], Optional[List[int]]]]  # see the module docstring


def _dense(S: ChainComplex, T: ChainComplex, perm: IndexMap) -> ChainMap:
    return ChainMap(S, T, {n: Matrix.monomial(T.dim(n), *p) for n, p in perm.items() if p[0]})


def _shape(X: ChainComplex) -> tuple:
    """What an index map needs of X: its window and support."""
    return X.lo, X.hi, X.support


def _assoc_perm(X: ChainComplex, Y: ChainComplex, Z: ChainComplex, memo: TensorMemo,
                inverse: bool = False) -> IndexMap:
    """The associator's index map, or its inverse's, from the dimensions
    alone; built once per memo, shapes and direction, and shared."""
    return memo.index_map(("assoc", _shape(X), _shape(Y), _shape(Z), inverse),
                          lambda: _assoc_cols(X, Y, Z, memo, inverse))


def _assoc_cols(X: ChainComplex, Y: ChainComplex, Z: ChainComplex, memo: TensorMemo,
                inverse: bool) -> IndexMap:
    xs, ys, zs = X.support, Y.support, Z.support
    xy_dim, xy_off = memo.table(xs, ys)
    yz_dim, yz_off = memo.table(ys, zs)
    # where (X (x) Y)_m (x) Z_k and X_i (x) (Y (x) Z)_l start in their degree
    size, s_off = memo.table(tuple(sorted(xy_dim.items())), zs)
    t_off = memo.table(xs, tuple(sorted(yz_dim.items())))[1]
    cols = {n: [0] * d for n, d in size.items()}
    for i, dx in xs:
        for j, dy in ys:
            for k, dz in zs:
                # x (x) (y (x) z) for fixed x is one run of dy * dz indices on both sides
                run, dyz, c = dy * dz, yz_dim[j + k], cols[i + j + k]
                s0 = s_off[i + j, k] + xy_off[i, j] * dz
                t0 = t_off[i, j + k] + yz_off[j, k]
                for xi in range(dx):
                    s, t = s0 + xi * run, t0 + xi * dyz
                    at, to = (t, s) if inverse else (s, t)
                    c[at:at + run] = range(to, to + run)
    return {n: (cols.get(n, []), None)
            for n in range(X.lo + Y.lo + Z.lo, X.hi + Y.hi + Z.hi + 1)}


def assoc(X: ChainComplex, Y: ChainComplex, Z: ChainComplex) -> ChainMap:
    """(X (x) Y) (x) Z -> X (x) (Y (x) Z), a signless basis permutation."""
    memo = TensorMemo()
    return _dense(memo.tensor(memo.tensor(X, Y), Z), memo.tensor(X, memo.tensor(Y, Z)),
                  _assoc_perm(X, Y, Z, memo))


def assoc_inv(X: ChainComplex, Y: ChainComplex, Z: ChainComplex) -> ChainMap:
    memo = TensorMemo()
    return _dense(memo.tensor(X, memo.tensor(Y, Z)), memo.tensor(memo.tensor(X, Y), Z),
                  _assoc_perm(X, Y, Z, memo, inverse=True))


def _pair(side: str):
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    return (lambda k, x: (k, x)) if side == "left" else (lambda k, x: (x, k))


def _interchange(parts: Tuple[ChainComplex, ...], P: ChainComplex, K: ChainComplex,
                 side: str, memo: TensorMemo) -> Tuple[ChainComplex, IndexMap]:
    """K (x) P and the index map of its iso to hpushout(K (x) S), for P the
    pushout of a span S with apex, left and right targets `parts` (side
    "left"; side "right" tensors K on the right).  Only dimensions are
    needed, so the tensored span and its pushout are not built, and the
    index map is built once per memo, shapes and side, and shared."""
    key = ("interchange", side, _shape(K), _shape(P), *map(_shape, parts))
    return (memo.tensor(*_pair(side)(K, P)),
            memo.index_map(key, lambda: _interchange_cols(parts, P, K, side, memo)))


def _interchange_cols(parts: Tuple[ChainComplex, ...], P: ChainComplex, K: ChainComplex,
                      side: str, memo: TensorMemo) -> IndexMap:
    pair, left = _pair(side), side == "left"
    # hpushout(K (x) S)_n = (K (x) A)_{n-1} (+) (K (x) B)_n (+) (K (x) C)_n
    tables = [(X, lag, *memo.table(*pair(K.support, X.support)))
              for X, lag in zip(parts, (1, 0, 0))]
    size, s_off = memo.table(*pair(K.support, P.support))
    cols, signs = {n: [0] * d for n, d in size.items()}, {n: [1] * d for n, d in size.items()}
    for key, base in s_off.items():
        i, j = key if left else key[::-1]
        n, dk, dp = i + j, K.dims[i - K.lo], P.dims[j - P.lo]
        start = pos = 0  # where the current summand starts inside P_j and the pushout
        for X, lag, dim, off in tables:
            dx = X.dim(j - lag)
            if dx:
                t0 = pos + off[pair(i, j - lag)]
                # a run of dx indices per basis vector of K_i, or one run of dk * dx
                runs = ([(base + kap * dp + start, t0 + kap * dx, dx) for kap in range(dk)]
                        if left else [(base + start * dk, t0, dx * dk)])
                for s, t, ln in runs:
                    cols[n][s:s + ln] = range(t, t + ln)
                    if left and lag and i % 2:
                        # the Koszul sign of K_i passing the shifted apex
                        signs[n][s:s + ln] = [-1] * ln
            start += dx
            pos += dim.get(n - lag, 0)
    return {n: (cols.get(n, []), signs[n] if -1 in signs.get(n, ()) else None)
            for n in range(K.lo + P.lo, K.hi + P.hi + 1)}


def tensor_cone(push: Pushout, K: ChainComplex, side: str) -> Tuple[Pushout, ChainMap]:
    """Iso K (x) hpushout(S) -> hpushout(K (x) S) for side "left", with the
    sign (-1)^i on the K_i (x) shifted-apex summands; for side "right" the
    permutation hpushout(S) (x) K -> hpushout(S (x) K)."""
    memo, pair, span = TensorMemo(), _pair(side), push.span
    tpush = hpushout(Span(tensor_map(*pair(K, span.left), memo),
                          tensor_map(*pair(K, span.right), memo)))
    S, perm = _interchange((span.apex, span.left.target, span.right.target), push.cx, K,
                           side, memo)
    return tpush, _dense(S, tpush.cx, perm)


# -- Delta^1 chain matrices ----------------------------------------------------

class Delta1ChainMatrix(Record):
    """2x2 chain matrix over gluing complexes g_src (source side) and g_tgt.

    entries[(t, s)] is the complex in row t, column s.  The four structure
    cells are chain maps; see the module docstring for their shapes.
    """

    __slots__ = ("g_src", "g_tgt", "entries", "cell_f0", "cell_0f", "cell_f1", "cell_1f")
    g_src: ChainComplex
    g_tgt: ChainComplex
    entries: Dict[Tuple[int, int], ChainComplex]
    cell_f0: ChainMap
    cell_0f: ChainMap
    cell_f1: ChainMap
    cell_1f: ChainMap

    def entry(self, t: int, s: int) -> ChainComplex:
        return self.entries[(t, s)]


# (name, entry E, g_tgt on the left, target entry) per structure cell: the source
# is g_tgt (x) E or E (x) g_src, and the document names the cell name[5:].
_CELLS = (("cell_f0", (0, 0), True, (1, 0)), ("cell_0f", (0, 1), False, (0, 0)),
          ("cell_f1", (0, 1), True, (1, 1)), ("cell_1f", (1, 1), False, (1, 0)))


def _cell_ends(g_src: ChainComplex, g_tgt: ChainComplex, entries: dict) -> list:
    """(name, the factors of its source, its target) per structure cell."""
    return [(name, (g_tgt, entries[e]) if left else (entries[e], g_src), entries[t])
            for name, e, left, t in _CELLS]


def _ends(D: Delta1ChainMatrix, memo: TensorMemo) -> list:
    """(name, cell, the source it must have, the target it must have)."""
    return [(name, getattr(D, name), memo.tensor(*pair), tgt)
            for name, pair, tgt in _cell_ends(D.g_src, D.g_tgt, D.entries)]


def _square_commutes(D: Delta1ChainMatrix, memo: TensorMemo) -> bool:
    """The structure square, compared on (g_tgt (x) E01) (x) g_src."""
    g_tgt, g_src = D.g_tgt, D.g_src
    route_b = D.cell_1f.compose(tensor_map(D.cell_f1, g_src, memo))
    route_a = D.cell_f0.compose(ChainMap(
        route_b.source, memo.tensor(g_tgt, D.entry(0, 0)),
        tensor_map_comps(g_tgt, D.cell_0f, memo,
                         _assoc_perm(g_tgt, D.entry(0, 1), g_src, memo))))
    return route_a == route_b


def validate_delta1_matrix(D: Delta1ChainMatrix, memo: Optional[TensorMemo] = None) -> List[str]:
    """Problems of D; a memo given here may be handed on to a composition."""
    report = []
    for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if key not in D.entries:
            report.append(f"missing entry {key}")
            return report
        for msg in validate_complex(D.entries[key]):
            report.append(f"entry {key}: {msg}")
    report += [f"g_src: {msg}" for msg in validate_complex(D.g_src)]
    report += [f"g_tgt: {msg}" for msg in validate_complex(D.g_tgt)]
    memo = TensorMemo() if memo is None else memo
    for name, m, src, tgt in _ends(D, memo):
        if m.source != src or m.target != tgt:
            report.append(f"{name} has wrong endpoints")
            return report
        for msg in m.validate():
            report.append(f"{name}: {msg}")
    if not _square_commutes(D, memo):
        report.append("structure square does not commute")
    return report


def unit_matrix(G: ChainComplex) -> Delta1ChainMatrix:
    """[[Q, 0], [G, Q]] with identity-like and zero cells."""
    one, zero = unit_complex(), zero_complex()
    e = {(0, 0): one, (0, 1): zero, (1, 0): G, (1, 1): one}
    # tensoring with the one-dimensional unit in degree 0 gives back the
    # same complex on the nose, so two of the cells are plain identities;
    # zero (x) G and G (x) zero are the same zero complex on G's window
    ident = {k: Matrix.identity(n) for k, n in G.support}
    zeros = tensor(zero, G)
    return Delta1ChainMatrix(G, G, e, ChainMap(G, G, ident), ChainMap(zeros, one),
                             ChainMap(zeros, one), ChainMap(G, G, dict(ident)))


def _entry_legs(N: Delta1ChainMatrix, M: Delta1ChainMatrix, u: int, s: int,
                memo: TensorMemo) -> Tuple[ChainMap, ChainMap]:
    """The legs (p, q) of the span B <-p- apex -q-> C whose pushout is entry
    (u, s) of N . M: p = cell_n (x) M_0s and q = (N_u1 (x) cell_m) .
    assoc(N_u1, G, M_0s)."""
    G, n_u1, m_0s = N.g_src, N.entry(u, 1), M.entry(0, s)
    cell_n = N.cell_0f if u == 0 else N.cell_1f       # N_u1 (x) G -> N_u0
    cell_m = M.cell_f0 if s == 0 else M.cell_f1       # G (x) M_0s -> M_1s
    apex = memo.tensor(memo.tensor(n_u1, G), m_0s)
    return (ChainMap(apex, memo.tensor(N.entry(u, 0), m_0s),
                     tensor_map_comps(cell_n, m_0s, memo)),
            ChainMap(apex, memo.tensor(n_u1, M.entry(1, s)),
                     tensor_map_comps(n_u1, cell_m, memo, _assoc_perm(n_u1, G, m_0s, memo))))


def compose_entry_span(N: Delta1ChainMatrix, M: Delta1ChainMatrix, u: int, s: int,
                       memo: Optional[TensorMemo] = None) -> Span:
    """The twisted-arrow span whose pushout is entry (u, s) of N . M."""
    if N.g_src != M.g_tgt:
        raise DimensionError("composition needs N.g_src == M.g_tgt")
    memo = TensorMemo() if memo is None else memo
    G = N.g_src
    if (N.cell_0f if u == 0 else N.cell_1f).source != memo.tensor(N.entry(u, 1), G):
        raise DimensionError("span legs must share their apex")
    if (M.cell_f0 if s == 0 else M.cell_f1).source != memo.tensor(G, M.entry(0, s)):
        raise DimensionError("chain map composition: middle complexes differ")
    return Span(*_entry_legs(N, M, u, s, memo))


def _induced_cell(src: tuple, tgt: tuple, K: ChainComplex, side: str, on: list,
                  memo: TensorMemo) -> ChainMap:
    """K (x) P -> P' (P (x) K for side "right"), for src, tgt = (apex, B, C,
    pushout): the map of pushouts induced by the span map `on`, whose apex,
    left and right parts are (f (x) g) . assoc for (f, g, assoc) in `on`,
    after the tensor/cone interchange.  The interchange and the signless
    associators are composed as index lists, so each component is placed
    in one pass."""
    S, omega = _interchange(src[:3], src[3], K, side, memo)
    parts = [(tensor_map_blocks(f, g, memo), perm, Y, lag)
             for (f, g, perm), Y, lag in zip(on, tgt, (1, 0, 0))]
    comps = {}
    for n, (cols, signs) in omega.items():
        # block diagonal on hpushout(K (x) span)_n, before the associators
        blocks, gathered, rows, width = [], [], 0, 0
        for placed, perm, Y, lag in parts:
            if n - lag in perm:
                _, c, part = placed[n - lag]
                blocks += [(r0 + rows, c0 + width, *kron) for r0, c0, *kron in part]
                gathered += [j + width for j in perm[n - lag][0]]
                width += c
            rows += Y.dim(n - lag)
        if blocks:  # every placed block has a non-empty shape
            comps[n] = Matrix.from_blocks(rows, width, blocks,
                                          ([gathered[j] for j in cols], signs))
    return ChainMap(S, tgt[3], comps)


def lax_compose_delta1(N: Delta1ChainMatrix, M: Delta1ChainMatrix,
                       memo: Optional[TensorMemo] = None) -> Delta1ChainMatrix:
    """Entrywise homotopy pushout composition of Delta^1 chain matrices.

    Raises DimensionError unless N.g_src == M.g_tgt, every structure cell
    has its endpoints and both structure squares commute.  A memo that
    validated N and M saves rebuilding their tensors.
    """
    if N.g_src != M.g_tgt:
        raise DimensionError("composition needs N.g_src == M.g_tgt")
    memo = TensorMemo() if memo is None else memo
    G, H, F = N.g_src, N.g_tgt, M.g_src
    for name, m, src, tgt in _ends(N, memo) + _ends(M, memo):
        if m.source != src or m.target != tgt:
            raise DimensionError(f"{name} has wrong endpoints")
    # with both squares commuting, every induced span map below commutes
    for D, side in ((N, "left"), (M, "right")):
        if not _square_commutes(D, memo):
            raise DimensionError(f"span map: {side} square does not commute")
    legs = {(u, s): _entry_legs(N, M, u, s, memo) for u in (0, 1) for s in (0, 1)}
    pushes = {key: (p.source, p.target, q.target, sum_cone([(p, 1), (q, -1)]))
              for key, (p, q) in legs.items()}
    # psi: G_tgt (x) (N_01 (x) G) -> N_11 (x) G, shared by both vertical cells
    x0 = memo.tensor(N.entry(0, 1), G)
    psi = ChainMap(memo.tensor(H, x0), memo.tensor(N.entry(1, 1), G), tensor_map_comps(
        N.cell_f1, G, memo, _assoc_perm(H, N.entry(0, 1), G, memo, inverse=True)))

    cells = {}
    for s in (0, 1):
        # G_tgt (x) P_0s -> P_1s, from (f (x) Z) . assoc_inv(G_tgt, Y, Z) on each part
        m_0s = M.entry(0, s)
        on = [(f, Z, _assoc_perm(H, Y, Z, memo, inverse=True))
              for f, Y, Z in ((psi, x0, m_0s), (N.cell_f0, N.entry(0, 0), m_0s),
                              (N.cell_f1, N.entry(0, 1), M.entry(1, s)))]
        cells[f"cell_f{s}"] = _induced_cell(pushes[(0, s)], pushes[(1, s)], H, "left",
                                            on, memo)
    for u in (0, 1):
        # P_u1 (x) G_src -> P_u0, from (X (x) g) . assoc(X, Y, G_src) on each part
        on = [(X, g, _assoc_perm(X, Y, F, memo))
              for X, Y, g in ((memo.tensor(N.entry(u, 1), G), M.entry(0, 1), M.cell_0f),
                              (N.entry(u, 0), M.entry(0, 1), M.cell_0f),
                              (N.entry(u, 1), M.entry(1, 1), M.cell_1f))]
        cells[f"cell_{u}f"] = _induced_cell(pushes[(u, 1)], pushes[(u, 0)], F, "right",
                                            on, memo)
    return Delta1ChainMatrix(M.g_src, N.g_tgt, {k: push[3] for k, push in pushes.items()},
                             **cells)


def lax_compose_dims(N: Delta1ChainMatrix, M: Delta1ChainMatrix) -> Dict[int, int]:
    """The largest dimension by degree of an entry of N . M or of the
    source of one of its cells, from the dimensions alone.

    Entry (u, s) is the pushout P with P_k = A_(k-1) (+) B_k (+) C_k for the
    apex A = N_u1 (x) G (x) M_0s, B = N_u0 (x) M_0s and C = N_u1 (x) M_1s,
    so the apex, a triple product, needs no check of its own; the cells'
    sources are g_tgt (x) P_0s and P_u1 (x) g_src.  Every other product a
    composition builds has the dimensions of a summand of one of these, or
    of a product that parsing N or M has sized.
    """
    G, out = N.g_src, {}
    entries = [(u, s, (), ()) for u in (0, 1) for s in (0, 1)]
    cell_sources = ([(0, s, (N.g_tgt,), ()) for s in (0, 1)]
                    + [(u, 1, (), (M.g_src,)) for u in (0, 1)])
    for u, s, before, after in entries + cell_sources:
        size = {}
        for lag, parts in ((1, (N.entry(u, 1), G, M.entry(0, s))),
                           (0, (N.entry(u, 0), M.entry(0, s))),
                           (0, (N.entry(u, 1), M.entry(1, s)))):
            for k, n in tensor_dims(*before, *parts, *after).items():
                size[k + lag] = size.get(k + lag, 0) + n
        for k, n in size.items():
            out[k] = max(out.get(k, 0), n)
    return out


def k0_shadow(D: Delta1ChainMatrix) -> IntMatrix:
    """Entrywise Euler characteristics, rows and columns labelled 0, 1."""
    ent = [[euler_characteristic(D.entry(t, s)) for s in (0, 1)] for t in (0, 1)]
    return IntMatrix(("0", "1"), ("0", "1"), ent)


# -- cofiber and fiber actions on arrows --------------------------------------

def cof_action(f: ChainMap) -> ChainMap:
    """(a -> b) becomes the canonical b -> cone(f)."""
    return cone(f).from_target


def fib(f: ChainMap) -> Tuple[ChainComplex, ChainMap]:
    """fib(f) = cone(f)[-1] together with the projection to the source,
    which is cone(f) -> A[1] shifted by -1."""
    p = shift_map(cone(f).to_shifted_source, -1)
    return p.source, p


def fib_action(f: ChainMap) -> ChainMap:
    """(a -> b) becomes the canonical fib(f) -> a."""
    return fib(f)[1]

# -- document codecs (rows of documents._TYPES) ---------------------------------

def _parse_fin_poset(d: dict, ctx: _Ctx, path: str) -> FinPoset:
    labels = _field(d, "labels", path, _as_list)
    for i, s in enumerate(labels):
        if not isinstance(s, str):
            raise DocumentError("labels must be strings", f"{path}.labels[{i}]")
    if len(set(labels)) != len(labels):
        raise DocumentError("labels must be distinct", f"{path}.labels")
    _check_dim(len(labels), f"{path}.labels", ctx.cap)
    leq_raw = _field(d, "leq", path, _as_list)
    if len(leq_raw) != len(labels):
        raise DocumentError("leq must be square over the labels", f"{path}.leq")
    leq = []
    for i, row in enumerate(leq_raw):
        row = _as_list(row, f"{path}.leq[{i}]")
        if len(row) != len(labels):
            raise DocumentError("leq must be square over the labels", f"{path}.leq[{i}]")
        for j, v in enumerate(row):
            if not isinstance(v, bool):
                raise DocumentError("leq entries must be booleans", f"{path}.leq[{i}][{j}]")
        leq.append(tuple(row))
    return FinPoset(tuple(labels), tuple(leq))


def _parse_int_matrix(d: dict, ctx: _Ctx, path: str) -> IntMatrix:
    rl = _field(d, "row_labels", path, _as_list)
    cl = _field(d, "col_labels", path, _as_list)
    if not all(isinstance(s, str) for s in rl + cl):
        raise DocumentError("labels must be strings", path)
    _check_dim(len(rl), f"{path}.row_labels", ctx.cap)
    _check_dim(len(cl), f"{path}.col_labels", ctx.cap)
    ent_raw = _field(d, "entries", path, _as_list)
    if len(ent_raw) != len(rl):
        raise DocumentError("entry rows do not match row_labels", f"{path}.entries")
    ent = []
    for i, row in enumerate(ent_raw):
        row = _as_list(row, f"{path}.entries[{i}]")
        if len(row) != len(cl):
            raise DocumentError("entry row width does not match col_labels",
                                f"{path}.entries[{i}]")
        ent.append([_as_int(x, f"{path}.entries[{i}][{j}]") for j, x in enumerate(row)])
    return IntMatrix(rl, cl, ent)


def _parse_delta1(d: dict, ctx: _Ctx, path: str) -> Delta1ChainMatrix:
    g_src = _complex(d, "g_src", ctx, path)
    g_tgt = _complex(d, "g_tgt", ctx, path)
    entries = {}
    ent_raw = _field(d, "entries", path, _as_dict)
    for t in (0, 1):
        for s in (0, 1):
            key = f"{t},{s}"
            if key not in ent_raw:
                raise DocumentError(f"missing entry {key!r}", f"{path}.entries")
            entries[(t, s)] = _complex(ent_raw, key, ctx, f"{path}.entries")
    cells_raw = _field(d, "cells", path, _as_dict)
    # each cell's source, then the product the structure square is checked on
    ends = _cell_ends(g_src, g_tgt, entries)
    for name, pair, _ in ends:
        check_dims(tensor_dims(*pair), ctx.cap, f"the source of cell {name[5:]}", f"{path}.cells")
    check_dims(tensor_dims(g_tgt, entries[(0, 1)], g_src), ctx.cap,
               "the structure square's g_tgt (x) entry 0,1 (x) g_src", path)
    cells = {}
    for name, pair, tgt in ends:
        key = name[5:]
        if key not in cells_raw:
            raise DocumentError(f"missing cell {key!r}", f"{path}.cells")
        cells[name] = _parse_map(ChainMap, cells_raw[key], tensor(*pair), tgt, ctx,
                                 f"{path}.cells.{key}")
    return Delta1ChainMatrix(g_src, g_tgt, entries, **cells)


def _delta1_json(N) -> dict:
    return {"g_src": N.g_src, "g_tgt": N.g_tgt,
            "entries": {f"{t},{s}": N.entry(t, s)
                        for t in (0, 1) for s in (0, 1)},
            "cells": {name[5:]: _components_json(getattr(N, name)) for name, *_ in _CELLS}}


def _int_matrix_json(M) -> dict:
    return {"row_labels": M.row_labels, "col_labels": M.col_labels, "entries": M.entries}
