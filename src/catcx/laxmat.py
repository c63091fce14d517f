"""Lax matrix calculus over the arrow poset, at K_0 and at chain level.

K_0 level: finite posets, zeta and Moebius integer matrices, and the
composition rule N . mobius(middle) . M for integer matrices indexed by
poset elements.

Chain level: a Delta1ChainMatrix is a 2x2 grid of chain complexes over a
pair of gluing complexes, carrying four structure chain maps

    cell_f0: G_tgt (x) E00 -> E10        cell_0f: E01 (x) G_src -> E00
    cell_f1: G_tgt (x) E01 -> E11        cell_1f: E11 (x) G_src -> E10

and one exact commuting-square constraint tying them together.
Composition is an entrywise homotopy pushout over the twisted-arrow span

    N_u0 (x) M_0s  <--  N_u1 (x) G (x) M_0s  -->  N_u1 (x) M_1s,

realized as the mapping cone of (p, -q), with the composed structure maps
induced by maps of spans.  Tensoring a cone by a complex is only
isomorphic, not equal, to the cone of the tensored span, so the two
interchange isomorphisms (a sign (-1)^i on the shifted-apex summands for
the left one, a plain permutation for the right one) are built explicitly.

All multi-factor tensors are left-associated; re-bracketing goes through
the explicit associator, a signless basis permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .exactlin import DimensionError, Matrix
from .chain import (ChainComplex, ChainMap, cone, direct_sum, euler_characteristic,
                    identity_map, shift, tensor, tensor_map, tensor_offsets,
                    unit_complex, validate_complex, zero_complex)


# -- finite posets and the K_0 shadow ----------------------------------------

@dataclass(frozen=True)
class FinPoset:
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
    report = []
    n = P.size()
    for i in range(n):
        if not P.leq[i][i]:
            report.append(f"not reflexive at {P.labels[i]}")
    for i in range(n):
        for j in range(n):
            if i != j and P.leq[i][j] and P.leq[j][i]:
                report.append(f"not antisymmetric on ({P.labels[i]},{P.labels[j]})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if P.leq[i][j] and P.leq[j][k] and not P.leq[i][k]:
                    report.append(
                        f"not transitive via ({P.labels[i]},{P.labels[j]},{P.labels[k]})")
    return report


class IntMatrix:
    """Integer matrix with labelled rows and columns."""

    __slots__ = ("row_labels", "col_labels", "entries")

    def __init__(self, row_labels: Sequence[str], col_labels: Sequence[str],
                 entries: Sequence[Sequence[int]]):
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self.entries = tuple(tuple(int(x) for x in row) for row in entries)
        if len(self.entries) != len(self.row_labels) or any(
            len(r) != len(self.col_labels) for r in self.entries
        ):
            raise DimensionError("IntMatrix shape does not match labels")

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.col_labels != other.row_labels:
            raise DimensionError("IntMatrix label mismatch in product")
        out = []
        for i in range(len(self.row_labels)):
            row = []
            for j in range(len(other.col_labels)):
                row.append(sum(self.entries[i][k] * other.entries[k][j]
                               for k in range(len(self.col_labels))))
            out.append(row)
        return IntMatrix(self.row_labels, other.col_labels, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.row_labels == other.row_labels
                and self.col_labels == other.col_labels
                and self.entries == other.entries)

    def __repr__(self):
        return f"IntMatrix({self.row_labels}x{self.col_labels}: {self.entries})"


def zeta(P: FinPoset) -> IntMatrix:
    """zeta[t][s] = 1 when s <= t in the poset."""
    n = P.size()
    ent = [[1 if P.leq[s][t] else 0 for s in range(n)] for t in range(n)]
    return IntMatrix(P.labels, P.labels, ent)


def mobius(P: FinPoset) -> IntMatrix:
    """Integer inverse of zeta; exists since zeta is unitriangular in any
    linear extension."""
    z = zeta(P)
    n = P.size()
    m = Matrix(n, n, [x for row in z.entries for x in row])
    inv = m.invert()
    if inv is None:
        raise DimensionError("zeta matrix is singular; input is not a poset")
    if inv._d != 1:
        raise DimensionError("Moebius matrix is not integral")
    ent = [list(inv._e[i * n:(i + 1) * n]) for i in range(n)]
    return IntMatrix(P.labels, P.labels, ent)


def k0_compose(N: IntMatrix, M: IntMatrix, middle: FinPoset) -> IntMatrix:
    """N . mobius(middle) . M; N's columns and M's rows live on middle."""
    if N.col_labels != middle.labels or M.row_labels != middle.labels:
        raise DimensionError("matrix labels do not match the middle poset")
    return N * mobius(middle) * M


# -- spans and homotopy pushouts ----------------------------------------------

@dataclass
class Span:
    """B <-- left -- apex -- right --> C."""

    left: ChainMap
    right: ChainMap

    def __post_init__(self):
        if self.left.source != self.right.source:
            raise DimensionError("span legs must share their apex")

    @property
    def apex(self) -> ChainComplex:
        return self.left.source


@dataclass
class Pushout:
    span: Span
    cx: ChainComplex
    from_left: ChainMap   # B -> cx
    from_right: ChainMap  # C -> cx


def hpushout(span: Span) -> Pushout:
    """cone((p, -q): apex -> B (+) C) with the canonical inclusions."""
    A = span.apex
    B = span.left.target
    C = span.right.target
    D = direct_sum(B, C)
    comps = {}
    for k in range(min(A.lo, D.lo), max(A.hi, D.hi) + 1):
        comps[k] = span.left.f(k).vstack(-span.right.f(k))
    c = cone(ChainMap(A, D, comps))
    P = c.complex
    fl = {}
    fr = {}
    for k in P.degrees():
        da, db, dc = A.dim(k - 1), B.dim(k), C.dim(k)
        fl[k] = Matrix.from_blocks(da + db + dc, db, [(da, 0, Matrix.identity(db))])
        fr[k] = Matrix.from_blocks(da + db + dc, dc, [(da + db, 0, Matrix.identity(dc))])
    return Pushout(span, P, ChainMap(B, P, fl), ChainMap(C, P, fr))


def induced_pushout_map(src: Pushout, tgt: Pushout, on_apex: ChainMap,
                        on_left: ChainMap, on_right: ChainMap) -> ChainMap:
    """Map of pushouts from a strictly commuting map of spans."""
    if on_left.compose(src.span.left) != tgt.span.left.compose(on_apex):
        raise DimensionError("span map: left square does not commute")
    if on_right.compose(src.span.right) != tgt.span.right.compose(on_apex):
        raise DimensionError("span map: right square does not commute")
    comps = {}
    for k in src.cx.degrees():
        a = on_apex.f(k - 1)
        b = on_left.f(k)
        c = on_right.f(k)
        comps[k] = Matrix.from_blocks(
            a.rows + b.rows + c.rows, a.cols + b.cols + c.cols,
            [(0, 0, a), (a.rows, a.cols, b), (a.rows + b.rows, a.cols + b.cols, c)])
    return ChainMap(src.cx, tgt.cx, comps)


# -- associator and tensor/cone interchange -----------------------------------

def assoc(X: ChainComplex, Y: ChainComplex, Z: ChainComplex) -> ChainMap:
    """(X (x) Y) (x) Z -> X (x) (Y (x) Z), a signless basis permutation."""
    XY = tensor(X, Y)
    YZ = tensor(Y, Z)
    S = tensor(XY, Z)
    T = tensor(X, YZ)
    comps = {}
    for n in range(S.lo, S.hi + 1):
        rows, cols = T.dim(n), S.dim(n)
        ent = [0] * (rows * cols)
        s_off = tensor_offsets(XY, Z, n)
        t_off = tensor_offsets(X, YZ, n)
        for i in range(X.lo, X.hi + 1):
            for j in range(Y.lo, Y.hi + 1):
                k = n - i - j
                if not (Z.lo <= k <= Z.hi):
                    continue
                dx, dy, dz = X.dim(i), Y.dim(j), Z.dim(k)
                if dx * dy * dz == 0:
                    continue
                xy_off = tensor_offsets(X, Y, i + j)[(i, j)]
                yz_off = tensor_offsets(Y, Z, j + k)[(j, k)]
                s_base = s_off[(i + j, k)]
                t_base = t_off[(i, j + k)]
                dyz = YZ.dim(j + k)
                for xi in range(dx):
                    for eta in range(dy):
                        for gam in range(dz):
                            src = s_base + (xy_off + xi * dy + eta) * dz + gam
                            tgt = t_base + xi * dyz + yz_off + eta * dz + gam
                            ent[tgt * cols + src] = 1
        comps[n] = Matrix._of(rows, cols, ent)
    return ChainMap(S, T, comps)


def assoc_inv(X: ChainComplex, Y: ChainComplex, Z: ChainComplex) -> ChainMap:
    a = assoc(X, Y, Z)
    return ChainMap(a.target, a.source,
                    {k: a.f(k).transpose() for k in a.source.degrees()})


def tensor_span_left(K: ChainComplex, span: Span) -> Span:
    return Span(tensor_map(identity_map(K), span.left),
                tensor_map(identity_map(K), span.right))


def tensor_span_right(span: Span, K: ChainComplex) -> Span:
    return Span(tensor_map(span.left, identity_map(K)),
                tensor_map(span.right, identity_map(K)))


def tensor_cone_left(K: ChainComplex, push: Pushout) -> Tuple[Pushout, ChainMap]:
    """Iso K (x) hpushout(S) -> hpushout(K (x) S).

    Carries the sign (-1)^i on the K_i (x) shifted-apex summands; identity
    on the other blocks up to reordering.
    """
    span = push.span
    A = span.apex
    B = span.left.target
    C = span.right.target
    tspan = tensor_span_left(K, span)
    tpush = hpushout(tspan)
    S = tensor(K, push.cx)
    T = tpush.cx
    KA = tspan.apex
    KB = tspan.left.target
    comps = {}
    for n in range(S.lo, S.hi + 1):
        rows, cols = T.dim(n), S.dim(n)
        ent = [0] * (rows * cols)
        s_off = tensor_offsets(K, push.cx, n)
        ka_off = tensor_offsets(K, A, n - 1)
        kb_off = tensor_offsets(K, B, n)
        kc_off = tensor_offsets(K, C, n)
        t_off_b = KA.dim(n - 1)
        t_off_c = t_off_b + KB.dim(n)
        for (i, j), base in s_off.items():
            dk = K.dim(i)
            da, db, dc = A.dim(j - 1), B.dim(j), C.dim(j)
            dp = push.cx.dim(j)
            sgn = -1 if i % 2 else 1
            for kap in range(dk):
                for al in range(da):
                    src = base + kap * dp + al
                    tgt = ka_off[(i, j - 1)] + kap * da + al
                    ent[tgt * cols + src] = sgn
                for be in range(db):
                    src = base + kap * dp + da + be
                    tgt = t_off_b + kb_off[(i, j)] + kap * db + be
                    ent[tgt * cols + src] = 1
                for ga in range(dc):
                    src = base + kap * dp + da + db + ga
                    tgt = t_off_c + kc_off[(i, j)] + kap * dc + ga
                    ent[tgt * cols + src] = 1
        comps[n] = Matrix._of(rows, cols, ent)
    return tpush, ChainMap(S, T, comps)


def tensor_cone_right(push: Pushout, K: ChainComplex) -> Tuple[Pushout, ChainMap]:
    """Iso hpushout(S) (x) K -> hpushout(S (x) K); a plain permutation."""
    span = push.span
    A = span.apex
    B = span.left.target
    C = span.right.target
    tspan = tensor_span_right(span, K)
    tpush = hpushout(tspan)
    S = tensor(push.cx, K)
    T = tpush.cx
    AK = tspan.apex
    BK = tspan.left.target
    comps = {}
    for n in range(S.lo, S.hi + 1):
        rows, cols = T.dim(n), S.dim(n)
        ent = [0] * (rows * cols)
        s_off = tensor_offsets(push.cx, K, n)
        ak_off = tensor_offsets(A, K, n - 1)
        bk_off = tensor_offsets(B, K, n)
        ck_off = tensor_offsets(C, K, n)
        t_off_b = AK.dim(n - 1)
        t_off_c = t_off_b + BK.dim(n)
        for (j, i), base in s_off.items():
            dk = K.dim(i)
            da, db, dc = A.dim(j - 1), B.dim(j), C.dim(j)
            for al in range(da):
                for kap in range(dk):
                    src = base + al * dk + kap
                    tgt = ak_off[(j - 1, i)] + al * dk + kap
                    ent[tgt * cols + src] = 1
            for be in range(db):
                for kap in range(dk):
                    src = base + (da + be) * dk + kap
                    tgt = t_off_b + bk_off[(j, i)] + be * dk + kap
                    ent[tgt * cols + src] = 1
            for ga in range(dc):
                for kap in range(dk):
                    src = base + (da + db + ga) * dk + kap
                    tgt = t_off_c + ck_off[(j, i)] + ga * dk + kap
                    ent[tgt * cols + src] = 1
        comps[n] = Matrix._of(rows, cols, ent)
    return tpush, ChainMap(S, T, comps)


# -- Delta^1 chain matrices ----------------------------------------------------

@dataclass
class Delta1ChainMatrix:
    """2x2 chain matrix over gluing complexes g_src (source side) and g_tgt.

    entries[(t, s)] is the complex in row t, column s.  The four structure
    cells are chain maps; see the module docstring for their shapes.
    """

    g_src: ChainComplex
    g_tgt: ChainComplex
    entries: Dict[Tuple[int, int], ChainComplex]
    cell_f0: ChainMap
    cell_0f: ChainMap
    cell_f1: ChainMap
    cell_1f: ChainMap

    def entry(self, t: int, s: int) -> ChainComplex:
        return self.entries[(t, s)]


def validate_delta1_matrix(D: Delta1ChainMatrix) -> List[str]:
    report = []
    for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if key not in D.entries:
            report.append(f"missing entry {key}")
            return report
        for msg in validate_complex(D.entries[key]):
            report.append(f"entry {key}: {msg}")
    for msg in validate_complex(D.g_src):
        report.append(f"g_src: {msg}")
    for msg in validate_complex(D.g_tgt):
        report.append(f"g_tgt: {msg}")
    shapes = [
        ("cell_f0", D.cell_f0, tensor(D.g_tgt, D.entry(0, 0)), D.entry(1, 0)),
        ("cell_0f", D.cell_0f, tensor(D.entry(0, 1), D.g_src), D.entry(0, 0)),
        ("cell_f1", D.cell_f1, tensor(D.g_tgt, D.entry(0, 1)), D.entry(1, 1)),
        ("cell_1f", D.cell_1f, tensor(D.entry(1, 1), D.g_src), D.entry(1, 0)),
    ]
    for name, m, src, tgt in shapes:
        if m.source != src or m.target != tgt:
            report.append(f"{name} has wrong endpoints")
            return report
        for msg in m.validate():
            report.append(f"{name}: {msg}")
    # the commuting square, compared on (G_tgt (x) E01) (x) G_src
    route_a = D.cell_f0.compose(
        tensor_map(identity_map(D.g_tgt), D.cell_0f)
    ).compose(assoc(D.g_tgt, D.entry(0, 1), D.g_src))
    route_b = D.cell_1f.compose(tensor_map(D.cell_f1, identity_map(D.g_src)))
    if route_a != route_b:
        report.append("structure square does not commute")
    return report


def unit_matrix(G: ChainComplex) -> Delta1ChainMatrix:
    """[[Q, 0], [G, Q]] with identity-like and zero cells."""
    one = unit_complex()
    zero = zero_complex()
    e = {(0, 0): one, (0, 1): zero, (1, 0): G, (1, 1): one}
    # tensoring with the one-dimensional unit in degree 0 gives back the
    # same complex on the nose, so two of the cells are plain identities
    ident = {k: Matrix.identity(G.dim(k)) for k in G.degrees()}
    cell_f0 = ChainMap(tensor(G, one), G, ident)
    cell_0f = ChainMap(tensor(zero, G), one, {})
    cell_f1 = ChainMap(tensor(G, zero), one, {})
    cell_1f = ChainMap(tensor(one, G), G, dict(ident))
    return Delta1ChainMatrix(G, G, e, cell_f0, cell_0f, cell_f1, cell_1f)


def compose_entry_span(N: Delta1ChainMatrix, M: Delta1ChainMatrix,
                       u: int, s: int) -> Span:
    """The twisted-arrow span whose pushout is entry (u, s) of N . M."""
    if N.g_src != M.g_tgt:
        raise DimensionError("composition needs N.g_src == M.g_tgt")
    G = N.g_src
    n_u1 = N.entry(u, 1)
    m_0s = M.entry(0, s)
    cell_n = N.cell_0f if u == 0 else N.cell_1f       # N_u1 (x) G -> N_u0
    cell_m = M.cell_f0 if s == 0 else M.cell_f1       # G (x) M_0s -> M_1s
    p = tensor_map(cell_n, identity_map(m_0s))
    q = tensor_map(identity_map(n_u1), cell_m).compose(assoc(n_u1, G, m_0s))
    return Span(p, q)


def lax_compose_delta1(N: Delta1ChainMatrix, M: Delta1ChainMatrix) -> Delta1ChainMatrix:
    """Entrywise homotopy pushout composition of Delta^1 chain matrices."""
    if N.g_src != M.g_tgt:
        raise DimensionError("composition needs N.g_src == M.g_tgt")
    G = N.g_src
    pushes: Dict[Tuple[int, int], Pushout] = {}
    for u in (0, 1):
        for s in (0, 1):
            pushes[(u, s)] = hpushout(compose_entry_span(N, M, u, s))
    entries = {k: pushes[k].cx for k in pushes}

    def vertical_cell(s: int) -> ChainMap:
        # G_tgt (x) P_0s -> P_1s
        src_push = pushes[(0, s)]
        tgt_push = pushes[(1, s)]
        tpush, omega = tensor_cone_left(N.g_tgt, src_push)
        m_0s = M.entry(0, s)
        m_1s = M.entry(1, s)
        psi = tensor_map(N.cell_f1, identity_map(G)).compose(
            assoc_inv(N.g_tgt, N.entry(0, 1), G))
        on_apex = tensor_map(psi, identity_map(m_0s)).compose(
            assoc_inv(N.g_tgt, tensor(N.entry(0, 1), G), m_0s))
        on_left = tensor_map(N.cell_f0, identity_map(m_0s)).compose(
            assoc_inv(N.g_tgt, N.entry(0, 0), m_0s))
        on_right = tensor_map(N.cell_f1, identity_map(m_1s)).compose(
            assoc_inv(N.g_tgt, N.entry(0, 1), m_1s))
        induced = induced_pushout_map(tpush, tgt_push, on_apex, on_left, on_right)
        return induced.compose(omega)

    def horizontal_cell(u: int) -> ChainMap:
        # P_u1 (x) G_src -> P_u0
        src_push = pushes[(u, 1)]
        tgt_push = pushes[(u, 0)]
        tpush, omega = tensor_cone_right(src_push, M.g_src)
        n_u0 = N.entry(u, 0)
        n_u1 = N.entry(u, 1)
        n_u1g = tensor(n_u1, G)
        on_apex = tensor_map(identity_map(n_u1g), M.cell_0f).compose(
            assoc(n_u1g, M.entry(0, 1), M.g_src))
        on_left = tensor_map(identity_map(n_u0), M.cell_0f).compose(
            assoc(n_u0, M.entry(0, 1), M.g_src))
        on_right = tensor_map(identity_map(n_u1), M.cell_1f).compose(
            assoc(n_u1, M.entry(1, 1), M.g_src))
        induced = induced_pushout_map(tpush, tgt_push, on_apex, on_left, on_right)
        return induced.compose(omega)

    return Delta1ChainMatrix(
        g_src=M.g_src,
        g_tgt=N.g_tgt,
        entries=entries,
        cell_f0=vertical_cell(0),
        cell_0f=horizontal_cell(0),
        cell_f1=vertical_cell(1),
        cell_1f=horizontal_cell(1),
    )


def k0_shadow(D: Delta1ChainMatrix) -> IntMatrix:
    """Entrywise Euler characteristics, rows and columns labelled 0, 1."""
    ent = [[euler_characteristic(D.entry(t, s)) for s in (0, 1)] for t in (0, 1)]
    return IntMatrix(("0", "1"), ("0", "1"), ent)


# -- cofiber and fiber actions on arrows --------------------------------------

def cof_action(f: ChainMap) -> ChainMap:
    """(a -> b) becomes the canonical b -> cone(f)."""
    return cone(f).from_target


def fib(f: ChainMap) -> Tuple[ChainComplex, ChainMap]:
    """fib(f) = cone(f)[-1] together with the projection to the source."""
    c = cone(f).complex
    F = shift(c, -1)
    A = f.source
    proj = {}
    for k in F.degrees():
        da = A.dim(k)
        db = f.target.dim(k + 1)
        proj[k] = Matrix.from_blocks(da, da + db, [(0, 0, Matrix.identity(da))])
    return F, ChainMap(F, A, proj)


def fib_action(f: ChainMap) -> ChainMap:
    """(a -> b) becomes the canonical fib(f) -> a."""
    return fib(f)[1]
