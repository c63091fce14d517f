"""Reference structural maps: each one built as a dense matrix.

These are the constructions `catcx.chain` and `catcx.laxmat` used before
the associator, the tensor/cone interchanges, and the inclusions and
projections of cones, sums, pushouts and fibers became index maps, and
before a lax composition built each tensor product once.  Every structural
map here is placed with `Matrix.from_blocks` around `Matrix.identity`, or
written entry by entry into a dense matrix, and every composite is a dense
product.  The module is the slow oracle for the differential tests in
`test_lax_index_maps.py`, and the only `sum_inclusions` and
`induced_pushout_map`, which other tests use; nothing in the package
imports it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from catcx.chain import ChainComplex, ChainMap, identity_map, shift
from catcx.exactlin import DimensionError, Matrix
from catcx.laxmat import Delta1ChainMatrix, Pushout, Span


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """f . g with a product in every degree of the window."""
    if g.target != f.source:
        raise DimensionError("chain map composition: middle complexes differ")
    lo = min(g.source.lo, f.target.lo)
    hi = max(g.source.hi, f.target.hi)
    return ChainMap(g.source, f.target, {k: f.f(k) * g.f(k) for k in range(lo, hi + 1)})


# -- sums and cones ------------------------------------------------------------

def direct_sum(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    lo = min(A.lo, B.lo)
    hi = max(A.hi, B.hi)
    dims = tuple(A.dim(k) + B.dim(k) for k in range(lo, hi + 1))
    diffs = {}
    for k in range(lo + 1, hi + 1):
        diffs[k] = Matrix.from_blocks(
            A.dim(k - 1) + B.dim(k - 1), A.dim(k) + B.dim(k),
            [(0, 0, A.d(k)), (A.dim(k - 1), A.dim(k), B.d(k))])
    return ChainComplex(lo, hi, dims, diffs)


def sum_inclusions(A: ChainComplex, B: ChainComplex) -> Tuple[ChainMap, ChainMap]:
    S = direct_sum(A, B)
    ia = {k: Matrix.from_blocks(S.dim(k), A.dim(k), [(0, 0, Matrix.identity(A.dim(k)))])
          for k in A.degrees()}
    ib = {k: Matrix.from_blocks(S.dim(k), B.dim(k), [(A.dim(k), 0, Matrix.identity(B.dim(k)))])
          for k in B.degrees()}
    return ChainMap(A, S, ia), ChainMap(B, S, ib)


def cone(f: ChainMap) -> Tuple[ChainComplex, ChainMap, ChainMap]:
    """(cone(f), B -> cone(f), cone(f) -> A[1])."""
    A, B = f.source, f.target
    lo = min(A.lo + 1, B.lo)
    hi = max(A.hi + 1, B.hi)
    dims = tuple(A.dim(k - 1) + B.dim(k) for k in range(lo, hi + 1))
    diffs = {}
    for k in range(lo + 1, hi + 1):
        a0, a1 = A.dim(k - 2), A.dim(k - 1)
        diffs[k] = Matrix.from_blocks(a0 + B.dim(k - 1), a1 + B.dim(k), [
            (0, 0, -A.d(k - 1)), (a0, 0, -f.f(k - 1)), (a0, a1, B.d(k))])
    cx = ChainComplex(lo, hi, dims, diffs)
    inc = {}
    for k in B.degrees():
        inc[k] = Matrix.from_blocks(A.dim(k - 1) + B.dim(k), B.dim(k),
                                    [(A.dim(k - 1), 0, Matrix.identity(B.dim(k)))])
    sh = shift(A, 1)
    proj = {}
    for k in sh.degrees():
        proj[k] = Matrix.from_blocks(A.dim(k - 1), A.dim(k - 1) + B.dim(k),
                                     [(0, 0, Matrix.identity(A.dim(k - 1)))])
    return cx, ChainMap(B, cx, inc), ChainMap(cx, sh, proj)


def fib(f: ChainMap) -> Tuple[ChainComplex, ChainMap]:
    F = shift(cone(f)[0], -1)
    A = f.source
    proj = {}
    for k in F.degrees():
        da = A.dim(k)
        db = f.target.dim(k + 1)
        proj[k] = Matrix.from_blocks(da, da + db, [(0, 0, Matrix.identity(da))])
    return F, ChainMap(F, A, proj)


# -- tensor products -------------------------------------------------------------

def tensor_summands(A: ChainComplex, B: ChainComplex, n: int) -> List[Tuple[int, int]]:
    out = []
    for i in range(A.lo, A.hi + 1):
        j = n - i
        if B.lo <= j <= B.hi:
            out.append((i, j))
    return out


def tensor_offsets(A: ChainComplex, B: ChainComplex, n: int) -> Dict[Tuple[int, int], int]:
    off = {}
    pos = 0
    for (i, j) in tensor_summands(A, B, n):
        off[(i, j)] = pos
        pos += A.dim(i) * B.dim(j)
    return off


def tensor(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    lo = A.lo + B.lo
    hi = A.hi + B.hi
    dims = []
    for n in range(lo, hi + 1):
        dims.append(sum(A.dim(i) * B.dim(j) for (i, j) in tensor_summands(A, B, n)))
    diffs = {}
    for n in range(lo + 1, hi + 1):
        src_off = tensor_offsets(A, B, n)
        tgt_off = tensor_offsets(A, B, n - 1)
        blocks = []
        for (i, j), c0 in src_off.items():
            if (i - 1, j) in tgt_off:
                blocks.append((tgt_off[(i - 1, j)], c0,
                               A.d(i).kron(Matrix.identity(B.dim(j)))))
            if (i, j - 1) in tgt_off:
                blk = Matrix.identity(A.dim(i)).kron(B.d(j))
                blocks.append((tgt_off[(i, j - 1)], c0, -blk if i % 2 else blk))
        diffs[n] = Matrix.from_blocks(dims[n - 1 - lo], dims[n - lo], blocks)
    return ChainComplex(lo, hi, tuple(dims), diffs)


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    comps = {}
    for n in range(src.lo, src.hi + 1):
        tgt_off = tensor_offsets(f.target, g.target, n)
        blocks = [(tgt_off[(i, j)], c0, f.f(i).kron(g.f(j)))
                  for (i, j), c0 in tensor_offsets(f.source, g.source, n).items()
                  if (i, j) in tgt_off]
        comps[n] = Matrix.from_blocks(tgt.dim(n), src.dim(n), blocks)
    return ChainMap(src, tgt, comps)


# -- pushouts, associator and interchanges -------------------------------------

def hpushout(span: Span) -> Pushout:
    A = span.apex
    B = span.left.target
    C = span.right.target
    D = direct_sum(B, C)
    comps = {}
    for k in range(min(A.lo, D.lo), max(A.hi, D.hi) + 1):
        comps[k] = span.left.f(k).vstack(-span.right.f(k))
    P = cone(ChainMap(A, D, comps))[0]
    fl = {}
    fr = {}
    for k in P.degrees():
        da, db, dc = A.dim(k - 1), B.dim(k), C.dim(k)
        fl[k] = Matrix.from_blocks(da + db + dc, db, [(da, 0, Matrix.identity(db))])
        fr[k] = Matrix.from_blocks(da + db + dc, dc, [(da + db, 0, Matrix.identity(dc))])
    return Pushout(span, P, ChainMap(B, P, fl), ChainMap(C, P, fr))


def induced_pushout_map(src: Pushout, tgt: Pushout, on_apex: ChainMap,
                        on_left: ChainMap, on_right: ChainMap) -> ChainMap:
    if compose(on_left, src.span.left) != compose(tgt.span.left, on_apex):
        raise DimensionError("span map: left square does not commute")
    if compose(on_right, src.span.right) != compose(tgt.span.right, on_apex):
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


def assoc(X: ChainComplex, Y: ChainComplex, Z: ChainComplex) -> ChainMap:
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


# -- lax composition ------------------------------------------------------------

def compose_entry_span(N: Delta1ChainMatrix, M: Delta1ChainMatrix,
                       u: int, s: int) -> Span:
    if N.g_src != M.g_tgt:
        raise DimensionError("composition needs N.g_src == M.g_tgt")
    G = N.g_src
    n_u1 = N.entry(u, 1)
    m_0s = M.entry(0, s)
    cell_n = N.cell_0f if u == 0 else N.cell_1f
    cell_m = M.cell_f0 if s == 0 else M.cell_f1
    p = tensor_map(cell_n, identity_map(m_0s))
    q = compose(tensor_map(identity_map(n_u1), cell_m), assoc(n_u1, G, m_0s))
    return Span(p, q)


def lax_compose_delta1(N: Delta1ChainMatrix, M: Delta1ChainMatrix) -> Delta1ChainMatrix:
    if N.g_src != M.g_tgt:
        raise DimensionError("composition needs N.g_src == M.g_tgt")
    G = N.g_src
    pushes = {(u, s): hpushout(compose_entry_span(N, M, u, s)) for u in (0, 1) for s in (0, 1)}

    def vertical_cell(s: int) -> ChainMap:
        src_push = pushes[(0, s)]
        tgt_push = pushes[(1, s)]
        tpush, omega = tensor_cone_left(N.g_tgt, src_push)
        m_0s = M.entry(0, s)
        m_1s = M.entry(1, s)
        psi = compose(tensor_map(N.cell_f1, identity_map(G)),
                      assoc_inv(N.g_tgt, N.entry(0, 1), G))
        on_apex = compose(tensor_map(psi, identity_map(m_0s)),
                          assoc_inv(N.g_tgt, tensor(N.entry(0, 1), G), m_0s))
        on_left = compose(tensor_map(N.cell_f0, identity_map(m_0s)),
                          assoc_inv(N.g_tgt, N.entry(0, 0), m_0s))
        on_right = compose(tensor_map(N.cell_f1, identity_map(m_1s)),
                           assoc_inv(N.g_tgt, N.entry(0, 1), m_1s))
        induced = induced_pushout_map(tpush, tgt_push, on_apex, on_left, on_right)
        return compose(induced, omega)

    def horizontal_cell(u: int) -> ChainMap:
        src_push = pushes[(u, 1)]
        tgt_push = pushes[(u, 0)]
        tpush, omega = tensor_cone_right(src_push, M.g_src)
        n_u0 = N.entry(u, 0)
        n_u1 = N.entry(u, 1)
        n_u1g = tensor(n_u1, G)
        on_apex = compose(tensor_map(identity_map(n_u1g), M.cell_0f),
                          assoc(n_u1g, M.entry(0, 1), M.g_src))
        on_left = compose(tensor_map(identity_map(n_u0), M.cell_0f),
                          assoc(n_u0, M.entry(0, 1), M.g_src))
        on_right = compose(tensor_map(identity_map(n_u1), M.cell_1f),
                           assoc(n_u1, M.entry(1, 1), M.g_src))
        induced = induced_pushout_map(tpush, tgt_push, on_apex, on_left, on_right)
        return compose(induced, omega)

    return Delta1ChainMatrix(
        g_src=M.g_src,
        g_tgt=N.g_tgt,
        entries={k: pushes[k].cx for k in pushes},
        cell_f0=vertical_cell(0),
        cell_0f=horizontal_cell(0),
        cell_f1=vertical_cell(1),
        cell_1f=horizontal_cell(1),
    )
