"""Dold-Kan correspondence for truncated simplicial vector spaces.

normalize: quotient by the span of all degeneracy images, with the
alternating-sum face differential pushed to the quotient.  The quotient is
presented by a projection P_n (rows: a basis of the annihilator of the
degenerate subspace), which is the identity on some of its columns; the
section R_n picking those columns is read as a gather, not solved for.

gamma: the classical inverse.  Gamma(C)_n is a direct sum of copies of
C_k, one per monotone surjection eta: [n] ->> [k], ordered with the identity
surjection first (k descending, then lexicographic on the value tuple).
Each structure map has its own rule on the summand (k, eta).  The face d_i
drops position i of eta: C_k maps by the identity when the value eta[i]
still occurs, by d_k into the summand of the shortened eta minus 1 when
eta[i] = 0 occurred only at i (the front coface t -> t+1 after a
surjection), and by zero otherwise.  The degeneracy s_i repeats position i
and maps by the identity.  These are the epi-mono rule of the simplex
category for delta_i and sigma_i, which is functorial exactly because
d . d = 0: the front coface applied twice misses 0 and 1, so acts by zero.
With this convention normalize(gamma(C)) returns C itself, not just an
isomorphic copy: the identity summand sits first and every other summand is
degenerate, so P = [I 0]; on it every value occurs once and only d_0 misses
0, so only the 0th face contributes the differential, with sign (+1)^0.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Dict, List, Optional, Tuple

from .exactlin import DimensionError, Matrix
from .record import Record
from .chain import ChainComplex, layout
from .documents import (DocumentError, _Ctx, _as_int, _as_list, _dims, _field,
                        _int_keys, _parse_matrix)


class SimplicialVS(Record):
    """Simplicial vector space truncated at level n_max.

    faces[n] = (d_0, ..., d_n) for 1 <= n <= n_max, each X_n -> X_{n-1};
    degeneracies[n] = (s_0, ..., s_n) for 0 <= n < n_max, each X_n -> X_{n+1}.
    """

    __slots__ = ("n_max", "dims", "faces", "degeneracies")
    n_max: int
    dims: Tuple[int, ...]
    faces: Dict[int, Tuple[Matrix, ...]]
    degeneracies: Dict[int, Tuple[Matrix, ...]]

    def __post_init__(self):
        if self.n_max < 0:
            raise DimensionError("truncation level must be nonnegative")
        if len(self.dims) != self.n_max + 1:
            raise DimensionError("dims must list X_0..X_N")
        for n in range(1, self.n_max + 1):
            ops = self.faces.get(n)
            if ops is None or len(ops) != n + 1:
                raise DimensionError(f"need faces d_0..d_{n} at level {n}")
            for i, m in enumerate(ops):
                if (m.rows, m.cols) != (self.dims[n - 1], self.dims[n]):
                    raise DimensionError(f"face d_{i} at level {n} has wrong shape")
        for n in range(self.n_max):
            ops = self.degeneracies.get(n)
            if ops is None or len(ops) != n + 1:
                raise DimensionError(f"need degeneracies s_0..s_{n} at level {n}")
            for i, m in enumerate(ops):
                if (m.rows, m.cols) != (self.dims[n + 1], self.dims[n]):
                    raise DimensionError(
                        f"degeneracy s_{i} at level {n} has wrong shape")

    def face(self, n: int, i: int) -> Matrix:
        return self.faces[n][i]

    def degeneracy(self, n: int, i: int) -> Matrix:
        return self.degeneracies[n][i]


def validate_simplicial(X: SimplicialVS) -> List[str]:
    """All five simplicial identity families on the stored range."""
    report = []
    N = X.n_max
    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = X.face(n - 1, i) * X.face(n, j)
                rhs = X.face(n - 1, j - 1) * X.face(n, i)
                if lhs != rhs:
                    report.append(f"d_{i} d_{j} != d_{j-1} d_{i} at level {n}")
    for n in range(N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = X.degeneracy(n + 1, i) * X.degeneracy(n, j)
                rhs = X.degeneracy(n + 1, j + 1) * X.degeneracy(n, i)
                if lhs != rhs:
                    report.append(f"s_{i} s_{j} != s_{j+1} s_{i} at level {n}")
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = X.face(n + 1, i) * X.degeneracy(n, j)
                if i == j or i == j + 1:
                    ok = lhs.is_identity()
                    if not ok:
                        report.append(f"d_{i} s_{j} != id at level {n}")
                elif i < j:
                    rhs = X.degeneracy(n - 1, j - 1) * X.face(n, i)
                    if lhs != rhs:
                        report.append(f"d_{i} s_{j} != s_{j-1} d_{i} at level {n}")
                else:
                    rhs = X.degeneracy(n - 1, j) * X.face(n, i - 1)
                    if lhs != rhs:
                        report.append(f"d_{i} s_{j} != s_{j} d_{i-1} at level {n}")
    return report


def degenerate_inclusion(X: SimplicialVS, n: int) -> Matrix:
    """Columns spanning the degenerate subspace of X_n (empty at n = 0)."""
    if n == 0:
        return Matrix.zeros(X.dims[0], 0)
    return Matrix.block([[X.degeneracy(n - 1, j) for j in range(n)]])


def quotient_presentation(X: SimplicialVS, n: int) -> Tuple[Matrix, List[int]]:
    """(P, free) with ker P = degenerate subspace and P the identity on its
    columns free, so R with R e_j = e_(free[j]) is a section: P R = id."""
    ann = degenerate_inclusion(X, n).transpose().kernel_basis()
    P = Matrix.block([[w.transpose()] for w in ann]) if ann else Matrix.zeros(0, X.dims[n])
    # kernel_basis puts 1 at a vector's own free column and 0 at the other
    # free columns, after all of its pivot entries
    return P, [max(j for j, x in enumerate(w._e) if x) for w in ann]


def normalize(X: SimplicialVS) -> ChainComplex:
    """X_n modulo degeneracies with the alternating face sum d, as P d R: d
    keeps degenerate vectors degenerate and P kills them, so every section R
    gives the same P d R, and the one of `quotient_presentation` is a gather."""
    pres = [quotient_presentation(X, n) for n in range(X.n_max + 1)]
    dims = tuple(len(free) for _, free in pres)
    diffs = {}
    for n in range(1, X.n_max + 1):
        total = X.face(n, 0)
        for i in range(1, n + 1):
            total = total - X.face(n, i) if i % 2 else total + X.face(n, i)
        diffs[n] = pres[n - 1][0] * total.permute(pres[n][1])
    return ChainComplex(0, X.n_max, dims, diffs)


def surjections(n: int, k: int) -> List[Tuple[int, ...]]:
    """Monotone surjections [n] ->> [k] as value tuples, lex ascending."""
    if k > n or k < 0:
        return []
    out = []
    # an earlier jump makes a larger tuple, so the jump sets go in reverse lex order
    for jumps in reversed(list(itertools.combinations(range(1, n + 1), k))):
        vals = [0]
        for t in range(1, n + 1):
            vals.append(vals[-1] + (1 if t in jumps else 0))
        out.append(tuple(vals))
    return out


def gamma_summands(n: int, top: Optional[int] = None) -> List[Tuple[int, Tuple[int, ...]]]:
    """(k, surjection) pairs indexing Gamma(C)_n, identity first; with `top`
    given, only those with k <= top."""
    top = n if top is None else min(n, top)
    return [(k, eta) for k in range(top, -1, -1) for eta in surjections(n, k)]


def gamma_dims(C: ChainComplex, n: int) -> Dict[int, int]:
    """Dimension of Gamma(C)_n, sum_k C(n, k) dim C_k, from the dimensions
    alone, as {n: dim}; it grows with n, so level n of gamma(C, n) is its
    largest.  Empty where gamma refuses (a negative level, or C.lo < 0)."""
    return {n: sum(comb(n, k) * d for k, d in C.support)} if n >= 0 and C.lo >= 0 else {}


def gamma(C: ChainComplex, N: int) -> SimplicialVS:
    """Levelwise sums of C over surjections, with standard structure maps."""
    if C.lo < 0:
        raise DimensionError("gamma needs support in degrees >= 0")
    if N < 0:
        raise DimensionError("truncation level must be nonnegative")
    # a summand over k > C.hi is zero: listing them would cost 2^n at level n
    summands = {n: gamma_summands(n, C.hi) for n in range(N + 1)}
    # a surjection's length is its level + 1, so one key names one summand
    dim, off = layout([(eta, n, C.dim(k)) for n in range(N + 1) for k, eta in summands[n]])
    dims = tuple(dim.get(n, 0) for n in range(N + 1))

    # only degrees k <= N carry a summand of Gamma_0..Gamma_N
    ident = {k: Matrix.identity(d) for k, d in C.support if k <= N}

    def face(n: int, i: int) -> Matrix:
        # eta . delta_i is eta without position i
        blocks = []
        for k, eta in summands[n]:
            if k not in ident:
                continue
            rest = eta[:i] + eta[i + 1:]
            if eta[i] in rest:  # still onto [k]
                blocks.append((off[rest], off[eta], ident[k]))
            elif eta[i] == 0 and k in C.diffs:  # onto 1..k: the front coface
                blocks.append((off[tuple(v - 1 for v in rest)], off[eta], C.diffs[k]))
        return Matrix.from_blocks(dims[n - 1], dims[n], blocks)

    def degeneracy(n: int, i: int) -> Matrix:
        # eta . sigma_i is eta with position i repeated, still onto [k]
        return Matrix.from_blocks(dims[n + 1], dims[n], [
            (off[eta[:i + 1] + eta[i:]], off[eta], ident[k])
            for k, eta in summands[n] if k in ident])

    faces = {n: tuple(face(n, i) for i in range(n + 1)) for n in range(1, N + 1)}
    degeneracies = {n: tuple(degeneracy(n, i) for i in range(n + 1)) for n in range(N)}
    return SimplicialVS(N, dims, faces, degeneracies)

# -- document codecs (rows of documents._TYPES) ---------------------------------

def _parse_simplicial(d: dict, ctx: _Ctx, path: str) -> SimplicialVS:
    N = _field(d, "N", path, _as_int)
    if N < 0:
        raise DocumentError("N must be nonnegative", f"{path}.N")
    dims = _dims(d, path, ctx.cap, lambda n: n == N + 1, "dims must list X_0..X_N")

    def parse_ops(field: str, valid_levels, rows_at, cols_at):
        table = _field(d, field, path) if valid_levels else {}
        out = {}
        for n, nkey, ops in _int_keys(table, f"{path}.{field}", "level", valid_levels,
                                      "level {} out of range"):
            at = f"{path}.{field}.{nkey}"
            if len(_as_list(ops, at)) != n + 1:
                raise DocumentError(f"level {n} needs {n + 1} maps", at)
            out[n] = tuple(_parse_matrix(m, ctx, f"{at}[{i}]", rows=rows_at(n), cols=cols_at(n))
                           for i, m in enumerate(ops))
        return out

    faces = parse_ops("faces", range(1, N + 1),
                      lambda n: dims[n - 1], lambda n: dims[n])
    degeneracies = parse_ops("degeneracies", range(N),
                             lambda n: dims[n + 1], lambda n: dims[n])
    try:
        return SimplicialVS(N, dims, faces, degeneracies)
    except DimensionError as e:
        raise DocumentError(str(e), path)


def _simplicial_json(X) -> dict:
    def ops(table):
        return {str(n): maps for n, maps in table.items()}
    return {"N": X.n_max, "dims": list(X.dims),
            "faces": ops(X.faces), "degeneracies": ops(X.degeneracies)}
