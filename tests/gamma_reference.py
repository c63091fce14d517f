"""Reference Gamma that factors every structure map in the simplex category,
and a reference normalize that solves for its section.

This is `gamma` as `catcx.doldkan` had it before each face and degeneracy
got its own rule: every map alpha, given as its value tuple, is applied to
each summand (k, eta) by factoring eta . alpha as an injection after a
surjection (`_epi_mono`).  The injection acts by the identity when it is
one, by the differential of C when it is the front coface t -> t+1 (the one
missing 0), and by zero otherwise.  It is kept only as the slow oracle of
`test_gamma_rules.py`; nothing in the package imports it.

`normalize` is the one `catcx.doldkan` had before it read the section off
the projection's free columns: it solves P R = id for R and forms
P d R with two products.  It is the oracle of `test_normalize_section.py`.
"""

from __future__ import annotations

from typing import Tuple

from catcx.chain import ChainComplex
from catcx.doldkan import SimplicialVS, _summands, degenerate_inclusion
from catcx.exactlin import DimensionError, Matrix


def _epi_mono(vals: Tuple[int, ...], k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Factor a monotone map [m] -> [k] as injection . surjection."""
    image = sorted(set(vals))
    rank = {v: r for r, v in enumerate(image)}
    surj = tuple(rank[v] for v in vals)
    return tuple(image), surj


def gamma(C: ChainComplex, N: int) -> SimplicialVS:
    """Levelwise sums of C over surjections, with standard structure maps."""
    if C.lo < 0:
        raise DimensionError("gamma needs support in degrees >= 0")
    if N < 0:
        raise DimensionError("truncation level must be nonnegative")
    summands = {n: _summands(n, C.hi) for n in range(N + 1)}
    offsets = {}
    dims = []
    for n in range(N + 1):
        off = {}
        pos = 0
        for k, eta in summands[n]:
            off[eta] = pos
            pos += C.dim(k)
        offsets[n] = off
        dims.append(pos)

    def structure_map(n: int, alpha: Tuple[int, ...]) -> Matrix:
        # alpha: [m] -> [n] monotone, as its value tuple; result Gamma_n -> Gamma_m
        m = len(alpha) - 1
        blocks = []
        for k, eta in summands[n]:
            if C.dim(k) == 0:
                continue
            comp = tuple(eta[alpha[t]] for t in range(m + 1))
            image, surj = _epi_mono(comp, k)
            kk = len(image) - 1
            if kk == k:
                blk = Matrix.identity(C.dim(k))
            elif kk == k - 1 and image == tuple(range(1, k + 1)):
                blk = C.diffs.get(k)
            else:
                continue
            if blk is None:
                continue
            blocks.append((offsets[m][surj], offsets[n][eta], blk))
        return Matrix.from_blocks(dims[m], dims[n], blocks)

    faces = {}
    for n in range(1, N + 1):
        ops = []
        for i in range(n + 1):
            delta = tuple(t if t < i else t + 1 for t in range(n))
            ops.append(structure_map(n, delta))
        faces[n] = tuple(ops)
    degeneracies = {}
    for n in range(N):
        ops = []
        for i in range(n + 1):
            sigma = tuple(t if t <= i else t - 1 for t in range(n + 2))
            ops.append(structure_map(n, sigma))
        degeneracies[n] = tuple(ops)
    return SimplicialVS(N, tuple(dims), faces, degeneracies)


def quotient_presentation(X: SimplicialVS, n: int) -> Tuple[Matrix, Matrix]:
    """(P, R) with ker P = degenerate subspace and P R = id."""
    S = degenerate_inclusion(X, n)
    ann = S.transpose().kernel_basis()
    d = X.dims[n]
    P = Matrix.block([[w.transpose()] for w in ann]) if ann else Matrix.zeros(0, d)
    if P.rows == 0:
        return P, Matrix.zeros(X.dims[n], 0)
    R = P.solve(Matrix.identity(P.rows))
    if R is None:
        raise DimensionError("quotient presentation has no section")
    return P, R


def normalize(X: SimplicialVS) -> ChainComplex:
    """X_n modulo degeneracies with the alternating face sum."""
    pres = [quotient_presentation(X, n) for n in range(X.n_max + 1)]
    dims = tuple(pres[n][0].rows for n in range(X.n_max + 1))
    diffs = {}
    for n in range(1, X.n_max + 1):
        total = X.face(n, 0)
        for i in range(1, n + 1):
            total = total - X.face(n, i) if i % 2 else total + X.face(n, i)
        diffs[n] = pres[n - 1][0] * total * pres[n][1]
    return ChainComplex(0, X.n_max, dims, diffs)
