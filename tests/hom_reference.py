"""Reference mapping complex with its own block-placement loop.

This is `hom_complex` as `catcx.chain` had it before the mapping complex
became the tensor product B (x) dual(A): each differential places d_B . f_i
and the signed f_{i-1} . d_A blocks summand by summand, with offsets from
`hom_offsets`.  It is kept only as the slow oracle of `test_hom_as_tensor.py`;
nothing in the package imports it.
"""

from __future__ import annotations

from catcx.chain import ChainComplex, hom_offsets, zero_complex
from catcx.exactlin import Matrix


def hom_complex(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    """Map(A,B)_n = (+)_i Hom(A_i, B_{n+i}), with d(f)_i = d_B . f_i -
    (-1)^{n-1} f_{i-1} . d_A for f of degree n; F in Hom(A_i, B_{n+i}) is
    flattened row-major."""
    lo = B.lo - A.hi
    hi = B.hi - A.lo
    if hi < lo:
        return zero_complex()
    dims = tuple(sum(A.dim(i) * B.dim(n + i) for i in hom_offsets(A, B, n))
                 for n in range(lo, hi + 1))
    diffs = {}
    for n in range(lo + 1, hi + 1):
        tgt_off = hom_offsets(A, B, n - 1)
        sign = -1 if (n - 1) % 2 == 0 else 1  # -(-1)^{n-1}
        blocks = []
        for i, c0 in hom_offsets(A, B, n).items():
            if not (A.dim(i) and B.dim(n + i)):
                continue  # an empty summand places only empty blocks
            # d_B . f_i : block from summand i to summand i of degree n-1
            if i in tgt_off and n + i in B.diffs:
                blocks.append((tgt_off[i], c0, B.diffs[n + i], 1, 1, A.dim(i)))
            # f_i . d_A : Hom(A_i, B_{n+i}) -> Hom(A_{i+1}, B_{n+i})
            if i + 1 in tgt_off and i + 1 in A.diffs:
                blocks.append((tgt_off[i + 1], c0, A.diffs[i + 1].transpose(), sign,
                               B.dim(n + i), 1))
        if blocks:
            diffs[n] = Matrix.from_blocks(dims[n - 1 - lo], dims[n - lo], blocks)
    return ChainComplex._of(lo, hi, dims, diffs)
